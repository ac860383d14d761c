//! A domain-specific use of the Persistent Normalized Simulator beyond the queue:
//! crash-safe transfers between "accounts" expressed as a normalized operation with
//! a multi-entry CAS list (withdraw, then deposit), executed by the CAS-executor
//! with recoverable CASes so a crash between the two steps is resumed, not repeated.
//!
//! ```text
//! cargo run -p delayfree-examples --release --bin bank_transfer
//! ```

use capsules::BoundaryStyle;
use delayfree::{CasDesc, CasList, NormalizedCtx, NormalizedOp, NormalizedSimulator, WrapUp};
use pmem::{install_quiet_crash_hook, CrashPolicy, PAddr, PMem};
use rcas::RcasLayout;

/// Move `amount` from one account to another; fails (restarts) under contention.
struct Transfer {
    from: PAddr,
    to: PAddr,
}

impl NormalizedOp for Transfer {
    type Input = u64;
    type Output = bool; // true = transferred, false = insufficient funds

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, amount: &u64) -> CasList {
        let from_balance = ctx.read(self.from);
        if from_balance < *amount {
            return Vec::new(); // nothing to do: insufficient funds
        }
        let to_balance = ctx.read(self.to);
        vec![
            CasDesc::new(self.from, from_balance, from_balance - amount),
            CasDesc::new(self.to, to_balance, to_balance + amount),
        ]
    }

    fn wrap_up(
        &self,
        _ctx: &mut NormalizedCtx<'_, '_, '_>,
        _amount: &u64,
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<bool> {
        if cas_list.is_empty() {
            return WrapUp::Done(false);
        }
        if executed == cas_list.len() {
            WrapUp::Done(true)
        } else {
            // A CAS failed (someone raced us); regenerate against fresh balances.
            WrapUp::Restart
        }
    }
}

const ACCOUNTS: usize = 4;
const TRANSFERS: u64 = 5_000;
const INITIAL: u64 = 1_000_000;

fn main() {
    install_quiet_crash_hook();
    let mem = PMem::with_threads(1);
    let t = mem.thread(0);
    let sim = NormalizedSimulator::new(&t, 1, RcasLayout::DEFAULT, true, BoundaryStyle::General);
    let space = sim.space();
    let accounts: Vec<PAddr> = (0..ACCOUNTS).map(|_| space.create(&t, INITIAL).addr()).collect();
    let mut rt = sim.runtime(&t);

    // Random-ish transfers with aggressive crash injection.
    t.set_crash_policy(CrashPolicy::Random { prob: 0.01, seed: 2024 });
    let mut completed = 0u64;
    for i in 0..TRANSFERS {
        let from = (i % ACCOUNTS as u64) as usize;
        let to = ((i * 7 + 3) % ACCOUNTS as u64) as usize;
        if from == to {
            continue;
        }
        let op = Transfer {
            from: accounts[from],
            to: accounts[to],
        };
        if sim.run(&mut rt, &op, &((i % 97) + 1)) {
            completed += 1;
        }
    }
    t.disarm_crashes();

    let total: u64 = accounts.iter().map(|a| space.read(&t, *a)).sum();
    println!("completed {completed} transfers under {} injected crashes", t.stats().crashes);
    println!("sum of balances: {total} (expected {})", ACCOUNTS as u64 * INITIAL);
    assert_eq!(
        total,
        ACCOUNTS as u64 * INITIAL,
        "money was created or destroyed — the executor recovery is broken"
    );
    println!("conservation of money holds: no transfer was half-applied or double-applied");
}
