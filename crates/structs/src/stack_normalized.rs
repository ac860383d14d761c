//! The "Normalized" stack: the Treiber stack expressed as a normalized data
//! structure (CAS generator / executor / wrap-up) and run through the
//! Persistent Normalized Simulator of §7 — the stack-shaped sibling of
//! [`queues::NormalizedQueue`].
//!
//! Both operations decompose trivially: the generator observes `top` and
//! proposes the single executor CAS (push additionally allocates and
//! initialises the node — private writes, safe to repeat); the wrap-up reports
//! the result (a pop's value travels in the CAS descriptor's `aux` word, the
//! same trick the normalized dequeue uses). An empty stack yields an empty CAS
//! list and the wrap-up answers `None` directly.

use capsules::{BoundaryStyle, CapsuleRuntime};
use delayfree::{CasDesc, CasList, NormalizedCtx, NormalizedOp, NormalizedSimulator, WrapUp};
use pmem::{PAddr, PThread};
use rcas::RcasLayout;

use crate::api::{drain_by_pops, Drain, StructHandle, StructOp};
use crate::node::{next_addr, value_addr, NODE_WORDS};

/// The shared, persistent part of the normalized stack.
#[derive(Clone, Copy, Debug)]
pub struct NormalizedStack {
    /// Recoverable-CAS word holding the top node address.
    top: PAddr,
    sim: NormalizedSimulator,
}

impl NormalizedStack {
    /// Create an empty stack for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline; `optimised` the compact-frame style (the
    /// `-Opt` style of the queues). Both styles keep the single-entry CAS lists
    /// inside the capsule frame.
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        manual: bool,
        optimised: bool,
    ) -> NormalizedStack {
        let style = BoundaryStyle::from_optimised(optimised);
        let sim = NormalizedSimulator::new(thread, nprocs, RcasLayout::DEFAULT, manual, style);
        let top = thread.alloc(1);
        sim.space().init_word(thread, top, 0);
        if manual {
            thread.persist(top);
        }
        NormalizedStack { top, sim }
    }

    /// Create the calling thread's handle (allocating its capsule frame).
    pub fn handle<'q, 't, 'm>(
        &'q self,
        thread: &'t PThread<'m>,
    ) -> NormalizedStackHandle<'q, 't, 'm> {
        let rt = self.sim.runtime(thread);
        NormalizedStackHandle { stack: self, rt }
    }

    /// Re-attach a handle after a restart (resumes from the restart pointer).
    pub fn attach_handle<'q, 't, 'm>(
        &'q self,
        thread: &'t PThread<'m>,
    ) -> NormalizedStackHandle<'q, 't, 'm> {
        let rt = self.sim.attach(thread);
        NormalizedStackHandle { stack: self, rt }
    }

    /// Count the elements reachable from the top (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        let mut count = 0;
        let mut node = PAddr::from_raw(self.sim.space().read(thread, self.top));
        while !node.is_null() {
            count += 1;
            node = PAddr::from_raw(thread.read(next_addr(node)));
        }
        count
    }
}

/// The normalized push: the generator allocates the node and proposes the top
/// swing; the wrap-up has nothing left to do.
struct PushOp {
    stack: NormalizedStack,
}

impl NormalizedOp for PushOp {
    type Input = u64;
    type Output = ();

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, value: &u64) -> CasList {
        let s = &self.stack;
        // Allocate and initialise the node (private persistent writes;
        // repetition just rebuilds an unpublished node).
        let node = ctx.alloc(NODE_WORDS);
        ctx.write_private(value_addr(node), *value);
        let top = ctx.read(s.top);
        ctx.write_private(next_addr(node), top);
        if s.sim.durable() {
            ctx.persist(node);
        }
        vec![CasDesc::new(s.top, top, node.to_raw())]
    }

    fn wrap_up(
        &self,
        _ctx: &mut NormalizedCtx<'_, '_, '_>,
        _value: &u64,
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<()> {
        if executed == cas_list.len() {
            // The executor (in durable mode) already persisted the top it swung.
            WrapUp::Done(())
        } else {
            WrapUp::Restart
        }
    }
}

/// The normalized pop: the generator proposes the top swing (or an empty list
/// when the stack is empty); the wrap-up reports the value carried in `aux`.
struct PopOp {
    stack: NormalizedStack,
}

impl NormalizedOp for PopOp {
    type Input = ();
    type Output = Option<u64>;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, _input: &()) -> CasList {
        let s = &self.stack;
        let top = PAddr::from_raw(ctx.read(s.top));
        if top.is_null() {
            return Vec::new(); // empty stack: nothing to CAS
        }
        let next = ctx.read_plain(next_addr(top));
        let value = ctx.read_plain(value_addr(top));
        vec![CasDesc::new(s.top, top.to_raw(), next).with_aux(value)]
    }

    fn wrap_up(
        &self,
        _ctx: &mut NormalizedCtx<'_, '_, '_>,
        _input: &(),
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<Option<u64>> {
        if cas_list.is_empty() {
            return WrapUp::Done(None);
        }
        if executed == cas_list.len() {
            WrapUp::Done(Some(cas_list[0].aux))
        } else {
            WrapUp::Restart
        }
    }
}

/// Per-thread handle for the normalized stack.
pub struct NormalizedStackHandle<'q, 't, 'm> {
    stack: &'q NormalizedStack,
    rt: CapsuleRuntime<'t, 'm>,
}

impl<'q, 't, 'm> NormalizedStackHandle<'q, 't, 'm> {
    /// Access the underlying capsule runtime (metrics, crash flavour…).
    pub fn runtime_mut(&mut self) -> &mut CapsuleRuntime<'t, 'm> {
        &mut self.rt
    }

    /// See [`CapsuleRuntime::set_entry_boundary`].
    pub fn set_entry_boundary(&mut self, enabled: bool) {
        self.rt.set_entry_boundary(enabled);
    }

    /// Push `value` onto the stack (detectably).
    pub fn push(&mut self, value: u64) {
        let op = PushOp { stack: *self.stack };
        self.stack.sim.run(&mut self.rt, &op, &value)
    }

    /// Pop the top of the stack (detectably).
    pub fn pop(&mut self) -> Option<u64> {
        let op = PopOp { stack: *self.stack };
        self.stack.sim.run(&mut self.rt, &op, &())
    }
}

impl StructHandle for NormalizedStackHandle<'_, '_, '_> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Push(v) => {
                self.push(v);
                None
            }
            StructOp::Pop => self.pop(),
            other => panic!("stack handle cannot apply non-stack operation {other:?}"),
        }
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        drain_by_pops(max, || self.pop())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{install_quiet_crash_hook, CrashPlan, CrashPolicy, MemConfig, Mode, PMem};
    use std::collections::HashSet;

    #[test]
    fn lifo_order_single_thread_both_variants() {
        for optimised in [false, true] {
            let mem = PMem::with_threads(1);
            let s = NormalizedStack::new(&mem.thread(0), 1, true, optimised);
            let t = mem.thread(0);
            let mut h = s.handle(&t);
            assert_eq!(h.pop(), None);
            for i in 1..=200 {
                h.push(i);
            }
            assert_eq!(s.len(&t), 200);
            for i in (1..=200).rev() {
                assert_eq!(h.pop(), Some(i), "optimised={optimised}");
            }
            assert_eq!(h.pop(), None);
        }
    }

    #[test]
    fn concurrent_elements_are_neither_lost_nor_duplicated() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 1_500;
        let mem = PMem::with_threads(THREADS);
        let s = NormalizedStack::new(&mem.thread(0), THREADS, true, false);
        let results: Vec<Vec<u64>> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let mem = &mem;
                    let s = &s;
                    sc.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = s.handle(&t);
                        let mut popped = Vec::new();
                        for i in 0..PER_THREAD {
                            h.push((pid as u64) << 32 | i);
                            if let Some(v) = h.pop() {
                                popped.push(v);
                            }
                        }
                        popped
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let t = mem.thread(0);
        let mut h = s.handle(&t);
        let mut all: Vec<u64> = results.into_iter().flatten().collect();
        while let Some(v) = h.pop() {
            all.push(v);
        }
        assert_eq!(all.len(), THREADS * PER_THREAD as usize);
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn operations_survive_random_crashes() {
        install_quiet_crash_hook();
        for optimised in [false, true] {
            let mem = PMem::with_threads(1);
            let s = NormalizedStack::new(&mem.thread(0), 1, true, optimised);
            let t = mem.thread(0);
            let mut h = s.handle(&t);
            t.set_crash_policy(CrashPolicy::Random { prob: 0.02, seed: 23 });
            for i in 1..=300u64 {
                h.push(i);
            }
            let mut out = Vec::new();
            while let Some(v) = h.pop() {
                out.push(v);
            }
            t.disarm_crashes();
            assert_eq!(out, (1..=300).rev().collect::<Vec<u64>>(), "optimised={optimised}");
        }
    }

    /// dfck-style exhaustive enumeration at the crate level, mirroring the
    /// queue simulators' exhaustive tests (single + nested schedules, both
    /// crash flavours).
    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        install_quiet_crash_hook();
        let run = |plan: Option<CrashPlan>, system: bool| -> (Vec<Option<u64>>, Vec<u64>, u64, u64) {
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
            let t = mem.thread(0);
            let s = NormalizedStack::new(&t, 1, true, false);
            let mut h = s.handle(&t);
            h.runtime_mut().set_system_crashes(system);
            h.push(100);
            mem.persist_everything();
            let _ = t.take_stats();
            if let Some(p) = plan {
                t.set_crash_schedule(p);
            }
            let mut rets = Vec::new();
            h.push(1);
            rets.push(None);
            rets.push(h.pop());
            h.push(2);
            rets.push(None);
            rets.push(h.pop());
            rets.push(h.pop());
            let points = t.stats().crash_points;
            t.disarm_crashes();
            let drained = h.drain_up_to(8);
            assert!(!drained.truncated);
            (rets, drained.items, points, h.runtime_mut().metrics().recovery_crashes)
        };
        for system in [false, true] {
            let (base_rets, base_drain, n, _) = run(None, system);
            assert_eq!(base_rets, vec![None, Some(1), None, Some(2), Some(100)]);
            assert_eq!(base_drain, Vec::<u64>::new());
            assert!(n > 0);
            let mut nested_recovery_crashes = 0;
            for k in 0..n {
                let (rets, drain, _, _) = run(Some(CrashPlan::once(k)), system);
                assert_eq!(rets, base_rets, "system={system} crash at point {k}");
                assert_eq!(drain, base_drain, "system={system} crash at point {k}");
                let (rets, drain, _, rc) = run(Some(CrashPlan::nested(k, &[0])), system);
                assert_eq!(rets, base_rets, "system={system} nested crash at point {k}");
                assert_eq!(drain, base_drain, "system={system} nested crash at point {k}");
                nested_recovery_crashes += rc;
            }
            assert!(
                nested_recovery_crashes > 0,
                "the nested sweep must interrupt at least one recovery (system={system})"
            );
        }
    }
}
