//! §6: the Low-Computation-Delay Simulator (CAS-Read and Read-Only capsules).
//!
//! Instead of a boundary after *every* instruction, boundaries are placed only where
//! the CAS-Read discipline requires one:
//!
//! * a capsule contains **at most one CAS** to shared memory, and it must be the
//!   capsule's first shared-memory effect,
//! * any number of shared **reads** and local operations may follow,
//! * a capsule that begins with a persistent write of a private heap location may
//!   freely read and rewrite that location (there is no write-after-read hazard:
//!   restarting the capsule overwrites it again),
//! * otherwise, a read of a heap location followed by a write to it needs a boundary
//!   in between (§6 / the Blelloch-et-al. idempotence rule).
//!
//! Fewer boundaries mean less computation delay but a longer re-execution after a
//! crash — exactly the trade-off of the paper's "General" queue variant.
//!
//! The simulator owns the plumbing every CAS-Read structure shares — the General
//! queue, stack, set and map hold one and declare only their capsule state
//! machines: it builds the recoverable-CAS space (durable announcements under the
//! hand-placed flush discipline), creates and re-attaches capsule runtimes in its
//! frame style, runs the capsule-opening CAS ([`capsules::recoverable_cas`]) and
//! owns the two persist rules of the shared-cache model
//! ([`persist`](CasReadSimulator::persist) before a CAS,
//! [`persist_before_boundary`](CasReadSimulator::persist_before_boundary) before a
//! boundary).

use capsules::{recoverable_cas, BoundaryStyle, CapsuleRuntime};
use pmem::{PAddr, PThread};
use rcas::{RcasLayout, RcasSpace};

/// The Low-Computation-Delay (CAS-Read) simulator.
#[derive(Clone, Copy, Debug)]
pub struct CasReadSimulator {
    space: RcasSpace,
    style: BoundaryStyle,
}

impl CasReadSimulator {
    /// Build a simulator for `nprocs` processes over a fresh recoverable-CAS space
    /// with `layout`. `durable` selects the hand-placed flush discipline of the
    /// shared-cache model: the space then makes announcement lines durable before
    /// every publishing CAS (DESIGN.md §7) and the persist rules flush. `style` is
    /// the frame layout of every runtime the simulator creates.
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        layout: RcasLayout,
        durable: bool,
        style: BoundaryStyle,
    ) -> CasReadSimulator {
        let space = RcasSpace::new(thread, nprocs, layout).with_durability(durable);
        CasReadSimulator { space, style }
    }

    /// The recoverable-CAS space used by this simulator.
    #[inline]
    pub fn space(&self) -> &RcasSpace {
        &self.space
    }

    /// Whether the simulator follows the hand-placed flush discipline.
    #[inline]
    pub fn durable(&self) -> bool {
        self.space.durable()
    }

    /// A fresh capsule runtime with `nvars` persisted locals for `thread`.
    pub fn runtime<'t, 'm>(&self, thread: &'t PThread<'m>, nvars: usize) -> CapsuleRuntime<'t, 'm> {
        CapsuleRuntime::new(thread, self.style, nvars)
    }

    /// Re-attach `thread`'s runtime after a restart, resuming from the frame its
    /// restart pointer names.
    pub fn attach<'t, 'm>(&self, thread: &'t PThread<'m>, nvars: usize) -> CapsuleRuntime<'t, 'm> {
        CapsuleRuntime::attach_from_restart_pointer(thread, self.style, nvars)
    }

    /// The CAS that opens a CAS-Read capsule (Algorithm 3). Must be the capsule's
    /// first shared-memory effect; `expected`/`new` must come from state persisted
    /// at the previous boundary.
    #[inline]
    pub fn capsule_cas(
        &self,
        rt: &mut CapsuleRuntime<'_, '_>,
        addr: PAddr,
        expected: u64,
        new: u64,
    ) -> bool {
        recoverable_cas(rt, &self.space, addr, expected, new)
    }

    /// Persist the line holding `addr` under the durable discipline, when the next
    /// publication is a locked CAS (or nothing). Compact frames (the `-Opt`
    /// variants) elide the fence: the CAS's lock prefix orders the pending flush
    /// just like the fence would (Px86). A capsule *boundary* does not qualify —
    /// use [`persist_before_boundary`](Self::persist_before_boundary).
    #[inline]
    pub fn persist(&self, thread: &PThread<'_>, addr: PAddr) {
        if !self.durable() {
            return;
        }
        thread.flush(addr);
        if self.style != BoundaryStyle::Compact {
            thread.fence();
        }
    }

    /// Persist the line holding `addr` under the durable discipline, when the next
    /// publication is a capsule boundary: flush and always fence. The compact
    /// boundary publishes its control word with a release *store* — a plain `mov`
    /// on x86, which (unlike a locked CAS) does not order earlier `clflushopt`s —
    /// so a crash between the boundary's own flush and its trailing fence could
    /// persist the frame without the line it references (DESIGN.md §13).
    #[inline]
    pub fn persist_before_boundary(&self, thread: &PThread<'_>, addr: PAddr) {
        if !self.durable() {
            return;
        }
        thread.flush(addr);
        thread.fence();
    }

    /// A shared read of a recoverable-CAS-formatted word. Reads are invisible and
    /// may appear anywhere in a capsule.
    pub fn read(&self, rt: &mut CapsuleRuntime<'_, '_>, addr: PAddr) -> u64 {
        self.space.read(rt.thread(), addr)
    }

    /// A shared read of a plain persistent word.
    pub fn read_plain(&self, rt: &mut CapsuleRuntime<'_, '_>, addr: PAddr) -> u64 {
        rt.thread().read(addr)
    }

    /// A persistent write to a *private* heap location (e.g. initialising a freshly
    /// allocated node before it is published). Safe anywhere in a capsule because a
    /// restart simply performs the write again.
    pub fn write_private(&self, rt: &mut CapsuleRuntime<'_, '_>, addr: PAddr, value: u64) {
        rt.thread().write(addr, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsules::CapsuleStep;
    use pmem::{install_quiet_crash_hook, CrashPolicy, MemConfig, Mode, PMem};

    fn simulator(t: &PThread<'_>, nprocs: usize) -> CasReadSimulator {
        CasReadSimulator::new(t, nprocs, RcasLayout::DEFAULT, false, BoundaryStyle::General)
    }

    /// The canonical CAS-Read encapsulation of a fetch-and-increment: capsule 0
    /// (read-only) reads and persists the expected value, capsule 1 (CAS-Read) does
    /// the CAS. Compare with the constant-delay test: same machine, half the
    /// boundaries for the read part.
    fn increment(
        mem: &PMem,
        pid: usize,
        sim: &CasReadSimulator,
        x: PAddr,
        n: u64,
        policy: CrashPolicy,
    ) -> capsules::CapsuleMetrics {
        let t = mem.thread(pid);
        let mut rt = sim.runtime(&t, 2);
        // Arm crash injection only after the runtime's frame exists.
        t.set_crash_policy(policy);
        for _ in 0..n {
            rt.run_op(0, |rt| match rt.pc() {
                0 => {
                    let v = sim.read(rt, x);
                    rt.set_local(0, v);
                    rt.boundary(1);
                    CapsuleStep::Continue
                }
                1 => {
                    let v = rt.local(0);
                    if sim.capsule_cas(rt, x, v, v + 1) {
                        rt.boundary(2);
                        CapsuleStep::Done(())
                    } else {
                        rt.boundary(0);
                        CapsuleStep::Continue
                    }
                }
                2 => CapsuleStep::Done(()),
                pc => unreachable!("pc {pc}"),
            });
        }
        t.disarm_crashes();
        rt.metrics()
    }

    #[test]
    fn increments_are_exact_without_crashes() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let sim = simulator(&t, 1);
        let x = sim.space().create(&t, 0).addr();
        increment(&mem, 0, &sim, x, 64, CrashPolicy::Never);
        assert_eq!(sim.space().read(&mem.thread(0), x), 64);
    }

    #[test]
    fn increments_are_exact_with_crashes() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(2);
        let t = mem.thread(0);
        let sim = simulator(&t, 2);
        let x = sim.space().create(&t, 0).addr();
        std::thread::scope(|s| {
            for pid in 0..2 {
                let mem = &mem;
                let sim = &sim;
                s.spawn(move || {
                    increment(
                        mem,
                        pid,
                        sim,
                        x,
                        120,
                        CrashPolicy::Random {
                            prob: 0.02,
                            seed: 11 + pid as u64,
                        },
                    );
                });
            }
        });
        assert_eq!(sim.space().read(&mem.thread(0), x), 240);
    }

    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        // dfck-style enumeration at the simulator level: learn the crash-point
        // count of a crash-free run from Stats, then replay once per point k
        // (and once per nested [k, 0] crash-during-recovery schedule) asserting
        // the counter is exact every time.
        install_quiet_crash_hook();
        let run = |plan: Option<pmem::CrashPlan>| -> (u64, u64) {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let sim = simulator(&t, 1);
            let x = sim.space().create(&t, 0).addr();
            let mut rt = sim.runtime(&t, 2);
            let _ = t.take_stats();
            if let Some(p) = plan {
                t.set_crash_schedule(p);
            }
            for _ in 0..3 {
                rt.run_op(0, |rt| match rt.pc() {
                    0 => {
                        let v = sim.read(rt, x);
                        rt.set_local(0, v);
                        rt.boundary(1);
                        CapsuleStep::Continue
                    }
                    1 => {
                        let v = rt.local(0);
                        if sim.capsule_cas(rt, x, v, v + 1) {
                            rt.boundary(2);
                            CapsuleStep::Done(())
                        } else {
                            rt.boundary(0);
                            CapsuleStep::Continue
                        }
                    }
                    2 => CapsuleStep::Done(()),
                    pc => unreachable!("pc {pc}"),
                });
            }
            let points = t.stats().crash_points;
            t.disarm_crashes();
            (sim.space().read(&t, x), points)
        };
        let (value, n) = run(None);
        assert_eq!(value, 3);
        assert!(n > 0);
        for k in 0..n {
            let (v, _) = run(Some(pmem::CrashPlan::once(k)));
            assert_eq!(v, 3, "crash at point {k} changed the result");
            let (v, _) = run(Some(pmem::CrashPlan::new(vec![k, 0])));
            assert_eq!(v, 3, "nested crash at point {k} changed the result");
        }
    }

    #[test]
    fn uses_fewer_boundaries_than_constant_delay() {
        // Both simulators execute the same 20 uncontended increments; the CAS-Read
        // encapsulation needs 2 boundaries per op (read capsule + CAS capsule +
        // entry disabled), the single-instruction encapsulation needs one per
        // instruction which is strictly more once the extra result-persists are
        // counted.
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let sim = simulator(&t, 1);
        let x = sim.space().create(&t, 0).addr();
        let metrics = increment(&mem, 0, &sim, x, 20, CrashPolicy::Never);
        // entry boundary + read capsule + CAS capsule = 3 boundaries per operation.
        assert_eq!(metrics.boundaries, 3 * 20);
        assert_eq!(metrics.operations, 20);
    }

    #[test]
    fn persist_rules_follow_durability_and_frame_style() {
        // (flushes, fences) of one `persist` and one `persist_before_boundary`
        // of a freshly written line, per configuration: the fence is elided
        // only before a CAS with compact frames, and nothing is issued when
        // the simulator is not durable.
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let cases = [
            (true, BoundaryStyle::General, (1, 1), (1, 1)),
            (true, BoundaryStyle::Compact, (1, 0), (1, 1)),
            (false, BoundaryStyle::General, (0, 0), (0, 0)),
            (false, BoundaryStyle::Compact, (0, 0), (0, 0)),
        ];
        for (durable, style, persist, before_boundary) in cases {
            let sim = CasReadSimulator::new(&t, 1, RcasLayout::DEFAULT, durable, style);
            let cost = |rule: fn(&CasReadSimulator, &PThread<'_>, PAddr)| {
                let x = t.alloc(1);
                t.write(x, 1);
                let before = t.stats();
                rule(&sim, &t, x);
                let d = t.stats().since(&before);
                (d.flushes, d.fences)
            };
            let label = format!("durable={durable} style={style:?}");
            assert_eq!(cost(CasReadSimulator::persist), persist, "persist, {label}");
            assert_eq!(
                cost(CasReadSimulator::persist_before_boundary),
                before_boundary,
                "persist_before_boundary, {label}"
            );
        }
    }
}
