//! Algorithm 3: the CAS at the head of a CAS-Read capsule.
//!
//! A CAS-Read capsule may contain at most one CAS to shared memory, and it must be
//! the capsule's first shared-memory instruction; any number of shared reads and
//! local operations may follow. When such a capsule is re-executed after a crash,
//! the CAS must not take effect twice. [`recoverable_cas`] implements exactly the
//! pseudocode of Algorithm 3: advance the capsule's sequence number, and — only on
//! the crash path — consult `checkRecovery` before deciding whether to issue the
//! CAS again. [`recover_fast`] is the crash triage of the contention-adaptive
//! fast capsules, which replace the recoverable CAS by one evidence-carrying CAS.

use pmem::PAddr;
use rcas::{check_recovery, CasEvidence, RcasSpace};

use crate::runtime::CapsuleRuntime;

/// Perform the (single) recoverable CAS of a CAS-Read capsule.
///
/// Must be the first shared-memory effect of the capsule. `expected` and `new` must
/// be derived from state persisted at the previous boundary (or be constants), so
/// that repetitions of the capsule issue the same CAS — this is the capsule
/// correctness condition of Definition 2.2, and it is what makes the repetitions
/// invisible.
///
/// Returns `true` if the CAS took effect (now, or before a crash that interrupted
/// an earlier execution of this capsule).
pub fn recoverable_cas(
    rt: &mut CapsuleRuntime<'_, '_>,
    space: &RcasSpace,
    x: PAddr,
    expected: u64,
    new: u64,
) -> bool {
    let seq = rt.advance_seq();
    if rt.crashed() {
        // Operation `seq` may already have been executed before the crash.
        if check_recovery(space, rt.thread(), x, seq) {
            return true;
        }
    }
    space.cas(rt.thread(), x, expected, new, seq)
}

/// Perform an *anonymous* recoverable CAS (§7): used inside parallelizable methods
/// (generator / wrap-up) for locations that the CAS-executor also touches, so that
/// the executor's notifications are never clobbered. Does not consume a sequence
/// number and is safe to repeat by construction of parallelizable methods.
pub fn anonymous_cas(
    rt: &mut CapsuleRuntime<'_, '_>,
    space: &RcasSpace,
    x: PAddr,
    expected: u64,
    new: u64,
) -> bool {
    space.cas_anonymous(rt.thread(), x, expected, new)
}

/// Crash triage of a contention-adaptive fast capsule (DESIGN.md §11), whose
/// only shared effect is one evidence-carrying CAS
/// ([`RcasSpace::cas_with_evidence`]). Returns `Some(evidence)` when the crash
/// interrupted *this* operation's CAS and that CAS took effect (the operation
/// is complete); `None` means no durable effect escaped and the fast capsule
/// may simply retry. Either way the runtime's sequence number is raised past
/// every announced attempt, so no sequence number is ever reused.
pub fn recover_fast(rt: &mut CapsuleRuntime<'_, '_>, space: &RcasSpace) -> Option<CasEvidence> {
    let t = rt.thread();
    // Honour the sharding contract: a recovering process re-runs the notify
    // step for its own announcement group before consulting its own state.
    let _ = space.help_group(t);
    let ann = space.announcement(t);
    if ann.seq <= rt.seq() {
        return None; // crash hit before this op announced anything
    }
    rt.sync_seq(ann.seq);
    let ev = space.evidence(t)?;
    if ev.result.seq != ann.seq {
        return None;
    }
    if space.recover(t, ev.x).flag {
        Some(ev)
    } else {
        None // announced but the CAS never took durable effect: retry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::BoundaryStyle;
    use crate::runtime::CapsuleStep;
    use pmem::{install_quiet_crash_hook, CrashPolicy, PMem};
    use rcas::RcasSpace;

    /// Increment a shared recoverable-CAS counter exactly `n` times, one CAS-Read
    /// capsule per increment, under the given crash policy; return the runtime.
    fn increment_n(mem: &PMem, pid: usize, x: PAddr, space: &RcasSpace, n: u64, policy: CrashPolicy) {
        let t = mem.thread(pid);
        let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
        // Arm crash injection only after the runtime's frame exists.
        t.set_crash_policy(policy);
        for _ in 0..n {
            rt.run_op(0, |rt| match rt.pc() {
                // Capsule 0 (read-only): read the current value, persist it.
                0 => {
                    let v = space.read(rt.thread(), x);
                    rt.set_local(0, v);
                    rt.boundary(1);
                    CapsuleStep::Continue
                }
                // Capsule 1 (CAS-Read): CAS(v, v+1); on failure go back and re-read.
                1 => {
                    let v = rt.local(0);
                    let ok = recoverable_cas(rt, space, x, v, v + 1);
                    if ok {
                        rt.boundary(2);
                        CapsuleStep::Done(())
                    } else {
                        rt.boundary(0);
                        CapsuleStep::Continue
                    }
                }
                // Capsule 2: the operation had already completed when a crash hit
                // (the final boundary was published); just report completion.
                2 => CapsuleStep::Done(()),
                pc => unreachable!("unexpected pc {pc}"),
            });
        }
        t.disarm_crashes();
    }

    #[test]
    fn single_thread_exact_count_without_crashes() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1);
        let x = space.create(&t, 0).addr();
        increment_n(&mem, 0, x, &space, 100, CrashPolicy::Never);
        assert_eq!(space.read(&mem.thread(0), x), 100);
    }

    #[test]
    fn single_thread_exact_count_with_heavy_crashes() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t, 1);
        let x = space.create(&t, 0).addr();
        increment_n(
            &mem,
            0,
            x,
            &space,
            200,
            CrashPolicy::Random {
                prob: 0.05,
                seed: 7,
            },
        );
        assert_eq!(
            space.read(&mem.thread(0), x),
            200,
            "every increment must take effect exactly once despite crashes"
        );
    }

    #[test]
    fn multi_thread_exact_count_with_crashes() {
        install_quiet_crash_hook();
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 150;
        let mem = PMem::with_threads(THREADS);
        let t0 = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t0, THREADS);
        let x = space.create(&t0, 0).addr();
        std::thread::scope(|s| {
            for pid in 0..THREADS {
                let mem = &mem;
                let space = &space;
                s.spawn(move || {
                    increment_n(
                        mem,
                        pid,
                        x,
                        space,
                        PER_THREAD,
                        CrashPolicy::Random {
                            prob: 0.01,
                            seed: 1000 + pid as u64,
                        },
                    );
                });
            }
        });
        assert_eq!(
            space.read(&mem.thread(0), x),
            THREADS as u64 * PER_THREAD,
            "increments must be exactly-once under concurrency and crashes"
        );
    }

    #[test]
    fn durable_space_survives_full_system_crashes_at_every_crash_point() {
        // The capsule-level form of the flush-discipline guarantee: a CAS-Read
        // increment driven by `run_op` with system crashes (every caught crash
        // rolls unflushed cache lines back) must be exactly-once at *every*
        // crash point — which requires the recoverable-CAS space to flush its
        // announcement lines before each publishing CAS
        // (`RcasSpace::with_durability`; DESIGN.md §7). The crash-point count
        // comes from Stats, never a constant.
        use pmem::{CrashPlan, MemConfig, Mode};
        install_quiet_crash_hook();
        let run = |plan: Option<CrashPlan>| -> u64 {
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
            let t = mem.thread(0);
            let space = RcasSpace::with_default_layout(&t, 1).with_durability(true);
            let x = space.create(&t, 0).addr();
            t.persist(x);
            let mut rt = CapsuleRuntime::new(&t, BoundaryStyle::General, 2);
            rt.set_system_crashes(true);
            mem.persist_everything();
            let _ = t.take_stats();
            if let Some(p) = plan {
                t.set_crash_schedule(p);
            }
            for _ in 0..3 {
                rt.run_op(0, |rt| match rt.pc() {
                    0 => {
                        let v = space.read(rt.thread(), x);
                        rt.set_local(0, v);
                        rt.boundary(1);
                        CapsuleStep::Continue
                    }
                    1 => {
                        let v = rt.local(0);
                        let ok = recoverable_cas(rt, &space, x, v, v + 1);
                        if ok {
                            rt.thread().persist(x);
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
            assert_eq!(
                space.read(&t, x),
                3,
                "each increment must apply exactly once under full-system crashes"
            );
            points
        };
        let n = run(None);
        assert!(n > 0);
        for k in 0..n {
            let _ = run(Some(CrashPlan::once(k)));
            // And the nested flavour: crash again at the first instruction of
            // the recovery the first crash triggered.
            let _ = run(Some(CrashPlan::new(vec![k, 0])));
        }
    }

    #[test]
    fn anonymous_cas_preserves_recoverability_of_named_cas() {
        let mem = PMem::with_threads(2);
        let t0 = mem.thread(0);
        let space = RcasSpace::with_default_layout(&t0, 2);
        let x = space.create(&t0, 0).addr();
        let mut rt0 = CapsuleRuntime::new(&t0, BoundaryStyle::General, 1);
        rt0.boundary(0);
        assert!(recoverable_cas(&mut rt0, &space, x, 0, 5));
        // A wrap-up style anonymous CAS by the same process on the same object.
        assert!(anonymous_cas(&mut rt0, &space, x, 5, 6));
        // The named CAS's success is still discoverable after a (simulated) crash.
        rt0.recover();
        let r = space.recover(&t0, x);
        assert!(r.flag && r.seq == 1, "notification for the executor CAS must survive: {r:?}");
    }
}
