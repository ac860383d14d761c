//! Shared helpers for the cross-crate integration tests.

use queues::QueueHandle;

/// Drive any queue handle through a scripted sequence of operations and return the
/// dequeue results, so different variants can be compared op-for-op.
pub fn run_script<H: QueueHandle>(handle: &mut H, script: &[Op]) -> Vec<Option<u64>> {
    let mut out = Vec::new();
    for op in script {
        match op {
            Op::Enqueue(v) => handle.enqueue(*v),
            Op::Dequeue => out.push(handle.dequeue()),
        }
    }
    out
}

/// One scripted queue operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Enqueue this value.
    Enqueue(u64),
    /// Dequeue (recording the result).
    Dequeue,
}

/// The reference model: what a correct FIFO queue returns for the script.
pub fn model(script: &[Op]) -> Vec<Option<u64>> {
    let mut q = std::collections::VecDeque::new();
    let mut out = Vec::new();
    for op in script {
        match op {
            Op::Enqueue(v) => q.push_back(*v),
            Op::Dequeue => out.push(q.pop_front()),
        }
    }
    out
}

/// A deterministic pseudo-random script mixing enqueues and dequeues.
pub fn random_script(len: usize, seed: u64) -> Vec<Op> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|i| {
            if next() % 3 == 0 {
                Op::Dequeue
            } else {
                Op::Enqueue(i as u64)
            }
        })
        .collect()
}

/// Assertions shared by the queue-shape (`dfck_sweep`) and structure-shape
/// (`dfck_struct_sweep`, `dfck_interleaved`) crash-point sweep tests, so each
/// family runs the same checks on its own variants.
pub mod dfck {
    use bench::dfck::{conc_replay, sweep, sweep_system, ConcWorkload, Variant, Workload};
    use bench::sweep::VictimPlans;
    use pmem::CrashPlan;

    /// `variant` passes the single-crash sweep of its pair workload at every
    /// crash point, and the range really was enumerated (one injected crash per
    /// swept point, the count taken from `Stats`, not a constant).
    pub fn assert_pair_sweep_passes(variant: Variant) {
        let report = sweep(variant, &Workload::pair_for(variant), None);
        assert!(
            report.passed(),
            "{} pair sweep: {:?}",
            report.variant.label(),
            report.violations
        );
        assert!(report.crash_points > 0);
        assert_eq!(report.replays, report.crash_points + 1);
        assert!(report.crashes_injected >= report.crash_points);
    }

    /// `variant` passes the nested (crash-during-recovery) sweep of its pair
    /// workload; for a detectable variant a nested crash must land inside
    /// recovery.
    pub fn assert_nested_sweep_passes(variant: Variant) {
        let report = sweep(variant, &Workload::pair_for(variant), Some(0));
        assert!(
            report.passed(),
            "{} nested sweep: {:?}",
            report.variant.label(),
            report.violations
        );
        if variant.detectable() {
            assert!(
                report.recovery_crashes > 0,
                "{}: no nested crash landed inside recovery",
                report.variant.label()
            );
        }
    }

    /// `variant` passes the full-system sweep of its pair workload, single and
    /// nested, with the flush-order auditor raising no flag.
    pub fn assert_system_sweep_passes(variant: Variant) {
        for nested in [None, Some(0)] {
            let report = sweep_system(variant, &Workload::pair_for(variant), nested);
            assert!(
                report.passed(),
                "{} system sweep (nested={nested:?}): {:?}",
                report.variant.label(),
                report.violations
            );
            assert!(report.crash_points > 0);
            assert_eq!(report.audit_flags, 0);
            if variant.detectable() && nested.is_some() {
                assert!(
                    report.recovery_crashes > 0,
                    "{}: no nested crash landed inside recovery",
                    report.variant.label()
                );
            }
        }
    }

    /// The same (variant, workload, seed, victim, plan, system) tuple
    /// reproduces the replay record exactly — history timestamps, drain
    /// order, scheduler fingerprint and every crash counter — crash-free and
    /// with a scripted mid-operation crash, under both crash semantics.
    pub fn assert_scheduled_replay_is_bit_identical(variant: Variant, threads: usize) {
        let w = ConcWorkload::pair(variant.shape(), threads);
        let victim = threads - 1;
        for system in [false, true] {
            let tag = format!("{variant:?} t{threads} (system={system})");
            let baseline = conc_replay(variant, &w, 5, &VictimPlans::baseline(victim), system);
            let again = conc_replay(variant, &w, 5, &VictimPlans::baseline(victim), system);
            assert_eq!(baseline, again, "{tag}: crash-free replay");
            // Crash the victim mid-window at a point the baseline proved
            // reachable, and require the same determinism.
            let k = baseline.victim_crash_points / 2;
            let plans = VictimPlans::scripted(victim, CrashPlan::nested(k, &[]));
            let crashed = conc_replay(variant, &w, 5, &plans, system);
            let crashed_again = conc_replay(variant, &w, 5, &plans, system);
            assert_eq!(crashed, crashed_again, "{tag}: crashed replay at k={k}");
            assert!(
                crashed.victim_crashes >= 1,
                "{tag}: the scripted crash must fire"
            );
        }
    }
}
