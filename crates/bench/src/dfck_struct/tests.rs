//! Unit tests of the [`crate::dfck`] sweeper on the structure shapes (the
//! stack, set and map variants). The queue-shape tests live in
//! `crate::dfck::tests`; both run the same checks through its shared helpers.

use crate::dfck::tests::{
    assert_baseline_pair_history_is_consistent, assert_interrupted_add_accepted_either_way,
    assert_parallel_sweep_matches_sequential, assert_seeded_workload_is_reproducible_and_mixed,
    crash_free,
};
use crate::dfck::{check_history, ConcWorkload, Shape, Variant, Workload};
use crate::sweep::OpOutcome;

#[test]
fn baseline_pair_histories_are_consistent() {
    Variant::all()
        .into_iter()
        .filter(|v| v.shape() != Shape::Fifo)
        .for_each(assert_baseline_pair_history_is_consistent);
}

#[test]
fn stack_oracle_rejects_corrupted_histories() {
    let w = Workload::pair(Shape::Lifo);
    let good = crash_free(Variant::StackGeneral, &w);
    check_history(&w, &good).unwrap();
    // Lost element.
    let mut lost = good.clone();
    lost.drained.remove(0);
    assert!(check_history(&w, &lost).is_err());
    // Duplicated element.
    let mut dup = good.clone();
    let v = dup.drained[0];
    dup.drained.insert(0, v);
    assert!(check_history(&w, &dup).is_err());
    // FIFO instead of LIFO drain order.
    let mut fifo = good.clone();
    fifo.drained.reverse();
    assert!(check_history(&w, &fifo).is_err());
    // Over-long drain is diagnosed as a cycle.
    let mut cycled = good.clone();
    cycled.drain_overflow = true;
    let err = check_history(&w, &cycled).unwrap_err();
    assert!(err.contains("cyclic"), "diagnosis missing from: {err}");
}

#[test]
fn set_oracle_rejects_wrong_membership_answers() {
    let w = Workload::pair(Shape::Set);
    let good = crash_free(Variant::SetGeneral, &w);
    check_history(&w, &good).unwrap();
    assert_eq!(good.drained, vec![10, 15, 30]);
    // A flipped insert return (claims the key was present).
    let mut flipped = good.clone();
    flipped.outcomes[0] = OpOutcome::Completed(Some(0));
    assert!(check_history(&w, &flipped).is_err());
    // A remove that "succeeded" but left the key behind.
    let mut stale = good.clone();
    stale.drained = vec![10, 15, 20, 30];
    assert!(check_history(&w, &stale).is_err());
}

#[test]
fn set_oracle_accepts_interrupted_ops_either_way() {
    assert_interrupted_add_accepted_either_way(Shape::Lifo, vec![42, 7], vec![7, 42]);
    assert_interrupted_add_accepted_either_way(Shape::Set, vec![7, 42], vec![42]);
}

#[test]
fn seeded_workloads_are_reproducible_and_mixed() {
    assert_seeded_workload_is_reproducible_and_mixed(Shape::Lifo, 2);
    assert_seeded_workload_is_reproducible_and_mixed(Shape::Set, 3);
}

#[test]
fn parallel_sweep_matches_sequential_sweep() {
    assert_parallel_sweep_matches_sequential(Variant::StackGeneral);
}

#[test]
fn conc_struct_workload_generators_are_sane() {
    let stack = ConcWorkload::pair(Shape::Lifo, 2);
    assert_eq!(stack.threads(), 2);
    assert_eq!(stack.drain_bound(), 4 + 2);
    let set = ConcWorkload::pair(Shape::Set, 3);
    assert_eq!(set.threads(), 3);
    // Inserted keys are distinct across pids; removed keys are prefilled.
    assert_eq!(set.drain_bound(), 3 + 3);
}

// The full pair sweeps (every structure variant, single + nested, PPM +
// system) live in tests/dfck_struct_sweep.rs, mirroring the queue split.
