//! The "Normalized" set: the Harris–Michael list in Timnat & Petrank's
//! three-part normalized form, run through the Persistent Normalized Simulator
//! of §7.
//!
//! The decomposition assigns each part exactly the role §7 prescribes:
//!
//! * the **generator** performs the search — a parallelizable method whose
//!   helping unlinks of marked nodes use [`NormalizedCtx::helping_cas`] (the
//!   anonymous CAS), since they target words the executor also CASes;
//! * the **executor** performs the operation's single linearizing CAS (the
//!   window link for an insert, the logical mark for a remove) with the
//!   recoverable CAS — a one-entry list, which rides in the capsule frame;
//! * the **wrap-up** reports the result, and for a remove also attempts the
//!   best-effort physical unlink (helping again, so an anonymous CAS).
//!
//! `contains` is a pure parallelizable method: its generator proposes an empty
//! CAS list and the wrap-up answers from a fresh traversal.

use capsules::{BoundaryStyle, CapsuleRuntime};
use delayfree::{CasDesc, CasList, NormalizedCtx, NormalizedOp, NormalizedSimulator, WrapUp};
use pmem::{PAddr, PThread};

use crate::api::{bool_ret, Drain, StructHandle, StructOp};
use crate::node::{
    enc, next_addr, node_of_next, snapshot_up_to, value_addr, NODE_WORDS, SET_RCAS_LAYOUT,
};
use crate::set::{contains_walk, count_keys, find};
use crate::word_mem::{CtxMem, SpaceMem};

/// The shared, persistent part of the normalized set.
#[derive(Clone, Copy, Debug)]
pub struct NormalizedSet {
    head: PAddr,
    sim: NormalizedSimulator,
}

impl NormalizedSet {
    /// Create an empty set for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline; `optimised` the compact-frame style.
    pub fn new(thread: &PThread<'_>, nprocs: usize, manual: bool, optimised: bool) -> NormalizedSet {
        let style = BoundaryStyle::from_optimised(optimised);
        let sim = NormalizedSimulator::new(thread, nprocs, SET_RCAS_LAYOUT, manual, style);
        let head = thread.alloc(1);
        sim.space().init_word(thread, head, 0);
        if manual {
            thread.persist(head);
        }
        NormalizedSet { head, sim }
    }

    /// Create the calling thread's handle (allocating its capsule frame).
    pub fn handle<'q, 't, 'm>(&'q self, thread: &'t PThread<'m>) -> NormalizedSetHandle<'q, 't, 'm> {
        let rt = self.sim.runtime(thread);
        NormalizedSetHandle { set: self, rt }
    }

    /// Re-attach a handle after a restart (resumes from the restart pointer).
    pub fn attach_handle<'q, 't, 'm>(
        &'q self,
        thread: &'t PThread<'m>,
    ) -> NormalizedSetHandle<'q, 't, 'm> {
        let rt = self.sim.attach(thread);
        NormalizedSetHandle { set: self, rt }
    }

    /// Count the unmarked keys (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        count_keys(&mut SpaceMem::new(self.sim.space(), thread), self.head)
    }
}

/// The normalized insert: the generator searches (and allocates the node); the
/// executor links it; the wrap-up reports. An empty CAS list means the key was
/// already present.
struct InsertOp {
    set: NormalizedSet,
}

impl NormalizedOp for InsertOp {
    type Input = u64;
    type Output = bool;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, k: &u64) -> CasList {
        let s = &self.set;
        let w = find(&mut CtxMem { ctx }, s.head, *k);
        if w.found {
            return Vec::new();
        }
        let node = ctx.alloc(NODE_WORDS);
        ctx.write_private(value_addr(node), *k);
        ctx.space().init_word(ctx.thread(), next_addr(node), w.pred_enc);
        if s.sim.durable() {
            ctx.persist(node);
        }
        vec![CasDesc::new(w.pred_addr, w.pred_enc, enc(node, false))]
    }

    fn wrap_up(
        &self,
        _ctx: &mut NormalizedCtx<'_, '_, '_>,
        _k: &u64,
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<bool> {
        if cas_list.is_empty() {
            return WrapUp::Done(false);
        }
        if executed == cas_list.len() {
            WrapUp::Done(true)
        } else {
            WrapUp::Restart
        }
    }
}

/// The normalized remove: the executor performs only the logical mark (the
/// linearization point); the physical unlink is wrap-up helping. The CAS
/// descriptor's `aux` word carries the predecessor word's address for that
/// unlink.
struct RemoveOp {
    set: NormalizedSet,
}

impl NormalizedOp for RemoveOp {
    type Input = u64;
    type Output = bool;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, k: &u64) -> CasList {
        let w = find(&mut CtxMem { ctx }, self.set.head, *k);
        if !w.found {
            return Vec::new();
        }
        vec![
            CasDesc::new(next_addr(w.curr), w.curr_enc, w.curr_enc | 1)
                .with_aux(w.pred_addr.to_raw()),
        ]
    }

    fn wrap_up(
        &self,
        ctx: &mut NormalizedCtx<'_, '_, '_>,
        _k: &u64,
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<bool> {
        if cas_list.is_empty() {
            return WrapUp::Done(false);
        }
        if executed != cas_list.len() {
            return WrapUp::Restart;
        }
        // Best-effort physical unlink (helping, repetition-safe): swing the
        // predecessor word from the victim to its successor.
        let c = &cas_list[0];
        let pred_addr = PAddr::from_raw(c.aux);
        let victim = node_of_next(c.obj);
        if ctx.helping_cas(pred_addr, enc(victim, false), c.expected) && self.set.sim.durable() {
            ctx.thread().flush(pred_addr);
        }
        WrapUp::Done(true)
    }
}

/// The normalized contains: a pure parallelizable method (empty CAS list; the
/// wrap-up traverses and answers).
struct ContainsOp {
    set: NormalizedSet,
}

impl NormalizedOp for ContainsOp {
    type Input = u64;
    type Output = bool;

    fn generator(&self, _ctx: &mut NormalizedCtx<'_, '_, '_>, _k: &u64) -> CasList {
        Vec::new()
    }

    fn wrap_up(
        &self,
        ctx: &mut NormalizedCtx<'_, '_, '_>,
        k: &u64,
        _cas_list: &CasList,
        _executed: usize,
    ) -> WrapUp<bool> {
        WrapUp::Done(contains_walk(&mut CtxMem { ctx }, self.set.head, *k))
    }
}

/// Per-thread handle for the normalized set.
pub struct NormalizedSetHandle<'q, 't, 'm> {
    set: &'q NormalizedSet,
    rt: CapsuleRuntime<'t, 'm>,
}

impl<'q, 't, 'm> NormalizedSetHandle<'q, 't, 'm> {
    /// Access the underlying capsule runtime (metrics, crash flavour…).
    pub fn runtime_mut(&mut self) -> &mut CapsuleRuntime<'t, 'm> {
        &mut self.rt
    }

    /// See [`CapsuleRuntime::set_entry_boundary`].
    pub fn set_entry_boundary(&mut self, enabled: bool) {
        self.rt.set_entry_boundary(enabled);
    }

    /// Insert `k` (detectably); returns whether it was absent.
    pub fn insert(&mut self, k: u64) -> bool {
        let op = InsertOp { set: *self.set };
        self.set.sim.run(&mut self.rt, &op, &k)
    }

    /// Remove `k` (detectably); returns whether it was present.
    pub fn remove(&mut self, k: u64) -> bool {
        let op = RemoveOp { set: *self.set };
        self.set.sim.run(&mut self.rt, &op, &k)
    }

    /// Membership test (detectably reported).
    pub fn contains(&mut self, k: u64) -> bool {
        let op = ContainsOp { set: *self.set };
        self.set.sim.run(&mut self.rt, &op, &k)
    }
}

impl StructHandle for NormalizedSetHandle<'_, '_, '_> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Insert(k) => bool_ret(self.insert(k)),
            StructOp::Remove(k) => bool_ret(self.remove(k)),
            StructOp::Contains(k) => bool_ret(self.contains(k)),
            other => panic!("set handle cannot apply non-set operation {other:?}"),
        }
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        let set = self.set;
        let space = set.sim.space();
        let t = self.rt.thread();
        snapshot_up_to(
            max,
            space.read(t, set.head),
            |a| space.read(t, a),
            |a| t.read(a),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{install_quiet_crash_hook, CrashPlan, CrashPolicy, MemConfig, Mode, PMem};

    #[test]
    fn insert_remove_contains_single_thread_both_variants() {
        for optimised in [false, true] {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let s = NormalizedSet::new(&t, 1, true, optimised);
            let mut h = s.handle(&t);
            assert!(h.insert(5));
            assert!(h.insert(3));
            assert!(!h.insert(5), "optimised={optimised}");
            assert!(h.contains(3));
            assert!(!h.contains(4));
            assert!(h.remove(3));
            assert!(!h.remove(3));
            assert_eq!(h.drain_up_to(16).items, vec![5]);
            assert_eq!(s.len(&t), 1);
        }
    }

    #[test]
    fn concurrent_same_key_contention_is_exact() {
        const THREADS: usize = 3;
        const ROUNDS: u64 = 250;
        let mem = PMem::with_threads(THREADS);
        let s = NormalizedSet::new(&mem.thread(0), THREADS, true, false);
        let counts: Vec<(u64, u64)> = std::thread::scope(|sc| {
            let handles: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let mem = &mem;
                    let s = &s;
                    sc.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = s.handle(&t);
                        let (mut ins, mut rem) = (0, 0);
                        for r in 0..ROUNDS {
                            let k = r % 5;
                            if h.insert(k) {
                                ins += 1;
                            }
                            if h.remove(k) {
                                rem += 1;
                            }
                        }
                        (ins, rem)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total_ins: u64 = counts.iter().map(|c| c.0).sum();
        let total_rem: u64 = counts.iter().map(|c| c.1).sum();
        let t = mem.thread(0);
        let mut h = s.handle(&t);
        let left = h.drain_up_to(64).items;
        assert_eq!(total_ins, total_rem + left.len() as u64);
    }

    #[test]
    fn operations_survive_random_crashes() {
        install_quiet_crash_hook();
        for optimised in [false, true] {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let s = NormalizedSet::new(&t, 1, true, optimised);
            let mut h = s.handle(&t);
            t.set_crash_policy(CrashPolicy::Random { prob: 0.02, seed: 47 });
            let mut model = std::collections::BTreeSet::new();
            for r in 0..400u64 {
                let k = (r * 11) % 13;
                if r % 3 == 2 {
                    assert_eq!(h.remove(k), model.remove(&k), "optimised={optimised} round {r}");
                } else {
                    assert_eq!(h.insert(k), model.insert(k), "optimised={optimised} round {r}");
                }
            }
            t.disarm_crashes();
            let left = h.drain_up_to(64).items;
            assert_eq!(left, model.iter().copied().collect::<Vec<u64>>());
        }
    }

    #[test]
    fn manual_durability_survives_full_system_crash() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let s = NormalizedSet::new(&t, 1, true, false);
        {
            let mut h = s.handle(&t);
            for k in [9, 2, 6] {
                assert!(h.insert(k));
            }
            assert!(h.remove(6));
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = s.attach_handle(&t);
        assert_eq!(h.drain_up_to(16).items, vec![2, 9]);
    }

    /// dfck-style exhaustive enumeration at the crate level (single + nested
    /// schedules, both crash flavours), mirroring the queue simulators' tests.
    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        install_quiet_crash_hook();
        type History = (Vec<Option<u64>>, Vec<u64>);
        let run = |plan: Option<CrashPlan>, system: bool| -> (History, u64, u64) {
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
            let t = mem.thread(0);
            let s = NormalizedSet::new(&t, 1, true, false);
            let mut h = s.handle(&t);
            h.runtime_mut().set_system_crashes(system);
            assert!(h.insert(10));
            assert!(h.insert(20));
            mem.persist_everything();
            let _ = t.take_stats();
            if let Some(p) = plan {
                t.set_crash_schedule(p);
            }
            let rets = vec![
                h.apply(StructOp::Insert(15)),
                h.apply(StructOp::Insert(15)),
                h.apply(StructOp::Remove(10)),
                h.apply(StructOp::Contains(15)),
                h.apply(StructOp::Remove(99)),
            ];
            let points = t.stats().crash_points;
            t.disarm_crashes();
            let drained = h.drain_up_to(8);
            assert!(!drained.truncated);
            ((rets, drained.items), points, h.runtime_mut().metrics().recovery_crashes)
        };
        for system in [false, true] {
            let (base, n, _) = run(None, system);
            assert_eq!(
                base,
                (
                    vec![Some(1), Some(0), Some(1), Some(1), Some(0)],
                    vec![15, 20]
                )
            );
            assert!(n > 0);
            let mut nested_recovery_crashes = 0;
            for k in 0..n {
                let (hist, _, _) = run(Some(CrashPlan::once(k)), system);
                assert_eq!(hist, base, "system={system} crash at point {k}");
                let (hist, _, rc) = run(Some(CrashPlan::nested(k, &[0])), system);
                assert_eq!(hist, base, "system={system} nested crash at point {k}");
                nested_recovery_crashes += rc;
            }
            assert!(
                nested_recovery_crashes > 0,
                "the nested sweep must interrupt at least one recovery (system={system})"
            );
        }
    }
}
