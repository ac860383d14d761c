//! The "Normalized" detectable map: the bucketed protocol of
//! [`map`](crate::map) in Timnat & Petrank's three-part normalized form, run
//! through the Persistent Normalized Simulator of §7.
//!
//! The decomposition assigns each part exactly the role §7 prescribes:
//!
//! * the **generator** routes to the owning generation (performing any resize
//!   migration the route owes — freezes, copy inserts, cursor and directory
//!   installs are all parallelizable helping on [`NormalizedCtx::helping_cas`])
//!   and searches the bucket;
//! * the **executor** performs the operation's single linearizing CAS — the
//!   window link for an insert, the tombstone mark for a remove — with the
//!   recoverable CAS; always a one-entry list, which rides in the capsule
//!   frame;
//! * the **wrap-up** reports the result; a successful insert's wrap-up also
//!   runs the resize trigger (helping again — repetition-safe).
//!
//! The no-unlink tombstone policy (see the map module docs) means the remove
//! needs no unlink helping in its wrap-up, unlike the list set's.
//!
//! `contains` is a pure parallelizable method: its generator proposes an
//! empty CAS list and the wrap-up answers from a read-only routed traversal.

use capsules::{BoundaryStyle, CapsuleRuntime};
use delayfree::{CasDesc, CasList, NormalizedCtx, NormalizedOp, NormalizedSimulator, WrapUp};
use pmem::{PAddr, PThread};

use crate::api::{bool_ret, Drain, StructHandle, StructOp};
use crate::map::{
    alloc_gen, contains_at, drain_map, find_in, map_len, maybe_grow, menc, route_read,
    route_update, ChainLen, FindRes, MapConfig, MapWindow, DEL, MAP_RCAS_LAYOUT,
};
use crate::node::{next_addr, value_addr, NODE_WORDS};
use crate::word_mem::{CtxMem, SpaceMem};

/// The shared, persistent part of the normalized map.
#[derive(Clone, Copy, Debug)]
pub struct NormalizedDetMap {
    dir: PAddr,
    cfg: MapConfig,
    sim: NormalizedSimulator,
}

impl NormalizedDetMap {
    /// Create an empty map for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline; `optimised` the compact-frame style.
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        cfg: MapConfig,
        manual: bool,
        optimised: bool,
    ) -> NormalizedDetMap {
        let style = BoundaryStyle::from_optimised(optimised);
        let sim = NormalizedSimulator::new(thread, nprocs, MAP_RCAS_LAYOUT, manual, style);
        let space = sim.space();
        let g = alloc_gen(&mut SpaceMem::new(space, thread), cfg.initial_buckets);
        let dir = thread.alloc(1);
        space.init_word(thread, dir, g.to_raw());
        if manual {
            thread.persist(dir);
        }
        NormalizedDetMap { dir, cfg, sim }
    }

    /// Create the calling thread's handle (allocating its capsule frame).
    pub fn handle<'q, 't, 'm>(
        &'q self,
        thread: &'t PThread<'m>,
    ) -> NormalizedDetMapHandle<'q, 't, 'm> {
        let rt = self.sim.runtime(thread);
        NormalizedDetMapHandle { map: self, rt }
    }

    /// Live-key count (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        map_len(&mut SpaceMem::new(self.sim.space(), thread), self.dir)
    }

    /// Routed search inside a parallelizable method: migration helping plus
    /// the tombstone-skipping window search, retried past freezes.
    fn find(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, k: u64) -> (MapWindow, ChainLen) {
        let mut m = CtxMem { ctx };
        loop {
            let head = route_update(&mut m, self.dir, k);
            match find_in(&mut m, head, k) {
                (FindRes::Frozen, _) => continue,
                (FindRes::Win(w), len) => return (w, len),
            }
        }
    }
}

/// The normalized insert: the generator routes, searches and allocates the
/// node; the executor links it; the wrap-up reports and runs the resize
/// trigger. An empty CAS list means the key was already present.
struct MapInsertOp {
    map: NormalizedDetMap,
}

impl NormalizedOp for MapInsertOp {
    type Input = u64;
    type Output = bool;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, k: &u64) -> CasList {
        let m = &self.map;
        let (w, len) = m.find(ctx, *k);
        if w.found {
            return Vec::new();
        }
        let node = ctx.alloc(NODE_WORDS);
        ctx.write_private(value_addr(node), *k);
        ctx.space().init_word(ctx.thread(), next_addr(node), w.pred_enc);
        if m.sim.durable() {
            ctx.persist(node);
        }
        vec![CasDesc::new(w.pred_addr, w.pred_enc, menc(node, 0)).with_aux(len.pack())]
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
        // Resize trigger (helping, repetition-safe): the chain measure rides
        // in the descriptor's aux word.
        let len = ChainLen::unpack(cas_list[0].aux);
        maybe_grow(&mut CtxMem { ctx }, self.map.dir, len.plus_inserted(), self.map.cfg.max_chain);
        WrapUp::Done(true)
    }
}

/// The normalized remove: the executor performs the tombstone mark — the
/// linearization point and, under the no-unlink policy, the whole protocol.
struct MapRemoveOp {
    map: NormalizedDetMap,
}

impl NormalizedOp for MapRemoveOp {
    type Input = u64;
    type Output = bool;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, k: &u64) -> CasList {
        let m = &self.map;
        let (w, _) = m.find(ctx, *k);
        if !w.found {
            return Vec::new();
        }
        vec![CasDesc::new(next_addr(w.curr), w.curr_enc, w.curr_enc | DEL)]
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

/// The normalized contains: a pure parallelizable method (empty CAS list; the
/// wrap-up routes read-only and answers).
struct MapContainsOp {
    map: NormalizedDetMap,
}

impl NormalizedOp for MapContainsOp {
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
        let mut m = CtxMem { ctx };
        let head = route_read(&mut m, self.map.dir, *k);
        WrapUp::Done(contains_at(&mut m, head, *k))
    }
}

/// Per-thread handle for the normalized map.
pub struct NormalizedDetMapHandle<'q, 't, 'm> {
    map: &'q NormalizedDetMap,
    rt: CapsuleRuntime<'t, 'm>,
}

impl<'q, 't, 'm> NormalizedDetMapHandle<'q, 't, 'm> {
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
        let op = MapInsertOp { map: *self.map };
        self.map.sim.run(&mut self.rt, &op, &k)
    }

    /// Remove `k` (detectably); returns whether it was present.
    pub fn remove(&mut self, k: u64) -> bool {
        let op = MapRemoveOp { map: *self.map };
        self.map.sim.run(&mut self.rt, &op, &k)
    }

    /// Membership test (detectably reported).
    pub fn contains(&mut self, k: u64) -> bool {
        let op = MapContainsOp { map: *self.map };
        self.map.sim.run(&mut self.rt, &op, &k)
    }
}

impl StructHandle for NormalizedDetMapHandle<'_, '_, '_> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Insert(k) => bool_ret(self.insert(k)),
            StructOp::Remove(k) => bool_ret(self.remove(k)),
            StructOp::Contains(k) => bool_ret(self.contains(k)),
            other => panic!("map handle cannot apply non-map operation {other:?}"),
        }
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        let map = self.map;
        drain_map(&mut SpaceMem::new(map.sim.space(), self.rt.thread()), map.dir, max)
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
            let map = NormalizedDetMap::new(&t, 1, MapConfig::new(4, 64), true, optimised);
            let mut h = map.handle(&t);
            assert!(h.insert(5));
            assert!(h.insert(3));
            assert!(!h.insert(5), "optimised={optimised}");
            assert!(h.contains(3));
            assert!(!h.contains(4));
            assert!(h.remove(3));
            assert!(!h.remove(3));
            assert_eq!(h.drain_up_to(16).items, vec![5]);
            assert_eq!(map.len(&t), 1);
        }
    }

    #[test]
    fn growth_migrates_every_key_under_the_simulator() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let map = NormalizedDetMap::new(&t, 1, MapConfig::tiny(), true, false);
        let mut h = map.handle(&t);
        let mut model = std::collections::BTreeSet::new();
        for k in 0..120u64 {
            assert!(h.insert(k));
            model.insert(k);
            if k % 4 == 1 {
                assert!(h.remove(k));
                model.remove(&k);
            }
        }
        for k in 0..120u64 {
            assert_eq!(h.contains(k), model.contains(&k), "contains({k})");
        }
        let d = h.drain_up_to(100_000);
        assert!(!d.truncated);
        assert_eq!(d.items, model.iter().copied().collect::<Vec<u64>>());
    }

    #[test]
    fn operations_survive_random_crashes_across_resizes() {
        install_quiet_crash_hook();
        for optimised in [false, true] {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let map = NormalizedDetMap::new(&t, 1, MapConfig::tiny(), true, optimised);
            let mut h = map.handle(&t);
            t.set_crash_policy(CrashPolicy::Random { prob: 0.02, seed: 53 });
            let mut model = std::collections::BTreeSet::new();
            for r in 0..300u64 {
                let k = (r * 11) % 23;
                if r % 3 == 2 {
                    assert_eq!(h.remove(k), model.remove(&k), "optimised={optimised} round {r}");
                } else {
                    assert_eq!(h.insert(k), model.insert(k), "optimised={optimised} round {r}");
                }
            }
            t.disarm_crashes();
            assert!(t.stats().crashes > 0);
            let d = h.drain_up_to(100_000);
            assert!(!d.truncated);
            assert_eq!(d.items, model.iter().copied().collect::<Vec<u64>>());
        }
    }

    #[test]
    fn manual_durability_survives_full_system_crash_mid_growth() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let map = NormalizedDetMap::new(&t, 1, MapConfig::tiny(), true, false);
        {
            let mut h = map.handle(&t);
            for k in 0..30u64 {
                assert!(h.insert(k));
            }
            assert!(h.remove(11));
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = map.handle(&t);
        let d = h.drain_up_to(10_000);
        assert!(!d.truncated);
        let expect: Vec<u64> = (0..30).filter(|&k| k != 11).collect();
        assert_eq!(d.items, expect);
    }

    /// Exhaustive crash-point sweep over a scripted window that crosses a
    /// resize, single + nested schedules, both crash flavours.
    #[test]
    fn exhaustive_crash_point_sweep_is_exact_across_a_resize() {
        install_quiet_crash_hook();
        type History = (Vec<Option<u64>>, Vec<u64>);
        let run = |plan: Option<CrashPlan>, system: bool| -> (History, u64, u64) {
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
            let t = mem.thread(0);
            let map = NormalizedDetMap::new(&t, 1, MapConfig::tiny(), true, false);
            let mut h = map.handle(&t);
            h.runtime_mut().set_system_crashes(system);
            assert!(h.insert(10));
            assert!(h.insert(20));
            assert!(h.insert(30));
            mem.persist_everything();
            let _ = t.take_stats();
            if let Some(p) = plan {
                t.set_crash_schedule(p);
            }
            let rets = vec![
                h.apply(StructOp::Insert(15)),
                h.apply(StructOp::Insert(25)),
                h.apply(StructOp::Insert(15)),
                h.apply(StructOp::Remove(10)),
                h.apply(StructOp::Contains(15)),
                h.apply(StructOp::Remove(99)),
            ];
            let points = t.stats().crash_points;
            t.disarm_crashes();
            let drained = h.drain_up_to(10_000);
            assert!(!drained.truncated);
            (
                (rets, drained.items),
                points,
                h.runtime_mut().metrics().recovery_crashes,
            )
        };
        for system in [false, true] {
            let (base, n, _) = run(None, system);
            assert_eq!(
                base,
                (
                    vec![Some(1), Some(1), Some(0), Some(1), Some(1), Some(0)],
                    vec![15, 20, 25, 30]
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
