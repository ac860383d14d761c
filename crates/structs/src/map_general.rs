//! The "General" detectable map: the bucketed protocol of [`map`](crate::map)
//! transformed by the Low-Computation-Delay (CAS-Read) simulator of §6.
//!
//! Only two CASes in the whole protocol are linearization points that need
//! exactly-once recovery — the insert's link and the remove's tombstone mark —
//! and only those head CAS-Read capsules with the simulator's recoverable CAS.
//! Everything else the map does under the hood (routing, bucket freezes, copy inserts,
//! cursor/`next`/state/directory installs — the entire resize machinery) is
//! parallelizable helping, executed with the *anonymous* CAS inside the search
//! capsule exactly as §7 prescribes for generator/wrap-up CASes: repetition
//! after a crash re-runs only operations whose repetition is invisible. The
//! no-unlink tombstone policy (see the map module docs) is what keeps the
//! remove a single-CAS protocol here — there is no unlink pc at all.
//!
//! A crash between the search capsule and the CAS capsule replays against a
//! *persisted window*; if a concurrent resize froze the window's bucket in
//! the meantime, the recoverable CAS simply fails (the expected clean
//! encoding no longer matches a frozen word — invariant 1 says marked words
//! are final) and the retry pc re-routes through the migration. Crash-safety
//! of the resize itself needs no capsule help.

use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep};
use delayfree::CasReadSimulator;
use pmem::{PAddr, PThread};

use crate::api::{bool_ret, Drain, StructHandle, StructOp};
use crate::map::{
    alloc_gen, contains_at, drain_map, find_in, map_len, maybe_grow, menc, route_read,
    route_update, ChainLen, FindRes, MapConfig, DEL, MAP_RCAS_LAYOUT,
};
use crate::node::{next_addr, value_addr, NODE_WORDS};
use crate::word_mem::SpaceMem;

// Persisted local slots (user indices).
const L_KEY: usize = 0;
const L_PRED_ADDR: usize = 1; // the word the insert link / remove mark CAS targets
const L_PRED_ENC: usize = 2; // insert: its expected (clean) encoding
const L_NODE: usize = 3; // insert: the freshly allocated node
const L_CURR_NEXT: usize = 4; // remove: address of the victim's next word
const L_CURR_ENC: usize = 5; // remove: its expected encoding / contains: result
const L_LEN: usize = 6; // insert: packed ChainLen the search observed (resize trigger)
/// Number of user locals a map handle's capsule runtime uses.
pub const MAP_GENERAL_LOCALS: usize = 7;

// Insert program counters.
const I_FIND: u32 = 0;
const I_CAS: u32 = 1;
const I_DONE_TRUE: u32 = 2;
const I_DONE_FALSE: u32 = 3;
// Remove program counters.
const R_FIND: u32 = 10;
const R_MARK: u32 = 11;
const R_DONE_TRUE: u32 = 12;
const R_DONE_FALSE: u32 = 13;
// Contains program counters.
const C_FIND: u32 = 20;
const C_DONE: u32 = 21;

/// The shared, persistent part of the transformed map.
#[derive(Clone, Copy, Debug)]
pub struct GeneralDetMap {
    dir: PAddr,
    cfg: MapConfig,
    sim: CasReadSimulator,
}

impl GeneralDetMap {
    /// Create an empty map for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline (fresh nodes and generations persisted
    /// before publication, CAS targets persisted after, durable announcements
    /// in the rcas layer).
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        cfg: MapConfig,
        manual: bool,
        style: BoundaryStyle,
    ) -> GeneralDetMap {
        let sim = CasReadSimulator::new(thread, nprocs, MAP_RCAS_LAYOUT, manual, style);
        let space = sim.space();
        let g = alloc_gen(&mut SpaceMem::new(space, thread), cfg.initial_buckets);
        let dir = thread.alloc(1);
        space.init_word(thread, dir, g.to_raw());
        if manual {
            thread.persist(dir);
        }
        GeneralDetMap { dir, cfg, sim }
    }

    /// Create the calling thread's handle (allocating its capsule frame).
    pub fn handle<'q, 't, 'm>(&'q self, thread: &'t PThread<'m>) -> GeneralDetMapHandle<'q, 't, 'm> {
        let rt = self.sim.runtime(thread, MAP_GENERAL_LOCALS);
        GeneralDetMapHandle { map: self, rt }
    }

    /// Word access through the simulator's space (anonymous helping CASes).
    fn mem<'s, 't, 'm>(&'s self, t: &'t PThread<'m>) -> SpaceMem<'s, 't, 'm> {
        SpaceMem::new(self.sim.space(), t)
    }

    /// Live-key count (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        map_len(&mut self.mem(thread), self.dir)
    }

    // ----- capsule bodies --------------------------------------------------------

    /// One insert capsule (entry pc [`I_FIND`]).
    fn insert_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<bool> {
        match rt.pc() {
            // Search capsule (reads + anonymous helping, including any resize
            // migration work the route owes): locate the window, allocate and
            // initialise the node.
            I_FIND => {
                let k = rt.local(L_KEY);
                let t = rt.thread();
                let mut m = self.mem(t);
                let (w, len) = loop {
                    let head = route_update(&mut m, self.dir, k);
                    match find_in(&mut m, head, k) {
                        (FindRes::Frozen, _) => continue,
                        (FindRes::Win(w), len) => break (w, len),
                    }
                };
                if w.found {
                    rt.finish_boundary(I_DONE_FALSE);
                    return CapsuleStep::Done(false);
                }
                let node = t.alloc(NODE_WORDS);
                t.write(value_addr(node), k);
                self.sim.space().init_word(t, next_addr(node), w.pred_enc);
                // The I_CAS boundary (not a CAS) publishes the node pointer
                // next, so the fence cannot be elided here.
                self.sim.persist_before_boundary(t, node);
                rt.set_local_addr(L_PRED_ADDR, w.pred_addr);
                rt.set_local(L_PRED_ENC, w.pred_enc);
                rt.set_local_addr(L_NODE, node);
                rt.set_local(L_LEN, len.pack());
                rt.boundary(I_CAS);
                CapsuleStep::Continue
            }
            // CAS-Read capsule: link the node — the linearization point.
            I_CAS => {
                let pred_addr = rt.local_addr(L_PRED_ADDR);
                let expected = rt.local(L_PRED_ENC);
                let node = rt.local_addr(L_NODE);
                let len = ChainLen::unpack(rt.local(L_LEN));
                let ok = self.sim.capsule_cas(rt, pred_addr, expected, menc(node, 0));
                if ok {
                    let t = rt.thread();
                    self.sim.persist(t, pred_addr);
                    // Helping-class grow trigger: repetition-safe, so a crash
                    // replay of this capsule re-running it is harmless.
                    maybe_grow(&mut self.mem(t), self.dir, len.plus_inserted(), self.cfg.max_chain);
                    rt.finish_boundary(I_DONE_TRUE);
                    CapsuleStep::Done(true)
                } else {
                    rt.boundary(I_FIND);
                    CapsuleStep::Continue
                }
            }
            I_DONE_TRUE => CapsuleStep::Done(true),
            I_DONE_FALSE => CapsuleStep::Done(false),
            pc => unreachable!("general map insert: unexpected pc {pc}"),
        }
    }

    /// One remove capsule (entry pc [`R_FIND`]). Single-CAS protocol: the
    /// tombstone mark is the linearization point and the whole story — the
    /// node stays linked until a resize purges it.
    fn remove_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<bool> {
        match rt.pc() {
            R_FIND => {
                let k = rt.local(L_KEY);
                let mut m = self.mem(rt.thread());
                let w = loop {
                    let head = route_update(&mut m, self.dir, k);
                    match find_in(&mut m, head, k) {
                        (FindRes::Frozen, _) => continue,
                        (FindRes::Win(w), _) => break w,
                    }
                };
                if !w.found {
                    rt.finish_boundary(R_DONE_FALSE);
                    return CapsuleStep::Done(false);
                }
                rt.set_local_addr(L_CURR_NEXT, next_addr(w.curr));
                rt.set_local(L_CURR_ENC, w.curr_enc);
                rt.boundary(R_MARK);
                CapsuleStep::Continue
            }
            // CAS-Read capsule: the tombstone mark.
            R_MARK => {
                let curr_next = rt.local_addr(L_CURR_NEXT);
                let curr_enc = rt.local(L_CURR_ENC);
                let ok = self.sim.capsule_cas(rt, curr_next, curr_enc, curr_enc | DEL);
                if ok {
                    self.sim.persist(rt.thread(), curr_next);
                    rt.finish_boundary(R_DONE_TRUE);
                    CapsuleStep::Done(true)
                } else {
                    rt.boundary(R_FIND);
                    CapsuleStep::Continue
                }
            }
            R_DONE_TRUE => CapsuleStep::Done(true),
            R_DONE_FALSE => CapsuleStep::Done(false),
            pc => unreachable!("general map remove: unexpected pc {pc}"),
        }
    }

    /// One contains capsule (entry pc [`C_FIND`]): read-only routing, no
    /// helping, single capsule.
    fn contains_step(&self, rt: &mut CapsuleRuntime<'_, '_>) -> CapsuleStep<bool> {
        match rt.pc() {
            C_FIND => {
                let k = rt.local(L_KEY);
                let mut m = self.mem(rt.thread());
                let head = route_read(&mut m, self.dir, k);
                let found = contains_at(&mut m, head, k);
                rt.set_local(L_CURR_ENC, found as u64);
                rt.finish_boundary(C_DONE);
                CapsuleStep::Done(found)
            }
            C_DONE => CapsuleStep::Done(rt.local(L_CURR_ENC) != 0),
            pc => unreachable!("general map contains: unexpected pc {pc}"),
        }
    }
}

/// Per-thread handle: the thread's capsule runtime plus a reference to the map.
pub struct GeneralDetMapHandle<'q, 't, 'm> {
    map: &'q GeneralDetMap,
    rt: CapsuleRuntime<'t, 'm>,
}

impl<'q, 't, 'm> GeneralDetMapHandle<'q, 't, 'm> {
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
        let map = self.map;
        self.rt.set_local(L_KEY, k);
        self.rt.run_op(I_FIND, |rt| map.insert_step(rt))
    }

    /// Remove `k` (detectably); returns whether it was present.
    pub fn remove(&mut self, k: u64) -> bool {
        let map = self.map;
        self.rt.set_local(L_KEY, k);
        self.rt.run_op(R_FIND, |rt| map.remove_step(rt))
    }

    /// Membership test (read-only, single capsule).
    pub fn contains(&mut self, k: u64) -> bool {
        let map = self.map;
        self.rt.set_local(L_KEY, k);
        self.rt.run_op(C_FIND, |rt| map.contains_step(rt))
    }
}

impl StructHandle for GeneralDetMapHandle<'_, '_, '_> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Insert(k) => bool_ret(self.insert(k)),
            StructOp::Remove(k) => bool_ret(self.remove(k)),
            StructOp::Contains(k) => bool_ret(self.contains(k)),
            other => panic!("map handle cannot apply non-map operation {other:?}"),
        }
    }

    fn drain_up_to(&mut self, max: usize) -> Drain {
        drain_map(&mut self.map.mem(self.rt.thread()), self.map.dir, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{install_quiet_crash_hook, CrashPlan, CrashPolicy, MemConfig, Mode, PMem};

    #[test]
    fn insert_remove_contains_single_thread_both_styles() {
        for style in [BoundaryStyle::General, BoundaryStyle::Compact] {
            let mem = PMem::with_threads(1);
            let t = mem.thread(0);
            let map = GeneralDetMap::new(&t, 1, MapConfig::new(4, 64), true, style);
            let mut h = map.handle(&t);
            assert!(h.insert(5));
            assert!(h.insert(3));
            assert!(!h.insert(5));
            assert!(h.contains(3));
            assert!(!h.contains(4));
            assert!(h.remove(3));
            assert!(!h.remove(3));
            assert_eq!(h.drain_up_to(16).items, vec![5], "style {style:?}");
            assert_eq!(map.len(&t), 1);
        }
    }

    #[test]
    fn growth_migrates_every_key_under_capsules() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let map = GeneralDetMap::new(&t, 1, MapConfig::tiny(), true, BoundaryStyle::General);
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
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let map = GeneralDetMap::new(&t, 1, MapConfig::tiny(), true, BoundaryStyle::General);
        let mut h = map.handle(&t);
        t.set_crash_policy(CrashPolicy::Random { prob: 0.02, seed: 43 });
        let mut model = std::collections::BTreeSet::new();
        for r in 0..400u64 {
            let k = (r * 7) % 29;
            if r % 3 == 2 {
                assert_eq!(h.remove(k), model.remove(&k), "round {r} remove({k})");
            } else {
                assert_eq!(h.insert(k), model.insert(k), "round {r} insert({k})");
            }
        }
        t.disarm_crashes();
        assert!(t.stats().crashes > 0);
        let d = h.drain_up_to(100_000);
        assert!(!d.truncated);
        assert_eq!(d.items, model.iter().copied().collect::<Vec<u64>>());
    }

    #[test]
    fn manual_durability_survives_full_system_crash_mid_growth() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let map = GeneralDetMap::new(&t, 1, MapConfig::tiny(), true, BoundaryStyle::General);
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

    /// Exhaustive crash-point sweep over a scripted window that *crosses a
    /// resize* (tiny config: the inserts outgrow 2 buckets), single + nested
    /// schedules, both crash flavours.
    #[test]
    fn exhaustive_crash_point_sweep_is_exact_across_a_resize() {
        install_quiet_crash_hook();
        type History = (Vec<Option<u64>>, Vec<u64>);
        let run = |plan: Option<CrashPlan>, system: bool| -> (History, u64, u64) {
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
            let t = mem.thread(0);
            let map = GeneralDetMap::new(&t, 1, MapConfig::tiny(), true, BoundaryStyle::General);
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
            // The window pushes the chain past max_chain = 3: a resize runs
            // inside the sweep, so crash points land in the migration too.
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
