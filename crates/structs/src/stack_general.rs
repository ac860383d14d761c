//! The "General" stack: the Treiber stack transformed by the
//! Low-Computation-Delay (CAS-Read) simulator of §6 — the stack-shaped sibling
//! of [`queues::GeneralQueue`].
//!
//! Every operation is a two-capsule program: a read-only capsule observes `top`
//! (and, for a push, allocates and initialises the node — private persistent
//! writes, safe to repeat), then a CAS-Read capsule performs the single
//! recoverable CAS on `top` as its first shared-memory effect. The stack is the
//! minimal exercise of the construction — one contended word, one CAS per
//! operation — which makes it the sharpest detectability probe: *every* crash
//! point is adjacent to the linearization point.

use capsules::{BoundaryStyle, CapsuleRuntime, CapsuleStep};
use delayfree::CasReadSimulator;
use pmem::{PAddr, PThread};
use rcas::RcasLayout;

use crate::api::{drain_by_pops, Drain, StructHandle, StructOp};
use crate::node::{next_addr, value_addr, NODE_WORDS};

// Persisted local slots (user indices).
const L_VAL: usize = 0; // push: value; pop: value to return
const L_NODE: usize = 1; // push: the new node; pop: the observed successor
const L_TOP: usize = 2; // the observed top
/// Number of user locals a handle's capsule runtime uses.
pub const STACK_GENERAL_LOCALS: usize = 3;

// Push program counters.
const S_START: u32 = 0;
const S_CAS: u32 = 1;
const S_DONE: u32 = 2;
// Pop program counters.
const P_START: u32 = 10;
const P_CAS: u32 = 11;
const P_DONE_SOME: u32 = 12;
const P_DONE_NONE: u32 = 13;

/// The shared, persistent part of the transformed stack.
#[derive(Clone, Copy, Debug)]
pub struct GeneralStack {
    top: PAddr,
    sim: CasReadSimulator,
}

impl GeneralStack {
    /// Create an empty stack for `nprocs` processes. `manual` selects the
    /// hand-placed flush discipline (`Durability::Manual` semantics: the
    /// recoverable-CAS layer adopts the durable-announcement discipline of
    /// DESIGN.md §7, and the stack persists nodes before publishing them).
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        manual: bool,
        style: BoundaryStyle,
    ) -> GeneralStack {
        let sim = CasReadSimulator::new(thread, nprocs, RcasLayout::DEFAULT, manual, style);
        let top = thread.alloc(1);
        sim.space().init_word(thread, top, 0);
        if manual {
            thread.persist(top);
        }
        GeneralStack { top, sim }
    }

    /// Create the calling thread's handle (allocating its capsule frame).
    pub fn handle<'q, 't, 'm>(&'q self, thread: &'t PThread<'m>) -> GeneralStackHandle<'q, 't, 'm> {
        let rt = self.sim.runtime(thread, STACK_GENERAL_LOCALS);
        GeneralStackHandle { stack: self, rt }
    }

    /// Re-attach a handle after a restart (resumes from the restart pointer).
    pub fn attach_handle<'q, 't, 'm>(
        &'q self,
        thread: &'t PThread<'m>,
    ) -> GeneralStackHandle<'q, 't, 'm> {
        let rt = self.sim.attach(thread, STACK_GENERAL_LOCALS);
        GeneralStackHandle { stack: self, rt }
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

/// Per-thread handle: the thread's capsule runtime plus a reference to the stack.
pub struct GeneralStackHandle<'q, 't, 'm> {
    stack: &'q GeneralStack,
    rt: CapsuleRuntime<'t, 'm>,
}

impl<'q, 't, 'm> GeneralStackHandle<'q, 't, 'm> {
    /// Access the underlying capsule runtime (metrics, crash flavour…).
    pub fn runtime_mut(&mut self) -> &mut CapsuleRuntime<'t, 'm> {
        &mut self.rt
    }

    /// See [`CapsuleRuntime::set_entry_boundary`].
    pub fn set_entry_boundary(&mut self, enabled: bool) {
        self.rt.set_entry_boundary(enabled);
    }

    /// Push `value` onto the stack (detectably: exactly-once under any crash
    /// schedule).
    pub fn push(&mut self, value: u64) {
        let stack = self.stack;
        let sim = stack.sim;
        let space = sim.space();
        self.rt.set_local(L_VAL, value);
        self.rt.run_op(S_START, |rt| {
            match rt.pc() {
                // Read-only capsule: allocate and initialise the node, observe top.
                S_START => {
                    let value = rt.local(L_VAL);
                    let t = rt.thread();
                    let node = t.alloc(NODE_WORDS);
                    t.write(value_addr(node), value);
                    let top = space.read(t, stack.top);
                    t.write(next_addr(node), top);
                    // The S_CAS boundary (not a CAS) publishes the node pointer
                    // next, so the fence cannot be elided here.
                    sim.persist_before_boundary(t, node);
                    rt.set_local_addr(L_NODE, node);
                    rt.set_local(L_TOP, top);
                    rt.boundary(S_CAS);
                    CapsuleStep::Continue
                }
                // CAS-Read capsule: swing top to the new node.
                S_CAS => {
                    let node = rt.local(L_NODE);
                    let top = rt.local(L_TOP);
                    let ok = sim.capsule_cas(rt, stack.top, top, node);
                    if ok {
                        sim.persist(rt.thread(), stack.top);
                        rt.finish_boundary(S_DONE);
                        CapsuleStep::Done(())
                    } else {
                        rt.boundary(S_START);
                        CapsuleStep::Continue
                    }
                }
                // The final boundary had been published before a crash: done.
                S_DONE => CapsuleStep::Done(()),
                pc => unreachable!("general stack push: unexpected pc {pc}"),
            }
        })
    }

    /// Pop the top of the stack (detectably).
    pub fn pop(&mut self) -> Option<u64> {
        let stack = self.stack;
        let sim = stack.sim;
        let space = sim.space();
        self.rt.run_op(P_START, |rt| {
            match rt.pc() {
                // Read-only capsule: observe top, its successor and its value.
                P_START => {
                    let t = rt.thread();
                    let top = PAddr::from_raw(space.read(t, stack.top));
                    if top.is_null() {
                        rt.finish_boundary(P_DONE_NONE);
                        return CapsuleStep::Done(None);
                    }
                    let next = t.read(next_addr(top));
                    let value = t.read(value_addr(top));
                    rt.set_local(L_VAL, value);
                    rt.set_local_addr(L_TOP, top);
                    rt.set_local(L_NODE, next);
                    rt.boundary(P_CAS);
                    CapsuleStep::Continue
                }
                // CAS-Read capsule: swing top past the popped node.
                P_CAS => {
                    let top = rt.local(L_TOP);
                    let next = rt.local(L_NODE);
                    let ok = sim.capsule_cas(rt, stack.top, top, next);
                    if ok {
                        sim.persist(rt.thread(), stack.top);
                        let value = rt.local(L_VAL);
                        rt.finish_boundary(P_DONE_SOME);
                        CapsuleStep::Done(Some(value))
                    } else {
                        rt.boundary(P_START);
                        CapsuleStep::Continue
                    }
                }
                P_DONE_SOME => CapsuleStep::Done(Some(rt.local(L_VAL))),
                P_DONE_NONE => CapsuleStep::Done(None),
                pc => unreachable!("general stack pop: unexpected pc {pc}"),
            }
        })
    }
}

impl StructHandle for GeneralStackHandle<'_, '_, '_> {
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
    fn lifo_order_single_thread_both_styles() {
        for style in [BoundaryStyle::General, BoundaryStyle::Compact] {
            let mem = PMem::with_threads(1);
            let s = GeneralStack::new(&mem.thread(0), 1, true, style);
            let t = mem.thread(0);
            let mut h = s.handle(&t);
            assert_eq!(h.pop(), None);
            for i in 1..=200 {
                h.push(i);
            }
            for i in (1..=200).rev() {
                assert_eq!(h.pop(), Some(i), "style {style:?}");
            }
            assert_eq!(h.pop(), None);
        }
    }

    #[test]
    fn concurrent_elements_are_neither_lost_nor_duplicated() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 1_500;
        let mem = PMem::with_threads(THREADS);
        let s = GeneralStack::new(&mem.thread(0), THREADS, true, BoundaryStyle::General);
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
        let mem = PMem::with_threads(1);
        let s = GeneralStack::new(&mem.thread(0), 1, true, BoundaryStyle::General);
        let t = mem.thread(0);
        let mut h = s.handle(&t);
        t.set_crash_policy(CrashPolicy::Random { prob: 0.02, seed: 17 });
        for i in 1..=300u64 {
            h.push(i);
        }
        let mut out = Vec::new();
        while let Some(v) = h.pop() {
            out.push(v);
        }
        t.disarm_crashes();
        assert_eq!(out, (1..=300).rev().collect::<Vec<u64>>(), "exactly-once despite crashes");
        assert!(t.stats().crashes > 0, "the policy should have fired at least once");
    }

    #[test]
    fn manual_durability_survives_full_system_crash() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let s = GeneralStack::new(&mem.thread(0), 1, true, BoundaryStyle::General);
        {
            let t = mem.thread(0);
            let mut h = s.handle(&t);
            for i in 1..=20 {
                h.push(i);
            }
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = s.attach_handle(&t);
        for i in (1..=20).rev() {
            assert_eq!(h.pop(), Some(i));
        }
        assert_eq!(h.pop(), None);
    }

    /// dfck-style exhaustive enumeration at the crate level: every crash point
    /// of a push/push/pop/pop sequence, single and nested [k, 0] schedules,
    /// under per-process *and* full-system crash semantics (mirrors the queue
    /// simulators' exhaustive tests).
    #[test]
    fn exhaustive_crash_point_sweep_is_exact() {
        install_quiet_crash_hook();
        let run = |plan: Option<CrashPlan>, system: bool| -> (Vec<Option<u64>>, Vec<u64>, u64, u64) {
            let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
            let t = mem.thread(0);
            let s = GeneralStack::new(&t, 1, true, BoundaryStyle::General);
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
            assert_eq!(base_rets, vec![None, None, Some(2), Some(1)]);
            assert_eq!(base_drain, vec![100]);
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
