//! The "General" queue: the Michael–Scott queue transformed by the
//! Low-Computation-Delay (CAS-Read) simulator of §6.
//!
//! Each operation is written exactly as the paper's transformation would emit it: an
//! explicit program-counter state machine in which every capsule contains at most
//! one CAS — implemented with the recoverable CAS + `checkRecovery` protocol — as
//! its first shared-memory effect, followed only by reads and local work, and ends
//! with a capsule boundary persisting the locals the next capsule needs.
//!
//! Two configurations correspond to the paper's variants:
//!
//! * **General** — [`BoundaryStyle::General`] frames (double-buffered locals +
//!   validity mask; two fences per boundary),
//! * **General-Opt** — [`BoundaryStyle::Compact`] frames (all locals on one cache
//!   line; one fence per boundary) and elision of fences that are immediately
//!   followed by a CAS (§9, §10 "our optimizations include…").
//!
//! Durability in the shared-cache model comes from [`Durability::Manual`] flushes
//! (Figure 6) or from the Izraelevitz thread option (Figure 5). The queue holds a
//! [`CasReadSimulator`], which owns the recoverable-CAS space, the handles' runtimes
//! and both persist rules.

use capsules::{
    adaptive_enabled, recover_fast, BoundaryStyle, CapsuleRuntime, CapsuleStep, ContentionMeasure,
};
use delayfree::CasReadSimulator;
use pmem::{PAddr, PThread};
use rcas::RcasLayout;

use crate::api::{Durability, QueueHandle};
use crate::node::{next_addr, value_addr, NODE_WORDS};

// Persisted local slots (user indices).
const L_VAL: usize = 0; // enqueue: value to insert; dequeue: value to return
const L_AUX: usize = 1; // enqueue: the new node; dequeue: the observed head
const L_LAST: usize = 2; // observed tail
const L_NEXT: usize = 3; // observed successor
/// Number of user locals a handle's capsule runtime uses.
pub const GENERAL_LOCALS: usize = 4;

// Enqueue program counters.
const E_START: u32 = 0;
const E_LINK: u32 = 1;
const E_SWING: u32 = 2;
const E_ADVANCE: u32 = 3;
const E_DONE: u32 = 4;
/// Contention-adaptive fast enqueue: the whole operation in one capsule.
const F_ENQ: u32 = 5;
// Dequeue program counters.
const D_START: u32 = 10;
const D_CAS_HEAD: u32 = 11;
const D_DONE_SOME: u32 = 12;
const D_ADVANCE: u32 = 13;
const D_DONE_NONE: u32 = 14;
/// Contention-adaptive fast dequeue: the whole operation in one capsule.
const F_DEQ: u32 = 15;

/// The shared, persistent part of the transformed queue.
#[derive(Clone, Copy, Debug)]
pub struct GeneralQueue {
    head: PAddr,
    tail: PAddr,
    sim: CasReadSimulator,
    /// Whether handles try the contention-adaptive fast path (`DF_ADAPTIVE`).
    adaptive: bool,
    /// Contention-policy template copied into every handle's runtime.
    contention: ContentionMeasure,
}

impl GeneralQueue {
    /// Create an empty queue for `nprocs` processes.
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        durability: Durability,
        style: BoundaryStyle,
    ) -> GeneralQueue {
        let manual = durability.manual();
        let sim = CasReadSimulator::new(thread, nprocs, RcasLayout::DEFAULT, manual, style);
        let space = sim.space();
        let sentinel = thread.alloc(NODE_WORDS);
        space.init_word(thread, next_addr(sentinel), 0);
        let head = thread.alloc(1);
        let tail = thread.alloc(1);
        space.init_word(thread, head, sentinel.to_raw());
        space.init_word(thread, tail, sentinel.to_raw());
        if manual {
            thread.persist(sentinel);
            thread.persist(head);
            thread.persist(tail);
        }
        GeneralQueue {
            head,
            tail,
            sim,
            adaptive: adaptive_enabled(),
            contention: ContentionMeasure::new(),
        }
    }

    /// Override the contention policy handles start with (the sensitized
    /// `dfck` sweeps lower the trip threshold to 1 so any lost fast-path CAS
    /// deterministically exercises the fast→slow demotion boundary).
    pub fn with_contention(mut self, policy: ContentionMeasure) -> GeneralQueue {
        self.contention = policy;
        self
    }

    /// Override the contention-adaptive fast path (tests and the `dfck` sweeper
    /// force it on or off regardless of the `DF_ADAPTIVE` environment knob).
    pub fn with_adaptive(mut self, adaptive: bool) -> GeneralQueue {
        self.adaptive = adaptive;
        self
    }

    /// Whether handles of this queue try the contention-adaptive fast path.
    pub fn adaptive(&self) -> bool {
        self.adaptive
    }

    /// Create the calling thread's handle (allocating its capsule frame).
    pub fn handle<'q, 't, 'm>(&'q self, thread: &'t PThread<'m>) -> GeneralQueueHandle<'q, 't, 'm> {
        self.handle_on(self.sim.runtime(thread, GENERAL_LOCALS))
    }

    /// Re-attach a handle after a restart, resuming from the process's restart
    /// pointer (the frame it published before the crash). Recovery is constant
    /// work: reload the frame, and the first capsule re-executed consults the
    /// recoverable CAS.
    pub fn attach_handle<'q, 't, 'm>(
        &'q self,
        thread: &'t PThread<'m>,
    ) -> GeneralQueueHandle<'q, 't, 'm> {
        self.handle_on(self.sim.attach(thread, GENERAL_LOCALS))
    }

    fn handle_on<'q, 't, 'm>(
        &'q self,
        mut rt: CapsuleRuntime<'t, 'm>,
    ) -> GeneralQueueHandle<'q, 't, 'm> {
        rt.set_contention(self.contention);
        GeneralQueueHandle { queue: self, rt }
    }

    /// Count elements reachable from the head (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        let mut count = 0;
        let space = self.sim.space();
        let mut node = PAddr::from_raw(space.read(thread, self.head));
        loop {
            let next = PAddr::from_raw(space.read(thread, next_addr(node)));
            if next.is_null() {
                break;
            }
            count += 1;
            node = next;
        }
        count
    }

    /// Whether the queue is empty (same caveats as [`len`](Self::len)).
    pub fn is_empty(&self, thread: &PThread<'_>) -> bool {
        self.len(thread) == 0
    }
}

/// Per-thread handle: the thread's capsule runtime plus a reference to the queue.
pub struct GeneralQueueHandle<'q, 't, 'm> {
    queue: &'q GeneralQueue,
    rt: CapsuleRuntime<'t, 'm>,
}

impl<'q, 't, 'm> GeneralQueueHandle<'q, 't, 'm> {
    /// Access the underlying capsule runtime (metrics, entry-boundary policy…).
    pub fn runtime_mut(&mut self) -> &mut CapsuleRuntime<'t, 'm> {
        &mut self.rt
    }

    /// Mirror of [`CapsuleRuntime::set_entry_boundary`]: the paper's measurements
    /// omit the per-operation entry boundary because it is identical for every
    /// variant under test (§10).
    pub fn set_entry_boundary(&mut self, enabled: bool) {
        self.rt.set_entry_boundary(enabled);
    }

    /// Pick the entry capsule for the next operation: the adaptive fast pc when
    /// the queue is adaptive and the handle's contention measure is off
    /// probation, the full simulator otherwise.
    fn entry_pc(&mut self, fast: u32, slow: u32) -> u32 {
        if self.queue.adaptive && !self.rt.contention_mut().begin_op() {
            fast
        } else {
            slow
        }
    }

    fn enqueue_impl(&mut self, value: u64) {
        let queue = self.queue;
        let sim = queue.sim;
        let space = sim.space();
        self.rt.set_local(L_VAL, value);
        let entry = self.entry_pc(F_ENQ, E_START);
        self.rt.run_op(entry, |rt| {
            match rt.pc() {
                // Adaptive fast path: the whole Michael–Scott enqueue as one
                // un-checkpointed capsule around a single evidence-carrying
                // recoverable CAS. A crash anywhere inside re-enters here and is
                // resolved from the announcement line alone.
                F_ENQ => {
                    if rt.crashed() {
                        if let Some(ev) = recover_fast(rt, space) {
                            // The link CAS took effect; re-persist its line (the
                            // crash may have interrupted the original flush) and
                            // finish. The tail may lag by one node, which the
                            // Michael–Scott invariant allows (any later
                            // operation helps swing it).
                            sim.persist(rt.thread(), ev.x);
                            rt.finish_boundary(E_DONE);
                            return CapsuleStep::Done(());
                        }
                    }
                    let value = rt.local(L_VAL);
                    let t = rt.thread();
                    let node = t.alloc(NODE_WORDS);
                    t.write(value_addr(node), value);
                    space.init_word(t, next_addr(node), 0);
                    sim.persist(t, node);
                    loop {
                        let last = PAddr::from_raw(space.read(t, queue.tail));
                        let next = space.read(t, next_addr(last));
                        if next != 0 {
                            // Help swing a lagging tail; anonymous CASes are
                            // repeat-safe, so no boundary is needed.
                            let _ = space.cas_anonymous(t, queue.tail, last.to_raw(), next);
                            sim.persist(t, queue.tail);
                            continue;
                        }
                        let seq = rt.advance_seq();
                        if space.cas_with_evidence(t, next_addr(last), 0, node.to_raw(), seq, 0) {
                            rt.contention_mut().record_success();
                            sim.persist(t, next_addr(last));
                            let _ = space.cas_anonymous(t, queue.tail, last.to_raw(), node.to_raw());
                            sim.persist(t, queue.tail);
                            rt.finish_boundary(E_DONE);
                            return CapsuleStep::Done(());
                        }
                        if rt.contention_mut().record_failure() {
                            // Contended: demote this operation to the full
                            // simulator (the node is abandoned, as on any lost
                            // race; E_START allocates afresh).
                            rt.boundary(E_START);
                            return CapsuleStep::Continue;
                        }
                    }
                }
                // Read-only capsule: allocate and initialise the node, read the
                // tail and its successor, and branch.
                E_START => {
                    let value = rt.local(L_VAL);
                    let t = rt.thread();
                    let node = t.alloc(NODE_WORDS);
                    t.write(value_addr(node), value);
                    space.init_word(t, next_addr(node), 0);
                    // The E_LINK boundary (not a CAS) publishes the node pointer
                    // next, so the fence cannot be elided here.
                    sim.persist_before_boundary(t, node);
                    let last = PAddr::from_raw(space.read(t, queue.tail));
                    let next = space.read(t, next_addr(last));
                    rt.set_local_addr(L_AUX, node);
                    rt.set_local_addr(L_LAST, last);
                    if next == 0 {
                        rt.boundary(E_LINK);
                    } else {
                        rt.set_local(L_NEXT, next);
                        rt.boundary(E_ADVANCE);
                    }
                    CapsuleStep::Continue
                }
                // CAS-Read capsule: link the node after the observed tail.
                E_LINK => {
                    let node = rt.local(L_AUX);
                    let last = rt.local_addr(L_LAST);
                    let ok = sim.capsule_cas(rt, next_addr(last), 0, node);
                    if ok {
                        sim.persist(rt.thread(), next_addr(last));
                        rt.boundary(E_SWING);
                    } else {
                        rt.boundary(E_START);
                    }
                    CapsuleStep::Continue
                }
                // CAS-Read capsule: swing the tail to the new node (failure is fine,
                // someone helped).
                E_SWING => {
                    let node = rt.local(L_AUX);
                    let last = rt.local(L_LAST);
                    let _ = sim.capsule_cas(rt, queue.tail, last, node);
                    sim.persist(rt.thread(), queue.tail);
                    rt.finish_boundary(E_DONE);
                    CapsuleStep::Done(())
                }
                // CAS-Read capsule: help advance a lagging tail, then retry.
                E_ADVANCE => {
                    let last = rt.local(L_LAST);
                    let next = rt.local(L_NEXT);
                    let _ = sim.capsule_cas(rt, queue.tail, last, next);
                    sim.persist(rt.thread(), queue.tail);
                    rt.boundary(E_START);
                    CapsuleStep::Continue
                }
                // The final boundary had been published before a crash: done.
                E_DONE => CapsuleStep::Done(()),
                pc => unreachable!("general enqueue: unexpected pc {pc}"),
            }
        })
    }

    fn dequeue_impl(&mut self) -> Option<u64> {
        let queue = self.queue;
        let sim = queue.sim;
        let space = sim.space();
        let entry = self.entry_pc(F_DEQ, D_START);
        self.rt.run_op(entry, |rt| {
            match rt.pc() {
                // Adaptive fast path: the whole Michael–Scott dequeue as one
                // un-checkpointed capsule. The dequeued value rides the
                // evidence's aux word so a post-CAS crash can still report it.
                F_DEQ => {
                    if rt.crashed() {
                        if let Some(ev) = recover_fast(rt, space) {
                            sim.persist(rt.thread(), ev.x);
                            let value = ev.aux;
                            rt.set_local(L_VAL, value);
                            rt.finish_boundary(D_DONE_SOME);
                            return CapsuleStep::Done(Some(value));
                        }
                    }
                    let t = rt.thread();
                    loop {
                        let first = PAddr::from_raw(space.read(t, queue.head));
                        let last = PAddr::from_raw(space.read(t, queue.tail));
                        let next = PAddr::from_raw(space.read(t, next_addr(first)));
                        if first == last {
                            if next.is_null() {
                                rt.finish_boundary(D_DONE_NONE);
                                return CapsuleStep::Done(None);
                            }
                            let _ =
                                space.cas_anonymous(t, queue.tail, last.to_raw(), next.to_raw());
                            sim.persist(t, queue.tail);
                            continue;
                        }
                        let value = t.read(value_addr(next));
                        let seq = rt.advance_seq();
                        if space.cas_with_evidence(
                            t,
                            queue.head,
                            first.to_raw(),
                            next.to_raw(),
                            seq,
                            value,
                        ) {
                            rt.contention_mut().record_success();
                            sim.persist(t, queue.head);
                            rt.set_local(L_VAL, value);
                            rt.finish_boundary(D_DONE_SOME);
                            return CapsuleStep::Done(Some(value));
                        }
                        if rt.contention_mut().record_failure() {
                            rt.boundary(D_START);
                            return CapsuleStep::Continue;
                        }
                    }
                }
                // Read-only capsule: read head, tail and head.next, and branch.
                D_START => {
                    let t = rt.thread();
                    let first = PAddr::from_raw(space.read(t, queue.head));
                    let last = PAddr::from_raw(space.read(t, queue.tail));
                    let next = PAddr::from_raw(space.read(t, next_addr(first)));
                    if first == last {
                        if next.is_null() {
                            rt.finish_boundary(D_DONE_NONE);
                            return CapsuleStep::Done(None);
                        }
                        rt.set_local_addr(L_LAST, last);
                        rt.set_local_addr(L_NEXT, next);
                        rt.boundary(D_ADVANCE);
                        return CapsuleStep::Continue;
                    }
                    let value = t.read(value_addr(next));
                    rt.set_local(L_VAL, value);
                    rt.set_local_addr(L_AUX, first);
                    rt.set_local_addr(L_NEXT, next);
                    rt.boundary(D_CAS_HEAD);
                    CapsuleStep::Continue
                }
                // CAS-Read capsule: swing the head past the dequeued node.
                D_CAS_HEAD => {
                    let first = rt.local(L_AUX);
                    let next = rt.local(L_NEXT);
                    let ok = sim.capsule_cas(rt, queue.head, first, next);
                    if ok {
                        sim.persist(rt.thread(), queue.head);
                        let value = rt.local(L_VAL);
                        rt.finish_boundary(D_DONE_SOME);
                        CapsuleStep::Done(Some(value))
                    } else {
                        rt.boundary(D_START);
                        CapsuleStep::Continue
                    }
                }
                // CAS-Read capsule: help advance a lagging tail, then retry.
                D_ADVANCE => {
                    let last = rt.local(L_LAST);
                    let next = rt.local(L_NEXT);
                    let _ = sim.capsule_cas(rt, queue.tail, last, next);
                    sim.persist(rt.thread(), queue.tail);
                    rt.boundary(D_START);
                    CapsuleStep::Continue
                }
                // Crash after the final boundary: the result was persisted.
                D_DONE_SOME => CapsuleStep::Done(Some(rt.local(L_VAL))),
                D_DONE_NONE => CapsuleStep::Done(None),
                pc => unreachable!("general dequeue: unexpected pc {pc}"),
            }
        })
    }
}

impl QueueHandle for GeneralQueueHandle<'_, '_, '_> {
    fn enqueue(&mut self, value: u64) {
        self.enqueue_impl(value)
    }

    fn dequeue(&mut self) -> Option<u64> {
        self.dequeue_impl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{install_quiet_crash_hook, CrashPolicy, MemConfig, Mode, PMem};
    use std::collections::HashSet;

    fn new_queue(mem: &PMem, durability: Durability, style: BoundaryStyle) -> GeneralQueue {
        GeneralQueue::new(&mem.thread(0), mem.threads(), durability, style)
    }

    #[test]
    fn fifo_order_single_thread_both_styles() {
        for style in [BoundaryStyle::General, BoundaryStyle::Compact] {
            let mem = PMem::with_threads(1);
            let q = new_queue(&mem, Durability::Manual, style);
            let t = mem.thread(0);
            let mut h = q.handle(&t);
            assert_eq!(h.dequeue(), None);
            for i in 1..=200 {
                h.enqueue(i);
            }
            for i in 1..=200 {
                assert_eq!(h.dequeue(), Some(i), "style {style:?}");
            }
            assert_eq!(h.dequeue(), None);
        }
    }

    #[test]
    fn concurrent_elements_are_neither_lost_nor_duplicated() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 2_000;
        let mem = PMem::with_threads(THREADS);
        let q = new_queue(&mem, Durability::Manual, BoundaryStyle::General);
        let results: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|pid| {
                    let mem = &mem;
                    let q = &q;
                    s.spawn(move || {
                        let t = mem.thread(pid);
                        let mut h = q.handle(&t);
                        let mut popped = Vec::new();
                        for i in 0..PER_THREAD {
                            h.enqueue((pid as u64) << 32 | i);
                            if let Some(v) = h.dequeue() {
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
        let mut h = q.handle(&t);
        let mut all: Vec<u64> = results.into_iter().flatten().collect();
        while let Some(v) = h.dequeue() {
            all.push(v);
        }
        assert_eq!(all.len(), THREADS * PER_THREAD as usize);
        let unique: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn single_thread_operations_survive_random_crashes() {
        install_quiet_crash_hook();
        let mem = PMem::with_threads(1);
        let q = new_queue(&mem, Durability::Manual, BoundaryStyle::General);
        let t = mem.thread(0);
        let mut h = q.handle(&t);
        t.set_crash_policy(CrashPolicy::Random { prob: 0.02, seed: 31 });
        for i in 1..=300u64 {
            h.enqueue(i);
        }
        let mut out = Vec::new();
        while let Some(v) = h.dequeue() {
            out.push(v);
        }
        t.disarm_crashes();
        assert_eq!(out, (1..=300).collect::<Vec<u64>>(), "exactly-once despite crashes");
        assert!(t.stats().crashes > 0, "the policy should have fired at least once");
    }

    #[test]
    fn concurrent_operations_survive_random_crashes() {
        install_quiet_crash_hook();
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 300;
        let mem = PMem::with_threads(THREADS);
        let q = new_queue(&mem, Durability::Manual, BoundaryStyle::General);
        std::thread::scope(|s| {
            for pid in 0..THREADS {
                let mem = &mem;
                let q = &q;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    let mut h = q.handle(&t);
                    t.set_crash_policy(CrashPolicy::Random {
                        prob: 0.005,
                        seed: 5000 + pid as u64,
                    });
                    for i in 0..PER_THREAD {
                        h.enqueue((pid as u64) << 32 | i);
                    }
                    t.disarm_crashes();
                });
            }
        });
        // Every enqueued element must be present exactly once.
        let t = mem.thread(0);
        let mut h = q.handle(&t);
        let mut seen = HashSet::new();
        while let Some(v) = h.dequeue() {
            assert!(seen.insert(v), "value {v:#x} dequeued twice");
        }
        assert_eq!(seen.len(), THREADS * PER_THREAD as usize);
    }

    #[test]
    fn manual_durability_survives_full_system_crash() {
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let q = new_queue(&mem, Durability::Manual, BoundaryStyle::General);
        {
            let t = mem.thread(0);
            let mut h = q.handle(&t);
            for i in 1..=20 {
                h.enqueue(i);
            }
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = q.handle(&t);
        // Durable linearizability: the persisted queue holds a prefix-consistent
        // state; since every enqueue completed (returned), all 20 must be present.
        for i in 1..=20 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn opt_variant_uses_fewer_fences_per_operation() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let measure = |style| {
            let q = GeneralQueue::new(&t, 1, Durability::Manual, style);
            let mut h = q.handle(&t);
            h.set_entry_boundary(false);
            let before = t.stats();
            for i in 0..50 {
                h.enqueue(i);
            }
            for _ in 0..50 {
                let _ = h.dequeue();
            }
            t.stats().since(&before)
        };
        let general = measure(BoundaryStyle::General);
        let opt = measure(BoundaryStyle::Compact);
        assert!(
            opt.fences < general.fences,
            "General-Opt must issue fewer fences (got {} vs {})",
            opt.fences,
            general.fences
        );
        assert!(opt.flushes <= general.flushes);
    }

    #[test]
    fn attach_handle_resumes_after_restart() {
        let mem = PMem::with_threads(1);
        let q = new_queue(&mem, Durability::Manual, BoundaryStyle::General);
        {
            let t = mem.thread(0);
            let mut h = q.handle(&t);
            h.enqueue(7);
            h.enqueue(8);
        }
        mem.crash_all();
        let t = mem.thread(0);
        let mut h = q.attach_handle(&t);
        assert_eq!(h.dequeue(), Some(7));
        assert_eq!(h.dequeue(), Some(8));
    }
}
