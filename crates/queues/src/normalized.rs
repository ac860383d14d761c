//! The "Normalized" queue: the Michael–Scott queue expressed as a normalized data
//! structure (CAS generator / executor / wrap-up) and run through the Persistent
//! Normalized Simulator of §7 — one capsule boundary per retry-loop iteration.
//!
//! * **Normalized** — [`BoundaryStyle::General`] frames.
//! * **Normalized-Opt** — [`BoundaryStyle::Compact`] frames, which persist a whole
//!   boundary with one flush and one fence.
//!
//! Both keep the CAS list inside the capsule frame, as Algorithm 4 keeps it as a
//! persisted local (the MSQ's lists have at most one entry); the variants differ
//! only in frame style. The queue holds a [`NormalizedSimulator`], which owns the
//! recoverable-CAS space, the durability flag, the frame style and the handles'
//! runtimes.
//!
//! In the normalized decomposition, the executor only ever CASes `head` and node
//! `next` fields; the tail pointer is advanced exclusively by helping code inside
//! the generator and wrap-up (parallelizable methods), so it is kept as a plain
//! word and updated with plain CASes (§7 explains why such locations need no
//! recoverable CAS).

use capsules::{adaptive_enabled, BoundaryStyle, CapsuleRuntime, ContentionMeasure};
use delayfree::{CasDesc, CasList, NormalizedCtx, NormalizedOp, NormalizedSimulator, WrapUp};
use pmem::{PAddr, PThread};
use rcas::RcasLayout;

use crate::api::{Durability, QueueHandle};
use crate::node::{next_addr, value_addr, NODE_WORDS};

/// The shared, persistent part of the normalized queue.
#[derive(Clone, Copy, Debug)]
pub struct NormalizedQueue {
    /// Recoverable-CAS word holding the head node address.
    head: PAddr,
    /// Plain word holding the tail node address (only helping code CASes it).
    tail: PAddr,
    /// The simulator; its fast path follows `DF_ADAPTIVE` unless overridden.
    sim: NormalizedSimulator,
    /// Contention-policy template copied into every handle's runtime.
    contention: ContentionMeasure,
}

impl NormalizedQueue {
    /// Create an empty queue for `nprocs` processes. `optimised` selects the
    /// Normalized-Opt configuration (compact frames).
    pub fn new(
        thread: &PThread<'_>,
        nprocs: usize,
        durability: Durability,
        optimised: bool,
    ) -> NormalizedQueue {
        let style = BoundaryStyle::from_optimised(optimised);
        let manual = durability.manual();
        let sim = NormalizedSimulator::new(thread, nprocs, RcasLayout::DEFAULT, manual, style)
            .with_adaptive(adaptive_enabled());
        let space = sim.space();
        let sentinel = thread.alloc(NODE_WORDS);
        space.init_word(thread, next_addr(sentinel), 0);
        let head = thread.alloc(1);
        let tail = thread.alloc(1);
        space.init_word(thread, head, sentinel.to_raw());
        thread.write(tail, sentinel.to_raw());
        if manual {
            thread.persist(sentinel);
            thread.persist(head);
            thread.persist(tail);
        }
        NormalizedQueue {
            head,
            tail,
            sim,
            contention: ContentionMeasure::new(),
        }
    }

    /// Override the contention policy handles start with (the sensitized
    /// `dfck` sweeps lower the trip threshold to 1 so any lost fast-path CAS
    /// deterministically exercises the fast→slow demotion boundary).
    pub fn with_contention(mut self, policy: ContentionMeasure) -> NormalizedQueue {
        self.contention = policy;
        self
    }

    /// Override the contention-adaptive fast path (tests and the `dfck` sweeper
    /// force it on or off regardless of the `DF_ADAPTIVE` environment knob).
    pub fn with_adaptive(mut self, adaptive: bool) -> NormalizedQueue {
        self.sim = self.sim.with_adaptive(adaptive);
        self
    }

    /// Whether handles of this queue try the contention-adaptive fast path.
    pub fn adaptive(&self) -> bool {
        self.sim.adaptive()
    }

    /// Create the calling thread's handle (allocating its capsule frame).
    pub fn handle<'q, 't, 'm>(
        &'q self,
        thread: &'t PThread<'m>,
    ) -> NormalizedQueueHandle<'q, 't, 'm> {
        self.handle_on(self.sim.runtime(thread))
    }

    /// Re-attach a handle after a restart (resumes from the restart pointer).
    pub fn attach_handle<'q, 't, 'm>(
        &'q self,
        thread: &'t PThread<'m>,
    ) -> NormalizedQueueHandle<'q, 't, 'm> {
        self.handle_on(self.sim.attach(thread))
    }

    fn handle_on<'q, 't, 'm>(
        &'q self,
        mut rt: CapsuleRuntime<'t, 'm>,
    ) -> NormalizedQueueHandle<'q, 't, 'm> {
        rt.set_contention(self.contention);
        NormalizedQueueHandle { queue: self, rt }
    }

    /// Count elements reachable from the head (diagnostic; not linearizable).
    pub fn len(&self, thread: &PThread<'_>) -> usize {
        let space = self.sim.space();
        let mut count = 0;
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

/// The normalized enqueue: generator links nothing yet, it just proposes the single
/// `next` CAS; the wrap-up swings the tail.
struct EnqueueOp {
    queue: NormalizedQueue,
}

impl NormalizedOp for EnqueueOp {
    type Input = u64;
    type Output = ();

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, value: &u64) -> CasList {
        let q = &self.queue;
        // Allocate and initialise the node (private persistent writes; repetition
        // just rebuilds an unpublished node).
        let node = ctx.alloc(NODE_WORDS);
        ctx.write_private(value_addr(node), *value);
        ctx.space().init_word(ctx.thread(), next_addr(node), 0);
        if q.sim.durable() {
            ctx.persist(node);
        }
        loop {
            let last = PAddr::from_raw(ctx.read_plain(q.tail));
            let next = ctx.read(next_addr(last));
            if next != 0 {
                // Help a lagging tail; the tail is never touched by an executor, so
                // a plain CAS suffices (and repetitions are harmless).
                let _ = ctx.plain_cas(q.tail, last.to_raw(), next);
                continue;
            }
            return vec![CasDesc::new(next_addr(last), 0, node.to_raw()).with_aux(last.to_raw())];
        }
    }

    fn wrap_up(
        &self,
        ctx: &mut NormalizedCtx<'_, '_, '_>,
        _value: &u64,
        cas_list: &CasList,
        executed: usize,
    ) -> WrapUp<()> {
        if executed == cas_list.len() {
            let q = &self.queue;
            let last = cas_list[0].aux;
            let node = cas_list[0].new;
            let _ = ctx.plain_cas(q.tail, last, node);
            if q.sim.durable() {
                ctx.persist(q.tail);
            }
            WrapUp::Done(())
        } else {
            WrapUp::Restart
        }
    }
}

/// The normalized dequeue: the generator proposes the head swing (or an empty list
/// when the queue is empty); the wrap-up reports the value carried in `aux`.
struct DequeueOp {
    queue: NormalizedQueue,
}

impl NormalizedOp for DequeueOp {
    type Input = ();
    type Output = Option<u64>;

    fn generator(&self, ctx: &mut NormalizedCtx<'_, '_, '_>, _input: &()) -> CasList {
        let q = &self.queue;
        loop {
            let first = PAddr::from_raw(ctx.read(q.head));
            let last = PAddr::from_raw(ctx.read_plain(q.tail));
            let next = PAddr::from_raw(ctx.read(next_addr(first)));
            if first == last {
                if next.is_null() {
                    return Vec::new(); // empty queue: nothing to CAS
                }
                let _ = ctx.plain_cas(q.tail, last.to_raw(), next.to_raw());
                continue;
            }
            let value = ctx.read_plain(value_addr(next));
            return vec![CasDesc::new(q.head, first.to_raw(), next.to_raw()).with_aux(value)];
        }
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
            // The executor (in durable mode) already persisted the head it swung;
            // no further flushes are needed here.
            WrapUp::Done(Some(cas_list[0].aux))
        } else {
            WrapUp::Restart
        }
    }
}

/// Per-thread handle for the normalized queue.
pub struct NormalizedQueueHandle<'q, 't, 'm> {
    queue: &'q NormalizedQueue,
    rt: CapsuleRuntime<'t, 'm>,
}

impl<'q, 't, 'm> NormalizedQueueHandle<'q, 't, 'm> {
    /// Access the underlying capsule runtime.
    pub fn runtime_mut(&mut self) -> &mut CapsuleRuntime<'t, 'm> {
        &mut self.rt
    }

    /// See [`CapsuleRuntime::set_entry_boundary`].
    pub fn set_entry_boundary(&mut self, enabled: bool) {
        self.rt.set_entry_boundary(enabled);
    }
}

impl QueueHandle for NormalizedQueueHandle<'_, '_, '_> {
    fn enqueue(&mut self, value: u64) {
        let op = EnqueueOp { queue: *self.queue };
        self.queue.sim.run(&mut self.rt, &op, &value)
    }

    fn dequeue(&mut self) -> Option<u64> {
        let op = DequeueOp { queue: *self.queue };
        self.queue.sim.run(&mut self.rt, &op, &())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{install_quiet_crash_hook, CrashPolicy, MemConfig, Mode, PMem};
    use std::collections::HashSet;

    #[test]
    fn fifo_order_single_thread_both_variants() {
        for optimised in [false, true] {
            let mem = PMem::with_threads(1);
            let q = NormalizedQueue::new(&mem.thread(0), 1, Durability::Manual, optimised);
            let t = mem.thread(0);
            let mut h = q.handle(&t);
            assert_eq!(h.dequeue(), None);
            for i in 1..=200 {
                h.enqueue(i);
            }
            assert_eq!(q.len(&t), 200);
            for i in 1..=200 {
                assert_eq!(h.dequeue(), Some(i), "optimised={optimised}");
            }
            assert_eq!(h.dequeue(), None);
        }
    }

    #[test]
    fn concurrent_elements_are_neither_lost_nor_duplicated() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 2_000;
        let mem = PMem::with_threads(THREADS);
        let q = NormalizedQueue::new(&mem.thread(0), THREADS, Durability::Manual, false);
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
    fn operations_survive_random_crashes() {
        install_quiet_crash_hook();
        for optimised in [false, true] {
            let mem = PMem::with_threads(1);
            let q = NormalizedQueue::new(&mem.thread(0), 1, Durability::Manual, optimised);
            let t = mem.thread(0);
            let mut h = q.handle(&t);
            t.set_crash_policy(CrashPolicy::Random { prob: 0.02, seed: 99 });
            for i in 1..=300u64 {
                h.enqueue(i);
            }
            let mut out = Vec::new();
            while let Some(v) = h.dequeue() {
                out.push(v);
            }
            t.disarm_crashes();
            assert_eq!(out, (1..=300).collect::<Vec<u64>>(), "optimised={optimised}");
        }
    }

    #[test]
    fn concurrent_operations_survive_random_crashes() {
        install_quiet_crash_hook();
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 250;
        let mem = PMem::with_threads(THREADS);
        let q = NormalizedQueue::new(&mem.thread(0), THREADS, Durability::Manual, false);
        std::thread::scope(|s| {
            for pid in 0..THREADS {
                let mem = &mem;
                let q = &q;
                s.spawn(move || {
                    let t = mem.thread(pid);
                    let mut h = q.handle(&t);
                    t.set_crash_policy(CrashPolicy::Random {
                        prob: 0.005,
                        seed: 7000 + pid as u64,
                    });
                    for i in 0..PER_THREAD {
                        h.enqueue((pid as u64) << 32 | i);
                    }
                    t.disarm_crashes();
                });
            }
        });
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
        let q = NormalizedQueue::new(&mem.thread(0), 1, Durability::Manual, false);
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
        for i in 1..=20 {
            assert_eq!(h.dequeue(), Some(i));
        }
        assert_eq!(h.dequeue(), None);
    }

    #[test]
    fn normalized_uses_fewer_boundaries_than_general() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        // This compares the two *simulators*, so pin both to the slow path.
        // Normalized: one boundary before the executor + the final one per op.
        let qn = NormalizedQueue::new(&t, 1, Durability::Manual, false).with_adaptive(false);
        let mut hn = qn.handle(&t);
        hn.set_entry_boundary(false);
        for i in 0..20 {
            hn.enqueue(i);
        }
        let norm_boundaries = hn.runtime_mut().metrics().boundaries;
        // General: three boundaries per uncontended enqueue.
        let qg = crate::GeneralQueue::new(&t, 1, Durability::Manual, BoundaryStyle::General)
            .with_adaptive(false);
        let mut hg = qg.handle(&t);
        hg.set_entry_boundary(false);
        for i in 0..20 {
            hg.enqueue(i);
        }
        let gen_boundaries = hg.runtime_mut().metrics().boundaries;
        assert!(
            norm_boundaries < gen_boundaries,
            "normalized ({norm_boundaries}) must use fewer boundaries than general ({gen_boundaries})"
        );
    }

    #[test]
    fn opt_variant_uses_fewer_flushes_and_fences() {
        let mem = PMem::with_threads(1);
        let t = mem.thread(0);
        let measure = |optimised: bool| {
            let q = NormalizedQueue::new(&t, 1, Durability::Manual, optimised);
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
        let plain = measure(false);
        let opt = measure(true);
        assert!(opt.fences < plain.fences, "{} !< {}", opt.fences, plain.fences);
        assert!(opt.flushes < plain.flushes, "{} !< {}", opt.flushes, plain.flushes);
    }
}
