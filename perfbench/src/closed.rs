//! The closed-loop workloads (`queue-pairs`, `map-read`, `map-churn`) and the
//! set rung: worker threads that each issue their next operation as soon as
//! the previous one returns, for a fixed duration, on a freshly built and
//! prefilled structure per trial.
//!
//! Throughput uses one clock per trial, from the first worker's start to the
//! last worker's finish. Untraced trials time one span of [`SAMPLE_CALLS`]
//! consecutive calls in every [`SAMPLE_STRIDE`]; traced trials time every
//! call and snapshot the thread's pmem counters around it, per call kind.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use capsules::{BoundaryStyle, CapsuleMetrics};
use pmem::{MemConfig, Mode, PMem, PThread, Stats};
use queues::{Durability, GeneralQueue, QueueHandle};
use service::generator::op_key;
use service::{hash_key, RequestGen, SplitMix64, Zipfian};
use structs::{GeneralDetMap, GeneralSet, MapConfig, StructHandle, StructOp};

use crate::report::{median, ratio, Lat, Metrics};

/// Untraced trials time one span in this many.
const SAMPLE_STRIDE: u64 = 5;
/// Calls in one timed span: an enqueue–dequeue pair on `queue-pairs`, two
/// consecutive calls on the maps. A single call would not do: enqueues are
/// slower than dequeues, and on `map-churn` half the calls are reads and half
/// writes, so the median of single calls sits in the gap between two modes
/// and jumps between runs (IQR/median 0.18 over five seeds on `map-churn`).
pub const SAMPLE_CALLS: u64 = 2;

/// Start line and stop flag shared by a trial's workers and its timer.
pub struct Gate {
    barrier: Barrier,
    stop: AtomicBool,
}

impl Gate {
    fn new(workers: usize) -> Gate {
        Gate {
            barrier: Barrier::new(workers + 1),
            stop: AtomicBool::new(false),
        }
    }

    /// Wait for every worker (and the timer) to be ready.
    pub fn wait(&self) {
        self.barrier.wait();
    }

    fn stopped(&self) -> bool {
        // Relaxed: the flag publishes no data; workers only need to see it
        // eventually, and the scope join orders everything they wrote.
        self.stop.load(Ordering::Relaxed)
    }
}

/// Per-kind trace of a traced trial: latency, count and the persistence work
/// the operations of this kind issued.
#[derive(Clone, Default)]
pub struct KindTrace {
    pub lat: Lat,
    pub ops: u64,
    pub flushes: u64,
    pub fences: u64,
    pub words: u64,
}

impl KindTrace {
    fn merge(&mut self, o: &KindTrace) {
        self.lat.merge(&o.lat);
        self.ops += o.ops;
        self.flushes += o.flushes;
        self.fences += o.fences;
        self.words += o.words;
    }

    fn per_op(&self, total: u64) -> Option<f64> {
        ratio(total as f64, self.ops as f64)
    }
}

/// What one worker measured in one trial's timed window.
pub struct Window {
    pub ops: u64,
    pub start: Instant,
    pub end: Instant,
    pub lat: Lat,
    pub stats: Stats,
    pub kinds: Vec<KindTrace>,
}

/// Run calls until the gate closes, stopping on a span boundary. `op(i)`
/// performs the `i`-th call and returns its kind (an index below `nkinds`).
pub fn drive(
    t: &PThread<'_>,
    gate: &Gate,
    trace: bool,
    nkinds: usize,
    mut op: impl FnMut(u64) -> usize,
) -> Window {
    let mut lat = Lat::default();
    let mut kinds = vec![KindTrace::default(); if trace { nkinds } else { 0 }];
    let base = t.stats();
    let start = Instant::now();
    let mut sample_start = start;
    let mut i = 0u64;
    while !gate.stopped() || !i.is_multiple_of(SAMPLE_CALLS) {
        if trace {
            let s0 = t.stats();
            let t0 = Instant::now();
            let k = op(i);
            let d = t0.elapsed();
            let s1 = t.stats().since(&s0);
            let kt = &mut kinds[k];
            kt.lat.record(d);
            kt.ops += 1;
            kt.flushes += s1.flushes;
            kt.fences += s1.fences;
            kt.words += s1.words_allocated;
        } else {
            let phase = i % (SAMPLE_STRIDE * SAMPLE_CALLS);
            if phase == 0 {
                sample_start = Instant::now();
            }
            op(i);
            if phase == SAMPLE_CALLS - 1 {
                lat.record(sample_start.elapsed());
            }
        }
        i += 1;
    }
    let end = Instant::now();
    Window {
        ops: i,
        start,
        end,
        lat,
        stats: t.stats().since(&base),
        kinds,
    }
}

/// Spawn `workers` threads running `body(pid, gate)`, open the gate once all
/// are ready, close it after `secs`, and collect their results.
pub fn timed_workers<R: Send>(
    workers: usize,
    secs: f64,
    body: impl Fn(usize, &Gate) -> R + Sync,
) -> Vec<R> {
    let gate = Gate::new(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|pid| {
                let (gate, body) = (&gate, &body);
                s.spawn(move || body(pid, gate))
            })
            .collect();
        gate.wait();
        std::thread::sleep(Duration::from_secs_f64(secs));
        // Relaxed: see `Gate::stopped`.
        gate.stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    })
}

/// Everything one closed-loop trial measured, merged over its workers.
pub struct Trial {
    pub setup_s: f64,
    pub ops: u64,
    pub wall_s: f64,
    pub lat: Lat,
    pub stats: Stats,
    pub caps: CapsuleMetrics,
    pub kinds: Vec<KindTrace>,
    /// Operations whose result failed an output check.
    pub failed: u64,
    /// Descriptions of the failed checks (empty when the trial is correct).
    pub problems: Vec<String>,
}

impl Trial {
    fn from_windows(setup_s: f64, windows: Vec<(Window, CapsuleMetrics)>) -> Trial {
        let start = windows
            .iter()
            .map(|(w, _)| w.start)
            .min()
            .expect("at least one worker");
        let end = windows
            .iter()
            .map(|(w, _)| w.end)
            .max()
            .expect("at least one worker");
        let mut lat = Lat::default();
        let mut kinds: Vec<KindTrace> = Vec::new();
        let mut caps = CapsuleMetrics::default();
        for (w, c) in &windows {
            lat.merge(&w.lat);
            if kinds.len() < w.kinds.len() {
                kinds.resize(w.kinds.len(), KindTrace::default());
            }
            for (a, b) in kinds.iter_mut().zip(&w.kinds) {
                a.merge(b);
            }
            caps.operations += c.operations;
            caps.capsules += c.capsules;
            caps.boundaries += c.boundaries;
            caps.fast_ops += c.fast_ops;
            caps.demotions += c.demotions;
        }
        Trial {
            setup_s,
            ops: windows.iter().map(|(w, _)| w.ops).sum(),
            wall_s: (end - start).as_secs_f64(),
            lat,
            stats: windows.iter().map(|(w, _)| w.stats).sum(),
            caps,
            kinds,
            failed: 0,
            problems: Vec::new(),
        }
    }

    pub fn mops(&self) -> f64 {
        self.ops as f64 / self.wall_s / 1e6
    }
}

/// Capsule counters accumulated between two snapshots of one runtime.
fn caps_since(now: CapsuleMetrics, then: CapsuleMetrics) -> CapsuleMetrics {
    CapsuleMetrics {
        operations: now.operations - then.operations,
        capsules: now.capsules - then.capsules,
        boundaries: now.boundaries - then.boundaries,
        recoveries: now.recoveries - then.recoveries,
        recovery_crashes: now.recovery_crashes - then.recovery_crashes,
        entry_retries: now.entry_retries - then.entry_retries,
        fast_ops: now.fast_ops - then.fast_ops,
        demotions: now.demotions - then.demotions,
    }
}

fn machine(threads: usize) -> PMem {
    let mem = PMem::new(MemConfig::new(threads).mode(Mode::SharedCache));
    assert!(
        !mem.hb().is_armed() && !mem.flush_auditor().is_armed(),
        "a checker is armed on the measured machine"
    );
    mem
}

// ----- queue-pairs ---------------------------------------------------------

/// `queue-pairs` sizing: the paper's §10 workload on two threads.
pub const QUEUE_THREADS: usize = 2;
/// Nodes in the queue before timing (and, since every thread alternates
/// enqueue and dequeue, roughly its length throughout).
pub const QUEUE_PREFILL: u64 = 1 << 16;
const PRODUCER_SHIFT: u32 = 40;

/// Per-consumer FIFO bookkeeping: for each producer (0 = prefill, 1 + pid =
/// worker), the last sequence number this consumer dequeued, how many, and
/// two order-free digests of which ones.
#[derive(Clone, Default)]
struct FifoBook {
    last: [Option<u64>; 1 + QUEUE_THREADS],
    count: [u64; 1 + QUEUE_THREADS],
    sum: [u64; 1 + QUEUE_THREADS],
    mix: [u64; 1 + QUEUE_THREADS],
    bad: u64,
}

impl FifoBook {
    /// Book one dequeued value, counting it as bad if it breaks per-producer
    /// FIFO order or names no producer.
    fn take(&mut self, v: u64) {
        let p = (v >> PRODUCER_SHIFT) as usize;
        let seq = v & ((1 << PRODUCER_SHIFT) - 1);
        if p > QUEUE_THREADS || self.last[p].is_some_and(|l| seq <= l) {
            self.bad += 1;
            return;
        }
        self.last[p] = Some(seq);
        self.count[p] += 1;
        self.sum[p] = self.sum[p].wrapping_add(seq);
        self.mix[p] = self.mix[p].wrapping_add(hash_key(seq));
    }
}

fn queue_value(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << PRODUCER_SHIFT) | seq
}

/// One `queue-pairs` trial: build and prefill a General queue with manual
/// flushes, run enqueue–dequeue pairs on every worker for `secs`, then drain
/// and check conservation and per-producer FIFO order.
pub fn queue_trial(secs: f64, prefill: u64, trace: bool) -> Trial {
    let setup = Instant::now();
    let mem = machine(QUEUE_THREADS);
    let queue = {
        let t = mem.thread(0);
        let q = GeneralQueue::new(
            &t,
            QUEUE_THREADS,
            Durability::Manual,
            BoundaryStyle::General,
        )
        .with_adaptive(true);
        let mut h = q.handle(&t);
        h.set_entry_boundary(false);
        for i in 0..prefill {
            h.enqueue(queue_value(0, i));
        }
        q
    };
    mem.persist_everything();
    let setup_s = setup.elapsed().as_secs_f64();

    let results = timed_workers(QUEUE_THREADS, secs, |pid, gate| {
        let t = mem.thread(pid);
        let mut h = queue.handle(&t);
        // The §10 measurement omits the per-operation entry and final
        // boundaries, which are the same for every variant.
        h.set_entry_boundary(false);
        h.runtime_mut().set_final_boundary(false);
        let mut book = FifoBook::default();
        let mut enqueued = 0u64;
        let caps0 = h.runtime_mut().metrics();
        gate.wait();
        let w = drive(&t, gate, trace, 2, |i| {
            if i % 2 == 0 {
                h.enqueue(queue_value(1 + pid, enqueued));
                enqueued += 1;
                0
            } else {
                match h.dequeue() {
                    Some(v) => book.take(v),
                    // The queue never runs dry: every dequeue follows its
                    // thread's enqueue and the queue starts prefilled.
                    None => book.bad += 1,
                }
                1
            }
        });
        let caps = caps_since(h.runtime_mut().metrics(), caps0);
        (w, caps, book, enqueued)
    });

    let mut trial_books = Vec::new();
    let mut enqueued = [0u64; 1 + QUEUE_THREADS];
    enqueued[0] = prefill;
    let windows = results
        .into_iter()
        .enumerate()
        .map(|(pid, (w, caps, book, enq))| {
            enqueued[1 + pid] = enq;
            trial_books.push(book);
            (w, caps)
        })
        .collect();
    let mut trial = Trial::from_windows(setup_s, windows);

    // Output check: drain what is left, then check conservation per producer.
    let t = mem.thread(0);
    let taken: u64 = trial_books.iter().flat_map(|b| b.count).sum();
    let expected_left = enqueued.iter().sum::<u64>().saturating_sub(taken);
    let drained = queue.handle(&t).drain_up_to(expected_left as usize + 1);
    // The drain is one more consumer, and must see each producer's values
    // after every value any worker dequeued from that producer.
    let mut rest = FifoBook::default();
    for (p, last) in rest.last.iter_mut().enumerate() {
        *last = trial_books.iter().filter_map(|b| b.last[p]).max();
    }
    for &v in &drained {
        rest.take(v);
    }
    trial.failed += trial_books.iter().map(|b| b.bad).sum::<u64>() + rest.bad;
    for (p, &n) in enqueued.iter().enumerate() {
        let seen = trial_books.iter().map(|b| b.count[p]).sum::<u64>() + rest.count[p];
        let sum = trial_books
            .iter()
            .fold(rest.sum[p], |a, b| a.wrapping_add(b.sum[p]));
        let mix = trial_books
            .iter()
            .fold(rest.mix[p], |a, b| a.wrapping_add(b.mix[p]));
        let want_sum = (0..n).fold(0u64, |a, s| a.wrapping_add(s));
        let want_mix = (0..n).fold(0u64, |a, s| a.wrapping_add(hash_key(s)));
        if seen != n || sum != want_sum || mix != want_mix {
            trial.failed += seen.abs_diff(n).max(1);
            trial.problems.push(format!(
                "producer {p}: enqueued {n} values, dequeued or drained {seen} (digests {})",
                if sum == want_sum && mix == want_mix {
                    "match"
                } else {
                    "differ"
                }
            ));
        }
    }
    if trial.failed > 0 && trial.problems.is_empty() {
        trial.problems.push(format!(
            "{} dequeues broke per-producer FIFO order or came back empty",
            trial.failed
        ));
    }
    trial
}

// ----- map-read / map-churn / the set rung -----------------------------------

/// A keyed-set workload: keyspace, prefill, mix and the structure it runs on.
#[derive(Clone, Copy, Debug)]
pub struct KeyedSpec {
    pub threads: usize,
    pub keys: u64,
    pub buckets: u64,
    pub read_pct: u32,
    pub theta: f64,
    /// Run on the service shard's structure (a `GeneralSet`, one shard's
    /// share of the keys, ticket-stamped requests) instead of the map.
    pub shard_set: bool,
}

/// `map-read`: 2^16 keys (fits in cache), bucket array sized so that the
/// prefill needs no growth, 90% reads.
pub const MAP_READ: KeyedSpec = KeyedSpec {
    threads: 2,
    keys: 1 << 16,
    buckets: 1 << 16,
    read_pct: 90,
    theta: 0.99,
    shard_set: false,
};

/// `map-churn`: 2^20 keys (beyond cache), 2^14 starting buckets so growth
/// and tombstone purges run under the clock, 50% reads.
pub const MAP_CHURN: KeyedSpec = KeyedSpec {
    threads: 2,
    keys: 1 << 20,
    buckets: 1 << 14,
    read_pct: 50,
    theta: 0.99,
    shard_set: false,
};

/// The chain bound the map resizes at (the repository's `fig_map` setting).
const MAX_CHAIN: usize = 8;

/// Operation kinds of the keyed workloads, in trace order.
pub const CONTAINS: usize = 0;
pub const INSERT: usize = 1;
pub const REMOVE: usize = 2;

fn kind_of(op: StructOp) -> usize {
    match op {
        StructOp::Contains(_) => CONTAINS,
        StructOp::Insert(_) => INSERT,
        StructOp::Remove(_) => REMOVE,
        other => unreachable!("keyed workloads issue set operations only, got {other:?}"),
    }
}

/// A request stream seed for one (run seed, trial, worker).
pub fn stream_seed(seed: u64, trial: u64, worker: u64) -> u64 {
    let mut r = SplitMix64::new(seed ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for _ in 0..=worker {
        r.next_u64();
    }
    r.next_u64()
}

enum Keyed {
    Map(GeneralDetMap),
    Set(GeneralSet),
}

/// Which keys a `shard_set` run owns: shard 0 of two, routed as the
/// service's router routes them.
fn owned(spec: &KeyedSpec, k: u64) -> bool {
    !spec.shard_set || hash_key(k).is_multiple_of(2)
}

/// One keyed trial: build, prefill the even keys, run the seeded Zipf mix on
/// every worker for `secs`, then drain and check each key's balance of
/// acknowledged inserts and removes against its membership.
pub fn keyed_trial(
    spec: &KeyedSpec,
    zipf: &Zipfian,
    seed: u64,
    trial_no: u64,
    secs: f64,
    trace: bool,
) -> Trial {
    let setup = Instant::now();
    let mem = machine(spec.threads);
    let built = {
        let t = mem.thread(0);
        let built = if spec.shard_set {
            Keyed::Set(GeneralSet::new(
                &t,
                spec.threads,
                true,
                BoundaryStyle::General,
            ))
        } else {
            Keyed::Map(GeneralDetMap::new(
                &t,
                spec.threads,
                MapConfig::new(spec.buckets, MAX_CHAIN),
                true,
                BoundaryStyle::General,
            ))
        };
        let mut h = keyed_handle(&built, &t);
        for k in (0..spec.keys).step_by(2).filter(|&k| owned(spec, k)) {
            h.apply(StructOp::Insert(k));
        }
        drop(h);
        built
    };
    mem.persist_everything();
    let setup_s = setup.elapsed().as_secs_f64();

    let results = timed_workers(spec.threads, secs, |pid, gate| {
        let t = mem.thread(pid);
        let mut h = keyed_handle(&built, &t);
        let mut gen = RequestGen::new(
            stream_seed(seed, trial_no, pid as u64),
            zipf.clone(),
            spec.read_pct,
        );
        let mut balance = vec![0i32; spec.keys as usize];
        let mut bad = 0u64;
        let caps0 = h.caps();
        gate.wait();
        let w = drive(&t, gate, trace, 3, |i| {
            let op = loop {
                let op = gen.next_op();
                if owned(spec, op_key(op)) {
                    break op;
                }
            };
            let res = h.apply_ticketed(op, i + 1);
            match (op, res) {
                (StructOp::Insert(k), Some(1)) => balance[k as usize] += 1,
                (StructOp::Remove(k), Some(1)) => balance[k as usize] -= 1,
                (_, Some(0 | 1)) => {}
                _ => bad += 1,
            }
            kind_of(op)
        });
        let caps = caps_since(h.caps(), caps0);
        (w, caps, balance, bad)
    });

    let mut net: Vec<i64> = (0..spec.keys)
        .map(|k| i64::from(k % 2 == 0 && owned(spec, k)))
        .collect();
    let mut bad = 0;
    let windows = results
        .into_iter()
        .map(|(w, caps, balance, b)| {
            for (n, d) in net.iter_mut().zip(&balance) {
                *n += i64::from(*d);
            }
            bad += b;
            (w, caps)
        })
        .collect();
    let mut trial = Trial::from_windows(setup_s, windows);
    trial.failed += bad;
    if bad > 0 {
        trial
            .problems
            .push(format!("{bad} operations returned no boolean result"));
    }

    // Output check, as the service's shard oracle does it: a key is present
    // iff its acknowledged successful inserts exceed its removes by one.
    let t = mem.thread(0);
    let cap = (mem.allocated_words() as usize).max(1024);
    let drained = keyed_handle(&built, &t).drain(cap);
    if drained.truncated {
        trial.failed += 1;
        trial
            .problems
            .push(format!("drain truncated at {cap} nodes"));
    }
    let mut present = vec![false; spec.keys as usize];
    for &k in &drained.items {
        match present.get_mut(k as usize) {
            Some(p) => *p = true,
            None => {
                trial.failed += 1;
                trial
                    .problems
                    .push(format!("drained key {k} outside the keyspace"));
            }
        }
    }
    let mut mismatched = 0u64;
    for (k, (&n, &p)) in net.iter().zip(&present).enumerate() {
        if !matches!((n, p), (0, false) | (1, true)) {
            mismatched += 1;
            if mismatched <= 3 {
                trial
                    .problems
                    .push(format!("key {k}: acknowledged balance {n}, present {p}"));
            }
        }
    }
    trial.failed += mismatched;
    trial
}

/// The thread's handle on a keyed structure.
enum KeyedHandle<'q, 't, 'm> {
    Map(structs::GeneralDetMapHandle<'q, 't, 'm>),
    Set(structs::GeneralSetHandle<'q, 't, 'm>),
}

fn keyed_handle<'q, 't, 'm>(built: &'q Keyed, t: &'t PThread<'m>) -> KeyedHandle<'q, 't, 'm> {
    match built {
        Keyed::Map(m) => KeyedHandle::Map(m.handle(t)),
        Keyed::Set(s) => KeyedHandle::Set(s.handle(t)),
    }
}

impl KeyedHandle<'_, '_, '_> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        match self {
            KeyedHandle::Map(h) => h.apply(op),
            KeyedHandle::Set(h) => h.apply(op),
        }
    }

    /// Apply `op`; on the shard set, stamp it with `ticket` first, as a
    /// shard worker stamps every request.
    fn apply_ticketed(&mut self, op: StructOp, ticket: u64) -> Option<u64> {
        if let KeyedHandle::Set(h) = self {
            h.set_ticket(ticket);
        }
        self.apply(op)
    }

    fn caps(&mut self) -> CapsuleMetrics {
        match self {
            KeyedHandle::Map(h) => h.runtime_mut().metrics(),
            KeyedHandle::Set(h) => h.runtime_mut().metrics(),
        }
    }

    fn drain(&mut self, max: usize) -> structs::api::Drain {
        match self {
            KeyedHandle::Map(h) => h.drain_up_to(max),
            KeyedHandle::Set(h) => h.drain_up_to(max),
        }
    }
}

// ----- summaries -------------------------------------------------------------

/// The end-to-end metrics of a closed-loop run: medians over trials for
/// throughput and set-up, percentiles over every sampled operation.
pub fn end_to_end(trials: &[Trial]) -> Metrics {
    let mut m = Metrics::default();
    let mops: Vec<f64> = trials.iter().map(Trial::mops).collect();
    m.put("throughput_mops", median(&mops), "Mops/s");
    put_latency(&mut m, &trials.iter().map(|t| &t.lat).collect::<Vec<_>>());
    let ops: u64 = trials.iter().map(|t| t.ops).sum();
    let stats: Stats = trials.iter().map(|t| t.stats).sum();
    m.put_opt(
        "flushes_per_op",
        ratio(stats.flushes as f64, ops as f64),
        "flush/op",
    );
    m.put_opt(
        "fences_per_op",
        ratio(stats.fences as f64, ops as f64),
        "fence/op",
    );
    m.put_opt(
        "pm_words_per_op",
        ratio(stats.words_allocated as f64, ops as f64),
        "word/op",
    );
    let setup: Vec<f64> = trials.iter().map(|t| t.setup_s).collect();
    m.put("setup_s", median(&setup), "s");
    m
}

/// `op_p50_us`, `op_p90_us` and `op_p99_us`: each the median over trials of
/// the trial's quantile, so one disturbed trial does not move it; with the
/// number of samples behind them.
pub fn put_latency(m: &mut Metrics, trials: &[&Lat]) {
    for (name, q) in [("op_p50_us", 0.5), ("op_p90_us", 0.9), ("op_p99_us", 0.99)] {
        let per_trial: Option<Vec<f64>> = trials.iter().map(|l| l.quantile_ns(q)).collect();
        m.put_opt(name, per_trial.map(|v| median(&v) / 1e3), "us");
    }
    m.put(
        "op_samples",
        trials.iter().map(|l| l.count()).sum::<u64>() as f64,
        "count",
    );
}

/// Unit costs from the ladder used to attribute an operation's time.
#[derive(Clone, Copy, Debug)]
pub struct UnitCosts {
    pub read_ns: f64,
    pub write_ns: f64,
    pub cas_ns: f64,
    pub flush_ns: f64,
    pub fence_ns: f64,
}

/// Per-operation pmem and capsule counts of traced trials (the workload's
/// attribution to the `pmem` and `capsules` layers).
pub fn attributed(trials: &[&Trial], units: &UnitCosts) -> Metrics {
    let mut m = Metrics::default();
    let ops: u64 = trials.iter().map(|t| t.ops).sum();
    let s: Stats = trials.iter().map(|t| t.stats).sum();
    let per = |n: u64| ratio(n as f64, ops as f64);
    m.put_opt("pmem.steps_per_op", per(s.steps()), "step/op");
    m.put_opt("pmem.reads_per_op", per(s.reads), "read/op");
    m.put_opt("pmem.cas_per_op", per(s.cas), "cas/op");
    m.put_opt(
        "pmem.cas_success_ratio",
        ratio(s.cas_success as f64, s.cas as f64),
        "ratio",
    );
    m.put_opt(
        "pmem.dup_flushes_per_op",
        per(s.duplicate_flushes),
        "flush/op",
    );
    let est = s.reads as f64 * units.read_ns
        + s.writes as f64 * units.write_ns
        + s.cas as f64 * units.cas_ns
        + s.flushes as f64 * units.flush_ns
        + s.fences as f64 * units.fence_ns;
    m.put_opt("pmem.est_ns_per_op", ratio(est, ops as f64), "ns/op");
    let c = trials.iter().fold(CapsuleMetrics::default(), |mut a, t| {
        a.operations += t.caps.operations;
        a.capsules += t.caps.capsules;
        a.boundaries += t.caps.boundaries;
        a.fast_ops += t.caps.fast_ops;
        a.demotions += t.caps.demotions;
        a
    });
    m.put_opt("capsules.capsules_per_op", per(c.capsules), "capsule/op");
    m.put_opt(
        "capsules.boundaries_per_op",
        per(c.boundaries),
        "boundary/op",
    );
    m.put_opt("capsules.fast_ratio", per(c.fast_ops), "ratio");
    m.put_opt(
        "capsules.demotions_per_kop",
        per(c.demotions).map(|v| v * 1e3),
        "1/kop",
    );
    m
}

fn merged_kinds(trials: &[&Trial], n: usize) -> Vec<KindTrace> {
    let mut out = vec![KindTrace::default(); n];
    for t in trials {
        for (a, b) in out.iter_mut().zip(&t.kinds) {
            a.merge(b);
        }
    }
    out
}

/// The `queues` layer metrics of traced queue trials.
pub fn queue_layer(trials: &[&Trial]) -> Metrics {
    let k = merged_kinds(trials, 2);
    let mut m = Metrics::default();
    m.put_opt("queues.enqueue_p50_ns", k[0].lat.quantile_ns(0.5), "ns");
    m.put_opt("queues.enqueue_p99_ns", k[0].lat.quantile_ns(0.99), "ns");
    m.put_opt("queues.dequeue_p50_ns", k[1].lat.quantile_ns(0.5), "ns");
    m.put_opt("queues.dequeue_p99_ns", k[1].lat.quantile_ns(0.99), "ns");
    m.put_opt(
        "queues.enqueue_flushes",
        k[0].per_op(k[0].flushes),
        "flush/op",
    );
    m.put_opt(
        "queues.dequeue_flushes",
        k[1].per_op(k[1].flushes),
        "flush/op",
    );
    m
}

/// The `structs` layer metrics of traced keyed trials.
pub fn struct_layer(trials: &[&Trial]) -> Metrics {
    let k = merged_kinds(trials, 3);
    let mut m = Metrics::default();
    for (kind, p50, p99) in [
        (
            CONTAINS,
            "structs.contains_p50_ns",
            "structs.contains_p99_ns",
        ),
        (INSERT, "structs.insert_p50_ns", "structs.insert_p99_ns"),
        (REMOVE, "structs.remove_p50_ns", "structs.remove_p99_ns"),
    ] {
        m.put_opt(p50, k[kind].lat.quantile_ns(0.5), "ns");
        m.put_opt(p99, k[kind].lat.quantile_ns(0.99), "ns");
    }
    let insert_max = k[INSERT].lat.max_ns().map(|v| v / 1e3);
    m.put_opt("structs.insert_max_us", insert_max, "us");
    m.put_opt(
        "structs.contains_flushes",
        k[CONTAINS].per_op(k[CONTAINS].flushes),
        "flush/op",
    );
    m.put_opt(
        "structs.contains_fences",
        k[CONTAINS].per_op(k[CONTAINS].fences),
        "fence/op",
    );
    m.put_opt(
        "structs.insert_flushes",
        k[INSERT].per_op(k[INSERT].flushes),
        "flush/op",
    );
    m.put_opt(
        "structs.insert_words",
        k[INSERT].per_op(k[INSERT].words),
        "word/op",
    );
    m
}
