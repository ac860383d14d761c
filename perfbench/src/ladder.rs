//! The cost ladder of the traced run: one rung per layer below the
//! structures, each a tight loop over public functions on a fresh machine.
//!
//! pmem instruction → recoverable CAS → capsule boundary → recovery of a
//! queue handle. The structure and service rungs are short traced trials of
//! the workloads themselves (see `main.rs`). Every rung repeats its loop
//! [`REPS`] times and reports the median, so one preempted repetition does
//! not move it.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use capsules::{BoundaryStyle, CapsuleRuntime};
use pmem::{MemConfig, Mode, PAddr, PMem, PThread, LINE_WORDS};
use queues::{Durability, GeneralQueue, QueueHandle};
use rcas::{RcasLayout, RcasSpace};

use crate::closed::UnitCosts;
use crate::report::{median, Metrics};

const REPS: usize = 3;
/// Iterations of each single-instruction loop.
const N: u64 = 1 << 19;
/// Iterations of each recoverable-CAS and boundary loop.
const N_SLOW: u64 = 1 << 17;
/// Node size the queues and maps allocate.
const NODE_WORDS: u64 = 2;
/// Lines the flush loop cycles through between fences.
const FLUSH_RING: u64 = 64;
/// Queue lengths at which handle recovery is timed.
const RECOVERY_LENGTHS: [u64; 2] = [1 << 10, 1 << 16];
const RECOVERY_ROUNDS: usize = 64;

fn machine(threads: usize) -> PMem {
    PMem::new(MemConfig::new(threads).mode(Mode::SharedCache))
}

/// Median over [`REPS`] runs of `f`, which returns nanoseconds per iteration.
fn med(mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&v)
}

fn ns_per(d: Duration, n: u64) -> f64 {
    d.as_secs_f64() * 1e9 / n as f64
}

/// Time `n` iterations of `op` on thread 0 of a fresh one-process machine.
fn instr_loop(n: u64, mut op: impl FnMut(&PThread<'_>, PAddr, u64)) -> f64 {
    let mem = machine(1);
    let t = mem.thread(0);
    let a = t.alloc_aligned(FLUSH_RING * LINE_WORDS);
    let t0 = Instant::now();
    for i in 0..n {
        op(&t, a, i);
    }
    ns_per(t0.elapsed(), n)
}

/// The ladder's metrics plus the unit costs the workload attribution uses.
pub fn run() -> (Metrics, UnitCosts) {
    let mut m = Metrics::default();

    let timer = med(|| {
        let t0 = Instant::now();
        for _ in 0..N {
            black_box(Instant::now());
        }
        ns_per(t0.elapsed(), N)
    });
    m.put("bench.timer_ns", timer, "ns");

    // ----- pmem ---------------------------------------------------------------
    let read = med(|| {
        instr_loop(N, |t, a, _| {
            black_box(t.read(a));
        })
    });
    let write = med(|| instr_loop(N, |t, a, i| t.write(a, i)));
    let cas = med(|| {
        instr_loop(N, |t, a, i| {
            black_box(t.cas(a, i, i + 1));
        })
    });
    // A flush of a freshly written line, one fence per ring of lines; the
    // same loop without the flush is subtracted.
    let line = |a: PAddr, i: u64| a.offset((i % FLUSH_RING) * LINE_WORDS);
    let write_flush = med(|| {
        instr_loop(N, |t, a, i| {
            t.write(line(a, i), i);
            t.flush(line(a, i));
            if i % FLUSH_RING == FLUSH_RING - 1 {
                t.fence();
            }
        })
    });
    let write_only = med(|| {
        instr_loop(N, |t, a, i| {
            t.write(line(a, i), i);
            if i % FLUSH_RING == FLUSH_RING - 1 {
                t.fence();
            }
        })
    });
    let flush = (write_flush - write_only).max(0.0);
    let fence = med(|| instr_loop(N, |t, _, _| t.fence()));
    let alloc_1t = med(|| {
        instr_loop(N, |t, _, _| {
            black_box(t.alloc(NODE_WORDS));
        })
    });
    let alloc_2t = med(|| {
        let mem = machine(2);
        let (_, wall) = both_threads(&mem, |t| {
            for _ in 0..N {
                black_box(t.alloc(NODE_WORDS));
            }
        });
        ns_per(wall, N)
    });
    m.put("pmem.read_ns", read, "ns");
    m.put("pmem.write_ns", write, "ns");
    m.put("pmem.cas_ns", cas, "ns");
    m.put("pmem.flush_ns", flush, "ns");
    m.put("pmem.fence_ns", fence, "ns");
    m.put("pmem.alloc_ns_1t", alloc_1t, "ns");
    m.put("pmem.alloc_ns_2t", alloc_2t, "ns");

    // ----- rcas -------------------------------------------------------------
    // Durable announcements, as the General constructions with manual
    // flushes configure the space.
    let space_on = |mem: &PMem| {
        let t = mem.thread(0);
        let space = RcasSpace::new(&t, 2, RcasLayout::DEFAULT).with_durability(true);
        let x = space.create(&t, 0).addr();
        t.persist(x);
        (space, x)
    };
    let mut per_cas = (0.0, 0.0);
    let rcas_cas = med(|| {
        let mem = machine(2);
        let (space, x) = space_on(&mem);
        let t = mem.thread(0);
        let s0 = t.stats();
        let t0 = Instant::now();
        for i in 0..N_SLOW {
            black_box(space.cas(&t, x, i, i + 1, i + 1));
        }
        let d = t0.elapsed();
        let s = t.stats().since(&s0);
        per_cas = (
            s.flushes as f64 / N_SLOW as f64,
            s.fences as f64 / N_SLOW as f64,
        );
        ns_per(d, N_SLOW)
    });
    let rcas_read = med(|| {
        let mem = machine(2);
        let (space, x) = space_on(&mem);
        let t = mem.thread(0);
        let t0 = Instant::now();
        for _ in 0..N_SLOW {
            black_box(space.read(&t, x));
        }
        ns_per(t0.elapsed(), N_SLOW)
    });
    let rcas_recover = med(|| {
        let mem = machine(2);
        let (space, x) = space_on(&mem);
        let t = mem.thread(0);
        assert!(space.cas(&t, x, 0, 1, 1));
        let t0 = Instant::now();
        for _ in 0..N_SLOW {
            black_box(space.recover(&t, x));
        }
        ns_per(t0.elapsed(), N_SLOW)
    });
    let mut ratios = Vec::new();
    let rcas_2t = med(|| {
        let mem = machine(2);
        let (space, x) = space_on(&mem);
        let (wins, wall) = both_threads(&mem, |t| {
            let mut wins = 0u64;
            for seq in 1..=N_SLOW {
                let v = space.read(t, x);
                wins += u64::from(space.cas(t, x, v, v + 1, seq));
            }
            wins
        });
        ratios.push(wins.iter().sum::<u64>() as f64 / (2 * N_SLOW) as f64);
        ns_per(wall, N_SLOW)
    });
    m.put("rcas.cas_ns", rcas_cas, "ns");
    m.put("rcas.cas_ns_2t", rcas_2t, "ns");
    m.put("rcas.success_ratio_2t", median(&ratios), "ratio");
    m.put("rcas.read_ns", rcas_read, "ns");
    m.put("rcas.recover_ns", rcas_recover, "ns");
    m.put("rcas.flushes_per_cas", per_cas.0, "flush/cas");
    m.put("rcas.fences_per_cas", per_cas.1, "fence/cas");

    // ----- capsules -----------------------------------------------------------
    let mut boundary_flushes = 0.0;
    let boundary = |style: BoundaryStyle, flushes: &mut f64| {
        med(|| {
            let mem = machine(1);
            let t = mem.thread(0);
            let mut rt = CapsuleRuntime::new(&t, style, 4);
            let s0 = t.stats();
            let t0 = Instant::now();
            for i in 0..N_SLOW {
                rt.set_local(0, i);
                rt.boundary(1 + (i % 2) as u32);
            }
            let d = t0.elapsed();
            *flushes = t.stats().since(&s0).flushes as f64 / N_SLOW as f64;
            ns_per(d, N_SLOW)
        })
    };
    let general = boundary(BoundaryStyle::General, &mut boundary_flushes);
    let compact = boundary(BoundaryStyle::Compact, &mut 0.0);
    m.put("capsules.boundary_ns", general, "ns");
    m.put("capsules.boundary_ns_compact", compact, "ns");
    m.put(
        "capsules.boundary_flushes",
        boundary_flushes,
        "flush/boundary",
    );
    for (len, steps_name, ns_name) in [
        (
            RECOVERY_LENGTHS[0],
            "capsules.recovery_steps_q1k",
            "capsules.attach_ns_q1k",
        ),
        (
            RECOVERY_LENGTHS[1],
            "capsules.recovery_steps_q64k",
            "capsules.attach_ns_q64k",
        ),
    ] {
        let (steps, ns) = queue_recovery(len);
        m.put(steps_name, steps, "step");
        m.put(ns_name, ns, "ns");
    }

    let units = UnitCosts {
        read_ns: read,
        write_ns: write,
        cas_ns: cas,
        flush_ns: flush,
        fence_ns: fence,
    };
    (m, units)
}

/// Run `body` on threads 0 and 1 of `mem` at once; returns their results and
/// the time from the first start to the last finish.
fn both_threads<R: Send>(
    mem: &PMem,
    body: impl Fn(&PThread<'_>) -> R + Sync,
) -> (Vec<R>, Duration) {
    let barrier = Barrier::new(2);
    let out: Vec<(R, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|pid| {
                let (barrier, body) = (&barrier, &body);
                s.spawn(move || {
                    let t = mem.thread(pid);
                    barrier.wait();
                    let t0 = Instant::now();
                    let r = body(&t);
                    (r, t0, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder thread panicked"))
            .collect()
    });
    let start = out.iter().map(|o| o.1).min().expect("two threads");
    let end = out.iter().map(|o| o.2).max().expect("two threads");
    (out.into_iter().map(|o| o.0).collect(), end - start)
}

/// Recovery of a General queue handle after a full-system crash, with the
/// queue `len` nodes long: median recovery steps and `attach_handle` time.
fn queue_recovery(len: u64) -> (f64, f64) {
    let mem = machine(1);
    let queue = {
        let t = mem.thread(0);
        let q = GeneralQueue::new(&t, 1, Durability::Manual, BoundaryStyle::General);
        let mut h = q.handle(&t);
        for i in 0..len {
            h.enqueue(i);
        }
        q
    };
    mem.persist_everything();
    let mut steps = Vec::new();
    let mut ns = Vec::new();
    for round in 0..RECOVERY_ROUNDS as u64 {
        mem.crash_all();
        let t = mem.thread(0);
        let s0 = t.stats();
        let t0 = Instant::now();
        let mut h = queue.attach_handle(&t);
        let d = t0.elapsed();
        steps.push(t.stats().since(&s0).recovery_steps as f64);
        ns.push(d.as_secs_f64() * 1e9);
        // Leave the frame mid-use for the next round's crash.
        h.enqueue(len + round);
        let _ = h.dequeue();
    }
    (median(&steps), median(&ns))
}
