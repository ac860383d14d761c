//! `service-drill`: the sharded service under an open loop. One client thread
//! sends requests at a fixed offered rate through `Router::submit` while a
//! drill thread kills one shard at a time at fixed offsets in the run.
//!
//! A request's latency runs from when it was *due* to when the client sees it
//! acknowledged. Each shard has one worker popping its queue in order, so the
//! n-th request a shard accepted is the n-th it acknowledges; the client
//! matches acknowledgements to due times by watching each shard's completed
//! counter. `Router::submit` stamps its own send time, so the shards'
//! histograms alone would hide the generator's stalls (a submit to a down
//! shard sleeps in its retry backoff); this clock does not.

use std::collections::VecDeque;
use std::thread;
use std::time::{Duration, Instant};

use service::{run_shard, RequestGen, RetryPolicy, Router, ShardReport, ShardShared, Zipfian};
use structs::StructOp;

use crate::closed::{put_latency, stream_seed};
use crate::report::{median, ratio, Lat, Metrics};

/// `service-drill` sizing.
#[derive(Clone, Copy, Debug)]
pub struct DrillSpec {
    pub shards: usize,
    pub workers_per_shard: usize,
    pub keys: u64,
    pub read_pct: u32,
    pub theta: f64,
    /// Offered load, requests per second.
    pub rate: f64,
    /// Shard-local kills per trial, at evenly spaced offsets.
    pub kills: usize,
    /// Mixed requests run during set-up so the sorted lists reach their
    /// steady length before the clock starts.
    pub warmup: u64,
}

/// Two shards of one worker over 2^12 keys, half reads, offered about half
/// the load the service saturates at on a 2-core machine.
pub const SERVICE_DRILL: DrillSpec = DrillSpec {
    shards: 2,
    workers_per_shard: 1,
    keys: 1 << 12,
    read_pct: 50,
    theta: 0.99,
    rate: 120_000.0,
    kills: 4,
    warmup: 1 << 15,
};

/// The client's retry policy: the router's default backoff, with attempts
/// enough to wait out about 70 ms of a down or full shard. The default eight
/// attempts give up after about 11 ms. On a 2-vCPU virtual machine, stalls
/// of several milliseconds come and go, and two of ten runs with the default
/// failed a check during such a period, while recovery took 0.4 ms at the
/// median.
const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 20,
    initial_backoff: Duration::from_micros(100),
    max_backoff: Duration::from_millis(5),
};
const QUEUE_CAP: usize = 1024;
const DRAIN_CAP: usize = 1 << 20;
/// The client sleeps this long whenever no request is due: with two cores
/// and two shard workers, a client that spun would take a worker's core.
const TICK: Duration = Duration::from_micros(20);
/// A degraded (refused) request misses any latency limit: it is recorded as
/// the longest latency a sample can hold.
const REFUSED: Duration = Duration::from_nanos(u32::MAX as u64);
/// How long acknowledgements or a recovering shard may take before the trial
/// is declared failed.
const PATIENCE: Duration = Duration::from_secs(10);

/// One kill: detect (kill → quiesced), replay (quiesced → serving), total,
/// and requests the healthy shards acknowledged meanwhile.
#[derive(Clone, Copy, Debug)]
pub struct Kill {
    pub detect: Duration,
    pub replay: Duration,
    pub total: Duration,
    pub healthy_ops: u64,
}

/// Everything one open-loop trial measured.
#[derive(Default)]
pub struct DrillTrial {
    pub setup_s: f64,
    /// Requests due in the timed window (all were sent).
    pub sent: u64,
    pub acked: u64,
    pub degraded: u64,
    pub wall_s: f64,
    /// Due → acknowledged (refused requests at the top of the range).
    pub lat: Lat,
    /// Sent → acknowledged.
    pub enqueue_to_ack: Lat,
    /// How late the generator sent each request.
    pub lag: Lat,
    /// Time inside `Router::submit` (traced trials only).
    pub submit: Lat,
    pub retries: u64,
    /// Acknowledgements the client could not match to a request it sent.
    pub unmatched: u64,
    pub kills: Vec<Kill>,
    pub resumed: u64,
    pub reexecuted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl DrillTrial {
    pub fn mops(&self) -> f64 {
        self.acked as f64 / self.wall_s / 1e6
    }
}

fn wait_serving(shard: &ShardShared) -> bool {
    let t0 = Instant::now();
    while !shard.is_serving() {
        if t0.elapsed() > PATIENCE {
            return false;
        }
        thread::sleep(Duration::from_micros(50));
    }
    true
}

fn completed(shards: &[ShardShared]) -> u64 {
    shards.iter().map(ShardShared::completed_ops).sum()
}

/// Submit `ops` through the router in batches, waiting for every batch to be
/// acknowledged, so set-up never overflows a shard queue. Returns the number
/// of refused requests.
fn submit_batched(
    router: &mut Router<'_>,
    shards: &[ShardShared],
    ops: impl Iterator<Item = StructOp>,
) -> u64 {
    let mut refused = 0;
    let mut batch = 0;
    let settle = |router: &Router<'_>| {
        let t0 = Instant::now();
        while completed(shards) < router.stats.accepted && t0.elapsed() < PATIENCE {
            thread::yield_now();
        }
    };
    for op in ops {
        if router.submit(op).is_err() {
            refused += 1;
        }
        batch += 1;
        if batch == QUEUE_CAP / 2 {
            settle(router);
            batch = 0;
        }
    }
    settle(router);
    refused
}

/// One trial: start the shards, prefill and warm up, run the paced client and
/// the kill schedule for `secs`, wait for every acknowledgement, stop, and
/// check the shards' exactly-once oracles.
pub fn drill_trial(
    spec: &DrillSpec,
    zipf: &Zipfian,
    seed: u64,
    trial_no: u64,
    secs: f64,
    trace: bool,
) -> DrillTrial {
    let setup = Instant::now();
    let shards: Vec<ShardShared> = (0..spec.shards)
        .map(|i| ShardShared::new(i, QUEUE_CAP, setup))
        .collect();
    let mut problems = Vec::new();
    let (reports, trial) = thread::scope(|s| {
        let executors: Vec<_> = shards
            .iter()
            .map(|sh| s.spawn(move || run_shard(sh, spec.workers_per_shard, DRAIN_CAP)))
            .collect();
        let mut router = Router::new(&shards, RETRY);
        let mut gen = RequestGen::new(stream_seed(seed, trial_no, 0), zipf.clone(), spec.read_pct);
        let mut setup_refused = 0;
        if shards.iter().all(wait_serving) {
            setup_refused += submit_batched(
                &mut router,
                &shards,
                (0..spec.keys).step_by(2).map(StructOp::Insert),
            );
            setup_refused += submit_batched(
                &mut router,
                &shards,
                (0..spec.warmup).map(|_| gen.next_op()),
            );
        } else {
            problems.push("shards never started serving".to_string());
        }
        if setup_refused > 0 {
            problems.push(format!("{setup_refused} set-up requests were refused"));
        }
        let setup_s = setup.elapsed().as_secs_f64();

        let window = Duration::from_secs_f64(secs);
        let t0 = Instant::now() + Duration::from_millis(1);
        let shards_ref = &shards;
        let drill = s.spawn(move || kill_schedule(spec, shards_ref, t0, window));
        let trial = client(spec, &shards, &mut router, &mut gen, t0, window, trace);
        let (kills, kill_problems) = drill.join().expect("drill thread panicked");
        problems.extend(kill_problems);
        for sh in &shards {
            sh.request_stop();
        }
        let reports: Vec<ShardReport> = executors
            .into_iter()
            .map(|e| e.join().expect("shard executor panicked"))
            .collect();
        let accepted_total = router.stats.accepted;
        if reports.iter().map(|r| r.completed).sum::<u64>() != accepted_total {
            problems.push(format!(
                "shards acknowledged {} requests, the router had {accepted_total} accepted",
                reports.iter().map(|r| r.completed).sum::<u64>()
            ));
        }
        (
            reports,
            DrillTrial {
                setup_s,
                kills,
                ..trial
            },
        )
    });
    let mut trial = trial;
    // Failures: refused and unacknowledged requests, exactly-once violations,
    // and each failed check of the drill itself.
    let unacked = trial.sent.saturating_sub(trial.acked + trial.degraded);
    trial.failed = trial.degraded + unacked + trial.unmatched + problems.len() as u64;
    for r in &reports {
        trial.resumed += r.resumed_ops;
        trial.reexecuted += r.reexecuted_ops;
        trial.failed += r.violations.len() as u64;
        problems.extend(r.violations.iter().take(3).cloned());
    }
    if trial.degraded > 0 {
        problems.push(format!("{} requests degraded", trial.degraded));
    }
    if trial.unmatched > 0 {
        problems.push(format!(
            "{} acknowledgements matched no request sent",
            trial.unmatched
        ));
    }
    if unacked > 0 {
        problems.push(format!(
            "{unacked} accepted requests were never acknowledged"
        ));
    }
    trial.problems.extend(problems);
    trial
}

/// The paced client. Sends request `i` at `t0 + i / rate` (or as soon after
/// as it can) until `window` has passed, then waits for the last
/// acknowledgements.
fn client(
    spec: &DrillSpec,
    shards: &[ShardShared],
    router: &mut Router<'_>,
    gen: &mut RequestGen,
    t0: Instant,
    window: Duration,
    trace: bool,
) -> DrillTrial {
    let period = 1.0 / spec.rate;
    let base: Vec<u64> = shards.iter().map(ShardShared::completed_ops).collect();
    let mut seen = vec![0u64; shards.len()];
    let mut pending: Vec<VecDeque<(Instant, Instant)>> = vec![VecDeque::new(); shards.len()];
    let stats0 = router.stats;
    let mut t = DrillTrial::default();
    let mut last_ack = t0;
    let mut poll = |t: &mut DrillTrial, pending: &mut Vec<VecDeque<(Instant, Instant)>>| {
        let now = Instant::now();
        for (i, sh) in shards.iter().enumerate() {
            let done = sh.completed_ops() - base[i];
            while seen[i] < done {
                seen[i] += 1;
                let Some((due, sent)) = pending[i].pop_front() else {
                    t.unmatched += 1;
                    continue;
                };
                t.lat.record(now - due);
                t.enqueue_to_ack.record(now - sent);
                t.acked += 1;
                last_ack = now;
            }
        }
    };
    let mut i = 0u64;
    loop {
        let due = t0 + Duration::from_secs_f64(i as f64 * period);
        if due - t0 >= window {
            break;
        }
        let now = Instant::now();
        if now < due {
            poll(&mut t, &mut pending);
            thread::sleep(TICK);
            continue;
        }
        t.lag.record(now - due);
        let op = gen.next_op();
        let sent = Instant::now();
        let r = router.submit(op);
        if trace {
            t.submit.record(sent.elapsed());
        }
        match r {
            Ok(shard) => pending[shard].push_back((due, sent)),
            Err(_) => {
                t.degraded += 1;
                t.lat.record(REFUSED);
            }
        }
        t.sent += 1;
        i += 1;
    }
    let deadline = Instant::now() + PATIENCE;
    while pending.iter().any(|p| !p.is_empty()) && Instant::now() < deadline {
        poll(&mut t, &mut pending);
        thread::sleep(TICK);
    }
    t.wall_s = (last_ack - t0).as_secs_f64();
    t.retries = router.stats.retries - stats0.retries;
    t
}

/// Kill shard `j % shards` at offsets `(j + 1) · window / (kills + 1)`,
/// waiting for it to serve again each time.
fn kill_schedule(
    spec: &DrillSpec,
    shards: &[ShardShared],
    t0: Instant,
    window: Duration,
) -> (Vec<Kill>, Vec<String>) {
    let mut kills = Vec::new();
    let mut problems = Vec::new();
    for j in 0..spec.kills {
        let at = t0 + window.mul_f64((j + 1) as f64 / (spec.kills + 1) as f64);
        if let Some(d) = at.checked_duration_since(Instant::now()) {
            thread::sleep(d);
        }
        let victim = j % shards.len();
        let healthy = |shards: &[ShardShared]| -> u64 {
            shards
                .iter()
                .filter(|s| s.id != victim)
                .map(ShardShared::completed_ops)
                .sum()
        };
        let before = healthy(shards);
        if !shards[victim].request_kill() {
            problems.push(format!("kill {j}: shard {victim} was not serving"));
            continue;
        }
        if !wait_serving(&shards[victim]) {
            problems.push(format!(
                "kill {j}: shard {victim} did not serve again within {PATIENCE:?}"
            ));
            break;
        }
        match shards[victim].last_recovery() {
            Some((detect, replay, total)) => kills.push(Kill {
                detect,
                replay,
                total,
                healthy_ops: healthy(shards) - before,
            }),
            None => problems.push(format!("kill {j}: shard {victim} recorded no recovery")),
        }
    }
    (kills, problems)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The end-to-end metrics of a `service-drill` run.
pub fn end_to_end(trials: &[DrillTrial]) -> Metrics {
    let mut m = Metrics::default();
    let mops: Vec<f64> = trials.iter().map(DrillTrial::mops).collect();
    m.put("throughput_mops", median(&mops), "Mops/s");
    put_latency(&mut m, &trials.iter().map(|t| &t.lat).collect::<Vec<_>>());
    // The shards' machines live inside `run_shard`: their pmem counters
    // cannot be seen from outside the service.
    m.put_opt("flushes_per_op", None, "flush/op");
    m.put_opt("fences_per_op", None, "fence/op");
    m.put_opt("pm_words_per_op", None, "word/op");
    let totals: Vec<f64> = trials
        .iter()
        .flat_map(|t| t.kills.iter().map(|k| ms(k.total)))
        .collect();
    m.put_opt(
        "recovery_ms",
        (!totals.is_empty()).then(|| median(&totals)),
        "ms",
    );
    let setup: Vec<f64> = trials.iter().map(|t| t.setup_s).collect();
    m.put("setup_s", median(&setup), "s");
    m
}

/// The `service` layer metrics (and the generator's lag) of traced trials.
pub fn service_layer(trials: &[&DrillTrial]) -> Metrics {
    let mut m = Metrics::default();
    let mut submit = Lat::default();
    let mut e2a = Lat::default();
    let mut lag = Lat::default();
    for t in trials {
        submit.merge(&t.submit);
        e2a.merge(&t.enqueue_to_ack);
        lag.merge(&t.lag);
    }
    let kills: Vec<&Kill> = trials.iter().flat_map(|t| &t.kills).collect();
    let med = |f: &dyn Fn(&Kill) -> f64| {
        let v: Vec<f64> = kills.iter().map(|k| f(k)).collect();
        (!v.is_empty()).then(|| median(&v))
    };
    let sent: u64 = trials.iter().map(|t| t.sent).sum();
    m.put_opt("service.submit_p50_ns", submit.quantile_ns(0.5), "ns");
    m.put_opt("service.submit_p99_ns", submit.quantile_ns(0.99), "ns");
    m.put_opt(
        "service.enqueue_to_ack_p50_us",
        e2a.quantile_ns(0.5).map(|v| v / 1e3),
        "us",
    );
    m.put_opt(
        "service.enqueue_to_ack_p99_us",
        e2a.quantile_ns(0.99).map(|v| v / 1e3),
        "us",
    );
    m.put_opt(
        "service.retries_per_kreq",
        ratio(
            trials.iter().map(|t| t.retries).sum::<u64>() as f64 * 1e3,
            sent as f64,
        ),
        "1/kreq",
    );
    m.put_opt("service.detect_ms", med(&|k| ms(k.detect)), "ms");
    m.put_opt("service.replay_ms", med(&|k| ms(k.replay)), "ms");
    m.put(
        "service.resumed_ops",
        trials.iter().map(|t| t.resumed).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "service.reexecuted_ops",
        trials.iter().map(|t| t.reexecuted).sum::<u64>() as f64,
        "count",
    );
    m.put_opt(
        "service.healthy_ops_during_outage",
        med(&|k| k.healthy_ops as f64),
        "count",
    );
    m.put_opt(
        "bench.gen_lag_p99_us",
        lag.quantile_ns(0.99).map(|v| v / 1e3),
        "us",
    );
    m
}
