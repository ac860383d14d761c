//! The repository benchmark. One command runs one of four workloads against
//! the public APIs of `queues`, `structs` and `service`, checks the outputs,
//! and prints every metric by name with its unit; the last line of standard
//! output is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <queue-pairs|map-read|map-churn|service-drill> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no per-operation tracing.
//! `--trace 1` runs the cost ladder and traced trials and reports the
//! per-layer metrics instead. The design, the workloads' reasons and the
//! layer → end-to-end table are in `perfbench/DESIGN.md`.

mod closed;
mod drill;
mod ladder;
mod report;

use std::process::ExitCode;

use report::{median, result_line, Metrics};
use service::Zipfian;

/// End-to-end metrics of the result line, the ones `BENCHMARK.json` bounds:
/// observable on every workload and steady from run to run. The others are
/// printed by name only: the flush, fence and word counts and `recovery_ms`
/// cannot be observed on every workload, and the open loop's tail latencies
/// are not steady on a two-core virtual machine (see `DESIGN.md`).
const END_TO_END: [&str; 3] = ["throughput_mops", "op_p50_us", "setup_s"];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 61] = [
    "pmem.steps_per_op",
    "pmem.reads_per_op",
    "pmem.cas_per_op",
    "pmem.cas_success_ratio",
    "pmem.dup_flushes_per_op",
    "pmem.est_ns_per_op",
    "pmem.read_ns",
    "pmem.write_ns",
    "pmem.cas_ns",
    "pmem.flush_ns",
    "pmem.fence_ns",
    "pmem.alloc_ns_1t",
    "pmem.alloc_ns_2t",
    "rcas.cas_ns",
    "rcas.cas_ns_2t",
    "rcas.success_ratio_2t",
    "rcas.read_ns",
    "rcas.recover_ns",
    "rcas.flushes_per_cas",
    "rcas.fences_per_cas",
    "capsules.capsules_per_op",
    "capsules.boundaries_per_op",
    "capsules.fast_ratio",
    "capsules.demotions_per_kop",
    "capsules.boundary_ns",
    "capsules.boundary_ns_compact",
    "capsules.boundary_flushes",
    "capsules.recovery_steps_q1k",
    "capsules.recovery_steps_q64k",
    "capsules.attach_ns_q1k",
    "capsules.attach_ns_q64k",
    "queues.enqueue_p50_ns",
    "queues.enqueue_p99_ns",
    "queues.dequeue_p50_ns",
    "queues.dequeue_p99_ns",
    "queues.enqueue_flushes",
    "queues.dequeue_flushes",
    "structs.contains_p50_ns",
    "structs.contains_p99_ns",
    "structs.insert_p50_ns",
    "structs.insert_p99_ns",
    "structs.remove_p50_ns",
    "structs.remove_p99_ns",
    "structs.insert_max_us",
    "structs.contains_flushes",
    "structs.contains_fences",
    "structs.insert_flushes",
    "structs.insert_words",
    "service.submit_p50_ns",
    "service.submit_p99_ns",
    "service.enqueue_to_ack_p50_us",
    "service.enqueue_to_ack_p99_us",
    "service.retries_per_kreq",
    "service.detect_ms",
    "service.replay_ms",
    "service.resumed_ops",
    "service.reexecuted_ops",
    "service.healthy_ops_during_outage",
    "bench.gen_lag_p99_us",
    "bench.trace_overhead_pct",
    "bench.timer_ns",
];

/// Trials per traced run, each as long as an untraced run's trials,
/// alternating untraced and traced so the difference between the two is the
/// tracing overhead.
const TRACE_TRIALS: usize = 4;
/// Seconds of each short rung that stands in for a layer the traced workload
/// does not exercise.
const RUNG_SECS: f64 = 0.4;
/// Queue length of the queue rung.
const RUNG_QUEUE_PREFILL: u64 = 1 << 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    QueuePairs,
    MapRead,
    MapChurn,
    ServiceDrill,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "queue-pairs" => Workload::QueuePairs,
            "map-read" => Workload::MapRead,
            "map-churn" => Workload::MapChurn,
            "service-drill" => Workload::ServiceDrill,
            _ => return None,
        })
    }

    /// Trials per untraced run: each gets a fresh, freshly prefilled
    /// structure and `seconds / trials` of the clock; the run reports medians
    /// over them. A trial's length is part of the workload (`DESIGN.md`
    /// gives the measurements): the queue's throughput falls as a trial
    /// grows its heap, and its run-to-run spread with it, so `queue-pairs`
    /// keeps to 1 s trials; `map-churn` needs 2 s trials to hold enough
    /// resize purges for a steady median; the service needs time for its
    /// kills.
    fn trials(self) -> usize {
        match self {
            Workload::QueuePairs | Workload::MapRead => 20,
            Workload::MapChurn => 10,
            Workload::ServiceDrill => 5,
        }
    }

    fn threads(self) -> usize {
        match self {
            Workload::QueuePairs => closed::QUEUE_THREADS,
            Workload::MapRead => closed::MAP_READ.threads,
            Workload::MapChurn => closed::MAP_CHURN.threads,
            Workload::ServiceDrill => {
                drill::SERVICE_DRILL.shards * drill::SERVICE_DRILL.workers_per_shard + 2
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds {value}: must be in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Knobs read from the environment by the measured crates, and the value the
/// benchmark measures them at.
const PINNED: [(&str, &str); 2] = [("DF_COALESCE", "1"), ("DF_ADAPTIVE", "1")];
/// Checkers that slow every instruction: a timed run refuses to start while
/// the environment arms them.
const REFUSED: [&str; 2] = ["DF_HB", "DF_FLUSH_AUDIT"];

fn armed(v: &str) -> bool {
    !v.is_empty() && v != "0"
}

/// Pin the measured program's configuration and describe it, or explain why
/// the run must not be timed.
fn configure(args: &Args) -> Result<Vec<(String, String)>, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to time a debug build; build with --release".into());
    }
    let mut config = Vec::new();
    for name in REFUSED {
        let v = std::env::var(name).unwrap_or_default();
        if armed(&v) {
            return Err(format!("refusing to time a run with {name}={v}: the checker it arms slows every instruction"));
        }
        config.push((
            name.to_string(),
            if v.is_empty() { "unset".into() } else { v },
        ));
    }
    for (name, value) in PINNED {
        let inherited = std::env::var(name).unwrap_or_else(|_| "unset".into());
        // Set before any thread or machine exists; the crates read these
        // when a machine or queue is built.
        std::env::set_var(name, value);
        config.push((name.to_string(), format!("{value} (inherited {inherited})")));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    config.push(("nproc".into(), nproc.to_string()));
    config.push(("threads".into(), args.workload.threads().to_string()));
    config.push(("seed".into(), args.seed.to_string()));
    config.push(("seconds".into(), args.seconds.to_string()));
    config.push(("trace".into(), u8::from(args.trace).to_string()));
    config.push((
        "profile".into(),
        "release (lto=thin, codegen-units=4)".into(),
    ));
    Ok(config)
}

/// Counts every trial contributes to the result line.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    fn closed(&mut self, t: &closed::Trial) {
        self.attempted += t.ops;
        self.failed += t.failed;
        self.problems.extend(t.problems.iter().cloned());
    }

    fn drill(&mut self, t: &drill::DrillTrial) {
        self.attempted += t.sent;
        self.failed += t.failed;
        self.problems.extend(t.problems.iter().cloned());
    }
}

fn keyed_spec(w: Workload) -> closed::KeyedSpec {
    match w {
        Workload::MapRead => closed::MAP_READ,
        Workload::MapChurn => closed::MAP_CHURN,
        _ => unreachable!("{w:?} is not a map workload"),
    }
}

/// The service shard's structure driven directly by one thread: one shard's
/// share of the `service-drill` keys, mix and ticket stamps.
fn shard_set_spec() -> closed::KeyedSpec {
    let d = drill::SERVICE_DRILL;
    closed::KeyedSpec {
        threads: 1,
        keys: d.keys,
        buckets: 1,
        read_pct: d.read_pct,
        theta: d.theta,
        shard_set: true,
    }
}

/// A run's trials of its workload.
enum Trials {
    Closed(Vec<closed::Trial>),
    Drill(Vec<drill::DrillTrial>),
}

/// Run `count` trials of the workload, each `seconds / trials` long; trial
/// `n` is traced when `traced(n)`.
fn run_trials(
    args: &Args,
    count: usize,
    traced: impl Fn(u64) -> bool,
    out: &mut Outcome,
) -> Trials {
    let secs = args.seconds / args.workload.trials() as f64;
    let ns = 0..count as u64;
    let trials = match args.workload {
        Workload::QueuePairs => Trials::Closed(
            ns.map(|n| closed::queue_trial(secs, closed::QUEUE_PREFILL, traced(n)))
                .collect(),
        ),
        Workload::MapRead | Workload::MapChurn => {
            let spec = keyed_spec(args.workload);
            let z = Zipfian::new(spec.keys, spec.theta);
            Trials::Closed(
                ns.map(|n| closed::keyed_trial(&spec, &z, args.seed, n, secs, traced(n)))
                    .collect(),
            )
        }
        Workload::ServiceDrill => {
            let spec = drill::SERVICE_DRILL;
            let z = Zipfian::new(spec.keys, spec.theta);
            Trials::Drill(
                ns.map(|n| drill::drill_trial(&spec, &z, args.seed, n, secs, traced(n)))
                    .collect(),
            )
        }
    };
    match &trials {
        Trials::Closed(t) => t.iter().for_each(|t| out.closed(t)),
        Trials::Drill(t) => t.iter().for_each(|t| out.drill(t)),
    }
    trials
}

/// The untraced run: end-to-end metrics over the workload's trials.
fn untraced(args: &Args, out: &mut Outcome) -> Metrics {
    match run_trials(args, args.workload.trials(), |_| false, out) {
        Trials::Closed(t) => closed::end_to_end(&t),
        Trials::Drill(t) => drill::end_to_end(&t),
    }
}

/// Overhead of tracing in percent: how much worse `traced` reads than
/// `untraced`, medians over the same run's trials of each kind.
fn overhead_pct(traced: &[f64], untraced: &[f64], higher_is_better: bool) -> f64 {
    let r = median(untraced) / median(traced);
    (if higher_is_better { r } else { 1.0 / r } - 1.0) * 100.0
}

/// Split a run's trials into the traced ones and a figure of each of the
/// others.
fn split<T>(trials: &[T], figure: impl Fn(&T) -> f64) -> (Vec<&T>, Vec<f64>) {
    let traced = trials.iter().skip(1).step_by(2).collect();
    let untraced = trials.iter().step_by(2).map(figure).collect();
    (traced, untraced)
}

/// The traced run: the ladder, then alternating untraced and traced trials
/// of the workload, then short traced rungs of the workloads that exercise
/// the layers this one does not.
fn traced(args: &Args, out: &mut Outcome) -> Metrics {
    let (mut m, units) = ladder::run();
    let seed = args.seed;
    let rung_no = TRACE_TRIALS as u64;
    match run_trials(args, TRACE_TRIALS, |n| n % 2 == 1, out) {
        Trials::Closed(t) => {
            let (tr, un) = split(&t, closed::Trial::mops);
            let tr_mops: Vec<f64> = tr.iter().map(|t| t.mops()).collect();
            m.put(
                "bench.trace_overhead_pct",
                overhead_pct(&tr_mops, &un, true),
                "%",
            );
            m.fill_from(closed::attributed(&tr, &units));
            m.fill_from(if args.workload == Workload::QueuePairs {
                closed::queue_layer(&tr)
            } else {
                closed::struct_layer(&tr)
            });
        }
        Trials::Drill(t) => {
            // The offered rate fixes throughput, so the overhead shows in
            // the median latency instead.
            let p50 = |t: &drill::DrillTrial| t.lat.quantile_ns(0.5).unwrap_or(f64::NAN);
            let (tr, un) = split(&t, p50);
            let tr_p50: Vec<f64> = tr.iter().map(|t| p50(t)).collect();
            m.put(
                "bench.trace_overhead_pct",
                overhead_pct(&tr_p50, &un, false),
                "%",
            );
            m.fill_from(drill::service_layer(&tr));
            // The shards' machines are internal to the service: attribute
            // the per-request pmem, capsule and structure work on the
            // shard's own structure and mix, driven directly.
            let set = shard_set_spec();
            let rung = closed::keyed_trial(
                &set,
                &Zipfian::new(set.keys, set.theta),
                seed,
                rung_no,
                RUNG_SECS,
                true,
            );
            out.closed(&rung);
            m.fill_from(closed::attributed(&[&rung], &units));
            m.fill_from(closed::struct_layer(&[&rung]));
        }
    }
    if args.workload != Workload::QueuePairs {
        let rung = closed::queue_trial(RUNG_SECS, RUNG_QUEUE_PREFILL, true);
        out.closed(&rung);
        m.fill_from(closed::queue_layer(&[&rung]));
    } else {
        let spec = closed::MAP_READ;
        let rung = closed::keyed_trial(
            &spec,
            &Zipfian::new(spec.keys, spec.theta),
            seed,
            rung_no,
            RUNG_SECS,
            true,
        );
        out.closed(&rung);
        m.fill_from(closed::struct_layer(&[&rung]));
    }
    if args.workload != Workload::ServiceDrill {
        let spec = drill::SERVICE_DRILL;
        let rung = drill::drill_trial(
            &spec,
            &Zipfian::new(spec.keys, spec.theta),
            seed,
            rung_no,
            2.0 * RUNG_SECS,
            true,
        );
        out.drill(&rung);
        m.fill_from(drill::service_layer(&[&rung]));
    }
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <queue-pairs|map-read|map-churn|service-drill> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let config = match configure(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    pmem::install_quiet_crash_hook();
    println!("# config {}", report::json_object(&config));

    let mut out = Outcome::default();
    let metrics = if args.trace {
        traced(&args, &mut out)
    } else {
        untraced(&args, &mut out)
    };
    metrics.print_lines();
    println!(
        "metric {:<34} {:>16.6} ratio",
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64
    );

    let declared: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut reported = Metrics::default();
    for name in declared {
        match metrics.get(name) {
            Some(m) if m.value.is_some() => reported.0.push(m.clone()),
            _ => out.problems.push(format!("metric {name} was not measured")),
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
