//! `dfck` — exhaustive crash-point sweep over every queue *and* structure
//! variant of the [`bench::dfck::Variant`] registry.
//!
//! Runs the rows of [`bench::dfck::matrix`]: for each of MSQ-Izraelevitz,
//! General, General-Opt, Normalized, Normalized-Opt and LogQueue — plus the
//! Treiber stack, linked-list set and bucketed hash map, each as Izraelevitz /
//! General / Normalized — the pair and seeded multi-op workloads (for the
//! maps, the resize-crossing window on a [`structs::MapConfig::tiny`] bucket
//! array), once per possible crash point (count taken from
//! [`pmem::Stats::crash_points`], never hard-coded) under *both* crash
//! flavours — per-process faults (the PPM model) and full-system power
//! failures (`/system`: unflushed cache lines roll back, verifying flush
//! placement) — plus a nested sweep that injects a second crash inside the
//! recovery triggered by the first. Every replay runs with the
//! [`pmem::FlushAuditor`] and the [`pmem::HbAnalyzer`] armed and is checked
//! against the exactly-once / durable-linearizability oracle of the variant's
//! shape (FIFO, LIFO or set). Exits non-zero on any oracle violation, auditor
//! flag or happens-before flag. The per-crash-point replays fan out across
//! worker threads (`DF_DFCK_THREADS`), keeping the full matrix inside the CI
//! budget.
//!
//! On top of the single-threaded matrix, the binary sweeps the **interleaved**
//! dimension: the same engine driven by 2+ deterministic cooperative threads
//! under the [`pmem::ThreadScheduler`], enumerating (interleaving seed ×
//! victim crash point) with the oracle generalized to linearization checking
//! over the scheduler's global instruction clock. All six queue variants plus
//! the General stack and both detectable maps run concurrently by default
//! (`DF_DFCK_CONC_VARIANTS` narrows the set for bounded CI jobs; an unknown
//! label exits with status 2).
//!
//! ```text
//! cargo run -p bench --release --bin dfck
//! DF_DFCK_OPS=12 DF_DFCK_SEED=7 cargo run -p bench --release --bin dfck
//! DF_JSON=1 cargo run -p bench --release --bin dfck   # also write BENCH_dfck.json
//! DF_DFCK_CONC_ONLY=1 DF_DFCK_CONC_SEEDS=2 cargo run -p bench --release --bin dfck
//! ```
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `DF_DFCK_OPS`  | operations in the seeded multi-op workload | 8 |
//! | `DF_DFCK_SEED` | seed of the multi-op workload | 42 |
//! | `DF_DFCK_GAP`  | crash-point gap of the nested (crash-during-recovery) sweep | 0 |
//! | `DF_DFCK_THREADS` | sweep worker threads | `available_parallelism`, ≤ 8 |
//! | `DF_DFCK_CONC_SEEDS` | interleaving seeds per concurrent sweep (0 = skip) | 8 |
//! | `DF_DFCK_CONC_THREADS` | scheduled worker pids per concurrent replay | 2 |
//! | `DF_DFCK_MV_GAP` | co-victim crash gap of the multi-victim (`/mv`) rows | 3 |
//! | `DF_DFCK_CONC_ONLY` | non-zero: run only the interleaved matrix | 0 |
//! | `DF_DFCK_CONC_VARIANTS` | comma list of variant labels to sweep concurrently | all |

use std::time::Instant;

use bench::dfck::{matrix, MatrixParams, SpecReport, Variant};
use bench::env_u64;
use bench::json::{emit, JsonRow};
use bench::sweep::{ConcReport, Report};

fn row(label: String, report: &Report) -> JsonRow {
    // Coverage rows have no throughput; `crashes_injected` is the
    // DF_REQUIRE_NONZERO signal (zero exactly when the sweep verified nothing).
    JsonRow::new(label, 1, 0.0)
        .with("crash_points", report.crash_points as f64)
        .with("replays", report.replays as f64)
        .with("crashes_injected", report.crashes_injected as f64)
        .with("recoveries", report.recoveries as f64)
        .with("entry_retries", report.entry_retries as f64)
        .with("recovery_crashes", report.recovery_crashes as f64)
        .with("fast_ops", report.fast_ops as f64)
        .with("demotions", report.demotions as f64)
        .with("audit_flags", report.audit_flags as f64)
        .with("hb_flags", report.hb_flags as f64)
        .with("oracle_failures", report.violations.len() as f64)
}

fn conc_row(label: String, report: &ConcReport) -> JsonRow {
    JsonRow::new(label, report.threads, 0.0)
        .with("seeds", report.seeds.len() as f64)
        .with(
            "distinct_interleavings",
            report.distinct_interleavings as f64,
        )
        .with("crash_points", report.crash_points as f64)
        .with("replays", report.replays as f64)
        .with("crashes_injected", report.crashes_injected as f64)
        .with("covictim_crashes", report.covictim_crashes as f64)
        .with("recoveries", report.recoveries as f64)
        .with("entry_retries", report.entry_retries as f64)
        .with("recovery_crashes", report.recovery_crashes as f64)
        .with("fast_ops", report.fast_ops as f64)
        .with("demotions", report.demotions as f64)
        .with("audit_flags", report.audit_flags as f64)
        .with("hb_flags", report.hb_flags as f64)
        .with("oracle_failures", report.violations.len() as f64)
}

/// Parse `DF_DFCK_CONC_VARIANTS`; an unknown label is a usage error (exit 2)
/// rather than a silently dropped row.
fn conc_variants() -> Option<Vec<Variant>> {
    let raw = std::env::var("DF_DFCK_CONC_VARIANTS").ok()?;
    let labels = raw.split(',').map(str::trim).filter(|v| !v.is_empty());
    Some(
        labels
            .map(|label| {
                Variant::from_label(label).unwrap_or_else(|| {
                    let valid: Vec<&str> = Variant::all().iter().map(|v| v.label()).collect();
                    eprintln!(
                        "dfck: unknown variant {label:?} in DF_DFCK_CONC_VARIANTS; valid labels: {}",
                        valid.join(", ")
                    );
                    std::process::exit(2);
                })
            })
            .collect(),
    )
}

fn main() {
    let params = MatrixParams {
        multi_ops: env_u64("DF_DFCK_OPS", 8) as usize,
        seed: env_u64("DF_DFCK_SEED", 42),
        nested_gap: env_u64("DF_DFCK_GAP", 0),
        conc_seeds: env_u64("DF_DFCK_CONC_SEEDS", 8),
        conc_threads: (env_u64("DF_DFCK_CONC_THREADS", 2) as usize).max(2),
        mv_gap: env_u64("DF_DFCK_MV_GAP", 3),
        conc_only: env_u64("DF_DFCK_CONC_ONLY", 0) != 0,
        conc_variants: conc_variants(),
    };

    println!(
        "# dfck — exhaustive crash-point sweep (multi-op seed {}, {} ops, nested gap {})",
        params.seed, params.multi_ops, params.nested_gap
    );

    let wall = Instant::now();
    let mut rows = Vec::new();
    let mut failures = 0usize;
    let (mut single_header, mut conc_header) = (false, false);
    for spec in matrix(&params) {
        let label = spec.label();
        let violations = match spec.run() {
            SpecReport::Single(report) => {
                if !std::mem::replace(&mut single_header, true) {
                    println!(
                        "{:<46} {:>12} {:>9} {:>9} {:>11} {:>9} {:>7} {:>5} {:>10}",
                        "sweep",
                        "crash pts",
                        "replays",
                        "crashes",
                        "recoveries",
                        "nested",
                        "audit",
                        "hb",
                        "violations"
                    );
                }
                println!(
                    "{:<46} {:>12} {:>9} {:>9} {:>11} {:>9} {:>7} {:>5} {:>10}",
                    label,
                    report.crash_points,
                    report.replays,
                    report.crashes_injected,
                    report.recoveries + report.entry_retries,
                    report.recovery_crashes,
                    report.audit_flags,
                    report.hb_flags,
                    report.violations.len()
                );
                rows.push(row(label.clone(), &report));
                report.violations
            }
            SpecReport::Interleaved(report) => {
                if !std::mem::replace(&mut conc_header, true) {
                    println!(
                        "# interleaved sweeps — {} seeds × {} scheduled threads",
                        params.conc_seeds, params.conc_threads
                    );
                    println!(
                        "{:<46} {:>7} {:>13} {:>12} {:>9} {:>9} {:>11} {:>7} {:>5} {:>10}",
                        "sweep",
                        "seeds",
                        "interleavings",
                        "crash pts",
                        "replays",
                        "crashes",
                        "recoveries",
                        "audit",
                        "hb",
                        "violations"
                    );
                }
                println!(
                    "{:<46} {:>7} {:>13} {:>12} {:>9} {:>9} {:>11} {:>7} {:>5} {:>10}",
                    label,
                    report.seeds.len(),
                    report.distinct_interleavings,
                    report.crash_points,
                    report.replays,
                    report.crashes_injected,
                    report.recoveries + report.entry_retries,
                    report.audit_flags,
                    report.hb_flags,
                    report.violations.len()
                );
                rows.push(conc_row(label.clone(), &report));
                report.violations
            }
        };
        for v in &violations {
            eprintln!("VIOLATION [{label}]: {v}");
        }
        failures += violations.len();
    }

    emit(
        "dfck",
        &[
            ("multi_ops", params.multi_ops as u64),
            ("seed", params.seed),
            ("nested_gap", params.nested_gap),
            ("conc_seeds", params.conc_seeds),
            ("conc_threads", params.conc_threads as u64),
        ],
        wall.elapsed().as_secs_f64(),
        &rows,
    );

    if failures > 0 {
        eprintln!("dfck: {failures} oracle violation(s)");
        std::process::exit(1);
    }
    println!(
        "# all sweeps passed the exactly-once / durable-linearizability / linearization oracles (0 violations, 0 audit flags, 0 hb flags)"
    );
}
