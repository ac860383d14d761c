//! `dfck` — the deterministic, exhaustive crash-point sweeper.
//!
//! The paper's correctness claim (Definition 2.2, Theorems 5.1/6.1/7.1) is that
//! capsule re-execution is *invisible at every possible crash point*. Random
//! crash-torture (`CrashPolicy::Random`) only samples that space; this engine
//! enumerates it: it runs a seeded workload once crash-free to learn the total
//! number of crash points `N` (from [`pmem::Stats::crash_points`] — never
//! hard-coded), then replays the identical workload once per crash point
//! `k = 0..N` with a scripted [`CrashPlan`] that crashes exactly there — and, in
//! nested mode, crashes *again* a fixed number of crash points later, which lands
//! inside the recovery code the first crash triggered.
//!
//! One registry ([`Variant`]) covers every swept structure: the six queue
//! variants and the Treiber stack, linked-list set and bucketed hash map, each
//! as Izraelevitz / General / Normalized. Every variant is driven through the
//! uniform [`StructHandle`] alphabet (queue handles through a small adapter),
//! so one replay path serves them all; variants differ only in their *driver
//! kind* — how a crash surfaces to the replay:
//!
//! * **Izraelevitz** (durable, not detectable): a crash unwinds to the driver
//!   and the operation is recorded as interrupted;
//! * **capsule** (General / Normalized, detectable): the runtime absorbs every
//!   crash and the operation completes with its exact result;
//! * **LogQueue** (detectable): the driver runs the log's recovery protocol.
//!
//! After every replay the engine drains the structure (bounded by the most
//! elements the replay could leave behind, so a cyclic chain fails instead of
//! hanging) and checks an oracle over the full observable history — every
//! operation's return value plus the final contents — against one sequential
//! model of the variant's [`Shape`] (FIFO, LIFO or set):
//!
//! * **exactly-once** for the detectable variants: the history must be
//!   *identical* to the crash-free run's, at every crash point — crashes must
//!   be invisible;
//! * **durable linearizability** for the Izraelevitz variants: an interrupted
//!   operation may or may not have taken effect, so the oracle accepts a
//!   history iff it is consistent with some choice of applied/not-applied for
//!   each interrupted operation.
//!
//! This is the verification discipline of kaist-cp/memento's per-crash-point
//! detectability checks, applied to every variant in the workspace through one
//! engine. The engine machinery (baseline, fan-out, report assembly, the
//! oracle) lives in [`crate::sweep`].
//!
//! ## Interleaved sweeps: (schedule × crash point)
//!
//! [`sweep_interleaved`] extends the enumeration with a second axis: a
//! deterministic cooperative interleaving of 2–4 worker processes driving
//! *one shared structure* under [`pmem::ThreadScheduler`]. Each scheduler seed
//! picks a distinct instruction-level interleaving (reproducible bit-for-bit
//! from the seed), a victim pid sweeps every crash point of its scheduled
//! window, and the oracle generalizes from "identical to the crash-free
//! history" to "consistent with *some* valid linearization of the concurrent
//! history" ([`sweep::check_linearizable`]), with timestamps taken from the
//! scheduler's global instruction clock.
//!
//! [`matrix`] lists the sweeps the `dfck` binary runs, in row order.

use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use capsules::{BoundaryStyle, CapsuleMetrics, CapsuleRuntime, ContentionMeasure};
use pmem::{
    catch_crash, CrashPlan, MemConfig, Mode, PMem, PThread, SchedConfig, ThreadOptions,
    ThreadScheduler,
};
use queues::{
    Durability, GeneralQueue, GeneralQueueHandle, LogQueue, LogQueueHandle, MsQueue, MsqHandle,
    NormalizedQueue, NormalizedQueueHandle, QueueHandle, RecoveredOp,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use structs::api::Drain;
use structs::{
    DetMap, DetMapHandle, GeneralDetMap, GeneralSet, GeneralStack, ListSet, ListSetHandle,
    MapConfig, NormalizedDetMap, NormalizedSet, NormalizedStack, StructHandle, StructOp,
    TreiberStack, TreiberStackHandle,
};

use crate::sweep::{self, OpOutcome, ReplayRecord, TimedOp, TurnGate};

/// Every swept variant: each queue recovery discipline (plus the
/// hand-optimised capsule configurations, whose compact single-copy frames
/// have their own flush-ordering obligations), and each structure shape as
/// Izraelevitz flush-everything (durable, not detectable), General capsules
/// and the Normalized simulator (both detectable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// MSQ + Izraelevitz construction: durably linearizable, *not* detectable.
    IzraelevitzMsq,
    /// The CAS-Read (General) transformation: detectable via capsules.
    General,
    /// General with compact frames (the paper's General-Opt configuration).
    GeneralOpt,
    /// The Normalized transformation: detectable via capsules.
    Normalized,
    /// Normalized with compact frames (Normalized-Opt); like Normalized, its
    /// single-entry CAS lists ride in the capsule frame.
    NormalizedOpt,
    /// Friedman et al.'s LogQueue: detectable via its operation log.
    LogQueue,
    /// Treiber stack + Izraelevitz construction.
    StackIzraelevitz,
    /// Treiber stack through the CAS-Read (General) transformation.
    StackGeneral,
    /// Treiber stack through the Persistent Normalized Simulator.
    StackNormalized,
    /// Harris–Michael list set + Izraelevitz construction.
    SetIzraelevitz,
    /// List set through the CAS-Read (General) transformation.
    SetGeneral,
    /// List set through the Persistent Normalized Simulator.
    SetNormalized,
    /// Bucketed hash map + Izraelevitz construction.
    MapIzraelevitz,
    /// Hash map through the CAS-Read (General) transformation.
    MapGeneral,
    /// Hash map through the Persistent Normalized Simulator.
    MapNormalized,
}

/// The sequential shape a variant implements, which picks its oracle model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// A FIFO queue (`Enqueue` / `Dequeue`).
    Fifo,
    /// A LIFO stack (`Push` / `Pop`).
    Lifo,
    /// A set (`Insert` / `Remove` / `Contains`). The maps share this shape;
    /// they are swept on [`MapConfig::tiny`] so the crash window crosses the
    /// resize protocol.
    Set,
}

impl Variant {
    /// Short label for tables and JSON rows.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::IzraelevitzMsq => "MSQ-Izraelevitz",
            Variant::General => "General",
            Variant::GeneralOpt => "General-Opt",
            Variant::Normalized => "Normalized",
            Variant::NormalizedOpt => "Normalized-Opt",
            Variant::LogQueue => "LogQueue",
            Variant::StackIzraelevitz => "Stack-Izraelevitz",
            Variant::StackGeneral => "Stack-General",
            Variant::StackNormalized => "Stack-Normalized",
            Variant::SetIzraelevitz => "Set-Izraelevitz",
            Variant::SetGeneral => "Set-General",
            Variant::SetNormalized => "Set-Normalized",
            Variant::MapIzraelevitz => "Map-Izraelevitz",
            Variant::MapGeneral => "Map-General",
            Variant::MapNormalized => "Map-Normalized",
        }
    }

    /// Every swept variant, queues first, in matrix order.
    pub fn all() -> [Variant; 15] {
        [
            Variant::IzraelevitzMsq,
            Variant::General,
            Variant::GeneralOpt,
            Variant::Normalized,
            Variant::NormalizedOpt,
            Variant::LogQueue,
            Variant::StackIzraelevitz,
            Variant::StackGeneral,
            Variant::StackNormalized,
            Variant::SetIzraelevitz,
            Variant::SetGeneral,
            Variant::SetNormalized,
            Variant::MapIzraelevitz,
            Variant::MapGeneral,
            Variant::MapNormalized,
        ]
    }

    /// The variant whose [`label`](Variant::label) is `label`, if any.
    pub fn from_label(label: &str) -> Option<Variant> {
        Variant::all().into_iter().find(|v| v.label() == label)
    }

    /// Whether the variant guarantees exactly-once (detectable) semantics, i.e.
    /// whether the strict oracle applies.
    pub fn detectable(&self) -> bool {
        !matches!(
            self,
            Variant::IzraelevitzMsq
                | Variant::StackIzraelevitz
                | Variant::SetIzraelevitz
                | Variant::MapIzraelevitz
        )
    }

    /// Whether the variant has a contention-adaptive fast path (the four
    /// capsule queues). Only these get the extra slow-path-pinned sweep
    /// rows — the fast path is the default, so the simulator-only route
    /// would otherwise lose single-threaded crash coverage.
    pub fn adaptive_capable(&self) -> bool {
        matches!(
            self,
            Variant::General | Variant::GeneralOpt | Variant::Normalized | Variant::NormalizedOpt
        )
    }

    /// The variant's sequential shape.
    pub fn shape(&self) -> Shape {
        match self {
            Variant::IzraelevitzMsq
            | Variant::General
            | Variant::GeneralOpt
            | Variant::Normalized
            | Variant::NormalizedOpt
            | Variant::LogQueue => Shape::Fifo,
            Variant::StackIzraelevitz | Variant::StackGeneral | Variant::StackNormalized => {
                Shape::Lifo
            }
            _ => Shape::Set,
        }
    }

    /// The non-detectable variants run with the Izraelevitz construction
    /// (flush after every shared access).
    fn thread_options(&self) -> ThreadOptions {
        ThreadOptions {
            izraelevitz: !self.detectable(),
        }
    }
}

impl Shape {
    /// The operation that adds `v` to a structure of this shape (prefills
    /// use it).
    fn add(self, v: u64) -> StructOp {
        match self {
            Shape::Fifo => StructOp::Enqueue(v),
            Shape::Lifo => StructOp::Push(v),
            Shape::Set => StructOp::Insert(v),
        }
    }
}

/// Whether `op` can leave an element behind (counted by the drain bounds).
fn adds(op: &StructOp) -> bool {
    matches!(
        op,
        StructOp::Enqueue(_) | StructOp::Push(_) | StructOp::Insert(_)
    )
}

/// A deterministic workload: prefilled contents plus a fixed operation
/// sequence of one [`Shape`].
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name used in reports ("pair", "multi", "map-resize", …).
    pub name: &'static str,
    /// The shape every operation (and the prefill) belongs to.
    pub shape: Shape,
    /// Contents before the swept window: queue values enqueued in order,
    /// stack values pushed bottom-up, or distinct set keys.
    pub prefill: Vec<u64>,
    /// The operations executed inside the swept window.
    pub ops: Vec<StructOp>,
    /// Whether the replayed queues keep their contention-adaptive fast path
    /// (the default). [`Workload::slow_path`] pins it off so the matrix
    /// retains dedicated simulator-route crash coverage — an uncontended
    /// adaptive replay never demotes, so without these rows the slow path
    /// would only ever be crashed through interleaved sweeps.
    pub adaptive: bool,
}

impl Workload {
    /// The canonical pair of a shape: on a lightly prefilled structure, one
    /// enqueue + one dequeue (so the dequeue hits a non-trivial head), one
    /// push + one pop, or one insert that lands mid-list plus one remove of a
    /// prefilled key (both protocol paths, link CAS and mark + unlink).
    pub fn pair(shape: Shape) -> Workload {
        let (prefill, ops) = match shape {
            Shape::Fifo => (
                (0..4).map(|i| 10_000 + i).collect(),
                vec![StructOp::Enqueue(1), StructOp::Dequeue],
            ),
            Shape::Lifo => (
                (0..4).map(|i| 10_000 + i).collect(),
                vec![StructOp::Push(1), StructOp::Pop],
            ),
            Shape::Set => (
                vec![10, 20, 30],
                vec![StructOp::Insert(15), StructOp::Remove(20)],
            ),
        };
        Workload {
            name: "pair",
            shape,
            prefill,
            ops,
            adaptive: true,
        }
    }

    /// The pair workload the matrix sweeps on `variant`: its shape's pair, or
    /// for the maps the same membership paths as the set pair *plus* a
    /// bucket-array resize inside the swept window — map replays build with
    /// [`MapConfig::tiny`] (2 buckets, `max_chain` 3), so the sixth insert's
    /// trigger fires mid-window and every crash point of the
    /// freeze/copy/promote migration is enumerated.
    pub fn pair_for(variant: Variant) -> Workload {
        match variant {
            Variant::MapIzraelevitz | Variant::MapGeneral | Variant::MapNormalized => Workload {
                name: "map-resize",
                shape: Shape::Set,
                prefill: vec![10, 20, 30],
                ops: vec![
                    StructOp::Insert(15),
                    StructOp::Insert(25),
                    StructOp::Insert(15),
                    StructOp::Remove(10),
                    StructOp::Contains(15),
                    StructOp::Remove(99),
                ],
                adaptive: true,
            },
            _ => Workload::pair(variant.shape()),
        }
    }

    /// A seeded multi-op workload: `nops` operations drawn from a
    /// reproducible RNG. `seeded(shape, seed, n)` is
    /// `seeded_full(shape, seed, n, 3, 0)`.
    pub fn seeded(shape: Shape, seed: u64, nops: usize) -> Workload {
        Workload::seeded_full(shape, seed, nops, 3, 0)
    }

    /// The fully parameterised seeded workload generator (the surface the
    /// property-based tests sample), offset by `base` so distinct property
    /// cases produce disjoint value ranges.
    ///
    /// Queues and stacks: each operation is independently an add of a fresh
    /// value or a remove, on `prefill` prefilled values. Sets: keys are drawn
    /// from a small range around `base` (every other key prefilled) so
    /// inserts, removes and membership tests all hit both their *true* and
    /// *false* paths.
    pub fn seeded_full(
        shape: Shape,
        seed: u64,
        nops: usize,
        prefill: usize,
        base: u64,
    ) -> Workload {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (prefill, ops) = if shape == Shape::Set {
            let span = (2 * prefill as u64 + 4).max(6);
            let ops = (0..nops)
                .map(|_| {
                    let k = base + rng.gen_range(0..span);
                    match rng.gen_range(0..3u64) {
                        0 => StructOp::Insert(k),
                        1 => StructOp::Remove(k),
                        _ => StructOp::Contains(k),
                    }
                })
                .collect();
            ((0..prefill as u64).map(|i| base + 2 * i).collect(), ops)
        } else {
            let mut next_value = base + 1;
            let ops = (0..nops)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        let v = next_value;
                        next_value += 1;
                        shape.add(v)
                    } else if shape == Shape::Fifo {
                        StructOp::Dequeue
                    } else {
                        StructOp::Pop
                    }
                })
                .collect();
            let prefill = (0..prefill as u64).map(|i| base + 10_000 + i).collect();
            (prefill, ops)
        };
        Workload {
            name: "multi",
            shape,
            prefill,
            ops,
            adaptive: true,
        }
    }

    /// Pin the replayed queues to the full simulator (adaptive fast path
    /// off), relabelling the workload so reports and JSON rows stay
    /// distinguishable from their adaptive twins.
    pub fn slow_path(mut self) -> Workload {
        self.adaptive = false;
        self.name = match self.name {
            "pair" => "pair-slow",
            "multi" => "multi-slow",
            other => other,
        };
        self
    }

    /// Upper bound on the elements a replay can leave behind: the prefill
    /// plus every add in the swept window (whether or not it completed — an
    /// interrupted add may still have applied). Draining is bounded by this
    /// figure so a cyclic chain produced by a recovery bug terminates the
    /// replay with an over-long drain (an oracle violation carrying the
    /// offending schedule) instead of hanging the sweep.
    pub fn drain_bound(&self) -> usize {
        self.prefill.len() + self.ops.iter().filter(|op| adds(op)).count()
    }
}

/// A concurrent workload: per-pid operation sequences over one shared
/// structure of one [`Shape`].
#[derive(Clone, Debug)]
pub struct ConcWorkload {
    /// Name used in reports ("conc-pair", "conc-map", …).
    pub name: &'static str,
    /// The shape every operation (and the prefill) belongs to.
    pub shape: Shape,
    /// Contents before the scheduled window starts.
    pub prefill: Vec<u64>,
    /// Per-pid operation sequences; `per_pid.len()` is the process count.
    pub per_pid: Vec<Vec<StructOp>>,
    /// Contention-trip-threshold override for the adaptive capsule variants
    /// (`None` = the production policy). The sensitized demotion sweeps set
    /// this to 1 so *any* lost fast-path CAS demotes the operation, making
    /// the fast→slow demotion boundary deterministically reachable under the
    /// scheduled interleavings.
    pub trip_threshold: Option<u32>,
}

impl ConcWorkload {
    /// The canonical concurrent pair of a shape: every pid enqueues (pushes)
    /// one distinctive value and dequeues (pops) once on a lightly prefilled
    /// structure, or inserts a fresh mid-list key and removes a (for up to 3
    /// pids) prefilled one.
    pub fn pair(shape: Shape, threads: usize) -> ConcWorkload {
        let pids = 0..threads as u64;
        let (prefill, per_pid) = match shape {
            Shape::Fifo => (
                (0..4).map(|i| 10_000 + i).collect(),
                pids.map(|p| vec![StructOp::Enqueue(100 + p), StructOp::Dequeue])
                    .collect(),
            ),
            Shape::Lifo => (
                (0..4).map(|i| 10_000 + i).collect(),
                pids.map(|p| vec![StructOp::Push(100 + p), StructOp::Pop])
                    .collect(),
            ),
            Shape::Set => (
                vec![10, 20, 30],
                pids.map(|p| vec![StructOp::Insert(11 + 2 * p), StructOp::Remove(10 * (p + 1))])
                    .collect(),
            ),
        };
        ConcWorkload {
            name: "conc-pair",
            shape,
            prefill,
            per_pid,
            trip_threshold: None,
        }
    }

    /// The canonical concurrent map workload: distinct inserts per pid on a
    /// [`MapConfig::tiny`] map, so the pids race the resize trigger and the
    /// migration helping paths against each other (and against the scripted
    /// crashes) while the removes exercise tombstoning under contention.
    pub fn map_pair(threads: usize) -> ConcWorkload {
        ConcWorkload {
            name: "conc-map",
            shape: Shape::Set,
            prefill: vec![10, 20, 30],
            per_pid: (0..threads as u64)
                .map(|p| {
                    vec![
                        StructOp::Insert(11 + 2 * p),
                        StructOp::Insert(40 + p),
                        StructOp::Remove(10 * (p + 1)),
                    ]
                })
                .collect(),
            trip_threshold: None,
        }
    }

    /// Sensitize the adaptive capsule variants' contention policy: a trip
    /// threshold of 1 makes every lost fast-path CAS demote its operation,
    /// so the interleaved sweeps crash the demotion boundary rather than
    /// hoping the production streak (2 consecutive losses) ever trips inside
    /// a short scheduled window. Relabels the workload for reports.
    pub fn sensitized(mut self) -> ConcWorkload {
        self.trip_threshold = Some(1);
        self.name = match self.name {
            "conc-pair" => "conc-pair-trip1",
            other => other,
        };
        self
    }

    /// The number of scheduled processes.
    pub fn threads(&self) -> usize {
        self.per_pid.len()
    }

    /// Upper bound on the elements a replay can leave behind (see
    /// [`Workload::drain_bound`]): the prefill plus every add of every pid.
    pub fn drain_bound(&self) -> usize {
        self.prefill.len() + self.per_pid.iter().flatten().filter(|op| adds(op)).count()
    }
}

/// The sequential reference model the oracles run against: a FIFO queue, a
/// LIFO stack or an ordered set.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Model {
    Fifo(VecDeque<u64>),
    Lifo(Vec<u64>),
    Set(BTreeSet<u64>),
}

impl Model {
    fn initial(shape: Shape, prefill: &[u64]) -> Model {
        match shape {
            Shape::Fifo => Model::Fifo(prefill.iter().copied().collect()),
            Shape::Lifo => Model::Lifo(prefill.to_vec()),
            Shape::Set => Model::Set(prefill.iter().copied().collect()),
        }
    }
}

impl sweep::SeqModel for Model {
    type Op = StructOp;
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        match (self, op) {
            (Model::Fifo(q), StructOp::Enqueue(v)) => {
                q.push_back(v);
                None
            }
            (Model::Fifo(q), StructOp::Dequeue) => q.pop_front(),
            (Model::Lifo(s), StructOp::Push(v)) => {
                s.push(v);
                None
            }
            (Model::Lifo(s), StructOp::Pop) => s.pop(),
            (Model::Set(s), StructOp::Insert(k)) => Some(s.insert(k) as u64),
            (Model::Set(s), StructOp::Remove(k)) => Some(s.remove(&k) as u64),
            (Model::Set(s), StructOp::Contains(k)) => Some(s.contains(&k) as u64),
            _ => unreachable!("operation does not match the workload shape"),
        }
    }
    fn final_drain(&self) -> Vec<u64> {
        match self {
            Model::Fifo(q) => q.iter().copied().collect(),
            // Stacks drain top-down.
            Model::Lifo(s) => s.iter().rev().copied().collect(),
            // Sets snapshot ascending.
            Model::Set(s) => s.iter().copied().collect(),
        }
    }
}

/// What a replay drives: the uniform [`StructHandle`] alphabet plus the
/// capsule runtime, for the variants that have one (its metrics are the
/// replay's recovery counters; it also takes the crash flavour).
trait SweptHandle<'t, 'm>: StructHandle {
    fn runtime(&mut self) -> Option<&mut CapsuleRuntime<'t, 'm>> {
        None
    }
}

/// Gives a queue handle the `Enqueue` / `Dequeue` half of [`StructOp`].
struct QueueOps<H>(H);

impl<H: QueueHandle> StructHandle for QueueOps<H> {
    fn apply(&mut self, op: StructOp) -> Option<u64> {
        match op {
            StructOp::Enqueue(v) => {
                self.0.enqueue(v);
                None
            }
            StructOp::Dequeue => self.0.dequeue(),
            other => panic!("queue handle cannot apply {other:?}"),
        }
    }
    fn drain_up_to(&mut self, max: usize) -> Drain {
        let items = self.0.drain_up_to(max);
        Drain {
            truncated: max > 0 && items.len() == max,
            items,
        }
    }
}

impl<'t, 'm> SweptHandle<'t, 'm> for QueueOps<MsqHandle<'_, 't, 'm>> {}
impl<'t, 'm> SweptHandle<'t, 'm> for QueueOps<LogQueueHandle<'_, 't, 'm>> {}
impl<'t, 'm> SweptHandle<'t, 'm> for TreiberStackHandle<'_, 't, 'm> {}
impl<'t, 'm> SweptHandle<'t, 'm> for ListSetHandle<'_, 't, 'm> {}
impl<'t, 'm> SweptHandle<'t, 'm> for DetMapHandle<'_, 't, 'm> {}

impl<'t, 'm> SweptHandle<'t, 'm> for QueueOps<GeneralQueueHandle<'_, 't, 'm>> {
    fn runtime(&mut self) -> Option<&mut CapsuleRuntime<'t, 'm>> {
        Some(self.0.runtime_mut())
    }
}

impl<'t, 'm> SweptHandle<'t, 'm> for QueueOps<NormalizedQueueHandle<'_, 't, 'm>> {
    fn runtime(&mut self) -> Option<&mut CapsuleRuntime<'t, 'm>> {
        Some(self.0.runtime_mut())
    }
}

macro_rules! capsule_handles {
    ($($ty:ident),*) => {$(
        impl<'t, 'm> SweptHandle<'t, 'm> for structs::$ty<'_, 't, 'm> {
            fn runtime(&mut self) -> Option<&mut CapsuleRuntime<'t, 'm>> {
                Some(self.runtime_mut())
            }
        }
    )*};
}

capsule_handles!(
    GeneralStackHandle,
    NormalizedStackHandle,
    GeneralSetHandle,
    NormalizedSetHandle,
    GeneralDetMapHandle,
    NormalizedDetMapHandle
);

/// One constructed structure of any variant.
enum Built {
    Msq(MsQueue),
    GeneralQueue(GeneralQueue),
    NormalizedQueue(NormalizedQueue),
    LogQueue(LogQueue),
    Treiber(TreiberStack),
    GeneralStack(GeneralStack),
    NormalizedStack(NormalizedStack),
    ListSet(ListSet),
    GeneralSet(GeneralSet),
    NormalizedSet(NormalizedSet),
    DetMap(DetMap),
    GeneralMap(GeneralDetMap),
    NormalizedMap(NormalizedDetMap),
}

/// How a variant's driver turns a crash into an outcome — the only real
/// difference between variants (see the module docs).
#[derive(Clone, Copy)]
enum DriverKind<'a> {
    Izraelevitz,
    Capsule,
    Log(&'a LogQueue),
}

impl Built {
    /// Build `variant` for `nprocs` processes from `t`. `adaptive` pins the
    /// capsule queues' fast path off when false (`slow_path` workloads);
    /// otherwise they keep the `DF_ADAPTIVE` default, so the default matrix
    /// crashes the fast path. `trip_threshold` sensitizes their contention
    /// policy.
    fn new(
        variant: Variant,
        t: &PThread<'_>,
        nprocs: usize,
        adaptive: bool,
        trip_threshold: Option<u32>,
    ) -> Built {
        let adaptive = adaptive && capsules::adaptive_enabled();
        let contention = trip_threshold.map(|th| ContentionMeasure::new().with_threshold(th));
        match variant {
            Variant::IzraelevitzMsq => Built::Msq(MsQueue::new(t)),
            Variant::General | Variant::GeneralOpt => {
                let style = if variant == Variant::GeneralOpt {
                    BoundaryStyle::Compact
                } else {
                    BoundaryStyle::General
                };
                let mut q =
                    GeneralQueue::new(t, nprocs, Durability::Manual, style).with_adaptive(adaptive);
                if let Some(policy) = contention {
                    q = q.with_contention(policy);
                }
                Built::GeneralQueue(q)
            }
            Variant::Normalized | Variant::NormalizedOpt => {
                let optimised = variant == Variant::NormalizedOpt;
                let mut q = NormalizedQueue::new(t, nprocs, Durability::Manual, optimised)
                    .with_adaptive(adaptive);
                if let Some(policy) = contention {
                    q = q.with_contention(policy);
                }
                Built::NormalizedQueue(q)
            }
            Variant::LogQueue => Built::LogQueue(LogQueue::new(t, nprocs)),
            Variant::StackIzraelevitz => Built::Treiber(TreiberStack::new(t)),
            Variant::StackGeneral => {
                Built::GeneralStack(GeneralStack::new(t, nprocs, true, BoundaryStyle::General))
            }
            Variant::StackNormalized => {
                Built::NormalizedStack(NormalizedStack::new(t, nprocs, true, false))
            }
            Variant::SetIzraelevitz => Built::ListSet(ListSet::new(t)),
            Variant::SetGeneral => {
                Built::GeneralSet(GeneralSet::new(t, nprocs, true, BoundaryStyle::General))
            }
            Variant::SetNormalized => {
                Built::NormalizedSet(NormalizedSet::new(t, nprocs, true, false))
            }
            Variant::MapIzraelevitz => Built::DetMap(DetMap::new(t, MapConfig::tiny())),
            Variant::MapGeneral => Built::GeneralMap(GeneralDetMap::new(
                t,
                nprocs,
                MapConfig::tiny(),
                true,
                BoundaryStyle::General,
            )),
            Variant::MapNormalized => Built::NormalizedMap(NormalizedDetMap::new(
                t,
                nprocs,
                MapConfig::tiny(),
                true,
                false,
            )),
        }
    }

    /// A fresh per-thread handle.
    fn handle<'a, 'm>(&'a self, t: &'a PThread<'m>) -> Box<dyn SweptHandle<'a, 'm> + 'a> {
        match self {
            Built::Msq(q) => Box::new(QueueOps(q.handle(t))),
            Built::GeneralQueue(q) => Box::new(QueueOps(q.handle(t))),
            Built::NormalizedQueue(q) => Box::new(QueueOps(q.handle(t))),
            Built::LogQueue(q) => Box::new(QueueOps(q.handle(t))),
            Built::Treiber(s) => Box::new(s.handle(t)),
            Built::GeneralStack(s) => Box::new(s.handle(t)),
            Built::NormalizedStack(s) => Box::new(s.handle(t)),
            Built::ListSet(s) => Box::new(s.handle(t)),
            Built::GeneralSet(s) => Box::new(s.handle(t)),
            Built::NormalizedSet(s) => Box::new(s.handle(t)),
            Built::DetMap(m) => Box::new(m.handle(t)),
            Built::GeneralMap(m) => Box::new(m.handle(t)),
            Built::NormalizedMap(m) => Box::new(m.handle(t)),
        }
    }

    fn driver_kind(&self) -> DriverKind<'_> {
        match self {
            Built::Msq(_) | Built::Treiber(_) | Built::ListSet(_) | Built::DetMap(_) => {
                DriverKind::Izraelevitz
            }
            Built::LogQueue(q) => DriverKind::Log(q),
            _ => DriverKind::Capsule,
        }
    }
}

/// Run one operation through the LogQueue's detectable-recovery protocol
/// (documented on `LogQueue::logged_seq`), retrying through crashes — nested
/// ones included — until the operation's exact result is known. Crashes are
/// applied kill-aware via [`sweep::apply_driver_crash`].
fn log_queue_op<H: StructHandle + ?Sized>(
    q: &LogQueue,
    t: &PThread<'_>,
    h: &mut H,
    op: StructOp,
    system: bool,
    recoveries: &Cell<u64>,
    recovery_crashes: &Cell<u64>,
) -> Option<u64> {
    // Single site for the per-crash bookkeeping (stats, machine fault flag)
    // so every catch in the driver accounts identically.
    let crashed = |during_recovery: bool| {
        if during_recovery {
            recovery_crashes.set(recovery_crashes.get() + 1);
        }
        sweep::apply_driver_crash(t, system);
    };
    // The restart/recovery code itself executes simulated instructions, so a
    // (nested) crash can land inside it too. Every read-only step of the
    // driver protocol is therefore retried until it completes — safe because
    // those steps never write.
    let read_only = |f: &dyn Fn() -> u64, during_recovery: bool| loop {
        match catch_crash(f) {
            Ok(v) => break v,
            Err(_) => {
                crashed(during_recovery);
                // Restarting the protocol read is itself the recovery action
                // for a crash that lands between operations.
                recoveries.set(recoveries.get() + 1);
            }
        }
    };
    loop {
        let seq_before = read_only(&|| q.logged_seq(t), false);
        match catch_crash(|| h.apply(op)) {
            Ok(ret) => break ret,
            Err(_) => {
                crashed(false);
                // Recovery itself passes crash points; a nested schedule
                // element may interrupt it. Recovery only reads, so retrying
                // from scratch is safe.
                let verdict = loop {
                    match catch_crash(|| q.recover(t)) {
                        Ok(v) => break v,
                        Err(_) => crashed(true),
                    }
                };
                recoveries.set(recoveries.get() + 1);
                if read_only(&|| q.logged_seq(t), true) == seq_before {
                    // log_begin never completed: the queue is untouched;
                    // re-run the operation from scratch.
                    continue;
                }
                match verdict {
                    RecoveredOp::None => {
                        // The log entry is marked done: the operation
                        // completed before the crash.
                        break match op {
                            StructOp::Dequeue => loop {
                                match catch_crash(|| q.logged_result(t)) {
                                    Ok(r) => break r,
                                    Err(_) => crashed(true),
                                }
                            },
                            _ => None,
                        };
                    }
                    RecoveredOp::EnqueueApplied => break None,
                    RecoveredOp::DequeueApplied(v) => break Some(v),
                    RecoveredOp::EnqueueNotApplied | RecoveredOp::DequeueNotApplied => continue,
                }
            }
        }
    }
}

/// One process's replay driver: its handle plus its variant's
/// [`DriverKind`] and recovery bookkeeping.
struct Driver<'a, 'm> {
    t: &'a PThread<'m>,
    h: Box<dyn SweptHandle<'a, 'm> + 'a>,
    kind: DriverKind<'a>,
    system: bool,
    /// LogQueue recovery passes and crashes inside them.
    recoveries: Cell<u64>,
    recovery_crashes: Cell<u64>,
    /// Capsule-runtime counters at the start of the window.
    before: CapsuleMetrics,
}

impl<'a, 'm> Driver<'a, 'm> {
    /// A fresh handle on `built`, with the capsule runtime (if any) set to
    /// the replay's crash flavour.
    fn new(built: &'a Built, t: &'a PThread<'m>, system: bool) -> Driver<'a, 'm> {
        let mut h = built.handle(t);
        if let Some(rt) = h.runtime() {
            rt.set_system_crashes(system);
        }
        Driver {
            t,
            h,
            kind: built.driver_kind(),
            system,
            recoveries: Cell::new(0),
            recovery_crashes: Cell::new(0),
            before: CapsuleMetrics::default(),
        }
    }

    fn metrics(&mut self) -> CapsuleMetrics {
        self.h.runtime().map(|rt| rt.metrics()).unwrap_or_default()
    }

    /// Start the measured window: later [`Driver::counters`] are relative to
    /// this point.
    fn start(&mut self) {
        self.before = self.metrics();
    }

    fn run(&mut self, op: StructOp) -> OpOutcome {
        match self.kind {
            // No recovery protocol: a crash unwinds to here, and the process
            // cannot tell whether the interrupted operation took effect (that
            // is the point of Figure 5's comparison). Record the ambiguity
            // for the oracle and move on.
            DriverKind::Izraelevitz => match catch_crash(|| self.h.apply(op)) {
                Ok(ret) => OpOutcome::Completed(ret),
                Err(_) => {
                    sweep::apply_driver_crash(self.t, self.system);
                    OpOutcome::Interrupted
                }
            },
            // The capsule runtime absorbs every crash inside `run_op`: the
            // operation completes with its exact result no matter where the
            // schedule fires. That completion *is* the detectability claim
            // the oracle then verifies.
            DriverKind::Capsule => OpOutcome::Completed(self.h.apply(op)),
            DriverKind::Log(q) => OpOutcome::Completed(log_queue_op(
                q,
                self.t,
                &mut *self.h,
                op,
                self.system,
                &self.recoveries,
                &self.recovery_crashes,
            )),
        }
    }

    /// The window's recovery counters: the capsule runtime's deltas since
    /// [`Driver::start`] plus the LogQueue protocol's own passes (each kind
    /// contributes zero to the other's).
    fn counters(&mut self) -> CapsuleMetrics {
        let (now, before) = (self.metrics(), self.before);
        CapsuleMetrics {
            recoveries: now.recoveries - before.recoveries + self.recoveries.get(),
            entry_retries: now.entry_retries - before.entry_retries,
            recovery_crashes: now.recovery_crashes - before.recovery_crashes
                + self.recovery_crashes.get(),
            fast_ops: now.fast_ops - before.fast_ops,
            demotions: now.demotions - before.demotions,
            ..CapsuleMetrics::default()
        }
    }
}

/// Run one replay of `workload` on `variant` with the given crash script
/// (a disarmed/empty plan ⇒ crash-free baseline). `system` selects full-system
/// crash semantics (see [`sweep::apply_driver_crash`] and [`sweep`]).
///
/// Every replay runs with the [`pmem::FlushAuditor`] armed: on top of the
/// history oracle, any flush-ordering violation is caught *at the faulting
/// instruction* and reported with the replay (all swept variants claim a
/// complete flush discipline, so the auditor must stay silent).
pub(crate) fn replay(
    variant: Variant,
    workload: &Workload,
    plan: &CrashPlan,
    system: bool,
) -> ReplayRecord {
    assert_eq!(
        variant.shape(),
        workload.shape,
        "workload shape must match the variant"
    );
    pmem::install_quiet_crash_hook();
    let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
    mem.flush_auditor().arm();
    // The happens-before analyzer rides every replay too (handles created
    // below pick the armed bit up at construction): every crash point is also
    // checked for synchronization- and persist-order discipline.
    mem.hb().arm();
    // Every drain below is bounded: `bound + 1` elements is enough to prove a
    // corrupted (cyclic) chain without ever spinning on it.
    let bound = workload.drain_bound();
    let t = mem.thread_with(0, variant.thread_options());
    let built = Built::new(variant, &t, 1, workload.adaptive, None);
    let mut d = Driver::new(&built, &t, system);
    for &v in &workload.prefill {
        let _ = d.h.apply(workload.shape.add(v));
    }
    mem.persist_everything();
    d.start();
    let _ = t.take_stats();
    if plan.remaining() > 0 {
        t.set_crash_schedule(plan.clone());
    }
    let outcomes = workload.ops.iter().map(|&op| d.run(op)).collect();
    let window = t.stats();
    t.disarm_crashes();
    // `truncated` covers the marked-node-cycle case, where a set walk hits
    // the node cap without collecting an over-long key list.
    let drained = d.h.drain_up_to(bound + 1);
    let c = d.counters();
    ReplayRecord {
        outcomes,
        drain_overflow: drained.truncated || drained.items.len() > bound,
        drained: drained.items,
        crash_points: window.crash_points,
        crashes: window.crashes,
        recoveries: c.recoveries,
        entry_retries: c.entry_retries,
        recovery_crashes: c.recovery_crashes,
        fast_ops: c.fast_ops,
        demotions: c.demotions,
        audit_flags: mem.flush_auditor().flags(),
        audit_reports: mem.flush_auditor().take_reports(),
        hb_flags: mem.hb().flags(),
        hb_reports: mem.hb().take_reports(),
    }
}

/// Check one replayed history against the oracle: the shape's sequential
/// model driven through the shared forked-model checker
/// ([`sweep::check_sequential`]). For every interrupted operation
/// (non-detectable variants only) the model forks into "applied" and "not
/// applied" branches, and the replay passes iff at least one branch
/// reproduces every completed operation's return value *and* the final
/// drained contents.
pub(crate) fn check_history(workload: &Workload, r: &ReplayRecord) -> Result<(), String> {
    if r.drain_overflow {
        return Err(format!(
            "drain returned {} elements but at most {} could have survived the \
             replay — corrupted (cyclic?) chain",
            r.drained.len(),
            workload.drain_bound()
        ));
    }
    sweep::check_sequential(
        Model::initial(workload.shape, &workload.prefill),
        &workload.ops,
        &r.outcomes,
        &r.drained,
    )
}

/// Sweep every crash point of `workload` on `variant` with per-process crash
/// semantics (the PPM model of §2.1: the thread's volatile state is lost, the
/// shared cache survives) — the crash flavour the paper's detectability
/// theorems quantify over.
///
/// `nested_gap = None` injects exactly one crash per replay (at point `k`);
/// `Some(gap)` injects a second crash `gap` crash points after the first, which
/// for `gap` near zero lands inside the recovery triggered by the first crash —
/// the crash-during-recovery schedules of the Definition 2.2 argument.
pub fn sweep(variant: Variant, workload: &Workload, nested_gap: Option<u64>) -> sweep::Report {
    let nested: Vec<u64> = nested_gap.into_iter().collect();
    sweep_plan(variant, workload, &nested, false)
}

/// Like [`sweep`] but with *full-system* crashes: every injected crash also
/// rolls unflushed cache lines back to their durable contents, so the sweep
/// additionally verifies the variant's flush placement. Sound for every
/// variant since the recoverable-CAS layer adopted the durable-announcement
/// flush discipline ([`rcas::RcasSpace::with_durability`], DESIGN.md §7) —
/// before that, the capsule variants failed exactly here (a rollback zeroed
/// published-but-unflushed announcement state and `check_recovery` re-applied
/// the CAS, duplicating an element).
pub fn sweep_system(
    variant: Variant,
    workload: &Workload,
    nested_gap: Option<u64>,
) -> sweep::Report {
    let nested: Vec<u64> = nested_gap.into_iter().collect();
    sweep_plan(variant, workload, &nested, true)
}

/// The general sweep entry point: replay once per crash point `k`, each replay
/// running the scripted schedule `[k, nested[0], nested[1], …]` — so `nested =
/// [m]` is the crash-during-recovery sweep and `nested = [m, n]` the depth-2
/// crash-during-recovery-of-recovery sweep. `system` selects full-system crash
/// semantics (every crash also rolls unflushed cache lines back).
///
/// The per-`k` replays are independent (each builds a fresh machine), so the
/// sweep fans them out across OS threads — `DF_DFCK_THREADS` bounds the worker
/// count (default: `available_parallelism`, capped at 8). Results are merged in
/// `k` order, so reports are deterministic regardless of the worker count.
pub fn sweep_plan(
    variant: Variant,
    workload: &Workload,
    nested: &[u64],
    system: bool,
) -> sweep::Report {
    sweep_plan_with_workers(variant, workload, nested, system, None)
}

/// [`sweep_plan`] with an explicit worker count (`None` ⇒
/// [`sweep::sweep_workers`]); lets tests compare sequential and parallel runs
/// without racing on the process environment.
pub(crate) fn sweep_plan_with_workers(
    variant: Variant,
    workload: &Workload,
    nested: &[u64],
    system: bool,
    workers_override: Option<usize>,
) -> sweep::Report {
    sweep::run_sweep(
        variant,
        workload.name,
        nested,
        system,
        workers_override,
        |plan| replay(variant, workload, plan, system),
        |r| check_history(workload, r),
    )
}

/// Run one *scheduled* replay: the workload's pids drive one shared structure
/// under the deterministic [`ThreadScheduler`] seeded with `sched_seed`;
/// `plans` assigns each victim/co-victim pid its crash schedule, and
/// full-system crashes kill the scheduled peers through the scheduler. Public
/// so the determinism tests can compare fingerprints and timed histories
/// across runs; sweeps go through [`sweep_interleaved`].
pub fn conc_replay(
    variant: Variant,
    w: &ConcWorkload,
    sched_seed: u64,
    plans: &sweep::VictimPlans,
    system: bool,
) -> sweep::ConcReplayRecord<StructOp> {
    assert_eq!(
        variant.shape(),
        w.shape,
        "workload shape must match the variant"
    );
    pmem::install_quiet_crash_hook();
    let threads = w.threads();
    let victim = plans.victim();
    assert!(plans.max_pid() < threads, "victim pid out of range");
    // Pids 0..threads run the scheduled window; one extra *helper* pid does
    // the prefill and the post-join drain. The helper must not share a pid
    // with any worker: pid-indexed recovery state (the rcas announcement
    // slot, the log row) assumes sequence numbers are unique per pid, and a
    // fresh handle restarts its sequence counter — a worker recovering over a
    // triple installed by a same-pid prefill handle would false-positively
    // conclude its own interrupted CAS already took effect.
    let helper = threads;
    let nprocs = threads + 1;
    let mem = PMem::new(MemConfig::new(nprocs).mode(Mode::SharedCache));
    // Unlike the flush auditor (disarmed below — its reader discipline is
    // single-threaded-only, see the comment), the happens-before analyzer
    // stays armed in scheduled replays: its model is schedule-aware (baton
    // handovers draw no edges, crashes are barriers), so the interleaved
    // sweeps double as race checks over every enumerated interleaving.
    mem.hb().arm();
    // The flush auditor encodes the Izraelevitz flush-before-publish reader
    // discipline, which only cross-pid reads can violate — and every swept
    // variant legitimately departs from it once real concurrency is in play.
    // MSQ and LogQueue publish first and let readers help (the reader
    // flushes). The capsule variants persist the *announcement* lines before
    // the publishing CAS and flush the CAS target afterwards: a peer may read
    // the published-but-unflushed word in that gap, which is safe because the
    // word is its own flush unit — any later persist of that line (the
    // reader's own CAS+flush included) makes the predecessor's value durable
    // with it, and a full-system crash rolls the reader's dependent state back
    // together with it. The single-threaded sweeps (where no cross-pid read
    // exists and the discipline is exact) keep the auditor armed; the
    // scheduled replays disarm it and rely on the linearization oracle plus
    // the /system rollback semantics to catch real durability bugs.
    let opts = variant.thread_options();
    let bound = w.drain_bound();

    // Build and prefill from the helper pid, unscheduled and crash-free, then
    // make the prefill durable so it survives any later rollback.
    let built = {
        let t = mem.thread_with(helper, opts);
        let built = Built::new(variant, &t, nprocs, true, w.trip_threshold);
        let mut h = built.handle(&t);
        for &v in &w.prefill {
            let _ = h.apply(w.shape.add(v));
        }
        drop(h);
        built
    };
    mem.persist_everything();

    struct PidOut {
        history: Vec<TimedOp<StructOp>>,
        crash_points: u64,
        crashes: u64,
        counters: CapsuleMetrics,
    }

    let sched = ThreadScheduler::new(SchedConfig::new(threads, sched_seed));
    let gate = TurnGate::new();
    let outs: Vec<PidOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|pid| {
                let sched = Arc::clone(&sched);
                let (mem, built, gate) = (&mem, &built, &gate);
                let ops: &[StructOp] = &w.per_pid[pid];
                s.spawn(move || {
                    let t = mem.thread_with(pid, opts);
                    gate.wait_for(pid);
                    let mut d = Driver::new(built, &t, system);
                    gate.advance(pid);
                    d.start();
                    let (history, window) =
                        sweep::run_scheduled_window(&t, &sched, pid, plans, ops, |op| d.run(op));
                    PidOut {
                        history,
                        crash_points: window.crash_points,
                        crashes: window.crashes,
                        counters: d.counters(),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scheduled dfck worker panicked"))
            .collect()
    });

    // Drain from a fresh, unscheduled helper-pid handle after every worker
    // joined.
    let drained = {
        let t = mem.thread_with(helper, opts);
        let mut h = built.handle(&t);
        h.drain_up_to(bound + 1)
    };
    let sum = |f: fn(&CapsuleMetrics) -> u64| -> u64 { outs.iter().map(|o| f(&o.counters)).sum() };
    let v = &outs[victim];
    sweep::ConcReplayRecord {
        history: outs
            .iter()
            .flat_map(|o| o.history.iter().copied())
            .collect(),
        drain_overflow: drained.truncated || drained.items.len() > bound,
        drained: drained.items,
        fingerprint: sched.fingerprint(),
        victim_crash_points: v.crash_points,
        victim_crashes: v.crashes,
        covictim_crashes: plans.covictim_pids().map(|p| outs[p].crashes).sum(),
        victim_recovery_actions: v.counters.recoveries + v.counters.entry_retries,
        crashes: outs.iter().map(|o| o.crashes).sum(),
        recoveries: sum(|c| c.recoveries),
        entry_retries: sum(|c| c.entry_retries),
        recovery_crashes: sum(|c| c.recovery_crashes),
        fast_ops: sum(|c| c.fast_ops),
        demotions: sum(|c| c.demotions),
        audit_flags: 0,
        audit_reports: Vec::new(),
        hb_flags: mem.hb().flags(),
        hb_reports: mem.hb().take_reports(),
    }
}

/// The interleaved sweep: enumerate (interleaving seed × crash point) for one
/// variant. For every seed, the crash-free scheduled baseline learns how many
/// crash points the victim pid (`seed % threads`, rotating across the seed
/// set) passes, then every one of them is replayed with the scripted schedule
/// `[k, nested…]` — under per-process (`system = false`) or full-system
/// (`system = true`) crash semantics. Histories are checked with the
/// linearization oracle ([`sweep::check_linearizable`]); detectable variants
/// must additionally complete every operation exactly-once and run a recovery
/// action on the victim for every injected crash.
pub fn sweep_interleaved(
    variant: Variant,
    w: &ConcWorkload,
    seeds: &[u64],
    nested: &[u64],
    system: bool,
) -> sweep::ConcReport {
    sweep_interleaved_with_workers(variant, w, seeds, nested, None, system, None)
}

/// The multi-victim interleaved sweep: like [`sweep_interleaved`], but every
/// scripted replay *also* arms the pid after the victim with the independent
/// single-crash plan [`CrashPlan::once`]`(covictim_gap)` — two pids crash in
/// one scheduled replay, so one pid's recovery (helping, announcement
/// re-reads, frame replay) races a peer that is itself crashing and
/// recovering. The report's `covictim_crashes` counts how often the second
/// schedule actually fired; the engine fails the sweep if it never did.
pub fn sweep_interleaved_multi(
    variant: Variant,
    w: &ConcWorkload,
    seeds: &[u64],
    nested: &[u64],
    covictim_gap: u64,
    system: bool,
) -> sweep::ConcReport {
    sweep_interleaved_with_workers(variant, w, seeds, nested, Some(covictim_gap), system, None)
}

/// [`sweep_interleaved`] with an explicit fan-out worker count (`None` ⇒
/// [`sweep::sweep_workers`]); lets tests compare sequential and parallel runs.
fn sweep_interleaved_with_workers(
    variant: Variant,
    w: &ConcWorkload,
    seeds: &[u64],
    nested: &[u64],
    covictim_gap: Option<u64>,
    system: bool,
    workers_override: Option<usize>,
) -> sweep::ConcReport {
    sweep::run_conc_sweep(
        variant,
        w.name,
        w.threads(),
        seeds,
        nested,
        covictim_gap,
        system,
        workers_override,
        || Model::initial(w.shape, &w.prefill),
        |seed, plans| conc_replay(variant, w, seed, plans, system),
    )
}

/// The knobs that shape the `dfck` binary's matrix (its `DF_DFCK_*`
/// environment, parsed by the binary).
#[derive(Clone, Debug)]
pub struct MatrixParams {
    /// Operations in the seeded multi-op workloads.
    pub multi_ops: usize,
    /// Seed of the multi-op workloads.
    pub seed: u64,
    /// Crash-point gap of the nested (crash-during-recovery) rows.
    pub nested_gap: u64,
    /// Interleaving seeds per concurrent sweep (0 = no interleaved rows).
    pub conc_seeds: u64,
    /// Scheduled worker pids per concurrent replay.
    pub conc_threads: usize,
    /// Co-victim crash gap of the multi-victim (`/mv`) rows.
    pub mv_gap: u64,
    /// Skip the single-threaded rows.
    pub conc_only: bool,
    /// Restrict the interleaved rows to these variants (`None` = all).
    pub conc_variants: Option<Vec<Variant>>,
}

/// One row of the `dfck` matrix: a sweep and its parameters.
#[derive(Clone, Debug)]
pub enum Spec {
    /// A single-threaded crash-point sweep ([`sweep_plan`]).
    Single {
        /// The swept variant.
        variant: Variant,
        /// The workload replayed at every crash point.
        workload: Workload,
        /// Nested crash-schedule gaps (empty = one crash per replay).
        nested: Vec<u64>,
        /// Full-system rather than per-process crashes.
        system: bool,
    },
    /// An interleaved (seed × crash point) sweep ([`sweep_interleaved`], or
    /// [`sweep_interleaved_multi`] with a co-victim gap).
    Interleaved {
        /// The swept variant.
        variant: Variant,
        /// The scheduled workload.
        workload: ConcWorkload,
        /// The interleaving seeds.
        seeds: Vec<u64>,
        /// Nested crash-schedule gaps of the victim.
        nested: Vec<u64>,
        /// Co-victim crash gap (`None` = single victim).
        covictim_gap: Option<u64>,
        /// Full-system rather than per-process crashes.
        system: bool,
    },
}

/// The report of one [`Spec`].
#[derive(Clone, Debug)]
pub enum SpecReport {
    /// From a [`Spec::Single`] row.
    Single(sweep::Report),
    /// From a [`Spec::Interleaved`] row.
    Interleaved(sweep::ConcReport),
}

impl Spec {
    /// The row's display/JSON label: `variant/workload[/tN][/nestedG][/mv][/system]`
    /// (`/tN` on interleaved rows only; `/mv` = multi-victim: a co-victim pid
    /// crashes in the same replay).
    pub fn label(&self) -> String {
        let (mut label, nested, mv, system) = match self {
            Spec::Single {
                variant,
                workload,
                nested,
                system,
            } => (
                format!("{}/{}", variant.label(), workload.name),
                nested,
                false,
                *system,
            ),
            Spec::Interleaved {
                variant,
                workload,
                nested,
                covictim_gap,
                system,
                ..
            } => (
                format!(
                    "{}/{}/t{}",
                    variant.label(),
                    workload.name,
                    workload.threads()
                ),
                nested,
                covictim_gap.is_some(),
                *system,
            ),
        };
        if !nested.is_empty() {
            let gaps: Vec<String> = nested.iter().map(|g| g.to_string()).collect();
            label.push_str(&format!("/nested{}", gaps.join("-")));
        }
        if mv {
            label.push_str("/mv");
        }
        if system {
            label.push_str("/system");
        }
        label
    }

    /// Run the sweep.
    pub fn run(&self) -> SpecReport {
        match self {
            Spec::Single {
                variant,
                workload,
                nested,
                system,
            } => SpecReport::Single(sweep_plan(*variant, workload, nested, *system)),
            Spec::Interleaved {
                variant,
                workload,
                seeds,
                nested,
                covictim_gap,
                system,
            } => SpecReport::Interleaved(sweep_interleaved_with_workers(
                *variant,
                workload,
                seeds,
                nested,
                *covictim_gap,
                *system,
                None,
            )),
        }
    }
}

/// The `dfck` binary's sweep matrix, in row order.
///
/// Single-threaded rows, for every variant: its pair and seeded multi-op
/// workloads, single + nested schedules, each under per-process (PPM) and
/// full-system crashes (every variant's flush discipline is complete,
/// DESIGN.md §7) — plus, for the adaptive capsule queues, slow-path-pinned
/// rows: the fast path is on by default and an uncontended single-threaded
/// replay never demotes, so those rows keep the simulator route's own
/// single-threaded crash coverage.
///
/// Interleaved rows over the scheduled concurrent pair workloads: every queue
/// variant plus the General stack and both detectable maps, single + nested
/// schedules, both crash flavours. The queues add a multi-victim row (one
/// process's recovery races a peer that is itself recovering) and the
/// adaptive ones two sensitized rows (trip threshold 1, so the scheduled
/// contention demotes fast-path operations and the enumeration covers the
/// fast→slow demotion boundary; the production threshold of 2 consecutive
/// lost CASes never trips inside these short windows). A last, wider map row
/// races three pids against the resize trigger while the victim *and* a
/// co-victim crash.
pub fn matrix(p: &MatrixParams) -> Vec<Spec> {
    let mut specs = Vec::new();
    let gap = p.nested_gap;
    if !p.conc_only {
        for variant in Variant::all() {
            let shape = variant.shape();
            let workloads = [
                Workload::pair_for(variant),
                Workload::seeded(shape, p.seed, p.multi_ops),
            ];
            let mut single = |workload: &Workload, nested: Vec<u64>| {
                for system in [false, true] {
                    specs.push(Spec::Single {
                        variant,
                        workload: workload.clone(),
                        nested: nested.clone(),
                        system,
                    });
                }
            };
            for workload in &workloads {
                single(workload, Vec::new());
                single(workload, vec![gap]);
            }
            if variant.adaptive_capable() {
                for workload in &workloads {
                    single(&workload.clone().slow_path(), Vec::new());
                }
            }
        }
    }
    if p.conc_seeds == 0 {
        return specs;
    }
    let seeds: Vec<u64> = (1..=p.conc_seeds).collect();
    let wants = |v: Variant| p.conc_variants.as_ref().map_or(true, |f| f.contains(&v));
    let mut interleaved = |variant: Variant,
                           workload: &ConcWorkload,
                           nested: &[u64],
                           covictim_gap: Option<u64>,
                           system: bool| {
        specs.push(Spec::Interleaved {
            variant,
            workload: workload.clone(),
            seeds: seeds.clone(),
            nested: nested.to_vec(),
            covictim_gap,
            system,
        });
    };
    for variant in Variant::all() {
        let workload = match variant {
            Variant::StackGeneral => ConcWorkload::pair(Shape::Lifo, p.conc_threads),
            Variant::MapGeneral | Variant::MapNormalized => ConcWorkload::map_pair(p.conc_threads),
            v if v.shape() == Shape::Fifo => ConcWorkload::pair(Shape::Fifo, p.conc_threads),
            _ => continue,
        };
        if !wants(variant) {
            continue;
        }
        for nested in [&[] as &[u64], &[gap]] {
            interleaved(variant, &workload, nested, None, false);
            interleaved(variant, &workload, nested, None, true);
        }
        if variant.shape() == Shape::Fifo {
            interleaved(variant, &workload, &[], Some(p.mv_gap), false);
        }
        if variant.adaptive_capable() {
            let sensitized = workload.sensitized();
            interleaved(variant, &sensitized, &[], None, false);
            interleaved(variant, &sensitized, &[], None, true);
        }
    }
    if wants(Variant::MapGeneral) {
        let wide = ConcWorkload::map_pair(p.conc_threads.max(3));
        interleaved(Variant::MapGeneral, &wide, &[], Some(p.mv_gap), false);
    }
    specs
}

/// Unit tests of the sweeper on the queue shape. The structure-shape
/// counterparts live in `crate::dfck_struct::tests` and share the `pub(crate)`
/// helpers below.
#[cfg(test)]
pub(crate) mod tests {

    use super::*;

    pub(crate) fn empty_record(outcomes: Vec<OpOutcome>, drained: Vec<u64>) -> ReplayRecord {
        ReplayRecord {
            outcomes,
            drained,
            drain_overflow: false,
            crash_points: 0,
            crashes: 0,
            recoveries: 0,
            entry_retries: 0,
            recovery_crashes: 0,
            fast_ops: 0,
            demotions: 0,
            audit_flags: 0,
            audit_reports: Vec::new(),
            hb_flags: 0,
            hb_reports: Vec::new(),
        }
    }

    pub(crate) fn crash_free(variant: Variant, w: &Workload) -> ReplayRecord {
        replay(variant, w, &CrashPlan::new(Vec::new()), false)
    }

    /// A slow-path enqueue under a full-system crash that lands between the
    /// E_LINK boundary's flush and its fence — the window where the compact
    /// frame could persist without the node it references. This was a real
    /// flag the analyzer raised against the `-Opt` fence elision (the node
    /// persist preceded a *boundary*, not a CAS); pinned here against the
    /// fixed discipline.
    #[test]
    fn generalopt_slow_path_boundary_crash_runs_hb_clean() {
        let w = Workload::pair(Shape::Fifo).slow_path();
        let r = replay(Variant::GeneralOpt, &w, &CrashPlan::once(15), true);
        assert_eq!(r.hb_flags, 0, "{:?}", r.hb_reports);
    }

    /// A crash-free replay of `variant`'s pair workload passes crash points
    /// and satisfies the oracle.
    pub(crate) fn assert_baseline_pair_history_is_consistent(variant: Variant) {
        let w = Workload::pair_for(variant);
        let r = crash_free(variant, &w);
        assert_eq!(r.crashes, 0);
        assert!(
            r.crash_points > 0,
            "{variant:?}: workload passed no crash points"
        );
        check_history(&w, &r).unwrap();
    }

    #[test]
    fn baseline_pair_history_is_consistent() {
        Variant::all()
            .into_iter()
            .filter(|v| v.shape() == Shape::Fifo)
            .for_each(assert_baseline_pair_history_is_consistent);
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for v in Variant::all() {
            assert_eq!(Variant::from_label(v.label()), Some(v));
        }
        assert_eq!(Variant::from_label("Stack-Generl"), None);
        assert_eq!(Variant::from_label(""), None);
    }

    /// The matrix at the committed parameters plans exactly the rows of the
    /// committed baseline, in order — without running a sweep.
    #[test]
    fn matrix_labels_match_the_committed_baseline() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../benchmarks/BENCH_dfck.json"
        );
        let json = std::fs::read_to_string(path).unwrap();
        let baseline: Vec<&str> = json
            .split("\"variant\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').unwrap()])
            .collect();
        assert!(json.contains(
            "\"params\": {\"multi_ops\": 8, \"seed\": 42, \"nested_gap\": 0, \
             \"conc_seeds\": 8, \"conc_threads\": 2}"
        ));
        let planned: Vec<String> = matrix(&MatrixParams {
            multi_ops: 8,
            seed: 42,
            nested_gap: 0,
            conc_seeds: 8,
            conc_threads: 2,
            mv_gap: 3,
            conc_only: false,
            conc_variants: None,
        })
        .iter()
        .map(Spec::label)
        .collect();
        assert_eq!(baseline.len(), 187);
        assert_eq!(planned, baseline);
    }

    #[test]
    fn oracle_rejects_lost_and_duplicated_elements() {
        let w = Workload::pair(Shape::Fifo);
        let good = crash_free(Variant::General, &w);
        check_history(&w, &good).unwrap();
        // Lost element: drop the first drained value.
        let mut lost = good.clone();
        lost.drained.remove(0);
        assert!(check_history(&w, &lost).is_err());
        // Duplicated element: drain reports a value twice.
        let mut dup = good.clone();
        let v = dup.drained[0];
        dup.drained.insert(0, v);
        assert!(check_history(&w, &dup).is_err());
        // Wrong dequeue return.
        let mut wrong = good.clone();
        for o in &mut wrong.outcomes {
            if let OpOutcome::Completed(Some(v)) = o {
                *v += 1;
            }
        }
        assert!(check_history(&w, &wrong).is_err());
    }

    /// An interrupted add of 42 onto a prefilled 7 may or may not have
    /// applied: both the `applied` final state and the untouched prefill must
    /// be accepted, and the `corrupt` state rejected.
    pub(crate) fn assert_interrupted_add_accepted_either_way(
        shape: Shape,
        applied: Vec<u64>,
        corrupt: Vec<u64>,
    ) {
        let w = Workload {
            name: "ambig",
            shape,
            prefill: vec![7],
            ops: vec![shape.add(42)],
            adaptive: true,
        };
        let interrupted = |drained| empty_record(vec![OpOutcome::Interrupted], drained);
        check_history(&w, &interrupted(applied)).unwrap();
        check_history(&w, &interrupted(vec![7])).unwrap();
        assert!(
            check_history(&w, &interrupted(corrupt)).is_err(),
            "{shape:?}"
        );
    }

    #[test]
    fn oracle_accepts_ambiguous_interrupted_op_either_way() {
        assert_interrupted_add_accepted_either_way(Shape::Fifo, vec![7, 42], vec![42, 7]);
    }

    // The full pair sweeps (single + nested + system, every variant) live in
    // tests/dfck_sweep.rs and tests/dfck_struct_sweep.rs; duplicating the
    // multi-thousand-replay runs here would double the cost of every
    // `cargo test` for identical coverage.

    /// Deterministic regression for the bounded-drain oracle path: an
    /// artificially cycled queue (the shape a buggy recovery could splice)
    /// must terminate the drain at the bound and fail the oracle — never hang.
    #[test]
    fn cyclic_next_chain_is_reported_as_violation_not_hang() {
        use queues::node::next_addr;
        let mem = PMem::new(MemConfig::new(1).mode(Mode::SharedCache));
        let t = mem.thread(0);
        let q = MsQueue::new(&t);
        let mut h = q.handle(&t);
        for v in [1, 2, 3] {
            h.enqueue(v);
        }
        // Walk sentinel -> n1 -> n2 -> n3 and splice n3.next back to n1.
        let sentinel = pmem::PAddr::from_raw(t.read(q.head_addr()));
        let n1 = pmem::PAddr::from_raw(t.read(next_addr(sentinel)));
        let n2 = pmem::PAddr::from_raw(t.read(next_addr(n1)));
        let n3 = pmem::PAddr::from_raw(t.read(next_addr(n2)));
        assert!(!n3.is_null());
        t.write(next_addr(n3), n1.to_raw());
        let w = Workload {
            name: "cycled",
            shape: Shape::Fifo,
            prefill: Vec::new(),
            ops: vec![
                StructOp::Enqueue(1),
                StructOp::Enqueue(2),
                StructOp::Enqueue(3),
            ],
            adaptive: true,
        };
        let bound = w.drain_bound();
        assert_eq!(bound, 3);
        // The bounded drain stops after bound + 1 dequeues despite the cycle…
        let drained = QueueOps(h).drain_up_to(bound + 1);
        assert_eq!(
            drained.items.len(),
            bound + 1,
            "drain must stop at the bound"
        );
        assert!(drained.truncated);
        // …and the oracle rejects the over-long history with the cycle diagnosis.
        let mut r = empty_record(vec![OpOutcome::Completed(None); 3], drained.items);
        r.drain_overflow = true;
        let err = check_history(&w, &r).unwrap_err();
        assert!(err.contains("cyclic"), "diagnosis missing from: {err}");
    }

    #[test]
    fn drain_bound_counts_prefill_plus_enqueues() {
        let w = Workload::pair(Shape::Fifo);
        assert_eq!(w.drain_bound(), w.prefill.len() + 1);
        let all_deq = Workload {
            name: "deq",
            shape: Shape::Fifo,
            prefill: vec![1, 2],
            ops: vec![StructOp::Dequeue, StructOp::Dequeue],
            adaptive: true,
        };
        assert_eq!(all_deq.drain_bound(), 2);
    }

    /// The seeded generator of `shape` is reproducible, seed-sensitive and
    /// draws every one of the shape's `distinct_kinds` op kinds.
    pub(crate) fn assert_seeded_workload_is_reproducible_and_mixed(
        shape: Shape,
        distinct_kinds: usize,
    ) {
        let a = Workload::seeded(shape, 9, 24);
        assert_eq!(a.ops, Workload::seeded(shape, 9, 24).ops, "{shape:?}");
        let kinds: std::collections::HashSet<_> =
            a.ops.iter().map(std::mem::discriminant).collect();
        assert_eq!(
            kinds.len(),
            distinct_kinds,
            "{shape:?}: every op kind drawn"
        );
        assert_ne!(Workload::seeded(shape, 10, 24).ops, a.ops, "{shape:?}");
    }

    #[test]
    fn seeded_workload_is_reproducible_and_mixed() {
        assert_seeded_workload_is_reproducible_and_mixed(Shape::Fifo, 2);
    }

    #[test]
    fn seeded_full_offsets_values_and_prefill() {
        let w = Workload::seeded_full(Shape::Fifo, 9, 12, 5, 1_000_000);
        assert_eq!(w.prefill.len(), 5);
        assert!(w.prefill.iter().all(|&v| v >= 1_000_000));
        assert!(w
            .ops
            .iter()
            .all(|o| !matches!(o, StructOp::Enqueue(v) if *v <= 1_000_000)));
        // Same seed/ops as the plain generator, just shifted ranges.
        assert_eq!(w.ops.len(), Workload::seeded(Shape::Fifo, 9, 12).ops.len());
        // Offsets shift the set keys too, so property cases stay disjoint.
        let shifted = Workload::seeded_full(Shape::Set, 9, 24, 3, 1_000_000);
        assert!(shifted.prefill.iter().all(|&k| k >= 1_000_000));
    }

    /// The fan-out must not change what is verified: run the same sweep of
    /// `variant` with one worker and with several, and compare every
    /// aggregate.
    pub(crate) fn assert_parallel_sweep_matches_sequential(variant: Variant) {
        let w = Workload::pair_for(variant);
        let seq = sweep_plan_with_workers(variant, &w, &[0], false, Some(1));
        let par = sweep_plan_with_workers(variant, &w, &[0], false, Some(4));
        assert_eq!(seq.crash_points, par.crash_points);
        assert_eq!(seq.replays, par.replays);
        assert_eq!(seq.crashes_injected, par.crashes_injected);
        assert_eq!(seq.recoveries, par.recoveries);
        assert_eq!(seq.entry_retries, par.entry_retries);
        assert_eq!(seq.recovery_crashes, par.recovery_crashes);
        assert_eq!(seq.audit_flags, par.audit_flags);
        assert_eq!(seq.hb_flags, par.hb_flags);
        assert_eq!(seq.violations, par.violations);
        assert!(seq.passed(), "{variant:?}");
    }

    #[test]
    fn parallel_sweep_matches_sequential_sweep() {
        assert_parallel_sweep_matches_sequential(Variant::General);
    }

    #[test]
    fn opt_variants_are_swept_and_pass_the_pair_sweep() {
        for variant in [Variant::GeneralOpt, Variant::NormalizedOpt] {
            let report = sweep(variant, &Workload::pair(Shape::Fifo), None);
            assert!(report.passed(), "{variant:?}: {:?}", report.violations);
            assert!(report.crash_points > 0);
        }
    }

    #[test]
    fn conc_workload_generators_are_sane() {
        let pair = ConcWorkload::pair(Shape::Fifo, 3);
        assert_eq!(pair.threads(), 3);
        assert_eq!(pair.drain_bound(), 4 + 3);
    }

    #[test]
    fn parallel_interleaved_sweep_matches_sequential_sweep() {
        // Same discipline as the sequential sweeps, under the new
        // (seed × crash point) dimension: the fan-out worker count must not
        // change any aggregate of the merged report.
        let w = ConcWorkload::pair(Shape::Fifo, 2);
        let seeds = [1, 2];
        let run = |workers| {
            sweep_interleaved_with_workers(Variant::General, &w, &seeds, &[], None, false, workers)
        };
        let (seq, par) = (run(Some(1)), run(Some(4)));
        assert_eq!(seq.crash_points, par.crash_points);
        assert_eq!(seq.replays, par.replays);
        assert_eq!(seq.crashes_injected, par.crashes_injected);
        assert_eq!(seq.recoveries, par.recoveries);
        assert_eq!(seq.entry_retries, par.entry_retries);
        assert_eq!(seq.recovery_crashes, par.recovery_crashes);
        assert_eq!(seq.audit_flags, par.audit_flags);
        assert_eq!(seq.hb_flags, par.hb_flags);
        assert_eq!(seq.distinct_interleavings, par.distinct_interleavings);
        assert_eq!(seq.violations, par.violations);
        assert!(seq.passed(), "{:?}", seq.violations);
    }
}
