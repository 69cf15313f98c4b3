//! Fault-tolerant supervised ingestion: checkpoint-replay recovery over
//! the sharded engine.
//!
//! [`SupervisedIngest`] is the one path by which an iterator reaches
//! [`ShardedIngest`]'s shards (a slice takes the zero-copy
//! [`ShardedIngest::run`]). Its supervisor keeps a run alive through shard
//! faults instead of letting one bad worker abort the whole ingestion:
//!
//! * **Checkpointing** — every shard serialises its summary through the
//!   snapshot codec each [`checkpoint interval`](SupervisedIngest::with_checkpoint_interval)
//!   ingested points. Checkpoints are sealed as
//!   [`CheckpointEnvelope`](crate::snapshot::CheckpointEnvelope)s (shard
//!   id + tick + inner snapshot) and validated by a **full restore**
//!   before they are trusted.
//! * **Detection** — worker panics (a joined `Err`), stalls past a
//!   configurable deadline, corrupt or undecodable checkpoints (a typed
//!   [`SnapshotError`]), and non-finite floods (the `try_*` validation
//!   paths) are all caught by the supervisor.
//! * **Recovery** — a faulted shard is restarted from its last valid
//!   checkpoint and the chunks dispatched since that checkpoint are
//!   replayed **in order with the original batch boundaries** from a
//!   bounded, accounted replay buffer. Because snapshot restore is
//!   bit-exact and every backend is sequential and deterministic, the
//!   recovered shard's final state is bit-identical to an uninterrupted
//!   run — for every [`SummaryKind`](crate::builder::SummaryKind).
//! * **Graceful degradation** — when a shard exhausts its
//!   [`RetryPolicy`] it is quarantined: its last valid checkpoint still
//!   contributes to the merge, every point that could not be recovered is
//!   counted (and, when the points were still buffered, folded into a
//!   *lost hull* so [`SupervisedRun::error_bound`] can widen honestly),
//!   and the run completes with a [`RecoveryReport`] — never a
//!   silently-wrong hull.
//!
//! Faults are injected deterministically through a [`FaultPlan`]
//! (script- or seed-driven) with **no wall-clock randomness**, and a
//! restart happens as soon as its fault is detected, so every chaos
//! scenario replays exactly in CI.
//!
//! The [`RecoveryReport`] is the supervisor's only ledger, and its fault
//! log the only event trail: its run totals sum the per-shard
//! [`ShardHealth`] tallies, and a scrape shows the
//! `streamhull_recovery_*` series of the runs whose reports
//! [`RecoveryReport::export_to`] wrote into it.
//!
//! # Hand-offs
//!
//! The supervisor hands a worker several of its shard's consecutive
//! buffered chunks per message, a *hand-off*, so it sleeps and wakes once
//! per hand-off rather than once per chunk. A hand-off ends at the
//! shard's checkpoint chunk and holds at most the replay bound and
//! [`DEFAULT_CHECKPOINT_INTERVAL`] points' worth of chunks: 8 chunks at
//! the defaults, 1 when the checkpoint interval is at most one chunk. The
//! supervisor dispatches a shard's chunks once a hand-off's worth is
//! buffered, flushes the rest at the end of the stream and on replay, and
//! shares each buffered chunk with the worker instead of copying it, so a
//! replay re-sends the same allocation. Everything else stays per chunk:
//! the worker acts out a chunk's injected fault, ingests it with one
//! `insert_batch`, encodes its checkpoint and acknowledges it before it
//! takes the next chunk, and the supervisor drains ready acknowledgements
//! on every submitted chunk. One hand-off waits in each worker's queue
//! while the worker ingests another, so a crash replays at most two
//! hand-offs.
//!
//! The stall deadline is measured from the worker's last event, not from
//! the start of a send, so a healthy worker busy with a hand-off of
//! several chunks is never declared stalled. Before a dead or stalled
//! worker is charged, the supervisor books every acknowledgement it sent
//! and attributes the fault to the first chunk of that shard it never
//! acknowledged (see [`FaultEvent::chunk`]). A scripted crash or stall
//! that was handed over with a later chunk of the abandoned worker's
//! hand-offs has not acted on the run, so it goes back to the
//! [`FaultPlan`] and the replay acts it out.
//!
//! # Determinism contract
//!
//! The supervised entry point shares [`ShardedIngest::run`]'s partition:
//! chunk `c` goes to shard `c % N`, workers are sequential, and the
//! reduce merges in shard order. Fault handling never changes the data a
//! surviving shard sees — replay re-dispatches the exact buffered chunks
//! — so a recovered run equals the fault-free run bit-for-bit, and a
//! degraded run differs only by the quarantined shard's missing suffix,
//! which the report accounts for point-by-point.
//!
//! # Panic contract
//!
//! A worker fault in a streaming run is recovered or quarantined and
//! reported; it is never re-raised on the caller. A caller's contract
//! violation still panics on the caller's thread:
//! [`with_stall_timeout`](SupervisedIngest::with_stall_timeout) rejects a
//! zero deadline when it is configured.

use crate::builder::SummaryBuilder;
use crate::exact::ExactHull;
use crate::parallel::{IngestInstruments, ShardRun, ShardedIngest};
use crate::snapshot::{open_checkpoint, seal_checkpoint, SnapshotError};
use crate::summary::{parallel_bound, HullSummary, Mergeable};
use crate::telemetry::{names, Histogram, Scrape};
use geom::{ConvexPolygon, Point2};
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Hand-offs queued to one worker beside the one it is ingesting: a slow
/// shard stalls the reader instead of buffering the stream. With one, a
/// crash replays at most two hand-offs.
const CMD_QUEUE_DEPTH: usize = 1;

/// Default checkpoint interval in ingested points per shard.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 8192;

/// SplitMix64: the workspace-standard seed mixer behind
/// [`FaultPlan::seeded`] (no wall-clock randomness anywhere in the
/// recovery path).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------

/// Deterministic retry schedule for faulted shards: a maximum restart
/// count per shard. A restart happens as soon as its fault is detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::new(3)
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` restarts per shard before
    /// quarantine.
    pub fn new(max_attempts: u32) -> Self {
        RetryPolicy { max_attempts }
    }

    /// A policy that never restarts: the first fault quarantines the
    /// shard (degraded completion, still never a panic).
    pub fn none() -> Self {
        RetryPolicy::new(0)
    }

    /// Maximum restarts per shard before quarantine.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }
}

// ---------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------

/// One scripted fault. Chunk indices are global stream chunk sequence
/// numbers (chunk `c` is dispatched to shard `c % N`); a fault whose
/// `shard` does not match `at_chunk % N` never fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The worker panics upon receiving chunk `at_chunk`.
    CrashShard {
        /// Shard whose worker crashes.
        shard: usize,
        /// Global chunk sequence number that triggers the crash.
        at_chunk: u64,
    },
    /// The worker sleeps for `hold` upon receiving chunk `at_chunk`
    /// (then proceeds — a stall is only a *fault* if it outlives the
    /// supervisor's [`stall deadline`](SupervisedIngest::with_stall_timeout)).
    StallShard {
        /// Shard whose worker stalls.
        shard: usize,
        /// Global chunk sequence number that triggers the stall.
        at_chunk: u64,
        /// How long the worker holds before continuing.
        hold: Duration,
    },
    /// The `at_checkpoint`-th checkpoint (1-based, counted per shard
    /// including re-taken checkpoints after restarts) has one byte
    /// flipped before validation.
    CorruptCheckpoint {
        /// Shard whose checkpoint is corrupted.
        shard: usize,
        /// 1-based per-shard checkpoint ordinal to corrupt.
        at_checkpoint: u32,
        /// Byte offset to flip (taken modulo the envelope length).
        byte: usize,
    },
    /// `len` non-finite points are spliced into chunk `at_chunk` before
    /// dispatch, exercising the `try_*` detection + sanitize path.
    NonFiniteBurst {
        /// Shard receiving the poisoned chunk.
        shard: usize,
        /// Global chunk sequence number to poison.
        at_chunk: u64,
        /// Number of non-finite points spliced in.
        len: usize,
    },
}

/// A deterministic, script- or seed-driven set of faults to inject into
/// one supervised run. Each fault fires at most once; the plan is
/// evaluated entirely on the supervisor thread, so replayed chunks never
/// re-trigger a consumed fault. A crash or stall is consumed when its
/// chunk is handed to a worker and given back when that worker is
/// abandoned before it acts on the chunk (a fault on an earlier chunk of
/// the same hand-off, say), so the replay acts it out instead.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<(Fault, bool)>,
}

impl FaultPlan {
    /// An empty plan (no injected faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a [`Fault::CrashShard`].
    pub fn crash(mut self, shard: usize, at_chunk: u64) -> Self {
        self.faults
            .push((Fault::CrashShard { shard, at_chunk }, false));
        self
    }

    /// Adds a [`Fault::StallShard`].
    pub fn stall(mut self, shard: usize, at_chunk: u64, hold: Duration) -> Self {
        self.faults.push((
            Fault::StallShard {
                shard,
                at_chunk,
                hold,
            },
            false,
        ));
        self
    }

    /// Adds a [`Fault::CorruptCheckpoint`].
    pub fn corrupt_checkpoint(mut self, shard: usize, at_checkpoint: u32, byte: usize) -> Self {
        self.faults.push((
            Fault::CorruptCheckpoint {
                shard,
                at_checkpoint,
                byte,
            },
            false,
        ));
        self
    }

    /// Adds a [`Fault::NonFiniteBurst`].
    pub fn non_finite_burst(mut self, shard: usize, at_chunk: u64, len: usize) -> Self {
        self.faults.push((
            Fault::NonFiniteBurst {
                shard,
                at_chunk,
                len,
            },
            false,
        ));
        self
    }

    /// Adds an already-constructed fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push((fault, false));
    }

    /// The scripted faults, in insertion order.
    #[must_use]
    pub fn scripted(&self) -> Vec<Fault> {
        self.faults.iter().map(|(f, _)| *f).collect()
    }

    /// Number of scripted faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when no faults are scripted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A small deterministic plan derived from `seed`: between one and
    /// three faults aimed at the first `chunks` chunks of an `N = shards`
    /// run. The same `(seed, shards, chunks)` always yields the same
    /// plan, so seeded chaos runs replay exactly.
    #[must_use]
    pub fn seeded(seed: u64, shards: usize, chunks: u64) -> Self {
        let shards = shards.max(1);
        let chunks = chunks.max(1);
        let mut plan = FaultPlan::new();
        let count = 1 + (splitmix64(seed) % 3);
        for i in 0..count {
            let h = splitmix64(seed ^ (0xFA17 + i));
            // Pick a chunk, derive its owning shard so the fault fires.
            let at_chunk = splitmix64(h) % chunks;
            let shard = (at_chunk % shards as u64) as usize;
            let fault = match (h >> 32) % 4 {
                0 => Fault::CrashShard { shard, at_chunk },
                1 => Fault::StallShard {
                    shard,
                    at_chunk,
                    hold: Duration::from_millis(1200),
                },
                2 => Fault::CorruptCheckpoint {
                    shard,
                    at_checkpoint: 1 + (h % 2) as u32,
                    byte: (h % 97) as usize,
                },
                _ => Fault::NonFiniteBurst {
                    shard,
                    at_chunk,
                    len: 1 + (h % 16) as usize,
                },
            };
            plan.push(fault);
        }
        plan
    }

    /// Consumes a crash/stall fault aimed at `(shard, seq)`, if any.
    fn take_worker_fault(&mut self, shard: usize, seq: u64) -> Option<Inject> {
        for (fault, fired) in &mut self.faults {
            if *fired {
                continue;
            }
            match *fault {
                Fault::CrashShard { shard: s, at_chunk } if s == shard && at_chunk == seq => {
                    *fired = true;
                    return Some(Inject::Crash);
                }
                Fault::StallShard {
                    shard: s,
                    at_chunk,
                    hold,
                } if s == shard && at_chunk == seq => {
                    *fired = true;
                    return Some(Inject::Stall(hold));
                }
                _ => {}
            }
        }
        None
    }

    /// Gives back one consumed `inject` aimed at `(shard, seq)`.
    fn rearm_worker_fault(&mut self, shard: usize, seq: u64, inject: Inject) {
        for (fault, fired) in self.faults.iter_mut().rev() {
            let same = match (*fault, inject) {
                (Fault::CrashShard { shard: s, at_chunk }, Inject::Crash) => {
                    s == shard && at_chunk == seq
                }
                (
                    Fault::StallShard {
                        shard: s,
                        at_chunk,
                        hold,
                    },
                    Inject::Stall(h),
                ) => s == shard && at_chunk == seq && hold == h,
                _ => false,
            };
            if *fired && same {
                *fired = false;
                return;
            }
        }
    }

    /// Consumes a corrupt-checkpoint fault aimed at `(shard, ordinal)`.
    fn take_corrupt(&mut self, shard: usize, ordinal: u32) -> Option<usize> {
        for (fault, fired) in &mut self.faults {
            if *fired {
                continue;
            }
            if let Fault::CorruptCheckpoint {
                shard: s,
                at_checkpoint,
                byte,
            } = *fault
            {
                if s == shard && at_checkpoint == ordinal {
                    *fired = true;
                    return Some(byte);
                }
            }
        }
        None
    }

    /// Consumes a non-finite-burst fault aimed at `(shard, seq)`.
    fn take_burst(&mut self, shard: usize, seq: u64) -> Option<usize> {
        for (fault, fired) in &mut self.faults {
            if *fired {
                continue;
            }
            if let Fault::NonFiniteBurst {
                shard: s,
                at_chunk,
                len,
            } = *fault
            {
                if s == shard && at_chunk == seq {
                    *fired = true;
                    return Some(len);
                }
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Report types
// ---------------------------------------------------------------------

/// What the supervisor detected about a shard.
#[derive(Clone, Debug, PartialEq)]
pub enum DetectedFault {
    /// The worker thread panicked (joined `Err`).
    WorkerPanic,
    /// The worker made no progress past the configured stall deadline.
    Stall,
    /// A checkpoint failed validation with a typed decode error.
    CorruptCheckpoint(SnapshotError),
    /// Non-finite points were detected (and dropped) by the worker's
    /// validating ingest path.
    NonFinite {
        /// How many points were dropped from the offending chunk.
        dropped: u64,
    },
}

impl DetectedFault {
    /// This fault's `kind` label in `streamhull_recovery_faults_total`.
    fn kind(&self) -> &'static str {
        match self {
            DetectedFault::WorkerPanic => "panic",
            DetectedFault::Stall => "stall",
            DetectedFault::CorruptCheckpoint(_) => "corrupt_checkpoint",
            DetectedFault::NonFinite { .. } => "non_finite",
        }
    }
}

/// What the supervisor did about a detected fault.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RecoveryAction {
    /// The shard was restarted from its last valid checkpoint and the
    /// buffered chunks replayed.
    Restarted {
        /// Tick (points ingested) of the checkpoint restored from; 0
        /// when the shard restarted fresh.
        from_tick: u64,
        /// Chunks re-dispatched from the replay buffer.
        replayed_chunks: u64,
    },
    /// Non-finite points were dropped and the run continued (no restart;
    /// sanitising is the contractual behaviour of the infallible paths).
    Sanitized {
        /// Points dropped.
        dropped: u64,
    },
    /// Retries were exhausted; the shard was quarantined and its
    /// unrecoverable points accounted as lost.
    Quarantined {
        /// Finite points lost at the moment of quarantine (buffered +
        /// overflowed); later chunks routed to the shard add to the
        /// per-shard total in [`ShardHealth::lost_points`].
        lost_points: u64,
    },
}

/// One entry in the fault log: what happened, where, and how the
/// supervisor responded.
#[derive(Clone, Debug)]
pub struct FaultEvent {
    /// Shard the fault was attributed to.
    pub shard: usize,
    /// Global chunk sequence number the fault is attributed to. A
    /// sanitised chunk and a rejected checkpoint name the chunk they came
    /// with. A dead or stalled worker is charged after the supervisor has
    /// booked every acknowledgement it sent: the fault names the first
    /// chunk of `shard` that the worker never acknowledged, so a crash at
    /// chunk `c` reports `c`. A stall names the chunk the worker held when
    /// the deadline expired, or a later one of the same shard when the
    /// worker finished chunks before the supervisor abandoned it; it never
    /// trails the held chunk by more than the two hand-offs in flight to
    /// that worker.
    pub chunk: u64,
    /// What was detected.
    pub fault: DetectedFault,
    /// What the supervisor did.
    pub action: RecoveryAction,
}

/// A shard's final health classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardStatus {
    /// No restarts were needed (sanitised non-finite chunks do not
    /// demote a shard).
    Healthy,
    /// The shard faulted but recovered via checkpoint replay; its final
    /// state is bit-identical to a fault-free run.
    Recovered,
    /// Retries exhausted: the shard contributes only its last valid
    /// checkpoint and its missing points are accounted in
    /// [`ShardHealth::lost_points`].
    Quarantined,
}

/// Per-shard health in the [`RecoveryReport`].
#[derive(Clone, Debug)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Final classification.
    pub status: ShardStatus,
    /// Finite points the shard's final (merged) state ingested.
    pub points_seen: u64,
    /// Finite points routed to this shard that no state ever ingested.
    pub lost_points: u64,
    /// Faults detected on this shard (including sanitised non-finite
    /// chunks).
    pub faults: u32,
    /// Restarts performed.
    pub retries: u32,
    /// Chunks re-dispatched from the replay buffer across all restarts.
    pub replayed_chunks: u64,
    /// Checkpoints that passed validation.
    pub checkpoints_valid: u32,
    /// Checkpoints rejected by validation.
    pub checkpoints_rejected: u32,
}

/// The supervisor's account of a whole run: per-shard health, the fault
/// log, and the loss/replay/checkpoint tallies that make a degraded
/// result auditable.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardHealth>,
    /// Every detected fault, in detection order.
    pub events: Vec<FaultEvent>,
    /// Total finite points lost across all shards (0 on a fully
    /// recovered run).
    pub lost_points: u64,
    /// Non-finite points dropped by worker-side sanitising (stream
    /// poison, whether injected or genuine).
    pub dropped_non_finite: u64,
    /// Non-finite points spliced in by the [`FaultPlan`] (a subset of
    /// the stream the clean run never contained; they are excluded from
    /// all seen/lost accounting).
    pub injected_non_finite: u64,
    /// Chunks re-dispatched from replay buffers.
    pub replayed_chunks: u64,
    /// Points re-dispatched from replay buffers (replayed points are
    /// re-ingested deterministically, never double-counted in
    /// `points_seen`).
    pub replayed_points: u64,
    /// Checkpoints sealed and offered for validation.
    pub checkpoints_taken: u64,
    /// Checkpoints that failed validation.
    pub checkpoints_rejected: u64,
    /// When `true`, some lost points left no trace (evicted past the
    /// replay bound before being lost), so no finite widening of the
    /// error bound exists.
    lost_unbounded: bool,
    /// Exact hull of every lost point the supervisor still held, for
    /// honest error-bound widening.
    lost_hull: ExactHull,
}

impl RecoveryReport {
    /// `true` when the run lost points or quarantined a shard — the
    /// merged hull then under-covers the stream and
    /// [`SupervisedRun::error_bound`] widens (or withdraws) accordingly.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.lost_points > 0
            || self
                .shards
                .iter()
                .any(|s| s.status == ShardStatus::Quarantined)
    }

    /// The convex hull of every lost point the supervisor still held
    /// when the loss occurred (empty on non-degraded runs).
    #[must_use]
    pub fn lost_hull(&self) -> &ConvexPolygon {
        self.lost_hull.hull_ref()
    }

    /// How far outside `merged` the lost points reach: the maximum
    /// distance from any lost-hull vertex to `merged` (0 when every lost
    /// point is covered anyway). `None` when some lost points left no
    /// geometric trace, so no finite widening exists.
    #[must_use]
    pub fn lost_excess(&self, merged: &ConvexPolygon) -> Option<f64> {
        if self.lost_unbounded {
            return None;
        }
        let mut worst = 0.0_f64;
        for &v in self.lost_hull.hull_ref().vertices() {
            let d = merged.distance_to_point(v);
            if d > worst {
                worst = d;
            }
        }
        Some(worst)
    }

    /// Total restarts across all shards.
    #[must_use]
    pub fn total_retries(&self) -> u32 {
        self.shards.iter().map(|s| s.retries).sum()
    }

    /// Writes this run's `streamhull_recovery_*` series into `scrape`,
    /// every one even at zero, summed into samples already there;
    /// `faults_total{kind}` counts the fault log's entries of that kind.
    pub fn export_to(&self, scrape: &mut Scrape) {
        for kind in ["panic", "stall", "corrupt_checkpoint", "non_finite"] {
            let n = self.events.iter().filter(|e| e.fault.kind() == kind);
            scrape.add_counter(names::RECOVERY_FAULTS, &[("kind", kind)], n.count() as u64);
        }
        let counters = [
            (names::RECOVERY_REPLAYED_CHUNKS, self.replayed_chunks),
            (names::RECOVERY_REPLAYED_POINTS, self.replayed_points),
            (names::RECOVERY_LOST_POINTS, self.lost_points),
            (names::RECOVERY_DROPPED_NON_FINITE, self.dropped_non_finite),
            (
                names::RECOVERY_INJECTED_NON_FINITE,
                self.injected_non_finite,
            ),
        ];
        for (name, n) in counters {
            scrape.add_counter(name, &[], n);
        }
        let checkpoints = [
            ("taken", self.checkpoints_taken),
            ("rejected", self.checkpoints_rejected),
        ];
        for (outcome, n) in checkpoints {
            scrape.add_counter(names::RECOVERY_CHECKPOINTS, &[("outcome", outcome)], n);
        }
    }
}

/// The result of [`SupervisedIngest::run_stream`]: the ordinary merged
/// [`ShardRun`] plus the supervisor's [`RecoveryReport`].
#[derive(Debug)]
#[must_use = "dropping a supervised run discards both the summary and the recovery accounting"]
pub struct SupervisedRun {
    /// The merged result. On a fully recovered run this is bit-identical
    /// to [`ShardedIngest::run`] over the same points.
    pub run: ShardRun,
    /// What happened along the way.
    pub report: RecoveryReport,
}

impl SupervisedRun {
    /// `true` when points were lost (see [`RecoveryReport::is_degraded`]).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.report.is_degraded()
    }

    /// The composed error guarantee of the merged hull against the
    /// **full** input stream: the merged run's
    /// [`ShardRun::error_bound`] and, when points were lost,
    /// [`RecoveryReport::lost_excess`]. The excess is measured against the
    /// merged hull itself, so it is one more parallel part: the guarantee
    /// is the larger of the two. `None` when any component cannot report a
    /// bound (including lost points with no geometric trace).
    #[must_use]
    pub fn error_bound(&self) -> Option<f64> {
        let merged = self.run.error_bound();
        if self.report.lost_points == 0 {
            return merged;
        }
        parallel_bound([merged, self.report.lost_excess(self.run.summary.hull_ref())])
    }
}

// ---------------------------------------------------------------------
// Public supervisor configuration
// ---------------------------------------------------------------------

/// The streaming entry point of [`ShardedIngest`]: every iterator reaches
/// the shards through this supervisor, which checkpoints, detects,
/// recovers and degrades — a worker fault never panics the caller.
///
/// ```
/// use adaptive_hull::recovery::{FaultPlan, RetryPolicy, SupervisedIngest};
/// use adaptive_hull::parallel::ShardedIngest;
/// use adaptive_hull::{SummaryBuilder, SummaryKind};
/// use geom::Point2;
///
/// let pts: Vec<Point2> = (0..10_000)
///     .map(|i| {
///         let t = i as f64 * 0.01;
///         Point2::new(t.cos() * 3.0, t.sin() * 2.0)
///     })
///     .collect();
/// let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), 4);
/// let supervised = SupervisedIngest::new(engine)
///     .with_checkpoint_interval(1024)
///     .with_fault_plan(FaultPlan::new().crash(1, 5))
///     .with_retry_policy(RetryPolicy::new(2));
/// let run = supervised.run_stream(pts.iter().copied());
/// assert!(!run.is_degraded());
/// // Bit-identical to the fault-free run despite the injected crash:
/// let clean = engine.run(&pts);
/// assert_eq!(
///     run.run.summary.hull_ref().vertices(),
///     clean.summary.hull_ref().vertices()
/// );
/// ```
#[derive(Clone, Debug)]
pub struct SupervisedIngest {
    engine: ShardedIngest,
    policy: RetryPolicy,
    plan: FaultPlan,
    checkpoint_interval: u64,
    stall_timeout: Option<Duration>,
    max_replay_chunks: usize,
}

impl SupervisedIngest {
    /// Supervises `engine` with the default retry policy, the default
    /// checkpoint interval, no fault plan, and no stall deadline.
    pub fn new(engine: ShardedIngest) -> Self {
        SupervisedIngest {
            engine,
            policy: RetryPolicy::default(),
            plan: FaultPlan::new(),
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
            stall_timeout: None,
            max_replay_chunks: 0, // 0 = derive from interval and chunk size
        }
    }

    /// Replaces the retry policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a deterministic fault plan (chaos testing).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Sets the per-shard checkpoint interval in ingested points. Must
    /// be at least 1. Smaller intervals shrink the replay window (faster
    /// recovery, less loss exposure) at the cost of serialising more
    /// often; see EXPERIMENTS.md for the measured trade-off.
    pub fn with_checkpoint_interval(mut self, points: u64) -> Self {
        assert!(points >= 1, "checkpoint interval must be at least 1");
        self.checkpoint_interval = points;
        self
    }

    /// Enables stall detection: a shard that accepts no work and
    /// produces no event for `deadline` is treated as faulted. Off by
    /// default (a slow shard then simply backpressures the reader).
    ///
    /// The worker acknowledges every chunk of a hand-off as it finishes
    /// it, and the deadline restarts at each acknowledgement, so a busy
    /// worker with a hand-off of several chunks is not stalled. The
    /// deadline must be non-zero, and it must exceed the slowest chunk's
    /// ingest time (with its checkpoint encode): a healthy shard that
    /// needs longer is declared stalled, restarted, and eventually
    /// quarantined.
    pub fn with_stall_timeout(mut self, deadline: Duration) -> Self {
        assert!(!deadline.is_zero(), "stall deadline must be non-zero");
        self.stall_timeout = Some(deadline);
        self
    }

    /// Bounds the per-shard replay buffer to `chunks` chunks. Chunks the
    /// worker has acknowledged may be evicted past this bound; evicted
    /// points cannot be replayed after a later fault and are then
    /// accounted as lost **with no geometric trace** (the error bound
    /// becomes unknown). 0 (the default) derives a bound covering four
    /// checkpoint intervals. A hand-off never holds more chunks than
    /// this bound, and chunks are evicted one at a time as their
    /// acknowledgements arrive, not a hand-off at a time.
    pub fn with_replay_bound(mut self, chunks: usize) -> Self {
        self.max_replay_chunks = chunks;
        self
    }

    /// The effective replay-buffer bound in chunks (never 0).
    fn replay_bound(&self) -> usize {
        if self.max_replay_chunks > 0 {
            return self.max_replay_chunks;
        }
        let chunk = self.engine.chunk() as u64;
        let per_interval = self.checkpoint_interval.div_ceil(chunk).max(1);
        (per_interval.saturating_mul(4).saturating_add(4)).min(usize::MAX as u64) as usize
    }

    /// Ingests an unmaterialised stream: points are gathered into chunks
    /// of the engine's size as they arrive and chunk `c` is routed to
    /// shard `c % N`, with checkpointing, fault detection,
    /// checkpoint-replay recovery, and degraded completion under the
    /// configured [`RetryPolicy`]. A shard's chunks travel over a bounded
    /// channel in hand-offs of several chunks (see the
    /// [module docs](self#hand-offs)); the worker still ingests,
    /// checkpoints and acknowledges each chunk on its own. A fault-free
    /// run is bit-identical to [`ShardedIngest::run`] over the same
    /// points.
    pub fn run_stream<I>(&self, points: I) -> SupervisedRun
    where
        I: IntoIterator<Item = Point2>,
    {
        let (states, report, start) = SupervisorCore::new(self).run(points);
        SupervisedRun {
            run: self.engine.reduce(states, start),
            report,
        }
    }
}

// ---------------------------------------------------------------------
// Internal: worker protocol
// ---------------------------------------------------------------------

/// One shard's summary state.
type ShardState = Box<dyn Mergeable + Send + Sync>;

/// Ingests one chunk into a shard's state, sanitising: the validating
/// path detects non-finite points, exactly those are dropped, the rest
/// are ingested, and the drop count is returned — contractually
/// identical to what the infallible insert paths do.
fn ingest(state: &mut ShardState, items: &[Point2]) -> u64 {
    match state.try_insert_batch(items) {
        Ok(()) => 0,
        Err(_) => {
            let finite: Vec<Point2> = items.iter().copied().filter(|p| p.is_finite()).collect();
            let dropped = (items.len() - finite.len()) as u64;
            state.insert_batch(&finite);
            dropped
        }
    }
}

/// A fault to act out on receipt of a chunk (scripted via [`FaultPlan`],
/// consumed supervisor-side so replays never re-fire it).
#[derive(Clone, Copy)]
enum Inject {
    Crash,
    Stall(Duration),
}

/// One chunk of a hand-off, shared with the supervisor's replay buffer.
struct Chunk {
    seq: u64,
    items: Arc<Vec<Point2>>,
    checkpoint: bool,
    inject: Option<Inject>,
}

/// One message to a shard worker: consecutive buffered chunks of its
/// shard, taken one at a time.
type HandOff = Vec<Chunk>;

/// Worker → supervisor feedback.
enum Event {
    /// A chunk was fully ingested.
    Ack {
        seq: u64,
        points_seen: u64,
        dropped: u64,
        /// Raw inner snapshot, when the chunk requested a checkpoint.
        snapshot: Option<Vec<u8>>,
    },
    /// The command channel closed; here is the final state.
    Final { state: ShardState },
}

/// A live worker epoch. Dropping the whole link abandons the worker: its
/// next send fails and it exits without touching shared state, which is
/// what makes stalled epochs safely discardable.
struct Link {
    /// `None` once the finish phase closed the channel.
    tx: Option<mpsc::SyncSender<HandOff>>,
    rx: mpsc::Receiver<Event>,
    handle: std::thread::JoinHandle<()>,
}

/// The `Copy` instrument set each worker epoch records through: the
/// shared per-backend ingest instruments (the same series the slice
/// workers of [`ShardedIngest::run`] feed) plus the checkpoint encode
/// latency, measured where the encode actually runs.
#[derive(Clone, Copy)]
struct WorkerInstruments {
    ingest: IngestInstruments,
    encode_ns: Histogram,
}

fn spawn_worker(state: ShardState, inst: WorkerInstruments) -> Link {
    let (tx, cmd_rx) = mpsc::sync_channel::<HandOff>(CMD_QUEUE_DEPTH);
    let (event_tx, rx) = mpsc::channel::<Event>();
    let handle = std::thread::spawn(move || worker_loop(state, cmd_rx, event_tx, inst));
    Link {
        tx: Some(tx),
        rx,
        handle,
    }
}

fn worker_loop(
    mut state: ShardState,
    rx: mpsc::Receiver<HandOff>,
    tx: mpsc::Sender<Event>,
    inst: WorkerInstruments,
) {
    while let Ok(hand_off) = rx.recv() {
        for chunk in hand_off {
            match chunk.inject {
                Some(Inject::Crash) => {
                    panic!("injected fault: worker crash") // lint:allow(no-panic): deterministic fault injection — the chaos harness needs a genuine worker panic to exercise detection and recovery
                }
                Some(Inject::Stall(hold)) => std::thread::sleep(hold),
                None => {}
            }
            // Replays re-ingest, so the ingest counters measure work
            // actually performed — a recovered run records more than a
            // fault-free one.
            let dropped = inst
                .ingest
                .chunk(chunk.items.len(), || ingest(&mut state, &chunk.items));
            let snapshot = chunk.checkpoint.then(|| {
                if inst.encode_ns.enabled() {
                    let t0 = Instant::now();
                    let bytes = state.encode_snapshot();
                    inst.encode_ns.record(t0.elapsed().as_nanos() as u64);
                    bytes
                } else {
                    state.encode_snapshot()
                }
            });
            let ack = Event::Ack {
                seq: chunk.seq,
                points_seen: state.points_seen(),
                dropped,
                snapshot,
            };
            if tx.send(ack).is_err() {
                return; // the supervisor abandoned this epoch
            }
        }
    }
    let _ = tx.send(Event::Final { state });
}

// ---------------------------------------------------------------------
// Internal: the supervisor core
// ---------------------------------------------------------------------

/// A fault as detected, before it is classified for the public report.
enum Detected {
    /// Worker thread dead.
    Panic,
    Stall,
    BadCheckpoint(SnapshotError),
}

/// A buffered (and possibly already dispatched) chunk awaiting
/// checkpoint coverage.
struct Buffered {
    seq: u64,
    items: Arc<Vec<Point2>>,
    checkpoint: bool,
}

/// A validated checkpoint: the sealed envelope plus its tick.
struct ValidCheckpoint {
    tick: u64,
    sealed: Vec<u8>,
}

/// Per-shard supervisor state.
struct ShardCtx {
    link: Option<Link>,
    /// Events received but not yet processed (gathered while blocked in
    /// a send). A dead or stalled epoch's are booked before it is charged;
    /// any left at a fault are cleared, so a replaced epoch never leaks
    /// into the accounting.
    pending: VecDeque<Event>,
    finished: Option<ShardState>,
    quarantined: bool,
    attempts: u32,
    buffer: VecDeque<Buffered>,
    /// `buffer[..sent]` has been dispatched to the current epoch.
    sent: usize,
    /// Highest chunk seq acknowledged by the current epoch.
    acked: Option<u64>,
    /// Highest chunk seq whose sanitized drops have been tallied. Replay
    /// after a crash re-acks earlier chunks (re-dropping the same poison);
    /// gating on this watermark keeps `dropped_non_finite` counting
    /// logical stream points, not ingestion attempts.
    drop_tallied: Option<u64>,
    /// Worker faults handed to the current epoch with their chunks, until
    /// an acknowledgement shows the worker got past them.
    armed: Vec<(u64, Inject)>,
    since_checkpoint: u64,
    checkpoint: Option<ValidCheckpoint>,
    checkpoint_ordinal: u32,
    /// Finite points evicted past the replay bound since the last valid
    /// checkpoint; they become unrecoverable if a fault hits first.
    overflow_points: u64,
    faults: u32,
    lost: u64,
    replayed: u64,
    checkpoints_valid: u32,
    checkpoints_rejected: u32,
}

impl ShardCtx {
    fn new() -> Self {
        ShardCtx {
            link: None,
            pending: VecDeque::new(),
            finished: None,
            quarantined: false,
            attempts: 0,
            buffer: VecDeque::new(),
            sent: 0,
            acked: None,
            drop_tallied: None,
            armed: Vec::new(),
            since_checkpoint: 0,
            checkpoint: None,
            checkpoint_ordinal: 0,
            overflow_points: 0,
            faults: 0,
            lost: 0,
            replayed: 0,
            checkpoints_valid: 0,
            checkpoints_rejected: 0,
        }
    }
}

/// What one attempt to pull an event yielded (split out so borrow scopes
/// stay local).
enum Pulled {
    Ev(Event),
    Idle,
    Dead,
}

/// The supervisor: owns the per-shard worker epochs, the replay buffers,
/// the fault plan, and all accounting.
struct SupervisorCore<'e> {
    engine: &'e ShardedIngest,
    policy: RetryPolicy,
    plan: FaultPlan,
    interval: u64,
    stall: Option<Duration>,
    max_replay: usize,
    /// Most chunks in one hand-off.
    hand_off: usize,
    shards: Vec<ShardCtx>,
    events: Vec<FaultEvent>,
    lost_hull: ExactHull,
    lost_unbounded: bool,
    dropped_non_finite: u64,
    injected_non_finite: u64,
    replayed_points: u64,
    decode_ns: Histogram,
    worker_inst: WorkerInstruments,
}

impl<'e> SupervisorCore<'e> {
    fn new(config: &'e SupervisedIngest) -> Self {
        let engine = &config.engine;
        let tel = engine.telemetry();
        let max_replay = config.replay_bound();
        let per_default_interval = DEFAULT_CHECKPOINT_INTERVAL / engine.chunk() as u64;
        SupervisorCore {
            engine,
            policy: config.policy,
            plan: config.plan.clone(),
            interval: config.checkpoint_interval,
            stall: config.stall_timeout,
            max_replay,
            hand_off: max_replay.min(per_default_interval.max(1) as usize),
            shards: (0..engine.shards()).map(|_| ShardCtx::new()).collect(),
            events: Vec::new(),
            lost_hull: ExactHull::new(),
            lost_unbounded: false,
            dropped_non_finite: 0,
            injected_non_finite: 0,
            replayed_points: 0,
            decode_ns: tel.histogram(names::CHECKPOINT_DECODE_NS, &[]),
            worker_inst: WorkerInstruments {
                ingest: IngestInstruments::register(tel, engine.builder()),
                encode_ns: tel.histogram(names::CHECKPOINT_ENCODE_NS, &[]),
            },
        }
    }

    /// Drives the whole run: chunk, dispatch, recover, finish, report.
    fn run<I>(mut self, items: I) -> (Vec<ShardState>, RecoveryReport, Instant)
    where
        I: IntoIterator<Item = Point2>,
    {
        let start = Instant::now();
        let chunk_size = self.engine.chunk();
        let shard_count = self.engine.shards();
        let mut items = items.into_iter();
        let mut seq = 0_u64;
        loop {
            // One `extend` per chunk: a slice's points are copied in bulk.
            let mut chunk = Vec::with_capacity(chunk_size);
            chunk.extend(items.by_ref().take(chunk_size));
            let full = chunk.len() == chunk_size;
            if !chunk.is_empty() {
                self.submit(seq, chunk);
                seq += 1;
            }
            if !full {
                break;
            }
        }
        // Hand every shard its partial last hand-off before waiting on any.
        for shard in 0..shard_count {
            self.pump(shard, true);
        }
        let mut states = Vec::with_capacity(shard_count);
        for shard in 0..shard_count {
            states.push(self.finish_shard(shard));
        }
        let report = self.into_report(&states);
        (states, report, start)
    }

    /// Routes one chunk: splice scripted poison, account quarantined
    /// shards, then dispatch via the replay buffer.
    fn submit(&mut self, seq: u64, mut items: Vec<Point2>) {
        let shard = (seq % self.engine.shards() as u64) as usize;
        if let Some(len) = self.plan.take_burst(shard, seq) {
            for _ in 0..len {
                items.push(Point2::new(f64::NAN, f64::NAN));
            }
            self.injected_non_finite += len as u64;
        }
        if self.shards[shard].quarantined {
            self.account_lost(shard, &items);
            return;
        }
        let checkpoint = self.tick_checkpoint(shard, items.len());
        self.shards[shard].buffer.push_back(Buffered {
            seq,
            items: Arc::new(items),
            checkpoint,
        });
        self.pump(shard, false);
        self.enforce_replay_bound(shard);
    }

    /// Advances the checkpoint clock for `len` more items; `true` when
    /// this chunk's ack must carry a checkpoint. The decision is made
    /// once at buffering time (and stored), so replays re-take the same
    /// checkpoints at the same boundaries.
    fn tick_checkpoint(&mut self, shard: usize, len: usize) -> bool {
        let ctx = &mut self.shards[shard];
        ctx.since_checkpoint += len as u64;
        if ctx.since_checkpoint >= self.interval {
            ctx.since_checkpoint = 0;
            true
        } else {
            false
        }
    }

    /// Processes the shard's ready feedback (and faults), then dispatches
    /// its undelivered buffered chunks in hand-offs. Returns once no full
    /// hand-off is left undelivered, or none at all with `flush` (which a
    /// restart sets, so a replay re-sends the whole buffer), or once the
    /// shard is quarantined.
    fn pump(&mut self, shard: usize, mut flush: bool) {
        loop {
            if let Err((fseq, d)) = self.drain_ready_events(shard) {
                self.handle_fault(shard, fseq, d);
                flush = true;
                continue;
            }
            let Some(len) = self.next_hand_off(shard, flush) else {
                return;
            };
            self.ensure_live(shard);
            let mut hand_off: HandOff = {
                let ctx = &self.shards[shard];
                let due = ctx.buffer.range(ctx.sent..ctx.sent + len);
                due.map(|b| Chunk {
                    seq: b.seq,
                    items: Arc::clone(&b.items),
                    checkpoint: b.checkpoint,
                    inject: None,
                })
                .collect()
            };
            for chunk in &mut hand_off {
                chunk.inject = self.plan.take_worker_fault(shard, chunk.seq);
                if let Some(inject) = chunk.inject {
                    self.shards[shard].armed.push((chunk.seq, inject));
                }
            }
            match self.send_cmd(shard, hand_off) {
                Ok(()) => self.shards[shard].sent += len,
                Err(d) => {
                    let (fseq, d) = self.epoch_fault(shard, d);
                    self.handle_fault(shard, fseq, d);
                    flush = true;
                }
            }
        }
    }

    /// The number of chunks in the shard's next hand-off: its undelivered
    /// buffered chunks up to and including the first checkpoint chunk, at
    /// most `hand_off` of them. `None` when the shard is quarantined, has
    /// nothing undelivered, or (without `flush`) has less than a full
    /// hand-off buffered.
    fn next_hand_off(&self, shard: usize, flush: bool) -> Option<usize> {
        let ctx = &self.shards[shard];
        if ctx.quarantined {
            return None;
        }
        let mut len = 0;
        for b in ctx.buffer.range(ctx.sent..) {
            len += 1;
            if b.checkpoint || len == self.hand_off {
                return Some(len);
            }
        }
        (flush && len > 0).then_some(len)
    }

    /// Evicts acknowledged chunks past the replay bound (soft bound:
    /// unacknowledged chunks are never evicted — dropping one would lose
    /// data even on a fault-free run).
    fn enforce_replay_bound(&mut self, shard: usize) {
        loop {
            let ctx = &mut self.shards[shard];
            if ctx.buffer.len() <= self.max_replay {
                return;
            }
            let evictable = match (ctx.buffer.front(), ctx.acked) {
                (Some(front), Some(acked)) => front.seq <= acked,
                _ => false,
            };
            if !evictable {
                return;
            }
            if let Some(b) = ctx.buffer.pop_front() {
                ctx.sent = ctx.sent.saturating_sub(1);
                let finite = b.items.iter().filter(|p| p.is_finite()).count();
                ctx.overflow_points += finite as u64;
            }
        }
    }

    /// Processes every already-available event for `shard` (never
    /// blocks). A checkpoint that fails validation surfaces as the
    /// returned fault.
    fn drain_ready_events(&mut self, shard: usize) -> Result<(), (u64, Detected)> {
        loop {
            let pulled = {
                let ctx = &mut self.shards[shard];
                if let Some(ev) = ctx.pending.pop_front() {
                    Pulled::Ev(ev)
                } else {
                    match ctx.link.as_ref() {
                        None => Pulled::Idle,
                        Some(link) => match link.rx.try_recv() {
                            Ok(ev) => Pulled::Ev(ev),
                            Err(mpsc::TryRecvError::Empty) => Pulled::Idle,
                            Err(mpsc::TryRecvError::Disconnected) => {
                                if ctx.finished.is_some() {
                                    Pulled::Idle
                                } else {
                                    Pulled::Dead
                                }
                            }
                        },
                    }
                }
            };
            match pulled {
                Pulled::Ev(ev) => self.process_event(shard, ev)?,
                Pulled::Idle => return Ok(()),
                Pulled::Dead => return Err(self.epoch_fault(shard, Detected::Panic)),
            }
        }
    }

    /// Charges a dead or stalled worker epoch. Every event it already sent
    /// is booked first: its acknowledgements and checkpoints record work
    /// the worker really did. The epoch is then reaped (a dead one
    /// joined, a stalled one abandoned, never joined), and the fault is
    /// attributed to the first chunk of the shard that the epoch never
    /// acknowledged. A checkpoint that fails validation while its events
    /// are booked is reported instead.
    fn epoch_fault(&mut self, shard: usize, detected: Detected) -> (u64, Detected) {
        let mut rejected = None;
        while rejected.is_none() {
            let ctx = &mut self.shards[shard];
            let ev = match ctx.pending.pop_front() {
                Some(ev) => Some(ev),
                None => ctx.link.as_ref().and_then(|l| l.rx.try_recv().ok()),
            };
            let Some(ev) = ev else { break };
            rejected = self.process_event(shard, ev).err();
        }
        if let Some(link) = self.shards[shard].link.take() {
            if matches!(detected, Detected::Panic) {
                let _ = link.handle.join();
            }
        }
        if let Some(bad) = rejected {
            return bad;
        }
        let ctx = &self.shards[shard];
        let unacked = ctx
            .buffer
            .iter()
            .map(|b| b.seq)
            .find(|&seq| ctx.acked.is_none_or(|a| seq > a));
        let after_acked = ctx.acked.map_or(0, |a| a + self.engine.shards() as u64);
        (unacked.unwrap_or(after_acked), detected)
    }

    /// Applies one worker event to the accounting. A rejected checkpoint
    /// is returned as a fault for the caller to handle.
    fn process_event(&mut self, shard: usize, ev: Event) -> Result<(), (u64, Detected)> {
        match ev {
            Event::Final { state } => {
                self.shards[shard].finished = Some(state);
                Ok(())
            }
            Event::Ack {
                seq,
                points_seen,
                dropped,
                snapshot,
            } => {
                self.shards[shard].acked = Some(seq);
                self.shards[shard].armed.retain(|&(s, _)| s > seq);
                let fresh = self.shards[shard].drop_tallied.is_none_or(|w| seq > w);
                if dropped > 0 && fresh {
                    self.shards[shard].drop_tallied = Some(seq);
                    self.dropped_non_finite += dropped;
                    self.shards[shard].faults += 1;
                    self.events.push(FaultEvent {
                        shard,
                        chunk: seq,
                        fault: DetectedFault::NonFinite { dropped },
                        action: RecoveryAction::Sanitized { dropped },
                    });
                }
                match snapshot {
                    Some(inner) => self.accept_checkpoint(shard, seq, points_seen, &inner),
                    None => Ok(()),
                }
            }
        }
    }

    /// Seals, (optionally) corrupts per the plan, and validates one
    /// checkpoint. Valid: store it and shrink the replay buffer to the
    /// uncovered suffix. Invalid: surface a fault.
    fn accept_checkpoint(
        &mut self,
        shard: usize,
        seq: u64,
        tick: u64,
        inner: &[u8],
    ) -> Result<(), (u64, Detected)> {
        let ordinal = {
            let ctx = &mut self.shards[shard];
            ctx.checkpoint_ordinal += 1;
            ctx.checkpoint_ordinal
        };
        let mut sealed = seal_checkpoint(shard as u64, tick, inner);
        if let Some(byte) = self.plan.take_corrupt(shard, ordinal) {
            let idx = byte % sealed.len().max(1);
            if let Some(b) = sealed.get_mut(idx) {
                *b ^= 0xff;
            }
        }
        let verdict = if self.decode_ns.enabled() {
            let t0 = Instant::now();
            let verdict = self.validate_checkpoint(shard, &sealed);
            self.decode_ns.record(t0.elapsed().as_nanos() as u64);
            verdict
        } else {
            self.validate_checkpoint(shard, &sealed)
        };
        match verdict {
            Ok(()) => {
                let ctx = &mut self.shards[shard];
                ctx.checkpoints_valid += 1;
                ctx.checkpoint = Some(ValidCheckpoint { tick, sealed });
                while ctx.buffer.front().is_some_and(|b| b.seq <= seq) {
                    ctx.buffer.pop_front();
                    ctx.sent = ctx.sent.saturating_sub(1);
                }
                ctx.overflow_points = 0;
                Ok(())
            }
            Err(e) => {
                self.shards[shard].checkpoints_rejected += 1;
                Err((seq, Detected::BadCheckpoint(e)))
            }
        }
    }

    /// Full validation: envelope decode, shard-id match, and a complete
    /// restore of the inner snapshot. A checkpoint is only trusted once
    /// it has actually produced a state.
    fn validate_checkpoint(&self, shard: usize, sealed: &[u8]) -> Result<(), SnapshotError> {
        let env = open_checkpoint(sealed)?;
        if env.shard != shard as u64 {
            return Err(SnapshotError::Malformed("checkpoint shard id mismatch"));
        }
        let _restored = SummaryBuilder::restore(env.snapshot)?;
        Ok(())
    }

    /// Restores a validated checkpoint into a fresh shard state.
    fn restore_checkpoint(&self, cp: &ValidCheckpoint) -> Result<ShardState, SnapshotError> {
        let env = open_checkpoint(&cp.sealed)?;
        SummaryBuilder::restore(env.snapshot)
    }

    /// Spawns a worker epoch for `shard` if none is live: from the last
    /// valid checkpoint when one exists, fresh otherwise.
    fn ensure_live(&mut self, shard: usize) {
        if self.shards[shard].link.is_some() || self.shards[shard].quarantined {
            return;
        }
        let state = match self.shards[shard].checkpoint.take() {
            Some(cp) => match self.restore_checkpoint(&cp) {
                Ok(state) => {
                    self.shards[shard].checkpoint = Some(cp);
                    state
                }
                Err(_) => {
                    // Unreachable in practice (validation restored it
                    // once already); degrade honestly if it happens: the
                    // checkpointed prefix is lost with no geometry.
                    self.lost_unbounded = true;
                    self.shards[shard].lost += cp.tick;
                    self.engine.builder().build_mergeable()
                }
            },
            None => self.engine.builder().build_mergeable(),
        };
        self.shards[shard].link = Some(spawn_worker(state, self.worker_inst));
    }

    /// Sends one hand-off, detecting death (disconnect) and — when a
    /// stall deadline is configured — stalls (bounded retry on a full
    /// queue; the deadline restarts at every event the worker sends).
    /// Events arriving while blocked are queued for processing, and the
    /// epoch stays linked so [`Self::epoch_fault`] can book and reap it.
    fn send_cmd(&mut self, shard: usize, hand_off: HandOff) -> Result<(), Detected> {
        let Some(link) = self.shards[shard].link.as_ref() else {
            return Err(Detected::Panic);
        };
        let Some(tx) = link.tx.as_ref() else {
            // The finish phase closed this epoch's channel; a live send
            // afterwards means the epoch must be replaced.
            return Err(Detected::Panic);
        };
        let mut gathered: Vec<Event> = Vec::new();
        let verdict: Result<(), Detected> = match self.stall {
            None => tx.send(hand_off).map_err(|_| Detected::Panic),
            Some(deadline) => {
                let mut last_event = Instant::now();
                let mut unsent = hand_off;
                loop {
                    match tx.try_send(unsent) {
                        Ok(()) => break Ok(()),
                        Err(mpsc::TrySendError::Disconnected(_)) => break Err(Detected::Panic),
                        Err(mpsc::TrySendError::Full(h)) => {
                            unsent = h;
                            let quiet = last_event.elapsed();
                            if quiet >= deadline {
                                break Err(Detected::Stall);
                            }
                            let wait = (deadline - quiet).min(Duration::from_millis(5));
                            match link.rx.recv_timeout(wait) {
                                Ok(ev) => {
                                    gathered.push(ev);
                                    last_event = Instant::now();
                                }
                                Err(mpsc::RecvTimeoutError::Timeout) => {}
                                Err(mpsc::RecvTimeoutError::Disconnected) => {
                                    break Err(Detected::Panic)
                                }
                            }
                        }
                    }
                }
            }
        };
        self.shards[shard].pending.extend(gathered);
        verdict
    }

    /// Central fault response: abandon the epoch, then restart or
    /// quarantine according to the policy.
    fn handle_fault(&mut self, shard: usize, seq: u64, detected: Detected) {
        {
            let ctx = &mut self.shards[shard];
            ctx.link = None; // abandon whatever epoch produced the fault
            ctx.pending.clear(); // stale events must never reach the books
            ctx.finished = None;
            ctx.acked = None;
            ctx.faults += 1;
        }
        // Faults handed over with chunks after `seq` have not acted on the
        // run: the abandoned epoch's later work never counts.
        for (s, inject) in std::mem::take(&mut self.shards[shard].armed) {
            if s > seq {
                self.plan.rearm_worker_fault(shard, s, inject);
            }
        }
        let fault = match detected {
            Detected::Panic => DetectedFault::WorkerPanic,
            Detected::Stall => DetectedFault::Stall,
            Detected::BadCheckpoint(e) => DetectedFault::CorruptCheckpoint(e),
        };
        // Points evicted past the replay bound are unrecoverable the
        // moment a fault needs them: account them as lost, traceless.
        let overflow = std::mem::take(&mut self.shards[shard].overflow_points);
        if overflow > 0 {
            self.shards[shard].lost += overflow;
            self.lost_unbounded = true;
        }
        if self.shards[shard].attempts >= self.policy.max_attempts() {
            self.quarantine(shard, seq, fault);
        } else {
            self.restart(shard, seq, fault);
        }
    }

    /// Schedules a restart: the next `ensure_live` restores the last
    /// valid checkpoint and `pump` replays the uncovered buffer.
    fn restart(&mut self, shard: usize, seq: u64, fault: DetectedFault) {
        let (from_tick, replay_chunks, replay_points) = {
            let ctx = &mut self.shards[shard];
            ctx.attempts += 1;
            let from_tick = ctx.checkpoint.as_ref().map_or(0, |c| c.tick);
            let chunks = ctx.sent as u64;
            let points: u64 = ctx
                .buffer
                .iter()
                .take(ctx.sent)
                .map(|b| b.items.len() as u64)
                .sum();
            ctx.sent = 0;
            ctx.replayed += chunks;
            (from_tick, chunks, points)
        };
        self.replayed_points += replay_points;
        self.events.push(FaultEvent {
            shard,
            chunk: seq,
            fault,
            action: RecoveryAction::Restarted {
                from_tick,
                replayed_chunks: replay_chunks,
            },
        });
    }

    /// Retries exhausted: the shard keeps only its last valid checkpoint
    /// and everything since is accounted as lost.
    fn quarantine(&mut self, shard: usize, seq: u64, fault: DetectedFault) {
        let buffered: Vec<Arc<Vec<Point2>>> = {
            let ctx = &mut self.shards[shard];
            ctx.quarantined = true;
            ctx.sent = 0;
            ctx.buffer.drain(..).map(|b| b.items).collect()
        };
        let before = self.shards[shard].lost;
        for items in &buffered {
            self.account_lost(shard, items);
        }
        let lost_now = self.shards[shard].lost - before;
        self.events.push(FaultEvent {
            shard,
            chunk: seq,
            fault,
            action: RecoveryAction::Quarantined {
                lost_points: lost_now,
            },
        });
    }

    /// Counts (and, where possible, geometrically records) finite points
    /// that no shard state will ever ingest.
    fn account_lost(&mut self, shard: usize, items: &[Point2]) {
        let mut finite = 0_u64;
        for &p in items {
            if p.is_finite() {
                finite += 1;
                self.lost_hull.insert(p);
            }
        }
        self.shards[shard].lost += finite;
    }

    /// Waits for the next event during the finish phase (blocking, with
    /// the stall deadline when configured).
    fn wait_event(&mut self, shard: usize) -> Result<Option<Event>, (u64, Detected)> {
        if let Some(ev) = self.shards[shard].pending.pop_front() {
            return Ok(Some(ev));
        }
        enum Waited {
            Ev(Event),
            NoLink,
            Dead,
            Stalled,
        }
        let waited = {
            let ctx = &self.shards[shard];
            match ctx.link.as_ref() {
                None => Waited::NoLink,
                Some(link) => match self.stall {
                    None => match link.rx.recv() {
                        Ok(ev) => Waited::Ev(ev),
                        Err(_) => {
                            if ctx.finished.is_some() {
                                Waited::NoLink
                            } else {
                                Waited::Dead
                            }
                        }
                    },
                    Some(deadline) => match link.rx.recv_timeout(deadline) {
                        Ok(ev) => Waited::Ev(ev),
                        Err(mpsc::RecvTimeoutError::Timeout) => Waited::Stalled,
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            if ctx.finished.is_some() {
                                Waited::NoLink
                            } else {
                                Waited::Dead
                            }
                        }
                    },
                },
            }
        };
        match waited {
            Waited::Ev(ev) => Ok(Some(ev)),
            Waited::NoLink => Ok(None),
            Waited::Dead => Err(self.epoch_fault(shard, Detected::Panic)),
            Waited::Stalled => Err(self.epoch_fault(shard, Detected::Stall)),
        }
    }

    /// Completes one shard: replay anything outstanding, close its
    /// channel, wait for the final state — recovering from faults that
    /// surface on the way out — and return the state that joins the
    /// merge.
    fn finish_shard(&mut self, shard: usize) -> ShardState {
        loop {
            self.pump(shard, true);
            if self.shards[shard].quarantined {
                return self.quarantined_state(shard);
            }
            if self.shards[shard].finished.is_some() {
                if let Some(link) = self.shards[shard].link.take() {
                    let _ = link.handle.join();
                }
                if let Some(state) = self.shards[shard].finished.take() {
                    return state;
                }
            }
            self.ensure_live(shard);
            if let Some(link) = self.shards[shard].link.as_mut() {
                link.tx = None; // close: the worker drains and reports Final
            }
            match self.wait_event(shard) {
                Ok(Some(ev)) => {
                    if let Err((fseq, d)) = self.process_event(shard, ev) {
                        self.handle_fault(shard, fseq, d);
                    }
                }
                Ok(None) => {}
                Err((fseq, d)) => self.handle_fault(shard, fseq, d),
            }
        }
    }

    /// The state a quarantined shard contributes to the merge: its last
    /// valid checkpoint (already accounted), or an empty summary.
    fn quarantined_state(&mut self, shard: usize) -> ShardState {
        match self.shards[shard].checkpoint.take() {
            Some(cp) => match self.restore_checkpoint(&cp) {
                Ok(state) => state,
                Err(_) => {
                    // Unreachable in practice; degrade honestly.
                    self.lost_unbounded = true;
                    self.shards[shard].lost += cp.tick;
                    self.engine.builder().build_mergeable()
                }
            },
            None => self.engine.builder().build_mergeable(),
        }
    }

    /// Folds the accounting into the public report: run totals are sums
    /// of the per-shard tallies (a checkpoint taken is valid or rejected).
    fn into_report(self, states: &[ShardState]) -> RecoveryReport {
        let total = |tally: fn(&ShardCtx) -> u64| self.shards.iter().map(tally).sum();
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, ctx)| ShardHealth {
                shard: i,
                status: if ctx.quarantined {
                    ShardStatus::Quarantined
                } else if ctx.attempts > 0 {
                    ShardStatus::Recovered
                } else {
                    ShardStatus::Healthy
                },
                points_seen: states.get(i).map_or(0, |s| s.points_seen()),
                lost_points: ctx.lost,
                faults: ctx.faults,
                retries: ctx.attempts,
                replayed_chunks: ctx.replayed,
                checkpoints_valid: ctx.checkpoints_valid,
                checkpoints_rejected: ctx.checkpoints_rejected,
            })
            .collect();
        RecoveryReport {
            shards,
            events: self.events,
            lost_points: total(|c| c.lost),
            dropped_non_finite: self.dropped_non_finite,
            injected_non_finite: self.injected_non_finite,
            replayed_chunks: total(|c| c.replayed),
            replayed_points: self.replayed_points,
            checkpoints_taken: total(|c| u64::from(c.checkpoints_valid + c.checkpoints_rejected)),
            checkpoints_rejected: total(|c| u64::from(c.checkpoints_rejected)),
            lost_unbounded: self.lost_unbounded,
            lost_hull: self.lost_hull,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SummaryKind;

    fn spiral(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| {
                let t = 2.399963229728653 * i as f64;
                let rad = 1.0 + 0.01 * i as f64;
                Point2::new(rad * t.cos(), rad * t.sin())
            })
            .collect()
    }

    #[test]
    fn fault_plan_consumes_each_fault_once() {
        let mut plan = FaultPlan::new()
            .crash(1, 7)
            .stall(0, 4, Duration::from_millis(50))
            .corrupt_checkpoint(1, 2, 13)
            .non_finite_burst(0, 2, 5);
        assert_eq!(plan.len(), 4);
        assert!(matches!(plan.take_worker_fault(1, 7), Some(Inject::Crash)));
        assert!(plan.take_worker_fault(1, 7).is_none(), "consumed");
        assert!(matches!(
            plan.take_worker_fault(0, 4),
            Some(Inject::Stall(_))
        ));
        assert!(plan.take_corrupt(1, 1).is_none(), "wrong ordinal");
        assert_eq!(plan.take_corrupt(1, 2), Some(13));
        assert!(plan.take_corrupt(1, 2).is_none(), "consumed");
        assert_eq!(plan.take_burst(0, 2), Some(5));
        assert!(plan.take_burst(0, 2).is_none(), "consumed");
        // Mismatched coordinates never fire.
        let mut miss = FaultPlan::new().crash(0, 3);
        assert!(miss.take_worker_fault(1, 3).is_none());
        assert!(miss.take_worker_fault(0, 2).is_none());
    }

    #[test]
    fn seeded_plans_replay_exactly() {
        for seed in [0_u64, 1, 0xdead_beef, u64::MAX] {
            let a = FaultPlan::seeded(seed, 4, 100);
            let b = FaultPlan::seeded(seed, 4, 100);
            assert_eq!(a.scripted(), b.scripted(), "seed {seed}");
            assert!(!a.is_empty() && a.len() <= 3, "seed {seed}");
        }
    }

    #[test]
    fn supervised_crash_recovers_bit_identical() {
        let pts = spiral(4000);
        let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(16), 3)
            .with_chunk(128);
        let clean = engine.run(&pts);
        let supervised = SupervisedIngest::new(engine)
            .with_checkpoint_interval(512)
            .with_fault_plan(FaultPlan::new().crash(1, 10));
        let run = supervised.run_stream(pts.iter().copied());
        assert!(!run.is_degraded());
        assert_eq!(run.report.total_retries(), 1);
        assert_eq!(run.report.shards[1].status, ShardStatus::Recovered);
        assert_eq!(
            run.run.summary.hull_ref().vertices(),
            clean.summary.hull_ref().vertices()
        );
        assert_eq!(run.run.summary.points_seen(), clean.summary.points_seen());
        assert_eq!(run.run.summary.error_bound(), clean.summary.error_bound());
    }

    #[test]
    fn exhausted_retries_degrade_with_exact_accounting() {
        let pts = spiral(4000);
        let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), 2).with_chunk(100);
        // Crash shard 0 more times than the policy tolerates: every
        // replay re-fires the *next* scripted crash.
        let plan = FaultPlan::new().crash(0, 4).crash(0, 4).crash(0, 4);
        let supervised = SupervisedIngest::new(engine)
            .with_checkpoint_interval(200)
            .with_retry_policy(RetryPolicy::new(2))
            .with_fault_plan(plan);
        let run = supervised.run_stream(pts.iter().copied());
        assert!(run.is_degraded());
        assert_eq!(run.report.shards[0].status, ShardStatus::Quarantined);
        let seen: u64 = run.report.shards.iter().map(|s| s.points_seen).sum();
        assert_eq!(
            seen + run.report.lost_points,
            pts.len() as u64,
            "every stream point is either seen by a shard state or accounted lost"
        );
        assert!(run.report.lost_points > 0);
    }

    #[test]
    fn stream_and_slice_entry_points_agree() {
        // Both entry points deal chunk `c` to shard `c % N` in the same
        // chunk-sized batches, and insert_batch is contractually
        // identical to the loop, so the results coincide bit for bit.
        let pts = spiral(700);
        for shards in [1, 3] {
            let engine =
                ShardedIngest::new(SummaryBuilder::new(SummaryKind::Adaptive).with_r(8), shards)
                    .with_chunk(100);
            let a = engine.run(&pts);
            let b = SupervisedIngest::new(engine).run_stream(pts.iter().copied());
            assert!(!b.is_degraded(), "{shards} shards");
            assert_eq!(
                a.summary.encode_snapshot(),
                b.run.summary.encode_snapshot(),
                "{shards} shards"
            );
            let seen = |r: &ShardRun| r.shards.iter().map(|s| s.points_seen).collect::<Vec<_>>();
            assert_eq!(seen(&a), seen(&b.run), "{shards} shards");
        }
        let empty = SupervisedIngest::new(ShardedIngest::new(
            SummaryBuilder::new(SummaryKind::Uniform).with_r(8),
            4,
        ))
        .run_stream(std::iter::empty());
        assert_eq!(empty.run.summary.points_seen(), 0);
        assert_eq!(empty.run.shards.len(), 4);
    }

    #[test]
    #[should_panic(expected = "stall deadline must be non-zero")]
    fn zero_stall_deadline_is_rejected() {
        let engine = ShardedIngest::new(SummaryBuilder::new(SummaryKind::Exact), 2);
        let _ = SupervisedIngest::new(engine).with_stall_timeout(Duration::ZERO);
    }
}
