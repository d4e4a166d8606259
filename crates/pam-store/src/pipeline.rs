//! The batched group-commit pipeline.
//!
//! Writers append operations to the open *epoch segment* and receive a
//! [`CommitTicket`] immediately — enqueueing is a mutex push, never tree
//! work. The buffer is a FIFO queue of segments, each of which becomes
//! exactly one committed epoch:
//!
//! * plain submissions (`Pipeline::submit_all`) pile into the open
//!   segment at the queue's back, sharing its epoch (group commit);
//! * a **sealed** submission (`Pipeline::submit_sealed`) — one shard's
//!   slice of a cross-shard atomic batch, tagged with a
//!   [`GlobalStamp`] — always gets a segment (and therefore a WAL
//!   record) of its own, so crash recovery can commit or discard the
//!   whole batch at record granularity.
//!
//! A dedicated committer thread:
//!
//! 1. sleeps until a segment has work, then — when the sole queued
//!    segment is an open one — lingers only while waiting can still grow
//!    the batch: an estimate of the gap between submissions decides
//!    whether another writer is due before the configured *group-commit
//!    window* runs out, and the first quiet stretch closes the epoch (see
//!    `Pipeline::linger`). The window is the upper bound on the linger,
//!    not a fixed delay: a lone writer never waits on it;
//! 2. pops the front segment atomically (this is what makes an epoch an
//!    all-or-nothing unit: either every operation of an epoch is in the
//!    published version, or none is);
//! 3. normalizes the batch (parallel sort + last-write-wins dedup, see
//!    [`crate::op`]) and applies it as one work-optimal
//!    `multi_insert` + `multi_delete` to the current map, which the
//!    committer alone owns — no lock, no compare-and-swap;
//! 4. publishes the result in the registry as version `previous + 1` —
//!    the one place a new root becomes visible — then wakes every ticket
//!    of the epoch.
//!
//! Tree work per epoch is O(m log(n/m + 1)) for m deduplicated operations
//! — the paper's `multi_insert` bound — regardless of how many writers
//! contributed, which is the whole point of group commit.

use crate::config::StoreConfig;
use crate::op::{normalize, NormalizedBatch, WriteOp};
use crate::registry::Registry;
use crate::stats::{CommitTiming, StatsInner};
use pam::{AugMap, AugSpec};
use pam_obs::{event, flight, EpochTrace, FlightRecorder, Level};
use pam_wal::GlobalStamp;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The committer's durability extension point (implemented by the WAL
/// writer of a durable [`crate::Store`]; see
/// [`crate::VersionedStore::with_commit_hook`]).
///
/// Ordering contract, per epoch:
///
/// 1. [`CommitHook::log_epoch`] runs after normalization and **before**
///    the epoch is applied, published, or acknowledged. When it returns
///    `Ok`, the record must be as durable as the hook's policy promises —
///    every [`CommitTicket`] of the epoch is still blocked at this point.
///    `global` is the cross-shard batch stamp when the epoch is a sealed
///    slice of a multi-shard `write_batch` (`None` otherwise); a durable
///    hook must persist it with the record, because recovery's atomicity
///    vote depends on it.
/// 2. [`CommitHook::epoch_published`] runs after the version is visible
///    in the registry and *before* tickets wake, so anything the hook
///    records (e.g. the highest published epoch a checkpoint may claim)
///    is conservative.
///
/// If `log_epoch` fails the store is **poisoned**: the committer stops,
/// buffered writes are dropped, and every in-flight or future
/// `wait`/`flush`/`submit` panics — fail-stop beats silently acking
/// writes that never reached the log.
pub trait CommitHook<S: AugSpec>: Send + Sync {
    /// Make the normalized epoch durable.
    ///
    /// # Errors
    ///
    /// Any error poisons the store (fail-stop): the committer exits and
    /// every subsequent submit/wait/flush panics.
    fn log_epoch(
        &self,
        epoch: u64,
        global: Option<GlobalStamp>,
        batch: &NormalizedBatch<S>,
    ) -> std::io::Result<()>;

    /// The epoch's version is now readable in the registry.
    fn epoch_published(&self, epoch: u64, version: u64) {
        let _ = (epoch, version);
    }
}

/// The arrival-gap estimate moves `1/GAP_WEIGHT` of the way to each new
/// sample (see [`PipeState::note_arrival`]).
const GAP_WEIGHT: u32 = 4;

/// The committer sleeps for company only while at least this many more
/// submissions are expected before the window runs out. A timed sleep
/// costs timer slack plus a wake-up — tens of microseconds, the commit
/// work of several operations — while writers that arrive during a commit
/// share the next epoch for free, so waiting for one or two is a loss.
/// Measured on the serving spec (EXPERIMENTS §12): at 1 or 2, two to four
/// lockstep writers are held for most of the window; at 16, sixteen stop
/// sharing epochs. Must be at least [`GAP_WEIGHT`]: a submission that
/// finds the pipeline idle lifts the estimate to `window / GAP_WEIGHT`,
/// which then has to rule a linger out.
const LINGER_MIN_ARRIVALS: u32 = 8;
const _: () = assert!(LINGER_MIN_ARRIVALS >= GAP_WEIGHT);

/// One queued epoch: its pre-assigned epoch number, its operations, and
/// (for a sealed cross-shard slice) the batch stamp.
struct EpochSeg<S: AugSpec> {
    epoch: u64,
    global: Option<GlobalStamp>,
    ops: Vec<(u64, WriteOp<S>)>,
    /// Sealed segments never accept further operations (cross-shard
    /// slices must map 1:1 onto WAL records); the open segment at the
    /// queue's back keeps accumulating until the committer pops it.
    sealed: bool,
    /// When the segment was created — its group-commit window occupancy
    /// (creation to drain) is measured from here.
    opened_at: Instant,
    /// The arrival-gap estimate as the segment's first submission found
    /// it: what the writers before this epoch looked like.
    gap_at_open: Duration,
}

/// Epoch numbering starts at 1 so "nothing committed yet" is 0.
struct PipeState<S: AugSpec> {
    /// FIFO queue of epoch segments; the back may be an open (unsealed)
    /// segment that plain submissions keep joining.
    queue: VecDeque<EpochSeg<S>>,
    /// Epoch number the next created segment will take.
    next_epoch: u64,
    /// Highest epoch fully applied and published.
    committed_epoch: u64,
    /// Version that made `committed_epoch` durable.
    committed_version: u64,
    /// Global sequence counter for LWW ordering.
    next_seq: u64,
    shutdown: bool,
    /// Set when the commit hook failed: the store is fail-stopped. Holds
    /// the original hook error so every later panic, the `/health`
    /// endpoint, and the flight dump can name the root cause instead of
    /// a generic "a commit hook failed".
    poisoned: Option<String>,
    /// While true, `submit` blocks (the committer keeps draining): the
    /// quiesce point sharded snapshots use as their epoch barrier.
    barrier: bool,
    /// When the latest submission arrived.
    last_arrival: Instant,
    /// Moving average of the gap between consecutive submissions, each
    /// sample at most `batch_window` (see [`PipeState::note_arrival`]):
    /// the committer's estimate of how soon another writer is due.
    arrival_gap: Duration,
    /// Highest epoch somebody has waited for ([`CommitTicket::wait`],
    /// [`Pipeline::flush`]): tells a writer that blocks on its acks from
    /// one that fires and forgets.
    awaited_epoch: u64,
}

impl<S: AugSpec> PipeState<S> {
    /// Nothing queued, nothing being committed, and the latest epoch was
    /// waited for: whoever wrote last was blocked on the committer until
    /// it finished, so a submission that finds the pipeline like this is a
    /// writer coming back, not one of a crowd. A fire-and-forget stream
    /// never waits, so it is never idle in this sense — not even when the
    /// committer keeps pace with it one operation at a time.
    fn is_idle(&self) -> bool {
        self.queue.is_empty()
            && self.committed_epoch + 1 == self.next_epoch
            && self.awaited_epoch >= self.committed_epoch
    }

    /// Fold one submission into the arrival-gap estimate. `was_idle` is
    /// [`Self::is_idle`] as the submission found the pipeline: such an
    /// arrival had nobody to share an epoch with, so it counts as a whole
    /// window of silence whatever the clock says — a lone closed-loop
    /// writer (submit, wait, submit) therefore keeps the estimate pinned
    /// at `window`, while every further member of a burst pulls it
    /// `1/GAP_WEIGHT` of the way down to the burst's spacing. The mix
    /// tells group sizes apart: two or three lockstep writers average
    /// out sparse, sixteen dense. Submissions nobody waits for are timed
    /// by the clock alone, so a steady stream of them is held for company
    /// however fast each one commits.
    fn note_arrival(&mut self, now: Instant, was_idle: bool, window: Duration) {
        let sample = if was_idle {
            window
        } else {
            now.saturating_duration_since(self.last_arrival).min(window)
        };
        self.arrival_gap = self.arrival_gap - self.arrival_gap / GAP_WEIGHT + sample / GAP_WEIGHT;
        self.last_arrival = now;
    }
}

pub(crate) struct Pipeline<S: AugSpec> {
    state: Mutex<PipeState<S>>,
    /// Wakes the committer (work arrived / batch cap crossed / shutdown).
    work: Condvar,
    /// Wakes ticket holders (an epoch committed).
    done: Condvar,
    /// Wakes submitters blocked on a barrier (see [`Pipeline::begin_barrier`]).
    gate: Condvar,
    /// Crossing this op count in the open segment cuts the group-commit
    /// window short.
    max_batch: usize,
    /// Upper bound on how long an open segment lingers for company
    /// ([`StoreConfig::batch_window`]).
    batch_window: Duration,
    /// Shared with the owning store: the committer and `admit()` record
    /// into it directly.
    stats: Arc<StatsInner>,
    /// Track id (shard index) stamped onto the [`EpochTrace`]s this
    /// pipeline records into the process flight ring; set by the store
    /// at assembly time.
    trace_shard: AtomicU32,
}

impl<S: AugSpec> Pipeline<S> {
    pub fn new(config: &StoreConfig, stats: Arc<StatsInner>) -> Self {
        // Settle the flight-recorder anchor before the first segment
        // Instant exists, or early epochs' window timestamps would clamp
        // to zero (see `pam_obs::flight`).
        let _ = flight::anchor();
        Pipeline {
            max_batch: config.max_batch.max(1),
            batch_window: config.batch_window,
            stats,
            state: Mutex::new(PipeState {
                queue: VecDeque::new(),
                next_epoch: 1,
                committed_epoch: 0,
                committed_version: 0,
                next_seq: 0,
                shutdown: false,
                poisoned: None,
                barrier: false,
                last_arrival: Instant::now(),
                // no history: assume nobody else is writing
                arrival_gap: config.batch_window,
                awaited_epoch: 0,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            gate: Condvar::new(),
            trace_shard: AtomicU32::new(0),
        }
    }

    /// Stamp all future flight-ring traces with `shard` (the store
    /// labels each member pipeline with its index so the Chrome export
    /// gets one track per shard).
    pub fn set_trace_shard(&self, shard: u32) {
        // relaxed: a trace label set once at construction; readers only
        // stamp diagnostics with it
        self.trace_shard.store(shard, Ordering::Relaxed);
    }

    /// The original commit-hook error if the store fail-stopped, `None`
    /// while healthy.
    pub fn poison_reason(&self) -> Option<String> {
        self.state.lock().poisoned.clone()
    }

    /// Panic with the stored root cause if the store is poisoned.
    fn check_poison(g: &PipeState<S>) {
        if let Some(reason) = &g.poisoned {
            // lint: allow(panic) poisoning is the designed fail-stop:
            // once a committer died mid-epoch, every subsequent call
            // must refuse loudly rather than serve a half-applied state
            panic!("store poisoned: {reason}");
        }
    }

    /// Park while a snapshot barrier is up, then check liveness.
    fn admit<'a>(&'a self, mut g: MutexGuard<'a, PipeState<S>>) -> MutexGuard<'a, PipeState<S>> {
        // A barrier (sharded snapshot in progress) parks submitters until
        // it lifts; the committer keeps draining, so the wait is one
        // flush, not a stall. Parked time feeds the barrier-wait
        // histogram (and the `fence_waits` counter).
        if g.barrier {
            let parked = Instant::now();
            while g.barrier {
                self.gate.wait(&mut g);
            }
            self.stats.record_fence_wait(parked.elapsed());
        }
        Self::check_poison(&g);
        assert!(!g.shutdown, "store is shutting down");
        g
    }

    /// Enqueue one operation; returns its epoch.
    pub fn submit(self: &Arc<Self>, op: WriteOp<S>) -> CommitTicket<S> {
        self.submit_all(std::iter::once(op))
    }

    /// Enqueue several operations **atomically**: they share an epoch, so
    /// a reader either sees all of them applied or none.
    pub fn submit_all(
        self: &Arc<Self>,
        ops: impl IntoIterator<Item = WriteOp<S>>,
    ) -> CommitTicket<S> {
        let mut g = self.admit(self.state.lock());
        let now = Instant::now();
        let was_idle = g.is_idle();
        // Join the open segment at the back, or start one.
        let open_at_back = g.queue.back().is_some_and(|seg| !seg.sealed);
        if !open_at_back {
            let epoch = g.next_epoch;
            g.next_epoch += 1;
            let gap_at_open = g.arrival_gap;
            g.queue.push_back(EpochSeg {
                epoch,
                global: None,
                ops: Vec::new(),
                sealed: false,
                opened_at: now,
                gap_at_open,
            });
        }
        let mut pushed = false;
        let was_empty;
        {
            let seq0 = g.next_seq;
            // lint: allow(panic) the block above pushed a segment if the
            // back was sealed or the queue empty — an open back segment
            // is this function's loop invariant
            let seg = g.queue.back_mut().expect("open segment present");
            was_empty = seg.ops.is_empty();
            let mut seq = seq0;
            for op in ops {
                seg.ops.push((seq, op));
                seq += 1;
                pushed = true;
            }
            g.next_seq = seq;
        }
        let (seg_epoch, seg_len) = {
            // lint: allow(panic) same invariant as above, still under the
            // same state guard
            let seg = g.queue.back().expect("open segment present");
            (seg.epoch, seg.ops.len())
        };
        // An empty submission is vacuously durable (epoch 0 counts as
        // always-committed). Drop a freshly created empty segment so the
        // committer never sees zero-op epochs.
        let epoch = if pushed {
            g.note_arrival(now, was_idle, self.batch_window);
            seg_epoch
        } else {
            if !open_at_back {
                g.queue.pop_back();
                g.next_epoch -= 1;
            }
            0
        };
        // Wake the committer when the segment gets its first op (starts
        // the group-commit window) and when it crosses the batch cap
        // (cuts the window short, bounding latency and memory).
        if pushed && (was_empty || seg_len >= self.max_batch) {
            self.work.notify_one();
        }
        drop(g);
        CommitTicket {
            epoch,
            pipe: Arc::clone(self),
        }
    }

    /// Enqueue a **sealed** epoch: `ops` get a segment of their own —
    /// one epoch, one WAL record — tagged with the cross-shard batch
    /// stamp. The store submits each shard's slice of a multi-shard
    /// `write_batch` this way so recovery can commit or
    /// discard the batch at record granularity. An empty `ops` is
    /// vacuously durable (ticket epoch 0), mirroring [`Self::submit_all`].
    pub fn submit_sealed(
        self: &Arc<Self>,
        ops: Vec<WriteOp<S>>,
        global: Option<GlobalStamp>,
    ) -> CommitTicket<S> {
        if ops.is_empty() {
            return CommitTicket {
                epoch: 0,
                pipe: Arc::clone(self),
            };
        }
        let mut g = self.admit(self.state.lock());
        let now = Instant::now();
        let was_idle = g.is_idle();
        let gap_at_open = g.arrival_gap;
        g.note_arrival(now, was_idle, self.batch_window);
        let epoch = g.next_epoch;
        g.next_epoch += 1;
        let seq0 = g.next_seq;
        let tagged: Vec<(u64, WriteOp<S>)> = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| (seq0 + i as u64, op))
            .collect();
        g.next_seq = seq0 + tagged.len() as u64;
        g.queue.push_back(EpochSeg {
            epoch,
            global,
            ops: tagged,
            sealed: true,
            opened_at: now,
            gap_at_open,
        });
        self.work.notify_one();
        drop(g);
        CommitTicket {
            epoch,
            pipe: Arc::clone(self),
        }
    }

    /// Wait until everything enqueued so far is committed; returns the
    /// version that contains it.
    pub fn flush(&self) -> u64 {
        let mut g = self.state.lock();
        // An empty queue does NOT mean everything is durable: the
        // committer may have popped an epoch and still be applying it.
        // Wait for every epoch handed out so far.
        let target = match g.queue.back() {
            Some(seg) => seg.epoch,
            None => g.next_epoch - 1,
        };
        g.awaited_epoch = g.awaited_epoch.max(target);
        if g.committed_epoch >= target {
            return g.committed_version;
        }
        self.work.notify_one();
        while g.committed_epoch < target {
            Self::check_poison(&g);
            self.done.wait(&mut g);
        }
        g.committed_version
    }

    /// Ask the committer to exit once the queue is drained.
    pub fn begin_shutdown(&self) {
        self.state.lock().shutdown = true;
        self.work.notify_one();
    }

    /// Raise the submit barrier: operations already buffered keep
    /// committing, but new `submit` calls block until
    /// [`Pipeline::end_barrier`]. Barriers on one pipeline are serialized
    /// against each other. This is the per-shard half of a consistent
    /// cross-shard snapshot: barrier every shard, flush, pin, release.
    /// (The cross-shard half — no batch may be *half-submitted* when the
    /// barriers go up — is the store's epoch fence.)
    pub fn begin_barrier(&self) {
        let mut g = self.state.lock();
        while g.barrier {
            self.gate.wait(&mut g);
        }
        g.barrier = true;
    }

    /// Lower the submit barrier and wake parked submitters.
    pub fn end_barrier(&self) {
        self.state.lock().barrier = false;
        self.gate.notify_all();
    }

    /// The group-commit window: hold the front epoch open while waiting
    /// can still grow it, never past `opened_at + batch_window`.
    ///
    /// Only a lone open segment lingers — not one at the batch cap (the
    /// *clamped* cap, so submit and committer agree even for a
    /// `max_batch: 0` config), not while draining for shutdown, and not
    /// with segments queued behind it (those commit back-to-back). The
    /// gap that counts is the smaller of the current estimate and the one
    /// the epoch's first submission found: the first writer back after a
    /// shared epoch finds the pipeline idle and pushes the estimate up,
    /// but the writers it shared with are right behind it. The epoch is
    /// closed at once unless the window time left is expected to bring
    /// [`LINGER_MIN_ARRIVALS`] more submissions at that gap — so always
    /// for a zero window, and for a closed-loop writer on its own from
    /// its second epoch on, whatever burst came before. Otherwise the
    /// committer sleeps in slices of twice the gap (at most a quarter of
    /// what is left) and closes the epoch on the first slice that brings
    /// no new operation, on any wake-up (`flush`, a sealed slice queued
    /// behind, the cap crossed, shutdown), or when the window has run
    /// out.
    fn linger<'a>(&'a self, mut g: MutexGuard<'a, PipeState<S>>) -> MutexGuard<'a, PipeState<S>> {
        loop {
            let Some(front) = g.queue.front() else {
                return g;
            };
            if g.queue.len() > 1 || front.sealed || front.ops.len() >= self.max_batch || g.shutdown
            {
                return g;
            }
            let remaining = self.batch_window.saturating_sub(front.opened_at.elapsed());
            let gap = g.arrival_gap.min(front.gap_at_open);
            if gap.saturating_mul(LINGER_MIN_ARRIVALS) >= remaining {
                return g;
            }
            let slice = gap.saturating_mul(2);
            let seen = g.next_seq;
            let woken = !self.work.wait_timeout(&mut g, slice).timed_out();
            if woken || g.next_seq == seen {
                return g;
            }
        }
    }

    /// The committer loop. Runs on its own thread until shutdown *and*
    /// empty queue (or until the commit hook fails — see [`CommitHook`]).
    /// `registry`'s head is the map the first epoch applies to; from then
    /// on this loop is the only holder of the current map between
    /// publishes, and the only caller of [`Registry::publish`].
    pub fn run_committer(&self, registry: &Registry<S>, hook: Option<&dyn CommitHook<S>>) {
        let (mut current, mut version): (AugMap<S>, u64) = {
            let head = registry.pin_head();
            (head.map().clone(), head.id())
        };
        let mut g = self.state.lock();
        loop {
            if g.queue.is_empty() {
                if g.shutdown {
                    return;
                }
                self.work.wait(&mut g);
                continue;
            }
            g = self.linger(g);
            // Pop the front epoch atomically.
            // lint: allow(panic) checked non-empty above, and only this
            // thread pops (linger's waits let submitters push, never pop)
            let seg = g.queue.pop_front().expect("front segment present");
            drop(g);
            let (epoch, global, batch) = (seg.epoch, seg.global, seg.ops);
            let opened_at = seg.opened_at;
            // Window occupancy: segment creation → drained by us.
            let window = opened_at.elapsed();

            let t0 = Instant::now();
            let normalized = normalize::<S>(batch);
            let t_normalized = Instant::now();
            let batch_len = normalized.puts.len() + normalized.deletes.len();
            let raw_ops = normalized.raw_ops;
            // WAL first: the epoch must be durable before it is applied
            // or acked (tickets are still blocked here). A hook failure
            // fail-stops the store.
            if let Some(h) = hook {
                if let Err(e) = h.log_epoch(epoch, global, &normalized) {
                    let reason = format!("commit hook (WAL) failed for epoch {epoch}: {e}");
                    eprintln!("pam-store: {reason}; poisoning store");
                    event!(
                        Level::Error,
                        "pam_store::pipeline",
                        "{reason}; poisoning store"
                    );
                    // Leave the black box next to the WAL before any
                    // waiter panics: the dump names this epoch as the
                    // root cause (first-wins, so a later panic hook
                    // firing for a cascading waiter changes nothing).
                    flight::dump_registered(&reason, Some(epoch));
                    let mut g = self.state.lock();
                    g.poisoned = Some(reason);
                    g.shutdown = true;
                    g.queue.clear();
                    self.done.notify_all();
                    return;
                }
            }
            let t_logged = Instant::now();
            // Apply outside any lock: this thread is the only writer, so
            // the current map is a plain local and the batch vectors are
            // *moved* into the tree ops — no per-commit clone. Published
            // versions are untouched (path copying).
            if !normalized.puts.is_empty() {
                current.multi_insert(normalized.puts);
            }
            if !normalized.deletes.is_empty() {
                current.multi_delete(normalized.deletes);
            }
            version += 1;
            let t_applied = Instant::now();
            // O(1) snapshot of the result: the one publication point.
            // The replaced head dies here, before the tickets wake (so a
            // writer's next `stats()` does not count it) and outside the
            // registry lock: unless somebody pinned it, this drop frees
            // the nodes the epoch path-copied away from.
            drop(registry.publish(version, current.clone(), batch_len));
            if let Some(h) = hook {
                // after publish, before tickets wake: the hook's notion of
                // "published through epoch E" stays conservative
                h.epoch_published(epoch, version);
            }
            let t_published = Instant::now();
            self.stats.record_commit(
                raw_ops,
                batch_len,
                CommitTiming {
                    total: t_published - t0,
                    window,
                    normalize: t_normalized - t0,
                    wal_log: t_logged - t_normalized,
                    apply: t_applied - t_logged,
                    publish: t_published - t_applied,
                },
            );
            // Flight recorder: one stage timeline per committed epoch in
            // the process-global ring (served at `/trace`, dumped on
            // poison/panic). Outside the pipeline lock — one short mutex
            // push per *epoch*, not per operation.
            FlightRecorder::global().record(EpochTrace {
                // relaxed: diagnostics label, see set_trace_shard
                shard: self.trace_shard.load(Ordering::Relaxed),
                epoch,
                global_epoch: global.map(|s| s.epoch),
                raw_ops: raw_ops as u64,
                applied_ops: batch_len as u64,
                open_ns: flight::instant_ns(opened_at),
                drain_ns: flight::instant_ns(t0),
                normalize_ns: (t_normalized - t0).as_nanos() as u64,
                wal_log_ns: (t_logged - t_normalized).as_nanos() as u64,
                apply_ns: (t_applied - t_logged).as_nanos() as u64,
                publish_ns: (t_published - t_applied).as_nanos() as u64,
            });

            g = self.state.lock();
            g.committed_epoch = epoch;
            g.committed_version = version;
            self.done.notify_all();
        }
    }
}

/// A receipt for enqueued write(s): [`CommitTicket::wait`] blocks until
/// the epoch containing them is applied and published.
pub struct CommitTicket<S: AugSpec> {
    epoch: u64,
    pipe: Arc<Pipeline<S>>,
}

impl<S: AugSpec> CommitTicket<S> {
    /// Block until the write is durable; returns the id of a version that
    /// contains it (the epoch's own version, by construction).
    ///
    /// # Panics
    ///
    /// If the store was poisoned by a failed commit hook (the write may
    /// never become durable).
    pub fn wait(&self) -> u64 {
        let mut g = self.pipe.state.lock();
        g.awaited_epoch = g.awaited_epoch.max(self.epoch);
        while g.committed_epoch < self.epoch {
            Pipeline::check_poison(&g);
            self.pipe.done.wait(&mut g);
        }
        g.committed_version
    }

    /// Has the epoch committed yet (non-blocking)?
    pub fn is_done(&self) -> bool {
        self.pipe.state.lock().committed_epoch >= self.epoch
    }
}
