//! The batched group-commit pipeline.
//!
//! Writers append operations to the open *epoch segment* and receive a
//! [`CommitTicket`] immediately — enqueueing is a mutex push, never tree
//! work. Every submission joins the one open segment (group commit), and
//! each segment becomes exactly one committed epoch — one version, and on
//! a durable store one WAL record — whatever shards its keys route to.
//!
//! A dedicated committer thread, the store's only writer:
//!
//! 1. sleeps until the open segment has work, then lingers only while
//!    waiting can still grow the batch: an estimate of the gap between
//!    submissions decides whether another writer is due before the
//!    configured *group-commit window* runs out, and the first quiet
//!    stretch closes the epoch (see `Pipeline::linger`). The window is
//!    the upper bound on the linger, not a fixed delay: a lone writer
//!    never waits on it;
//! 2. takes the segment atomically (this is what makes an epoch an
//!    all-or-nothing unit: either every operation of an epoch is in the
//!    published version, or none is);
//! 3. normalizes the batch (parallel sort + last-write-wins dedup, see
//!    [`crate::op`]), appends it to the WAL of a durable store, routes
//!    it into per-shard slices and applies each as one work-optimal
//!    `multi_insert` + `multi_delete` to the shard maps, which the
//!    committer alone owns — no lock, no compare-and-swap;
//! 4. publishes every shard's root in the registry as one version,
//!    numbered by the epoch — the one place a new root becomes visible —
//!    then wakes every ticket of the epoch.
//!
//! Tree work per epoch is O(m log(n/m + 1)) for m deduplicated operations
//! — the paper's `multi_insert` bound — regardless of how many writers
//! contributed, which is the whole point of group commit.

use crate::config::ShardedConfig;
use crate::durable::WalPart;
use crate::op::{normalize, WriteOp};
use crate::registry::{Registry, VersionId};
use crate::shard::{apply_routed, ShardKey};
use crate::stats::{CommitTiming, StatsInner};
use pam::AugSpec;
use pam_obs::{event, flight, EpochTrace, FlightRecorder, Level};
use pam_wal::Codec;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The open epoch: its pre-assigned epoch number and its operations.
struct EpochSeg<S: AugSpec> {
    epoch: u64,
    ops: Vec<(u64, WriteOp<S>)>,
    /// When the segment was created — its group-commit window occupancy
    /// (creation to drain) is measured from here.
    opened_at: Instant,
    /// The arrival-gap estimate as the segment's first submission found
    /// it: what the writers before this epoch looked like.
    gap_at_open: Duration,
}

struct PipeState<S: AugSpec> {
    /// The segment submissions join; the committer takes it whole.
    open: Option<EpochSeg<S>>,
    /// Epoch number the next created segment will take.
    next_epoch: u64,
    /// Highest epoch fully applied and published — also the head's
    /// version id.
    committed_epoch: u64,
    /// Global sequence counter for LWW ordering.
    next_seq: u64,
    shutdown: bool,
    /// Set when a WAL append failed: the store is fail-stopped. Holds
    /// the original error so every later panic, the `/health` endpoint,
    /// and the flight dump can name the root cause instead of a generic
    /// "the log failed".
    poisoned: Option<String>,
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
        self.open.is_none()
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
    /// Crossing this op count in the open segment cuts the group-commit
    /// window short.
    max_batch: usize,
    /// Upper bound on how long an open segment lingers for company
    /// ([`ShardedConfig::batch_window`]).
    batch_window: Duration,
}

impl<S: AugSpec> Pipeline<S> {
    /// A pipeline whose last committed epoch is `committed` — the id of
    /// the registry head the committer starts from.
    pub fn new(config: &ShardedConfig, committed: VersionId) -> Self {
        // Settle the flight-recorder anchor before the first segment
        // Instant exists, or early epochs' window timestamps would clamp
        // to zero (see `pam_obs::flight`).
        let _ = flight::anchor();
        Pipeline {
            max_batch: config.max_batch.max(1),
            batch_window: config.batch_window,
            state: Mutex::new(PipeState {
                open: None,
                next_epoch: committed + 1,
                committed_epoch: committed,
                next_seq: 0,
                shutdown: false,
                poisoned: None,
                last_arrival: Instant::now(),
                // no history: assume nobody else is writing
                arrival_gap: config.batch_window,
                awaited_epoch: committed,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// The original WAL error if the store fail-stopped, `None` while
    /// healthy.
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

    /// Enqueue one operation; returns its epoch.
    pub fn submit(self: &Arc<Self>, op: WriteOp<S>) -> CommitTicket<S> {
        self.submit_all(std::iter::once(op))
    }

    /// Enqueue several operations **atomically**: they share an epoch, so
    /// a reader either sees all of them applied or none. An empty
    /// submission is vacuously committed (ticket epoch 0).
    pub fn submit_all(
        self: &Arc<Self>,
        ops: impl IntoIterator<Item = WriteOp<S>>,
    ) -> CommitTicket<S> {
        let mut g = self.state.lock();
        Self::check_poison(&g);
        assert!(!g.shutdown, "store is shutting down");
        let mut ops = ops.into_iter().peekable();
        if ops.peek().is_none() {
            drop(g);
            return CommitTicket {
                epoch: 0,
                pipe: Arc::clone(self),
            };
        }
        let now = Instant::now();
        let was_idle = g.is_idle();
        let st = &mut *g;
        // Join the open segment, or start one.
        let created = st.open.is_none();
        let seg = st.open.get_or_insert_with(|| EpochSeg {
            epoch: st.next_epoch,
            ops: Vec::new(),
            opened_at: now,
            gap_at_open: st.arrival_gap,
        });
        for op in ops {
            seg.ops.push((st.next_seq, op));
            st.next_seq += 1;
        }
        let (epoch, len) = (seg.epoch, seg.ops.len());
        if created {
            st.next_epoch += 1;
        }
        st.note_arrival(now, was_idle, self.batch_window);
        // Wake the committer when the segment is created (starts the
        // group-commit window) and when it crosses the batch cap (cuts
        // the window short, bounding latency and memory).
        if created || len >= self.max_batch {
            self.work.notify_one();
        }
        drop(g);
        CommitTicket {
            epoch,
            pipe: Arc::clone(self),
        }
    }

    /// Wait until everything enqueued so far is committed; returns the
    /// version that contains it.
    pub fn flush(&self) -> VersionId {
        let mut g = self.state.lock();
        // An absent open segment does NOT mean everything is durable: the
        // committer may have taken an epoch and still be applying it.
        // Wait for every epoch handed out so far.
        let target = g.next_epoch - 1;
        g.awaited_epoch = g.awaited_epoch.max(target);
        if g.committed_epoch >= target {
            return g.committed_epoch;
        }
        self.work.notify_one();
        while g.committed_epoch < target {
            Self::check_poison(&g);
            self.done.wait(&mut g);
        }
        g.committed_epoch
    }

    /// Ask the committer to exit once the open segment is drained.
    pub fn begin_shutdown(&self) {
        self.state.lock().shutdown = true;
        self.work.notify_one();
    }

    /// The group-commit window: hold the open epoch while waiting can
    /// still grow it, never past `opened_at + batch_window`.
    ///
    /// Not at the batch cap (the *clamped* cap, so submit and committer
    /// agree even for a `max_batch: 0` config), and not while draining
    /// for shutdown. The gap that counts is the smaller of the current
    /// estimate and the one the epoch's first submission found: the
    /// first writer back after a shared epoch finds the pipeline idle and
    /// pushes the estimate up, but the writers it shared with are right
    /// behind it. The epoch is closed at once unless the window time left
    /// is expected to bring [`LINGER_MIN_ARRIVALS`] more submissions at
    /// that gap — so always for a zero window, and for a closed-loop
    /// writer on its own from its second epoch on, whatever burst came
    /// before. Otherwise the committer sleeps in slices of twice the gap
    /// (at most a quarter of what is left) and closes the epoch on the
    /// first slice that brings no new operation, on any wake-up (`flush`,
    /// the cap crossed, shutdown), or when the window has run out.
    fn linger<'a>(&'a self, mut g: MutexGuard<'a, PipeState<S>>) -> MutexGuard<'a, PipeState<S>> {
        loop {
            let Some(seg) = &g.open else {
                return g;
            };
            if seg.ops.len() >= self.max_batch || g.shutdown {
                return g;
            }
            let remaining = self.batch_window.saturating_sub(seg.opened_at.elapsed());
            let gap = g.arrival_gap.min(seg.gap_at_open);
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
    /// no open segment, or until a WAL append fails. `registry`'s head
    /// holds the shard maps the first epoch applies to; from then on this
    /// loop is the only holder of the current maps between publishes, and
    /// the only caller of [`Registry::publish`].
    ///
    /// On a durable store (`wal` set) every epoch is appended to the log
    /// after normalization and **before** it is applied, published or
    /// acknowledged: when the append returns, the record is as durable as
    /// the [`crate::SyncPolicy`] promises. If the append fails the store
    /// is **poisoned**: the committer stops, buffered writes are dropped,
    /// and every in-flight or future `wait`/`flush`/`submit` panics —
    /// fail-stop beats silently acking writes that never reached the log.
    pub fn run_committer(&self, registry: &Registry<S>, stats: &StatsInner, wal: Option<&WalPart>)
    where
        S::K: Codec + ShardKey,
        S::V: Codec,
    {
        let mut current = registry.pin_head().entry.maps.clone();
        let mut g = self.state.lock();
        loop {
            if g.open.is_none() {
                if g.shutdown {
                    return;
                }
                self.work.wait(&mut g);
                continue;
            }
            g = self.linger(g);
            // Take the open epoch atomically (linger's waits let
            // submitters join it, never take it).
            let Some(seg) = g.open.take() else { continue };
            drop(g);
            let (epoch, opened_at) = (seg.epoch, seg.opened_at);
            // Window occupancy: segment creation → drained by us.
            let window = opened_at.elapsed();

            let t0 = Instant::now();
            let normalized = normalize::<S>(seg.ops);
            let t_normalized = Instant::now();
            let batch_len = normalized.len();
            let raw_ops = normalized.raw_ops;
            // WAL first: the epoch must be durable before it is applied
            // or acked (tickets are still blocked here). A failed append
            // fail-stops the store.
            if let Some(wal) = wal {
                if let Err(e) = wal.append(epoch, &normalized) {
                    let reason = format!("WAL append failed for epoch {epoch}: {e}");
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
                    g.open = None;
                    self.done.notify_all();
                    return;
                }
            }
            let t_logged = Instant::now();
            // Apply outside any lock: this thread is the only writer, so
            // the current maps are plain locals and the batch vectors are
            // *moved* into the tree ops — no per-commit clone. Published
            // versions are untouched (path copying).
            apply_routed(&mut current, normalized.puts, normalized.deletes);
            let t_applied = Instant::now();
            // O(1) per shard snapshot of the result: the one publication
            // point. The replaced head dies here, before the tickets wake
            // (so a writer's next `stats()` does not count it) and outside
            // the registry lock: unless somebody pinned it, this drop
            // frees the nodes the epoch path-copied away from.
            drop(registry.publish(epoch, current.clone()));
            let t_published = Instant::now();
            stats.record_commit(
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
                epoch,
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
    /// Block until the write is published (on a durable store: logged
    /// first); returns the id of the version its epoch produced — the
    /// current head for an empty submission, which has no epoch.
    ///
    /// # Panics
    ///
    /// If the store was poisoned by a failed WAL append (the write may
    /// never become durable).
    pub fn wait(&self) -> VersionId {
        let mut g = self.pipe.state.lock();
        g.awaited_epoch = g.awaited_epoch.max(self.epoch);
        while g.committed_epoch < self.epoch {
            Pipeline::check_poison(&g);
            self.pipe.done.wait(&mut g);
        }
        match self.epoch {
            0 => g.committed_epoch,
            epoch => epoch,
        }
    }

    /// Has the epoch committed yet (non-blocking)?
    pub fn is_done(&self) -> bool {
        self.pipe.state.lock().committed_epoch >= self.epoch
    }

    /// The epoch — and so the version — the write commits in: one number
    /// for every shard its keys route to. `None` only for an empty
    /// submission, which commits nothing.
    pub fn global_epoch(&self) -> Option<u64> {
        (self.epoch != 0).then_some(self.epoch)
    }
}
