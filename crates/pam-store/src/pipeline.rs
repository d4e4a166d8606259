//! The batched group-commit pipeline.
//!
//! Writers append operations to the open *epoch segment* and receive a
//! [`CommitTicket`] immediately — enqueueing is a mutex push, never tree
//! work. Every submission joins the one open segment (group commit), and
//! each segment becomes exactly one committed epoch — one version, and on
//! a durable store one WAL record.
//!
//! Committing is a role, not a thread. One routine (`commit`) turns the
//! open segment into an epoch, and whoever runs it *holds the commit*
//! (`PipeState::committing`), so epochs commit one at a time, in epoch
//! order, each onto the head the previous one published. It:
//!
//! 1. takes the segment atomically (this is what makes an epoch an
//!    all-or-nothing unit: either every operation of an epoch is in the
//!    published version, or none is);
//! 2. normalizes the batch (parallel sort + last-write-wins dedup, see
//!    [`crate::op`]), appends it to the WAL of a durable store and
//!    applies it to the head's map as one work-optimal `multi_update` —
//!    puts and deletes in one walk of the map — with no compare-and-swap
//!    and no lock: only the commit holder publishes a head;
//! 3. publishes the new root in the registry as one version, numbered
//!    by the epoch — the one place a new root becomes visible — drops
//!    the replaced head, then wakes every ticket of the epoch. A failed
//!    append poisons the store instead.
//!
//! Two kinds of caller run it:
//!
//! * **a writer waiting on its ticket** ([`CommitTicket::wait`]) commits
//!   its own epoch when it is the only thread waiting, its epoch is the
//!   open segment, no commit is running and the linger rule would close
//!   the segment now (`Pipeline::may_lead`). A lone closed-loop writer
//!   thus commits on its own thread and never sleeps: no hand-off to
//!   another thread, and no wake-up back;
//! * **the store's committer thread** runs it for everything else: it
//!   sleeps until the open segment has work, then lingers only while
//!   waiting can still grow the batch — an estimate of the gap between
//!   submissions decides whether another writer is due before the
//!   configured *group-commit window* runs out, and the first quiet
//!   stretch closes the epoch (see `Pipeline::linger`). It commits
//!   lingering crowds, fire-and-forget streams, `flush` and the shutdown
//!   drain. It is woken only when it has something to do: a segment
//!   created while it is parked, and — since it parks while a writer
//!   holds the commit — a segment a waiting writer leaves behind when
//!   that commit ends (`Pipeline::hand_over`), so no operation is left
//!   uncommitted because nobody waits on it.
//!
//! The window is the upper bound on the linger, not a fixed delay: a
//! lone writer never waits on it.
//!
//! Tree work per epoch is O(m log(n/m + 1)) for m deduplicated operations
//! — the paper's `multi_insert` bound — regardless of how many writers
//! contributed, which is the whole point of group commit.

use crate::config::ShardedConfig;
use crate::op::{self, normalize, WriteOp};
use crate::registry::VersionId;
use crate::stats::CommitTiming;
use crate::store::Core;
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
    /// Opened by a submission that found the pipeline idle — a writer
    /// coming back for its next ack — and shown no interest by anyone
    /// else since: no other submission joined it and no waiter had to
    /// leave it to the committer thread. Its writer is about to wait on
    /// it and commit it itself, so the committer thread leaves it alone
    /// (see [`Pipeline::left_to_its_writer`]).
    lone: bool,
}

struct PipeState<S: AugSpec> {
    /// The segment submissions join; the commit takes it whole.
    open: Option<EpochSeg<S>>,
    /// Epoch number the next created segment will take.
    next_epoch: u64,
    /// Highest epoch fully applied and published — also the head's
    /// version id.
    committed_epoch: u64,
    /// Somebody holds the commit: it took a segment and has not yet
    /// published it (or poisoned the store). Only the holder publishes a
    /// head, so the head it starts from is the previous epoch's; the next
    /// segment waits for the flag to clear, which keeps commits one at a
    /// time and in epoch order.
    committing: bool,
    /// Threads blocked in [`CommitTicket::wait`] or [`Pipeline::flush`]
    /// on an epoch not yet committed: a writer leads only when it would
    /// be the first, and a commit wakes tickets only when there are any.
    waiters: usize,
    /// The epoch whose segment the committer thread is sleeping on in
    /// [`Pipeline::linger`] — it takes that segment by itself, so nobody
    /// has to wake it for that one. `None` while it runs a commit or is
    /// parked with nothing to do.
    watched: Option<u64>,
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
    /// the linger rule's estimate of how soon another writer is due.
    arrival_gap: Duration,
    /// Highest epoch somebody has waited for ([`CommitTicket::wait`],
    /// [`Pipeline::flush`]): tells a writer that blocks on its acks from
    /// one that fires and forgets.
    awaited_epoch: u64,
}

impl<S: AugSpec> PipeState<S> {
    /// Nothing queued, nothing being committed, and the latest epoch was
    /// waited for: whoever wrote last was blocked on the commit until it
    /// finished, so a submission that finds the pipeline like this is a
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
    /// Wakes the committer thread: a segment created while it is parked,
    /// a lone epoch that got company, the batch cap crossed, a segment
    /// handed over ([`Pipeline::hand_over`]), `flush`, shutdown.
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
    /// A pipeline whose last committed epoch — the registry head's
    /// version — is `committed`.
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
                committing: false,
                waiters: 0,
                watched: None,
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
            // once a commit died mid-epoch, every subsequent call must
            // refuse loudly rather than serve a half-applied state
            panic!("store poisoned: {reason}");
        }
    }

    /// Enqueue several operations **atomically**: they share an epoch, so
    /// a reader either sees all of them applied or none. Returns the
    /// epoch; an empty submission is vacuously committed (epoch 0).
    pub fn submit_all(&self, ops: impl IntoIterator<Item = WriteOp<S>>) -> u64 {
        let mut g = self.state.lock();
        Self::check_poison(&g);
        assert!(!g.shutdown, "store is shutting down");
        let mut ops = ops.into_iter().peekable();
        if ops.peek().is_none() {
            return 0;
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
            lone: was_idle,
        });
        // Company: the epoch is the committer thread's to linger on now.
        let joined_lone = !created && std::mem::take(&mut seg.lone);
        for op in ops {
            seg.ops.push((st.next_seq, op));
            st.next_seq += 1;
        }
        let (epoch, len) = (seg.epoch, seg.ops.len());
        if created {
            st.next_epoch += 1;
        }
        st.note_arrival(now, was_idle, self.batch_window);
        // Wake the committer thread when it is parked and a segment is
        // created (starts the group-commit window — nobody may ever wait
        // on it), when a lone writer's epoch gets company, and when the
        // segment crosses the batch cap (cuts the window short, bounding
        // latency and memory). Not parked, it finds a created segment by
        // itself: after the commit it is running, or when the linger it
        // is sleeping in ends — before the new segment's own window
        // does. A commit a writer is running is handed over when it ends
        // (`Pipeline::hand_over`).
        let parked = !st.committing && st.watched.is_none();
        if (created && parked) || joined_lone || len >= self.max_batch {
            self.work.notify_one();
        }
        epoch
    }

    /// Wait until everything enqueued so far is committed; returns the
    /// version that contains it.
    pub fn flush(&self) -> VersionId {
        let mut g = self.state.lock();
        // An absent open segment does NOT mean everything is durable: a
        // commit may have taken an epoch and still be applying it. Wait
        // for every epoch handed out so far.
        let target = g.next_epoch - 1;
        g.awaited_epoch = g.awaited_epoch.max(target);
        if g.committed_epoch >= target {
            return g.committed_epoch;
        }
        // cut a linger short: the caller wants the epochs now
        self.work.notify_one();
        while g.committed_epoch < target {
            Self::check_poison(&g);
            self.hand_over(&mut g, false);
            self.wait_done(&mut g);
        }
        self.hand_over(&mut g, true);
        g.committed_epoch
    }

    /// Block until a commit ends, counted in [`PipeState::waiters`].
    fn wait_done(&self, g: &mut MutexGuard<'_, PipeState<S>>) {
        g.waiters += 1;
        self.done.wait(g);
        g.waiters -= 1;
    }

    /// A thread in [`CommitTicket::wait`] or [`Self::flush`] that will not
    /// commit the open segment itself — it is about to sleep, or to
    /// return — makes sure the committer thread does, and learns of a
    /// drain asked for while the commit was held. Nothing to do while a
    /// commit runs (its end comes back here), or while the committer
    /// thread lingers on this very segment. A lone writer's segment stays
    /// its writer's, unless the caller is a waiter that cannot lead it. A
    /// caller returning while others still wait leaves it to them: the
    /// commit that ended woke them, and one of them may lead the segment.
    fn hand_over(&self, g: &mut PipeState<S>, returning: bool) {
        if g.committing || (returning && g.waiters > 0) {
            return;
        }
        let watched = g.watched;
        let needed = match &mut g.open {
            Some(seg) if seg.lone => !returning && std::mem::take(&mut seg.lone),
            Some(seg) => watched != Some(seg.epoch),
            None => g.shutdown,
        };
        if needed {
            self.work.notify_one();
        }
    }

    /// Ask the committer thread to exit once the open segment is drained.
    pub fn begin_shutdown(&self) {
        self.state.lock().shutdown = true;
        self.work.notify_one();
    }

    /// The linger rule's verdict on the open segment `seg`: close it now.
    ///
    /// At the batch cap (the *clamped* cap, so submit and commit agree
    /// even for a `max_batch: 0` config), or draining for shutdown. The
    /// gap that counts is the smaller of the current estimate and the one
    /// the epoch's first submission found: the first writer back after a
    /// shared epoch finds the pipeline idle and pushes the estimate up,
    /// but the writers it shared with are right behind it. The epoch is
    /// closed at once unless the window time left is expected to bring
    /// [`LINGER_MIN_ARRIVALS`] more submissions at that gap — so always
    /// for a zero window, and for a closed-loop writer on its own from
    /// its second epoch on, whatever burst came before.
    fn closes_now(&self, g: &PipeState<S>, seg: &EpochSeg<S>) -> bool {
        if seg.ops.len() >= self.max_batch || g.shutdown {
            return true;
        }
        let remaining = self.batch_window.saturating_sub(seg.opened_at.elapsed());
        let gap = g.arrival_gap.min(seg.gap_at_open);
        gap.saturating_mul(LINGER_MIN_ARRIVALS) >= remaining
    }

    /// Is `seg` a lone writer's epoch the committer thread should leave
    /// to that writer? Its writer found the pipeline idle — it waited on
    /// its last write — and nobody has shown interest in the epoch since
    /// ([`EpochSeg::lone`]): nobody waits yet, no drain is asked for and
    /// the batch cap is not reached. That writer is on its way to
    /// [`CommitTicket::wait`], where it commits the epoch on its own
    /// thread; were the committer thread to take the epoch in between,
    /// the writer would sleep through a hand-off after all. Should it not
    /// wait, the window bounds the delay as it bounds any linger.
    fn left_to_its_writer(&self, g: &PipeState<S>, seg: &EpochSeg<S>) -> bool {
        seg.lone && g.waiters == 0 && !g.shutdown && seg.ops.len() < self.max_batch
    }

    /// The group-commit window, as the committer thread keeps it: hold
    /// the open epoch while waiting can still grow it, never past
    /// `opened_at + batch_window`. Returns as soon as a commit is running
    /// or [`Self::closes_now`] says so — unless the epoch is
    /// [`Self::left_to_its_writer`], which it sleeps on until its writer
    /// takes it, somebody shows interest, or the window runs out.
    /// Otherwise it sleeps in slices of twice the gap (at most a quarter
    /// of the window left) and closes the epoch on the first slice that
    /// brings no new operation, on any wake-up (`flush`, the cap crossed,
    /// shutdown), or when the window has run out.
    fn linger<'a>(&'a self, mut g: MutexGuard<'a, PipeState<S>>) -> MutexGuard<'a, PipeState<S>> {
        loop {
            let Some(seg) = &g.open else {
                return g;
            };
            if g.committing {
                return g;
            }
            let epoch = seg.epoch;
            if self.left_to_its_writer(&g, seg) {
                let remaining = self.batch_window.saturating_sub(seg.opened_at.elapsed());
                if remaining.is_zero() {
                    return g;
                }
                g.watched = Some(epoch);
                self.work.wait_timeout(&mut g, remaining);
                g.watched = None;
                continue;
            }
            if self.closes_now(&g, seg) {
                return g;
            }
            let slice = g.arrival_gap.min(seg.gap_at_open).saturating_mul(2);
            let seen = g.next_seq;
            g.watched = Some(epoch);
            let woken = !self.work.wait_timeout(&mut g, slice).timed_out();
            g.watched = None;
            if woken || g.next_seq == seen {
                return g;
            }
        }
    }

    /// May a writer waiting on `epoch` commit it on its own thread? Only
    /// when (a) `epoch` is the open segment, (b) no commit is running,
    /// (c) nobody else waits on an uncommitted epoch and (d) the linger
    /// rule would close the segment now. (c) and (d) keep group commit:
    /// a writer with company, or one the window is worth holding for,
    /// leaves the epoch to the committer thread's linger.
    fn may_lead(&self, g: &PipeState<S>, epoch: u64) -> bool {
        !g.committing
            && g.waiters == 0
            && g.open
                .as_ref()
                .is_some_and(|seg| seg.epoch == epoch && self.closes_now(g, seg))
    }
}

/// The committer thread. Runs until shutdown with nothing open and no
/// commit running, or until the store is poisoned; commits every segment
/// no writer leads (see the module docs).
pub(crate) fn run_committer<S: AugSpec>(core: &Core<S>)
where
    S::K: Codec,
    S::V: Codec,
{
    let pipe = &core.pipeline;
    let mut g = pipe.state.lock();
    loop {
        if g.committing || g.open.is_none() {
            if g.shutdown && !g.committing && g.open.is_none() {
                return;
            }
            pipe.work.wait(&mut g);
            continue;
        }
        g = pipe.linger(g);
        // linger's waits let submitters join the epoch and a writer lead
        // it, never take it from a running commit
        if !g.committing {
            g = commit(core, g, false);
        }
    }
}

/// Commit the open segment as one epoch, holding the commit from taking
/// the segment to waking its tickets. The caller holds `state` and no
/// commit is running; `by_writer` says whether a waiting writer leads it
/// (counted in [`crate::StoreStats::commits_by_writer`]). Returns with
/// `state` locked again: the epoch published, or the store poisoned.
///
/// On a durable store every epoch is appended to the log after
/// normalization and **before** it is applied, published or
/// acknowledged: when the append returns, the record is as durable as
/// the [`crate::SyncPolicy`] promises. If the append fails the store is
/// **poisoned**: the committer thread exits, buffered writes are dropped,
/// and every in-flight or future `wait`/`flush`/`submit` panics —
/// fail-stop beats silently acking writes that never reached the log.
fn commit<'a, S: AugSpec>(
    core: &'a Core<S>,
    mut g: MutexGuard<'a, PipeState<S>>,
    by_writer: bool,
) -> MutexGuard<'a, PipeState<S>>
where
    S::K: Codec,
    S::V: Codec,
{
    let pipe = &core.pipeline;
    debug_assert!(!g.committing, "one commit at a time");
    let Some(seg) = g.open.take() else {
        return g;
    };
    g.committing = true;
    drop(g);
    let (epoch, opened_at) = (seg.epoch, seg.opened_at);
    // Window occupancy: segment creation → taken by the commit.
    let window = opened_at.elapsed();
    // The epoch applies to the head's map: only a commit publishes a head,
    // and this one holds the commit.
    let mut map = core.registry.pin_head().entry.map.clone();

    let t0 = Instant::now();
    let normalized = normalize::<S>(seg.ops);
    let t_normalized = Instant::now();
    let batch_len = normalized.len();
    let raw_ops = normalized.raw_ops;
    // WAL first: the epoch must be durable before it is applied or acked
    // (tickets are still blocked here). A failed append fail-stops the
    // store.
    if let Some(wal) = &core.wal {
        if let Err(e) = wal.append(epoch, &normalized) {
            let reason = format!("WAL append failed for epoch {epoch}: {e}");
            eprintln!("pam-store: {reason}; poisoning store");
            event!(
                Level::Error,
                "pam_store::pipeline",
                "{reason}; poisoning store"
            );
            // Leave the black box next to the WAL before any waiter
            // panics: the dump names this epoch as the root cause
            // (first-wins, so a later panic hook firing for a cascading
            // waiter changes nothing).
            flight::dump_registered(&reason, Some(epoch));
            let mut g = pipe.state.lock();
            g.poisoned = Some(reason);
            g.shutdown = true;
            g.open = None;
            g.committing = false;
            pipe.done.notify_all();
            // the committer thread exits (it is this thread, or asleep)
            pipe.work.notify_one();
            return g;
        }
    }
    let t_logged = Instant::now();
    // Apply outside the state lock: the commit holder is the only
    // writer, and the batch vectors are *moved* into the tree ops — no
    // per-commit clone. Published versions are untouched (path copying).
    op::apply(&mut map, normalized.puts, normalized.deletes);
    let t_applied = Instant::now();
    // O(1) snapshot of the result: the one publication point. The
    // replaced head dies here, before the tickets wake (so a writer's
    // next `stats()` does not count it) and outside the registry lock:
    // unless somebody pinned it, this drop frees the nodes the epoch
    // path-copied away from.
    drop(core.registry.publish(epoch, map));
    let t_published = Instant::now();
    core.stats.record_commit(
        raw_ops,
        batch_len,
        by_writer,
        CommitTiming {
            total: t_published - t0,
            window,
            normalize: t_normalized - t0,
            wal_log: t_logged - t_normalized,
            apply: t_applied - t_logged,
            publish: t_published - t_applied,
        },
    );
    // Flight recorder: one stage timeline per committed epoch in the
    // process-global ring (served at `/trace`, dumped on poison/panic).
    // Outside the pipeline lock — one short mutex push per *epoch*, not
    // per operation.
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

    let mut g = pipe.state.lock();
    g.committed_epoch = epoch;
    g.committing = false;
    if g.waiters > 0 {
        pipe.done.notify_all();
    }
    g
}

/// A receipt for enqueued write(s): [`CommitTicket::wait`] blocks until
/// the epoch containing them is applied and published.
///
/// A ticket holds the store's shared core (not its threads), so it can
/// still be waited on after the store is dropped; the store's memory is
/// freed when the last ticket goes.
pub struct CommitTicket<S: AugSpec> {
    epoch: u64,
    core: Arc<Core<S>>,
}

impl<S: AugSpec> CommitTicket<S> {
    pub(crate) fn new(epoch: u64, core: Arc<Core<S>>) -> Self {
        CommitTicket { epoch, core }
    }

    /// Has the epoch committed yet (non-blocking)?
    pub fn is_done(&self) -> bool {
        self.core.pipeline.state.lock().committed_epoch >= self.epoch
    }

    /// The epoch — and so the version — the write commits in: one number
    /// for every key it touches. `None` only for an empty submission,
    /// which commits nothing.
    pub fn global_epoch(&self) -> Option<u64> {
        (self.epoch != 0).then_some(self.epoch)
    }
}

impl<S: AugSpec> CommitTicket<S>
where
    S::K: Codec,
    S::V: Codec,
{
    /// Block until the write is published (on a durable store: logged
    /// first); returns the id of the version its epoch produced — the
    /// current head for an empty submission, which has no epoch.
    ///
    /// When this caller is the only one waiting, its epoch is the open
    /// segment, no commit is running and the linger rule would close the
    /// segment now, the caller commits the epoch itself, on its own
    /// thread; otherwise it sleeps until a commit wakes it (see the
    /// module docs). Either way the write is logged, applied and
    /// published before this returns.
    ///
    /// # Panics
    ///
    /// If the store was poisoned by a failed WAL append (the write may
    /// never become durable).
    pub fn wait(&self) -> VersionId {
        let pipe = &self.core.pipeline;
        let mut g = pipe.state.lock();
        g.awaited_epoch = g.awaited_epoch.max(self.epoch);
        while g.committed_epoch < self.epoch {
            Pipeline::check_poison(&g);
            if pipe.may_lead(&g, self.epoch) {
                g = commit(&self.core, g, true);
                continue;
            }
            pipe.hand_over(&mut g, false);
            pipe.wait_done(&mut g);
        }
        pipe.hand_over(&mut g, true);
        match self.epoch {
            0 => g.committed_epoch,
            epoch => epoch,
        }
    }
}
