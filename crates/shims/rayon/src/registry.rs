//! The persistent work-stealing pool under `join`: job queues,
//! the worker loop, and the sleep protocol.
//!
//! `nproc − 1` workers start on the first fork and live as long as the
//! process. Every worker owns a deque; threads that are not workers share
//! the injector. An owner pushes and pops at the back (newest first), a
//! thief takes from the front (oldest, hence largest, first). A thread
//! that has to wait — a worker with nothing to do, a `join` whose second
//! half was stolen — runs queued jobs while there are any, polls briefly,
//! and then parks; a push wakes one parked thread and costs one atomic
//! load when none is parked.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Hardware parallelism (the size of the implicit global pool).
pub(crate) fn hardware_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| thread::available_parallelism().map_or(2, |n| n.get()))
}

/// Jobs offered to the pool since process start.
static FORKS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// How many forks (`join` second halves) have been
/// offered to the pool since the process started — pushed onto a queue
/// where another thread may take them, whether or not one did. Monotone
/// and process-wide; a fork that runs inline because the pool size is 1
/// is not counted.
///
/// Shim-only: real rayon has no such function. It exists so a test can
/// assert that a small bulk update never leaves the calling thread.
pub fn forks_spawned() -> usize {
    // relaxed: a statistic; it publishes no other data
    FORKS_SPAWNED.load(Ordering::Relaxed)
}

/// A type-erased pointer to a job that its `join` keeps alive until it
/// has run. Two refs are the same job iff `data` is equal.
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    data: *const (),
    // SAFETY: a type, not a call; calling it is `JobRef::execute`'s contract
    run: unsafe fn(*const ()),
}

// SAFETY: a `JobRef` is only made (`JobRef::new`) from a job whose closure
// and result are `Send` — `join` bounds them so — and
// running it on another thread is the whole point; the pointer is not
// used for anything else.
unsafe impl Send for JobRef {}

impl JobRef {
    /// # Safety
    /// `data` must stay valid for `run` until `run(data)` has been called
    /// once or the ref has been taken back out of its queue unexecuted.
    pub(crate) unsafe fn new(data: *const (), run: unsafe fn(*const ())) -> JobRef {
        JobRef { data, run }
    }

    /// # Safety
    /// At most once per job, and only while the job is live (see `new`).
    unsafe fn execute(self) {
        // SAFETY: the caller upholds `new`'s contract
        unsafe { (self.run)(self.data) }
    }
}

/// One mutex-protected deque of pending jobs. No job runs under the lock.
#[derive(Default)]
struct Queue(Mutex<VecDeque<JobRef>>);

impl Queue {
    fn lock(&self) -> MutexGuard<'_, VecDeque<JobRef>> {
        self.0
            .lock()
            .expect("pool queue poisoned: nothing that can panic runs under it")
    }
}

/// How long a thread with nothing to run keeps polling the queues (one
/// `yield_now` apart) before it parks. Parking is what costs: the next
/// push pays a futex wake, and the woken thread tends to land on the
/// waker's core and run there in its place. The window bridges the gaps
/// between the forks of a query loop (a few hundred µs) and is far below
/// anything a server would notice as idle load.
const POLL_BEFORE_PARK: Duration = Duration::from_micros(500);

pub(crate) struct Registry {
    /// Jobs pushed by threads that are not workers.
    injector: Queue,
    /// One deque per worker, indexed by `WORKER_INDEX`.
    deques: Vec<Queue>,
    /// Parked (or about to park) threads, for `wake_one`.
    sleepers: Mutex<Vec<Thread>>,
    /// `sleepers.len()`, readable without the lock.
    sleeping: AtomicUsize,
}

thread_local! {
    /// This thread's deque in `Registry::deques`, if it is a pool worker.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

impl Registry {
    /// The process-wide pool; the first call starts the workers. They are
    /// never joined: they hold no resource but their stack, park when
    /// idle, and cannot die of a job's panic (every job catches its own).
    pub(crate) fn global() -> &'static Registry {
        static GLOBAL: OnceLock<&'static Registry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let workers = hardware_threads() - 1;
            let registry: &'static Registry = Box::leak(Box::new(Registry {
                injector: Queue::default(),
                deques: (0..workers).map(|_| Queue::default()).collect(),
                sleepers: Mutex::new(Vec::new()),
                sleeping: AtomicUsize::new(0),
            }));
            for index in 0..workers {
                thread::Builder::new()
                    .name(format!("rayon-worker-{index}"))
                    .spawn(move || {
                        WORKER_INDEX.set(Some(index));
                        registry.wait_until(|| false);
                    })
                    .expect("failed to start a pool worker thread");
            }
            registry
        })
    }

    fn own_queue(&self) -> &Queue {
        match WORKER_INDEX.get() {
            Some(index) => &self.deques[index],
            None => &self.injector,
        }
    }

    /// Offer `job` to the pool from the current thread.
    pub(crate) fn push(&self, job: JobRef) {
        // relaxed: see forks_spawned()
        FORKS_SPAWNED.fetch_add(1, Ordering::Relaxed);
        self.own_queue().lock().push_back(job);
        self.wake_one();
    }

    /// Take `job` back out of the current thread's queue; `false` means
    /// another thread has taken it and will run (or has run) it. Newest
    /// first: a job is at the back unless another caller shares the
    /// injector.
    pub(crate) fn take_back(&self, job: JobRef) -> bool {
        let mut queue = self.own_queue().lock();
        let at = queue.iter().rposition(|queued| queued.data == job.data);
        at.and_then(|at| queue.remove(at)).is_some()
    }

    /// A job for the current thread: its own newest, else the injector's
    /// oldest, else another worker's oldest.
    fn find_work(&self) -> Option<JobRef> {
        let me = WORKER_INDEX.get();
        if let Some(index) = me {
            if let Some(job) = self.deques[index].lock().pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().pop_front() {
            return Some(job);
        }
        let workers = self.deques.len();
        let first = me.map_or(0, |index| index + 1);
        (first..first + workers)
            .map(|victim| victim % workers)
            .filter(|&victim| Some(victim) != me)
            .find_map(|victim| self.deques[victim].lock().pop_front())
    }

    fn has_work(&self) -> bool {
        !self.injector.lock().is_empty() || self.deques.iter().any(|d| !d.lock().is_empty())
    }

    /// Run queued jobs on the current thread until `done()` holds, parking
    /// when there is nothing to run. Whoever makes `done()` true must
    /// `unpark` this thread afterwards.
    pub(crate) fn wait_until(&self, done: impl Fn() -> bool) {
        let mut idle_since = None;
        while !done() {
            if let Some(job) = self.find_work() {
                // SAFETY: a queued ref is live (`JobRef::new`), and it left
                // its queue under the queue's lock, so nobody else runs it
                unsafe { job.execute() };
                idle_since = None;
            } else if idle_since.get_or_insert_with(Instant::now).elapsed() < POLL_BEFORE_PARK {
                thread::yield_now();
            } else {
                self.sleep(&done);
                idle_since = None;
            }
        }
    }

    /// Park until a push picks this thread or `done()`'s setter unparks it.
    ///
    /// No wake-up is lost: a pusher pushes under the queue lock and then
    /// reads `sleeping`; a sleeper bumps `sleeping` and then looks into
    /// the queues under their locks. If the pusher read 0, its read
    /// precedes the bump, so its push precedes the sleeper's look at that
    /// queue and is seen there. `done()`'s setter unparks after the store,
    /// and an `unpark` that comes before `park` makes it return at once.
    fn sleep(&self, done: &impl Fn() -> bool) {
        let me = thread::current();
        {
            let mut sleepers = self.lock_sleepers();
            sleepers.push(me.clone());
            self.sleeping.fetch_add(1, Ordering::SeqCst);
        }
        if !done() && !self.has_work() {
            thread::park();
        }
        let mut sleepers = self.lock_sleepers();
        if let Some(at) = sleepers.iter().position(|t| t.id() == me.id()) {
            sleepers.swap_remove(at);
            self.sleeping.fetch_sub(1, Ordering::SeqCst);
        } else if done() {
            // a push chose this thread, which is about to leave without
            // looking for work: pass the wake-up on
            drop(sleepers);
            self.wake_one();
        }
    }

    fn wake_one(&self) {
        if self.sleeping.load(Ordering::SeqCst) == 0 {
            return;
        }
        let woken = {
            let mut sleepers = self.lock_sleepers();
            let woken = sleepers.pop();
            if woken.is_some() {
                self.sleeping.fetch_sub(1, Ordering::SeqCst);
            }
            woken
        };
        if let Some(thread) = woken {
            thread.unpark();
        }
    }

    fn lock_sleepers(&self) -> MutexGuard<'_, Vec<Thread>> {
        self.sleepers
            .lock()
            .expect("pool sleeper list poisoned: nothing that can panic runs under it")
    }
}
