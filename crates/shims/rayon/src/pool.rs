//! Fork-join on the persistent pool: `join` and the pool-size override of
//! `ThreadPool::install`.
//!
//! A fork is a push onto the forking thread's queue (`registry.rs`). The
//! forked closure borrows from the forker's stack, so the forker does not
//! leave its frame before the job has either been taken back unexecuted
//! or has signalled that it finished; that rule is the `unsafe` core here.

use std::cell::{Cell, UnsafeCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::{self, Thread};

use crate::registry::{hardware_threads, JobRef, Registry};

thread_local! {
    /// Pool-size override installed by `ThreadPool::install`. A job carries
    /// its forker's value and runs under it, whichever thread runs it.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads in the current pool scope.
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(|p| p.get())
        .unwrap_or_else(hardware_threads)
}

/// Run `f` with the pool size set to `threads`. The previous size is
/// restored even if `f` unwinds (a leaked override would permanently
/// mis-size every later fork on this thread — and a pool worker is
/// permanent).
fn with_pool_size<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL_THREADS.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(POOL_THREADS.with(|p| p.replace(Some(threads))));
    f()
}

/// Aborts the process if dropped during an unwind. Armed while a queued
/// job points into the current frame: freeing that frame under a thief
/// would be a use-after-free, so a panic there (there is none to expect)
/// must not unwind.
struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if thread::panicking() {
            std::process::abort();
        }
    }
}

/// The second half of a `join`, living in the joiner's frame.
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<thread::Result<R>>>,
    /// The forker's pool size, which the job runs under.
    pool: usize,
    /// Set, with `Release`, once `result` is written and the job will not
    /// be touched again.
    done: AtomicBool,
    /// The joiner, to be unparked after `done` is set.
    owner: Thread,
}

impl<F: FnOnce() -> R + Send, R: Send> StackJob<F, R> {
    fn new(func: F, pool: usize) -> Self {
        StackJob {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            pool,
            done: AtomicBool::new(false),
            owner: thread::current(),
        }
    }

    /// # Safety
    /// The caller keeps `self` in place and alive until the ref has been
    /// taken back out of the queue or `done` reads true.
    unsafe fn as_job_ref(&self) -> JobRef {
        // SAFETY: the caller's promise is `JobRef::new`'s contract, and
        // `run_stolen::<F, R>` is handed the pointer it was made for
        unsafe { JobRef::new(self as *const Self as *const (), Self::run_stolen) }
    }

    /// The job as a thief runs it.
    ///
    /// # Safety
    /// `this` is the pointer of `as_job_ref`, the job is live, and this is
    /// the only run.
    unsafe fn run_stolen(this: *const ()) {
        let this = this as *const Self;
        // SAFETY: the job is live, and a ref that left the queue in a
        // thief's hands gives the thief alone access to `func` and
        // `result` until it sets `done`. `owner` is cloned first because
        // the joiner may free the job the moment `done` reads true: after
        // that store nothing here touches `*this`.
        unsafe {
            let func = (*(*this).func.get()).take().expect("a job runs once");
            let result =
                with_pool_size((*this).pool, || panic::catch_unwind(AssertUnwindSafe(func)));
            *(*this).result.get() = Some(result);
            let owner = (*this).owner.clone();
            (*this).done.store(true, Ordering::Release);
            owner.unpark();
        }
    }
}

/// Run both closures, the second on another thread of the pool if one is
/// free to take it: push `fb`, run `fa`, then take `fb` back and run it
/// here if nobody has. A panic in either is re-raised here once both have
/// finished (`fa`'s if both panicked); if `fa` panicked and `fb` had not
/// been taken yet, `fb` does not run, as in `(fa(), fb())`.
pub fn join<A, B, RA, RB>(fa: A, fb: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let pool = current_num_threads();
    if pool <= 1 {
        let ra = fa();
        let rb = fb();
        return (ra, rb);
    }
    let registry = Registry::global();
    let job_b = StackJob::new(fb, pool);
    let guard = AbortOnUnwind;
    // SAFETY: `job_b` stays in this frame, which is not left before the
    // ref is back (`take_back`) or `done` is set (`wait_until`): `fa` runs
    // under `catch_unwind`, and `guard` turns any other unwind into an
    // abort
    let job_ref = unsafe { job_b.as_job_ref() };
    registry.push(job_ref);
    let ra = panic::catch_unwind(AssertUnwindSafe(fa));
    if !registry.take_back(job_ref) {
        registry.wait_until(|| job_b.done.load(Ordering::Acquire));
    }
    std::mem::forget(guard);
    // the job is this thread's alone again: unqueued, or finished with
    // `done` acquired
    let StackJob { func, result, .. } = job_b;
    let ra = ra.unwrap_or_else(|panic| panic::resume_unwind(panic));
    let rb = match func.into_inner() {
        Some(fb) => fb(),
        None => result
            .into_inner()
            .expect("a stolen job stores its result before it sets `done`")
            .unwrap_or_else(|panic| panic::resume_unwind(panic)),
    };
    (ra, rb)
}

/// Error from [`ThreadPoolBuilder::build`] (never produced by this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Start building.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the pool size (0 = hardware parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            hardware_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool { threads: n })
    }
}

/// A scoped pool-size override: forks inside [`ThreadPool::install`] see
/// the pool's thread count (a size of 1 runs every fork inline), and so do
/// the jobs they push, on whichever thread those run.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `f` "inside" the pool. The previous pool size is restored even
    /// if `f` unwinds.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        with_pool_size(self.threads, f)
    }

    /// The pool size.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::{Duration, Instant};

    /// Spin until `flag` is set, giving up after 5 s: on one core nothing
    /// ever steals, and the tests below must still end (and pass).
    fn wait_for(flag: &AtomicBool) -> bool {
        if hardware_threads() == 1 {
            return false;
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while !flag.load(Ordering::SeqCst) {
            if Instant::now() > deadline {
                return false;
            }
            thread::yield_now();
        }
        true
    }

    /// A pool size that makes every `join` push, whatever `nproc` is.
    fn forking_pool() -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(64).build().unwrap()
    }

    #[test]
    fn join_runs_both_in_some_order() {
        let (a, b) = join(|| 1 + 1, || 2 + 2);
        assert_eq!((a, b), (2, 4));
    }

    #[test]
    fn join_nests() {
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo < 1000 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
                a + b
            }
        }
        assert_eq!(sum(0, 100_000), (0..100_000u64).sum());
    }

    #[test]
    fn install_overrides_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(current_num_threads), 3);
        assert_eq!(current_num_threads(), hardware_threads());
    }

    #[test]
    fn single_thread_pool_is_sequential() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        pool.install(|| {
            let tid = thread::current().id();
            let mut order = Vec::new();
            let order_ref = std::sync::Mutex::new(&mut order);
            let on_caller = |half| {
                assert_eq!(thread::current().id(), tid);
                order_ref.lock().unwrap().push(half);
            };
            join(
                || join(|| on_caller("a"), || on_caller("b")),
                || on_caller("c"),
            );
            assert_eq!(order, ["a", "b", "c"]);
        });
    }

    #[test]
    fn install_restores_pool_size_after_panic() {
        // Regression: a panic inside install() used to leak the override,
        // permanently mis-sizing this thread's pool.
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| -> () { panic!("boom") })
        }));
        assert!(caught.is_err());
        assert_eq!(
            current_num_threads(),
            hardware_threads(),
            "pool override must be dropped when install() unwinds"
        );
        // nested installs restore the *outer* override, not the default
        let outer = ThreadPoolBuilder::new().num_threads(5).build().unwrap();
        outer.install(|| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.install(|| -> () { panic!("inner") })
            }));
            assert!(caught.is_err());
            assert_eq!(current_num_threads(), 5);
        });
    }

    #[test]
    fn install_override_does_not_leak_into_later_jobs() {
        /// The pool size each half of a `join` sees, `a` held back until a
        /// thief (if there is one) has started `b`.
        fn sizes_seen_by_both_halves() -> (usize, usize) {
            let b_started = AtomicBool::new(false);
            join(
                || {
                    wait_for(&b_started);
                    current_num_threads()
                },
                || {
                    b_started.store(true, Ordering::SeqCst);
                    current_num_threads()
                },
            )
        }
        let hardware = hardware_threads();
        let seven = ThreadPoolBuilder::new().num_threads(7).build().unwrap();
        // 1. the size travels with the job: a stolen `b` sees its forker's 7
        assert_eq!(seven.install(sizes_seen_by_both_halves), (7, 7));
        assert_eq!(current_num_threads(), hardware);

        // 2. ... and does not stay behind on the thread that ran it. A
        //    joiner under install(7) whose `b` was stolen helps with a job
        //    forked at the default size: the job sees the default, and the
        //    joiner has its 7 back afterwards. (With more than two cores
        //    an idle worker may take `d` instead; the checks hold anyway.)
        static B_STARTED: AtomicBool = AtomicBool::new(false);
        static D_DONE: AtomicBool = AtomicBool::new(false);
        let joiner = thread::spawn(move || {
            seven.install(|| {
                join(
                    || wait_for(&B_STARTED),
                    || {
                        // occupy the thief until `d` has run elsewhere
                        B_STARTED.store(true, Ordering::SeqCst);
                        wait_for(&D_DONE);
                    },
                );
                assert_eq!(current_num_threads(), 7, "helping left a size behind");
            });
            assert_eq!(current_num_threads(), hardware_threads());
        });
        wait_for(&B_STARTED);
        let (c_saw, d_saw) = join(current_num_threads, || {
            let saw = current_num_threads();
            D_DONE.store(true, Ordering::SeqCst);
            saw
        });
        D_DONE.store(true, Ordering::SeqCst);
        assert_eq!((c_saw, d_saw), (hardware, hardware));
        joiner.join().expect("the joiner under install(7) failed");

        // 3. later forks from this thread run at the default size wherever
        //    they land, including on a worker that ran a 7-sized job
        for _ in 0..100 {
            assert_eq!(sizes_seen_by_both_halves(), (hardware, hardware));
        }
    }

    #[test]
    fn nested_join_storm_from_many_callers() {
        // 2^16 leaves under 2^16 - 1 joins per caller, eight callers at
        // once sharing the injector: every half runs exactly once, on the
        // caller, a worker or a helping caller, and the sums merge.
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo == 1 {
                lo
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
                a + b
            }
        }
        let callers: Vec<_> = (0..8u64)
            .map(|caller| {
                thread::spawn(move || {
                    let lo = caller << 16;
                    let got = forking_pool().install(|| sum(lo, lo + (1 << 16)));
                    assert_eq!(got, (lo..lo + (1 << 16)).sum());
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("a caller of the storm failed");
        }
    }

    #[test]
    fn panics_surface_after_both_halves_finish() {
        // Both halves write into one stack buffer; the panicking half goes
        // first and the other is held until it has, so a join that unwound
        // on the first panic would free the buffer under the second.
        struct InFlight<'a>(&'a AtomicUsize);
        impl Drop for InFlight<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        for (panic_a, panic_b) in [(true, false), (false, true), (true, true)] {
            let mut buf = [0u8; 64];
            let (left, right) = buf.split_at_mut(32);
            let in_flight = AtomicUsize::new(0);
            let b_started = AtomicBool::new(false);
            let a_panicking = AtomicBool::new(false);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                forking_pool().install(|| {
                    join(
                        || {
                            in_flight.fetch_add(1, Ordering::SeqCst);
                            let _in_flight = InFlight(&in_flight);
                            wait_for(&b_started);
                            left.fill(1);
                            if panic_a {
                                a_panicking.store(true, Ordering::SeqCst);
                                panic!("a");
                            }
                        },
                        || {
                            in_flight.fetch_add(1, Ordering::SeqCst);
                            let _in_flight = InFlight(&in_flight);
                            b_started.store(true, Ordering::SeqCst);
                            if panic_a {
                                wait_for(&a_panicking);
                                thread::sleep(Duration::from_millis(20));
                            }
                            right.fill(2);
                            if panic_b {
                                panic!("b");
                            }
                        },
                    )
                })
            }));
            let panic = caught.expect_err("a panicking half must fail the join");
            assert_eq!(
                in_flight.load(Ordering::SeqCst),
                0,
                "join unwound while a half was still running"
            );
            let expected = if panic_a { "a" } else { "b" };
            assert_eq!(panic.downcast_ref::<&str>(), Some(&expected));
            assert!(buf[..32].iter().all(|&x| x == 1));
            // with nobody to steal it, `b` never starts once `a` has panicked
            let b_ran = b_started.load(Ordering::SeqCst);
            assert!(buf[32..].iter().all(|&x| x == if b_ran { 2 } else { 0 }));
        }
    }
}
