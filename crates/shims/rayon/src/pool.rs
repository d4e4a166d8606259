//! Fork-join over capped scoped threads.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Hardware parallelism (the size of the implicit global pool).
fn hardware_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(2, |n| n.get()))
}

thread_local! {
    /// Pool-size override installed by `ThreadPool::install`, inherited by
    /// threads forked from inside the pool.
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads in the current pool scope.
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(|p| p.get())
        .unwrap_or_else(hardware_threads)
}

/// Live forked threads across the process. A fork only spawns while this
/// is below the hardware parallelism; otherwise it runs inline.
static ACTIVE_FORKS: AtomicUsize = AtomicUsize::new(0);

/// Forks that took a permit and spawned a thread, since process start.
static FORKS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// How many forks (`join` halves, `Scope::spawn` tasks) have run on a
/// spawned thread since the process started. Monotone and process-wide.
///
/// Shim-only: real rayon has no such function (its workers are spawned
/// once, and a fork is a deque push). It exists so a test can assert that
/// a small bulk update never leaves the calling thread — here each count
/// is one OS thread created and joined.
pub fn forks_spawned() -> usize {
    // relaxed: a statistic; it publishes no other data
    FORKS_SPAWNED.load(Ordering::Relaxed)
}

struct Permit;

impl Permit {
    /// Every caller spawns a thread on `Some`, so this is where a spawned
    /// fork is counted.
    fn try_acquire() -> Option<Permit> {
        let cap = hardware_threads().saturating_sub(1);
        let permit = ACTIVE_FORKS
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (cur < cap).then_some(cur + 1)
            })
            .ok()
            .map(|_| Permit);
        if permit.is_some() {
            // relaxed: see forks_spawned()
            FORKS_SPAWNED.fetch_add(1, Ordering::Relaxed);
        }
        permit
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        ACTIVE_FORKS.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Run both closures, in parallel when a thread permit is available.
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
    let Some(permit) = Permit::try_acquire() else {
        let ra = fa();
        let rb = fb();
        return (ra, rb);
    };
    std::thread::scope(|s| {
        let ha = s.spawn(move || {
            POOL_THREADS.with(|p| p.set(Some(pool)));
            let ra = fa();
            drop(permit);
            ra
        });
        let rb = fb();
        match ha.join() {
            Ok(ra) => (ra, rb),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

/// A fork scope: tasks spawned on it may borrow from the enclosing stack
/// frame and are all joined before [`scope`] returns.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    pool: usize,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawn `body` into the scope (inline if no thread permit is free).
    pub fn spawn<F>(&self, body: F)
    where
        F: for<'a> FnOnce(&'a Scope<'scope, 'env>) + Send + 'scope,
    {
        let pool = self.pool;
        let spawned = pool > 1;
        if let Some(permit) = spawned.then(Permit::try_acquire).flatten() {
            let inner = self.inner;
            self.inner.spawn(move || {
                POOL_THREADS.with(|p| p.set(Some(pool)));
                let sc = Scope { inner, pool };
                body(&sc);
                drop(permit);
            });
        } else {
            body(self);
        }
    }
}

/// Create a fork scope, run `f` in it, and join every spawned task.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    let pool = current_num_threads();
    std::thread::scope(|s| {
        let sc = Scope { inner: s, pool };
        f(&sc)
    })
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
/// (and are gated by) the pool's thread count.
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Run `f` "inside" the pool. The previous pool size is restored even
    /// if `f` unwinds (a leaked override would permanently mis-size every
    /// later fork on this thread).
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|p| p.set(self.0));
            }
        }
        let _restore = Restore(POOL_THREADS.with(|p| p.replace(Some(self.threads))));
        f()
    }

    /// The pool size.
    pub fn current_num_threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let before = ACTIVE_FORKS.load(Ordering::SeqCst);
            let tid = std::thread::current().id();
            let ((), ()) = join(
                || assert_eq!(std::thread::current().id(), tid),
                || assert_eq!(std::thread::current().id(), tid),
            );
            assert_eq!(ACTIVE_FORKS.load(Ordering::SeqCst), before);
        });
    }

    #[test]
    fn scope_joins_all_tasks() {
        let mut parts = [0u64; 8];
        scope(|s| {
            for (i, slot) in parts.iter_mut().enumerate() {
                s.spawn(move |_| *slot = i as u64 + 1);
            }
        });
        assert_eq!(parts.iter().sum::<u64>(), 36);
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
    fn nested_joins_survive_permit_exhaustion() {
        // A join tree far wider than the permit budget: excess forks must
        // run inline, results must merge correctly, and every permit must
        // be returned.
        fn sum(lo: u64, hi: u64) -> u64 {
            if hi - lo <= 4 {
                (lo..hi).sum()
            } else {
                let mid = lo + (hi - lo) / 2;
                let (a, b) = join(|| sum(lo, mid), || sum(mid, hi));
                a + b
            }
        }
        let before = ACTIVE_FORKS.load(Ordering::SeqCst);
        // pretend the pool is huge so every level *tries* to fork
        let pool = ThreadPoolBuilder::new().num_threads(64).build().unwrap();
        let got = pool.install(|| sum(0, 1 << 16));
        assert_eq!(got, (0..1u64 << 16).sum());
        assert!(
            permits_drain_to(before),
            "permits leaked by the nested join storm"
        );
    }

    /// ACTIVE_FORKS is process-global, so concurrently running tests may
    /// hold permits of their own for a while (the CI par-stress leg runs
    /// the suite with test threads unpinned); give them a generous
    /// window to drain before calling it a leak.
    fn permits_drain_to(before: usize) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if ACTIVE_FORKS.load(Ordering::SeqCst) <= before {
                return true;
            }
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    #[test]
    fn permits_are_released_on_panic() {
        let before = ACTIVE_FORKS.load(Ordering::SeqCst);
        let caught = std::panic::catch_unwind(|| {
            join(|| panic!("boom"), || 1);
        });
        assert!(caught.is_err());
        assert!(
            permits_drain_to(before),
            "permit leaked by a panicking fork"
        );
    }
}
