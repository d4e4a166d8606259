//! Fork-join helpers, the granularity constant, and the three index-range
//! drivers every data-parallel loop in the workspace goes through.

use crate::uninit::par_fill;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Fork-join granularity: recursive algorithms run sequentially on inputs
/// smaller than this (number of elements / tree nodes).
///
/// PAM sets "a granularity so parallelism is not used on very small trees";
/// 2^11 suits ~100ns-per-element workloads.
#[inline]
pub const fn granularity() -> usize {
    1 << 11
}

/// Run two closures in parallel (the `s1 || s2` of the paper's
/// pseudocode) when `do_par` holds, sequentially otherwise.
///
/// Callers pass `size > granularity()` (or a similar test) so that small
/// subproblems do not pay fork-join overhead.
#[inline]
pub fn par2_if<RA, RB>(
    do_par: bool,
    fa: impl FnOnce() -> RA + Send,
    fb: impl FnOnce() -> RB + Send,
) -> (RA, RB)
where
    RA: Send,
    RB: Send,
{
    if do_par {
        rayon::join(fa, fb)
    } else {
        (fa(), fb())
    }
}

/// Run `f` on a dedicated rayon pool with `n` worker threads.
///
/// The experiment harness uses this for thread-count sweeps ("T1" vs "Tp"
/// columns of the paper's tables).
pub fn with_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(n.max(1))
        .build()
        .expect("failed to build rayon pool");
    pool.install(f)
}

/// Leaf length of the index-range drivers: ⌈n / 4P⌉ — four leaves per
/// thread, so a slow leaf can be balanced by stealing — or the whole range
/// when P = 1, which makes every driver its plain sequential loop.
fn leaf_len(n: usize) -> usize {
    match rayon::current_num_threads() {
        0 | 1 => n,
        p => n.div_ceil(4 * p),
    }
}

/// The recursion under all three drivers: halve `range` down to runs of at
/// most `leaf` indices, forking the halves, and merge the runs' results in
/// index order. `part` is whatever a run owns besides its indices
/// (`tabulate`'s output slots), divided by `cut` where the range is.
fn drive<P: Send, R: Send>(
    range: Range<usize>,
    leaf: usize,
    part: P,
    cut: &(impl Fn(P, usize) -> (P, P) + Sync),
    run: &(impl Fn(Range<usize>, P) -> R + Sync),
    merge: &(impl Fn(R, R) -> R + Sync),
) -> R {
    if range.len() <= leaf {
        return run(range, part);
    }
    let half = range.len() / 2;
    let mid = range.start + half;
    let (left, right) = cut(part, half);
    let (a, b) = rayon::join(
        || drive(range.start..mid, leaf, left, cut, run, merge),
        || drive(mid..range.end, leaf, right, cut, run, merge),
    );
    merge(a, b)
}

/// `[f(0), f(1), ..., f(n - 1)]`, computed in parallel and written in
/// place. If `f` panics the panic propagates and the elements built so
/// far leak; none is dropped twice.
pub fn tabulate<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // SAFETY: `drive`'s runs partition `0..n`, `split_at_mut` hands each
    // run the slots of its own indices, and a run writes every one of them
    unsafe {
        par_fill(n, |out| {
            drive(
                0..n,
                leaf_len(n),
                out,
                &<[MaybeUninit<T>]>::split_at_mut,
                &|range, slots: &mut [MaybeUninit<T>]| {
                    for (slot, i) in slots.iter_mut().zip(range) {
                        slot.write(f(i));
                    }
                },
                &|(), ()| (),
            )
        })
    }
}

/// `op(... op(op(map(0), map(1)), map(2)) ..., map(n - 1))` for an
/// associative `op`, in parallel; `id` when `n` is 0. `op` sees its
/// operands in index order, so it need not commute.
pub fn reduce<R: Send>(
    n: usize,
    map: impl Fn(usize) -> R + Sync,
    op: impl Fn(R, R) -> R + Sync,
    id: R,
) -> R {
    drive(
        0..n,
        leaf_len(n),
        (),
        &|(), _| ((), ()),
        &|range, ()| range.map(&map).reduce(&op),
        &|a: Option<R>, b: Option<R>| match (a, b) {
            (Some(a), Some(b)) => Some(op(a, b)),
            (a, b) => a.or(b),
        },
    )
    .unwrap_or(id)
}

/// Run `f(i)` for every `i` in `0..n`, in parallel.
pub fn for_each(n: usize, f: impl Fn(usize) + Sync) {
    reduce(n, f, |(), ()| (), ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn par2_returns_both() {
        let (a, b) = par2_if(true, || 1 + 1, || "x".to_string());
        assert_eq!(a, 2);
        assert_eq!(b, "x");
    }

    #[test]
    fn par2_if_sequential_path() {
        let (a, b) = par2_if(false, || 40, || 2);
        assert_eq!(a + b, 42);
    }

    #[test]
    fn with_threads_runs_on_pool() {
        let n = with_threads(2, rayon::current_num_threads);
        assert_eq!(n, 2);
    }

    /// A pool size that splits every range into many leaves and pushes
    /// every fork, whatever `nproc` is.
    fn forking<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        with_threads(64, f)
    }

    #[test]
    fn drivers_match_sequential_on_the_chunked_path() {
        for n in [0, 1, 2, 3, 255, 256, 257, 1000, 10_000] {
            forking(|| {
                let want: Vec<String> = (0..n).map(|i| i.to_string()).collect();
                assert_eq!(tabulate(n, |i| i.to_string()), want);
                // string concatenation is associative but does not commute
                let joined = reduce(n, |i| i.to_string(), |a, b| a + &b, String::new());
                assert_eq!(joined, want.concat());
                let seen: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
                for_each(n, |i| {
                    seen[i].fetch_add(1, Ordering::SeqCst);
                });
                assert!(seen.iter().all(|s| s.load(Ordering::SeqCst) == 1));
            });
        }
    }

    #[test]
    fn one_thread_runs_every_index_in_order_on_the_caller() {
        with_threads(1, || {
            let caller = std::thread::current().id();
            let order = Mutex::new(Vec::new());
            let note = |i: usize| {
                assert_eq!(std::thread::current().id(), caller);
                order.lock().unwrap().push(i);
                i
            };
            assert_eq!(tabulate(1000, note), (0..1000).collect::<Vec<_>>());
            assert_eq!(reduce(1000, note, |a, b| a + b, 0), 499_500);
            for_each(1000, |i| {
                note(i);
            });
            let want: Vec<usize> = (0..1000).chain(0..1000).chain(0..1000).collect();
            assert_eq!(order.into_inner().unwrap(), want);
        });
    }

    #[test]
    fn a_large_range_forks_when_there_are_cores() {
        let forked = |run: &dyn Fn()| {
            let before = rayon::forks_spawned();
            run();
            rayon::forks_spawned() > before || rayon::current_num_threads() < 2
        };
        let n = 100_000;
        assert!(forked(&|| {
            let v = tabulate(n, |i| i as u64 * 3);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
        }));
        assert!(forked(&|| {
            assert_eq!(reduce(n, |i| i, |a, b| a + b, 0), n * (n - 1) / 2);
        }));
        let visited = AtomicUsize::new(0);
        assert!(forked(&|| {
            for_each(n, |_| {
                visited.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert_eq!(visited.into_inner(), n);
    }

    /// Counts, per index, how often the element built for it was dropped.
    #[derive(Debug)]
    struct Counted<'a>(&'a AtomicU8);

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn a_panicking_f_propagates_and_no_element_is_dropped_twice() {
        let n = 5000;
        for bad in [0, 1, 1234, 2500, 4999] {
            let drops: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            let built: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                forking(|| {
                    tabulate(n, |i| {
                        if i == bad {
                            panic!("index {i}");
                        }
                        built[i].fetch_add(1, Ordering::SeqCst);
                        Counted(&drops[i])
                    })
                })
            }));
            let panic = caught.expect_err("the panic must reach tabulate's caller");
            assert_eq!(
                panic.downcast_ref::<String>(),
                Some(&format!("index {bad}"))
            );
            // a leak is allowed; a second drop, or a drop of a slot that
            // was never written, is not
            for i in 0..n {
                let (built, drops) = (
                    built[i].load(Ordering::SeqCst),
                    drops[i].load(Ordering::SeqCst),
                );
                assert!(built <= 1 && drops <= built, "index {i}");
            }
        }
        // and without a panic every element is dropped exactly once
        let drops: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(0)).collect();
        drop(forking(|| tabulate(n, |i| Counted(&drops[i]))));
        assert!(drops.iter().all(|d| d.load(Ordering::SeqCst) == 1));
        // reduce and for_each propagate too
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            forking(|| {
                for_each(n, |i| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    assert_ne!(i, 77, "index 77");
                })
            })
        }));
        assert!(caught.is_err() && ran.load(Ordering::SeqCst) <= n);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            forking(|| {
                reduce(
                    n,
                    |i| if i == 77 { panic!("index 77") } else { i },
                    |a, b| a + b,
                    0,
                )
            })
        }));
        assert!(caught.is_err());
    }
}
