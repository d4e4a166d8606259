//! Offline shim for [rayon](https://docs.rs/rayon) (see `crates/shims/README.md`).
//!
//! Fork-join (`join`, `scope`) forks real OS threads through a global
//! permit budget sized to the hardware parallelism: a fork that finds no
//! permit free runs inline, which is exactly the steady-state behavior of
//! a saturated work-stealing pool (all workers busy ⇒ the "stolen" half is
//! executed by the forking worker itself). Because callers gate forks by a
//! granularity threshold (see `parlay::par2_if`), the spawn rate stays far
//! below the permit cap and thread-creation overhead is hidden behind the
//! actual parallel work.
//!
//! The parallel *iterator* layer drives real chunked parallelism through
//! the same machinery: `ParIter` wraps an index-splittable producer
//! (slices, vectors, integer ranges, chunk/window views, and the adapter
//! stack over them), and every driver (`for_each`, `collect`, `sum`,
//! `fold`/`reduce`, ...) recursively halves the producer down to a
//! `len / (4 · current_num_threads())` chunk threshold, forks the halves
//! via `join`, and merges per-chunk results in order — sequential
//! results, parallel execution. `par_sort_unstable{,_by}` is a parallel
//! merge sort (std pdqsort leaves + a divide-and-conquer move merge).
//! Under `ThreadPool::install(1)` everything degenerates to the plain
//! sequential schedule.

mod iter;
mod pool;
mod slice;

pub use pool::{
    current_num_threads, forks_spawned, join, scope, Scope, ThreadPool, ThreadPoolBuildError,
    ThreadPoolBuilder,
};

/// The traits and types imported by `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::iter::{
        IndexedProducer, IntoParallelIterator, IntoParallelRefIterator, ParIter, Producer,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}
