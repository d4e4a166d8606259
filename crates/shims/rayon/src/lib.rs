//! Offline shim for [rayon](https://docs.rs/rayon) (see `crates/shims/README.md`).
//!
//! Fork-join (`join`, `scope`) runs on one persistent work-stealing
//! pool: `nproc − 1` workers started on the first fork, a deque per
//! worker plus an injector for every other thread. A fork is a push onto
//! the forking thread's queue; `join(a, b)` pushes `b`, runs `a`, and
//! takes `b` back to run it inline unless another thread stole it, in
//! which case it runs other queued jobs until `b` is done. Idle threads
//! poll briefly and then park, and a push wakes one only if one is
//! parked, so a long-lived server pays nothing for the pool. Callers
//! still gate forks by a granularity threshold (see `parlay::par2_if`):
//! that is about there being enough work to share, not about the fork.
//! A waiting thread runs other jobs on its own stack, so no lock may be
//! held across `join` / `scope` / a parallel iterator.
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
mod registry;
mod slice;

pub use pool::{
    current_num_threads, join, scope, Scope, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder,
};
pub use registry::forks_spawned;

/// The traits and types imported by `use rayon::prelude::*`.
pub mod prelude {
    pub use crate::iter::{
        IndexedProducer, IntoParallelIterator, IntoParallelRefIterator, ParIter, Producer,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}
