//! Offline shim for [rayon](https://docs.rs/rayon) (see `crates/shims/README.md`).
//!
//! What the paper assumes of Cilk, and nothing more: a binary fork
//! (`join`), the pool size (`current_num_threads`, overridden inside
//! `ThreadPool::install`), and a fork counter for tests
//! (`forks_spawned`). There is no iterator layer and no `scope`: every
//! data-parallel loop in the workspace is a `join` recursion in `parlay`
//! (`tabulate` / `reduce` / `for_each`, the merge sort, the merge).
//!
//! `join` runs on one persistent work-stealing pool: `nproc − 1` workers
//! started on the first fork, a deque per worker plus an injector for
//! every other thread. A fork is a push onto the forking thread's queue;
//! `join(a, b)` pushes `b`, runs `a`, and takes `b` back to run it inline
//! unless another thread stole it, in which case it runs other queued
//! jobs until `b` is done. Idle threads poll briefly and then park, and a
//! push wakes one only if one is parked, so a long-lived server pays
//! nothing for the pool. Callers still gate forks by a granularity
//! threshold (see `parlay::par2_if`): that is about there being enough
//! work to share, not about the fork. A waiting thread runs other jobs on
//! its own stack, so no lock may be held across `join`. Under
//! `ThreadPool::install` with one thread every `join` is `(a(), b())` on
//! the caller.

mod pool;
mod registry;

pub use pool::{current_num_threads, join, ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};
pub use registry::forks_spawned;
