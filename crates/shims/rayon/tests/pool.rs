//! Process-wide properties of the persistent pool: no thread is created
//! after warm-up, an idle pool parks, and a fork costs what a deque push
//! costs. Each test reads a process-global quantity (the thread list, the
//! CPU clock, wall time), so they take turns.

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn my_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

/// A pool size that makes every `join` push, whatever `nproc` is.
fn forking_pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(64)
        .build()
        .unwrap()
}

/// Start the workers and let a first fork go through.
fn warm_up() {
    forking_pool().install(|| rayon::join(|| (), || ()));
}

/// The pool's threads among the process's, by name (the test harness
/// starts and retires threads of its own while a test runs).
#[cfg(target_os = "linux")]
fn pool_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter(|task| {
            let comm = task.as_ref().unwrap().path().join("comm");
            std::fs::read_to_string(comm).is_ok_and(|name| name.starts_with("rayon-worker"))
        })
        .count()
}

/// User + system CPU time of the whole process, in clock ticks (10 ms).
#[cfg(target_os = "linux")]
fn process_cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line
    let rest = &stat[stat.rfind(')').unwrap() + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[test]
fn no_thread_is_created_after_warm_up() {
    let _turn = my_turn();
    warm_up();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    #[cfg(target_os = "linux")]
    {
        // a worker names itself as it starts, which may be a moment ago
        let deadline = Instant::now() + Duration::from_secs(5);
        while pool_threads() != cores - 1 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool_threads(), cores - 1);
    }
    let ran_on = Mutex::new(HashSet::new());
    let note = || {
        ran_on.lock().unwrap().insert(std::thread::current().id());
    };
    let forks = rayon::forks_spawned();
    forking_pool().install(|| {
        for _ in 0..10_000 {
            rayon::join(note, note);
        }
    });
    assert_eq!(rayon::forks_spawned() - forks, 10_000);
    // the caller and the nproc - 1 workers, not a thread per fork
    let ran_on = ran_on.into_inner().unwrap();
    assert!(
        ran_on.len() <= cores,
        "20 000 halves ran on {} threads, with {cores} cores",
        ran_on.len()
    );
    #[cfg(target_os = "linux")]
    assert_eq!(
        pool_threads(),
        cores - 1,
        "the pool gained or lost a thread"
    );
}

#[test]
#[cfg(target_os = "linux")]
fn an_idle_pool_parks() {
    let _turn = my_turn();
    warm_up();
    // well past the polling window of a worker that ran out of work
    std::thread::sleep(Duration::from_millis(50));
    let before = process_cpu_ticks();
    std::thread::sleep(Duration::from_millis(200));
    let burnt = process_cpu_ticks() - before;
    // one spinning worker would burn 20 ticks
    assert!(
        burnt <= 3,
        "{burnt} ticks of CPU over 200 ms with nothing to do"
    );
}

// A fork that nobody steals is a push and a pop; one that is stolen is a
// hand-off between two running threads. The parent commit created and
// joined an OS thread per fork, 30-120 µs each. Timing is a property of
// an optimised build (CI's stress leg runs this in release).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing of an optimised build")]
fn back_to_back_joins_amortise_under_ten_microseconds() {
    let _turn = my_turn();
    warm_up();
    const JOINS: u32 = 100_000;
    let t0 = Instant::now();
    let sum = forking_pool().install(|| {
        (0..JOINS).fold(0u64, |acc, _| {
            let (a, b) = rayon::join(|| 1u64, || 2u64);
            acc + a + b
        })
    });
    let each = t0.elapsed() / JOINS;
    assert_eq!(sum, 3 * u64::from(JOINS));
    assert!(
        each < Duration::from_micros(10),
        "a join of two constants took {each:?} on average"
    );
}
