//! What one run does: the two workloads (key distributions), the fixed
//! sizes of every phase, and how `--seconds` scales repetition counts.
//!
//! Sizes live here and nowhere else; `PAM_SCALE` is not read. Work is
//! fixed per run — repetition and request counts are derived from
//! `--seconds`, never from a clock — so both sides of a later comparison
//! do identical work.

/// How keys are picked for probes, updates and bulk operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyDist {
    /// Every key of the population is equally likely.
    Uniform,
    /// YCSB-style scrambled zipf, theta 0.99: a small hot set takes most
    /// of the traffic.
    Zipf,
}

/// One workload of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The key distribution it runs every phase under.
    pub dist: KeyDist,
}

/// The workloads, in `BENCHMARK.json` order.
pub const PROFILES: &[Profile] = &[
    Profile {
        name: "uniform",
        dist: KeyDist::Uniform,
    },
    Profile {
        name: "zipf",
        dist: KeyDist::Zipf,
    },
];

/// The `--seconds` value the sizes below are calibrated for
/// (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// Zipf exponent of the skewed workload (YCSB's default).
pub const ZIPF_THETA: f64 = 0.99;
/// Rank universe of the zipf sampler: ranks are scrambled onto the key
/// population, so a CDF of this many ranks serves every population size.
pub const ZIPF_RANKS: usize = 1 << 20;

/// The phases of a run, in execution order.
pub const PHASES: &[&str] = &[
    "tree-bulk",
    "tree-read",
    "apps",
    "store-commit",
    "serve-read",
    "serve-mixed",
];

/// Set-ups per phase; `setup_s` sums the per-phase medians.
pub const SETUP_REPS: usize = 3;

// -- tree-bulk ---------------------------------------------------------------
/// Input pairs per bulk operand.
pub const BULK_N: usize = 1_000_000;
/// Keys are drawn from `[0, BULK_KEY_RANGE)`.
pub const BULK_KEY_RANGE: u64 = 4 * BULK_N as u64;
/// Size of the small operand (n / 1000).
pub const BULK_SMALL: usize = BULK_N / 1000;

// -- tree-read ---------------------------------------------------------------
/// Entries of the large map (~85 MB, far beyond the 4 MiB L2).
pub const READ_N: usize = 4_000_000;
/// Entries of the small map, which fits L2.
pub const READ_SMALL_N: usize = 100_000;
/// Keys are multiples of this stride, so absent keys exist between them.
pub const READ_STRIDE: u64 = 4;
/// Point probes per repetition.
pub const READ_PROBES: usize = 100_000;
/// `aug_range` windows per repetition.
pub const READ_WINDOWS: usize = 50_000;
/// Entries an `aug_range` window spans.
pub const READ_WINDOW: u64 = 1_000;

// -- apps ------------------------------------------------------------------
/// Intervals in the interval map.
pub const INTERVALS: usize = 1_000_000;
/// Points in the range tree.
pub const POINTS: usize = 200_000;
/// Documents x tokens per document = 2M tokens.
pub const CORPUS_DOCS: usize = 10_000;
/// Tokens per document.
pub const CORPUS_DOC_LEN: usize = 200;
/// Vocabulary size.
pub const CORPUS_VOCAB: usize = 50_000;

// -- store-commit / serve-* --------------------------------------------------
/// Records preloaded into the store (16-byte key, 100-byte value).
pub const RECORDS: usize = 300_000;
/// Key bytes.
pub const KEY_BYTES: usize = 16;
/// Value bytes.
pub const VALUE_BYTES: usize = 100;
/// Shards, workers and closed-loop callers: sized for `nproc` = 2.
pub const SHARDS: usize = 2;
/// Closed-loop callers (writer threads / connections).
pub const CALLERS: usize = 2;
/// Group-commit window, microseconds.
pub const WINDOW_US: u64 = 200;
/// Keys per cross-shard batch, `get_many` and `batch` request.
pub const BATCH_KEYS: usize = 16;
/// WAL bytes per shard between background checkpoints.
pub const CHECKPOINT_EVERY_BYTES: u64 = 384 << 10;

/// Back-to-back repetitions of each ungated side measurement in a traced
/// run.
pub const SIDE_REPS: usize = 6;
/// store-commit: operations per writer after the manual checkpoint (the
/// fixed WAL tail recovery replays).
pub const STORE_TAIL_OPS: usize = 1_000;

/// Round and request counts of one run, scaled from `--seconds`.
///
/// A run is a warm-up round plus `rounds` measured ones. Each round times
/// every repeated operation once and sends one slice of each request
/// mix, so every metric samples the whole run.
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    /// Measured rounds (= repetitions of each tree and app operation and
    /// of the store reopen).
    pub rounds: usize,
    /// store-commit: operations per writer before the manual checkpoint.
    pub store_ops: usize,
    /// serve-read: requests per connection per round.
    pub read_slice: usize,
    /// serve-mixed: requests per connection per round.
    pub mixed_slice: usize,
}

impl Counts {
    /// Counts for a run of `seconds`. The traced pass makes fewer rounds
    /// (its numbers are ungated, and it carries the per-layer side
    /// measurements as well) but drives the store longer, so that
    /// several background checkpoints complete beside the writers.
    pub fn new(seconds: u64, traced: bool) -> Counts {
        let scale = seconds as f64 / RUN_SECONDS as f64;
        let n = |base: usize, min: usize| ((base as f64 * scale).round() as usize).max(min);
        if traced {
            Counts {
                rounds: n(6, 5),
                store_ops: n(6_000, 1_000),
                read_slice: 1_500,
                mixed_slice: 1_000,
            }
        } else {
            Counts {
                rounds: n(15, 5),
                store_ops: 1_000,
                read_slice: 2_000,
                mixed_slice: 700,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_declared_run_length_gives_the_issue_floor_counts() {
        let c = Counts::new(RUN_SECONDS, false);
        // tree ops >= 15 repetitions, request latencies >= 50 000 samples
        assert!(c.rounds >= 15);
        assert!(c.rounds * c.read_slice * CALLERS >= 50_000);
        let t = Counts::new(RUN_SECONDS, true);
        assert!(t.rounds >= 5 && t.rounds < c.rounds);
        // a tiny --seconds still measures something
        assert!(Counts::new(1, false).rounds >= 5);
    }
}
