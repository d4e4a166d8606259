//! The calibration kernel: how fast is the machine *right now*?
//!
//! This sandbox shares its caches and memory system with other tenants,
//! and its effective speed drifts by 15-30 % over minutes: ten runs of
//! one commit move together — build, find, scan, put latency, all of
//! them — by that much. No statistic inside a run can remove a drift
//! that outlasts the run, so every run also times a fixed kernel that
//! uses nothing of this repository (a sort, a `BTreeMap` build, lookups
//! and an iteration over 300 000 pairs, on every core at once, once per
//! round), and the gated timings are expressed at the kernel's nominal
//! speed. Measured here, that brings the run-to-run spread of the same
//! commit from 10-35 % down to 3-9 %.
//!
//! A change to the repository cannot move the kernel, so it cannot hide
//! behind it; what the scaling removes is the part of a timing the
//! machine's state explains.

use crate::env::nproc;
use std::collections::BTreeMap;
use std::hint::black_box;
use workloads::hash64;

/// The kernel's lower-quartile wall time on this sandbox at its usual
/// speed; gated timings are scaled to it.
pub const NOMINAL_S: f64 = 0.075;

const PAIRS: u64 = 300_000;

fn one_core(salt: u64) -> u64 {
    let mut pairs: Vec<(u64, u64)> = (0..PAIRS).map(|i| (hash64(i ^ salt), i)).collect();
    pairs.sort_unstable();
    let map: BTreeMap<u64, u64> = pairs.iter().copied().collect();
    let mut acc = 0u64;
    for i in 0..PAIRS {
        if let Some(v) = map.get(&hash64(i.wrapping_mul(7) ^ salt)) {
            acc ^= v;
        }
    }
    for (k, v) in &map {
        acc = acc.wrapping_add(k ^ v);
    }
    acc
}

/// Run the kernel once on every core; the caller times it.
pub fn kernel(round: u64) {
    std::thread::scope(|scope| {
        for core in 0..nproc() as u64 {
            scope.spawn(move || black_box(one_core(round << 8 | core)));
        }
    });
}

/// The factor a measured time is multiplied by (and a measured rate
/// divided by) to express it at nominal machine speed.
pub fn factor(kernel_s: f64) -> f64 {
    NOMINAL_S / kernel_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_machine_scales_times_down_and_a_fast_one_up() {
        assert!(factor(2.0 * NOMINAL_S) == 0.5);
        assert!(factor(0.5 * NOMINAL_S) == 2.0);
        assert!(factor(NOMINAL_S) == 1.0);
        // the kernel is deterministic in its result
        assert_eq!(one_core(3), one_core(3));
    }
}
