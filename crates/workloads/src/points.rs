//! 2D point workloads for the range-tree experiments (§5.2 / §6.3).

use crate::rng::hash64;

/// `n` weighted points with coordinates uniform in `[0, universe)²` and
/// weights uniform in `[0, 100)`.
pub fn random_points(n: usize, seed: u64, universe: u32) -> Vec<(u32, u32, u64)> {
    assert!(universe > 0);
    parlay::tabulate(n, |i| {
        let i = i as u64;
        (
            (hash64(seed ^ (i * 3)) % universe as u64) as u32,
            (hash64(seed ^ (i * 3 + 1)) % universe as u64) as u32,
            hash64(seed ^ (i * 3 + 2)) % 100,
        )
    })
}

/// `m` query windows, each spanning roughly `frac` of the universe per
/// axis (so the expected output size is `n · frac²`).
pub fn query_windows(m: usize, seed: u64, universe: u32, frac: f64) -> Vec<(u32, u32, u32, u32)> {
    let span = ((universe as f64) * frac).max(1.0) as u64;
    parlay::tabulate(m, |i| {
        let i = i as u64;
        let xl = hash64(seed ^ (i * 2)) % universe as u64;
        let yl = hash64(seed ^ (i * 2 + 1)) % universe as u64;
        let xr = (xl + span).min(universe as u64 - 1);
        let yr = (yl + span).min(universe as u64 - 1);
        (xl as u32, xr as u32, yl as u32, yr as u32)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_in_bounds() {
        for (x, y, w) in random_points(10_000, 3, 1 << 20) {
            assert!(x < 1 << 20 && y < 1 << 20 && w < 100);
        }
    }

    #[test]
    fn windows_are_ordered() {
        for (xl, xr, yl, yr) in query_windows(1000, 4, 1 << 20, 0.01) {
            assert!(xl <= xr && yl <= yr);
        }
    }
}
