//! The tree oracle: a `BTreeMap` flattened to sorted vectors with
//! prefix sums, answering `len`, `get`, `aug_val` and `aug_range` for
//! `AugMap<SumAug<u64, u64>>` without any code of the layers under test.

use crate::report::Checks;
use pam::{AugMap, SumAug};
use std::collections::BTreeMap;
use workloads::hash64;

/// The map type the tree phases measure.
pub type SumMap = AugMap<SumAug<u64, u64>>;

/// A set operation [`Oracle::combine`] can mirror.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetOp {
    /// Keys of either side; the right side's value wins.
    Union,
    /// Keys of both sides; the left side's value.
    Intersect,
    /// Keys of the left side absent from the right.
    Difference,
}

/// Sorted distinct entries plus wrapping prefix sums of their values.
pub struct Oracle {
    keys: Vec<u64>,
    vals: Vec<u64>,
    /// `prefix[i]` = wrapping sum of `vals[..i]`.
    prefix: Vec<u64>,
}

impl Oracle {
    /// From unsorted pairs, through a `BTreeMap`: the last value of a
    /// duplicated key wins there as in `AugMap::build`.
    pub fn from_pairs(pairs: &[(u64, u64)]) -> Oracle {
        let map: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        Oracle::from_sorted(map.into_iter())
    }

    /// From entries already sorted by distinct key.
    pub fn from_sorted(entries: impl Iterator<Item = (u64, u64)>) -> Oracle {
        let (keys, vals): (Vec<u64>, Vec<u64>) = entries.unzip();
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let mut prefix = Vec::with_capacity(vals.len() + 1);
        let mut acc = 0u64;
        prefix.push(acc);
        for v in &vals {
            acc = acc.wrapping_add(*v);
            prefix.push(acc);
        }
        Oracle { keys, vals, prefix }
    }

    /// The oracle of a set operation on two maps, by a sorted merge:
    /// `Union` lets `other`'s value win on a common key (as
    /// `AugMap::union` and `multi_insert` do), `Intersect` keeps this
    /// side's value, `Difference` keeps this side's keys absent from
    /// `other`.
    pub fn combine(&self, other: &Oracle, op: SetOp) -> Oracle {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len() + other.len());
        while i < self.len() || j < other.len() {
            let a = self.keys.get(i);
            let b = other.keys.get(j);
            match (a, b) {
                (Some(a), Some(b)) if a == b => {
                    match op {
                        SetOp::Union => out.push((*a, other.vals[j])),
                        SetOp::Intersect => out.push((*a, self.vals[i])),
                        SetOp::Difference => {}
                    }
                    i += 1;
                    j += 1;
                }
                (Some(a), b) if b.is_none_or(|b| a < b) => {
                    if op != SetOp::Intersect {
                        out.push((*a, self.vals[i]));
                    }
                    i += 1;
                }
                _ => {
                    if op == SetOp::Union {
                        out.push((other.keys[j], other.vals[j]));
                    }
                    j += 1;
                }
            }
        }
        Oracle::from_sorted(out.into_iter())
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// The sorted distinct keys.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// The entries, sorted by key.
    pub fn entries(&self) -> Vec<(u64, u64)> {
        self.keys
            .iter()
            .copied()
            .zip(self.vals.iter().copied())
            .collect()
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.keys.binary_search(&key).ok().map(|i| self.vals[i])
    }

    /// Wrapping sum of the values with key in `[lo, hi]`.
    pub fn sum_range(&self, lo: u64, hi: u64) -> u64 {
        if lo > hi {
            return 0;
        }
        let from = self.keys.partition_point(|&k| k < lo);
        let to = self.keys.partition_point(|&k| k <= hi);
        self.prefix[to].wrapping_sub(self.prefix[from])
    }

    /// Wrapping sum of every value.
    pub fn total(&self) -> u64 {
        self.prefix[self.keys.len()]
    }

    /// Check `map` against the oracle: length, whole-map augmented
    /// value, and `samples` seeded probes each of `get` (present and
    /// arbitrary keys alternating) and `aug_range`.
    pub fn check(&self, map: &SumMap, what: &str, seed: u64, samples: u64, checks: &mut Checks) {
        checks.check(map.len() == self.len(), || {
            format!("{what}: len {} != oracle {}", map.len(), self.len())
        });
        checks.check(map.aug_val() == self.total(), || {
            format!("{what}: aug_val differs from the oracle's sum")
        });
        let top = self.keys.last().copied().unwrap_or(0).saturating_add(2);
        for i in 0..samples {
            let h = hash64(seed ^ i);
            let key = if i % 2 == 0 && !self.keys.is_empty() {
                self.keys[(h % self.keys.len() as u64) as usize]
            } else {
                h % top
            };
            checks.check(map.get(&key).copied() == self.get(key), || {
                format!("{what}: get({key}) differs from the oracle")
            });
            let lo = hash64(h) % top;
            let hi = lo.saturating_add(hash64(h ^ 1) % (top / 64 + 1));
            checks.check(map.aug_range(&lo, &hi) == self.sum_range(lo, hi), || {
                format!("{what}: aug_range({lo}, {hi}) differs from the oracle")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_answers_by_hand() {
        let o = Oracle::from_pairs(&[(5, 50), (1, 10), (3, 30), (5, 51)]);
        assert_eq!(o.len(), 3);
        assert_eq!(o.get(5), Some(51)); // the last duplicate wins
        assert_eq!(o.get(2), None);
        assert_eq!(o.total(), 91);
        assert_eq!(o.sum_range(2, 5), 81);
        assert_eq!(o.sum_range(0, 0), 0);
        assert_eq!(o.sum_range(4, 2), 0);

        let p = Oracle::from_pairs(&[(3, 33), (4, 40)]);
        assert_eq!(
            o.combine(&p, SetOp::Union).entries(),
            [(1, 10), (3, 33), (4, 40), (5, 51)]
        );
        assert_eq!(o.combine(&p, SetOp::Intersect).entries(), [(3, 30)]);
        assert_eq!(
            o.combine(&p, SetOp::Difference).entries(),
            [(1, 10), (5, 51)]
        );
    }

    #[test]
    fn a_correct_map_passes_and_a_wrong_one_fails() {
        let pairs: Vec<(u64, u64)> = (0..5_000u64)
            .map(|i| (hash64(i) % 8_000, hash64(!i)))
            .collect();
        let o = Oracle::from_pairs(&pairs);
        let mut checks = Checks::default();
        o.check(&SumMap::build(pairs.clone()), "build", 1, 200, &mut checks);
        assert_eq!(checks.failed, 0);
        assert_eq!(checks.attempted, 402);

        let mut wrong = SumMap::build(pairs);
        wrong.insert(o.keys()[0], o.get(o.keys()[0]).unwrap().wrapping_add(1));
        let mut checks = Checks::default();
        o.check(&wrong, "tampered", 1, 200, &mut checks);
        assert!(checks.failed > 0);
    }
}
