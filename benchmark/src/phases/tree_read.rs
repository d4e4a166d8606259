//! `tree-read`: the same map type as `tree-bulk`, used the other way —
//! point reads, augmented range sums and scans of a 4M-entry map far
//! larger than L2. A leaf-layout or encoding change that speeds scans or
//! shrinks bytes per entry but taxes `multi_insert` (or the reverse)
//! shows on one phase and costs on the other.

use super::{Ctx, Phase};
use crate::gen::{stream, KeyPicker};
use crate::measure::{reps, setups, Samples};
use crate::oracle::SumMap;
use crate::profile::{
    KeyDist, READ_N, READ_PROBES, READ_SMALL_N, READ_STRIDE, READ_WINDOW, READ_WINDOWS, SETUP_REPS,
    SIDE_REPS,
};
use crate::trace::Recorder;
use baselines::BPlusTree;
use pam::stats::{reachable_bytes, unique_nodes};
use pam::{Tree, WeightBalanced};
use std::collections::BTreeMap;
use std::hint::black_box;
use workloads::hash64;

type Spec = pam::SumAug<u64, u64>;

/// The structured key population: key `i * READ_STRIDE` holds `vals[i]`,
/// so every answer has a closed form and no second tree is needed.
struct Population {
    vals: Vec<u64>,
    /// `prefix[i]` = wrapping sum of `vals[..i]`.
    prefix: Vec<u64>,
}

impl Population {
    fn new(n: usize, seed: u64) -> Population {
        let vals: Vec<u64> = (0..n as u64).map(|i| hash64(seed ^ i)).collect();
        let mut prefix = Vec::with_capacity(n + 1);
        let mut acc = 0u64;
        prefix.push(acc);
        for v in &vals {
            acc = acc.wrapping_add(*v);
            prefix.push(acc);
        }
        Population { vals, prefix }
    }

    fn pairs(&self) -> Vec<(u64, u64)> {
        self.vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64 * READ_STRIDE, v))
            .collect()
    }

    fn get(&self, key: u64) -> Option<u64> {
        key.is_multiple_of(READ_STRIDE)
            .then(|| self.vals.get((key / READ_STRIDE) as usize).copied())
            .flatten()
    }

    /// Sum over keys in `[lo, hi]`.
    fn sum_range(&self, lo: u64, hi: u64) -> u64 {
        let first = (lo.div_ceil(READ_STRIDE) as usize).min(self.vals.len());
        let end = ((hi / READ_STRIDE) as usize + 1).min(self.vals.len());
        if first >= end {
            return 0;
        }
        self.prefix[end].wrapping_sub(self.prefix[first])
    }

    /// Probe keys under `picker`; one in eight is absent (between two
    /// stored keys).
    fn probes(&self, picker: &KeyPicker, stream: u64, m: usize) -> Vec<u64> {
        (0..m as u64)
            .map(|i| {
                let idx = picker.pick(stream, i, self.vals.len()) as u64;
                idx * READ_STRIDE + u64::from(hash64(stream ^ !i).is_multiple_of(8))
            })
            .collect()
    }
}

fn get_loop(map: &SumMap, probes: &[u64]) -> (u64, usize) {
    let (mut acc, mut hits) = (0u64, 0usize);
    for k in probes {
        if let Some(v) = map.get(k) {
            acc = acc.wrapping_add(*v);
            hits += 1;
        }
    }
    (acc, hits)
}

/// Longest root-to-leaf path, leaf blocks, and entries held in leaves.
fn shape(t: &Tree<Spec, WeightBalanced>) -> (usize, usize, usize) {
    let (mut height, mut leaves, mut in_leaves) = (0, 0, 0);
    let mut stack = Vec::new();
    if let Some(root) = t.as_deref() {
        stack.push((root, 1usize));
    }
    while let Some((node, depth)) = stack.pop() {
        height = height.max(depth);
        if let Some(leaf) = node.as_leaf() {
            leaves += 1;
            in_leaves += leaf.entries().len();
        }
        if let Some((l, r)) = node.children() {
            stack.extend(l.as_deref().map(|n| (n, depth + 1)));
            stack.extend(r.as_deref().map(|n| (n, depth + 1)));
        }
    }
    (height, leaves, in_leaves)
}

/// The prepared phase: the large map, its closed-form oracle, and the
/// probe sets.
pub struct TreeRead {
    pop: Population,
    pairs: Vec<(u64, u64)>,
    big: SumMap,
    probes: Vec<u64>,
    windows: Vec<(u64, u64)>,
    /// Wrapping sum of `key ^ value` over the whole map: what a full
    /// scan must fold to.
    folded: u64,
    get: Samples,
    aug_range: Samples,
    scan: Samples,
}

/// Build the 4M-entry map (the set-up) and check one pass of every
/// probe against the closed form.
pub fn prepare(ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Box<dyn Phase> {
    let seed = ctx.seed;
    let pop = Population::new(READ_N, stream(seed, 0x20));
    let pairs = pop.pairs();
    let mut inputs: Vec<_> = (0..SETUP_REPS).map(|_| pairs.clone()).collect();
    let (setup, big) = setups(rec, "tree-read.setup", SETUP_REPS, |_| {
        SumMap::build(inputs.pop().expect("one input per set-up"))
    });
    ctx.setup_s += setup;

    let probes = pop.probes(ctx.picker, stream(seed, 0x21), READ_PROBES);
    let width = READ_WINDOW * READ_STRIDE - 1;
    let windows: Vec<(u64, u64)> = pop
        .probes(ctx.picker, stream(seed, 0x22), READ_WINDOWS)
        .into_iter()
        .map(|lo| (lo, lo + width))
        .collect();

    let checks = &mut ctx.report.checks;
    checks.check(big.len() == READ_N, || {
        format!("len {} != {READ_N}", big.len())
    });
    checks.check(big.aug_val() == pop.prefix[READ_N], || {
        "aug_val differs".into()
    });
    for k in &probes {
        checks.check(big.get(k).copied() == pop.get(*k), || {
            format!("get({k}) is wrong")
        });
    }
    for &(lo, hi) in &windows {
        checks.check(big.aug_range(&lo, &hi) == pop.sum_range(lo, hi), || {
            format!("aug_range({lo}, {hi}) is wrong")
        });
    }
    let folded = pairs.iter().fold(0u64, |a, (k, v)| a.wrapping_add(k ^ v));
    Box::new(TreeRead {
        pop,
        pairs,
        big,
        probes,
        windows,
        folded,
        get: Samples::default(),
        aug_range: Samples::default(),
        scan: Samples::default(),
    })
}

impl Phase for TreeRead {
    /// The three gated reads, one thread: the per-core rate of each.
    fn round(&mut self, ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<(), String> {
        let Self {
            big,
            probes,
            windows,
            get,
            aug_range,
            scan,
            ..
        } = self;
        let hits = get.time(rec, "pam", "get", || get_loop(big, probes));
        let sum = aug_range.time(rec, "pam", "aug_range", || {
            let mut acc = 0u64;
            for (lo, hi) in windows {
                acc = acc.wrapping_add(big.aug_range(lo, hi));
            }
            acc
        });
        let (count, folded) = scan.time(rec, "pam", "cursor.scan", || {
            let mut cursor = big.cursor();
            let (mut count, mut acc) = (0usize, 0u64);
            while let Some((k, v)) = cursor.advance() {
                count += 1;
                acc = acc.wrapping_add(k ^ v);
            }
            (count, acc)
        });
        black_box((hits, sum));
        ctx.report
            .checks
            .check(count == READ_N && folded == self.folded, || {
                format!("cursor scan visited {count} entries or folded them wrongly")
            });
        Ok(())
    }

    fn reset(&mut self) {
        self.get = Samples::default();
        self.aug_range = Samples::default();
        self.scan = Samples::default();
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<(), String> {
        let (get_s, scan_s) = (self.get.typical(), self.scan.typical());
        if ctx.traced() {
            self.side_measurements(ctx, rec, get_s, scan_s);
        } else {
            let bytes = reachable_bytes(&[self.big.root()]);
            let r = &mut *ctx.report;
            r.set("find_mops_s", READ_PROBES as f64 / get_s / 1e6);
            r.set(
                "aug_range_mops_s",
                READ_WINDOWS as f64 / self.aug_range.typical() / 1e6,
            );
            r.set("scan_mkeys_s", READ_N as f64 / scan_s / 1e6);
            r.set("mem_bytes_per_entry", bytes as f64 / READ_N as f64);
        }
        Ok(())
    }
}

impl TreeRead {
    /// The per-layer metrics of the traced pass.
    fn side_measurements(
        &self,
        ctx: &mut Ctx<'_>,
        rec: &mut Recorder<'_>,
        get_s: f64,
        scan_s: f64,
    ) {
        let Self {
            pop,
            pairs,
            big,
            probes,
            windows,
            ..
        } = self;
        let n = SIDE_REPS;
        let seed = ctx.seed;
        let per_probe = |secs: f64| secs * 1e9 / READ_PROBES as f64;

        let uniform = KeyPicker::new(KeyDist::Uniform);
        let zipf = KeyPicker::new(KeyDist::Zipf);
        let probes_u = pop.probes(&uniform, stream(seed, 0x23), READ_PROBES);
        let probes_z = pop.probes(&zipf, stream(seed, 0x24), READ_PROBES);
        let (u_s, _) = reps(
            rec,
            "pam",
            "get.uniform",
            n,
            || (),
            |()| get_loop(big, &probes_u),
        );
        let (z_s, _) = reps(
            rec,
            "pam",
            "get.zipf",
            n,
            || (),
            |()| get_loop(big, &probes_z),
        );
        let r = &mut *ctx.report;
        r.set("pam.find_uniform_ns", per_probe(u_s));
        r.set("pam.find_zipf_ns", per_probe(z_s));

        let (left_s, _) = reps(
            rec,
            "pam",
            "aug_left",
            n,
            || (),
            |()| {
                let mut acc = 0u64;
                for k in probes {
                    acc = acc.wrapping_add(big.aug_left(k));
                }
                acc
            },
        );
        r.set("pam.aug_left_ns", per_probe(left_s));

        let few = &windows[..2_000];
        let (range_s, got) = reps(
            rec,
            "pam",
            "range",
            n,
            || (),
            |()| {
                few.iter()
                    .map(|(lo, hi)| big.range(lo, hi).len())
                    .sum::<usize>()
            },
        );
        let want: usize = few
            .iter()
            .map(|&(lo, hi)| {
                let end = ((hi / READ_STRIDE) as usize + 1).min(READ_N);
                end.saturating_sub(lo.div_ceil(READ_STRIDE) as usize)
            })
            .sum();
        r.checks.check(got == want, || {
            format!("range extracted {got} entries, expected {want}")
        });
        r.set("pam.range_extract_us", range_s * 1e6 / few.len() as f64);

        let (seek_s, _) = reps(
            rec,
            "pam",
            "cursor_at",
            n,
            || (),
            |()| {
                let mut acc = 0u64;
                for k in probes {
                    if let Some((key, _)) = big.cursor_at(k).advance() {
                        acc = acc.wrapping_add(*key);
                    }
                }
                acc
            },
        );
        r.set("pam.cursor_seek_ns", per_probe(seek_s));

        let (each_s, visited) = reps(
            rec,
            "pam",
            "for_each",
            n,
            || (),
            |()| {
                let mut acc = 0u64;
                big.for_each(|k, v| acc = acc.wrapping_add(k ^ v));
                acc
            },
        );
        r.checks.check(visited == self.folded, || {
            "for_each folded the entries wrongly".into()
        });
        r.set("pam.for_each_ns_per_entry", each_s * 1e9 / READ_N as f64);

        let (height, leaves, in_leaves) = shape(big.root());
        r.set("pam.height", height as f64);
        r.set(
            "pam.nodes_per_entry",
            unique_nodes(&[big.root()]) as f64 / READ_N as f64,
        );
        r.set(
            "pam.leaf_fill",
            in_leaves as f64 / (leaves * pam::DEFAULT_LEAF_B) as f64,
        );

        // the small map fits L2: the same loop without the cache misses
        let small_pop = Population::new(READ_SMALL_N, stream(seed, 0x25));
        let small = SumMap::build(small_pop.pairs());
        let probes_s = small_pop.probes(ctx.picker, stream(seed, 0x26), READ_PROBES);
        let (small_s, _) = reps(
            rec,
            "pam",
            "get.small",
            n,
            || (),
            |()| get_loop(&small, &probes_s),
        );
        r.set("pam.find_small_ns", per_probe(small_s));

        // competitors, same keys and probes: std BTreeMap on the large map,
        // the concurrent B+-tree (slow to fill) on the small one
        let btree: BTreeMap<u64, u64> = pairs.iter().copied().collect();
        let (bt_get_s, bt_hits) = reps(
            rec,
            "baselines",
            "btreemap.get",
            n,
            || (),
            |()| probes.iter().filter(|k| btree.contains_key(k)).count(),
        );
        r.checks.check(bt_hits == get_loop(big, probes).1, || {
            "BTreeMap and pam disagree on hits".into()
        });
        r.set("baselines.btreemap_find_ratio", get_s / bt_get_s);
        let (bt_scan_s, _) = reps(
            rec,
            "baselines",
            "btreemap.iter",
            n,
            || (),
            |()| btree.iter().fold(0u64, |a, (k, v)| a.wrapping_add(k ^ v)),
        );
        r.set("baselines.btreemap_scan_ratio", scan_s / bt_scan_s);
        drop(btree);

        let bplus = BPlusTree::new();
        for (k, v) in small_pop.pairs() {
            bplus.insert(k, v);
        }
        let (bp_s, bp_hits) = reps(
            rec,
            "baselines",
            "bplustree.get",
            n,
            || (),
            |()| probes_s.iter().filter(|k| bplus.get(**k).is_some()).count(),
        );
        r.checks
            .check(bp_hits == get_loop(&small, &probes_s).1, || {
                "B+-tree and pam disagree on hits".into()
            });
        r.set("baselines.bplustree_find_ratio", small_s / bp_s);
    }
}
