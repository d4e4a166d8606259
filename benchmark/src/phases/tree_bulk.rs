//! `tree-bulk`: the paper's Table 3 bulk updates on
//! `AugMap<u64 -> u64, sum>`. `pam` join/split, `parlay` sort and the
//! rayon shim do all the work; store, WAL and wire do none.

use super::{Ctx, Phase};
use crate::gen::{self, stream};
use crate::measure::{reps, setups, Samples};
use crate::oracle::{Oracle, SetOp, SumMap};
use crate::profile::{BULK_KEY_RANGE, BULK_N, BULK_SMALL, SETUP_REPS, SIDE_REPS};
use crate::trace::Recorder;
use pam::stats::reachable_bytes;
use std::collections::BTreeMap;
use workloads::hash64;

/// Single inserts timed for `pam.insert_ns`.
const INSERTS: usize = 2_000;

/// The prepared phase: inputs, operand maps, their oracles.
pub struct TreeBulk {
    pairs_a: Vec<(u64, u64)>,
    pairs_b: Vec<(u64, u64)>,
    pairs_s: Vec<(u64, u64)>,
    a: SumMap,
    b: SumMap,
    small: SumMap,
    oa: Oracle,
    ob: Oracle,
    os: Oracle,
    /// `a` united with `b`, `b`'s values winning: what `union` and
    /// `multi_insert` must both produce.
    ou: Oracle,
    build: Samples,
    union: Samples,
    multi_insert: Samples,
    round: u64,
}

/// Generate the inputs and build the operand maps (the set-up).
pub fn prepare(ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Box<dyn Phase> {
    let seed = ctx.seed;
    let pairs_a = gen::pairs(ctx.picker, stream(seed, 0x10), BULK_N, BULK_KEY_RANGE);
    let pairs_b = gen::pairs(ctx.picker, stream(seed, 0x11), BULK_N, BULK_KEY_RANGE);
    let pairs_s = gen::pairs(ctx.picker, stream(seed, 0x12), BULK_SMALL, BULK_KEY_RANGE);

    let mut inputs: Vec<_> = (0..SETUP_REPS)
        .map(|_| (pairs_a.clone(), pairs_b.clone(), pairs_s.clone()))
        .collect();
    let (setup, (a, b, small)) = setups(rec, "tree-bulk.setup", SETUP_REPS, |_| {
        let (pa, pb, ps) = inputs.pop().expect("one input set per set-up");
        (SumMap::build(pa), SumMap::build(pb), SumMap::build(ps))
    });
    ctx.setup_s += setup;

    let oa = Oracle::from_pairs(&pairs_a);
    let ob = Oracle::from_pairs(&pairs_b);
    let os = Oracle::from_pairs(&pairs_s);
    let ou = oa.combine(&ob, SetOp::Union);
    oa.check(&a, "operand a", seed, 64, &mut ctx.report.checks);
    ob.check(&b, "operand b", seed, 64, &mut ctx.report.checks);
    Box::new(TreeBulk {
        pairs_a,
        pairs_b,
        pairs_s,
        a,
        b,
        small,
        oa,
        ob,
        os,
        ou,
        build: Samples::default(),
        union: Samples::default(),
        multi_insert: Samples::default(),
        round: 0,
    })
}

impl Phase for TreeBulk {
    /// The three gated operations, P = nproc, once each. Inputs are
    /// cloned and results checked and dropped outside the timed spans.
    fn round(&mut self, ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<(), String> {
        self.round += 1;
        let seed = ctx.seed ^ (self.round << 32);
        let checks = &mut ctx.report.checks;

        let input = self.pairs_a.clone();
        let built = self
            .build
            .time(rec, "pam", "build", || SumMap::build(input));
        self.oa.check(&built, "build", seed ^ 1, 64, checks);
        drop(built);

        let (x, y) = (self.a.clone(), self.b.clone());
        let united = self.union.time(rec, "pam", "union", || x.union(y));
        self.ou.check(&united, "union", seed ^ 2, 64, checks);
        drop(united);

        let (mut m, batch) = (self.a.clone(), self.pairs_b.clone());
        self.multi_insert
            .time(rec, "pam", "multi_insert", || m.multi_insert(batch));
        self.ou.check(&m, "multi_insert", seed ^ 3, 64, checks);
        Ok(())
    }

    fn reset(&mut self) {
        self.build = Samples::default();
        self.union = Samples::default();
        self.multi_insert = Samples::default();
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<(), String> {
        let (build_s, union_s, mi_s) = (
            self.build.typical(),
            self.union.typical(),
            self.multi_insert.typical(),
        );
        let operand_keys = self.oa.len() + self.ob.len();
        if ctx.traced() {
            self.side_measurements(ctx, rec, build_s);
        } else {
            let r = &mut *ctx.report;
            r.set("build_mkeys_s", BULK_N as f64 / build_s / 1e6);
            r.set("union_mkeys_s", operand_keys as f64 / union_s / 1e6);
            r.set("multi_insert_mkeys_s", BULK_N as f64 / mi_s / 1e6);
        }
        Ok(())
    }
}

impl TreeBulk {
    /// The per-layer metrics of the traced pass.
    fn side_measurements(&self, ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>, build_s: f64) {
        let Self {
            pairs_a,
            pairs_b,
            pairs_s,
            a,
            b,
            small,
            oa,
            ob,
            os,
            ..
        } = self;
        let n = SIDE_REPS;
        let seed = ctx.seed;
        let r = &mut *ctx.report;
        let ns_per = |secs: f64, keys: usize| secs * 1e9 / keys as f64;
        let operand_keys = oa.len() + ob.len();

        // the paper's T1 column: with the Tp figures it separates an
        // algorithmic gain from a scheduler gain
        let (build_t1, _) = reps(
            rec,
            "pam",
            "build.t1",
            n,
            || pairs_a.clone(),
            |p| parlay::with_threads(1, || SumMap::build(p)),
        );
        let (union_t1, _) = reps(
            rec,
            "pam",
            "union.t1",
            n,
            || (a.clone(), b.clone()),
            |(x, y)| parlay::with_threads(1, || x.union(y)),
        );
        let (mi_t1, _) = reps(
            rec,
            "pam",
            "multi_insert.t1",
            n,
            || (a.clone(), pairs_b.clone()),
            |(mut m, batch)| {
                parlay::with_threads(1, || m.multi_insert(batch));
                m
            },
        );
        r.set("pam.build_t1_ns_per_key", ns_per(build_t1, BULK_N));
        r.set("pam.union_t1_ns_per_key", ns_per(union_t1, operand_keys));
        r.set("pam.multi_insert_t1_ns_per_key", ns_per(mi_t1, BULK_N));
        r.set("parlay.build_speedup", build_t1 / build_s);

        let (sort_s, _) = reps(
            rec,
            "parlay",
            "par_sort_by",
            n,
            || pairs_a.clone(),
            |mut v| {
                parlay::par_sort_by(&mut v, |x, y| x.0.cmp(&y.0));
                v
            },
        );
        r.set("parlay.sort_ns_per_key", ns_per(sort_s, BULK_N));

        let sorted = oa.entries();
        let (sorted_s, from_sorted) = reps(
            rec,
            "pam",
            "from_sorted_distinct",
            n,
            || (),
            |()| SumMap::from_sorted_distinct(&sorted),
        );
        oa.check(
            &from_sorted,
            "from_sorted_distinct",
            seed ^ 4,
            64,
            &mut r.checks,
        );
        drop(from_sorted);
        r.set(
            "pam.build_sorted_ns_per_key",
            ns_per(sorted_s, sorted.len()),
        );

        let with_small = oa.combine(os, SetOp::Union);
        let (us_s, united) = reps(
            rec,
            "pam",
            "union.small",
            n,
            || (a.clone(), small.clone()),
            |(x, y)| x.union(y),
        );
        with_small.check(&united, "union small", seed ^ 5, 64, &mut r.checks);
        drop(united);
        r.set("pam.union_small_us", us_s * 1e6);

        let (int_s, met) = reps(
            rec,
            "pam",
            "intersect_with",
            n,
            || (a.clone(), b.clone()),
            |(x, y)| x.intersect_with(y, |v, _| *v),
        );
        oa.combine(ob, SetOp::Intersect)
            .check(&met, "intersect_with", seed ^ 6, 64, &mut r.checks);
        drop(met);
        r.set("pam.intersect_ns_per_key", ns_per(int_s, operand_keys));

        let (diff_s, rest) = reps(
            rec,
            "pam",
            "difference",
            n,
            || (a.clone(), b.clone()),
            |(x, y)| x.difference(y),
        );
        oa.combine(ob, SetOp::Difference)
            .check(&rest, "difference", seed ^ 7, 64, &mut r.checks);
        drop(rest);
        r.set("pam.difference_ns_per_key", ns_per(diff_s, operand_keys));

        let (mis_s, inserted) = reps(
            rec,
            "pam",
            "multi_insert.small",
            n,
            || (a.clone(), pairs_s.clone()),
            |(mut m, batch)| {
                m.multi_insert(batch);
                m
            },
        );
        with_small.check(&inserted, "multi_insert small", seed ^ 8, 64, &mut r.checks);
        drop(inserted);
        r.set("pam.multi_insert_small_us", mis_s * 1e6);

        let victims: Vec<u64> = oa.keys().iter().copied().step_by(2).collect();
        let kept = Oracle::from_sorted(oa.entries().into_iter().skip(1).step_by(2));
        let (md_s, thinned) = reps(
            rec,
            "pam",
            "multi_delete",
            n,
            || (a.clone(), victims.clone()),
            |(mut m, keys)| {
                m.multi_delete(keys);
                m
            },
        );
        kept.check(&thinned, "multi_delete", seed ^ 9, 64, &mut r.checks);
        drop(thinned);
        r.set("pam.multi_delete_ns_per_key", ns_per(md_s, victims.len()));

        // single inserts into a snapshotted map, as an epoch of one put is
        // applied: every insert path-copies from the shared root
        let probes: Vec<(u64, u64)> = (0..INSERTS as u64)
            .map(|i| (hash64(seed ^ i ^ 0xab) % BULK_KEY_RANGE, i))
            .collect();
        let (ins_s, _) = reps(
            rec,
            "pam",
            "insert",
            n,
            || (),
            |()| {
                let mut acc = 0usize;
                for &(k, v) in &probes {
                    let mut m = a.clone();
                    m.insert(k, v);
                    acc += m.len();
                }
                acc
            },
        );
        r.set("pam.insert_ns", ns_per(ins_s, INSERTS));
        let base_bytes = reachable_bytes(&[a.root()]);
        let copied: usize = probes[..8]
            .iter()
            .map(|&(k, v)| {
                let mut m = a.clone();
                m.insert(k, v);
                reachable_bytes(&[a.root(), m.root()]) - base_bytes
            })
            .sum();
        r.set("pam.copied_bytes_per_insert", copied as f64 / 8.0);

        // three repetitions are enough for a ratio, and a BTreeMap of a
        // million entries is slow to drop
        let (bt_s, _) = reps(
            rec,
            "baselines",
            "btreemap.build",
            3,
            || pairs_a.clone(),
            |p| p.into_iter().collect::<BTreeMap<u64, u64>>(),
        );
        r.set("baselines.btreemap_build_ratio", build_s / bt_s);
    }
}
