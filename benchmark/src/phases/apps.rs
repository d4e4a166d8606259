//! `apps`: the paper's Table 1 headline — interval tree, 2D range tree
//! and inverted index built on `pam`. The only phase that exercises
//! nested-map augmentation (`combine` = union of inner maps) and
//! posting-list set operations; it bypasses everything below `pam`.

use super::{Ctx, Phase};
use crate::gen::stream;
use crate::measure::{setups, Samples};
use crate::profile::{CORPUS_DOCS, CORPUS_DOC_LEN, CORPUS_VOCAB, INTERVALS, POINTS, SETUP_REPS};
use crate::report::Checks;
use crate::trace::Recorder;
use pam::stats::reachable_bytes;
use pam_index::{top_k, InvertedIndex};
use pam_interval::IntervalMap;
use pam_rangetree::RangeTree;
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use workloads::{hash64, Corpus, CorpusConfig};

/// Timeline the intervals lie on; with lengths up to [`MAX_LEN`] about
/// two stabs in three hit.
const UNIVERSE: u64 = 1_000_000_000;
const MAX_LEN: u64 = 2_000;
/// Side of the square the points lie in.
const SIDE: u32 = 1 << 20;
/// Distinct term-pair queries in the query log.
const QUERY_LOG: usize = 4_096;
/// The log's terms are the words of frequency rank 64..320 (word ids are
/// frequency ranks): posting lists of a few thousand down to a few
/// hundred documents. The log is the same for every seed, and a word's frequency
/// hardly depends on the seeded corpus, so the cost of the query set
/// does not swing with the seed as a frequency-weighted draw's does
/// (by 20-30 %, measured).
const TERM_BAND: std::ops::Range<u32> = 64..320;

// Query-set sizes, fixed so each application is about a third of
// `app_query_s` at the PR-12 baseline.
const STABS: usize = 30_000;
const REPORTS: usize = 1_000;
const SUM_WINDOWS: usize = 2_250;
const POINT_WINDOWS: usize = 2_250;
const TERM_QUERIES: usize = 180;

/// Brute-force answers checked per query kind.
const SAMPLES: usize = 8;

/// The prepared phase: the three structures, their raw inputs (for the
/// brute-force checks) and the fixed query sets.
pub struct Apps {
    intervals: Vec<(u64, u64)>,
    points: Vec<(u32, u32, u64)>,
    corpus: Corpus,
    imap: IntervalMap,
    rtree: RangeTree,
    index: InvertedIndex,
    stabs: Vec<u64>,
    reports: Vec<u64>,
    sum_windows: Vec<(u32, u32, u32, u32)>,
    point_windows: Vec<(u32, u32, u32, u32)>,
    terms: Vec<(u32, u32)>,
    builds: [f64; 3],
    stab: Samples,
    report_all: Samples,
    query_sum: Samples,
    query_points: Samples,
    and_query: Samples,
    or_query: Samples,
    top_k: Samples,
}

/// Build each structure three times (the set-up), fix the query sets,
/// and check a subsample of each query kind against brute force.
pub fn prepare(ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Box<dyn Phase> {
    let seed = ctx.seed;
    let picker = ctx.picker;
    let intervals = workloads::random_intervals(INTERVALS, stream(seed, 0x30), UNIVERSE, MAX_LEN);
    let points = workloads::random_points(POINTS, stream(seed, 0x31), SIDE);
    let corpus = Corpus::generate(CorpusConfig {
        docs: CORPUS_DOCS,
        vocab: CORPUS_VOCAB,
        doc_len: CORPUS_DOC_LEN,
        zipf_s: 1.0,
        seed: stream(seed, 0x32),
    });

    let mut iv_inputs: Vec<_> = (0..SETUP_REPS).map(|_| intervals.clone()).collect();
    let (iv_build, imap) = setups(rec, "pam-interval.build", SETUP_REPS, |_| {
        IntervalMap::from_intervals(iv_inputs.pop().expect("one input per set-up"))
    });
    let mut pt_inputs: Vec<_> = (0..SETUP_REPS).map(|_| points.clone()).collect();
    let (rt_build, rtree) = setups(rec, "pam-rangetree.build", SETUP_REPS, |_| {
        RangeTree::build(pt_inputs.pop().expect("one input per set-up"))
    });
    let mut ix_inputs: Vec<_> = (0..SETUP_REPS).map(|_| corpus.triples.clone()).collect();
    let (ix_build, index) = setups(rec, "pam-index.build", SETUP_REPS, |_| {
        InvertedIndex::build(ix_inputs.pop().expect("one input per set-up"))
    });
    ctx.setup_s += iv_build + rt_build + ix_build;

    // query sets: positions follow the workload's key distribution, and
    // so does the choice of term pairs from the fixed query log
    let at = |tag: u64, m: usize, range: u64| -> Vec<u64> {
        let s = stream(seed, tag);
        (0..m as u64)
            .map(|i| picker.pick(s, i, range as usize) as u64)
            .collect()
    };
    let window = |frac: f64, xs: Vec<u64>, ys: Vec<u64>| -> Vec<(u32, u32, u32, u32)> {
        let span = (SIDE as f64 * frac) as u32;
        xs.into_iter()
            .zip(ys)
            .map(|(x, y)| {
                let (x, y) = (x as u32, y as u32);
                (x, (x + span).min(SIDE - 1), y, (y + span).min(SIDE - 1))
            })
            .collect()
    };
    let band = u64::from(TERM_BAND.end - TERM_BAND.start);
    let term = |j: u64| TERM_BAND.start + (hash64(j) % band) as u32;
    let log: Vec<(u32, u32)> = (0..QUERY_LOG as u64)
        .map(|j| (term(2 * j), term(2 * j + 1)))
        .collect();
    let apps = Apps {
        stabs: at(0x33, STABS, UNIVERSE),
        reports: at(0x34, REPORTS, UNIVERSE),
        sum_windows: window(
            0.1,
            at(0x35, SUM_WINDOWS, SIDE as u64),
            at(0x36, SUM_WINDOWS, SIDE as u64),
        ),
        point_windows: window(
            0.02,
            at(0x37, POINT_WINDOWS, SIDE as u64),
            at(0x38, POINT_WINDOWS, SIDE as u64),
        ),
        terms: at(0x3a, TERM_QUERIES, QUERY_LOG as u64)
            .into_iter()
            .map(|i| log[i as usize])
            .collect(),
        intervals,
        points,
        corpus,
        imap,
        rtree,
        index,
        builds: [iv_build, rt_build, ix_build],
        stab: Samples::default(),
        report_all: Samples::default(),
        query_sum: Samples::default(),
        query_points: Samples::default(),
        and_query: Samples::default(),
        or_query: Samples::default(),
        top_k: Samples::default(),
    };
    apps.brute_force(&mut ctx.report.checks);
    Box::new(apps)
}

impl Apps {
    /// Check the first few queries of each kind against brute force
    /// over the raw inputs.
    fn brute_force(&self, checks: &mut Checks) {
        let Self {
            intervals,
            points,
            corpus,
            imap,
            rtree,
            index,
            ..
        } = self;
        for &p in self.stabs.iter().take(SAMPLES) {
            let hit = intervals.iter().any(|&(l, r)| l <= p && p < r);
            checks.check(imap.stab(p) == hit, || format!("stab({p}) != {hit}"));
        }
        for &p in self.reports.iter().take(SAMPLES) {
            let mut want: Vec<(u64, u64)> = intervals
                .iter()
                .copied()
                .filter(|&(l, r)| l <= p && p < r)
                .collect();
            want.sort_unstable();
            want.dedup();
            checks.check(imap.report_all(p) == want, || {
                format!("report_all({p}) is wrong")
            });
        }
        let inside = |w: &(u32, u32, u32, u32)| {
            let &(xl, xr, yl, yr) = w;
            let mut hit: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            for &(x, y, wt) in points {
                if xl <= x && x <= xr && yl <= y && y <= yr {
                    *hit.entry((x, y)).or_default() += wt;
                }
            }
            hit
        };
        for w in self.sum_windows.iter().take(SAMPLES) {
            let want: u64 = inside(w).values().sum();
            checks.check(rtree.query_sum(w.0, w.1, w.2, w.3) == want, || {
                format!("query_sum{w:?} != {want}")
            });
        }
        for w in self.point_windows.iter().take(SAMPLES) {
            let want: Vec<(u32, u32, u64)> = inside(w)
                .into_iter()
                .map(|((x, y), wt)| (x, y, wt))
                .collect();
            checks.check(rtree.query_points(w.0, w.1, w.2, w.3) == want, || {
                format!("query_points{w:?} is wrong")
            });
        }
        for &(a, b) in self.terms.iter().take(SAMPLES) {
            let posting = |t: u32| {
                let mut docs: BTreeMap<u32, u64> = BTreeMap::new();
                for &(term, doc, wt) in &corpus.triples {
                    if term == t {
                        let slot = docs.entry(doc).or_default();
                        *slot = (*slot).max(wt);
                    }
                }
                docs
            };
            let (pa, pb) = (posting(a), posting(b));
            let both: Vec<(u32, u64)> = pa
                .iter()
                .filter_map(|(d, wa)| pb.get(d).map(|wb| (*d, wa + wb)))
                .collect();
            let mut either = pa.clone();
            for (d, wb) in &pb {
                *either.entry(*d).or_default() += wb;
            }
            checks.check(index.and_query(a, b).to_vec() == both, || {
                format!("and_query({a}, {b}) is wrong")
            });
            let or = index.or_query(a, b);
            let mut best: Vec<u64> = either.values().copied().collect();
            checks.check(
                or.to_vec() == either.into_iter().collect::<Vec<_>>(),
                || format!("or_query({a}, {b}) is wrong"),
            );
            best.sort_unstable_by(|x, y| y.cmp(x));
            best.truncate(10);
            let got: Vec<u64> = top_k(&or, 10).into_iter().map(|(_, wt)| wt).collect();
            checks.check(got == best, || {
                format!("top_k of or_query({a}, {b}) is wrong")
            });
        }
    }
}

impl Phase for Apps {
    /// Each application's fixed query set, once.
    fn round(&mut self, _ctx: &mut Ctx<'_>, rec: &mut Recorder<'_>) -> Result<(), String> {
        let Self {
            imap,
            rtree,
            index,
            stabs,
            reports,
            sum_windows,
            point_windows,
            terms,
            stab,
            report_all,
            query_sum,
            query_points,
            and_query,
            or_query,
            top_k: top_k_s,
            ..
        } = self;
        let hits = stab.time(rec, "pam-interval", "stab", || {
            stabs.iter().filter(|&&p| imap.stab(p)).count()
        });
        let reported = report_all.time(rec, "pam-interval", "report_all", || {
            reports
                .iter()
                .map(|&p| imap.report_all(p).len())
                .sum::<usize>()
        });
        let summed = query_sum.time(rec, "pam-rangetree", "query_sum", || {
            sum_windows.iter().fold(0u64, |a, &(xl, xr, yl, yr)| {
                a.wrapping_add(rtree.query_sum(xl, xr, yl, yr))
            })
        });
        let found = query_points.time(rec, "pam-rangetree", "query_points", || {
            point_windows
                .iter()
                .map(|&(xl, xr, yl, yr)| rtree.query_points(xl, xr, yl, yr).len())
                .sum::<usize>()
        });
        let both = and_query.time(rec, "pam-index", "and_query", || {
            terms
                .iter()
                .map(|&(a, b)| index.and_query(a, b).len())
                .sum::<usize>()
        });
        let either = or_query.time(rec, "pam-index", "or_query", || {
            terms
                .iter()
                .map(|&(a, b)| index.or_query(a, b).len())
                .sum::<usize>()
        });
        let best = top_k_s.time(rec, "pam-index", "top_k", || {
            terms
                .iter()
                .map(|&(a, b)| top_k(&index.or_query(a, b), 10).len())
                .sum::<usize>()
        });
        black_box((hits, reported, summed, found, both, either, best));
        Ok(())
    }

    fn reset(&mut self) {
        for s in [
            &mut self.stab,
            &mut self.report_all,
            &mut self.query_sum,
            &mut self.query_points,
            &mut self.and_query,
            &mut self.or_query,
            &mut self.top_k,
        ] {
            *s = Samples::default();
        }
    }

    fn finish(self: Box<Self>, ctx: &mut Ctx<'_>, _rec: &mut Recorder<'_>) -> Result<(), String> {
        let (stab_s, report_s) = (self.stab.typical(), self.report_all.typical());
        let (sum_s, pts_s) = (self.query_sum.typical(), self.query_points.typical());
        let (and_s, or_s, topk_s) = (
            self.and_query.typical(),
            self.or_query.typical(),
            self.top_k.typical(),
        );
        let interval_s = stab_s + report_s;
        let rangetree_s = sum_s + pts_s;
        let index_s = and_s + or_s + topk_s;
        let r = &mut *ctx.report;
        r.note(format!(
            "# app_query_s terms: pam-interval {interval_s:.4} s, pam-rangetree {rangetree_s:.4} s, pam-index {index_s:.4} s"
        ));
        if !ctx.tracer.enabled() {
            r.set("app_query_s", interval_s + rangetree_s + index_s);
            return Ok(());
        }

        let [iv_build, rt_build, ix_build] = self.builds;
        r.set("pam-interval.build_s", iv_build);
        r.set("pam-interval.stab_ns", stab_s * 1e9 / STABS as f64);
        r.set(
            "pam-interval.report_all_us",
            report_s * 1e6 / REPORTS as f64,
        );
        r.set("pam-rangetree.build_s", rt_build);
        r.set(
            "pam-rangetree.query_sum_us",
            sum_s * 1e6 / SUM_WINDOWS as f64,
        );
        r.set(
            "pam-rangetree.query_points_us",
            pts_s * 1e6 / POINT_WINDOWS as f64,
        );
        r.set("pam-index.build_s", ix_build);
        r.set("pam-index.and_query_us", and_s * 1e6 / TERM_QUERIES as f64);
        r.set("pam-index.or_query_us", or_s * 1e6 / TERM_QUERIES as f64);
        r.set("pam-index.top_k_us", topk_s * 1e6 / TERM_QUERIES as f64);

        // the range tree's footprint: the outer map plus every distinct inner
        // map hanging off its nodes (inner maps of a node and its children
        // share structure, which reachable_bytes counts once)
        let outer = self.rtree.outer();
        let mut inner_roots = Vec::new();
        let mut seen = HashSet::new();
        let mut stack: Vec<_> = outer.root().as_deref().into_iter().collect();
        while let Some(node) = stack.pop() {
            let inner = node.aug();
            if seen.insert(inner.root().as_ref().map(std::sync::Arc::as_ptr)) {
                inner_roots.push(inner.root());
            }
            if let Some((l, rt)) = node.children() {
                stack.extend(l.as_deref());
                stack.extend(rt.as_deref());
            }
        }
        let bytes = reachable_bytes(&[outer.root()]) + reachable_bytes(&inner_roots);
        r.set(
            "pam-rangetree.mem_bytes_per_point",
            bytes as f64 / self.rtree.len() as f64,
        );
        Ok(())
    }
}
