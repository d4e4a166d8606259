//! Table 3 reproduction: timings for the core PAM functions, with and
//! without augmentation, against the STL-equivalent sequential baselines
//! and the MCSTL-equivalent parallel array merge.
//!
//! Paper sizes: n = 10^8 (10^10 for the highlighted rows), m ∈ {10^8,
//! 10^5}. Default here: n = 10^6, m ∈ {10^6, 10^3} (scale with
//! `PAM_SCALE`). Expected *shape*: augmentation costs ≲10% on general
//! map functions; aug-range beats non-aug range-sum by orders of
//! magnitude; aug-filter beats plain filter when the output is small;
//! Union-Array wins at n = m but loses badly at n ≫ m; Union-Tree and
//! repeated insertion lose everywhere.

use pam::{AugMap, MaxAug, NoAug, SumAug};
use pam_bench::*;

type Sum = AugMap<SumAug<u64, u64>>;
type Max = AugMap<MaxAug<u64, u64>>;
type Plain = AugMap<NoAug<u64, u64>>;

/// Time `f` on 1 thread and on all threads; append a row.
fn both(
    t: &mut Table,
    p: usize,
    label: &str,
    n_lbl: usize,
    m_lbl: usize,
    mut f: impl FnMut() -> f64 + Send,
) {
    // warm up caches/allocator at both pool sizes, then take best-of-2
    let _w1 = with_threads(1, &mut f);
    let _wp = with_threads(p, &mut f);
    let t1 = with_threads(1, &mut f).min(with_threads(1, &mut f));
    let tp = with_threads(p, &mut f).min(with_threads(p, f));
    t.row(vec![
        label.into(),
        n_lbl.to_string(),
        if m_lbl == 0 {
            "-".into()
        } else {
            m_lbl.to_string()
        },
        fmt_secs(t1),
        fmt_secs(tp),
        fmt_spd(t1, tp),
    ]);
}

/// Append a sequential-only row.
fn seq_only(t: &mut Table, label: &str, n_lbl: usize, m_lbl: usize, secs: f64) {
    t.row(vec![
        label.into(),
        n_lbl.to_string(),
        if m_lbl == 0 {
            "-".into()
        } else {
            m_lbl.to_string()
        },
        fmt_secs(secs),
        "-".into(),
        "-".into(),
    ]);
}

fn main() {
    banner("Table 3: core function timings", "Table 3 of the paper");
    let n = scaled(1_000_000);
    let m_small = scaled(1_000);
    let key_range = (n as u64) * 4;
    let p = max_threads();
    let tp_hdr = format!("T{p}");

    let pairs_a = workloads::uniform_pairs(n, 1, key_range);
    let pairs_b = workloads::uniform_pairs(n, 2, key_range);
    let pairs_small = workloads::uniform_pairs(m_small, 3, key_range);

    let mut t = Table::new(&["Function", "n", "m", "T1", &tp_hdr, "Spd."]);

    // ---------------- PAM (with augmentation) ----------------
    let a: Sum = AugMap::build(pairs_a.clone());
    let b: Sum = AugMap::build(pairs_b.clone());
    let small: Sum = AugMap::build(pairs_small.clone());

    both(&mut t, p, "Union", n, n, || {
        time(|| a.clone().union_with(b.clone(), |x, y| x.wrapping_add(*y))).1
    });
    both(&mut t, p, "Union", n, m_small, || {
        time(|| {
            a.clone()
                .union_with(small.clone(), |x, y| x.wrapping_add(*y))
        })
        .1
    });

    let probes: Vec<u64> = (0..n as u64)
        .map(|i| workloads::hash64(i ^ 77) % key_range)
        .collect();
    both(&mut t, p, "Find", n, n, || {
        time(|| par_sum(&probes, |k| u64::from(a.get(k).is_some()))).1
    });

    let (_, insert_t1) = with_threads(1, || {
        time(|| {
            let mut m = Sum::new();
            for &(k, v) in &pairs_a {
                m.insert(k, v);
            }
            m
        })
    });
    seq_only(&mut t, "Insert", n, 0, insert_t1);

    both(&mut t, p, "Build", n, 0, || {
        time(|| Sum::build(pairs_a.clone())).1
    });
    both(&mut t, p, "Filter", n, 0, || {
        time(|| a.clone().filter(|k, _| k % 2 == 0)).1
    });
    both(&mut t, p, "Multi-Insert", n, n, || {
        time(|| {
            let mut m = a.clone();
            m.multi_insert(pairs_b.clone());
            m
        })
        .1
    });
    both(&mut t, p, "Multi-Insert", n, m_small, || {
        time(|| {
            let mut m = a.clone();
            m.multi_insert(pairs_small.clone());
            m
        })
        .1
    });

    // m extractions / range-sum probes over small windows
    let windows: Vec<(u64, u64)> = (0..n as u64)
        .map(|i| {
            let lo = workloads::hash64(i ^ 0x5e) % key_range;
            (lo, lo + 40)
        })
        .collect();
    both(&mut t, p, "Range", n, n, || {
        time(|| par_sum(&windows, |&(lo, hi)| a.range(&lo, &hi).len() as u64)).1
    });
    both(&mut t, p, "AugLeft", n, n, || {
        time(|| par_sum(&probes, |k| a.aug_left(k))).1
    });
    both(&mut t, p, "AugRange", n, n, || {
        time(|| par_sum(&windows, |&(lo, hi)| a.aug_range(&lo, &hi))).1
    });

    // AugFilter on a max-augmented map; output sizes ~ n/100 and ~ n/1000
    let maxmap: Max = AugMap::build(pairs_a.clone());
    let mut sorted_vals: Vec<u64> = pairs_a.iter().map(|&(_, v)| v).collect();
    sorted_vals.sort_unstable();
    for target in [n / 100, n / 1000] {
        let theta = sorted_vals[sorted_vals.len() - target.max(1)];
        both(&mut t, p, "AugFilter", n, target, || {
            time(|| maxmap.aug_filter(|&a| a > theta)).1
        });
    }

    // ---------------- Non-augmented PAM ----------------
    let pa: Plain = AugMap::build(pairs_a.clone());
    let pb: Plain = AugMap::build(pairs_b.clone());
    both(&mut t, p, "Union (noaug)", n, n, || {
        time(|| pa.clone().union_with(pb.clone(), |_x, y| *y)).1
    });
    let (_, insert_t1) = with_threads(1, || {
        time(|| {
            let mut m = Plain::new();
            for &(k, v) in &pairs_a {
                m.insert(k, v);
            }
            m
        })
    });
    seq_only(&mut t, "Insert (noaug)", n, 0, insert_t1);
    both(&mut t, p, "Build (noaug)", n, 0, || {
        time(|| Plain::build(pairs_a.clone())).1
    });
    both(&mut t, p, "Range (noaug)", n, n, || {
        time(|| par_sum(&windows, |&(lo, hi)| pa.range(&lo, &hi).len() as u64)).1
    });

    // non-augmented "AugRange": materialize + scan (linear in range size)
    let m_q = scaled(100).max(1);
    let wide: Vec<(u64, u64)> = (0..m_q as u64)
        .map(|i| {
            let lo = workloads::hash64(i ^ 0xF0) % key_range;
            let hi = lo.saturating_add(workloads::hash64(i ^ 0xF1) % key_range);
            (lo, hi)
        })
        .collect();
    both(&mut t, p, "AugRange (noaug)", n, m_q, || {
        time(|| {
            par_sum(&wide, |&(lo, hi)| {
                pa.range(&lo, &hi)
                    .map_reduce(|_, &v| v, u64::wrapping_add, 0)
            })
        })
        .1
    });
    // non-augmented "AugFilter": a plain linear filter
    for target in [n / 100, n / 1000] {
        let theta = sorted_vals[sorted_vals.len() - target.max(1)];
        both(&mut t, p, "AugFilter (noaug)", n, target, || {
            time(|| pa.clone().filter(|_, &v| v > theta)).1
        });
    }

    // ---------------- STL-equivalent baselines (sequential) ----------------
    let mut ra = baselines::RbTree::new();
    let mut rb = baselines::RbTree::new();
    let mut rsmall = baselines::RbTree::new();
    for &(k, v) in &pairs_a {
        ra.insert(k, v);
    }
    for &(k, v) in &pairs_b {
        rb.insert(k, v);
    }
    for &(k, v) in &pairs_small {
        rsmall.insert(k, v);
    }
    let (_, t1) =
        time(|| baselines::RbTree::union_by_insertion(&ra, &rb, |x, y| x.wrapping_add(y)));
    seq_only(&mut t, "Union-Tree (STL)", n, n, t1);
    let (_, t1) =
        time(|| baselines::RbTree::union_by_insertion(&ra, &rsmall, |x, y| x.wrapping_add(y)));
    seq_only(&mut t, "Union-Tree (STL)", n, m_small, t1);

    let sa = baselines::SortedVecMap::from_unsorted(pairs_a.clone());
    let sb = baselines::SortedVecMap::from_unsorted(pairs_b.clone());
    let ss = baselines::SortedVecMap::from_unsorted(pairs_small.clone());
    let (_, t1) = time(|| sa.union(&sb, |x, y| x.wrapping_add(y)));
    seq_only(&mut t, "Union-Array (STL)", n, n, t1);
    let (_, t1) = time(|| sa.union(&ss, |x, y| x.wrapping_add(y)));
    seq_only(&mut t, "Union-Array (STL)", n, m_small, t1);

    let (_, t1) = time(|| {
        let mut m = baselines::RbTree::new();
        for &(k, v) in &pairs_a {
            m.insert(k, v);
        }
        m
    });
    seq_only(&mut t, "Insert (STL rbtree)", n, 0, t1);
    let (_, t1) = time(|| {
        let mut m = std::collections::BTreeMap::new();
        for &(k, v) in &pairs_a {
            m.insert(k, v);
        }
        m
    });
    seq_only(&mut t, "Insert (std BTreeMap)", n, 0, t1);

    // MCSTL-equivalent parallel bulk insertion into a sorted array
    both(&mut t, p, "Multi-Insert (MCSTL)", n, n, || {
        time(|| {
            baselines::par_merge::par_union(sa.as_slice(), sb.as_slice(), |x, y| x.wrapping_add(y))
        })
        .1
    });
    both(&mut t, p, "Multi-Insert (MCSTL)", n, m_small, || {
        time(|| {
            baselines::par_merge::par_union(sa.as_slice(), ss.as_slice(), |x, y| x.wrapping_add(y))
        })
        .1
    });

    t.print();
}
