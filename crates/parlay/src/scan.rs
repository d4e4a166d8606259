//! Packing the indices of set flags (the PBBS `pack_index` utility).

use crate::par::{granularity, tabulate};
use crate::uninit::par_fill;
use std::mem::MaybeUninit;

fn chunk_len(n: usize) -> usize {
    let target = n / (4 * rayon::current_num_threads().max(1));
    target.max(granularity()).max(1)
}

/// Indices `i` with `flags[i] == true`, in order (PBBS `pack_index`):
/// count per chunk, then every chunk writes its indices at its offset.
pub fn pack_index(flags: &[bool]) -> Vec<usize> {
    let n = flags.len();
    if n <= granularity() {
        return set_indices(0, flags).collect();
    }
    let cl = chunk_len(n);
    let counts = tabulate(n.div_ceil(cl), |c| {
        let chunk = &flags[c * cl..n.min((c + 1) * cl)];
        chunk.iter().filter(|&&f| f).count()
    });
    // SAFETY: `counts[c]` is the number of set flags of chunk `c`, so
    // `pack_chunks` is handed as many slots as its chunks have indices to
    // write, and writes them all
    unsafe {
        par_fill(counts.iter().sum(), |out| {
            pack_chunks(0, flags, cl, &counts, out)
        })
    }
}

fn set_indices(base: usize, flags: &[bool]) -> impl Iterator<Item = usize> + '_ {
    let indexed = flags.iter().enumerate();
    indexed.filter_map(move |(i, &f)| f.then_some(base + i))
}

/// Fill `out` with the set indices of `flags`, which starts at index
/// `base` and is cut into `counts.len()` chunks of `cl` flags holding
/// `counts[c]` set ones each (`out.len()` is their sum): a `join`
/// recursion over the chunk list, one chunk to a leaf.
fn pack_chunks(
    base: usize,
    flags: &[bool],
    cl: usize,
    counts: &[usize],
    out: &mut [MaybeUninit<usize>],
) {
    if counts.len() <= 1 {
        for (slot, i) in out.iter_mut().zip(set_indices(base, flags)) {
            slot.write(i);
        }
        return;
    }
    let half = counts.len() / 2;
    let (flags_l, flags_r) = flags.split_at(half * cl);
    let (counts_l, counts_r) = counts.split_at(half);
    let (out_l, out_r) = out.split_at_mut(counts_l.iter().sum());
    rayon::join(
        || pack_chunks(base, flags_l, cl, counts_l, out_l),
        || pack_chunks(base + half * cl, flags_r, cl, counts_r, out_r),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_index_small_and_large() {
        let flags = vec![true, false, true, true, false];
        assert_eq!(pack_index(&flags), vec![0, 2, 3]);

        let big: Vec<bool> = (0..100_000).map(|i| i % 3 == 0).collect();
        let got = pack_index(&big);
        let expect: Vec<usize> = (0..100_000).filter(|i| i % 3 == 0).collect();
        assert_eq!(got, expect);
    }
}
