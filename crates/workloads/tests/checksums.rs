//! Fixed-seed checksums of every parallel generator. The benchmark's
//! oracles and the gated numbers assume these streams never change: the
//! expected values were recorded before the generators moved from the
//! rayon shim's iterator layer to `parlay::tabulate` (PR 22), and any
//! change to how a generator is driven has to reproduce them.

use workloads::points::query_windows;
use workloads::{
    hash64, random_intervals, random_points, read_probes, uniform_pairs, Corpus, CorpusConfig,
};

/// Order-sensitive digest of a stream of words.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, |acc, w| hash64(acc ^ w))
}

/// Long enough that every generator's index range is split many times.
const N: usize = 100_003;

#[test]
fn uniform_pairs_checksum() {
    let got = digest(
        uniform_pairs(N, 42, 1 << 40)
            .into_iter()
            .flat_map(|(k, v)| [k, v]),
    );
    assert_eq!(got, 0xd68a_bc7c_85d8_1098);
}

#[test]
fn read_probes_checksum() {
    let population: Vec<u64> = (0..1000).map(|i| i * 13).collect();
    assert_eq!(
        digest(read_probes(N, 7, &population)),
        0x75fd_88e2_128c_48f1
    );
}

#[test]
fn random_intervals_checksum() {
    let got = digest(
        random_intervals(N, 11, 1 << 30, 1000)
            .into_iter()
            .flat_map(|(l, r)| [l, r]),
    );
    assert_eq!(got, 0xe8ff_4b2f_dbe3_713f);
}

#[test]
fn random_points_checksum() {
    let got = digest(
        random_points(N, 3, 1 << 20)
            .into_iter()
            .flat_map(|(x, y, w)| [u64::from(x), u64::from(y), w]),
    );
    assert_eq!(got, 0xa320_69db_69d0_0fb4);
}

#[test]
fn query_windows_checksum() {
    let got = digest(
        query_windows(N, 4, 1 << 20, 0.01)
            .into_iter()
            .flat_map(|(xl, xr, yl, yr)| [xl, xr, yl, yr].map(u64::from)),
    );
    assert_eq!(got, 0x6f4d_2c57_47c7_8b54);
}

#[test]
fn corpus_triples_checksum() {
    let corpus = Corpus::generate(CorpusConfig {
        docs: 1_001,
        vocab: 5_000,
        doc_len: 37,
        zipf_s: 1.0,
        seed: 9,
    });
    assert_eq!(corpus.triples.len(), 1_001 * 37);
    let got = digest(
        corpus
            .triples
            .iter()
            .flat_map(|&(w, d, x)| [u64::from(w), u64::from(d), x]),
    );
    assert_eq!(got, 0xa5d7_1fc3_6025_7dd6);
}
