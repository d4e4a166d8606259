//! Table 6 reproduction: building and querying the weighted inverted
//! index (the paper used the 2016 Wikipedia dump: 1.96e9 tokens, 5.09e6
//! unique words; we generate a Zipfian corpus with the same shape — see
//! DESIGN.md, "Substitutions").
//!
//! Shape to check: build rate in millions of tokens/sec with >1 parallel
//! speedup; queries (and + top-10) scale with cores; this experiment
//! exercises *concurrent* reads of shared posting lists, each query
//! building its own persistent intersection.

use pam_bench::*;
use pam_index::{top_k, InvertedIndex};

fn main() {
    banner(
        "Table 6: inverted index build & query rates",
        "Table 6 of the paper",
    );
    let p = max_threads();

    let docs = scaled(50_000);
    let corpus = workloads::Corpus::generate(workloads::CorpusConfig {
        docs,
        vocab: 100_000.min(docs * 10).max(100),
        doc_len: 100,
        zipf_s: 1.0,
        seed: 1,
    });
    let n = corpus.tokens();
    println!(
        "corpus: {} docs, {} tokens, vocab {}",
        docs, n, corpus.config.vocab
    );
    println!();

    let b1 = with_threads(1, || {
        time(|| InvertedIndex::build(corpus.triples.clone())).1
    });
    let bp = with_threads(p, || {
        time(|| InvertedIndex::build(corpus.triples.clone())).1
    });

    let idx = InvertedIndex::build(corpus.triples.clone());
    let nq = scaled(10_000);
    let queries = corpus.query_pairs(nq, 9);
    // total posting-list entries touched across all queries ("docs across
    // the queries" in the paper's Table 6 terms)
    let touched = par_sum(&queries, |&(a, b)| {
        (idx.posting(a).len() + idx.posting(b).len()) as u64
    }) as usize;
    let run_q = |idx: &InvertedIndex| {
        par_sum(&queries, |&(a, b)| {
            top_k(&idx.and_query(a, b), 10).len() as u64
        })
    };
    let q1 = with_threads(1, || time(|| run_q(&idx)).1);
    let qp = with_threads(p, || time(|| run_q(&idx)).1);

    let mut t = Table::new(&[
        "Phase",
        "n",
        "T1",
        "Melts/s (1)",
        &format!("T{p}"),
        &format!("Melts/s ({p})"),
        "Spd.",
    ]);
    t.row(vec![
        "Build".into(),
        n.to_string(),
        fmt_secs(b1),
        fmt_meps(n, b1),
        fmt_secs(bp),
        fmt_meps(n, bp),
        fmt_spd(b1, bp),
    ]);
    t.row(vec![
        format!("Queries ({nq} and+top10)"),
        touched.to_string(),
        fmt_secs(q1),
        fmt_meps(touched, q1),
        fmt_secs(qp),
        fmt_meps(touched, qp),
        fmt_spd(q1, qp),
    ]);
    t.print();
}
