//! # Weighted inverted index (paper §5.3)
//!
//! A search-engine style index: each *term* maps to a *posting list* — an
//! augmented map from document id to weight, augmented with the **maximum
//! weight** so the best documents can be found without scanning.
//!
//! The paper's formulation:
//!
//! ```text
//! M_I = AM(doc, <, weight, weight, (k,v) → v, max, 0)   // posting list
//! M_O = M(term, <, M_I)                                  // plain outer map
//! ```
//!
//! * `and` queries intersect posting lists, `or` queries union them —
//!   combining weights — in time that can be *much less* than the output
//!   size (the join-based set operations);
//! * the max augmentation drives an O(k log n)-ish `top_k` (best-first
//!   search over subtree maxima), far cheaper than scoring every result;
//! * persistence gives snapshot isolation: every query works on its own
//!   O(1) snapshot while the index is rebuilt or extended concurrently.

#![warn(missing_docs)]

pub mod text;

use pam::{AugMap, MaxAug, NoAug};

/// Document identifier.
pub type Doc = u32;
/// Term identifier (our corpora pre-hash words to dense ids).
pub type Term = u32;
/// Relevance weight.
pub type Weight = u64;

/// A posting list: documents → weights, augmented with the max weight.
pub type PostingList = AugMap<MaxAug<Doc, Weight>>;

/// The outer map: terms → posting lists (plain, un-augmented).
pub type TermMap = AugMap<NoAug<Term, PostingList>>;

/// A weighted inverted index supporting and/or/and-not queries with
/// top-k selection.
pub struct InvertedIndex {
    terms: TermMap,
}

impl Clone for InvertedIndex {
    /// O(1) snapshot of the entire index.
    fn clone(&self) -> Self {
        InvertedIndex {
            terms: self.terms.clone(),
        }
    }
}

impl Default for InvertedIndex {
    fn default() -> Self {
        InvertedIndex {
            terms: AugMap::new(),
        }
    }
}

impl InvertedIndex {
    /// Build from `(term, doc, weight)` triples, in parallel.
    ///
    /// Duplicate `(term, doc)` occurrences keep the **maximum** weight
    /// (any associative rule works; max matches the augmentation).
    /// Work O(n log n): a parallel sort of the triples (which moves
    /// them, never clones one), then each term's posting list is built
    /// from its contiguous slice.
    pub fn build(triples: Vec<(Term, Doc, Weight)>) -> Self {
        let mut items: Vec<((Term, Doc), Weight)> =
            triples.into_iter().map(|(t, d, w)| ((t, d), w)).collect();
        parlay::par_sort_by(&mut items, |a, b| a.0.cmp(&b.0));
        let items =
            parlay::combine_duplicates_by(items, |a, b| a.0 == b.0, |a, b| (a.0, a.1.max(b.1)));
        // group boundaries per term
        let flags: Vec<bool> = (0..items.len())
            .map(|i| i == 0 || items[i - 1].0 .0 != items[i].0 .0)
            .collect();
        let mut starts = parlay::pack_index(&flags);
        starts.push(items.len());
        let term_lists: Vec<(Term, PostingList)> = parlay::tabulate(starts.len() - 1, |g| {
            let group = &items[starts[g]..starts[g + 1]];
            let term = group[0].0 .0;
            let docs: Vec<(Doc, Weight)> = group.iter().map(|&((_, d), w)| (d, w)).collect();
            (term, PostingList::from_sorted_distinct(&docs))
        });
        InvertedIndex {
            terms: TermMap::from_sorted_distinct(&term_lists),
        }
    }

    /// Number of distinct terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The posting list for `term` (empty if unseen). O(log |terms|) and
    /// O(1) space — the returned list shares all nodes with the index.
    pub fn posting(&self, term: Term) -> PostingList {
        self.terms.get(&term).cloned().unwrap_or_default()
    }

    /// Documents containing *both* terms; weights are added
    /// ("Weights are combined when taking unions and intersections").
    pub fn and_query(&self, a: Term, b: Term) -> PostingList {
        self.posting(a)
            .intersect_with(self.posting(b), |x, y| x + y)
    }

    /// Documents containing *either* term; weights added on overlap.
    pub fn or_query(&self, a: Term, b: Term) -> PostingList {
        self.posting(a).union_with(self.posting(b), |x, y| x + y)
    }

    /// Documents containing `a` but not `b`.
    pub fn and_not_query(&self, a: Term, b: Term) -> PostingList {
        self.posting(a).difference(self.posting(b))
    }

    /// Documents containing *all* of `terms` (weights added). The
    /// intersection is folded smallest-posting-first, so the running
    /// result never grows — each step costs O(m log(n/m + 1)) with m the
    /// current (shrinking) result size.
    pub fn and_query_multi(&self, terms: &[Term]) -> PostingList {
        let mut lists: Vec<PostingList> = terms.iter().map(|&t| self.posting(t)).collect();
        lists.sort_by_key(|l| l.len());
        let mut it = lists.into_iter();
        let mut acc = match it.next() {
            Some(first) => first,
            None => return PostingList::default(),
        };
        for l in it {
            if acc.is_empty() {
                return acc;
            }
            acc = acc.intersect_with(l, |x, y| x + y);
        }
        acc
    }

    /// Documents containing *any* of `terms` (weights added on overlap).
    pub fn or_query_multi(&self, terms: &[Term]) -> PostingList {
        terms
            .iter()
            .map(|&t| self.posting(t))
            .fold(PostingList::default(), |acc, l| {
                acc.union_with(l, |x, y| x + y)
            })
    }

    /// Merge another batch of `(term, doc, weight)` triples into the
    /// index (persistent: old snapshots are unaffected). Posting lists of
    /// shared terms are unioned.
    pub fn merge(&mut self, triples: Vec<(Term, Doc, Weight)>) {
        let other = InvertedIndex::build(triples);
        let terms = std::mem::take(&mut self.terms);
        self.terms = terms.union_with(other.terms, |p1, p2| {
            p1.clone().union_with(p2.clone(), |w1, w2| *w1.max(w2))
        });
    }
}

/// The `k` highest-weight documents of a posting list, best-first.
///
/// Classic priority-search over the max augmentation, delegated to the
/// generic [`pam::ops::top_k_by`]: a heap holds subtrees keyed by their
/// max weight and entries keyed by their own weight. O((k + log n)
/// log k) heap operations — independent of the posting list size for
/// small `k`, which is why the paper stores the max weight in the first
/// place.
pub fn top_k(list: &PostingList, k: usize) -> Vec<(Doc, Weight)> {
    pam::ops::top_k_by(list.root(), k, |&a| a, |_, &v| v)
        .into_iter()
        .map(|(&d, &w)| (d, w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tiny_index() -> InvertedIndex {
        InvertedIndex::build(vec![
            (1, 100, 5),
            (1, 101, 9),
            (1, 102, 2),
            (2, 101, 4),
            (2, 103, 7),
            (3, 100, 1),
        ])
    }

    #[test]
    fn postings_and_queries() {
        let idx = tiny_index();
        assert_eq!(idx.num_terms(), 3);
        assert_eq!(idx.posting(1).len(), 3);
        assert_eq!(idx.posting(99).len(), 0);

        let and = idx.and_query(1, 2);
        assert_eq!(and.to_vec(), vec![(101, 13)]); // 9 + 4

        let or = idx.or_query(1, 2);
        assert_eq!(or.to_vec(), vec![(100, 5), (101, 13), (102, 2), (103, 7)]);

        let not = idx.and_not_query(1, 2);
        assert_eq!(not.to_vec(), vec![(100, 5), (102, 2)]);
    }

    #[test]
    fn top_k_is_sorted_by_weight() {
        let idx = tiny_index();
        let or = idx.or_query(1, 2);
        let top = top_k(&or, 2);
        assert_eq!(top, vec![(101, 13), (103, 7)]);
        // k larger than the list: everything, best first
        let all = top_k(&or, 100);
        assert_eq!(all.len(), 4);
        assert!(all.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn duplicate_term_doc_keeps_max_weight() {
        let idx = InvertedIndex::build(vec![(7, 1, 3), (7, 1, 9), (7, 1, 6)]);
        assert_eq!(idx.posting(7).to_vec(), vec![(1, 9)]);
    }

    #[test]
    fn matches_bruteforce_on_corpus() {
        let corpus = workloads::Corpus::generate(workloads::CorpusConfig {
            docs: 300,
            vocab: 500,
            doc_len: 60,
            zipf_s: 1.0,
            seed: 77,
        });
        let idx = InvertedIndex::build(corpus.triples.clone());

        // oracle: term -> doc -> max weight
        let mut oracle: BTreeMap<Term, BTreeMap<Doc, Weight>> = BTreeMap::new();
        for &(t, d, w) in &corpus.triples {
            let e = oracle.entry(t).or_default().entry(d).or_insert(0);
            *e = (*e).max(w);
        }
        assert_eq!(idx.num_terms(), oracle.len());

        for (a, b) in corpus.query_pairs(50, 123) {
            let got = idx.and_query(a, b).to_vec();
            let (oa, ob) = (oracle.get(&a), oracle.get(&b));
            let want: Vec<(Doc, Weight)> = match (oa, ob) {
                (Some(ma), Some(mb)) => ma
                    .iter()
                    .filter_map(|(d, w1)| mb.get(d).map(|w2| (*d, w1 + w2)))
                    .collect(),
                _ => vec![],
            };
            assert_eq!(got, want, "and({a},{b})");

            // top-10 agrees with sorting the full result
            let top = top_k(&idx.and_query(a, b), 10);
            let mut sorted = want.clone();
            sorted.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
            sorted.truncate(10);
            let top_weights: Vec<Weight> = top.iter().map(|&(_, w)| w).collect();
            let want_weights: Vec<Weight> = sorted.iter().map(|&(_, w)| w).collect();
            assert_eq!(top_weights, want_weights, "top10({a},{b})");
        }
    }

    #[test]
    fn merge_extends_the_index_persistently() {
        let mut idx = tiny_index();
        let snap = idx.clone();
        idx.merge(vec![(1, 200, 42), (9, 300, 1)]);
        assert_eq!(idx.posting(1).len(), 4);
        assert_eq!(idx.num_terms(), 4);
        // the snapshot still sees the old state
        assert_eq!(snap.posting(1).len(), 3);
        assert_eq!(snap.num_terms(), 3);
    }

    #[test]
    fn concurrent_queries_on_shared_snapshots() {
        let corpus = workloads::Corpus::generate(workloads::CorpusConfig {
            docs: 100,
            vocab: 200,
            doc_len: 40,
            zipf_s: 1.0,
            seed: 5,
        });
        let idx = std::sync::Arc::new(InvertedIndex::build(corpus.triples.clone()));
        let queries = corpus.query_pairs(200, 11);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let idx = idx.clone();
                let qs = queries.clone();
                std::thread::spawn(move || {
                    // each "user" intersects over the shared posting lists
                    let mut total = 0usize;
                    for &(a, b) in qs.iter().skip(t).step_by(4) {
                        total += top_k(&idx.and_query(a, b), 10).len();
                    }
                    total
                })
            })
            .collect();
        let sum: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(sum > 0);
    }
}

#[cfg(test)]
mod multi_tests {
    use super::*;

    #[test]
    fn multi_term_and_or() {
        let idx = InvertedIndex::build(vec![
            (1, 10, 1),
            (1, 11, 1),
            (1, 12, 1),
            (2, 11, 2),
            (2, 12, 2),
            (3, 12, 3),
            (3, 99, 3),
        ]);
        let and = idx.and_query_multi(&[1, 2, 3]);
        assert_eq!(and.to_vec(), vec![(12, 6)]); // 1+2+3
        let or = idx.or_query_multi(&[1, 2, 3]);
        assert_eq!(or.len(), 4); // docs 10, 11, 12, 99

        // degenerate arities
        assert!(idx.and_query_multi(&[]).is_empty());
        assert_eq!(idx.and_query_multi(&[2]).len(), 2);
        assert!(idx.or_query_multi(&[]).is_empty());
        // unknown term kills the conjunction
        assert!(idx.and_query_multi(&[1, 999]).is_empty());
    }

    #[test]
    fn multi_and_matches_pairwise_fold() {
        let corpus = workloads::Corpus::generate(workloads::CorpusConfig {
            docs: 200,
            vocab: 300,
            doc_len: 50,
            zipf_s: 1.0,
            seed: 31,
        });
        let idx = InvertedIndex::build(corpus.triples.clone());
        for q in 0..20u64 {
            let terms: Vec<Term> = (0..3)
                .map(|j| corpus.zipf.sample(q * 3 + j, 77) as Term)
                .collect();
            let multi = idx.and_query_multi(&terms);
            // pairwise fold in term order must give the same *keys*
            let fold = idx
                .posting(terms[0])
                .intersect_with(idx.posting(terms[1]), |x, y| x + y)
                .intersect_with(idx.posting(terms[2]), |x, y| x + y);
            assert_eq!(multi.keys(), fold.keys());
            // ... and the same weights (addition is order-insensitive)
            assert_eq!(multi.to_vec(), fold.to_vec());
        }
    }
}
