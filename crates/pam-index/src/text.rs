//! Text front end: build the index straight from document strings.
//!
//! The paper's preprocessing pipeline for the Wikipedia experiment —
//! *"removed all XML markup, treated everything other than alphanumeric
//! characters as separators, and converted all upper case to lower case
//! to make searches case-insensitive"* — followed by term-frequency
//! weighting. A term dictionary (itself a PAM ordered map) translates
//! words to the dense term ids the core index uses.

use crate::{Doc, InvertedIndex, Term, Weight};
use pam::OrdMap;

/// A searchable text index: term dictionary + weighted inverted index.
pub struct TextIndex {
    dict: OrdMap<String, Term>,
    index: InvertedIndex,
    docs: usize,
}

/// Lowercased alphanumeric tokens of `s` (everything else separates).
pub fn tokenize(s: &str) -> Vec<String> {
    s.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
        .collect()
}

impl TextIndex {
    /// Build from documents (doc id = position in the slice). The weight
    /// of a (term, doc) pair is the term's occurrence count in that
    /// document (raw term frequency).
    pub fn build(documents: &[&str]) -> Self {
        // tokenize in parallel
        let token_lists = parlay::tabulate(documents.len(), |d| tokenize(documents[d]));
        // term dictionary: sorted unique words -> dense ids
        let mut vocab: Vec<String> = token_lists.iter().flatten().cloned().collect();
        parlay::par_sort_by(&mut vocab, |a, b| a.cmp(b));
        vocab.dedup();
        let dict: OrdMap<String, Term> = OrdMap::from_sorted_distinct(
            vocab
                .into_iter()
                .enumerate()
                .map(|(i, w)| (w, i as Term))
                .collect::<Vec<_>>(),
        );
        // (term, doc, count) triples; InvertedIndex::build keeps the max
        // weight per (term, doc), so pre-aggregate counts here.
        let per_doc = parlay::tabulate(token_lists.len(), |d| {
            let words = &token_lists[d];
            let mut counts: std::collections::HashMap<Term, Weight> =
                std::collections::HashMap::with_capacity(words.len());
            for w in words {
                let t = *dict.get(w).expect("word is in the dictionary");
                *counts.entry(t).or_insert(0) += 1;
            }
            counts
        });
        let triples: Vec<(Term, Doc, Weight)> = per_doc
            .into_iter()
            .enumerate()
            .flat_map(|(d, counts)| counts.into_iter().map(move |(t, c)| (t, d as Doc, c)))
            .collect();
        TextIndex {
            dict,
            index: InvertedIndex::build(triples),
            docs: documents.len(),
        }
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.docs
    }

    /// Vocabulary size.
    pub fn num_terms(&self) -> usize {
        self.dict.len()
    }

    /// The dense id of `word`, if it occurs anywhere.
    pub fn term_id(&self, word: &str) -> Option<Term> {
        self.dict.get(&word.to_lowercase()).copied()
    }

    /// Top-`k` documents containing *both* words (weights added).
    pub fn search_and(&self, w1: &str, w2: &str, k: usize) -> Vec<(Doc, Weight)> {
        match (self.term_id(w1), self.term_id(w2)) {
            (Some(a), Some(b)) => crate::top_k(&self.index.and_query(a, b), k),
            _ => Vec::new(),
        }
    }

    /// Top-`k` documents containing *either* word.
    pub fn search_or(&self, w1: &str, w2: &str, k: usize) -> Vec<(Doc, Weight)> {
        match (self.term_id(w1), self.term_id(w2)) {
            (Some(a), Some(b)) => crate::top_k(&self.index.or_query(a, b), k),
            (Some(a), None) | (None, Some(a)) => crate::top_k(&self.index.posting(a), k),
            (None, None) => Vec::new(),
        }
    }

    /// Borrow the underlying weighted inverted index.
    pub fn inner(&self) -> &InvertedIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_lowercases_and_splits() {
        assert_eq!(
            tokenize("Hello, World! x86-64 <b>tags</b>"),
            vec!["hello", "world", "x86", "64", "b", "tags", "b"]
        );
        assert!(tokenize("  ...  ").is_empty());
    }

    #[test]
    fn searches_find_expected_docs() {
        let docs = [
            "the quick brown fox jumps over the lazy dog",
            "the quick red fox",
            "a lazy dog sleeps",
            "quick quick quick dog",
        ];
        let idx = TextIndex::build(&docs);
        assert_eq!(idx.num_docs(), 4);

        // "quick AND dog": docs 0 and 3; doc 3 has quick x3 -> higher weight
        let hits = idx.search_and("quick", "dog", 10);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 3);
        assert!(hits[0].1 > hits[1].1);

        // OR covers all docs containing either word
        let hits = idx.search_or("lazy", "red", 10);
        let ids: Vec<Doc> = hits.iter().map(|&(d, _)| d).collect();
        assert_eq!(ids.len(), 3); // docs 0, 1, 2

        // unknown words
        assert!(idx.search_and("quick", "zebra", 10).is_empty());
        assert_eq!(idx.search_or("zebra", "red", 10).len(), 1);
    }

    #[test]
    fn case_insensitive() {
        let docs = ["Rust IS Fast", "rust is safe"];
        let idx = TextIndex::build(&docs);
        assert_eq!(idx.search_and("RUST", "is", 10).len(), 2);
    }

    #[test]
    fn term_frequency_is_the_weight() {
        let docs = ["a a a b", "a b b"];
        let idx = TextIndex::build(&docs);
        let a = idx.term_id("a").unwrap();
        let posting = idx.inner().posting(a);
        assert_eq!(posting.get(&0), Some(&3));
        assert_eq!(posting.get(&1), Some(&1));
    }
}
