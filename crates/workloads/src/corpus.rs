//! Synthetic Zipfian text corpus — the stand-in for the Wikipedia dump of
//! §6.4 (see DESIGN.md, "Substitutions").
//!
//! The real experiment's inputs are `(word, doc_id, weight)` triples with
//! word frequencies following a Zipf law (natural language) and random
//! weights ("the values of the weights make no difference to the
//! runtime"). This generator reproduces those statistics with a tunable
//! document count, vocabulary size, and document length.

use crate::rng::hash64;
use crate::zipf::Zipf;

/// Corpus shape parameters.
#[derive(Clone, Copy, Debug)]
pub struct CorpusConfig {
    /// Number of documents.
    pub docs: usize,
    /// Vocabulary size (number of distinct words).
    pub vocab: usize,
    /// Words per document.
    pub doc_len: usize,
    /// Zipf exponent for word frequencies (≈1.0 for natural language).
    pub zipf_s: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            docs: 10_000,
            vocab: 50_000,
            doc_len: 200,
            zipf_s: 1.0,
            seed: 0xC0FFEE,
        }
    }
}

/// A generated corpus: the raw `(word, doc, weight)` triples plus query
/// material.
pub struct Corpus {
    /// `(word_id, doc_id, weight)` — one triple per token occurrence
    /// (duplicates of (word, doc) are possible, as in real text).
    pub triples: Vec<(u32, u32, u64)>,
    /// The sampler used (exposed so query generators can draw
    /// frequency-weighted words).
    pub zipf: Zipf,
    /// The configuration used.
    pub config: CorpusConfig,
}

impl Corpus {
    /// Generate the corpus (parallel over tokens).
    pub fn generate(config: CorpusConfig) -> Self {
        let zipf = Zipf::new(config.vocab, config.zipf_s);
        // one triple per token, document-major
        let triples = parlay::tabulate(config.docs * config.doc_len, |token_id| {
            let token_id = token_id as u64;
            let d = token_id / config.doc_len as u64;
            let word = zipf.sample(config.seed, token_id) as u32;
            let weight = hash64(config.seed ^ (token_id | 1 << 63)) % 1_000_000;
            (word, d as u32, weight)
        });
        Corpus {
            triples,
            zipf,
            config,
        }
    }

    /// Total number of tokens.
    pub fn tokens(&self) -> usize {
        self.triples.len()
    }

    /// `m` two-word queries drawn frequency-weighted (common words are
    /// queried more often, as in real search logs).
    pub fn query_pairs(&self, m: usize, seed: u64) -> Vec<(u32, u32)> {
        (0..m as u64)
            .map(|i| {
                let a = self.zipf.sample(seed ^ 0xA, i) as u32;
                let b = self.zipf.sample(seed ^ 0xB, i) as u32;
                (a, b)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_config() {
        let c = Corpus::generate(CorpusConfig {
            docs: 100,
            vocab: 1000,
            doc_len: 50,
            zipf_s: 1.0,
            seed: 1,
        });
        assert_eq!(c.tokens(), 100 * 50);
        assert!(c.triples.iter().all(|&(w, d, _)| w < 1000 && d < 100));
    }

    #[test]
    fn word_frequencies_are_skewed() {
        let c = Corpus::generate(CorpusConfig {
            docs: 200,
            vocab: 5000,
            doc_len: 100,
            zipf_s: 1.0,
            seed: 2,
        });
        let mut counts = vec![0usize; 5000];
        for &(w, _, _) in &c.triples {
            counts[w as usize] += 1;
        }
        let top: usize = counts[..10].iter().sum();
        assert!(
            top * 4 > c.tokens(),
            "top-10 words should carry >25% of tokens, got {top}/{}",
            c.tokens()
        );
    }

    #[test]
    fn queries_are_in_vocab() {
        let c = Corpus::generate(CorpusConfig {
            docs: 10,
            vocab: 100,
            doc_len: 10,
            zipf_s: 1.0,
            seed: 3,
        });
        for (a, b) in c.query_pairs(100, 9) {
            assert!(a < 100 && b < 100);
        }
    }
}
