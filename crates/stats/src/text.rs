//! Text vectorization for ticket classification.
//!
//! The paper applies "manual labeling and k-means clustering on both the
//! description and the resolution field of all tickets". This module
//! provides the feature side: a tokenizer, a document-frequency-pruned
//! vocabulary and a TF-IDF vectorizer producing L2-normalized dense vectors.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Splits text into lowercase alphanumeric tokens, dropping one-character
/// tokens (mostly punctuation debris and ids).
pub fn tokenize(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| t.len() > 1)
        .map(str::to_lowercase)
        .collect()
}

/// A vocabulary mapping tokens to dense feature indexes, with document
/// frequencies. Feature index `i` is the rank of the token in lexicographic
/// order, so the layout is a function of the corpus alone.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Vocabulary {
    tokens: Vec<String>,
    doc_freq: Vec<usize>,
    num_docs: usize,
}

impl Vocabulary {
    /// Builds a vocabulary from tokenized documents, keeping tokens that
    /// appear in at least `min_df` documents.
    pub fn build<'a>(docs: impl IntoIterator<Item = &'a [String]>, min_df: usize) -> Self {
        let mut df: BTreeMap<String, usize> = BTreeMap::new();
        let mut num_docs = 0;
        for doc in docs {
            num_docs += 1;
            let mut seen: Vec<&String> = doc.iter().collect();
            seen.sort_unstable();
            seen.dedup();
            for token in seen {
                *df.entry(token.clone()).or_insert(0) += 1;
            }
        }
        let mut tokens = Vec::new();
        let mut doc_freq = Vec::new();
        // BTreeMap iterates in key order, so the kept tokens arrive sorted.
        for (token, count) in df {
            if count >= min_df.max(1) {
                tokens.push(token);
                doc_freq.push(count);
            }
        }
        Self {
            tokens,
            doc_freq,
            num_docs,
        }
    }

    /// Number of features (kept tokens).
    pub fn len(&self) -> usize {
        self.doc_freq.len()
    }

    /// True when no token was kept.
    pub fn is_empty(&self) -> bool {
        self.doc_freq.is_empty()
    }

    /// Feature index of `token`, if kept.
    pub fn index_of(&self, token: &str) -> Option<usize> {
        self.tokens.binary_search_by(|t| t.as_str().cmp(token)).ok()
    }

    /// Number of documents the vocabulary was built from.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Document frequency of feature `i`.
    pub fn doc_freq(&self, i: usize) -> usize {
        self.doc_freq[i]
    }
}

/// TF-IDF vectorizer with smoothed IDF and L2 normalization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TfIdf {
    vocab: Vocabulary,
    idf: Vec<f32>,
}

impl TfIdf {
    /// Fits the vectorizer: builds the vocabulary (pruned at `min_df`) and
    /// the smoothed IDF weights `ln((1 + N) / (1 + df)) + 1`.
    pub fn fit<'a>(docs: impl IntoIterator<Item = &'a [String]>, min_df: usize) -> Self {
        let vocab = Vocabulary::build(docs, min_df);
        let n = vocab.num_docs() as f32;
        let idf = (0..vocab.len())
            .map(|i| ((1.0 + n) / (1.0 + vocab.doc_freq(i) as f32)).ln() + 1.0)
            .collect();
        Self { vocab, idf }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.vocab.len()
    }

    /// Transforms a tokenized document into an L2-normalized TF-IDF vector.
    /// Unknown tokens are ignored; a document with no known tokens maps to
    /// the zero vector.
    pub fn transform(&self, doc: &[String]) -> Vec<f32> {
        let mut v = vec![0.0f32; self.vocab.len()];
        for token in doc {
            if let Some(i) = self.vocab.index_of(token) {
                v[i] += 1.0;
            }
        }
        for (x, &w) in v.iter_mut().zip(&self.idf) {
            *x *= w;
        }
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(
            tokenize("Server UNREACHABLE: ping-timeout (eth0)"),
            vec!["server", "unreachable", "ping", "timeout", "eth0"]
        );
        // Single characters dropped.
        assert_eq!(tokenize("a b cd"), vec!["cd"]);
        assert!(tokenize("").is_empty());
    }

    fn docs() -> Vec<Vec<String>> {
        vec![
            tokenize("disk failure replaced disk"),
            tokenize("network switch failure"),
            tokenize("disk full cleanup"),
        ]
    }

    #[test]
    fn vocabulary_counts_document_frequency() {
        let d = docs();
        let refs: Vec<&[String]> = d.iter().map(Vec::as_slice).collect();
        let v = Vocabulary::build(refs.iter().copied(), 1);
        assert_eq!(v.num_docs(), 3);
        let disk = v.index_of("disk").unwrap();
        assert_eq!(v.doc_freq(disk), 2); // duplicate within doc counts once
        assert!(v.index_of("switch").is_some());
        assert!(v.index_of("nonexistent").is_none());
        assert!(!v.is_empty());
    }

    #[test]
    fn min_df_prunes_rare_tokens() {
        let d = docs();
        let refs: Vec<&[String]> = d.iter().map(Vec::as_slice).collect();
        let v = Vocabulary::build(refs.iter().copied(), 2);
        assert!(v.index_of("disk").is_some()); // df = 2
        assert!(v.index_of("switch").is_none()); // df = 1
        assert!(v.index_of("failure").is_some()); // df = 2
    }

    #[test]
    fn tfidf_vectors_are_normalized() {
        let d = docs();
        let refs: Vec<&[String]> = d.iter().map(Vec::as_slice).collect();
        let tfidf = TfIdf::fit(refs.iter().copied(), 1);
        assert!(tfidf.dim() > 0);
        for doc in &d {
            let v = tfidf.transform(doc);
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn rare_terms_weigh_more() {
        let d = docs();
        let refs: Vec<&[String]> = d.iter().map(Vec::as_slice).collect();
        let tfidf = TfIdf::fit(refs.iter().copied(), 1);
        let v = tfidf.transform(&tokenize("disk switch"));
        let disk = tfidf.vocab.index_of("disk").unwrap();
        let switch = tfidf.vocab.index_of("switch").unwrap();
        assert!(v[switch] > v[disk], "rarer token should get higher weight");
    }

    #[test]
    fn unknown_document_is_zero_vector() {
        let d = docs();
        let refs: Vec<&[String]> = d.iter().map(Vec::as_slice).collect();
        let tfidf = TfIdf::fit(refs.iter().copied(), 1);
        let v = tfidf.transform(&tokenize("completely unrelated words"));
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn vocabulary_is_deterministic() {
        let d = docs();
        let refs: Vec<&[String]> = d.iter().map(Vec::as_slice).collect();
        let v1 = Vocabulary::build(refs.iter().copied(), 1);
        let v2 = Vocabulary::build(refs.iter().copied(), 1);
        assert_eq!(v1, v2);
    }
}
