//! Text vectorization for ticket classification.
//!
//! The paper applies "manual labeling and k-means clustering on both the
//! description and the resolution field of all tickets". This module
//! provides the feature side: a tokenizer, texts tokenized once each with
//! their tokens interned, and a TF-IDF vectorizer over a
//! document-frequency-pruned vocabulary whose documents are runs of those
//! texts and whose vectors are L2-normalized nonzeros in feature order.

/// Splits text into lowercase alphanumeric tokens of at least two
/// characters, dropping shorter ones (mostly punctuation debris and ids).
///
/// Each piece is lowercased and then split again, because lowercasing can
/// make a character that is not alphanumeric (`İ` becomes `i` and the
/// combining dot U+0307). So every token is its own lowercase and
/// tokenizes to itself, and since a space splits, the tokens of
/// `"{a} {b}"` are those of `a` followed by those of `b`.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for piece in text.split(|c: char| !c.is_alphanumeric()) {
        let lower = piece.to_lowercase();
        tokens.extend(
            lower
                .split(|c: char| !c.is_alphanumeric())
                .filter(|t| t.chars().nth(1).is_some())
                .map(str::to_owned),
        );
    }
    tokens
}

/// Texts tokenized once each, with every distinct token interned to its
/// rank in lexicographic order: token ids compare as their tokens do, so a
/// vocabulary kept in id order is in the order of its words.
#[derive(Debug, PartialEq)]
pub struct TokenizedTexts {
    /// The distinct tokens in lexicographic order: id `i` is `words[i]`.
    words: Vec<String>,
    /// Text `t`'s token ids in text order are
    /// `ids[start[t]..start[t + 1]]`.
    ids: Vec<u32>,
    start: Vec<usize>,
}

impl TokenizedTexts {
    /// Tokenizes each of `texts` once and interns the tokens.
    pub fn new(texts: &[&str]) -> Self {
        let tokens: Vec<Vec<String>> = texts.iter().map(|text| tokenize(text)).collect();
        // Every token with its position, sorted: a token's id is the
        // number of distinct tokens sorted before it.
        let all = tokens.iter().flatten().map(String::as_str);
        let mut sorted: Vec<(&str, u32)> = all.zip(0..).collect();
        sorted.sort_unstable();
        let mut words: Vec<String> = Vec::new();
        let mut ids = vec![0; sorted.len()];
        for (i, &(token, at)) in sorted.iter().enumerate() {
            if i == 0 || sorted[i - 1].0 != token {
                words.push(token.to_owned());
            }
            ids[at as usize] = words.len() as u32 - 1;
        }
        let mut start = vec![0];
        for text in &tokens {
            start.push(start[start.len() - 1] + text.len());
        }
        TokenizedTexts { words, ids, start }
    }

    /// The distinct tokens in id (lexicographic) order.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Text `t`'s token ids in text order.
    pub fn tokens(&self, t: usize) -> &[u32] {
        &self.ids[self.start[t]..self.start[t + 1]]
    }
}

/// A token id's feature when [`TfIdf::fit`] pruned it.
const PRUNED: u32 = u32::MAX;

/// TF-IDF vectorizer with smoothed IDF and L2 normalization, over
/// documents that are each the concatenation of texts of one
/// [`TokenizedTexts`].
#[derive(Debug, PartialEq)]
pub struct TfIdf {
    /// Per token id: its feature index, or [`PRUNED`].
    feature: Vec<u32>,
    /// Per feature: its smoothed IDF weight.
    idf: Vec<f32>,
}

impl TfIdf {
    /// Fits the vectorizer to `docs`, each given by the indexes of its
    /// texts in `texts`. It keeps the tokens that appear in at least
    /// `min_df` documents, a document counting once however many of its
    /// texts hold a token. Feature `i` is the `i`-th kept token in
    /// lexicographic order, weighed `ln((1 + N) / (1 + df)) + 1` over `N`
    /// documents.
    pub fn fit<D: AsRef<[usize]>>(texts: &TokenizedTexts, docs: &[D], min_df: usize) -> Self {
        let mut df = vec![0usize; texts.words.len()];
        let mut union = Vec::new();
        for doc in docs {
            union.clear();
            for &t in doc.as_ref() {
                union.extend_from_slice(texts.tokens(t));
            }
            union.sort_unstable();
            union.dedup();
            for &id in &union {
                df[id as usize] += 1;
            }
        }
        let n = docs.len() as f32;
        let mut feature = vec![PRUNED; df.len()];
        let mut idf = Vec::new();
        for (id, &count) in df.iter().enumerate() {
            if count >= min_df.max(1) {
                feature[id] = idf.len() as u32;
                idf.push(((1.0 + n) / (1.0 + count as f32)).ln() + 1.0);
            }
        }
        Self { feature, idf }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.idf.len()
    }

    /// Writes the L2-normalized TF-IDF vector of the document made of
    /// `doc`'s texts into `out`, as its nonzero `(feature, value)` pairs in
    /// feature order. Pruned tokens are ignored; a document with no kept
    /// token has no nonzero.
    ///
    /// These are the dense vector's bits: a term count is exact in f32,
    /// and the norm adds the squares of the nonzeros in feature order,
    /// which the dense sum's `+0.0` terms leave unchanged.
    pub fn transform(&self, texts: &TokenizedTexts, doc: &[usize], out: &mut Vec<(u32, f32)>) {
        out.clear();
        for &t in doc {
            let features = texts.tokens(t).iter().map(|&id| self.feature[id as usize]);
            out.extend(features.filter(|&f| f != PRUNED).map(|f| (f, 1.0f32)));
        }
        out.sort_unstable_by_key(|&(f, _)| f);
        out.dedup_by(|next, run| {
            let same = next.0 == run.0;
            if same {
                run.1 += 1.0;
            }
            same
        });
        for (f, x) in out.iter_mut() {
            *x *= self.idf[*f as usize];
        }
        let norm: f32 = out.iter().map(|&(_, x)| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for (_, x) in out.iter_mut() {
                *x /= norm;
            }
        }
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

    #[test]
    fn tokenize_counts_characters_and_splits_after_lowercasing() {
        // One-character tokens are dropped whatever their UTF-8 length.
        assert!(tokenize("é ß 中 a").is_empty());
        assert_eq!(tokenize("Éa ßß 中文"), vec!["éa", "ßß", "中文"]);
        // `İ` lowercases to `i` and a combining dot, which splits.
        assert_eq!(tokenize("İstanbul"), vec!["stanbul"]);
        assert_eq!(tokenize("ΣΑΣ Straße"), vec!["σας", "straße"]);
        for token in tokenize("İstanbul ΣΑΣ Straße ÄÖÜ") {
            assert_eq!(tokenize(&token), vec![token.clone()]);
            assert_eq!(token.to_lowercase(), token);
        }
    }

    /// The texts `"disk failure replaced disk"`, `"network switch
    /// failure"` and `"disk full cleanup"`, one document each, and the
    /// text `"disk switch"`, which no document holds.
    fn docs() -> (TokenizedTexts, Vec<[usize; 1]>) {
        let texts = TokenizedTexts::new(&[
            "disk failure replaced disk",
            "network switch failure",
            "disk full cleanup",
            "disk switch",
        ]);
        (texts, vec![[0], [1], [2]])
    }

    /// The kept feature of `word`, if any.
    fn feature(tfidf: &TfIdf, texts: &TokenizedTexts, word: &str) -> Option<usize> {
        let id = texts.words().iter().position(|w| w == word)?;
        let f = tfidf.feature[id];
        (f != PRUNED).then_some(f as usize)
    }

    /// Document `doc`'s vector, dense.
    fn dense(tfidf: &TfIdf, texts: &TokenizedTexts, doc: &[usize]) -> Vec<f32> {
        let mut nonzeros = Vec::new();
        tfidf.transform(texts, doc, &mut nonzeros);
        let mut v = vec![0.0; tfidf.dim()];
        for (f, x) in nonzeros {
            v[f as usize] = x;
        }
        v
    }

    /// The IDF weight of a token in `df` of `n` documents.
    fn idf(df: f32, n: f32) -> f32 {
        ((1.0 + n) / (1.0 + df)).ln() + 1.0
    }

    #[test]
    fn vocabulary_counts_document_frequency() {
        let (texts, docs) = docs();
        let tfidf = TfIdf::fit(&texts, &docs, 1);
        let disk = feature(&tfidf, &texts, "disk").unwrap();
        assert_eq!(tfidf.idf[disk], idf(2.0, 3.0)); // duplicate within doc counts once
        assert!(feature(&tfidf, &texts, "switch").is_some());
        assert!(feature(&tfidf, &texts, "nonexistent").is_none());
        assert_eq!(tfidf.dim(), 7);
        // A token in both texts of one document counts once.
        let both = TfIdf::fit(&texts, &[[0, 2]], 1);
        let disk = feature(&both, &texts, "disk").unwrap();
        assert_eq!(both.idf[disk], idf(1.0, 1.0));
    }

    #[test]
    fn min_df_prunes_rare_tokens() {
        let (texts, docs) = docs();
        let tfidf = TfIdf::fit(&texts, &docs, 2);
        assert!(feature(&tfidf, &texts, "disk").is_some()); // df = 2
        assert!(feature(&tfidf, &texts, "switch").is_none()); // df = 1
        assert!(feature(&tfidf, &texts, "failure").is_some()); // df = 2

        // Features are the kept tokens in lexicographic order.
        assert_eq!(feature(&tfidf, &texts, "disk"), Some(0));
        assert_eq!(feature(&tfidf, &texts, "failure"), Some(1));
        assert_eq!(TfIdf::fit(&texts, &docs, 4).dim(), 0);
    }

    #[test]
    fn tfidf_vectors_are_normalized() {
        let (texts, docs) = docs();
        let tfidf = TfIdf::fit(&texts, &docs, 1);
        assert!(tfidf.dim() > 0);
        for doc in &docs {
            let v = dense(&tfidf, &texts, doc);
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((norm - 1.0).abs() < 1e-5);
        }
        let mut nonzeros = Vec::new();
        tfidf.transform(&texts, &[0, 1], &mut nonzeros);
        assert!(nonzeros.windows(2).all(|w| w[0].0 < w[1].0), "{nonzeros:?}");
    }

    #[test]
    fn rare_terms_weigh_more() {
        let (texts, docs) = docs();
        let tfidf = TfIdf::fit(&texts, &docs, 1);
        let v = dense(&tfidf, &texts, &[3]);
        let disk = feature(&tfidf, &texts, "disk").unwrap();
        let switch = feature(&tfidf, &texts, "switch").unwrap();
        assert!(v[switch] > v[disk], "rarer token should get higher weight");
    }

    #[test]
    fn unknown_document_is_zero_vector() {
        let texts = TokenizedTexts::new(&["disk failure", "completely unrelated words"]);
        let tfidf = TfIdf::fit(&texts, &[[0]], 1);
        let mut nonzeros = vec![(0, 1.0)];
        tfidf.transform(&texts, &[1], &mut nonzeros);
        assert!(nonzeros.is_empty());
    }

    #[test]
    fn vocabulary_is_deterministic() {
        let (texts, fitted) = docs();
        assert_eq!(
            TfIdf::fit(&texts, &fitted, 1),
            TfIdf::fit(&texts, &fitted, 1)
        );
        assert_eq!(texts, docs().0);
        // cleanup, disk, failure, full, network, replaced, switch.
        assert_eq!(texts.tokens(0), [1, 2, 5, 1], "ids are lexicographic ranks");
    }
}
