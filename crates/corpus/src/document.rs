//! Document collections: the data owner's collection `D` of the paper's
//! system model, in term-frequency form.

use crate::tokenizer::tokenize;
use std::collections::HashMap;

/// Document identifier (4 bytes, as the paper assumes when sizing VOs).
pub type DocId = u32;

/// Term identifier (4 bytes, ditto).
pub type TermId = u32;

/// One document after tokenization: its term-frequency vector and length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenizedDoc {
    /// Identifier of this document within the collection.
    pub id: DocId,
    /// `(t, f_{d,t})` pairs, sorted by term id ascending. This ordering is
    /// load-bearing: document-MHT leaves are laid out in ascending term-id
    /// order so that term-absence proofs can use adjacent-leaf bounding
    /// (paper §3.3.1).
    pub counts: Vec<(TermId, u32)>,
    /// Document length `W_d` in tokens (after stopword removal), used by
    /// the Okapi normalization.
    pub token_len: u32,
}

impl TokenizedDoc {
    /// Frequency of `term` in this document (0 when absent).
    pub fn freq(&self, term: TermId) -> u32 {
        match self.counts.binary_search_by_key(&term, |&(t, _)| t) {
            Ok(i) => self.counts[i].1,
            Err(_) => 0,
        }
    }
}

/// A tokenized document collection plus its dictionary `T`.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Lexicographically sorted term strings; index = [`TermId`].
    dictionary: Vec<String>,
    docs: Vec<TokenizedDoc>,
    /// Raw document texts when built from real text (None for synthetic
    /// collections, whose canonical content is the term-frequency vector).
    texts: Option<Vec<String>>,
}

impl Corpus {
    /// Assemble a corpus from parts. `dictionary` must be sorted and each
    /// document's counts sorted by term id; checked in debug builds.
    pub fn from_parts(
        dictionary: Vec<String>,
        docs: Vec<TokenizedDoc>,
        texts: Option<Vec<String>>,
    ) -> Corpus {
        debug_assert!(dictionary.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(docs
            .iter()
            .all(|d| d.counts.windows(2).all(|w| w[0].0 < w[1].0)));
        if let Some(t) = &texts {
            assert_eq!(t.len(), docs.len());
        }
        Corpus {
            dictionary,
            docs,
            texts,
        }
    }

    /// Number of documents `n`.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Number of dictionary terms `m`.
    pub fn num_terms(&self) -> usize {
        self.dictionary.len()
    }

    /// All documents.
    pub fn docs(&self) -> &[TokenizedDoc] {
        &self.docs
    }

    /// One document by id.
    pub fn doc(&self, id: DocId) -> &TokenizedDoc {
        &self.docs[id as usize]
    }

    /// Term string for an id.
    pub fn term(&self, id: TermId) -> &str {
        &self.dictionary[id as usize]
    }

    /// Dictionary lookup; `None` when the term is outside the dictionary
    /// (such query terms are ignored, per the system model).
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.dictionary
            .binary_search_by(|t| t.as_str().cmp(term))
            .ok()
            .map(|i| i as TermId)
    }

    /// The full dictionary.
    pub fn dictionary(&self) -> &[String] {
        &self.dictionary
    }

    /// Average document length `W_A` (Okapi).
    pub fn avg_doc_len(&self) -> f64 {
        if self.docs.is_empty() {
            return 0.0;
        }
        self.docs.iter().map(|d| d.token_len as f64).sum::<f64>() / self.docs.len() as f64
    }

    /// Canonical content bytes of a document — what the owner hashes into
    /// `h(doc)` (paper Figure 8's `h(doc6)`). Raw text when available,
    /// otherwise a canonical little-endian encoding of the term-frequency
    /// vector.
    pub fn content_bytes(&self, id: DocId) -> Vec<u8> {
        if let Some(texts) = &self.texts {
            return texts[id as usize].clone().into_bytes();
        }
        let doc = self.doc(id);
        let mut out = Vec::with_capacity(8 + doc.counts.len() * 8);
        out.extend_from_slice(&doc.id.to_le_bytes());
        out.extend_from_slice(&doc.token_len.to_le_bytes());
        for &(t, c) in &doc.counts {
            out.extend_from_slice(&t.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Raw text of a document (None for synthetic corpora).
    pub fn text(&self, id: DocId) -> Option<&str> {
        self.texts.as_ref().map(|t| t[id as usize].as_str())
    }
}

/// Builds a [`Corpus`] from raw document texts, applying the paper's
/// indexing pipeline: tokenize, lowercase, remove stopwords, and drop terms
/// that appear in fewer than `min_df` documents (the paper removes "words
/// that appear in only one document", i.e. `min_df = 2`).
pub struct CorpusBuilder {
    texts: Vec<String>,
    min_df: u32,
}

impl Default for CorpusBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CorpusBuilder {
    /// Fresh builder with the paper's `min_df = 2`.
    pub fn new() -> CorpusBuilder {
        CorpusBuilder {
            texts: Vec::new(),
            min_df: 2,
        }
    }

    /// Override the minimum document frequency a term needs to enter the
    /// dictionary. `min_df = 1` keeps every non-stopword (useful for toy
    /// examples where every term matters).
    pub fn min_df(mut self, min_df: u32) -> CorpusBuilder {
        self.min_df = min_df.max(1);
        self
    }

    /// Add one document's text.
    pub fn add_text(mut self, text: impl Into<String>) -> CorpusBuilder {
        self.texts.push(text.into());
        self
    }

    /// Add many documents.
    pub fn add_texts<I, S>(mut self, texts: I) -> CorpusBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.texts.extend(texts.into_iter().map(Into::into));
        self
    }

    /// Tokenize everything and produce the corpus.
    pub fn build(self) -> Corpus {
        // Pass 1: per-document term counts on strings, plus global df.
        let mut per_doc: Vec<HashMap<String, u32>> = Vec::with_capacity(self.texts.len());
        let mut token_lens: Vec<u32> = Vec::with_capacity(self.texts.len());
        let mut df: HashMap<String, u32> = HashMap::new();
        for text in &self.texts {
            let mut counts: HashMap<String, u32> = HashMap::new();
            let mut len = 0u32;
            for token in tokenize(text) {
                *counts.entry(token).or_insert(0) += 1;
                len += 1;
            }
            for term in counts.keys() {
                *df.entry(term.clone()).or_insert(0) += 1;
            }
            per_doc.push(counts);
            token_lens.push(len);
        }

        // Dictionary: terms meeting the df floor, lexicographically sorted.
        let mut dictionary: Vec<String> = df
            .iter()
            .filter(|&(_, &d)| d >= self.min_df)
            .map(|(t, _)| t.clone())
            .collect();
        dictionary.sort_unstable();

        // Pass 2: remap documents onto term ids.
        let docs: Vec<TokenizedDoc> = per_doc
            .into_iter()
            .enumerate()
            .map(|(i, counts)| {
                let mut mapped: Vec<(TermId, u32)> = counts
                    .into_iter()
                    .filter_map(|(term, c)| {
                        dictionary
                            .binary_search(&term)
                            .ok()
                            .map(|id| (id as TermId, c))
                    })
                    .collect();
                mapped.sort_unstable_by_key(|&(t, _)| t);
                TokenizedDoc {
                    id: i as DocId,
                    counts: mapped,
                    token_len: token_lens[i],
                }
            })
            .collect();

        Corpus::from_parts(dictionary, docs, Some(self.texts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Corpus {
        CorpusBuilder::new()
            .min_df(1)
            .add_text("the keeper keeps the old house")
            .add_text("big house in a big gown")
            .add_text("the old house had big keep")
            .build()
    }

    #[test]
    fn dictionary_is_sorted_and_stopword_free() {
        let c = tiny();
        assert!(c.dictionary().windows(2).all(|w| w[0] < w[1]));
        assert!(c.term_id("the").is_none());
        assert!(c.term_id("a").is_none());
        assert!(c.term_id("house").is_some());
    }

    #[test]
    fn frequencies_counted() {
        let c = tiny();
        let big = c.term_id("big").unwrap();
        assert_eq!(c.doc(1).freq(big), 2);
        assert_eq!(c.doc(0).freq(big), 0);
    }

    #[test]
    fn token_len_includes_stopword_filtered_stream() {
        let c = tiny();
        // "the keeper keeps the old house" → keeper keeps old house = 4.
        assert_eq!(c.doc(0).token_len, 4);
    }

    #[test]
    fn min_df_prunes_rare_terms() {
        let c = CorpusBuilder::new()
            .min_df(2)
            .add_text("shared unique1")
            .add_text("shared unique2")
            .build();
        assert!(c.term_id("shared").is_some());
        assert!(c.term_id("unique1").is_none());
        assert_eq!(c.num_terms(), 1);
    }

    #[test]
    fn counts_sorted_by_term_id() {
        let c = tiny();
        for d in c.docs() {
            assert!(d.counts.windows(2).all(|w| w[0].0 < w[1].0));
        }
    }

    #[test]
    fn content_bytes_uses_text_when_available() {
        let c = tiny();
        assert_eq!(
            c.content_bytes(0),
            b"the keeper keeps the old house".to_vec()
        );
    }

    #[test]
    fn content_bytes_canonical_for_synthetic() {
        let doc = TokenizedDoc {
            id: 3,
            counts: vec![(1, 2), (5, 1)],
            token_len: 3,
        };
        let c = Corpus::from_parts(
            vec![
                "a1".into(),
                "b2".into(),
                "c3".into(),
                "d4".into(),
                "e5".into(),
                "f6".into(),
            ],
            vec![
                TokenizedDoc {
                    id: 0,
                    counts: vec![],
                    token_len: 0,
                },
                TokenizedDoc {
                    id: 1,
                    counts: vec![],
                    token_len: 0,
                },
                TokenizedDoc {
                    id: 2,
                    counts: vec![],
                    token_len: 0,
                },
                doc,
            ],
            None,
        );
        let bytes = c.content_bytes(3);
        assert_eq!(bytes.len(), 8 + 2 * 8);
        assert_eq!(&bytes[0..4], &3u32.to_le_bytes());
    }

    #[test]
    fn avg_doc_len() {
        let c = tiny();
        // All three docs tokenize to 4 content words ('had' is a stopword).
        let expect = (4.0 + 4.0 + 4.0) / 3.0;
        assert!((c.avg_doc_len() - expect).abs() < 1e-9);
    }

    #[test]
    fn term_id_roundtrip() {
        let c = tiny();
        for (i, t) in c.dictionary().iter().enumerate() {
            assert_eq!(c.term_id(t), Some(i as TermId));
            assert_eq!(c.term(i as TermId), t);
        }
        assert_eq!(c.term_id("notaword"), None);
    }
}
