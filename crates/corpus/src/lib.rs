//! # authsearch-corpus
//!
//! Text substrate for the authenticated search framework: everything the
//! paper obtained from Lucene and the (licensed) TREC data, built from
//! scratch:
//!
//! * [`tokenizer`] — lowercase alphanumeric tokenization, no stemming;
//! * [`stopwords`] — the standard stopword screen of §4.1;
//! * `document` — tokenized documents, dictionaries, and a
//!   [`CorpusBuilder`] for raw text;
//! * [`synthetic`] — the WSJ-calibrated synthetic corpus generator
//!   (substitute for the licensed TREC WSJ collection; see DESIGN.md);
//! * [`workload`] — synthetic and TREC-like query workload generators;
//! * [`stats`] — the inverted-list length distribution of Figure 4.

#![warn(missing_docs)]

pub(crate) mod document;
pub mod stats;
pub mod stopwords;
pub mod synthetic;
pub mod tokenizer;
pub mod workload;
pub mod zipf;

pub use document::{Corpus, CorpusBuilder, DocId, TermId, TokenizedDoc}; // lint:allow(unused-pub): `TokenizedDoc` is reached only through `Corpus::doc` and `Corpus::docs`
pub use stats::list_length_stats;
pub use synthetic::SyntheticConfig;
