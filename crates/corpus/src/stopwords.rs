//! English stopword list.
//!
//! The paper removes "common words like 'the' and 'a' that are not useful
//! for differentiating between documents" (§4.1, citing \[1\]). This list is
//! the classic Fox/SMART-style core — function words, auxiliaries,
//! pronouns — comparable in coverage to what Lucene's StandardAnalyzer plus
//! a conventional extended list would drop.

/// Sorted list of stopwords (binary-searchable).
pub(crate) static STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "would",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

/// True when `word` (already lowercased) is a stopword.
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_is_sorted_and_unique() {
        assert!(STOPWORDS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn classic_stopwords_detected() {
        for w in ["the", "a", "of", "and", "to", "in"] {
            assert!(is_stopword(w), "{w}");
        }
    }

    #[test]
    fn content_words_kept() {
        for w in ["patent", "elderly", "abuse", "mistreatment", "keeper"] {
            assert!(!is_stopword(w), "{w}");
        }
    }

    #[test]
    fn case_sensitive_as_documented() {
        // Callers must lowercase first; "The" is not matched.
        assert!(!is_stopword("The"));
    }
}
