//! Tokenization: lowercase alphanumeric word extraction.
//!
//! Mirrors the indexing pipeline the paper ran through Lucene: documents
//! are split on non-alphanumeric characters, lowercased, stopwords are
//! removed, and **no stemming** is applied (§4.1: "performs stopword
//! removal but not stemming").

use crate::stopwords::is_stopword;

/// Iterator over the normalized tokens of a text.
// lint:allow(unused-pub): reached only as the iterator `tokenize` and `tokenize_all` return
pub struct Tokens<'a> {
    rest: &'a str,
    keep_stopwords: bool,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        loop {
            // Skip separators.
            let start = self.rest.find(|c: char| c.is_alphanumeric())?;
            let rest = &self.rest[start..];
            let end = rest
                .find(|c: char| !c.is_alphanumeric())
                .unwrap_or(rest.len());
            let word = &rest[..end];
            self.rest = &rest[end..];
            let token = word.to_lowercase();
            if self.keep_stopwords || !is_stopword(&token) {
                return Some(token);
            }
        }
    }
}

/// Tokenize with stopword removal (the paper's configuration).
pub fn tokenize(text: &str) -> Tokens<'_> {
    Tokens {
        rest: text,
        keep_stopwords: false,
    }
}

/// Tokenize keeping stopwords (used to measure raw document length W_d,
/// and by tests).
pub fn tokenize_all(text: &str) -> Tokens<'_> {
    Tokens {
        rest: text,
        keep_stopwords: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        tokenize(s).collect()
    }

    #[test]
    fn splits_on_punctuation_and_whitespace() {
        assert_eq!(
            toks("Patent-pending; devices (new)!"),
            vec!["patent", "pending", "devices", "new"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(
            toks("MicroPatent WEB Portal"),
            vec!["micropatent", "web", "portal"]
        );
    }

    #[test]
    fn removes_stopwords() {
        // The paper's own example: "sleeps in the dark" keeps 'in'/'the'
        // only if they are not stopwords; with removal, content words stay.
        assert_eq!(toks("the cat and a dog"), vec!["cat", "dog"]);
    }

    #[test]
    fn keeps_stopwords_when_asked() {
        let all: Vec<String> = tokenize_all("the cat and a dog").collect();
        assert_eq!(all, vec!["the", "cat", "and", "a", "dog"]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(
            toks("TREC-2 topics 101 to 200"),
            vec!["trec", "2", "topics", "101", "200"]
        );
    }

    #[test]
    fn empty_and_separator_only_texts() {
        assert!(toks("").is_empty());
        assert!(toks("... --- !!!").is_empty());
    }

    #[test]
    fn unicode_words_survive() {
        assert_eq!(toks("naïve café"), vec!["naïve", "café"]);
    }
}
