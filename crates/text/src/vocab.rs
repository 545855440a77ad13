//! Interned keyword vocabularies.
//!
//! Trajectories carry textual attributes ("shopping", "nightlife", …). To
//! keep keyword sets cheap to store and compare, every distinct keyword is
//! interned once into a [`Vocabulary`], and all downstream structures work
//! with dense [`KeywordId`]s.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of an interned keyword. Dense index into its [`Vocabulary`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct KeywordId(pub u32);

impl KeywordId {
    /// The dense index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for KeywordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "kw{}", self.0)
    }
}

/// A bidirectional keyword ↔ id mapping.
///
/// Keywords are normalized to lowercase with surrounding whitespace trimmed
/// before interning, so `"Shopping "` and `"shopping"` share an id.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    words: Vec<String>,
    index: HashMap<String, KeywordId>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    fn normalize(word: &str) -> String {
        word.trim().to_lowercase()
    }

    /// Interns `word`, returning its id (existing or fresh).
    ///
    /// Empty (after normalization) keywords are rejected with `None`.
    pub fn intern(&mut self, word: &str) -> Option<KeywordId> {
        let norm = Self::normalize(word);
        if norm.is_empty() {
            return None;
        }
        if let Some(&id) = self.index.get(&norm) {
            return Some(id);
        }
        let id = KeywordId(self.words.len() as u32);
        self.index.insert(norm.clone(), id);
        self.words.push(norm);
        Some(id)
    }

    /// Looks up a keyword without interning it.
    pub fn get(&self, word: &str) -> Option<KeywordId> {
        self.index.get(&Self::normalize(word)).copied()
    }

    /// The keyword string for `id`, or `None` for a foreign id.
    pub fn word(&self, id: KeywordId) -> Option<&str> {
        self.words.get(id.index()).map(String::as_str)
    }

    /// Number of distinct keywords.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterator over `(id, keyword)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (KeywordId, &str)> {
        self.words
            .iter()
            .enumerate()
            .map(|(i, w)| (KeywordId(i as u32), w.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("shopping").unwrap();
        let b = v.intern("shopping").unwrap();
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn normalization_merges_case_and_whitespace() {
        let mut v = Vocabulary::new();
        let a = v.intern("Shopping").unwrap();
        let b = v.intern("  shopping  ").unwrap();
        let c = v.intern("SHOPPING").unwrap();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(v.word(a), Some("shopping"));
    }

    #[test]
    fn empty_keywords_are_rejected() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern(""), None);
        assert_eq!(v.intern("   "), None);
        assert!(v.is_empty());
    }

    #[test]
    fn get_does_not_intern() {
        let mut v = Vocabulary::new();
        assert_eq!(v.get("museum"), None);
        assert_eq!(v.len(), 0);
        let id = v.intern("museum").unwrap();
        assert_eq!(v.get("Museum"), Some(id));
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut v = Vocabulary::new();
        let ids: Vec<KeywordId> = ["a", "b", "c"]
            .iter()
            .map(|w| v.intern(w).unwrap())
            .collect();
        assert_eq!(ids, vec![KeywordId(0), KeywordId(1), KeywordId(2)]);
        let collected: Vec<(KeywordId, &str)> = v.iter().collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[1], (KeywordId(1), "b"));
    }

    #[test]
    fn foreign_id_lookup_is_none() {
        let v = Vocabulary::new();
        assert_eq!(v.word(KeywordId(5)), None);
    }
}
