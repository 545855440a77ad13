//! # uots-text
//!
//! Textual-domain substrate for the UOTS reproduction.
//!
//! The UOTS query matches a traveler's preference keywords against the
//! textual attributes that trajectories carry. This crate provides:
//!
//! * [`Vocabulary`] / [`KeywordId`] — keyword interning;
//! * [`KeywordSet`] — sorted, deduplicated keyword sets with merge-based set
//!   algebra;
//! * [`jaccard`] — the paper's textual similarity, and
//!   [`jaccard_from_counts`], its arithmetic over precomputed counts;
//! * [`Zipf`] — skewed rank sampling used by the tag generators.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod keyword_set;
mod similarity;
mod vocab;
mod zipf;

pub use keyword_set::KeywordSet;
pub use similarity::{jaccard, jaccard_from_counts};
pub use vocab::{KeywordId, Vocabulary};
pub use zipf::Zipf;
