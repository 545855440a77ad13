//! # uots-index
//!
//! Index substrate for the UOTS reproduction:
//!
//! * [`GridIndex`] — uniform spatial grid over a point set, used to snap raw
//!   GPS samples and query locations to network vertices;
//! * [`InvertedIndex`] — dense key → sorted values (trajectory ids), one
//!   CSR type serving as the [`VertexInvertedIndex`] the network expansion
//!   probes on every settled vertex and the [`KeywordInvertedIndex`]
//!   driving the textual-first baseline; [`InvertedIndex::merged`] derives
//!   a serving epoch's index from the previous one plus a batch;
//! * [`KeywordBlocks`] — the dense per-trajectory keyword table every
//!   query's textual term reads (bitset rows, galloping past
//!   [`MAX_BITSET_BITS`]);
//! * [`TimestampIndex`] / [`TimeExpansion`] — sorted-time expansion cursor
//!   for the temporal extension, likewise merged per epoch.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod grid;
mod inverted;
mod keywords;
mod timestamp;

pub use grid::GridIndex;
pub use inverted::{InvertedIndex, KeywordInvertedIndex, PostingKey, VertexInvertedIndex};
pub use keywords::{galloping_intersection_len, KeywordBlocks, PreparedQuery, MAX_BITSET_BITS};
pub use timestamp::{TimeExpansion, TimeScanned, TimestampIndex, DAY_SECONDS};
