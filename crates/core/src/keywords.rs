//! The per-query textual evaluator over a part's
//! [`KeywordBlocks`](uots_index::KeywordBlocks) table.

use uots_index::{KeywordBlocks, PreparedQuery};
use uots_text::KeywordSet;
use uots_trajectory::{Trajectory, TrajectoryId};

/// Per-query textual evaluator: the query prepared once against one
/// part's keyword table, then one row read per trajectory. The floats are
/// bit-identical to [`uots_text::jaccard`]'s merge walk.
#[derive(Debug)]
pub(crate) struct TextualEval<'a> {
    blocks: &'a KeywordBlocks,
    query: PreparedQuery,
}

impl<'a> TextualEval<'a> {
    /// Prepares `query` against `blocks`.
    pub(crate) fn new(query: &KeywordSet, blocks: &'a KeywordBlocks) -> Self {
        TextualEval {
            blocks,
            query: blocks.prepare(query),
        }
    }

    /// Textual similarity of trajectory `tid`/`traj` against the query.
    #[inline]
    pub(crate) fn eval(&self, tid: TrajectoryId, traj: &Trajectory) -> f64 {
        self.blocks
            .textual(&self.query, tid.index(), traj.keywords())
    }
}
