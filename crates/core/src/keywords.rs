//! Per-query textual scoring on the dense keyword table.
//!
//! The table itself ([`KeywordBlocks`]: fixed-width `u64` bitset rows with
//! a galloping sorted-id fallback) lives beside the other per-store
//! indexes in [`uots_trajectory::keywords`] and is a required part of
//! every [`Database`](crate::Database). [`TextualEval`] prepares the query
//! side once and scores trajectories against the table; the floats are
//! bit-identical to [`TextSimilarity::similarity`], the merge walk the
//! [`BruteForce`](crate::algorithms::BruteForce) oracle scores with.

use uots_text::{KeywordSet, TextSimilarity};
pub use uots_trajectory::keywords::{
    galloping_intersection_len, KeywordBlocks, PreparedQuery, MAX_BITSET_BITS,
};
use uots_trajectory::{Trajectory, TrajectoryId};

/// Per-query textual evaluator over the dense [`KeywordBlocks`] table.
#[derive(Debug)]
pub struct TextualEval<'a> {
    measure: TextSimilarity,
    blocks: &'a KeywordBlocks,
    query: PreparedQuery,
}

impl<'a> TextualEval<'a> {
    /// Prepares `query` once against `blocks`.
    pub fn new(measure: TextSimilarity, query: &KeywordSet, blocks: &'a KeywordBlocks) -> Self {
        TextualEval {
            measure,
            blocks,
            query: blocks.prepare(query),
        }
    }

    /// Textual similarity of trajectory `tid`/`traj` against the query.
    #[inline]
    pub fn eval(&self, tid: TrajectoryId, traj: &Trajectory) -> f64 {
        self.blocks
            .textual(self.measure, &self.query, tid, traj.keywords())
    }
}
