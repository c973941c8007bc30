//! Network-constrained trajectories and their in-memory store.
//!
//! A trajectory is a finite, time-ordered sequence of samples
//! `⟨(p₁, t₁), …, (p_n, t_n)⟩` whose sample points are vertices of a road
//! network (the paper assumes map-matched data) and whose timestamps live on
//! a 24-hour axis. Each trajectory additionally carries the textual
//! attribute set that the UOTS query matches against.

use crate::{KeywordBlocks, TrajectoryError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use uots_index::{KeywordInvertedIndex, TimestampIndex, VertexInvertedIndex, DAY_SECONDS};
use uots_network::{NodeId, RoadNetwork};
use uots_text::KeywordSet;

/// Identifier of a trajectory within a [`TrajectoryStore`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TrajectoryId(pub u32);

impl TrajectoryId {
    /// Dense index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TrajectoryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// One timestamped sample point of a trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// The network vertex the sample is map-matched to.
    pub node: NodeId,
    /// Time of day in seconds, `[0, 86400]`.
    pub time: f64,
}

/// A validated, immutable trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    samples: Vec<Sample>,
    keywords: KeywordSet,
}

impl Trajectory {
    /// Validates and constructs a trajectory.
    ///
    /// # Errors
    ///
    /// * [`TrajectoryError::Empty`] — no samples;
    /// * [`TrajectoryError::BadTimestamp`] — a timestamp is non-finite or
    ///   outside the 24-hour axis;
    /// * [`TrajectoryError::TimeNotMonotone`] — timestamps decrease.
    pub fn new(samples: Vec<Sample>, keywords: KeywordSet) -> Result<Self, TrajectoryError> {
        if samples.is_empty() {
            return Err(TrajectoryError::Empty);
        }
        let mut prev = f64::NEG_INFINITY;
        for (i, s) in samples.iter().enumerate() {
            if !s.time.is_finite() || !(0.0..=DAY_SECONDS).contains(&s.time) {
                return Err(TrajectoryError::BadTimestamp {
                    index: i,
                    time: s.time,
                });
            }
            if s.time < prev {
                return Err(TrajectoryError::TimeNotMonotone { index: i });
            }
            prev = s.time;
        }
        Ok(Trajectory { samples, keywords })
    }

    /// Number of samples `|τ|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// A trajectory is never empty (validated at construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The samples in time order.
    #[inline]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Iterator over the sample vertices.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.samples.iter().map(|s| s.node)
    }

    /// Iterator over the sample timestamps.
    pub fn times(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.samples.iter().map(|s| s.time)
    }

    /// The textual attributes of the trajectory.
    #[inline]
    pub fn keywords(&self) -> &KeywordSet {
        &self.keywords
    }

    /// `[first timestamp, last timestamp]` — the temporal range.
    pub fn time_range(&self) -> (f64, f64) {
        (
            self.samples.first().expect("non-empty").time,
            self.samples.last().expect("non-empty").time,
        )
    }

    /// Trip duration in seconds.
    pub fn duration(&self) -> f64 {
        let (a, b) = self.time_range();
        b - a
    }

    /// Whether any sample visits `node`.
    pub fn visits(&self, node: NodeId) -> bool {
        self.samples.iter().any(|s| s.node == node)
    }

    /// Total network length travelled, assuming straight-line movement is a
    /// lower bound. (Exact path length requires the route, which the store
    /// does not retain; this is a diagnostic, not used by the algorithms.)
    pub fn euclidean_span(&self, net: &RoadNetwork) -> f64 {
        self.samples
            .windows(2)
            .map(|w| net.point(w[0].node).distance(&net.point(w[1].node)))
            .sum()
    }
}

/// An append-only collection of trajectories with dense ids, plus index
/// construction.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrajectoryStore {
    /// Shared, so a clone (every epoch publish makes one) copies pointers,
    /// not trajectories: the writer's store and every snapshot of it hold
    /// one copy of each trajectory.
    trajectories: Vec<Arc<Trajectory>>,
}

impl TrajectoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a store with a capacity hint.
    pub fn with_capacity(n: usize) -> Self {
        TrajectoryStore {
            trajectories: Vec::with_capacity(n),
        }
    }

    /// Appends a trajectory, returning its id.
    pub fn push(&mut self, t: Trajectory) -> TrajectoryId {
        let id = TrajectoryId(self.trajectories.len() as u32);
        self.trajectories.push(Arc::new(t));
        id
    }

    /// The trajectory with id `id`.
    ///
    /// # Panics
    ///
    /// Panics for a foreign id.
    #[inline]
    pub fn get(&self, id: TrajectoryId) -> &Trajectory {
        &self.trajectories[id.index()]
    }

    /// Number of stored trajectories.
    #[inline]
    pub fn len(&self) -> usize {
        self.trajectories.len()
    }

    /// Whether the store is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.trajectories.is_empty()
    }

    /// Consumes the store, yielding the trajectories in id order (the
    /// bulk-concatenation path of parallel dataset generation — moving
    /// beats cloning at million-trajectory scale).
    pub fn into_trajectories(self) -> Vec<Trajectory> {
        self.trajectories
            .into_iter()
            .map(|t| Arc::try_unwrap(t).unwrap_or_else(|shared| (*shared).clone()))
            .collect()
    }

    /// Iterator over `(id, trajectory)` pairs in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (TrajectoryId, &Trajectory)> {
        self.trajectories
            .iter()
            .enumerate()
            .map(|(i, t)| (TrajectoryId(i as u32), &**t))
    }

    /// Iterator over all ids.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = TrajectoryId> {
        (0..self.trajectories.len() as u32).map(TrajectoryId)
    }

    /// Builds the vertex → trajectory inverted index the expansion search
    /// probes (each trajectory registered once per *distinct* vertex).
    pub fn build_vertex_index(&self, num_vertices: usize) -> VertexInvertedIndex<TrajectoryId> {
        VertexInvertedIndex::build(
            num_vertices,
            self.iter()
                .flat_map(|(id, t)| t.nodes().map(move |v| (v, id))),
        )
    }

    /// Builds the keyword → trajectory inverted index used by the textual
    /// baseline.
    pub fn build_keyword_index(&self, vocab_len: usize) -> KeywordInvertedIndex<TrajectoryId> {
        KeywordInvertedIndex::build(
            vocab_len,
            self.iter()
                .flat_map(|(id, t)| t.keywords().iter().map(move |k| (k, id))),
        )
    }

    /// Builds the dense per-trajectory keyword table every query scores
    /// text on (row `i` serves `TrajectoryId(i)`; retired rows are built
    /// too and simply never consulted). See [`KeywordBlocks::from_sets`]
    /// for how `vocab_len` sets the width.
    pub fn build_keyword_blocks(&self, vocab_len: usize) -> KeywordBlocks {
        KeywordBlocks::from_sets(self.trajectories.iter().map(|t| t.keywords()), vocab_len)
    }

    /// Builds the sample-timestamp index for the temporal extension.
    pub fn build_timestamp_index(&self) -> TimestampIndex<TrajectoryId> {
        TimestampIndex::build(
            self.iter()
                .flat_map(|(id, t)| t.times().map(move |time| (time, id))),
        )
    }

    /// Like [`build_vertex_index`](Self::build_vertex_index), covering only
    /// the ids `live` marks live — the per-epoch index a serving snapshot
    /// carries so retired trajectories are never discovered spatially.
    pub fn build_vertex_index_live(
        &self,
        num_vertices: usize,
        live: &crate::LiveSet,
    ) -> VertexInvertedIndex<TrajectoryId> {
        VertexInvertedIndex::build(
            num_vertices,
            live.iter_live()
                .flat_map(|id| self.get(id).nodes().map(move |v| (v, id))),
        )
    }

    /// Like [`build_keyword_index`](Self::build_keyword_index), covering
    /// only the live ids.
    pub fn build_keyword_index_live(
        &self,
        vocab_len: usize,
        live: &crate::LiveSet,
    ) -> KeywordInvertedIndex<TrajectoryId> {
        KeywordInvertedIndex::build(
            vocab_len,
            live.iter_live()
                .flat_map(|id| self.get(id).keywords().iter().map(move |k| (k, id))),
        )
    }

    /// Like [`build_timestamp_index`](Self::build_timestamp_index),
    /// covering only the live ids.
    pub fn build_timestamp_index_live(
        &self,
        live: &crate::LiveSet,
    ) -> TimestampIndex<TrajectoryId> {
        TimestampIndex::build(
            live.iter_live()
                .flat_map(|id| self.get(id).times().map(move |time| (time, id))),
        )
    }
}

impl std::ops::Index<TrajectoryId> for TrajectoryStore {
    type Output = Trajectory;

    fn index(&self, id: TrajectoryId) -> &Trajectory {
        self.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_text::KeywordId;

    fn sample(v: u32, t: f64) -> Sample {
        Sample {
            node: NodeId(v),
            time: t,
        }
    }

    fn kws(ids: &[u32]) -> KeywordSet {
        KeywordSet::from_ids(ids.iter().map(|&i| KeywordId(i)))
    }

    #[test]
    fn valid_trajectory_construction() {
        let t = Trajectory::new(
            vec![sample(0, 100.0), sample(1, 200.0), sample(0, 200.0)],
            kws(&[1, 2]),
        )
        .unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.time_range(), (100.0, 200.0));
        assert_eq!(t.duration(), 100.0);
        assert!(t.visits(NodeId(1)));
        assert!(!t.visits(NodeId(9)));
        assert_eq!(t.keywords().len(), 2);
    }

    #[test]
    fn validation_rejects_bad_trajectories() {
        assert!(matches!(
            Trajectory::new(vec![], kws(&[])),
            Err(TrajectoryError::Empty)
        ));
        assert!(matches!(
            Trajectory::new(vec![sample(0, -5.0)], kws(&[])),
            Err(TrajectoryError::BadTimestamp { index: 0, .. })
        ));
        assert!(matches!(
            Trajectory::new(vec![sample(0, 1e9)], kws(&[])),
            Err(TrajectoryError::BadTimestamp { .. })
        ));
        assert!(matches!(
            Trajectory::new(vec![sample(0, 100.0), sample(1, 50.0)], kws(&[])),
            Err(TrajectoryError::TimeNotMonotone { index: 1 })
        ));
        assert!(matches!(
            Trajectory::new(vec![sample(0, f64::NAN)], kws(&[])),
            Err(TrajectoryError::BadTimestamp { .. })
        ));
    }

    #[test]
    fn equal_consecutive_timestamps_are_allowed() {
        // two GPS fixes in the same second are common in real data
        assert!(Trajectory::new(vec![sample(0, 5.0), sample(1, 5.0)], kws(&[])).is_ok());
    }

    #[test]
    fn store_ids_are_dense() {
        let mut s = TrajectoryStore::new();
        let a = s.push(Trajectory::new(vec![sample(0, 0.0)], kws(&[])).unwrap());
        let b = s.push(Trajectory::new(vec![sample(1, 0.0)], kws(&[])).unwrap());
        assert_eq!(a, TrajectoryId(0));
        assert_eq!(b, TrajectoryId(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s[a].samples()[0].node, NodeId(0));
        assert_eq!(s.iter().count(), 2);
        assert_eq!(s.ids().collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn vertex_index_registers_distinct_vertices_once() {
        let mut s = TrajectoryStore::new();
        // revisits vertex 0
        let id = s.push(
            Trajectory::new(
                vec![sample(0, 0.0), sample(1, 1.0), sample(0, 2.0)],
                kws(&[]),
            )
            .unwrap(),
        );
        let idx = s.build_vertex_index(3);
        assert_eq!(idx.values_at(NodeId(0)), &[id]);
        assert_eq!(idx.values_at(NodeId(1)), &[id]);
        assert_eq!(idx.values_at(NodeId(2)), &[] as &[TrajectoryId]);
        assert_eq!(idx.num_postings(), 2);
    }

    #[test]
    fn a_cloned_store_shares_its_trajectories() {
        let mut store = TrajectoryStore::new();
        let id = store.push(Trajectory::new(vec![sample(1, 0.0)], kws(&[2])).unwrap());
        let copy = store.clone();
        store.push(Trajectory::new(vec![sample(3, 5.0)], kws(&[])).unwrap());
        assert!(std::ptr::eq(copy.get(id), store.get(id)));
        assert_eq!((copy.len(), store.len()), (1, 2));
        assert_eq!(copy.into_trajectories()[0], *store.get(id));
    }

    #[test]
    fn keyword_index_maps_tags_to_trajectories() {
        let mut s = TrajectoryStore::new();
        let a = s.push(Trajectory::new(vec![sample(0, 0.0)], kws(&[1, 2])).unwrap());
        let b = s.push(Trajectory::new(vec![sample(1, 0.0)], kws(&[2])).unwrap());
        let idx = s.build_keyword_index(4);
        assert_eq!(idx.values_for(KeywordId(1)), &[a]);
        assert_eq!(idx.values_for(KeywordId(2)), &[a, b]);
        assert_eq!(idx.values_for(KeywordId(0)), &[] as &[TrajectoryId]);
    }

    #[test]
    fn timestamp_index_covers_all_samples() {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::new(vec![sample(0, 10.0), sample(1, 20.0)], kws(&[])).unwrap());
        s.push(Trajectory::new(vec![sample(2, 15.0)], kws(&[])).unwrap());
        let idx = s.build_timestamp_index();
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn serde_round_trip() {
        let mut s = TrajectoryStore::new();
        s.push(Trajectory::new(vec![sample(0, 1.0), sample(2, 9.0)], kws(&[3])).unwrap());
        let json = serde_json::to_string(&s).unwrap();
        let back: TrajectoryStore = serde_json::from_str(&json).unwrap();
        assert_eq!(s.len(), back.len());
        assert_eq!(s.get(TrajectoryId(0)), back.get(TrajectoryId(0)));
    }
}
