//! The read-only database handle the algorithms run against.

use crate::keywords::KeywordBlocks;
use crate::{CoreError, UotsQuery};
use uots_index::{KeywordInvertedIndex, TimestampIndex, VertexInvertedIndex};
use uots_network::RoadNetwork;
use uots_trajectory::{LiveSet, TrajectoryId, TrajectoryStore};

/// Borrowed view of everything a UOTS algorithm needs: the network, the
/// trajectories and the indexes. Construction is cheap (all references), so
/// one database can serve many concurrent queries.
#[derive(Clone, Copy)]
pub struct Database<'a> {
    /// The road network.
    pub network: &'a RoadNetwork,
    /// The trajectories.
    pub store: &'a TrajectoryStore,
    /// vertex → trajectories (required: the expansion search probes it on
    /// every settled vertex).
    pub vertex_index: &'a VertexInvertedIndex<TrajectoryId>,
    /// Dense per-trajectory keyword table (required: every engine scores
    /// text on it; see [`crate::keywords`]).
    pub keyword_blocks: &'a KeywordBlocks,
    /// keyword → trajectories (required by the textual-first baseline).
    pub keyword_index: Option<&'a KeywordInvertedIndex<TrajectoryId>>,
    /// sample-timestamp index (required by the temporal extension).
    pub timestamp_index: Option<&'a TimestampIndex<TrajectoryId>>,
    /// Liveness mask for epoch-based serving: when present, retired
    /// trajectories stay in the (append-only, stably-numbered) store but
    /// are invisible to every algorithm. `None` means all ids are live —
    /// the frozen-dataset behavior.
    pub live: Option<&'a LiveSet>,
}

impl<'a> Database<'a> {
    /// Creates a database from the mandatory parts.
    ///
    /// # Panics
    ///
    /// Panics when the vertex index does not cover the network, or the
    /// keyword table does not cover the store (it was built for a
    /// different store revision).
    pub fn new(
        network: &'a RoadNetwork,
        store: &'a TrajectoryStore,
        vertex_index: &'a VertexInvertedIndex<TrajectoryId>,
        keyword_blocks: &'a KeywordBlocks,
    ) -> Self {
        assert_eq!(
            vertex_index.num_vertices(),
            network.num_nodes(),
            "vertex index does not match the network"
        );
        assert_eq!(
            keyword_blocks.rows(),
            store.len(),
            "keyword table does not cover the store"
        );
        Database {
            network,
            store,
            vertex_index,
            keyword_blocks,
            keyword_index: None,
            timestamp_index: None,
            live: None,
        }
    }

    /// Attaches the keyword inverted index (enables the textual-first
    /// baseline).
    pub fn with_keyword_index(mut self, idx: &'a KeywordInvertedIndex<TrajectoryId>) -> Self {
        self.keyword_index = Some(idx);
        self
    }

    /// Attaches the timestamp index (enables the temporal channel).
    pub fn with_timestamp_index(mut self, idx: &'a TimestampIndex<TrajectoryId>) -> Self {
        self.timestamp_index = Some(idx);
        self
    }

    /// Attaches a liveness mask. The attached indexes must have been built
    /// over the live subset (see `build_*_index_live`), or index-discovered
    /// candidates could include retired trajectories; the mask only guards
    /// the direct store sweeps the algorithms fall back to.
    ///
    /// # Panics
    ///
    /// Panics when the mask does not cover the store.
    pub fn with_live_set(mut self, live: &'a LiveSet) -> Self {
        assert_eq!(
            live.len(),
            self.store.len(),
            "live set does not cover the store"
        );
        self.live = Some(live);
        self
    }

    /// Whether `id` is visible to queries (always true without a mask).
    #[inline]
    pub fn is_live(&self, id: TrajectoryId) -> bool {
        self.live.is_none_or(|l| l.is_live(id))
    }

    /// Number of visible trajectories.
    pub fn num_live(&self) -> usize {
        self.live
            .map_or(self.store.len(), uots_trajectory::LiveSet::num_live)
    }

    /// Validates that `query` can run against this database.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownLocation`] for a location outside the network;
    /// [`CoreError::MissingIndex`] when the temporal channel is requested
    /// without a timestamp index.
    pub fn validate(&self, query: &UotsQuery) -> Result<(), CoreError> {
        for &v in query.locations() {
            if !self.network.contains_node(v) {
                return Err(CoreError::UnknownLocation(v));
            }
        }
        if query.options().weights.uses_temporal() && self.timestamp_index.is_none() {
            return Err(CoreError::MissingIndex("timestamp"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_text::KeywordSet;
    use uots_trajectory::{Sample, Trajectory};

    fn fixture() -> (RoadNetwork, TrajectoryStore) {
        let net = grid_city(&GridCityConfig::tiny(3)).unwrap();
        let mut store = TrajectoryStore::new();
        store.push(
            Trajectory::new(
                vec![
                    Sample {
                        node: NodeId(0),
                        time: 0.0,
                    },
                    Sample {
                        node: NodeId(1),
                        time: 60.0,
                    },
                ],
                KeywordSet::empty(),
            )
            .unwrap(),
        );
        (net, store)
    }

    #[test]
    fn validate_checks_locations() {
        let (net, store) = fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        let kw = store.build_keyword_blocks(4);
        let db = Database::new(&net, &store, &vidx, &kw);
        let ok = UotsQuery::new(vec![NodeId(0)], KeywordSet::empty()).unwrap();
        assert!(db.validate(&ok).is_ok());
        let bad = UotsQuery::new(vec![NodeId(99)], KeywordSet::empty()).unwrap();
        assert!(matches!(
            db.validate(&bad),
            Err(CoreError::UnknownLocation(NodeId(99)))
        ));
    }

    #[test]
    fn temporal_channel_requires_timestamp_index() {
        let (net, store) = fixture();
        let vidx = store.build_vertex_index(net.num_nodes());
        let kw = store.build_keyword_blocks(4);
        let db = Database::new(&net, &store, &vidx, &kw);
        let opts = crate::QueryOptions {
            weights: crate::Weights::new(1.0, 0.0, 1.0).unwrap(),
            ..Default::default()
        };
        let q = UotsQuery::with_options(vec![NodeId(0)], KeywordSet::empty(), vec![100.0], opts)
            .unwrap();
        assert!(matches!(db.validate(&q), Err(CoreError::MissingIndex(_))));

        let tidx = store.build_timestamp_index();
        let db = db.with_timestamp_index(&tidx);
        assert!(db.validate(&q).is_ok());
    }

    #[test]
    #[should_panic(expected = "vertex index does not match")]
    fn mismatched_vertex_index_panics() {
        let (net, store) = fixture();
        let vidx = store.build_vertex_index(net.num_nodes() + 5);
        let kw = store.build_keyword_blocks(4);
        let _ = Database::new(&net, &store, &vidx, &kw);
    }

    #[test]
    #[should_panic(expected = "keyword table does not cover the store")]
    fn keyword_table_of_another_store_revision_panics() {
        let (net, mut store) = fixture();
        let kw = store.build_keyword_blocks(4);
        // the store grows after the table was built: a stale revision
        let t = store.get(TrajectoryId(0)).clone();
        store.push(t);
        let vidx = store.build_vertex_index(net.num_nodes());
        let _ = Database::new(&net, &store, &vidx, &kw);
    }
}
