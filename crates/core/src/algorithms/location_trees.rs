//! One full shortest-path tree per query location: the distance tables the
//! full-drain algorithms ([`super::BruteForce`], [`super::TextFirst`])
//! evaluate every candidate against.

use crate::budget::Gate;
use crate::distcache::{CachedSource, SearchContext};
use crate::result::Match;
use crate::similarity;
use crate::{Database, SearchMetrics, UotsQuery};
use uots_network::dijkstra::{shortest_path_tree, ShortestPathTree};
use uots_obs::{Phase, Recorder};
use uots_trajectory::{Trajectory, TrajectoryId};

/// `m` fully settled trees, in query-location order.
///
/// Uncached runs build one [`shortest_path_tree`] per location. Under a
/// [`SearchContext`] cache each tree is a [`CachedSource`] drained to
/// exhaustion instead: cached prefixes are replayed, the full component is
/// settled either way, and [`release`](Self::release) publishes the drained
/// prefixes back. Per-vertex distances — and so every evaluation — are
/// bit-identical between the two.
pub(crate) struct LocationTrees<'a> {
    trees: Vec<ShortestPathTree>,
    sources: Vec<CachedSource<'a>>,
    cached: bool,
}

impl<'a> LocationTrees<'a> {
    /// Settles the trees, counting every settle into `metrics`. A tree
    /// settles its whole component at once, so the gate is consulted once
    /// per tree, before paying for it. Returns the trees and whether the
    /// gate interrupted the run (the trees are then incomplete and must
    /// not be evaluated).
    pub(crate) fn settle(
        db: &Database<'a>,
        query: &UotsQuery,
        ctx: &SearchContext,
        gate: &mut Gate,
        metrics: &mut SearchMetrics,
        rec: &mut Recorder,
    ) -> (Self, bool) {
        let mut out = LocationTrees {
            trees: Vec::new(),
            sources: Vec::new(),
            cached: ctx.cache().is_some(),
        };
        rec.enter(Phase::NetworkExpansion);
        for &v in query.locations() {
            if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
                return (out, true);
            }
            if out.cached {
                let mut src = CachedSource::start(db.network, v, ctx.cache());
                rec.enter(Phase::CacheReplay);
                while src.in_replay() {
                    src.next_settled();
                    metrics.settled_vertices += 1;
                }
                rec.enter(Phase::NetworkExpansion);
                while src.next_settled().is_some() {
                    metrics.settled_vertices += 1;
                }
                out.sources.push(src);
            } else {
                let t = shortest_path_tree(db.network, v);
                metrics.settled_vertices += t.reached_count();
                out.trees.push(t);
            }
        }
        (out, false)
    }

    /// Exact match of `traj` with the caller's textual channel value.
    pub(crate) fn evaluate(
        &self,
        query: &UotsQuery,
        id: TrajectoryId,
        traj: &Trajectory,
        textual: f64,
    ) -> Match {
        debug_assert_eq!(self.trees.len() + self.sources.len(), query.num_locations());
        let sdists = if self.cached {
            similarity::spatial_distances_from_sources(&self.sources, traj)
        } else {
            similarity::spatial_distances_from_trees(&self.trees, traj)
        };
        similarity::finish_match(&sdists, textual, query, id, traj)
    }

    /// Fully drained prefixes are ideal cache content, but an interrupted
    /// run publishes nothing (poison-on-cancel).
    pub(crate) fn release(&mut self, interrupted: bool) {
        for src in &mut self.sources {
            if interrupted {
                src.poison();
            } else {
                src.publish();
            }
        }
    }
}
