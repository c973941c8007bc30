//! Exhaustive evaluation: the correctness oracle.

use crate::algorithms::location_trees::LocationTrees;
use crate::algorithms::Algorithm;
use crate::budget::{Completeness, Gate, RunControl};
use crate::distcache::SearchContext;
use crate::similarity;
use crate::topk::TopK;
use crate::{CoreError, Database, QueryResult, SearchMetrics, UotsQuery};
use uots_obs::{Phase, Recorder};

/// Computes one full shortest-path tree per query location, then evaluates
/// the exact similarity of *every* trajectory. `O(m · |V| log |V| + m · Σ|τ|)`
/// with zero pruning — the reference answer and the unoptimized baseline.
///
/// The oracle is plain: text is scored with
/// [`TextSimilarity::similarity`](uots_text::TextSimilarity::similarity)
/// on the trajectories' own keyword sets, never on the dense keyword table
/// the engines it judges use.
///
/// With a [`SearchContext`] cache, the per-location trees are acquired by
/// draining a [`CachedSource`] to exhaustion instead — cached prefixes are
/// replayed, the full component is settled either way, and the drained
/// (exhausted) prefixes are published back, making the brute force an
/// ideal cache warmer. Distances and results are bit-identical to the
/// tree path.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForce;

impl Algorithm for BruteForce {
    fn run_ctx(
        &self,
        db: &Database<'_>,
        query: &UotsQuery,
        ctl: &RunControl,
        rec: &mut Recorder,
        ctx: &SearchContext,
    ) -> Result<QueryResult, CoreError> {
        db.validate(query)?;
        if ctl.is_cancelled() || ctl.deadline_passed() {
            return Ok(QueryResult::interrupted_empty());
        }
        let start = std::time::Instant::now();
        let mut gate = Gate::new(&query.options().budget, ctl);
        let mut metrics = SearchMetrics::for_one_query();

        let (mut trees, mut interrupted) =
            LocationTrees::settle(db, query, ctx, &mut gate, &mut metrics, rec);

        rec.enter(Phase::CandidateRefine);
        let mut topk = TopK::new(query.options().k);
        if !interrupted {
            for (id, traj) in db.store.iter().filter(|(id, _)| db.is_live(*id)) {
                if gate.should_stop(metrics.visited_trajectories, metrics.settled_vertices) {
                    interrupted = true;
                    break;
                }
                metrics.visited_trajectories += 1;
                metrics.candidates += 1;
                metrics.heap_pushes += 1;
                let tx = similarity::textual_component(query, traj);
                topk.offer(trees.evaluate(query, id, traj, tx));
            }
        }
        rec.leave();
        trees.release(interrupted);
        // conservative certificate: with no per-trajectory bounds, an
        // unevaluated trajectory could score up to 1 (gap 1.0 when nothing
        // was evaluated, 1 − kth-best once the top-k filled)
        let completeness = if interrupted {
            metrics.interrupted = 1;
            Completeness::BestEffort {
                bound_gap: (1.0 - topk.threshold().max(0.0)).clamp(0.0, 1.0),
            }
        } else {
            Completeness::Exact
        };
        metrics.phases = rec.phases_snapshot();
        metrics.runtime = start.elapsed();
        Ok(QueryResult {
            matches: topk.into_sorted(),
            metrics,
            completeness,
        })
    }

    fn name(&self) -> &'static str {
        "brute-force"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryOptions;
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_text::{KeywordId, KeywordSet};
    use uots_trajectory::{Sample, Trajectory, TrajectoryId, TrajectoryStore};

    fn store() -> TrajectoryStore {
        let mut s = TrajectoryStore::new();
        for (nodes, tags) in [
            (vec![0u32, 1, 2], vec![1u32]),
            (vec![10, 11], vec![2]),
            (vec![24], vec![1, 2]),
        ] {
            s.push(
                Trajectory::new(
                    nodes
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| Sample {
                            node: NodeId(v),
                            time: 100.0 * (i + 1) as f64,
                        })
                        .collect(),
                    KeywordSet::from_ids(tags.iter().map(|&k| KeywordId(k))),
                )
                .unwrap(),
            );
        }
        s
    }

    #[test]
    fn evaluates_every_trajectory() {
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let s = store();
        let vidx = s.build_vertex_index(net.num_nodes());
        let kw = s.build_keyword_blocks(0);
        let db = Database::new(&net, &s, &vidx, &kw);
        let q = UotsQuery::new(vec![NodeId(0)], KeywordSet::empty()).unwrap();
        let r = BruteForce.run(&db, &q).unwrap();
        assert_eq!(r.metrics.visited_trajectories, 3);
        assert_eq!(r.metrics.candidates, 3);
        assert_eq!(r.metrics.settled_vertices, 25);
        assert_eq!(r.matches.len(), 1);
        // trajectory 0 passes through the query vertex itself
        assert_eq!(r.matches[0].id, TrajectoryId(0));
    }

    #[test]
    fn k_caps_the_answer_not_the_work() {
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let s = store();
        let vidx = s.build_vertex_index(net.num_nodes());
        let kw = s.build_keyword_blocks(0);
        let db = Database::new(&net, &s, &vidx, &kw);
        let q = UotsQuery::new(vec![NodeId(12)], KeywordSet::empty())
            .unwrap()
            .reoptioned(QueryOptions {
                k: 2,
                ..Default::default()
            })
            .unwrap();
        let r = BruteForce.run(&db, &q).unwrap();
        assert_eq!(r.matches.len(), 2);
        assert!(r.is_ranked());
        assert_eq!(r.metrics.visited_trajectories, 3);
    }

    #[test]
    fn rejects_invalid_queries() {
        let net = grid_city(&GridCityConfig::tiny(5)).unwrap();
        let s = store();
        let vidx = s.build_vertex_index(net.num_nodes());
        let kw = s.build_keyword_blocks(0);
        let db = Database::new(&net, &s, &vidx, &kw);
        let q = UotsQuery::new(vec![NodeId(1000)], KeywordSet::empty()).unwrap();
        assert!(BruteForce.run(&db, &q).is_err());
    }
}
