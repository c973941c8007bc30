//! Sharded trajectory store with pruning-aware scatter-gather top-k.
//!
//! ROADMAP item 2: horizontal scale past one store. A [`ShardedCluster`]
//! partitions the trajectory population across `N` independent
//! [`EpochManager`]s. Each shard keeps its own epoch lineage, its own
//! live-built indexes, and — crucially — its own *planner statistics*, so
//! the per-query algorithm choice stays sound shard-locally (a keyword can
//! be locally absent while globally common; see
//! `planner::keyword_selectivity`).
//!
//! ## Partitioning
//!
//! [`Partitioner::Hash`] assigns global trajectory id `g` to shard
//! `g % N` at local id `g / N` — the bijection `g = l·N + s`. It is
//! *map-free*: global ↔ (shard, local) conversions are arithmetic, and a
//! cluster seeded from an existing store reproduces the unsharded engine's
//! id sequence exactly (ingest picks the shard holding the smallest unused
//! global id, which equals round-robin on a fresh cluster and self-heals
//! deterministically after per-shard gaps).
//!
//! [`Partitioner::SpatialGrid`] routes a trajectory by the grid cell of
//! its first sample, keeping spatially close trajectories on the same
//! shard (the partition-level locality of TISIS-style partitioned
//! similarity search). Routing is table-based (explicit global ↔ local
//! maps, frozen per publish).
//!
//! ## Scatter-gather with threshold push-back
//!
//! [`ClusterSnapshot::search_ctx`] scatters one query to every shard;
//! each shard runs its own per-query plan against its own snapshot. The
//! coordinator maintains a global k-th-score threshold over the shards
//! that have already completed exactly; whenever it tightens, the
//! coordinator *pushes it back* to lagging shards by cancelling any shard
//! whose **per-shard upper bound** falls below it. The upper bound
//! ([`shard_upper_bound`]) is the only sound one available without
//! touching trajectory data: `w_s·1 + w_tm·1 + w_tx·SimT_ub`, where for
//! Jaccard `SimT_ub = |{q ∈ Q : df_shard(q) > 0}| / |Q|` (a trajectory of
//! the shard can only intersect `Q` on keywords with local postings, and
//! `|Q ∪ T| ≥ |Q|`). Non-Jaccard measures fall back to the trivial `1.0`.
//!
//! ## Determinism contract
//!
//! The gather is computed from the complete per-shard outcomes, never
//! from the cancellation race:
//!
//! * every shard that completed **exactly** is merged (through
//!   [`TopK`], i.e. the same total order as everywhere else:
//!   [`Match::ranking_cmp`], ties by ascending *global* id);
//! * the exact-merge threshold `T` then classifies every best-effort
//!   shard: if its upper bound is strictly below `T` the shard is **cut**
//!   — discarded entirely, *without* degrading the completeness
//!   certificate, because the bound proves nothing above `T` lives there;
//!   otherwise its partial matches merge and the answer's certified gap
//!   widens accordingly.
//!
//! A shard cancelled by push-back either finished exactly anyway (its
//! matches merge but all sit below `T`, so they change nothing) or
//! returns best-effort with its bound below `T` (it is cut). Either way
//! the *answer* — matches and completeness — is identical, so results are
//! bit-identical to the unsharded engine for exact runs at any shard
//! count, and a 1-shard cluster is bit-identical always (interrupted runs
//! included, via the single-shard passthrough). Only the effort
//! diagnostics ([`ShardedAnswer::shards_cut`] /
//! [`ShardedAnswer::shards_cancelled`], per-shard metrics) depend on
//! timing.

use crate::algorithms::Algorithm;
use crate::budget::{CancellationToken, Completeness, RunControl};
use crate::distcache::SearchContext;
use crate::epoch::{EpochManager, EpochSnapshot, Mutation};
use crate::result::QueryResult;
use crate::topk::TopK;
use crate::{CoreError, SearchMetrics, UotsQuery};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use uots_network::{Point, RoadNetwork};
use uots_obs::{Counter, Gauge, MetricsRegistry};
use uots_text::TextSimilarity;
use uots_trajectory::{Trajectory, TrajectoryId, TrajectoryStore};

/// How trajectories are assigned to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioner {
    /// Global id `g` lives on shard `g % N` at local id `g / N`
    /// (map-free; reproduces unsharded id assignment).
    Hash,
    /// Route by the grid cell of the trajectory's first sample over the
    /// network's bounding box (`cells_per_axis²` cells, cell → shard by
    /// modulo). Table-based routing; keeps spatially close trajectories
    /// co-resident.
    SpatialGrid {
        /// Grid resolution per axis (≥ 1).
        cells_per_axis: usize,
    },
}

/// Cell router for [`Partitioner::SpatialGrid`].
#[derive(Debug, Clone)]
struct SpatialRouter {
    min_x: f64,
    min_y: f64,
    inv_w: f64,
    inv_h: f64,
    cells: usize,
}

impl SpatialRouter {
    fn new(network: &RoadNetwork, cells_per_axis: usize) -> Self {
        let cells = cells_per_axis.max(1);
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in network.points() {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let w = (max_x - min_x).max(f64::MIN_POSITIVE);
        let h = (max_y - min_y).max(f64::MIN_POSITIVE);
        SpatialRouter {
            min_x,
            min_y,
            inv_w: cells as f64 / w,
            inv_h: cells as f64 / h,
            cells,
        }
    }

    fn cell_of(&self, p: Point) -> usize {
        let cx = (((p.x - self.min_x) * self.inv_w) as usize).min(self.cells - 1);
        let cy = (((p.y - self.min_y) * self.inv_h) as usize).min(self.cells - 1);
        cy * self.cells + cx
    }
}

/// Mutable routing state, serialized under one mutex (single logical
/// writer, like [`EpochManager`]'s writer path).
#[derive(Debug)]
struct Routing {
    /// Master-store length of each shard (pending ingests included) — the
    /// id-assignment source of truth.
    next_local: Vec<u32>,
    tables: Option<RoutingTables>,
}

/// Explicit maps for table-based partitioners (spatial grid).
#[derive(Debug)]
struct RoutingTables {
    router: SpatialRouter,
    /// global id → (shard, local id)
    globals: Vec<(u32, TrajectoryId)>,
    /// per shard: local id → global id
    locals: Vec<Vec<TrajectoryId>>,
    /// Frozen per-publish copies handed to snapshots.
    published: Vec<Arc<Vec<TrajectoryId>>>,
}

/// Per-shard local-to-global id mapping carried by a [`ClusterSnapshot`].
#[derive(Debug, Clone)]
enum ShardMap {
    Hash {
        shard: u32,
        shards: u32,
    },
    /// Frozen local → global table (spatial partitioner).
    Table(Arc<Vec<TrajectoryId>>),
}

impl ShardMap {
    #[inline]
    fn global_of(&self, local: TrajectoryId) -> TrajectoryId {
        match self {
            ShardMap::Hash { shard, shards } => TrajectoryId(local.0 * shards + shard),
            ShardMap::Table(t) => t[local.index()],
        }
    }
}

/// Coordinator-level metrics: per-shard live gauges plus scatter-gather
/// outcome counters, labeled so one exposition covers the whole cluster.
#[derive(Debug)]
struct ClusterMetrics {
    queries: Counter,
    cutoffs: Counter,
    cancellations: Counter,
    shard_live: Vec<Gauge>,
}

impl ClusterMetrics {
    fn register(registry: &MetricsRegistry, shards: usize) -> Self {
        ClusterMetrics {
            queries: registry.counter(
                "uots_cluster_queries_total",
                "Scatter-gather queries coordinated",
            ),
            cutoffs: registry.counter(
                "uots_cluster_shard_cutoffs_total",
                "Best-effort shards cut off by the global threshold",
            ),
            cancellations: registry.counter(
                "uots_cluster_shard_cancellations_total",
                "Shards cancelled by threshold push-back",
            ),
            shard_live: (0..shards)
                .map(|s| {
                    registry.gauge_with(
                        "uots_cluster_shard_live",
                        "Live trajectories per shard",
                        &[("shard", &s.to_string())],
                    )
                })
                .collect(),
        }
    }
}

fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// `N` independent epoch-managed shards behind one ingest/search facade.
/// See the [module docs](self) for the partitioning and gather contracts.
pub struct ShardedCluster {
    shards: Vec<EpochManager>,
    partitioner: Partitioner,
    network: Arc<RoadNetwork>,
    routing: Mutex<Routing>,
    metrics: Option<Arc<ClusterMetrics>>,
}

impl ShardedCluster {
    /// Seeds a cluster from `store`, partitioned across `num_shards`
    /// shards. With [`Partitioner::Hash`], seed trajectory `g` lands on
    /// shard `g % N` at local id `g / N`, so global ids reproduce the
    /// unsharded store's ids exactly.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards == 0`.
    pub fn new(
        network: Arc<RoadNetwork>,
        store: &TrajectoryStore,
        vocab_len: usize,
        num_shards: usize,
        partitioner: Partitioner,
    ) -> Self {
        Self::build(network, store, vocab_len, num_shards, partitioner, None)
    }

    /// [`new`](Self::new) plus `uots_cluster_*` metrics (per-shard live
    /// gauges labeled `shard="<s>"`, scatter-gather outcome counters).
    pub fn with_metrics(
        network: Arc<RoadNetwork>,
        store: &TrajectoryStore,
        vocab_len: usize,
        num_shards: usize,
        partitioner: Partitioner,
        registry: &MetricsRegistry,
    ) -> Self {
        Self::build(
            network,
            store,
            vocab_len,
            num_shards,
            partitioner,
            Some(Arc::new(ClusterMetrics::register(registry, num_shards))),
        )
    }

    /// Assembles a cluster from per-shard recovered managers (hash
    /// partitioning only — the durable facade's constructor). Shard `s`'s
    /// manager must hold exactly the trajectories whose global id is
    /// `≡ s (mod N)`, at local id `g / N`.
    ///
    /// # Panics
    ///
    /// Panics on an empty shard vector or mismatched network `Arc`s.
    pub fn from_shards(shards: Vec<EpochManager>, metrics: Option<&MetricsRegistry>) -> Self {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        let network = Arc::clone(shards[0].network());
        for s in &shards {
            assert!(
                Arc::ptr_eq(s.network(), &network),
                "every shard must serve the same road network"
            );
        }
        let next_local = shards
            .iter()
            .map(|s| s.snapshot().store().len() as u32)
            .collect();
        let n = shards.len();
        ShardedCluster {
            shards,
            partitioner: Partitioner::Hash,
            network,
            routing: Mutex::new(Routing {
                next_local,
                tables: None,
            }),
            metrics: metrics.map(|r| Arc::new(ClusterMetrics::register(r, n))),
        }
    }

    fn build(
        network: Arc<RoadNetwork>,
        store: &TrajectoryStore,
        vocab_len: usize,
        num_shards: usize,
        partitioner: Partitioner,
        metrics: Option<Arc<ClusterMetrics>>,
    ) -> Self {
        assert!(num_shards >= 1, "a cluster needs at least one shard");
        let mut per_shard: Vec<TrajectoryStore> =
            (0..num_shards).map(|_| TrajectoryStore::new()).collect();
        let mut tables = match partitioner {
            Partitioner::Hash => None,
            Partitioner::SpatialGrid { cells_per_axis } => Some(RoutingTables {
                router: SpatialRouter::new(&network, cells_per_axis),
                globals: Vec::with_capacity(store.len()),
                locals: vec![Vec::new(); num_shards],
                published: (0..num_shards).map(|_| Arc::new(Vec::new())).collect(),
            }),
        };
        for (global, t) in store.iter() {
            let s = match &tables {
                None => global.index() % num_shards,
                Some(tb) => {
                    let p = network.point(t.samples()[0].node);
                    tb.router.cell_of(p) % num_shards
                }
            };
            let local = per_shard[s].push(t.clone());
            if let Some(tb) = &mut tables {
                tb.globals.push((s as u32, local));
                tb.locals[s].push(global);
            } else {
                debug_assert_eq!(local.index(), global.index() / num_shards);
            }
        }
        if let Some(tb) = &mut tables {
            tb.published = tb.locals.iter().map(|l| Arc::new(l.clone())).collect();
        }
        let next_local = per_shard.iter().map(|s| s.len() as u32).collect();
        let shards: Vec<EpochManager> = per_shard
            .into_iter()
            .map(|s| EpochManager::new(Arc::clone(&network), s, vocab_len))
            .collect();
        let cluster = ShardedCluster {
            shards,
            partitioner,
            network,
            routing: Mutex::new(Routing { next_local, tables }),
            metrics,
        };
        cluster.update_live_gauges();
        cluster
    }

    fn update_live_gauges(&self) {
        if let Some(m) = &self.metrics {
            for (s, g) in m.shard_live.iter().enumerate() {
                g.set(self.shards[s].snapshot().stats().live as i64);
            }
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The partitioning scheme.
    pub fn partitioner(&self) -> Partitioner {
        self.partitioner
    }

    /// The shared road network (pointer-identical across every shard and
    /// epoch — the distance-cache survival invariant holds cluster-wide).
    pub fn network(&self) -> &Arc<RoadNetwork> {
        &self.network
    }

    /// Direct access to a shard's manager (tests, recovery plumbing).
    pub fn shard(&self, s: usize) -> &EpochManager {
        &self.shards[s]
    }

    /// Mutations batched across all shards since the last publish.
    pub fn pending(&self) -> u64 {
        self.shards.iter().map(|s| s.pending()).sum()
    }

    /// Whether `global` is an id this cluster has issued (seeded or
    /// ingested; retired ids remain known).
    pub fn contains(&self, global: TrajectoryId) -> bool {
        let r = lock_ok(&self.routing);
        match &r.tables {
            None => {
                let n = self.shards.len() as u32;
                global.0 / n < r.next_local[(global.0 % n) as usize]
            }
            Some(tb) => global.index() < tb.globals.len(),
        }
    }

    /// Routes `global` to its shard and local id.
    ///
    /// # Panics
    ///
    /// Panics for a global id the cluster has never issued.
    pub fn locate(&self, global: TrajectoryId) -> (usize, TrajectoryId) {
        let r = lock_ok(&self.routing);
        match &r.tables {
            None => {
                let n = self.shards.len() as u32;
                let (s, l) = (global.0 % n, global.0 / n);
                assert!(
                    l < r.next_local[s as usize],
                    "unknown global trajectory id {global}"
                );
                (s as usize, TrajectoryId(l))
            }
            Some(tb) => {
                let (s, l) = tb.globals[global.index()];
                (s as usize, l)
            }
        }
    }

    /// Appends a trajectory and returns its **global** id. Invisible to
    /// queries until the next [`publish_all`](Self::publish_all).
    ///
    /// Hash partitioning assigns the smallest unused global id (the shard
    /// minimizing `l_s·N + s`), which reproduces the unsharded engine's
    /// sequential ids on any `g % N`-consistent cluster state.
    pub fn ingest(&self, t: Trajectory) -> TrajectoryId {
        let mut r = lock_ok(&self.routing);
        let n = self.shards.len();
        match &mut r.tables {
            None => {
                let s = (0..n)
                    .min_by_key(|&s| r.next_local[s] as u64 * n as u64 + s as u64)
                    .expect("at least one shard");
                let global = TrajectoryId(r.next_local[s] * n as u32 + s as u32);
                let local = self.shards[s].ingest(t);
                debug_assert_eq!(local.0, r.next_local[s]);
                r.next_local[s] += 1;
                global
            }
            Some(tb) => {
                let s = tb.router.cell_of(self.network.point(t.samples()[0].node)) % n;
                let global = TrajectoryId(tb.globals.len() as u32);
                let local = self.shards[s].ingest(t);
                debug_assert_eq!(local.index(), tb.locals[s].len());
                tb.globals.push((s as u32, local));
                tb.locals[s].push(global);
                r.next_local[s] += 1;
                global
            }
        }
    }

    /// Retires a trajectory by **global** id; returns whether it was live.
    ///
    /// # Panics
    ///
    /// Panics for an unknown global id.
    pub fn retire(&self, global: TrajectoryId) -> bool {
        let (s, local) = self.locate(global);
        self.shards[s].retire(local)
    }

    /// Applies a batch of mutations in order (ids in [`Mutation::Retire`]
    /// are global). Returns the inserted trajectories' global ids.
    pub fn apply(&self, mutations: impl IntoIterator<Item = Mutation>) -> Vec<TrajectoryId> {
        let mut inserted = Vec::new();
        for m in mutations {
            match m {
                Mutation::Insert(t) => inserted.push(self.ingest(t)),
                Mutation::Retire(id) => {
                    self.retire(id);
                }
            }
        }
        inserted
    }

    /// Publishes every shard (in parallel — index building is per-shard
    /// independent) and returns the consistent cut of the freshly
    /// published snapshots. Serialized against
    /// [`snapshot`](Self::snapshot) by the routing lock, so readers never
    /// observe a torn cut.
    pub fn publish_all(&self) -> ClusterSnapshot {
        let mut r = lock_ok(&self.routing);
        if let Some(tb) = &mut r.tables {
            tb.published = tb.locals.iter().map(|l| Arc::new(l.clone())).collect();
        }
        let snaps: Vec<Arc<EpochSnapshot>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|s| scope.spawn(|| s.publish()))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(s) => s,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let cut = self.cut_with(snaps, &r);
        drop(r);
        self.update_live_gauges();
        cut
    }

    /// The current consistent cut: one snapshot per shard plus the frozen
    /// id maps. Taken under the routing lock, so it never interleaves
    /// with a concurrent [`publish_all`](Self::publish_all).
    pub fn snapshot(&self) -> ClusterSnapshot {
        let r = lock_ok(&self.routing);
        let snaps = self.shards.iter().map(|s| s.snapshot()).collect();
        self.cut_with(snaps, &r)
    }

    fn cut_with(&self, snaps: Vec<Arc<EpochSnapshot>>, r: &Routing) -> ClusterSnapshot {
        let n = self.shards.len() as u32;
        let maps = match &r.tables {
            None => (0..n)
                .map(|s| ShardMap::Hash {
                    shard: s,
                    shards: n,
                })
                .collect(),
            Some(tb) => tb
                .published
                .iter()
                .map(|p| ShardMap::Table(Arc::clone(p)))
                .collect(),
        };
        ClusterSnapshot {
            shards: snaps,
            maps,
            metrics: self.metrics.clone(),
        }
    }
}

/// The sound per-shard similarity upper bound used for threshold
/// push-back and cut classification: `w_s·1 + w_tm·1 + w_tx·SimT_ub`.
///
/// For the Jaccard measure with a non-empty query keyword set,
/// `SimT_ub = |{q ∈ Q : df_shard(q) > 0}| / |Q|`: a live trajectory of
/// this shard can only intersect `Q` on keywords that have at least one
/// local posting, and `|Q ∪ T| ≥ |Q|`. Every other configuration (other
/// measures, empty `Q`) falls back to the trivial bound `1.0`. Spatial
/// and temporal channels are bounded trivially — network distances carry
/// no shard-local structure that would be sound to exploit (edge weights
/// need not correlate with geometry).
pub fn shard_upper_bound(snap: &EpochSnapshot, query: &UotsQuery) -> f64 {
    let w = query.options().weights;
    let jaccard = matches!(query.options().text_measure, TextSimilarity::Jaccard);
    let text_ub = if jaccard && !query.keywords().is_empty() {
        match snap.database().keyword_index {
            Some(idx) => {
                let present = query
                    .keywords()
                    .iter()
                    .filter(|&k| idx.document_frequency(k) > 0)
                    .count();
                present as f64 / query.keywords().len() as f64
            }
            None => 1.0,
        }
    } else {
        1.0
    };
    w.spatial + w.temporal + w.textual * text_ub
}

/// A coordinated answer: the merged result plus the coordinator's effort
/// diagnostics.
#[derive(Debug, Clone)]
pub struct ShardedAnswer {
    /// The merged top-k (global ids), with metrics aggregated across all
    /// shards and the soundly widened completeness certificate.
    pub result: QueryResult,
    /// Best-effort shards discarded because their upper bound proved they
    /// hold nothing above the global threshold. Timing-dependent (a
    /// cancelled shard may still race to an exact finish); the *answer*
    /// is not.
    pub shards_cut: usize,
    /// Shards cancelled by threshold push-back (diagnostic, timing-
    /// dependent).
    pub shards_cancelled: usize,
    /// The per-shard upper bounds the coordinator worked with.
    pub shard_bounds: Vec<f64>,
}

/// One consistent cut across every shard: per-shard [`EpochSnapshot`]s
/// plus the frozen local → global id maps. Cheap to clone-share; queries
/// against it are untouched by later publishes.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    shards: Vec<Arc<EpochSnapshot>>,
    maps: Vec<ShardMap>,
    metrics: Option<Arc<ClusterMetrics>>,
}

impl ClusterSnapshot {
    /// Assembles a cut from per-shard snapshots under **hash**
    /// partitioning (shard `s` holds the trajectories whose global id is
    /// `≡ s (mod N)` at local id `g / N`). This is the constructor for
    /// externally managed shards — e.g. the durable facade, where each
    /// shard is owned by its own WAL-backed ingest.
    ///
    /// # Panics
    ///
    /// Panics on an empty shard vector.
    pub fn from_hash_shards(shards: Vec<Arc<EpochSnapshot>>) -> Self {
        let n = shards.len() as u32;
        assert!(n >= 1, "a cluster needs at least one shard");
        ClusterSnapshot {
            maps: (0..n)
                .map(|s| ShardMap::Hash {
                    shard: s,
                    shards: n,
                })
                .collect(),
            shards,
            metrics: None,
        }
    }

    /// Number of shards in the cut.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `s`'s snapshot.
    pub fn shard(&self, s: usize) -> &Arc<EpochSnapshot> {
        &self.shards[s]
    }

    /// Per-shard epoch numbers of this cut.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// Live trajectories across all shards.
    pub fn num_live(&self) -> usize {
        self.shards.iter().map(|s| s.stats().live).sum()
    }

    /// Maps a shard-local id to its global id.
    pub fn global_of(&self, shard: usize, local: TrajectoryId) -> TrajectoryId {
        self.maps[shard].global_of(local)
    }

    /// Scatter-gather without external control: unbounded run, empty
    /// context.
    ///
    /// # Errors
    ///
    /// The lowest-shard error, if any shard rejects the query.
    pub fn search<A: Algorithm + Sync>(
        &self,
        algorithm: &A,
        query: &UotsQuery,
    ) -> Result<ShardedAnswer, CoreError> {
        self.search_ctx(
            algorithm,
            query,
            &RunControl::unbounded(),
            &SearchContext::default(),
        )
    }

    /// Scatter-gather top-k: each shard runs `algorithm` (typically a
    /// [`crate::Planner`], deciding per-shard) against its own snapshot
    /// under its own cancellation token; the coordinator pushes the
    /// tightening global threshold back to lagging shards and merges the
    /// outcomes deterministically (see the [module docs](self)).
    ///
    /// `ctl`'s deadline is forwarded to every shard; cancelling `ctl`'s
    /// token cancels all shards.
    ///
    /// # Errors
    ///
    /// The lowest-shard error, if any shard rejects the query.
    pub fn search_ctx<A: Algorithm + Sync>(
        &self,
        algorithm: &A,
        query: &UotsQuery,
        ctl: &RunControl,
        ctx: &SearchContext,
    ) -> Result<ShardedAnswer, CoreError> {
        let n = self.shards.len();
        let k = query.options().k;
        let bounds: Vec<f64> = self
            .shards
            .iter()
            .map(|s| shard_upper_bound(s, query))
            .collect();
        let tokens: Vec<CancellationToken> = (0..n).map(|_| CancellationToken::new()).collect();
        if ctl.is_cancelled() {
            for t in &tokens {
                t.cancel();
            }
        }
        let cancelled: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let done = AtomicUsize::new(0);
        let running = Mutex::new(TopK::new(k));
        let outcomes: Vec<Mutex<Option<Result<QueryResult, CoreError>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();

        // Impact-ordered scatter: spawn shards by descending upper bound
        // (ties by index), so the shards that can raise the global
        // threshold run first and low-bound shards start after the
        // threshold already proves them irrelevant — their up-front
        // cancellation check then cuts them before they do any work.
        // Spawn order never affects the merged answer (the gather runs
        // over complete per-shard outcomes); it only decides how much
        // wasted work the push-back saves.
        let mut spawn_order: Vec<usize> = (0..n).collect();
        spawn_order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(a.cmp(&b)));
        std::thread::scope(|scope| {
            for s in spawn_order {
                let snap = &self.shards[s];
                let map = &self.maps[s];
                let token = tokens[s].clone();
                let (bounds, tokens, cancelled) = (&bounds, &tokens, &cancelled);
                let (running, outcomes, done) = (&running, &outcomes, &done);
                scope.spawn(move || {
                    let mut shard_ctl = RunControl::with_token(token);
                    if let Some(d) = ctl.deadline() {
                        shard_ctl = shard_ctl.with_deadline(d);
                    }
                    let db = snap.database();
                    let mut rec = uots_obs::Recorder::disabled();
                    let r = algorithm
                        .run_ctx(&db, query, &shard_ctl, &mut rec, ctx)
                        .map(|mut qr| {
                            for m in &mut qr.matches {
                                m.id = map.global_of(m.id);
                            }
                            qr
                        });
                    if let Ok(qr) = &r {
                        if qr.completeness.is_exact() {
                            // Exact completion: fold into the running
                            // threshold and push it back to every lagging
                            // shard whose bound now proves irrelevance.
                            let mut g = lock_ok(running);
                            for m in &qr.matches {
                                g.offer(*m);
                            }
                            let t = g.threshold();
                            drop(g);
                            if t > f64::NEG_INFINITY {
                                for s2 in 0..n {
                                    if s2 != s && bounds[s2] < t && !tokens[s2].is_cancelled() {
                                        tokens[s2].cancel();
                                        cancelled[s2].store(true, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                    }
                    *lock_ok(&outcomes[s]) = Some(r);
                    done.fetch_add(1, Ordering::Release);
                });
            }
            // Coordinator loop: wait for the fan-in, forwarding an
            // external cancellation to every shard as soon as it lands.
            while done.load(Ordering::Acquire) < n {
                if ctl.is_cancelled() {
                    for t in &tokens {
                        t.cancel();
                    }
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        });

        let mut results = Vec::with_capacity(n);
        for o in outcomes {
            results.push(lock_ok(&o).take().expect("every shard reports")?);
        }
        let shards_cancelled = cancelled
            .iter()
            .filter(|c| c.load(Ordering::Relaxed))
            .count();
        let (result, shards_cut) = merge_shard_results(k, &bounds, results);
        if let Some(m) = &self.metrics {
            m.queries.inc();
            m.cutoffs.add(shards_cut as u64);
            m.cancellations.add(shards_cancelled as u64);
        }
        Ok(ShardedAnswer {
            result,
            shards_cut,
            shards_cancelled,
            shard_bounds: bounds,
        })
    }
}

/// The deterministic gather. Merges exact shards first (fixing the global
/// threshold `T`), then classifies each best-effort shard: **cut** when
/// its upper bound sits strictly below `T` (provably irrelevant — the
/// certificate does not widen), merged with a soundly recomputed global
/// gap otherwise. A single-shard cluster passes its result through
/// untouched (bit-identity with the unsharded engine, interrupted runs
/// included).
fn merge_shard_results(
    k: usize,
    bounds: &[f64],
    mut results: Vec<QueryResult>,
) -> (QueryResult, usize) {
    debug_assert_eq!(bounds.len(), results.len());
    if results.len() == 1 {
        return (results.pop().expect("one result"), 0);
    }
    let mut metrics = SearchMetrics::default();
    for r in &results {
        metrics.merge(&r.metrics);
    }
    // one logical query, whatever the fan-out
    metrics.queries = 1;

    let mut topk = TopK::new(k);
    for r in results.iter().filter(|r| r.completeness.is_exact()) {
        for m in &r.matches {
            topk.offer(*m);
        }
    }
    let t_exact = topk.threshold();
    let mut shards_cut = 0usize;
    let mut included_best_effort = Vec::new();
    for (s, r) in results.iter().enumerate() {
        if r.completeness.is_exact() {
            continue;
        }
        if bounds[s] < t_exact {
            shards_cut += 1;
            continue;
        }
        for m in &r.matches {
            topk.offer(*m);
        }
        included_best_effort.push(s);
    }
    let matches = topk.into_sorted();
    // The global certificate: every unreported trajectory lives on some
    // shard; on shard s it is bounded by that shard's own certificate
    // (worst reported + gap). Cut shards are bounded by ub < T ≤ kth.
    let kth = matches.last().map_or(0.0, |m| m.similarity);
    let mut gap = 0.0f64;
    for &s in &included_best_effort {
        let r = &results[s];
        let worst = r.matches.last().map_or(0.0, |m| m.similarity);
        let certified = worst + r.completeness.bound_gap();
        gap = gap.max((certified - kth).max(0.0));
    }
    let completeness = if included_best_effort.is_empty() {
        Completeness::Exact
    } else {
        Completeness::from_gap(gap)
    };
    (
        QueryResult {
            matches,
            metrics,
            completeness,
        },
        shards_cut,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::BruteForce;
    use crate::planner::Planner;
    use crate::result::Match;
    use crate::{QueryOptions, Weights};
    use uots_network::generators::{grid_city, GridCityConfig};
    use uots_network::NodeId;
    use uots_text::{KeywordId, KeywordSet};
    use uots_trajectory::Sample;

    fn traj(nodes: &[u32], kw: &[u32]) -> Trajectory {
        Trajectory::new(
            nodes
                .iter()
                .enumerate()
                .map(|(i, &v)| Sample {
                    node: NodeId(v),
                    time: 60.0 * i as f64,
                })
                .collect(),
            KeywordSet::from_ids(kw.iter().map(|&k| KeywordId(k))),
        )
        .unwrap()
    }

    fn fixture(n: usize) -> (Arc<RoadNetwork>, TrajectoryStore) {
        let net = Arc::new(grid_city(&GridCityConfig::tiny(8)).unwrap());
        let mut store = TrajectoryStore::new();
        for i in 0..n as u32 {
            store.push(traj(&[i % 60, (i + 1) % 60, (i + 2) % 60], &[i % 5]));
        }
        (net, store)
    }

    fn m(id: u32, sim: f64) -> Match {
        Match {
            id: TrajectoryId(id),
            similarity: sim,
            spatial: sim,
            textual: 0.0,
            temporal: 0.0,
            order_blend: None,
        }
    }

    fn exact(matches: Vec<Match>) -> QueryResult {
        QueryResult {
            matches,
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::Exact,
        }
    }

    fn best_effort(matches: Vec<Match>, gap: f64) -> QueryResult {
        QueryResult {
            matches,
            metrics: SearchMetrics::for_one_query(),
            completeness: Completeness::BestEffort { bound_gap: gap },
        }
    }

    #[test]
    fn hash_bijection_round_trips() {
        let (net, store) = fixture(40);
        let cluster = ShardedCluster::new(net, &store, 8, 4, Partitioner::Hash);
        for g in 0..40u32 {
            let (s, l) = cluster.locate(TrajectoryId(g));
            assert_eq!(s, (g % 4) as usize);
            assert_eq!(l, TrajectoryId(g / 4));
            let snap = cluster.snapshot();
            assert_eq!(snap.global_of(s, l), TrajectoryId(g));
        }
    }

    #[test]
    fn hash_ingest_reproduces_unsharded_id_sequence() {
        let (net, store) = fixture(13); // deliberately not a multiple of 4
        let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 4, Partitioner::Hash);
        for i in 0..9u32 {
            let id = cluster.ingest(traj(&[i, i + 1], &[1]));
            assert_eq!(id, TrajectoryId(13 + i), "sequential global ids");
        }
        // and they route back to consistent (shard, local) pairs
        for g in 13..22u32 {
            let (s, l) = cluster.locate(TrajectoryId(g));
            assert_eq!(g % 4, s as u32);
            assert_eq!(g / 4, l.0);
        }
    }

    #[test]
    fn sharded_exact_search_matches_unsharded_engine() {
        let (net, store) = fixture(60);
        let vidx = store.build_vertex_index(net.num_nodes());
        let kidx = store.build_keyword_index(8);
        let kw = store.build_keyword_blocks(8);
        let db = crate::Database::new(&net, &store, &vidx, &kw).with_keyword_index(&kidx);
        let q = UotsQuery::with_options(
            vec![NodeId(3), NodeId(17)],
            KeywordSet::from_ids([KeywordId(2)]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.4).unwrap(),
                k: 5,
                ..Default::default()
            },
        )
        .unwrap();
        let reference = BruteForce.run(&db, &q).unwrap();
        for (shards, partitioner) in [
            (1, Partitioner::Hash),
            (4, Partitioner::Hash),
            (3, Partitioner::SpatialGrid { cells_per_axis: 4 }),
        ] {
            let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, shards, partitioner);
            let answer = cluster.snapshot().search(&Planner::new(), &q).unwrap();
            assert!(answer.result.completeness.is_exact());
            assert_eq!(answer.result.ids(), reference.ids(), "{partitioner:?}");
            for (a, b) in answer.result.matches.iter().zip(reference.matches.iter()) {
                assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
                assert_eq!(a.spatial.to_bits(), b.spatial.to_bits());
                assert_eq!(a.textual.to_bits(), b.textual.to_bits());
            }
        }
    }

    #[test]
    fn spatial_partitioner_keeps_global_ids_stable_across_ingest() {
        let (net, store) = fixture(20);
        let cluster = ShardedCluster::new(
            Arc::clone(&net),
            &store,
            8,
            3,
            Partitioner::SpatialGrid { cells_per_axis: 4 },
        );
        let id = cluster.ingest(traj(&[40, 41], &[3]));
        assert_eq!(id, TrajectoryId(20));
        assert!(cluster.retire(TrajectoryId(5)));
        let cut = cluster.publish_all();
        assert_eq!(cut.num_live(), 20); // 20 seed − 1 retired + 1 ingested
                                        // every live global id is reachable through exactly one shard
        let mut seen = std::collections::BTreeSet::new();
        for s in 0..cut.num_shards() {
            let snap = cut.shard(s);
            for l in snap.live().iter_live() {
                assert!(seen.insert(cut.global_of(s, l)));
            }
        }
        assert!(!seen.contains(&TrajectoryId(5)));
        assert!(seen.contains(&TrajectoryId(20)));
    }

    #[test]
    fn upper_bound_reflects_locally_absent_keywords() {
        let (net, store) = fixture(30);
        let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 1, Partitioner::Hash);
        let snap = cluster.snapshot();
        let q = |kws: &[u32], lambda: f64| {
            UotsQuery::with_options(
                vec![NodeId(0)],
                KeywordSet::from_ids(kws.iter().map(|&k| KeywordId(k))),
                vec![],
                QueryOptions {
                    weights: Weights::lambda(lambda).unwrap(),
                    k: 1,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        // keyword 7 has no postings anywhere: textual channel bounded at 1/2
        let ub = shard_upper_bound(snap.shard(0), &q(&[1, 7], 0.4));
        assert!((ub - (0.4 + 0.6 * 0.5)).abs() < 1e-12, "{ub}");
        // all keywords present: trivial bound
        assert_eq!(shard_upper_bound(snap.shard(0), &q(&[1, 2], 0.4)), 1.0);
        // no keywords: trivial bound
        assert_eq!(shard_upper_bound(snap.shard(0), &q(&[], 0.4)), 1.0);
        // and the bound really is an upper bound on any similarity
        let full = cluster
            .snapshot()
            .search(&BruteForce, &q(&[1, 7], 0.4))
            .unwrap();
        if let Some(best) = full.result.best() {
            assert!(best.similarity <= ub + 1e-12);
        }
    }

    #[test]
    fn merge_single_shard_is_bitwise_passthrough() {
        let r = best_effort(vec![m(3, 0.625), m(1, 0.5)], 0.037);
        let (merged, cut) = merge_shard_results(2, &[0.9], vec![r.clone()]);
        assert_eq!(cut, 0);
        assert_eq!(merged.completeness, r.completeness);
        assert_eq!(merged.matches, r.matches);
    }

    /// Satellite: tie-breaking at the k boundary with duplicated scores
    /// must follow [`Match::ranking_cmp`]'s total order — ascending global
    /// id among equals — regardless of which shard supplied which match.
    #[test]
    fn merge_breaks_score_ties_by_ascending_global_id() {
        // ids interleave across shards; scores collide exactly at the
        // k-boundary (three 0.5s fighting for two remaining slots)
        let a = exact(vec![m(0, 0.9), m(6, 0.5), m(2, 0.5)]);
        let b = exact(vec![m(5, 0.5), m(1, 0.5), m(9, 0.1)]);
        let (merged, _) = merge_shard_results(3, &[1.0, 1.0], vec![a, b]);
        let ids: Vec<u32> = merged.matches.iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "ties at k resolve by ascending id");
        // swapping shard order changes nothing
        let a = exact(vec![m(0, 0.9), m(6, 0.5), m(2, 0.5)]);
        let b = exact(vec![m(5, 0.5), m(1, 0.5), m(9, 0.1)]);
        let (swapped, _) = merge_shard_results(3, &[1.0, 1.0], vec![b, a]);
        let ids: Vec<u32> = swapped.matches.iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn merge_cuts_best_effort_shards_below_threshold_without_degrading() {
        // shard 0 exact with k=2 filled at threshold 0.6; shard 1
        // interrupted but bounded at 0.4 < 0.6 → cut, answer stays Exact
        let a = exact(vec![m(0, 0.9), m(2, 0.6)]);
        let b = best_effort(vec![m(1, 0.3)], 1.0);
        let (merged, cut) = merge_shard_results(2, &[1.0, 0.4], vec![a, b]);
        assert_eq!(cut, 1);
        assert!(merged.completeness.is_exact());
        let ids: Vec<u32> = merged.matches.iter().map(|x| x.id.0).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn merge_widens_gap_for_included_best_effort_shards() {
        // shard 1's bound (0.8) exceeds the exact threshold (0.6): its
        // partials merge and the certificate widens to cover what it may
        // have missed (its own worst 0.3 + gap 0.2 = 0.5 ≤ new kth 0.6 →
        // actually certified exact); raise its gap so it genuinely widens
        let a = exact(vec![m(0, 0.9), m(2, 0.6)]);
        let b = best_effort(vec![m(1, 0.3)], 0.45);
        let (merged, cut) = merge_shard_results(2, &[1.0, 0.8], vec![a, b]);
        assert_eq!(cut, 0);
        // certified = 0.3 + 0.45 = 0.75; kth = 0.6 → gap 0.15
        match merged.completeness {
            Completeness::BestEffort { bound_gap } => {
                assert!((bound_gap - 0.15).abs() < 1e-12, "{bound_gap}")
            }
            Completeness::Exact => panic!("gap must widen"),
        }
        // a best-effort shard whose certificate sits below the global kth
        // collapses back to Exact
        let a = exact(vec![m(0, 0.9), m(2, 0.6)]);
        let b = best_effort(vec![m(1, 0.3)], 0.2);
        let (merged, _) = merge_shard_results(2, &[1.0, 0.8], vec![a, b]);
        assert!(merged.completeness.is_exact());
    }

    #[test]
    fn threshold_pushback_cancels_irrelevant_shards_safely() {
        // one shard holds the only trajectories with keyword 6; a pure
        // textual query (λ = 0) bounds every other shard at 0. Whatever
        // the race outcome — cancelled mid-run or finished exact — the
        // answer must equal the unsharded oracle and stay Exact.
        let net = Arc::new(grid_city(&GridCityConfig::tiny(8)).unwrap());
        let mut store = TrajectoryStore::new();
        for i in 0..64u32 {
            let kw = if i % 4 == 0 { 6 } else { 1 };
            store.push(traj(&[i % 60, (i + 3) % 60], &[kw]));
        }
        let vidx = store.build_vertex_index(net.num_nodes());
        let kidx = store.build_keyword_index(8);
        let kw = store.build_keyword_blocks(8);
        let db = crate::Database::new(&net, &store, &vidx, &kw).with_keyword_index(&kidx);
        let q = UotsQuery::with_options(
            vec![NodeId(0)],
            KeywordSet::from_ids([KeywordId(6)]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.0).unwrap(),
                k: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let reference = BruteForce.run(&db, &q).unwrap();
        let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 4, Partitioner::Hash);
        for _ in 0..8 {
            let answer = cluster.snapshot().search(&BruteForce, &q).unwrap();
            assert!(answer.result.completeness.is_exact());
            assert_eq!(answer.result.ids(), reference.ids());
        }
    }

    #[test]
    fn cluster_ingest_retire_publish_tracks_unsharded_manager() {
        let (net, store) = fixture(24);
        let unsharded = EpochManager::new(Arc::clone(&net), store.clone(), 8);
        let cluster = ShardedCluster::new(Arc::clone(&net), &store, 8, 4, Partitioner::Hash);
        for i in 0..6u32 {
            let t = traj(&[i + 2, i + 9], &[2]);
            let a = unsharded.ingest(t.clone());
            let b = cluster.ingest(t);
            assert_eq!(a, b, "global ids stay in lockstep");
        }
        unsharded.retire(TrajectoryId(3));
        cluster.retire(TrajectoryId(3));
        let snap = unsharded.publish();
        let cut = cluster.publish_all();
        assert_eq!(cut.num_live(), snap.stats().live);
        let q = UotsQuery::with_options(
            vec![NodeId(4), NodeId(11)],
            KeywordSet::from_ids([KeywordId(2)]),
            vec![],
            QueryOptions {
                weights: Weights::lambda(0.5).unwrap(),
                k: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let reference = BruteForce.run(&snap.database(), &q).unwrap();
        let answer = cut.search(&Planner::new(), &q).unwrap();
        assert_eq!(answer.result.ids(), reference.ids());
        for (a, b) in answer.result.matches.iter().zip(reference.matches.iter()) {
            assert_eq!(a.similarity.to_bits(), b.similarity.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let (net, store) = fixture(4);
        ShardedCluster::new(net, &store, 8, 0, Partitioner::Hash);
    }
}
