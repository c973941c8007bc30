//! Parallel batch query execution, hardened for production use.
//!
//! UOTS trajectory searches are independent of each other — the property the
//! paper exploits for parallelism ("the search processes of different
//! trajectories are independent, enabling parallel processing", with a merge
//! cost uncorrelated to the thread count; in the *search* setting there is
//! nothing to merge at all). This module fans a batch of queries over a
//! rayon thread pool and preserves input order in the output.
//!
//! Every batch runs through one executor, [`execute`], which takes a
//! per-query runner: an algorithm over one [`Database`]
//! ([`run_batch_ctx`], [`run_batch_observed_ctx`], [`run_batch`]) or a
//! scatter-gather over a cluster cut (the query service). Whatever the
//! runner, the executor provides:
//!
//! - **Panic isolation** — a query whose runner panics is reported as
//!   [`CoreError::QueryPanicked`] for that slot; the other queries in the
//!   batch still complete (under [`BatchPolicy::Partial`]).
//! - **Batch deadlines** — [`BatchOptions::deadline`] folds a per-batch
//!   wall-clock limit into each query's [`RunControl`], so in-flight
//!   queries cancel cooperatively and return certified best-effort results
//!   instead of running away.
//! - **Bounded admission** — [`BatchOptions::max_batch`] rejects oversized
//!   batches up front with [`CoreError::Overloaded`] rather than queueing
//!   unbounded work.

use crate::algorithms::Algorithm;
use crate::budget::{CancellationToken, RunControl};
use crate::distcache::SearchContext;
use crate::{CoreError, Database, QueryResult, UotsQuery};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use uots_obs::{Counter, Gauge, Histogram, MetricsRegistry, Recorder, TailSampler};

/// How a batch reacts to a failing query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// The first error (by input order) fails the whole batch.
    #[default]
    FailFast,
    /// Every query gets a slot; failures are reported per slot and do not
    /// affect their neighbours.
    Partial,
}

/// Knobs for [`execute`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchOptions {
    /// Failure handling across the batch.
    pub policy: BatchPolicy,
    /// Wall-clock limit for the whole batch; queries still in flight when
    /// it expires are cancelled cooperatively and return best-effort
    /// results (they do **not** error).
    pub deadline: Option<Duration>,
    /// Admission bound: batches larger than this are rejected with
    /// [`CoreError::Overloaded`] before any work starts.
    pub max_batch: Option<usize>,
    /// Worker threads (0 and 1 both mean sequential-through-the-pool).
    pub threads: usize,
}

impl BatchOptions {
    /// Fail-fast execution on `threads` workers, no deadline, no admission
    /// bound — the behaviour of the plain [`run_batch`].
    pub fn fail_fast(threads: usize) -> Self {
        BatchOptions {
            policy: BatchPolicy::FailFast,
            threads,
            ..Default::default()
        }
    }

    /// Partial execution on `threads` workers.
    pub fn partial(threads: usize) -> Self {
        BatchOptions {
            policy: BatchPolicy::Partial,
            threads,
            ..Default::default()
        }
    }
}

/// Telemetry hooks for batch execution, backed by a shared
/// [`MetricsRegistry`].
///
/// Construct one per registry and pass it to [`run_batch_observed_ctx`] (or
/// [`execute`]). The observer registers:
///
/// - `uots_batch_pending_queries` (gauge) — admitted queries a worker has
///   not picked up yet (the queue depth);
/// - `uots_batch_inflight_queries` (gauge) — queries currently executing;
/// - `uots_batch_queries_total{outcome=…}` (counters) — finished queries by
///   outcome (`completed`, `interrupted`, `failed`, `panicked`);
/// - `uots_batch_rejected_total` (counter) — batches refused by the
///   admission bound before any work started;
/// - `uots_query_latency_us` (histogram) — per-query wall-clock latency;
/// - `uots_query_phase_duration_ns{phase=…}` (histograms) — per-phase time,
///   recorded from the per-query [`Recorder`] the observed runner enables.
///
/// All handles are atomics/mutexes shared with the registry, so gauges stay
/// correct even when queries panic (the panicking worker is isolated and
/// its in-flight decrement still runs in the caller).
pub struct BatchObserver {
    registry: MetricsRegistry,
    pending: Gauge,
    inflight: Gauge,
    completed: Counter,
    interrupted: Counter,
    failed: Counter,
    panicked: Counter,
    rejected: Counter,
    latency_us: Histogram,
    sampler: Option<TailSampler>,
}

impl BatchObserver {
    /// Registers the batch metric families in `registry` (idempotent: a
    /// second observer on the same registry shares the same underlying
    /// metrics).
    pub fn new(registry: &MetricsRegistry) -> Self {
        let outcome = |o: &str| {
            registry.counter_with(
                "uots_batch_queries_total",
                "Finished batch queries by outcome",
                &[("outcome", o)],
            )
        };
        BatchObserver {
            registry: registry.clone(),
            pending: registry.gauge(
                "uots_batch_pending_queries",
                "Admitted queries not yet picked up by a worker",
            ),
            inflight: registry.gauge("uots_batch_inflight_queries", "Queries currently executing"),
            completed: outcome("completed"),
            interrupted: outcome("interrupted"),
            failed: outcome("failed"),
            panicked: outcome("panicked"),
            rejected: registry.counter(
                "uots_batch_rejected_total",
                "Batches refused by the admission bound",
            ),
            latency_us: registry.histogram(
                "uots_query_latency_us",
                "Per-query wall-clock latency in microseconds",
            ),
            sampler: None,
        }
    }

    /// Attaches a [`TailSampler`]: every observed query feeds its latency
    /// and outcome into the sampler, and — when the sampler was built with
    /// tracing ([`TailSampler::with_tracing`]) — runs under a tracing
    /// recorder so slow/best-effort/errored queries keep full
    /// [`QueryTrace`](uots_obs::QueryTrace) exemplars.
    pub fn with_sampler(mut self, sampler: TailSampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// The attached tail sampler, if any.
    pub fn sampler(&self) -> Option<&TailSampler> {
        self.sampler.as_ref()
    }

    /// The registry this observer records into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    fn on_admitted(&self, n: usize) {
        self.pending.add(i64::try_from(n).unwrap_or(i64::MAX));
    }

    fn on_start(&self) {
        self.pending.dec();
        self.inflight.inc();
    }

    fn on_finish(&self, result: &Result<QueryResult, CoreError>, elapsed: Duration) {
        self.inflight.dec();
        self.latency_us
            .record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
        match result {
            Ok(r) => {
                if r.completeness.is_exact() {
                    self.completed.inc();
                } else {
                    self.interrupted.inc();
                }
                self.registry.observe_phases(
                    "uots_query_phase_duration_ns",
                    "Per-query time attributed to each search phase (ns)",
                    &r.metrics.phases,
                );
            }
            Err(CoreError::QueryPanicked(_)) => self.panicked.inc(),
            Err(_) => self.failed.inc(),
        }
    }
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one query through `run`, isolating a panic into
/// [`CoreError::QueryPanicked`] and optionally reporting to an observer.
/// Observed queries run under a phases-only [`Recorder`] labelled `label`,
/// so their `metrics.phases` breakdown is populated; unobserved queries
/// keep the zero-cost disabled recorder. When the observer carries a
/// tracing [`TailSampler`], queries run under a tracing recorder instead
/// and the finished trace is offered to the sampler (kept only for
/// slow/best-effort/errored queries).
fn run_one<F>(
    query: &UotsQuery,
    ctl: &RunControl,
    obs: Option<&BatchObserver>,
    label: &str,
    run: &F,
) -> Result<QueryResult, CoreError>
where
    F: Fn(&UotsQuery, &RunControl, &mut Recorder) -> Result<QueryResult, CoreError>,
{
    let Some(obs) = obs else {
        return catch_unwind(AssertUnwindSafe(|| {
            run(query, ctl, &mut Recorder::disabled())
        }))
        .unwrap_or_else(|payload| Err(CoreError::QueryPanicked(panic_message(payload))));
    };
    let trace_spans = obs.sampler.as_ref().and_then(|s| s.trace_spans());
    obs.on_start();
    let start = Instant::now();
    let (result, trace) = catch_unwind(AssertUnwindSafe(|| {
        let mut rec = match trace_spans {
            Some(cap) => Recorder::tracing(label, cap),
            None => Recorder::phases_only(label),
        };
        let result = run(query, ctl, &mut rec);
        let trace = rec.finish().and_then(|report| report.trace);
        (result, trace)
    }))
    .unwrap_or_else(|payload| (Err(CoreError::QueryPanicked(panic_message(payload))), None));
    let elapsed = start.elapsed();
    obs.on_finish(&result, elapsed);
    if let Some(sampler) = &obs.sampler {
        let latency_us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let (best_effort, errored) = match &result {
            Ok(r) => (!r.completeness.is_exact(), false),
            Err(_) => (false, true),
        };
        sampler.observe(&query.summary(), latency_us, best_effort, errored, trace);
    }
    result
}

/// The batch executor: runs every query of `queries` through `run` on a
/// pool of [`BatchOptions::threads`] workers, under the batch options and
/// a shared cancellation token, and returns per-query outcomes in input
/// order. `run` answers one query under the [`RunControl`] it is handed
/// (the token plus the batch deadline, if any) and attributes phase time
/// to the [`Recorder`] (`label` names the recorder of observed runs).
///
/// Cancelling `token` mid-batch makes in-flight and not-yet-started queries
/// return empty best-effort results.
///
/// # Errors
///
/// Batch-level errors (the outer `Result`): pool construction failure,
/// [`CoreError::Overloaded`] from the admission bound, and — under
/// [`BatchPolicy::FailFast`] — the first per-query error by input order.
/// Under [`BatchPolicy::Partial`], per-query errors (including
/// [`CoreError::QueryPanicked`]) stay in their slot of the inner `Vec`.
pub fn execute<F>(
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    obs: Option<&BatchObserver>,
    label: &str,
    run: F,
) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError>
where
    F: Fn(&UotsQuery, &RunControl, &mut Recorder) -> Result<QueryResult, CoreError> + Sync,
{
    if let Some(cap) = opts.max_batch {
        if queries.len() > cap {
            if let Some(o) = obs {
                o.rejected.inc();
            }
            return Err(CoreError::Overloaded {
                submitted: queries.len(),
                capacity: cap,
            });
        }
    }
    if let Some(o) = obs {
        o.on_admitted(queries.len());
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(opts.threads.max(1))
        .build()
        .map_err(|e| CoreError::BadParameter(format!("thread pool: {e}")))?;
    let mut ctl = RunControl::with_token(token.clone());
    if let Some(d) = opts.deadline {
        ctl = ctl.with_deadline(Instant::now() + d);
    }
    let results: Vec<Result<QueryResult, CoreError>> = pool.install(|| {
        queries
            .par_iter()
            .map(|q| run_one(q, &ctl, obs, label, &run))
            .collect()
    });
    if opts.policy == BatchPolicy::FailFast {
        if let Some(err) = results.iter().find_map(|r| r.as_ref().err()) {
            return Err(err.clone());
        }
    }
    Ok(results)
}

/// [`execute`] with `algorithm` over `db` under a shared [`SearchContext`]:
/// every query in the batch probes and feeds the *same* distance cache, so
/// one query's settled frontiers become the next query's replayed prefix.
/// Results are identical to the uncached batch (the cache trades work,
/// never answers); only the per-query metrics and wall-clock change.
///
/// # Errors
///
/// See [`execute`].
pub fn run_batch_ctx<A: Algorithm + Sync>(
    db: &Database<'_>,
    algorithm: &A,
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    ctx: &SearchContext,
) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
    execute(
        queries,
        opts,
        token,
        None,
        algorithm.name(),
        |q, ctl, rec| algorithm.run_ctx(db, q, ctl, rec, ctx),
    )
}

/// [`run_batch_ctx`] reporting queue depth, in-flight count, per-outcome
/// counters, latency, and per-phase durations to `obs`. Error semantics are
/// identical; the observer keeps counting even when the batch as a whole
/// fails (fail-fast) or is rejected by admission — that is the point of it.
/// Bind the context's cache to the same registry (via
/// [`crate::DistanceCache::with_metrics`]) to export hit/miss counters
/// alongside the batch gauges.
///
/// # Errors
///
/// See [`execute`].
pub fn run_batch_observed_ctx<A: Algorithm + Sync>(
    db: &Database<'_>,
    algorithm: &A,
    queries: &[UotsQuery],
    opts: &BatchOptions,
    token: &CancellationToken,
    obs: &BatchObserver,
    ctx: &SearchContext,
) -> Result<Vec<Result<QueryResult, CoreError>>, CoreError> {
    execute(
        queries,
        opts,
        token,
        Some(obs),
        algorithm.name(),
        |q, ctl, rec| algorithm.run_ctx(db, q, ctl, rec, ctx),
    )
}

/// Runs `queries` over `db` with `algorithm` on a dedicated pool of
/// `threads` workers, returning per-query results in input order.
///
/// `threads = 1` degenerates to sequential execution (still through the
/// pool, so scheduling overhead is measured honestly in the thread-scaling
/// experiment).
///
/// # Errors
///
/// Returns the first query error encountered (by input order) — including
/// [`CoreError::QueryPanicked`] if a worker panics. Pool construction
/// failures are reported as [`CoreError::BadParameter`].
pub fn run_batch<A: Algorithm + Sync>(
    db: &Database<'_>,
    algorithm: &A,
    queries: &[UotsQuery],
    threads: usize,
) -> Result<Vec<QueryResult>, CoreError> {
    run_batch_ctx(
        db,
        algorithm,
        queries,
        &BatchOptions::fail_fast(threads),
        &CancellationToken::new(),
        &SearchContext::default(),
    )?
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Expansion;
    use crate::testing::{FaultyAlgorithm, SlowAlgorithm};
    use crate::SearchMetrics;
    use uots_datagen::{workload, Dataset, DatasetConfig};

    fn setup() -> (Dataset, Vec<UotsQuery>) {
        let ds = Dataset::build(&DatasetConfig::small(80, 31)).unwrap();
        let specs = workload::generate(
            &ds,
            &workload::WorkloadConfig {
                num_queries: 12,
                ..Default::default()
            },
        );
        let queries = specs
            .into_iter()
            .map(|s| UotsQuery::new(s.locations, s.keywords).unwrap())
            .collect();
        (ds, queries)
    }

    #[test]
    fn parallel_results_match_sequential() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
            .with_keyword_index(&ds.keyword_index);
        let algo = Expansion::default();
        let seq = run_batch(&db, &algo, &queries, 1).unwrap();
        let par = run_batch(&db, &algo, &queries, 4).unwrap();
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.ids(), b.ids());
            assert_eq!(
                a.metrics.visited_trajectories,
                b.metrics.visited_trajectories
            );
        }
    }

    #[test]
    fn aggregation_sums_per_query_metrics() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks);
        let algo = Expansion::default();
        let results = run_batch(&db, &algo, &queries, 2).unwrap();
        let agg = SearchMetrics::aggregate(results.iter().map(|r| &r.metrics));
        assert_eq!(agg.queries, queries.len());
        let manual: usize = results.iter().map(|r| r.metrics.visited_trajectories).sum();
        assert_eq!(agg.visited_trajectories, manual);
    }

    #[test]
    fn errors_propagate() {
        let (ds, _) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks);
        let bad = UotsQuery::new(
            vec![uots_network::NodeId(1_000_000)],
            uots_text::KeywordSet::empty(),
        )
        .unwrap();
        let err = run_batch(&db, &Expansion::default(), &[bad], 2);
        assert!(err.is_err());
    }

    #[test]
    fn partial_policy_isolates_a_panicking_query() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks);
        let algo = FaultyAlgorithm::new(Expansion::default(), 0, "injected fault");
        let out = run_batch_ctx(
            &db,
            &algo,
            &queries,
            &BatchOptions::partial(1),
            &CancellationToken::new(),
            &SearchContext::default(),
        )
        .unwrap();
        assert_eq!(out.len(), queries.len());
        // threads=1 makes call order deterministic: exactly slot 0 panicked
        assert!(matches!(out[0], Err(CoreError::QueryPanicked(_))));
        for (i, r) in out.iter().enumerate().skip(1) {
            assert!(r.is_ok(), "slot {i} must survive the panic in slot 0");
        }
    }

    #[test]
    fn fail_fast_policy_surfaces_the_panic_as_an_error() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks);
        let algo = FaultyAlgorithm::new(Expansion::default(), 0, "injected fault");
        let err = run_batch_ctx(
            &db,
            &algo,
            &queries,
            &BatchOptions::fail_fast(1),
            &CancellationToken::new(),
            &SearchContext::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::QueryPanicked(ref m) if m.contains("injected")));
    }

    #[test]
    fn admission_bound_rejects_oversized_batches() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks);
        let opts = BatchOptions {
            max_batch: Some(4),
            ..BatchOptions::partial(2)
        };
        let err = run_batch_ctx(
            &db,
            &Expansion::default(),
            &queries,
            &opts,
            &CancellationToken::new(),
            &SearchContext::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            CoreError::Overloaded {
                submitted: 12,
                capacity: 4
            }
        ));
    }

    #[test]
    fn batch_deadline_cancels_in_flight_queries() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks);
        let algo = SlowAlgorithm::new(Expansion::default(), Duration::from_secs(3600));
        let opts = BatchOptions {
            deadline: Some(Duration::from_millis(20)),
            ..BatchOptions::partial(2)
        };
        let out = run_batch_ctx(
            &db,
            &algo,
            &queries,
            &opts,
            &CancellationToken::new(),
            &SearchContext::default(),
        )
        .unwrap();
        assert_eq!(out.len(), queries.len());
        for r in &out {
            let r = r.as_ref().unwrap();
            assert!(!r.completeness.is_exact(), "deadline must interrupt");
        }
    }

    #[test]
    fn observer_isolates_a_panic_and_drains_its_gauges() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks);
        let registry = uots_obs::MetricsRegistry::default();
        let obs = BatchObserver::new(&registry);
        let algo = FaultyAlgorithm::new(Expansion::default(), 0, "injected fault");
        let out = run_batch_observed_ctx(
            &db,
            &algo,
            &queries,
            &BatchOptions::partial(1),
            &CancellationToken::new(),
            &obs,
            &SearchContext::default(),
        )
        .unwrap();
        assert_eq!(out.len(), queries.len());
        let snap = registry.snapshot();
        let outcome = |o| snap.counter("uots_batch_queries_total", &[("outcome", o)]);
        assert_eq!(outcome("panicked"), Some(1));
        assert_eq!(outcome("completed"), Some(queries.len() as u64 - 1));
        // both gauges must return to zero: the panicking slot's in-flight
        // decrement runs in the caller, outside the unwound closure
        assert_eq!(snap.gauge("uots_batch_pending_queries", &[]), Some(0));
        assert_eq!(snap.gauge("uots_batch_inflight_queries", &[]), Some(0));
        // every query (panicked included) got a latency observation
        let latency = snap.histogram("uots_query_latency_us", &[]).unwrap();
        assert_eq!(latency.count, queries.len() as u64);
    }

    #[test]
    fn phase_durations_survive_batch_execution_and_reach_the_registry() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
            .with_keyword_index(&ds.keyword_index);
        let registry = uots_obs::MetricsRegistry::default();
        let obs = BatchObserver::new(&registry);
        let out = run_batch_observed_ctx(
            &db,
            &Expansion::default(),
            &queries,
            &BatchOptions::partial(3),
            &CancellationToken::new(),
            &obs,
            &SearchContext::default(),
        )
        .unwrap();
        // every per-query result carries its phase breakdown through the
        // parallel executor, and the aggregate keeps it additive
        let results: Vec<QueryResult> = out.into_iter().map(Result::unwrap).collect();
        for r in &results {
            assert!(
                !r.metrics.phases.is_zero(),
                "observed batch runs must record phases"
            );
        }
        let agg = SearchMetrics::aggregate(results.iter().map(|r| &r.metrics));
        assert!(agg.phases.total() >= results[0].metrics.phases.total());
        // and the registry collected a per-phase histogram family
        let snap = registry.snapshot();
        let network = snap
            .histogram(
                "uots_query_phase_duration_ns",
                &[("phase", "network_expansion")],
            )
            .expect("expansion queries spend time in network_expansion");
        assert_eq!(network.count, queries.len() as u64);
    }

    #[test]
    fn observer_keeps_counting_under_fail_fast_and_admission_rejection() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks);
        let registry = uots_obs::MetricsRegistry::default();
        let obs = BatchObserver::new(&registry);
        let algo = FaultyAlgorithm::new(Expansion::default(), 0, "boom");
        let err = run_batch_observed_ctx(
            &db,
            &algo,
            &queries,
            &BatchOptions::fail_fast(1),
            &CancellationToken::new(),
            &obs,
            &SearchContext::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::QueryPanicked(_)));
        // the batch failed as a whole, but the telemetry of what actually
        // ran must not be lost with it
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("uots_batch_queries_total", &[("outcome", "panicked")]),
            Some(1)
        );
        assert_eq!(snap.gauge("uots_batch_inflight_queries", &[]), Some(0));

        let opts = BatchOptions {
            max_batch: Some(2),
            ..BatchOptions::partial(1)
        };
        let err = run_batch_observed_ctx(
            &db,
            &Expansion::default(),
            &queries,
            &opts,
            &CancellationToken::new(),
            &obs,
            &SearchContext::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::Overloaded { .. }));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("uots_batch_rejected_total", &[]), Some(1));
        // a rejected batch never touches the queue-depth gauge
        assert_eq!(snap.gauge("uots_batch_pending_queries", &[]), Some(0));
    }

    #[test]
    fn interrupted_counts_survive_deadline_under_both_policies() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks);
        let algo = SlowAlgorithm::new(Expansion::default(), Duration::from_secs(3600));
        for opts in [
            BatchOptions {
                deadline: Some(Duration::from_millis(20)),
                ..BatchOptions::partial(2)
            },
            BatchOptions {
                deadline: Some(Duration::from_millis(20)),
                ..BatchOptions::fail_fast(2)
            },
        ] {
            let registry = uots_obs::MetricsRegistry::default();
            let obs = BatchObserver::new(&registry);
            let out = run_batch_observed_ctx(
                &db,
                &algo,
                &queries,
                &opts,
                &CancellationToken::new(),
                &obs,
                &SearchContext::default(),
            )
            .unwrap();
            let results: Vec<QueryResult> = out.into_iter().map(Result::unwrap).collect();
            let agg = SearchMetrics::aggregate(results.iter().map(|r| &r.metrics));
            // a deadline is an interruption, not an error: FailFast has
            // nothing to fail on, and each slot's metrics record it
            assert_eq!(agg.interrupted, queries.len(), "{opts:?}");
            assert_eq!(
                registry
                    .snapshot()
                    .counter("uots_batch_queries_total", &[("outcome", "interrupted")]),
                Some(queries.len() as u64),
                "{opts:?}"
            );
        }
    }

    #[test]
    fn shared_cache_batches_return_identical_results() {
        use crate::distcache::DistanceCache;
        use std::sync::Arc;
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
            .with_keyword_index(&ds.keyword_index);
        let algo = Expansion::default();
        let baseline = run_batch(&db, &algo, &queries, 2).unwrap();
        for threads in [1, 4] {
            let cache = Arc::new(DistanceCache::new(1 << 16));
            let ctx = SearchContext::with_cache(Arc::clone(&cache));
            let cached = run_batch_ctx(
                &db,
                &algo,
                &queries,
                &BatchOptions::fail_fast(threads),
                &CancellationToken::new(),
                &ctx,
            )
            .unwrap();
            for (a, b) in baseline.iter().zip(cached.iter()) {
                let b = b.as_ref().unwrap();
                assert_eq!(a.ids(), b.ids(), "threads = {threads}");
                for (ma, mb) in a.matches.iter().zip(b.matches.iter()) {
                    assert_eq!(ma.similarity.to_bits(), mb.similarity.to_bits());
                }
            }
            let stats = cache.stats();
            assert!(stats.inserts > 0, "the batch must warm the cache");
        }
    }

    #[test]
    fn shared_token_cancels_the_whole_batch() {
        let (ds, queries) = setup();
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks);
        let token = CancellationToken::new();
        token.cancel();
        let out = run_batch_ctx(
            &db,
            &Expansion::default(),
            &queries,
            &BatchOptions::partial(2),
            &token,
            &SearchContext::default(),
        )
        .unwrap();
        for r in &out {
            let r = r.as_ref().unwrap();
            assert!(!r.completeness.is_exact());
            assert!(r.matches.is_empty());
        }
    }
    #[test]
    fn a_panicking_shard_is_isolated_to_its_slot_of_a_cluster_batch() {
        use crate::shard::{Partitioner, ShardedCluster};
        let (ds, queries) = setup();
        let cluster = ShardedCluster::new(
            std::sync::Arc::new(ds.network.clone()),
            &ds.store,
            ds.vocab.len(),
            2,
            Partitioner::Hash,
        );
        let cut = cluster.snapshot();
        // threads = 1 runs the queries in order: call 0 is one of query
        // 0's two shard runs
        let algo = FaultyAlgorithm::new(Expansion::default(), 0, "injected shard fault");
        let ctx = SearchContext::default();
        let out = execute(
            &queries,
            &BatchOptions::partial(1),
            &CancellationToken::new(),
            None,
            algo.name(),
            |q, ctl, _| cut.search_ctx(&algo, q, ctl, &ctx).map(|a| a.result),
        )
        .unwrap();
        assert_eq!(out.len(), queries.len());
        assert!(
            matches!(out[0], Err(CoreError::QueryPanicked(ref m)) if m.contains("injected")),
            "{:?}",
            out[0]
        );
        for (i, r) in out.iter().enumerate().skip(1) {
            let want = cut.search(&Expansion::default(), &queries[i]).unwrap();
            assert_eq!(r.as_ref().unwrap().ids(), want.result.ids(), "slot {i}");
        }
    }
}
