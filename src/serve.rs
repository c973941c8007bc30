//! The UOTS query service: an HTTP front-end over epoch-pinned snapshots.
//!
//! [`QueryService`] layers four POST endpoints on the dependency-free
//! HTTP plumbing of [`uots_obs::serve`] (same wire format, same
//! `Connection: close` discipline) and reuses the whole observability
//! surface (`/metrics`, `/status`, `/journal`, `/traces`) verbatim via
//! [`uots_obs::dispatch_obs`]:
//!
//! | Endpoint | Body | Answer |
//! |---|---|---|
//! | `POST /search`  | `{queries: [...], tenant?, algorithm?}` | per-query results, epoch-pinned |
//! | `POST /topk`    | one query object | single result |
//! | `POST /join`    | `{theta?, lambda?, ...}` | similarity self-join pairs |
//! | `POST /ingest`  | `{insert: [...], retire: [...], publish?}` | new epoch |
//! | `POST /admin/shutdown` | — | drains workers, frees the port |
//!
//! ## Query shape
//!
//! A query is a JSON object `{"locations": [node ids], "keywords":
//! [keyword ids], "times": [seconds], "lambda": 0.5, "k": 1, "decay_km":
//! 1.0, "decay_s": 1800.0}` — everything but `locations` optional. Bodies
//! are parsed into the vendored serde [`Content`] tree and validated
//! through [`UotsQuery::with_options`], so the service enforces exactly
//! the engine's invariants (dedup, `MAX_LOCATIONS`, λ range, temporal
//! consistency) and malformed requests answer `400` with the engine's
//! own error text.
//!
//! ## One store, pinned per request
//!
//! The service answers from one [`ShardedCluster`]-shaped store: volatile
//! ([`QueryService::start`], [`QueryService::start_sharded`]) or durable
//! ([`QueryService::start_sharded_durable`]). An unsharded store is a
//! 1-shard cluster; its cut runs inline and is bit-identical to the
//! engine on the shard's snapshot. Writers (`/ingest`) serialize on one
//! mutex and, after each publish, replace the published
//! [`ClusterSnapshot`] while still holding it. Every other request pins
//! that cut (one `RwLock` read and an `Arc` clone, never the writer's
//! mutex) and answers against it, so results are attributable to a
//! single `epoch` even while `/ingest` keeps publishing.
//!
//! Every `/search` batch runs through the one batch executor,
//! [`parallel::execute`], with a scatter-gather over the pinned cut as
//! its per-query runner: admission, panic isolation and
//! [`ServiceConfig::batch_threads`] apply at every shard count. Responses
//! from cuts of 2 or more shards also carry the per-shard `epochs`, the
//! coordinator's `shards_cut` and per-shard plans.
//!
//! ## Overload: degrade, then shed — never hang
//!
//! Two nested admission rings, both sized in *queries* (not requests):
//!
//! 1. **Per-tenant soft ring** (`tenant_inflight`): a tenant exceeding
//!    its inflight allowance keeps getting answers, but its queries run
//!    under the degraded [`ExecutionBudget`] — the engine returns the
//!    current top-k tagged [`Completeness::BestEffort`] with a certified
//!    `bound_gap`. HTTP 200, `"degraded": true`.
//! 2. **Global hard ring** (`max_inflight`): beyond it the request is
//!    shed immediately with `429 Too Many Requests` and a JSON body
//!    naming both numbers. The server never queues unboundedly and never
//!    answers 5xx under load.
//!
//! The same rings govern `/join` (probe-level budget, subset-certified)
//! and oversized bodies are cut off at [`MAX_BODY_BYTES`] with `413`.
//!
//! ## Planning
//!
//! Each batch is executed by [`Planner`] — the adaptive per-query
//! algorithm dispatch of [`uots_core::planner`] — unless the operator
//! forced an algorithm (`--force-algorithm`, [`ServiceConfig::force`])
//! or the request asked for one (`"algorithm": "expansion"`; the
//! operator's force wins). The response's `planned` array reports the
//! decision and reason per query, recomputed against the pinned
//! cut, so clients can see *why* an algorithm ran.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

use serde::{Content, Serialize};
use uots_core::algorithms::Algorithm;
use uots_core::parallel::{self, BatchOptions, BatchPolicy};
use uots_core::planner::{AlgorithmKind, Planner};
use uots_core::shard::{ClusterSnapshot, ShardedCluster};
use uots_core::{
    CancellationToken, Completeness, CoreError, Database, EpochManager, ExecutionBudget,
    QueryOptions, RunControl, SearchContext, UotsQuery, Weights,
};
use uots_join::{ts_join_with, JoinConfig, JoinError, JoinResult};
use uots_network::{NodeId, RoadNetwork};
use uots_obs::{
    dispatch_obs, read_request, respond, Counter, Histogram, HttpRequest, MetricsRegistry, ObsState,
};
use uots_text::{KeywordId, KeywordSet};
use uots_trajectory::{Trajectory, TrajectoryId, TrajectoryStore};

use crate::cluster::ShardedDurable;

/// How the service admits, degrades and sheds work.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// HTTP worker threads (each owns a cloned listener handle).
    pub http_threads: usize,
    /// Rayon threads per search batch.
    pub batch_threads: usize,
    /// Admission bound: requests carrying more queries than this are
    /// rejected by the batch executor with `429`.
    pub max_batch: usize,
    /// Global hard ring: total queries in flight before shedding.
    pub max_inflight: usize,
    /// Per-tenant soft ring: queries in flight per tenant before the
    /// degraded budget kicks in.
    pub tenant_inflight: usize,
    /// The budget applied to degraded queries (tightened axis-wise
    /// against whatever the query asked for).
    pub degraded_budget: ExecutionBudget,
    /// Operator-forced algorithm (`--force-algorithm`); overrides both
    /// the planner and any per-request `"algorithm"` field.
    pub force: Option<AlgorithmKind>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            http_threads: 4,
            batch_threads: 0,
            max_batch: 1024,
            max_inflight: 4096,
            tenant_inflight: 64,
            degraded_budget: ExecutionBudget::default()
                .with_deadline_ms(50)
                .with_max_visited(512)
                .with_max_settled(20_000),
            force: None,
        }
    }
}

/// Service metric handles (all registered on the shared registry, so
/// `/metrics` exports them alongside the engine's).
struct ServiceMetrics {
    requests: Counter,
    errors: Counter,
    shed: Counter,
    degraded: Counter,
    latency_us: Histogram,
}

impl ServiceMetrics {
    fn new(registry: &MetricsRegistry) -> ServiceMetrics {
        ServiceMetrics {
            requests: registry.counter("uots_serve_requests_total", "HTTP requests accepted"),
            errors: registry.counter("uots_serve_errors_total", "Requests answered 4xx"),
            shed: registry.counter(
                "uots_serve_shed_total",
                "Requests shed by the global inflight ring (429)",
            ),
            degraded: registry.counter(
                "uots_serve_degraded_total",
                "Requests degraded to a best-effort budget by the tenant ring",
            ),
            latency_us: registry.histogram(
                "uots_serve_request_microseconds",
                "End-to-end request service time",
            ),
        }
    }
}

/// The writer side of the store: a volatile cluster, or a durable one
/// whose mutations reach each shard's WAL before they apply. Only
/// `/ingest` touches it, under [`Shared::writer`].
enum Backend {
    Volatile(Arc<ShardedCluster>),
    Durable(Box<ShardedDurable>),
}

/// Shared state behind every worker thread.
struct Shared {
    writer: Mutex<Backend>,
    /// The last published cut; `/ingest` replaces it after each publish
    /// while it holds `writer`.
    published: RwLock<Arc<ClusterSnapshot>>,
    cfg: ServiceConfig,
    obs: ObsState,
    metrics: ServiceMetrics,
    ctx: SearchContext,
    inflight: AtomicUsize,
    tenants: Mutex<HashMap<String, Arc<AtomicUsize>>>,
    stop: Arc<AtomicBool>,
}

impl Shared {
    /// The cut every read of one request answers against.
    fn pin(&self) -> Arc<ClusterSnapshot> {
        Arc::clone(&self.published.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Reserves `n` query slots. `Err(())` means the global hard ring is
    /// full and the request must be shed; `Ok((guard, degraded))` carries
    /// whether the tenant crossed its soft ring.
    fn admit(self: &Arc<Self>, tenant: &str, n: usize) -> Result<(AdmissionGuard, bool), ()> {
        let prev = self.inflight.fetch_add(n, Ordering::SeqCst);
        if prev + n > self.cfg.max_inflight {
            self.inflight.fetch_sub(n, Ordering::SeqCst);
            return Err(());
        }
        let counter = {
            let mut map = self.tenants.lock().expect("tenant map poisoned");
            Arc::clone(map.entry(tenant.to_string()).or_default())
        };
        let tprev = counter.fetch_add(n, Ordering::SeqCst);
        let degraded = tprev + n > self.cfg.tenant_inflight;
        Ok((
            AdmissionGuard {
                shared: Arc::clone(self),
                tenant: counter,
                n,
            },
            degraded,
        ))
    }
}

struct AdmissionGuard {
    shared: Arc<Shared>,
    tenant: Arc<AtomicUsize>,
    n: usize,
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        self.shared.inflight.fetch_sub(self.n, Ordering::SeqCst);
        self.tenant.fetch_sub(self.n, Ordering::SeqCst);
    }
}

/// A running query service. Dropping it (or calling
/// [`shutdown`](Self::shutdown)) stops every worker and releases the
/// port.
pub struct QueryService {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handles: Vec<thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl QueryService {
    /// Starts the service over a live [`EpochManager`], served as a
    /// 1-shard cluster that shares the caller's manager (volatile ingest:
    /// mutations apply to the manager without a WAL). The service becomes
    /// the manager's only writer: it serves what its own `/ingest`
    /// publishes.
    ///
    /// # Errors
    ///
    /// Binding the listener.
    pub fn start(
        addr: &str,
        manager: Arc<EpochManager>,
        registry: MetricsRegistry,
        obs: ObsState,
        cfg: ServiceConfig,
    ) -> io::Result<QueryService> {
        let cluster = ShardedCluster::from_shards(vec![manager], None);
        Self::start_sharded(addr, Arc::new(cluster), registry, obs, cfg)
    }

    /// Starts the service over a [`ShardedCluster`] (volatile sharded
    /// ingest): `/search` and `/topk` scatter-gather across every shard
    /// with threshold push-back, `/ingest` routes through the coordinator
    /// (global ids), `/join` answers over the merged live cut.
    ///
    /// # Errors
    ///
    /// Binding the listener.
    pub fn start_sharded(
        addr: &str,
        cluster: Arc<ShardedCluster>,
        registry: MetricsRegistry,
        obs: ObsState,
        cfg: ServiceConfig,
    ) -> io::Result<QueryService> {
        let cut = cluster.snapshot();
        Self::start_inner(addr, Backend::Volatile(cluster), cut, registry, obs, cfg)
    }

    /// Starts the service over a [`ShardedDurable`] cluster (one shard for
    /// an unsharded store): per-shard WAL-backed `/ingest`, scatter-gather
    /// reads. A degraded shard rejects its mutations while every other
    /// shard — and all reads — keep serving.
    ///
    /// # Errors
    ///
    /// Binding the listener.
    pub fn start_sharded_durable(
        addr: &str,
        cluster: ShardedDurable,
        registry: MetricsRegistry,
        obs: ObsState,
        cfg: ServiceConfig,
    ) -> io::Result<QueryService> {
        let cut = cluster.snapshot();
        let backend = Backend::Durable(Box::new(cluster));
        Self::start_inner(addr, backend, cut, registry, obs, cfg)
    }

    fn start_inner(
        addr: &str,
        backend: Backend,
        cut: ClusterSnapshot,
        registry: MetricsRegistry,
        obs: ObsState,
        cfg: ServiceConfig,
    ) -> io::Result<QueryService> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = ServiceMetrics::new(&registry);
        let shared = Arc::new(Shared {
            writer: Mutex::new(backend),
            published: RwLock::new(Arc::new(cut)),
            cfg: cfg.clone(),
            obs,
            metrics,
            ctx: SearchContext::new(),
            inflight: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
            stop: Arc::clone(&stop),
        });
        let workers = cfg.http_threads.max(1);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stop);
            handles.push(
                thread::Builder::new()
                    .name(format!("uots-serve-{i}"))
                    .spawn(move || worker_loop(listener, shared, stop))
                    .expect("spawn http worker"),
            );
        }
        Ok(QueryService {
            local_addr,
            stop,
            handles,
            shared,
        })
    }

    /// The bound address (useful with `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The epoch of the currently published cut (the maximum per-shard
    /// epoch).
    pub fn current_epoch(&self) -> u64 {
        cut_epoch(&self.shared.pin())
    }

    /// `true` once an operator requested shutdown (`POST
    /// /admin/shutdown`) or [`shutdown`](Self::shutdown) ran.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Stops every worker and joins them. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(listener: TcpListener, shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let start = Instant::now();
                shared.metrics.requests.inc();
                if let Err(e) = handle_connection(&mut stream, &shared) {
                    // Client went away mid-response; nothing to answer.
                    let _ = e;
                }
                shared
                    .metrics
                    .latency_us
                    .record(start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn handle_connection(stream: &mut TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    let req = match read_request(stream) {
        Ok(req) => req,
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            shared.metrics.errors.inc();
            // `read_request` refuses bodies past MAX_BODY_BYTES up front.
            return if e.to_string().contains("too large") {
                respond(
                    stream,
                    413,
                    "application/json",
                    "{\"error\":\"body too large\"}\n",
                )
            } else {
                respond(
                    stream,
                    400,
                    "application/json",
                    "{\"error\":\"bad request\"}\n",
                )
            };
        }
        Err(e) => return Err(e),
    };
    match req.method.as_str() {
        "GET" => {
            if dispatch_obs(stream, &req, &shared.obs)? {
                return Ok(());
            }
            match req.path.as_str() {
                "/" => respond(
                    stream,
                    200,
                    "text/plain",
                    "uots-serve: POST /search /topk /join /ingest /admin/shutdown; \
                     GET /metrics /status /journal /traces\n",
                ),
                _ => {
                    shared.metrics.errors.inc();
                    json_error(stream, 404, &format!("no such path: {}", req.path))
                }
            }
        }
        "POST" => match req.path.as_str() {
            "/search" => handle_search(stream, &req, shared, false),
            "/topk" => handle_search(stream, &req, shared, true),
            "/join" => handle_join(stream, &req, shared),
            "/ingest" => handle_ingest(stream, &req, shared),
            "/admin/shutdown" => {
                shared.stop.store(true, Ordering::SeqCst);
                respond(stream, 200, "application/json", "{\"stopping\":true}\n")
            }
            _ => {
                shared.metrics.errors.inc();
                json_error(stream, 404, &format!("no such path: {}", req.path))
            }
        },
        m => {
            shared.metrics.errors.inc();
            json_error(stream, 405, &format!("method {m} not allowed"))
        }
    }
}

// ---------- JSON helpers over the vendored `Content` tree ----------

fn body_content(req: &HttpRequest) -> Result<Content, String> {
    if req.body.is_empty() {
        return Ok(Content::Map(Vec::new()));
    }
    serde_json::from_slice::<Content>(&req.body).map_err(|e| e.to_string())
}

fn content_f64(c: &Content) -> Option<f64> {
    match *c {
        Content::I64(v) => Some(v as f64),
        Content::U64(v) => Some(v as f64),
        Content::F64(v) => Some(v),
        _ => None,
    }
}

fn content_usize(c: &Content) -> Option<usize> {
    match *c {
        Content::I64(v) if v >= 0 => Some(v as usize),
        Content::U64(v) => usize::try_from(v).ok(),
        _ => None,
    }
}

fn field_f64(map: &Content, key: &str, default: f64) -> Result<f64, String> {
    match map.get(key) {
        None | Some(Content::Null) => Ok(default),
        Some(c) => content_f64(c).ok_or_else(|| format!("`{key}` must be a number")),
    }
}

fn field_usize(map: &Content, key: &str, default: usize) -> Result<usize, String> {
    match map.get(key) {
        None | Some(Content::Null) => Ok(default),
        Some(c) => {
            content_usize(c).ok_or_else(|| format!("`{key}` must be a non-negative integer"))
        }
    }
}

fn field_str<'a>(map: &'a Content, key: &str) -> Option<&'a str> {
    match map.get(key) {
        Some(Content::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn field_ids(map: &Content, key: &str) -> Result<Vec<u32>, String> {
    match map.get(key) {
        None | Some(Content::Null) => Ok(Vec::new()),
        Some(Content::Seq(items)) => items
            .iter()
            .map(|c| {
                content_usize(c)
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(|| format!("`{key}` entries must be u32 ids"))
            })
            .collect(),
        Some(_) => Err(format!("`{key}` must be an array of ids")),
    }
}

/// Parses one query object (see the module docs for the shape) and
/// validates it through the engine's own constructor.
fn parse_query(c: &Content) -> Result<UotsQuery, String> {
    let locations: Vec<NodeId> = field_ids(c, "locations")?.into_iter().map(NodeId).collect();
    let keywords = KeywordSet::from_ids(field_ids(c, "keywords")?.into_iter().map(KeywordId));
    let times = match c.get("times") {
        None | Some(Content::Null) => Vec::new(),
        Some(Content::Seq(items)) => items
            .iter()
            .map(|t| content_f64(t).ok_or_else(|| "`times` entries must be numbers".to_string()))
            .collect::<Result<Vec<f64>, String>>()?,
        Some(_) => return Err("`times` must be an array of seconds".to_string()),
    };
    let lambda = field_f64(c, "lambda", 0.5)?;
    let weights = Weights::lambda(lambda).map_err(|e| e.to_string())?;
    let options = QueryOptions {
        weights,
        k: field_usize(c, "k", 1)?,
        decay_km: field_f64(c, "decay_km", 1.0)?,
        decay_s: field_f64(c, "decay_s", 1_800.0)?,
        ..QueryOptions::default()
    };
    UotsQuery::with_options(locations, keywords, times, options).map_err(|e| e.to_string())
}

/// Axis-wise minimum of a query's own budget and the degraded cap.
fn tighten(own: ExecutionBudget, cap: ExecutionBudget) -> ExecutionBudget {
    fn min_opt<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, None) | (None, x) => x,
        }
    }
    ExecutionBudget {
        max_wall: min_opt(own.max_wall, cap.max_wall),
        max_visited: min_opt(own.max_visited, cap.max_visited),
        max_settled: min_opt(own.max_settled, cap.max_settled),
    }
}

fn json_error(stream: &mut TcpStream, code: u16, msg: &str) -> io::Result<()> {
    let body = serde_json::to_string(&Content::Map(vec![(
        "error".to_string(),
        Content::Str(msg.to_string()),
    )]))
    .expect("error body renders");
    respond(stream, code, "application/json", &body)
}

// ---------- /search and /topk ----------

fn handle_search(
    stream: &mut TcpStream,
    req: &HttpRequest,
    shared: &Arc<Shared>,
    single: bool,
) -> io::Result<()> {
    let body = match body_content(req) {
        Ok(b) => b,
        Err(e) => {
            shared.metrics.errors.inc();
            return json_error(stream, 400, &e);
        }
    };
    let query_objects: Vec<&Content> = if single {
        vec![&body]
    } else {
        match body.get("queries") {
            Some(Content::Seq(items)) if !items.is_empty() => items.iter().collect(),
            _ => {
                shared.metrics.errors.inc();
                return json_error(stream, 400, "`queries` must be a non-empty array");
            }
        }
    };
    let mut queries = Vec::with_capacity(query_objects.len());
    for (i, qc) in query_objects.iter().enumerate() {
        match parse_query(qc) {
            Ok(q) => queries.push(q),
            Err(e) => {
                shared.metrics.errors.inc();
                return json_error(stream, 400, &format!("query {i}: {e}"));
            }
        }
    }

    let tenant = field_str(&body, "tenant").unwrap_or("default").to_string();
    let (guard, degraded) = match shared.admit(&tenant, queries.len()) {
        Ok(ok) => ok,
        Err(()) => {
            shared.metrics.shed.inc();
            return json_error(
                stream,
                429,
                &format!(
                    "overloaded: {} queries in flight (capacity {})",
                    shared.inflight.load(Ordering::SeqCst),
                    shared.cfg.max_inflight
                ),
            );
        }
    };
    if degraded {
        shared.metrics.degraded.inc();
        let cap = shared.cfg.degraded_budget;
        for q in &mut queries {
            let mut opts = q.options().clone();
            opts.budget = tighten(opts.budget, cap);
            *q = q
                .reoptioned(opts)
                .expect("re-optioning an already-validated query");
        }
    }

    // Request-level algorithm override; the operator's force wins.
    let planner = match (shared.cfg.force, field_str(&body, "algorithm")) {
        (Some(kind), _) => Planner::forced(kind),
        (None, Some(name)) => match AlgorithmKind::parse(name) {
            Some(kind) => Planner::forced(kind),
            None => {
                drop(guard);
                shared.metrics.errors.inc();
                return json_error(stream, 400, &format!("unknown algorithm `{name}`"));
            }
        },
        (None, None) => Planner::new(),
    };

    let opts = BatchOptions {
        policy: BatchPolicy::Partial,
        deadline: None,
        max_batch: Some(shared.cfg.max_batch),
        threads: shared.cfg.batch_threads,
    };
    // Pin one consistent cut for the whole batch (its `Arc`s keep every
    // shard epoch alive while `/ingest` publishes).
    let cut = shared.pin();
    let shards_cut = AtomicU64::new(0);
    let outcome = parallel::execute(
        &queries,
        &opts,
        &CancellationToken::new(),
        None,
        planner.name(),
        |q, ctl, _| {
            let answer = cut.search_ctx(&planner, q, ctl, &shared.ctx)?;
            shards_cut.fetch_add(answer.shards_cut as u64, Ordering::Relaxed);
            Ok(answer.result)
        },
    );
    drop(guard);

    let results = match outcome {
        Ok(batch) => batch,
        Err(CoreError::Overloaded {
            submitted,
            capacity,
        }) => {
            shared.metrics.shed.inc();
            return json_error(
                stream,
                429,
                &format!("batch of {submitted} exceeds admission bound {capacity}"),
            );
        }
        Err(e) => {
            shared.metrics.errors.inc();
            return json_error(stream, 400, &e.to_string());
        }
    };

    // Report the plan per query, recomputed against the pinned cut
    // (decide() is deterministic and cheap). A cut of several shards
    // reports the plan each shard chose — planner statistics are
    // per-shard by design.
    let plan_entry = |db: &Database<'_>, q: &UotsQuery| {
        let d = planner.decide(db, q);
        Content::Map(vec![
            (
                "algorithm".to_string(),
                Content::Str(d.kind.name().to_string()),
            ),
            ("reason".to_string(), Content::Str(d.reason.to_string())),
        ])
    };
    let sharded = cut.num_shards() > 1;
    let planned: Vec<Content> = queries
        .iter()
        .map(|q| {
            if !sharded {
                return plan_entry(&cut.shard(0).database(), q);
            }
            let shards: Vec<Content> = (0..cut.num_shards())
                .map(|s| plan_entry(&cut.shard(s).database(), q))
                .collect();
            Content::Map(vec![("shards".to_string(), Content::Seq(shards))])
        })
        .collect();

    let rendered: Vec<Content> = results
        .iter()
        .map(|r| match r {
            Ok(qr) => qr.serialize(),
            Err(e) => Content::Map(vec![("error".to_string(), Content::Str(e.to_string()))]),
        })
        .collect();
    let mut top = vec![
        ("epoch".to_string(), Content::U64(cut_epoch(&cut))),
        ("degraded".to_string(), Content::Bool(degraded)),
        ("planned".to_string(), Content::Seq(planned)),
    ];
    if sharded {
        top.push(shard_epochs(&cut));
        top.push((
            "shards_cut".to_string(),
            Content::U64(shards_cut.into_inner()),
        ));
    }
    if single {
        top.push((
            "result".to_string(),
            rendered.into_iter().next().unwrap_or(Content::Null),
        ));
    } else {
        top.push(("results".to_string(), Content::Seq(rendered)));
    }
    let body = serde_json::to_string(&Content::Map(top)).expect("response renders");
    respond(stream, 200, "application/json", &body)
}

// ---------- /join ----------

fn handle_join(stream: &mut TcpStream, req: &HttpRequest, shared: &Arc<Shared>) -> io::Result<()> {
    let body = match body_content(req) {
        Ok(b) => b,
        Err(e) => {
            shared.metrics.errors.inc();
            return json_error(stream, 400, &e);
        }
    };
    let defaults = JoinConfig::default();
    let cfg = JoinConfig {
        theta: match field_f64(&body, "theta", defaults.theta) {
            Ok(v) => v,
            Err(e) => {
                shared.metrics.errors.inc();
                return json_error(stream, 400, &e);
            }
        },
        lambda: match field_f64(&body, "lambda", defaults.lambda) {
            Ok(v) => v,
            Err(e) => {
                shared.metrics.errors.inc();
                return json_error(stream, 400, &e);
            }
        },
        decay_km: field_f64(&body, "decay_km", defaults.decay_km).unwrap_or(defaults.decay_km),
        decay_s: field_f64(&body, "decay_s", defaults.decay_s).unwrap_or(defaults.decay_s),
        ..defaults
    };
    let tenant = field_str(&body, "tenant").unwrap_or("default").to_string();
    let cut = shared.pin();
    // A join is a whole-dataset scan; weigh it as one tenant-ring slot
    // per live trajectory probe, capped to keep the arithmetic sane.
    let weight = cut.num_live().min(shared.cfg.tenant_inflight);
    let (guard, degraded) = match shared.admit(&tenant, weight.max(1)) {
        Ok(ok) => ok,
        Err(()) => {
            shared.metrics.shed.inc();
            return json_error(stream, 429, "overloaded: join shed by the inflight ring");
        }
    };
    let budget = if degraded {
        shared.metrics.degraded.inc();
        shared.cfg.degraded_budget
    } else {
        ExecutionBudget::UNLIMITED
    };

    let outcome = cut_join(&cut, &cfg, shared.cfg.batch_threads, &budget);
    drop(guard);

    let join = match outcome {
        Ok(j) => j,
        Err(e) => {
            shared.metrics.errors.inc();
            return json_error(stream, 400, &e.to_string());
        }
    };
    let pairs: Vec<Content> = join.pairs.iter().map(|p| p.serialize()).collect();
    let mut top = vec![
        ("epoch".to_string(), Content::U64(cut_epoch(&cut))),
        ("degraded".to_string(), Content::Bool(degraded)),
        ("pairs".to_string(), Content::Seq(pairs)),
        (
            "visited_trajectories".to_string(),
            Content::U64(join.visited_trajectories as u64),
        ),
        ("completeness".to_string(), join.completeness.serialize()),
        (
            "runtime_ms".to_string(),
            Content::F64(join.runtime.as_secs_f64() * 1e3),
        ),
    ];
    if cut.num_shards() > 1 {
        top.push(shard_epochs(&cut));
    }
    let body = serde_json::to_string(&Content::Map(top)).expect("join response renders");
    respond(stream, 200, "application/json", &body)
}

/// Runs the similarity self-join over a cut. A 1-shard cut joins its
/// snapshot in place. A cut of several shards materializes every live
/// trajectory into one compact store in ascending **global** id order (so
/// the mapping back is stable), then remaps pair ids to global before
/// answering. The network is shared by construction, so any shard's copy
/// serves the scan.
fn cut_join(
    cut: &ClusterSnapshot,
    cfg: &JoinConfig,
    threads: usize,
    budget: &ExecutionBudget,
) -> Result<JoinResult, JoinError> {
    if cut.num_shards() == 1 {
        let snap = cut.shard(0);
        let db = snap.database();
        let mut join = ts_join_with(
            snap.network(),
            snap.store(),
            db.vertex_index,
            db.timestamp_index
                .expect("epoch snapshots index timestamps"),
            cfg,
            threads,
            budget,
            &RunControl::unbounded(),
        )?;
        for p in &mut join.pairs {
            p.a = cut.global_of(0, p.a);
            p.b = cut.global_of(0, p.b);
        }
        return Ok(join);
    }
    let mut rows: Vec<(TrajectoryId, usize, TrajectoryId)> = Vec::new();
    for s in 0..cut.num_shards() {
        for local in cut.shard(s).live().iter_live() {
            rows.push((cut.global_of(s, local), s, local));
        }
    }
    rows.sort_unstable_by_key(|r| r.0 .0);
    let mut store = TrajectoryStore::new();
    let mut globals: Vec<TrajectoryId> = Vec::with_capacity(rows.len());
    for (g, s, local) in rows {
        store.push(cut.shard(s).store().get(local).clone());
        globals.push(g);
    }
    let net = cut.shard(0).network().clone();
    let vertex_index = store.build_vertex_index(net.num_nodes());
    let ts_index = store.build_timestamp_index();
    let mut join = ts_join_with(
        &net,
        &store,
        &vertex_index,
        &ts_index,
        cfg,
        threads,
        budget,
        &RunControl::unbounded(),
    )?;
    // Compact ids are ascending in global order, so `a < b` is preserved.
    for p in &mut join.pairs {
        p.a = globals[p.a.index()];
        p.b = globals[p.b.index()];
    }
    Ok(join)
}

// ---------- /ingest ----------

fn handle_ingest(
    stream: &mut TcpStream,
    req: &HttpRequest,
    shared: &Arc<Shared>,
) -> io::Result<()> {
    let body = match body_content(req) {
        Ok(b) => b,
        Err(e) => {
            shared.metrics.errors.inc();
            return json_error(stream, 400, &e);
        }
    };
    let inserts: Vec<Trajectory> = match body.get("insert") {
        None | Some(Content::Null) => Vec::new(),
        Some(Content::Seq(items)) => {
            let cut = shared.pin();
            let network = cut.shard(0).network();
            let mut out = Vec::with_capacity(items.len());
            for (i, c) in items.iter().enumerate() {
                match parse_insert(c, network) {
                    Ok(t) => out.push(t),
                    Err(e) => {
                        shared.metrics.errors.inc();
                        return json_error(stream, 400, &format!("insert {i}: {e}"));
                    }
                }
            }
            out
        }
        Some(_) => {
            shared.metrics.errors.inc();
            return json_error(stream, 400, "`insert` must be an array of trajectories");
        }
    };
    let retires: Vec<TrajectoryId> = match field_ids(&body, "retire") {
        Ok(ids) => ids.into_iter().map(TrajectoryId).collect(),
        Err(e) => {
            shared.metrics.errors.inc();
            return json_error(stream, 400, &e);
        }
    };
    let publish = !matches!(body.get("publish"), Some(Content::Bool(false)));

    // Mutations and the publish serialize on the writer; the new cut
    // replaces the published one before the writer lets go.
    let outcome = match shared.writer.lock() {
        Ok(mut backend) => apply_ingest(&mut backend, inserts, retires, publish).inspect(|done| {
            if let Some(cut) = &done.published {
                *shared.published.write().unwrap_or_else(|e| e.into_inner()) = Arc::clone(cut);
            }
        }),
        Err(_) => Err("the store writer panicked; restart the service to recover".to_string()),
    };
    let done = match outcome {
        Ok(done) => done,
        Err(e) => {
            shared.metrics.errors.inc();
            return json_error(stream, 400, &e);
        }
    };
    let cut = done.published.unwrap_or_else(|| shared.pin());

    let mut top = vec![
        ("epoch".to_string(), Content::U64(cut_epoch(&cut))),
        (
            "inserted".to_string(),
            Content::Seq(done.inserted.into_iter().map(Content::U64).collect()),
        ),
        ("retired".to_string(), Content::U64(done.retired)),
        ("published".to_string(), Content::Bool(publish)),
    ];
    if cut.num_shards() > 1 {
        top.push(shard_epochs(&cut));
    }
    let body = serde_json::to_string(&Content::Map(top)).expect("ingest response renders");
    respond(stream, 200, "application/json", &body)
}

/// Parses one inserted trajectory, refusing a vertex `network` lacks (the
/// writer would index it out of bounds).
fn parse_insert(c: &Content, network: &RoadNetwork) -> Result<Trajectory, String> {
    let t = <Trajectory as serde::Deserialize>::deserialize(c).map_err(|e| e.to_string())?;
    if let Some(v) = t.nodes().find(|&v| !network.contains_node(v)) {
        return Err(format!("unknown vertex {}", v.0));
    }
    Ok(t)
}

/// What one `/ingest` did: the inserts' global ids, the number of retires
/// that hit a live trajectory, and the cut it published, if asked to.
struct Ingested {
    inserted: Vec<u64>,
    retired: u64,
    published: Option<Arc<ClusterSnapshot>>,
}

/// Applies inserts, then retires, then the optional publish. The first
/// refused mutation stops the request; what was applied before it stays
/// pending until a later publish.
fn apply_ingest(
    backend: &mut Backend,
    inserts: Vec<Trajectory>,
    retires: Vec<TrajectoryId>,
    publish: bool,
) -> Result<Ingested, String> {
    let mut done = Ingested {
        inserted: Vec::with_capacity(inserts.len()),
        retired: 0,
        published: None,
    };
    match backend {
        Backend::Volatile(cluster) => {
            for t in inserts {
                done.inserted.push(u64::from(cluster.ingest(t).0));
            }
            for id in retires {
                // `retire` panics on an id the cluster never issued.
                if !cluster.contains(id) {
                    return Err(format!("unknown trajectory id {}", id.0));
                }
                done.retired += u64::from(cluster.retire(id));
            }
            if publish {
                done.published = Some(Arc::new(cluster.publish_all()));
            }
        }
        Backend::Durable(cluster) => {
            for t in inserts {
                let id = cluster.ingest(t).map_err(|e| e.to_string())?;
                done.inserted.push(u64::from(id.0));
            }
            for id in retires {
                done.retired += u64::from(cluster.retire(id).map_err(|e| e.to_string())?);
            }
            if publish {
                let cut = cluster.publish_all().map_err(|e| e.to_string())?;
                done.published = Some(Arc::new(cut));
            }
        }
    }
    Ok(done)
}

/// The epoch attributable to a cut: the maximum per-shard epoch.
fn cut_epoch(cut: &ClusterSnapshot) -> u64 {
    cut.epochs().into_iter().max().unwrap_or(0)
}

/// The per-shard `epochs` field of responses from multi-shard cuts.
fn shard_epochs(cut: &ClusterSnapshot) -> (String, Content) {
    (
        "epochs".to_string(),
        Content::Seq(cut.epochs().into_iter().map(Content::U64).collect()),
    )
}

/// Result completeness digest used by clients and the load generator:
/// `Exact` or the certified `bound_gap`.
pub fn completeness_tag(c: &Completeness) -> &'static str {
    match c {
        Completeness::Exact => "exact",
        Completeness::BestEffort { .. } => "best-effort",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_validates_through_the_engine() {
        let c: Content =
            serde_json::from_str(r#"{"locations":[1,2],"keywords":[0],"lambda":0.3,"k":4}"#)
                .unwrap();
        let q = parse_query(&c).unwrap();
        assert_eq!(q.locations().len(), 2);
        assert_eq!(q.options().k, 4);
        assert!((q.options().weights.spatial - 0.3).abs() < 1e-12);

        // Engine invariants reach the client as parse errors.
        let bad: Content = serde_json::from_str(r#"{"locations":[],"keywords":[0]}"#).unwrap();
        assert!(parse_query(&bad).is_err());
        let bad_lambda: Content =
            serde_json::from_str(r#"{"locations":[1],"keywords":[],"lambda":1.5}"#).unwrap();
        assert!(parse_query(&bad_lambda).is_err());
    }

    #[test]
    fn a_pin_never_waits_on_the_writer() {
        use uots_datagen::{Dataset, DatasetConfig};
        let ds = Dataset::build(&DatasetConfig::small(20, 1)).unwrap();
        let manager = EpochManager::new(
            Arc::new(ds.network.clone()),
            ds.store.clone(),
            ds.vocab.len(),
        );
        let registry = MetricsRegistry::new();
        let obs = ObsState::new().with_registry(registry.clone());
        let service = QueryService::start(
            "127.0.0.1:0",
            Arc::new(manager),
            registry,
            obs,
            ServiceConfig::default(),
        )
        .unwrap();
        let writer = service.shared.writer.lock().unwrap();
        let shared = Arc::clone(&service.shared);
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || tx.send(shared.pin().epochs()).unwrap());
        let epochs = rx
            .recv_timeout(Duration::from_secs(1))
            .expect("a pin must not wait on the writer");
        assert_eq!(epochs, vec![0]);
        drop(writer);
    }

    #[test]
    fn tighten_takes_the_axiswise_minimum() {
        let own = ExecutionBudget::default().with_max_visited(100);
        let cap = ExecutionBudget::default()
            .with_deadline_ms(50)
            .with_max_visited(512);
        let t = tighten(own, cap);
        assert_eq!(t.max_visited, Some(100));
        assert_eq!(t.max_wall, Some(Duration::from_millis(50)));
        assert_eq!(t.max_settled, None);
    }
}
