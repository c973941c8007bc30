//! Service stacks and the client drivers that load them.
//!
//! A stack is the program as a user starts it: the dataset file loaded,
//! the serving state built, `QueryService` bound to a loopback port. The
//! drivers talk to it only over HTTP, from at most two client threads.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use uots::algorithms::{Algorithm, BruteForce};
use uots::cluster::ShardedDurable;
use uots::core::{ClusterSnapshot, Planner};
use uots::datagen::persist;
use uots::obs::ObsState;
use uots::serve::{QueryService, ServiceConfig};
use uots::{
    CoreError, EpochManager, MetricsRegistry, QueryResult, Trajectory, TrajectoryId, WalConfig,
};

use crate::gate::{answer_of, check_ingest, check_topk, Answer};
use crate::http::{self, Reply};
use crate::input::PoolQuery;

/// Shards of the `write-mix` cluster.
pub const SHARDS: usize = 2;

/// Where a stack answers from.
pub enum State {
    /// An in-memory `EpochManager` (volatile ingest).
    Volatile(Arc<EpochManager>),
    /// The consistent cut of a durable cluster taken before the service
    /// took ownership of it: the snapshot every read answers from until
    /// the first ingest.
    Cluster(ClusterSnapshot),
}

/// A running service and the state it answers from.
pub struct Stack {
    pub service: QueryService,
    pub state: State,
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        self.service.local_addr()
    }

    pub fn shutdown(mut self) {
        self.service.shutdown();
    }
}

/// Time spent in the two steps of a set-up before the service starts.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub load: Duration,
    pub build: Duration,
}

fn start_service(
    registry: &MetricsRegistry,
    start: impl FnOnce(MetricsRegistry, ObsState, ServiceConfig) -> io::Result<QueryService>,
) -> Result<QueryService, String> {
    let obs = ObsState::new().with_registry(registry.clone());
    start(registry.clone(), obs, ServiceConfig::default()).map_err(|e| format!("binding: {e}"))
}

/// Loads the dataset, builds an `EpochManager` and starts the service
/// over it, as `uots-serve` does without `--wal-dir`.
pub fn start_volatile(dataset: &Path) -> Result<(Stack, SetupTimes), String> {
    let t0 = Instant::now();
    let ds = persist::load_file(dataset).map_err(|e| format!("loading the dataset: {e}"))?;
    let load = t0.elapsed();
    let registry = MetricsRegistry::new();
    let t1 = Instant::now();
    let manager = Arc::new(EpochManager::with_metrics(
        Arc::new(ds.network.clone()),
        ds.store.clone(),
        ds.vocab.len(),
        &registry,
    ));
    let build = t1.elapsed();
    drop(ds);
    let m = Arc::clone(&manager);
    let service = start_service(&registry, |r, o, c| {
        QueryService::start("127.0.0.1:0", m, r, o, c)
    })?;
    let stack = Stack {
        service,
        state: State::Volatile(manager),
    };
    Ok((stack, SetupTimes { load, build }))
}

/// Loads the dataset and creates a fresh `SHARDS`-shard durable cluster
/// under `root` (hash partitioner, WAL fsync on every batch, no
/// checkpoint cadence), as `uots-serve --shards 2 --wal-dir` does.
pub fn start_durable(dataset: &Path, root: &Path) -> Result<(Stack, SetupTimes), String> {
    let t0 = Instant::now();
    let ds = persist::load_file(dataset).map_err(|e| format!("loading the dataset: {e}"))?;
    let load = t0.elapsed();
    let registry = MetricsRegistry::new();
    let t1 = Instant::now();
    let cluster = ShardedDurable::create(
        Arc::new(ds.network.clone()),
        &ds.store,
        &ds.vocab,
        root,
        SHARDS,
        WalConfig::default(),
        None,
        Some(&registry),
    )
    .map_err(|e| format!("creating the cluster: {e}"))?;
    let build = t1.elapsed();
    drop(ds);
    let stack = serve_cluster(cluster, registry)?;
    Ok((stack, SetupTimes { load, build }))
}

/// Recovers the cluster under `root` and serves it. The returned
/// recovery reports carry the per-shard replay counts and times.
pub fn reopen_durable(root: &Path) -> Result<(Stack, Vec<uots::durable::RecoveryReport>), String> {
    let registry = MetricsRegistry::new();
    let (cluster, reports) =
        ShardedDurable::open(root, SHARDS, WalConfig::default(), None, Some(&registry))
            .map_err(|e| format!("recovering the cluster: {e}"))?;
    Ok((serve_cluster(cluster, registry)?, reports))
}

fn serve_cluster(cluster: ShardedDurable, registry: MetricsRegistry) -> Result<Stack, String> {
    let cut = cluster.snapshot();
    let service = start_service(&registry, |r, o, c| {
        QueryService::start_sharded_durable("127.0.0.1:0", cluster, r, o, c)
    })?;
    Ok(Stack {
        service,
        state: State::Cluster(cut),
    })
}

/// Stacks brought up one after another: the last one, kept running, and
/// for each start its seconds to the first answer, what the start
/// reported, and the first reply.
pub struct Started<T> {
    pub stack: Stack,
    pub runs: Vec<(f64, T)>,
    pub first: Vec<io::Result<Reply>>,
}

impl<T> Started<T> {
    pub fn secs(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.0).collect()
    }
}

/// Brings a stack up `times` times, each timed to its first answer to
/// `probe`, and keeps the last. Earlier stacks are shut down before the
/// next starts. The caller checks the first replies once the expected
/// answer is known.
pub fn timed_starts<T>(
    times: usize,
    probe: &PoolQuery,
    mut start: impl FnMut(usize) -> Result<(Stack, T), String>,
) -> Result<Started<T>, String> {
    let mut kept: Option<Stack> = None;
    let mut runs = Vec::with_capacity(times);
    let mut first = Vec::with_capacity(times);
    for i in 0..times.max(1) {
        if let Some(old) = kept.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let (stack, reported) = start(i)?;
        first.push(http::post(stack.addr(), "/topk", &probe.body));
        runs.push((t0.elapsed().as_secs_f64(), reported));
        kept = Some(stack);
    }
    Ok(Started {
        stack: kept.expect("at least one start"),
        runs,
        first,
    })
}

/// A direct, in-process run of `algorithm` on what `state` serves: the
/// manager's current snapshot, or the cluster cut. Nothing is published
/// before the timed phase ends, so this is the snapshot every timed read
/// is answered from.
fn direct<A: Algorithm + Sync>(
    state: &State,
    algorithm: &A,
    q: &PoolQuery,
) -> Result<QueryResult, CoreError> {
    match state {
        State::Volatile(m) => algorithm.run(&m.snapshot().database(), &q.query),
        State::Cluster(cut) => cut.search(algorithm, &q.query).map(|a| a.result),
    }
}

/// The expected answer of every pool query: a direct `Planner` run,
/// on two threads.
pub fn expected_answers(state: &State, pool: &[PoolQuery]) -> Vec<Answer> {
    let threads = 2usize;
    let mut out: Vec<Option<Answer>> = vec![None; pool.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..pool.len())
                        .step_by(threads)
                        .map(|i| {
                            let r = direct(state, &Planner::new(), &pool[i]);
                            (i, answer_of(&r.expect("pool queries are valid")))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, a) in h.join().expect("expected-answer worker panicked") {
                out[i] = Some(a);
            }
        }
    });
    out.into_iter()
        .map(|a| a.expect("every query answered"))
        .collect()
}

/// Checks the first query of each shape against the `BruteForce` oracle.
pub fn oracle_checks(
    state: &State,
    pool: &[PoolQuery],
    expected: &[Answer],
) -> Vec<Result<(), String>> {
    let mut seen: Vec<&str> = Vec::new();
    let mut out = Vec::new();
    for (q, want) in pool.iter().zip(expected) {
        if seen.contains(&q.shape.as_str()) {
            continue;
        }
        seen.push(&q.shape);
        out.push(match direct(state, &BruteForce, q) {
            Ok(r) if &answer_of(&r) == want => Ok(()),
            Ok(r) => Err(format!(
                "{}: planner {want:?} but oracle {:?}",
                q.shape,
                answer_of(&r)
            )),
            Err(e) => Err(format!("{}: oracle failed: {e}", q.shape)),
        });
    }
    out
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub start: Instant,
    pub end: Instant,
    /// For open-loop requests, when the request was due.
    pub due: Instant,
    pub outcome: Result<(), String>,
}

impl Sample {
    /// Latency in ms from when the request was due; a failure reads as
    /// infinitely slow.
    pub fn latency_ms(&self) -> f64 {
        if self.outcome.is_ok() {
            self.end.duration_since(self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// Closed loop: `conns` client threads, each sending its next request as
/// soon as the previous answer is in, taking requests in `order`. With
/// `until`, the threads keep cycling through `order` until it is set.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &[PoolQuery],
    expected: &[Answer],
    order: &[usize],
    conns: usize,
    until: Option<&AtomicBool>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let q = match (order.get(i), until) {
                            (Some(&q), _) => q,
                            (None, Some(flag)) if !flag.load(Ordering::SeqCst) => {
                                order[i % order.len()]
                            }
                            _ => break,
                        };
                        let start = Instant::now();
                        let reply = http::post(addr, "/topk", &pool[q].body);
                        let end = Instant::now();
                        mine.push(Sample {
                            start,
                            end,
                            due: start,
                            outcome: check_topk(&reply, &expected[q]),
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.start);
    samples
}

/// Open loop: one sender thread sends request `i` at `i / rate` seconds
/// whether or not earlier answers are in, and one receiver thread reads
/// the answers in sending order. Latency runs from the scheduled send
/// time, so a stall shows in every request it delays. Returns the samples
/// and how late each send was against its schedule, in ms.
pub fn open_loop(
    addr: SocketAddr,
    pool: &[PoolQuery],
    expected: &[Answer],
    order: &[usize],
    rate: f64,
) -> (Vec<Sample>, Vec<f64>) {
    let (tx, rx) = mpsc::channel();
    let origin = Instant::now() + Duration::from_millis(20);
    let mut samples = Vec::with_capacity(order.len());
    let mut lag = Vec::with_capacity(order.len());
    std::thread::scope(|s| {
        s.spawn(move || {
            for (i, &q) in order.iter().enumerate() {
                let due = origin + Duration::from_secs_f64(i as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let start = Instant::now();
                let stream = http::send(addr, "POST", "/topk", &pool[q].body);
                if tx.send((q, due, start, stream)).is_err() {
                    break;
                }
            }
        });
        for (q, due, start, stream) in rx {
            let reply = stream.and_then(http::receive);
            let end = Instant::now();
            lag.push(start.duration_since(due).as_secs_f64() * 1e3);
            samples.push(Sample {
                start,
                end,
                due,
                outcome: check_topk(&reply, &expected[q]),
            });
        }
    });
    (samples, lag)
}

/// One acknowledged (or failed) single-trip ingest.
#[derive(Debug, Clone)]
pub struct IngestSample {
    /// Index into the ingest trips.
    pub trip: usize,
    pub start: Instant,
    pub end: Instant,
    /// The acked global id.
    pub outcome: Result<u64, String>,
}

impl IngestSample {
    pub fn latency_ms(&self) -> f64 {
        if self.outcome.is_ok() {
            self.end.duration_since(self.start).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }
}

/// Sends single-trip `/ingest` requests (publish on) one at a time, the
/// `i`-th no earlier than `i * interval` after the start.
pub fn ingest_schedule(
    addr: SocketAddr,
    bodies: &[(Trajectory, String)],
    trips: std::ops::Range<usize>,
    interval: Duration,
) -> Vec<IngestSample> {
    let origin = Instant::now();
    trips
        .enumerate()
        .map(|(i, trip)| {
            let due = origin + interval * i as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let start = Instant::now();
            let reply = http::post(addr, "/ingest", &bodies[trip].1);
            IngestSample {
                trip,
                start,
                end: Instant::now(),
                outcome: check_ingest(&reply),
            }
        })
        .collect()
}

/// Checks that every acked insert — `(global id, index into bodies)` — is
/// live in `cut` and holds the trip that was sent.
pub fn acked_inserts_live(
    cut: &ClusterSnapshot,
    acked: impl IntoIterator<Item = (u64, usize)>,
    bodies: &[(Trajectory, String)],
) -> Vec<Result<(), String>> {
    acked
        .into_iter()
        .map(|(global, trip)| {
            let shard = (global % SHARDS as u64) as usize;
            let local = TrajectoryId((global / SHARDS as u64) as u32);
            let snap = cut.shard(shard);
            if local.index() >= snap.store().len() || !snap.live().is_live(local) {
                Err(format!("acked insert {global} lost after recovery"))
            } else if snap.store().get(local) != &bodies[trip].0 {
                Err(format!(
                    "acked insert {global} recovered with other contents"
                ))
            } else {
                Ok(())
            }
        })
        .collect()
}

/// A scratch directory for one run's durable state, removed on drop.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn new(data_dir: &Path) -> Result<RunDir, String> {
        let dir = data_dir.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
