//! The traced run: every workload's requests replayed through the
//! layers' public functions, one at a time, with a span around each call.
//!
//! Spans are recorded here, around calls into the program; nothing inside
//! the program is instrumented. Each per-layer metric is measured on the
//! workload it should explain:
//!
//! * `read-mix` pool → `planner.*`, `engine.*`;
//! * `read-light` pool → `parallel.dispatch_us`, `serve.overhead_ms`;
//! * a durable 2-shard cluster → `shard.*`, `epoch.publish_ms`,
//!   `cluster.publish_all_ms`, `wal.*`, `recovery.*` and the read latency
//!   split by overlap with an in-flight `/ingest`;
//! * every stack set-up → `persist.load_ms`, `epoch.build_ms`;
//! * `/metrics` scraped before and after → `serve.shed`, `serve.degraded`.
//!
//! `trace.overhead_frac` compares the median HTTP latency of the named
//! workload's requests replayed with spans and layer calls against the
//! same requests replayed over HTTP alone.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use uots::algorithms::Algorithm;
use uots::core::{AlgorithmKind, Planner};
use uots::{
    parallel, BatchOptions, BatchPolicy, CancellationToken, Phase, Recorder, RunControl,
    SearchContext,
};

use crate::drive::{
    self, acked_inserts_live, closed_loop, ingest_schedule, RunDir, Stack, State, SHARDS,
};
use crate::gate::{answer_of, check_topk, Answer};
use crate::http;
use crate::input::{self, PoolQuery};
use crate::stats::{mean, median, quantile, sorted};
use crate::workloads::{metric, overlap_split, read_setup, Metric, Report, Run, Tally, Workload};

/// Planner route reasons, as `planner.route_share.<reason>` names them.
pub const ROUTES: [&str; 5] = [
    "single-source",
    "default-expansion",
    "rare-keywords-text-dominated",
    "full-drain-shape",
    "tiny-live",
];

/// One recorded span.
struct Span {
    request: u64,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; written out when the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that stays the parent of later spans until closed.
    fn enter(&mut self, request: u64, name: &'static str) {
        let span = Span {
            request,
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span; returns its duration in ms.
    fn exit(&mut self) -> f64 {
        let i = self.open.pop().expect("exit without enter");
        let end = self.now_ns();
        let s = &mut self.spans[i];
        s.end_ns = end;
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span; returns its value and duration in ms.
    fn span<T>(&mut self, request: u64, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.enter(request, name);
        let value = f();
        (value, self.exit())
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                r#"{{"id":{i},"request":{},"name":"{}","parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.request,
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one replayed `/topk` request measured.
struct Replayed {
    shape: String,
    route: &'static str,
    decide_ms: f64,
    engine_ms: f64,
    phases_ms: [f64; 4],
    counts: [f64; 4],
    pruning: f64,
    regret_ms: Option<f64>,
    dispatch_ms: f64,
    http_ms: f64,
    overhead_ms: f64,
}

const PHASES: [Phase; 4] = [
    Phase::NetworkExpansion,
    Phase::TextFilter,
    Phase::CandidateRefine,
    Phase::HeapMaintenance,
];

/// Replays one query through pin → plan → engine (recorded) → the
/// service's batch executor → HTTP, checking every answer on the way.
#[allow(clippy::too_many_arguments)]
fn replay_one(
    tr: &mut Tracer,
    tally: &mut Tally,
    id: u64,
    stack: &Stack,
    q: &PoolQuery,
    expected: &Answer,
    regret: bool,
) -> Replayed {
    let State::Volatile(manager) = &stack.state else {
        unreachable!("the read replay runs on the volatile stack")
    };
    tr.enter(id, "request");
    let (snap, _) = tr.span(id, "epoch.pin", || manager.snapshot());
    let db = snap.database();
    let live = db.num_live();
    let (decision, decide_ms) = tr.span(id, "planner.decide", || {
        Planner::new().decide(&db, &q.query)
    });
    let mut rec = Recorder::phases_only("servebench");
    let (result, engine_ms) = tr.span(id, "engine.run", || {
        decision
            .kind
            .instantiate()
            .run_recorded(&db, &q.query, &RunControl::unbounded(), &mut rec)
    });
    let result = result.expect("pool queries are valid");
    tally.record(same(&answer_of(&result), expected, "engine.run"));
    let regret_ms = regret.then(|| {
        let mut chosen = 0.0;
        let mut best = f64::INFINITY;
        for kind in AlgorithmKind::ALL {
            let (r, ms) = tr.span(id, "planner.forced", || {
                kind.instantiate()
                    .run_with(&db, &q.query, &RunControl::unbounded())
            });
            let r = r.expect("pool queries are valid");
            tally.record(same(&answer_of(&r), expected, kind.name()));
            best = best.min(ms);
            if kind == decision.kind {
                chosen = ms;
            }
        }
        chosen - best
    });
    let opts = BatchOptions {
        policy: BatchPolicy::Partial,
        deadline: None,
        max_batch: Some(1024),
        threads: 0,
    };
    let (batch, batch_ms) = tr.span(id, "parallel.batch", || {
        parallel::run_batch_ctx(
            &db,
            &Planner::new(),
            std::slice::from_ref(&q.query),
            &opts,
            &CancellationToken::new(),
            &SearchContext::new(),
        )
    });
    let batch_ok = match batch {
        Ok(mut v) => match v.pop() {
            Some(Ok(r)) => same(&answer_of(&r), expected, "parallel.batch"),
            Some(Err(e)) => Err(e.to_string()),
            None => Err("empty batch".into()),
        },
        Err(e) => Err(e.to_string()),
    };
    tally.record(batch_ok);
    let (_, direct_ms) = tr.span(id, "planner.run", || {
        Planner::new().run_with(&db, &q.query, &RunControl::unbounded())
    });
    let (reply, http_ms) = tr.span(id, "serve.http", || {
        http::post(stack.addr(), "/topk", &q.body)
    });
    tally.record(check_topk(&reply, expected));
    tr.exit();

    let m = &result.metrics;
    Replayed {
        shape: q.shape.clone(),
        route: decision.reason,
        decide_ms,
        engine_ms,
        phases_ms: PHASES.map(|p| m.phases.nanos(p) as f64 / 1e6),
        counts: [
            m.settled_vertices as f64,
            m.visited_trajectories as f64,
            m.candidates as f64,
            m.heap_pushes as f64,
        ],
        pruning: m.pruning_ratio(live),
        regret_ms,
        dispatch_ms: batch_ms - direct_ms,
        http_ms,
        overhead_ms: http_ms - batch_ms,
    }
}

fn same(got: &Answer, expected: &Answer, what: &str) -> Result<(), String> {
    if got == expected {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, expected {expected:?}"))
    }
}

/// Replays `idx` of `pool` over HTTP alone, one at a time; returns the
/// median latency in ms.
fn plain_http_ms(
    addr: SocketAddr,
    pool: &[PoolQuery],
    expected: &[Answer],
    idx: &[usize],
    tally: &mut Tally,
) -> f64 {
    let samples = closed_loop(addr, pool, expected, idx, 1, None);
    tally.samples(&samples);
    median(&samples.iter().map(|s| s.latency_ms()).collect::<Vec<_>>())
}

/// The first `per_shape` queries of every shape of `pool`.
fn per_shape(pool: &[PoolQuery], per_shape: usize) -> Vec<usize> {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    (0..pool.len())
        .filter(|&i| {
            let n = seen.entry(pool[i].shape.as_str()).or_default();
            *n += 1;
            *n <= per_shape
        })
        .collect()
}

/// `uots_serve_shed_total` and `uots_serve_degraded_total` from `/metrics`.
fn shed_degraded(stack: &Stack) -> [f64; 2] {
    let text = http::scrape(stack.addr()).unwrap_or_default();
    ["uots_serve_shed_total", "uots_serve_degraded_total"].map(|m| http::metric(&text, m))
}

fn of(rows: &[Replayed], f: impl Fn(&Replayed) -> f64) -> Vec<f64> {
    rows.iter().map(f).collect()
}

/// Planner and engine metrics from the `read-mix` replay; dispatch and
/// serve overhead from the `read-light` replay.
fn read_metrics(mix: &[Replayed], light: &[Replayed], out: &mut Vec<Metric>) {
    out.push(metric(
        "planner.decide_us",
        mean(&of(mix, |r| r.decide_ms * 1e3)),
        "us",
    ));
    for route in ROUTES {
        let share = mix.iter().filter(|r| r.route == route).count() as f64 / mix.len() as f64;
        out.push(metric(
            format!("planner.route_share.{route}"),
            share,
            "frac",
        ));
    }
    let regret: Vec<f64> = mix.iter().filter_map(|r| r.regret_ms).collect();
    out.push(metric("planner.regret_ms", mean(&regret), "ms"));
    out.push(metric(
        "engine.query_ms",
        mean(&of(mix, |r| r.engine_ms)),
        "ms",
    ));
    let phases = [
        "network_expansion",
        "text_filter",
        "candidate_refine",
        "heap_maintenance",
    ];
    for (i, name) in phases.iter().enumerate() {
        let v = mean(&of(mix, |r| r.phases_ms[i]));
        out.push(metric(format!("engine.{name}_ms"), v, "ms"));
    }
    let counts = ["settled_vertices", "visited", "candidates", "heap_pushes"];
    for (i, name) in counts.iter().enumerate() {
        out.push(metric(
            format!("engine.{name}"),
            mean(&of(mix, |r| r.counts[i])),
            "count",
        ));
    }
    out.push(metric(
        "engine.pruning_ratio",
        mean(&of(mix, |r| r.pruning)),
        "frac",
    ));
    let dispatch = median(&of(light, |r| r.dispatch_ms * 1e3));
    out.push(metric("parallel.dispatch_us", dispatch, "us"));
    out.push(metric(
        "serve.overhead_ms",
        median(&of(light, |r| r.overhead_ms)),
        "ms",
    ));
}

pub fn run(run: &Run) -> Result<Report, String> {
    let inputs = run.inputs()?;
    let read_mix = input::load_pool(&inputs.read_mix)?;
    let read_light = input::load_pool(&inputs.read_light)?;
    let write_pool = input::load_pool(&inputs.write_mix)?;
    let trips = input::load_ingests(&inputs.ingest)?;
    let plan = run.plan;
    let mut tally = Tally::default();
    let mut tr = Tracer::new();
    let mut out: Vec<Metric> = Vec::new();

    // ---- read path: set-up, planner, engine, dispatch, serve ----
    let (started, expected_mix) = read_setup(run, &inputs, &read_mix, &mut tally)?;
    let ms = |f: fn(&drive::SetupTimes) -> Duration| -> Vec<f64> {
        started
            .runs
            .iter()
            .map(|(_, t)| f(t).as_secs_f64() * 1e3)
            .collect()
    };
    let (load, build) = (ms(|t| t.load), ms(|t| t.build));
    let stack = started.stack;
    out.push(metric("persist.load_ms", median(&load), "ms"));
    out.push(metric("epoch.build_ms", median(&build), "ms"));
    let expected_light = run.expected(&stack.state, &read_light);
    let counters0 = shed_degraded(&stack);
    let mix_idx = per_shape(&read_mix, plan.trace_per_shape);
    let light_idx: Vec<usize> = (0..read_light.len().min(plan.light_pool)).collect();
    let plain_ms = match run.workload {
        Workload::ReadMix => {
            plain_http_ms(stack.addr(), &read_mix, &expected_mix, &mix_idx, &mut tally)
        }
        Workload::ReadLight => plain_http_ms(
            stack.addr(),
            &read_light,
            &expected_light,
            &light_idx,
            &mut tally,
        ),
        Workload::WriteMix => f64::NAN,
    };
    let mut replay = |pool: &[PoolQuery], expected: &[Answer], idx: &[usize], base: u64, regret| {
        idx.iter()
            .map(|&i| {
                let id = base + i as u64;
                replay_one(
                    &mut tr,
                    &mut tally,
                    id,
                    &stack,
                    &pool[i],
                    &expected[i],
                    regret,
                )
            })
            .collect::<Vec<Replayed>>()
    };
    let mix = replay(&read_mix, &expected_mix, &mix_idx, 0, true);
    let light = replay(&read_light, &expected_light, &light_idx, 100_000, false);
    let counters1 = shed_degraded(&stack);
    stack.shutdown();
    read_metrics(&mix, &light, &mut out);

    // ---- write path: durable cluster in-process, then over HTTP ----
    let expected_w: Vec<Answer> = write_pool
        .iter()
        .map(|p| {
            let i = read_mix.iter().position(|q| q.body == p.body);
            expected_mix[i.expect("the write-mix pool is a read-mix subset")].clone()
        })
        .collect();
    let dir = RunDir::new(&run.data_dir)?;
    let (stack_w, wal_bytes) = write_layers(
        &mut tr,
        &mut tally,
        &inputs,
        &dir.0.join("cluster"),
        (&write_pool, &expected_w),
        &trips[..plan.trace_ingests],
        &mut out,
    )?;
    let counters2 = shed_degraded(&stack_w);
    let w_idx: Vec<usize> = (0..write_pool.len()).collect();
    let plain_ms = if run.workload == Workload::WriteMix {
        plain_http_ms(stack_w.addr(), &write_pool, &expected_w, &w_idx, &mut tally)
    } else {
        plain_ms
    };
    let mut traced_w = Vec::new();
    if let State::Cluster(cut) = &stack_w.state {
        for (i, q) in write_pool.iter().enumerate() {
            let id = 200_000 + i as u64;
            tr.enter(id, "request");
            let (a, _) = tr.span(id, "shard.search", || cut.search(&Planner::new(), &q.query));
            let a = a.map_err(|e| e.to_string());
            tally.record(
                a.and_then(|a| same(&answer_of(&a.result), &expected_w[i], "shard.search")),
            );
            let (reply, ms) = tr.span(id, "serve.http", || {
                http::post(stack_w.addr(), "/topk", &q.body)
            });
            tally.record(check_topk(&reply, &expected_w[i]));
            traced_w.push(ms);
            tr.exit();
        }
    }
    // One connection reads while the other ingests: the publish stall.
    let order = input::order(write_pool.len(), write_pool.len(), run.seed);
    let extra = plan.trace_ingests..(2 * plan.trace_ingests).min(trips.len());
    let writing = AtomicBool::new(false);
    let (reads, ingests) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let out = ingest_schedule(stack_w.addr(), &trips, extra, Duration::from_millis(250));
            writing.store(true, Ordering::SeqCst);
            out
        });
        let reads = closed_loop(
            stack_w.addr(),
            &write_pool,
            &expected_w,
            &order,
            1,
            Some(&writing),
        );
        (reads, writer.join().expect("ingest thread panicked"))
    });
    tally.samples(&reads);
    tally.ingests(&ingests);
    let (over, clear) = overlap_split(&reads, &ingests);
    let p99 = |v: &[f64]| quantile(&sorted(v), 0.99);
    out.push(metric(
        "serve.query_p99_ms.overlap_ingest",
        p99(&over),
        "ms",
    ));
    out.push(metric("serve.query_p99_ms.no_overlap", p99(&clear), "ms"));
    let counters3 = shed_degraded(&stack_w);
    stack_w.shutdown();
    drop(dir);
    for (i, name) in ["serve.shed", "serve.degraded"].iter().enumerate() {
        let n = counters1[i] - counters0[i] + counters3[i] - counters2[i];
        out.push(metric(*name, n, "count"));
    }

    let traced_ms = match run.workload {
        Workload::ReadMix => median(&of(&mix, |r| r.http_ms)),
        Workload::ReadLight => median(&of(&light, |r| r.http_ms)),
        Workload::WriteMix => median(&traced_w),
    };
    out.push(metric(
        "trace.overhead_frac",
        traced_ms / plain_ms - 1.0,
        "frac",
    ));

    let mut notes = table(&mix, &light, &over, &clear, wal_bytes);
    let spans = run
        .data_dir
        .join(format!("trace-{}-{}.jsonl", run.workload.name(), run.seed));
    tr.write(&spans)
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    notes.push(format!(
        "spans: {} written to {}",
        tr.spans.len(),
        spans.display()
    ));
    Ok(Report {
        tally,
        metrics: out,
        notes,
    })
}

/// The write path through its public functions: `ShardedDurable::create`,
/// `ClusterSnapshot::search`, `ShardedDurable::ingest` (WAL append and
/// apply), publish per shard and cluster-wide, then `ShardedDurable::open`.
/// Returns the recovered cluster's stack and the WAL bytes per insert.
fn write_layers(
    tr: &mut Tracer,
    tally: &mut Tally,
    inputs: &input::Inputs,
    root: &Path,
    (pool, expected): (&[PoolQuery], &[Answer]),
    trips: &[(uots::Trajectory, String)],
    out: &mut Vec<Metric>,
) -> Result<(Stack, f64), String> {
    let ds = uots::datagen::persist::load_file(&inputs.dataset)
        .map_err(|e| format!("loading the dataset: {e}"))?;
    let registry = uots::MetricsRegistry::new();
    let id = 300_000;
    let (cluster, _) = tr.span(id, "cluster.create", || {
        uots::cluster::ShardedDurable::create(
            std::sync::Arc::new(ds.network.clone()),
            &ds.store,
            &ds.vocab,
            root,
            SHARDS,
            uots::WalConfig::default(),
            None,
            Some(&registry),
        )
    });
    drop(ds);
    let mut cluster = cluster.map_err(|e| format!("creating the cluster: {e}"))?;
    let cut = cluster.snapshot();
    let (mut search_ms, mut cut_n, mut cancelled_n) = (Vec::new(), 0.0, 0.0);
    for (q, want) in pool.iter().zip(expected) {
        let (a, ms) = tr.span(id, "shard.search", || cut.search(&Planner::new(), &q.query));
        search_ms.push(ms);
        match a {
            Ok(a) => {
                tally.record(same(&answer_of(&a.result), want, "shard.search"));
                cut_n += a.shards_cut as f64;
                cancelled_n += a.shards_cancelled as f64;
            }
            Err(e) => tally.record(Err(e.to_string())),
        }
    }
    let nq = pool.len().max(1) as f64;
    out.push(metric("shard.search_ms", mean(&search_ms), "ms"));
    out.push(metric("shard.cut_per_query", cut_n / nq, "count"));
    out.push(metric(
        "shard.cancelled_per_query",
        cancelled_n / nq,
        "count",
    ));

    let wal_bytes = || {
        let c = registry.snapshot().counter("uots_wal_bytes_total", &[]);
        c.unwrap_or(0) as f64
    };
    let bytes0 = wal_bytes();
    let (mut apply, mut publish_all, mut publish) = (Vec::new(), Vec::new(), Vec::new());
    let mut acked = Vec::new();
    for (k, (t, _)) in trips.iter().enumerate() {
        let (r, ms) = tr.span(id, "wal.apply", || cluster.ingest(t.clone()));
        apply.push(ms);
        match r {
            Ok(g) => acked.push((u64::from(g.0), k)),
            Err(e) => tally.record(Err(format!("ingest: {e}"))),
        }
        // Alternate the two publish entry points so both are timed.
        if k % 2 == 0 {
            let (r, ms) = tr.span(id, "cluster.publish_all", || {
                cluster.publish_all().map(|_| ())
            });
            tally.record(r.map_err(|e| e.to_string()));
            publish_all.push(ms);
        } else {
            for s in 0..SHARDS {
                let (r, ms) = tr.span(id, "epoch.publish", || {
                    cluster.shard_mut(s).publish().map(|_| ())
                });
                tally.record(r.map_err(|e| e.to_string()));
                publish.push(ms);
            }
        }
    }
    let bytes_per_insert = (wal_bytes() - bytes0) / trips.len().max(1) as f64;
    out.push(metric("epoch.publish_ms", mean(&publish), "ms"));
    out.push(metric("cluster.publish_all_ms", mean(&publish_all), "ms"));
    out.push(metric("wal.apply_ms", mean(&apply), "ms"));
    out.push(metric("wal.bytes_per_insert", bytes_per_insert, "B"));
    drop(cluster);

    let (reopened, _) = tr.span(id, "recovery.open", || drive::reopen_durable(root));
    let (stack, reports) = reopened?;
    let replayed: u64 = reports.iter().map(|r| r.replayed_batches).sum();
    let slowest = reports
        .iter()
        .map(|r| r.micros as f64 / 1e3)
        .fold(0.0, f64::max);
    out.push(metric(
        "recovery.replayed_batches",
        replayed as f64,
        "count",
    ));
    out.push(metric("recovery.shard_ms", slowest, "ms"));
    if let State::Cluster(cut) = &stack.state {
        for outcome in acked_inserts_live(cut, acked, trips) {
            tally.record(outcome);
        }
    }
    Ok((stack, bytes_per_insert))
}

/// The traced-run table: per-request serve overhead against engine time
/// on both read workloads, planner regret per shape, and the write-mix
/// publish-stall split.
fn table(
    mix: &[Replayed],
    light: &[Replayed],
    over: &[f64],
    clear: &[f64],
    wal_bytes: f64,
) -> Vec<String> {
    let mut lines = vec![
        "traced run: per-request layer times in ms (p50 / p99 over the replayed requests)"
            .to_string(),
        format!(
            "{:<11} {:<8} {:>4}  {:>21}  {:>21}  {:>21}  {}",
            "workload",
            "shape",
            "n",
            "serve.overhead_ms",
            "engine.query_ms",
            "planner.regret_ms",
            "routes"
        ),
    ];
    let pq = |v: Vec<f64>| {
        let s = sorted(&v);
        format!("{:>9.3} / {:>9.3}", quantile(&s, 0.5), quantile(&s, 0.99))
    };
    let mut row = |workload: &str, shape: &str, rows: Vec<&Replayed>| {
        let mut routes: BTreeMap<&str, usize> = BTreeMap::new();
        for r in &rows {
            *routes.entry(r.route).or_default() += 1;
        }
        let regret: Vec<f64> = rows.iter().filter_map(|r| r.regret_ms).collect();
        lines.push(format!(
            "{:<11} {:<8} {:>4}  {}  {}  {:>21}  {:?}",
            workload,
            shape,
            rows.len(),
            pq(rows.iter().map(|r| r.overhead_ms).collect()),
            pq(rows.iter().map(|r| r.engine_ms).collect()),
            if regret.is_empty() {
                "-".to_string()
            } else {
                pq(regret)
            },
            routes
        ));
    };
    row("read-light", "m1-k1", light.iter().collect());
    let mut shapes: Vec<&str> = mix.iter().map(|r| r.shape.as_str()).collect();
    shapes.dedup();
    for shape in shapes {
        row(
            "read-mix",
            shape,
            mix.iter().filter(|r| r.shape == shape).collect(),
        );
    }
    row("read-mix", "all", mix.iter().collect());
    lines.push(format!(
        "write-mix  serve.query_p99_ms.overlap_ingest {:.3} (n={})  serve.query_p99_ms.no_overlap {:.3} (n={})  wal.bytes_per_insert {:.0}",
        quantile(&sorted(over), 0.99),
        over.len(),
        quantile(&sorted(clear), 0.99),
        clear.len(),
        wal_bytes
    ));
    lines
}
