//! The untraced runs: each workload measured end to end over HTTP.

use std::path::PathBuf;
use std::time::Duration;

use crate::drive::{
    self, acked_inserts_live, closed_loop, expected_answers, ingest_schedule, open_loop,
    oracle_checks, IngestSample, RunDir, Sample, SetupTimes, Started, State,
};
use crate::gate::{check_topk, Answer};
use crate::input::{self, Inputs, Plan, PoolQuery, Scale};
use crate::stats::{finite, median, quantile, sorted};

/// The workloads, by their `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadMix,
    ReadLight,
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReadMix, Workload::ReadLight, Workload::WriteMix];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadMix => "read-mix",
            Workload::ReadLight => "read-light",
            Workload::WriteMix => "write-mix",
        }
    }
}

/// One run's settings.
pub struct Run {
    pub workload: Workload,
    pub scale: Scale,
    pub plan: Plan,
    pub seed: u64,
    pub seconds: u64,
    pub data_dir: PathBuf,
    /// Flip one bit of every expected answer (self-test of the gate).
    pub corrupt_expected: bool,
}

impl Run {
    pub fn inputs(&self) -> Result<Inputs, String> {
        let n = self.plan.ingest_count(self.seconds);
        input::ensure(&self.data_dir, self.scale, self.seed, n)
    }

    /// Expected answers as the gate uses them (corrupted on request).
    pub fn expected(&self, state: &State, pool: &[PoolQuery]) -> Vec<Answer> {
        let mut expected = expected_answers(state, pool);
        if self.corrupt_expected {
            for a in &mut expected {
                if let Some(first) = a.first_mut() {
                    first.1 ^= 1;
                }
            }
        }
        expected
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(e);
            }
        }
    }

    pub fn samples(&mut self, samples: &[Sample]) {
        for s in samples {
            self.record(s.outcome.clone());
        }
    }

    pub fn ingests(&mut self, samples: &[IngestSample]) {
        for s in samples {
            self.record(s.outcome.clone().map(|_| ()));
        }
    }
}

/// A metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// A finished run.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

fn latencies(samples: &[Sample]) -> Vec<f64> {
    sorted(&samples.iter().map(Sample::latency_ms).collect::<Vec<_>>())
}

/// The end-to-end metrics every workload prints.
struct EndToEnd {
    /// Seconds of each set-up.
    setup: Vec<f64>,
    /// Timed reads in sending order.
    reads: Vec<Sample>,
    /// Reads per throughput window (one pass over the pool).
    window: usize,
    ingests: Vec<IngestSample>,
    restarts: Vec<f64>,
    /// Peak RSS through set-up and the timed phase.
    rss_mb: f64,
}

/// Correct answers per second in consecutive windows of `window` reads
/// (first send to last answer); the median window is reported, so a
/// short stall of the machine moves one window, not the result.
fn window_rps(reads: &[Sample], window: usize) -> f64 {
    let rates: Vec<f64> = reads
        .chunks(window.max(1))
        .filter(|w| w.len() == window.max(1) || reads.len() < window)
        .map(|w| {
            let first = w.iter().map(|s| s.due).min().expect("non-empty window");
            let last = w.iter().map(|s| s.end).max().expect("non-empty window");
            let ok = w.iter().filter(|s| s.outcome.is_ok()).count();
            ok as f64 / last.duration_since(first).as_secs_f64()
        })
        .collect();
    median(&rates)
}

impl EndToEnd {
    fn metrics(&self, tally: &Tally) -> Vec<Metric> {
        let lat = latencies(&self.reads);
        let ingest = sorted(
            &self
                .ingests
                .iter()
                .map(IngestSample::latency_ms)
                .collect::<Vec<_>>(),
        );
        vec![
            metric("setup_s", median(&self.setup), "s"),
            metric("query_rps", window_rps(&self.reads, self.window), "1/s"),
            metric("query_p50_ms", finite(quantile(&lat, 0.5)), "ms"),
            metric("query_p99_ms", finite(quantile(&lat, 0.99)), "ms"),
            metric("ingest_p50_ms", finite(quantile(&ingest, 0.5)), "ms"),
            metric("ingest_p95_ms", finite(quantile(&ingest, 0.95)), "ms"),
            metric("recovery_s", median(&self.restarts), "s"),
            metric(
                "ok_frac",
                (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
                "frac",
            ),
            metric("rss_peak_mb", self.rss_mb, "MiB"),
        ]
    }
}

pub fn run(run: &Run) -> Result<Report, String> {
    match run.workload {
        Workload::ReadMix | Workload::ReadLight => read_workload(run),
        Workload::WriteMix => write_mix(run),
    }
}

/// Brings the volatile stack up `plan.setups` times and checks the first
/// answers; returns the starts, the last stack still running, and the
/// expected pool answers.
pub fn read_setup(
    run: &Run,
    inputs: &Inputs,
    pool: &[PoolQuery],
    tally: &mut Tally,
) -> Result<(Started<SetupTimes>, Vec<Answer>), String> {
    let started = drive::timed_starts(run.plan.setups, &pool[0], |_| {
        drive::start_volatile(&inputs.dataset)
    })?;
    let expected = run.expected(&started.stack.state, pool);
    for reply in &started.first {
        tally.record(check_topk(reply, &expected[0]));
    }
    for outcome in oracle_checks(&started.stack.state, pool, &expected) {
        tally.record(outcome);
    }
    Ok((started, expected))
}

/// `read-mix` (two closed-loop connections over the five-shape pool) or
/// `read-light` (open loop at a fixed rate over single-source k = 1
/// queries). Both end with timed restarts and a volatile ingest probe.
fn read_workload(run: &Run) -> Result<Report, String> {
    let inputs = run.inputs()?;
    let light = run.workload == Workload::ReadLight;
    let pool = input::load_pool(if light {
        &inputs.read_light
    } else {
        &inputs.read_mix
    })?;
    let trips = input::load_ingests(&inputs.ingest)?;
    let plan = run.plan;
    let mut tally = Tally::default();
    let (setup, expected) = read_setup(run, &inputs, &pool, &mut tally)?;
    let addr = setup.stack.addr();

    let warm: Vec<usize> = (0..pool.len()).collect();
    let warm_samples = closed_loop(addr, &pool, &expected, &warm, 2, None);
    tally.samples(&warm_samples);

    let mut notes = Vec::new();
    let reads = if light {
        let total = (plan.light_rate * run.seconds as f64).round() as usize;
        let order = input::order(pool.len(), total.max(1), run.seed);
        let (samples, lag) = open_loop(addr, &pool, &expected, &order, plan.light_rate);
        let lag = sorted(&lag);
        notes.push(format!(
            "read-light: offered {} req/s, {} requests; generator lag p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
            plan.light_rate,
            samples.len(),
            quantile(&lag, 0.5),
            quantile(&lag, 0.99),
            quantile(&lag, 1.0)
        ));
        samples
    } else {
        let total = plan.read_mix_per_s * run.seconds as usize;
        let order = input::order(pool.len(), total.max(pool.len()), run.seed);
        closed_loop(addr, &pool, &expected, &order, 2, None)
    };
    tally.samples(&reads);
    let rss_mb = drive::rss_peak_mb();
    let setup_secs = setup.secs();
    setup.stack.shutdown();

    // A volatile service recovers by starting again from the dataset
    // file; its first answer must be the one before any ingest. Each
    // restart then takes its share of the volatile ingests (one trip per
    // request, published before the ack), so restarts and ingests are
    // sampled across the same stretch of time, not in two short bursts.
    let share = plan.read_ingests.div_ceil(plan.restarts.max(1));
    let mut restart_secs = Vec::new();
    let mut ingests = Vec::new();
    for r in 0..plan.restarts.max(1) {
        let restarted =
            drive::timed_starts(1, &pool[0], |_| drive::start_volatile(&inputs.dataset))?;
        tally.record(check_topk(&restarted.first[0], &expected[0]));
        restart_secs.extend(restarted.secs());
        let mine = (r * share).min(plan.read_ingests)..((r + 1) * share).min(plan.read_ingests);
        ingests.extend(ingest_schedule(
            restarted.stack.addr(),
            &trips,
            mine,
            Duration::ZERO,
        ));
        restarted.stack.shutdown();
    }
    tally.ingests(&ingests);

    let e2e = EndToEnd {
        setup: setup_secs,
        reads,
        window: pool.len(),
        ingests,
        restarts: restart_secs,
        rss_mb,
    };
    let metrics = e2e.metrics(&tally);
    Ok(Report {
        tally,
        metrics,
        notes,
    })
}

/// `write-mix`: a 2-shard durable cluster; one connection reads the
/// `read-mix` subset closed loop while the other ingests single trips on
/// a fixed schedule; then shutdown and timed recovery.
fn write_mix(run: &Run) -> Result<Report, String> {
    let inputs = run.inputs()?;
    let pool = input::load_pool(&inputs.write_mix)?;
    if pool.is_empty() {
        return Err("the write-mix pool is empty".into());
    }
    let trips = input::load_ingests(&inputs.ingest)?;
    let plan = run.plan;
    let dir = RunDir::new(&run.data_dir)?;
    let mut tally = Tally::default();

    let root = |i: usize| dir.0.join(format!("cluster-{i}"));
    let setup = drive::timed_starts(plan.setups, &pool[0], |i| {
        drive::start_durable(&inputs.dataset, &root(i))
    })?;
    let cluster_dir = root(setup.runs.len() - 1);
    let stack = setup.stack;
    let expected = run.expected(&stack.state, &pool);
    for reply in &setup.first {
        tally.record(check_topk(reply, &expected[0]));
    }
    for outcome in oracle_checks(&stack.state, &pool, &expected) {
        tally.record(outcome);
    }
    let addr = stack.addr();
    let all: Vec<usize> = (0..pool.len()).collect();
    let warm = closed_loop(addr, &pool, &expected, &all, 1, None);
    tally.samples(&warm);

    let reads_total = plan.write_reads_per_s * run.seconds as usize;
    let order = input::order(pool.len(), reads_total.max(1), run.seed);
    let n_ingest = plan.write_ingests(run.seconds);
    let interval = Duration::from_secs_f64(run.seconds as f64 / n_ingest as f64);
    let (reads, ingests) = std::thread::scope(|s| {
        let writer = s.spawn(|| ingest_schedule(addr, &trips, 0..n_ingest, interval));
        let reads = closed_loop(addr, &pool, &expected, &order, 1, None);
        (reads, writer.join().expect("ingest thread panicked"))
    });
    tally.samples(&reads);
    tally.ingests(&ingests);
    let rss_mb = drive::rss_peak_mb();

    // The pool must answer the same before shutdown and after recovery.
    let before = closed_loop(addr, &pool, &expected, &all, 1, None);
    tally.samples(&before);
    stack.shutdown();

    let restarts = drive::timed_starts(plan.restarts, &pool[0], |_| {
        drive::reopen_durable(&cluster_dir)
    })?;
    for reply in &restarts.first {
        tally.record(check_topk(reply, &expected[0]));
    }
    let stack = restarts.stack;
    if let State::Cluster(cut) = &stack.state {
        let acked = ingests
            .iter()
            .filter_map(|s| s.outcome.as_ref().ok().map(|&g| (g, s.trip)));
        for outcome in acked_inserts_live(cut, acked, &trips) {
            tally.record(outcome);
        }
    }
    let after = closed_loop(stack.addr(), &pool, &expected, &all, 1, None);
    tally.samples(&after);
    stack.shutdown();

    let overlap = overlap_split(&reads, &ingests);
    let notes = vec![format!(
        "write-mix: {} reads over {} queries, {} ingests every {:.0} ms; reads overlapping an ingest: {}",
        reads.len(),
        pool.len(),
        ingests.len(),
        interval.as_secs_f64() * 1e3,
        overlap.0.len()
    )];
    let e2e = EndToEnd {
        setup: setup.runs.iter().map(|r| r.0).collect(),
        reads,
        window: pool.len(),
        ingests,
        restarts: restarts.runs.iter().map(|r| r.0).collect(),
        rss_mb,
    };
    let metrics = e2e.metrics(&tally);
    Ok(Report {
        tally,
        metrics,
        notes,
    })
}

/// Read latencies split by whether the read overlapped an in-flight
/// `/ingest`: `(overlapping, not overlapping)`, in ms.
pub fn overlap_split(reads: &[Sample], ingests: &[IngestSample]) -> (Vec<f64>, Vec<f64>) {
    let mut split = (Vec::new(), Vec::new());
    for r in reads {
        let overlaps = ingests.iter().any(|w| w.start < r.end && r.start < w.end);
        if overlaps {
            split.0.push(r.latency_ms());
        } else {
            split.1.push(r.latency_ms());
        }
    }
    split
}
