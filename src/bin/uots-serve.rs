//! `uots-serve` — the UOTS query service as a standalone server.
//!
//! ```text
//! uots-serve --data data.uotsds [--listen 127.0.0.1:8080]
//!            [--http-threads N] [--batch-threads N]
//!            [--max-batch N] [--max-inflight N] [--tenant-inflight N]
//!            [--degraded-deadline-ms MS] [--degraded-max-visited N]
//!            [--force-algorithm expansion|iknn-baseline|text-first|brute-force]
//!            [--wal-dir DIR] [--fsync batch|off|interval:MS]
//!            [--shards N] [--partitioner hash|grid:CELLS]
//! ```
//!
//! Loads a dataset (the binary format of `uots generate`), publishes it
//! through an epoch manager, and serves `POST /search`, `/topk`, `/join`
//! and `/ingest` plus the full observability surface (`GET /metrics`,
//! `/status`, `/journal`, `/traces`) on one port. Every store is a
//! cluster of `--shards N` shards (default 1).
//!
//! With `--shards N` (N ≥ 2) the store is partitioned across `N` shards
//! and every endpoint routes through the scatter-gather coordinator
//! (`uots_core::shard`): searches fan out with global-threshold
//! push-back, `/ingest` routes each mutation to its owning shard, and
//! responses gain per-shard `epochs`. `--partitioner grid:CELLS` selects
//! the spatial-grid partitioner (volatile backend only; the durable
//! facade is hash-only).
//!
//! With `--wal-dir DIR`, `/ingest` goes through the durable WAL-backed
//! path. Shard `s` owns its own WAL + checkpoint lineage under
//! `DIR/shard-<s>/`, seeded with a checkpoint of its partition, so an
//! unsharded store lives in `DIR/shard-0/`. The directory decides
//! fresh-vs-resume: a first start creates the shards from `--data`; a
//! restart on the same DIR recovers every shard in parallel (checkpoint
//! plus WAL tail, no dataset needed) and serves every acked write under
//! its acked id. A DIR holding WAL segments at its root but no
//! `shard-0/` is refused, never rebuilt from the dataset.
//! `uots status --wal-dir DIR/shard-<s>` inspects one shard.
//!
//! The process runs until `POST /admin/shutdown` (or SIGKILL); shutdown
//! drains the worker threads and exits 0 — CI asserts this.
//!
//! By default the per-query algorithm is chosen by the adaptive planner
//! (`uots_core::planner`); `--force-algorithm` pins every query to one
//! algorithm, the escape hatch when the planner misjudges a workload.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use uots::cluster::{shard_dir, ShardedDurable};
use uots::core::planner::AlgorithmKind;
use uots::core::shard::{Partitioner, ShardedCluster};
use uots::core::wal;
use uots::datagen::{persist, Dataset};
use uots::obs::{EventJournal, ObsState, TailSampler, DEFAULT_EXEMPLAR_CAPACITY};
use uots::serve::{QueryService, ServiceConfig};
use uots::{EpochManager, ExecutionBudget, FsyncPolicy, MetricsRegistry, WalConfig};

struct Flags {
    pairs: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{}`", args[i]))?;
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    pairs.push((key.to_string(), v.clone()));
                    i += 2;
                }
                _ => {
                    pairs.push((key.to_string(), "true".to_string()));
                    i += 1;
                }
            }
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }
}

fn parse_or<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad value `{v}`")),
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args)?;
    let path = flags.require("data")?;
    let ds = persist::load_file(path).map_err(|e| format!("loading {path}: {e}"))?;

    let mut cfg = ServiceConfig {
        http_threads: parse_or(&flags, "http-threads", 4)?,
        batch_threads: parse_or(&flags, "batch-threads", 0)?,
        max_batch: parse_or(&flags, "max-batch", 1024)?,
        max_inflight: parse_or(&flags, "max-inflight", 4096)?,
        tenant_inflight: parse_or(&flags, "tenant-inflight", 64)?,
        ..ServiceConfig::default()
    };
    cfg.degraded_budget = ExecutionBudget::default()
        .with_deadline_ms(parse_or(&flags, "degraded-deadline-ms", 50u64)?)
        .with_max_visited(parse_or(&flags, "degraded-max-visited", 512usize)?)
        .with_max_settled(parse_or(&flags, "degraded-max-settled", 20_000usize)?);
    if let Some(name) = flags.get("force-algorithm") {
        cfg.force = Some(
            AlgorithmKind::parse(name)
                .ok_or_else(|| format!("--force-algorithm: unknown algorithm `{name}`"))?,
        );
    }

    let registry = MetricsRegistry::new();
    let journal = EventJournal::default();
    let sampler = TailSampler::new(DEFAULT_EXEMPLAR_CAPACITY);
    let name = ds.name.clone();
    let trajectories = ds.store.len();
    let obs = ObsState::new()
        .with_registry(registry.clone())
        .with_journal(journal.clone())
        .with_sampler(sampler.clone())
        .with_status(move || {
            format!("{{\"dataset\":\"{name}\",\"trajectories\":{trajectories},\"serving\":true}}")
        });

    let listen = flags.get("listen").unwrap_or("127.0.0.1:8080");
    let forced = cfg.force;
    let shards: usize = parse_or(&flags, "shards", 1usize)?;
    if shards == 0 {
        return Err("--shards: must be at least 1".to_string());
    }
    let partitioner = match flags.get("partitioner") {
        None | Some("hash") => Partitioner::Hash,
        Some(v) => match v.strip_prefix("grid:").and_then(|c| c.parse().ok()) {
            Some(cells_per_axis) if cells_per_axis > 0 => {
                Partitioner::SpatialGrid { cells_per_axis }
            }
            _ => {
                return Err(format!(
                    "--partitioner: expected hash or grid:CELLS, got `{v}`"
                ))
            }
        },
    };
    let mut service = match (flags.get("wal-dir"), shards) {
        (Some(dir), n) => {
            let fsync = FsyncPolicy::parse(flags.get("fsync").unwrap_or("batch"))
                .map_err(|e| format!("--fsync: {e}"))?;
            let config = WalConfig {
                fsync,
                ..WalConfig::default()
            };
            if n >= 2 && partitioner != Partitioner::Hash {
                return Err("--partitioner: the durable backend is hash-only".to_string());
            }
            let mut cluster = open_durable(Path::new(dir), n, &ds, config, &registry)?;
            cluster.set_journal(&journal);
            QueryService::start_sharded_durable(listen, cluster, registry, obs, cfg)
        }
        (None, n) if n >= 2 => {
            let cluster = ShardedCluster::with_metrics(
                Arc::new(ds.network.clone()),
                &ds.store,
                ds.vocab.len(),
                n,
                partitioner,
                &registry,
            );
            QueryService::start_sharded(listen, Arc::new(cluster), registry, obs, cfg)
        }
        (None, _) => {
            let mut manager = EpochManager::with_metrics(
                Arc::new(ds.network.clone()),
                ds.store.clone(),
                ds.vocab.len(),
                &registry,
            );
            manager.set_journal(journal.clone());
            QueryService::start(listen, Arc::new(manager), registry, obs, cfg)
        }
    }
    .map_err(|e| format!("binding {listen}: {e}"))?;

    println!("uots-serve: listening on http://{}", service.local_addr());
    println!(
        "uots-serve: {trajectories} trajectories live, planner {}, {shards} shard(s)",
        match forced {
            Some(kind) => format!("forced to {kind}"),
            None => "adaptive".to_string(),
        }
    );

    while !service.is_stopped() {
        std::thread::sleep(Duration::from_millis(50));
    }
    service.shutdown();
    println!("uots-serve: shutdown complete");
    Ok(())
}

/// The durable store under `dir`: recovered when `dir/shard-0/` exists,
/// created from the dataset when `dir` holds no WAL yet. WAL segments at
/// the root of `dir` (a layout without shard directories) are refused:
/// rebuilding from the dataset would drop their acked writes.
fn open_durable(
    dir: &Path,
    shards: usize,
    ds: &Dataset,
    config: WalConfig,
    registry: &MetricsRegistry,
) -> Result<ShardedDurable, String> {
    let shown = dir.display();
    if shard_dir(dir, 0).exists() {
        let (cluster, reports) = ShardedDurable::open(dir, shards, config, None, Some(registry))
            .map_err(|e| format!("recovering {shards} shard(s) in {shown}: {e}"))?;
        let slowest = reports.iter().map(|r| r.micros).max().unwrap_or(0);
        println!("uots-serve: recovered {shards} shard(s) in {slowest} us (max over shards)");
        return Ok(cluster);
    }
    let segments = wal::list_segments(dir).map_err(|e| format!("reading {shown}: {e}"))?;
    if !segments.is_empty() {
        return Err(format!(
            "--wal-dir {shown}: holds {} wal segment(s) but no shard-0/ \
             (a layout without shard directories); refusing to rebuild from the dataset over it",
            segments.len()
        ));
    }
    ShardedDurable::create(
        Arc::new(ds.network.clone()),
        &ds.store,
        &ds.vocab,
        dir,
        shards,
        config,
        None,
        Some(registry),
    )
    .map_err(|e| format!("creating {shards} shard wal(s) in {shown}: {e}"))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
