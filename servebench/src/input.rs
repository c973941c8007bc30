//! Benchmark inputs: the dataset file the service loads, the request
//! pools, and the trips the write path ingests.
//!
//! Everything here is made by [`generate`], which runs in a child process
//! (`servebench --generate`), so neither its time nor its memory counts
//! toward any metric. Files are written once and reused by path:
//!
//! | File | Depends on |
//! |---|---|
//! | `<scale>/dataset.uotsds` | scale (the preset's fixed city and trips) |
//! | `<scale>/read-mix.tsv`, `<scale>/read-light.tsv` | scale (fixed pools) |
//! | `<scale>/ingest-<seed>-<n>.jsonl` | seed: `n` trips to ingest |
//! | `<scale>/write-mix-<seed>-<n>.tsv` | seed: the read pool of `write-mix` |
//!
//! The seed draws the trips to ingest and, in the workloads, the order of
//! requests. The dataset and the query pools are fixed per scale: drawn
//! from the seed, 32 queries per shape gave a pool median between 8.1 and
//! 15.8 ms over four seeds on the same dataset, a spread no usable bound
//! can hold.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use serde::{Content, Deserialize, Serialize};
use uots::algorithms::Algorithm;
use uots::core::Planner;
use uots::datagen::persist;
use uots::trajectory::TripGenerator;
use uots::workload::{self, WorkloadConfig};
use uots::{
    Dataset, DatasetConfig, EpochManager, KeywordId, KeywordSet, NodeId, QueryOptions, Trajectory,
    UotsQuery, Weights,
};

use crate::gate::{answer_of, Answer};

/// Dataset size and request counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// BRN-like city (28,224 vertices), |P| = 20,000: the measured scale.
    Brn,
    /// A 30×30 city with 400 trips: the self-test scale.
    Tiny,
}

/// Request counts and repetitions of one scale. Counts that grow with
/// `--seconds` are per second of the requested run length, so every run
/// of the same length has the same number of samples.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// `read-mix` pool: queries per shape.
    pub per_shape: usize,
    /// `read-light` pool size.
    pub light_pool: usize,
    /// `read-mix` timed requests per second of run length.
    pub read_mix_per_s: usize,
    /// `read-light` offered rate (requests per second).
    pub light_rate: f64,
    /// `write-mix` timed reads per second of run length.
    pub write_reads_per_s: usize,
    /// `write-mix` ingests per second of run length.
    pub ingests_per_s: f64,
    /// Set-ups per run (the median is reported).
    pub setups: usize,
    /// Restarts per run (the median is reported as `recovery_s`).
    pub restarts: usize,
    /// Ingests timed on the read workloads' volatile service.
    pub read_ingests: usize,
    /// Traced run: `read-mix` queries per shape replayed through the layers.
    pub trace_per_shape: usize,
    /// Traced run: ingests replayed through the durable cluster.
    pub trace_ingests: usize,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "brn" => Some(Scale::Brn),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Brn => "brn",
            Scale::Tiny => "tiny",
        }
    }

    pub fn dataset_config(self) -> DatasetConfig {
        match self {
            Scale::Brn => DatasetConfig::brn_like(20_000),
            Scale::Tiny => DatasetConfig::small(400, 0x5e7e),
        }
    }

    pub fn plan(self) -> Plan {
        match self {
            Scale::Brn => Plan {
                per_shape: 32,
                light_pool: 200,
                read_mix_per_s: 56,
                light_rate: 300.0,
                write_reads_per_s: 50,
                ingests_per_s: 2.0,
                setups: 7,
                restarts: 9,
                read_ingests: 45,
                trace_per_shape: 6,
                trace_ingests: 12,
            },
            Scale::Tiny => Plan {
                per_shape: 4,
                light_pool: 20,
                read_mix_per_s: 20,
                light_rate: 50.0,
                write_reads_per_s: 20,
                ingests_per_s: 4.0,
                setups: 2,
                restarts: 2,
                read_ingests: 4,
                trace_per_shape: 2,
                trace_ingests: 4,
            },
        }
    }
}

impl Plan {
    /// Trips the run may ingest: enough for the write phase, the read
    /// workloads' ingest probe and the traced run's two ingest phases.
    pub fn ingest_count(&self, seconds: u64) -> usize {
        self.write_ingests(seconds)
            .max(self.read_ingests)
            .max(2 * self.trace_ingests)
    }

    pub fn write_ingests(&self, seconds: u64) -> usize {
        ((self.ingests_per_s * seconds as f64).ceil() as usize).max(1)
    }
}

/// A query shape of the `read-mix` pool.
pub struct Shape {
    pub name: &'static str,
    pub m: usize,
    pub keywords: usize,
    pub lambda: f64,
    /// Keywords are drawn from the rare band (document frequency 1–5% of
    /// the live trips) instead of the trip tag model.
    pub rare: bool,
}

/// The five `read-mix` shapes, all at k = 3.
pub const SHAPES: [Shape; 5] = [
    Shape {
        name: "m1",
        m: 1,
        keywords: 3,
        lambda: 0.5,
        rare: false,
    },
    Shape {
        name: "m2",
        m: 2,
        keywords: 3,
        lambda: 0.5,
        rare: false,
    },
    Shape {
        name: "m4",
        m: 4,
        keywords: 3,
        lambda: 0.5,
        rare: false,
    },
    Shape {
        name: "m3-rare",
        m: 3,
        keywords: 2,
        lambda: 0.1,
        rare: true,
    },
    Shape {
        name: "m10",
        m: 10,
        keywords: 1,
        lambda: 0.5,
        rare: false,
    },
];

/// The shape `write-mix` leaves out of its read subset: at ~180 ms a
/// query, one closed-loop connection would spend the run on it.
pub const WRITE_MIX_SKIPS: &str = "m10";

const READ_K: usize = 3;
const POOL_SEED: u64 = 0x7201_5eed;
const INGEST_SALT: u64 = 0x1a6e_57ed;

/// One request of a pool: its shape, wire body and parsed query.
pub struct PoolQuery {
    pub shape: String,
    pub body: String,
    pub query: UotsQuery,
}

/// Paths of one run's inputs.
pub struct Inputs {
    pub dataset: PathBuf,
    pub read_mix: PathBuf,
    pub read_light: PathBuf,
    pub write_mix: PathBuf,
    pub ingest: PathBuf,
}

impl Inputs {
    pub fn new(dir: &Path, scale: Scale, seed: u64, ingests: usize) -> Inputs {
        let d = dir.join(scale.name());
        Inputs {
            dataset: d.join("dataset.uotsds"),
            read_mix: d.join("read-mix.tsv"),
            read_light: d.join("read-light.tsv"),
            write_mix: d.join(format!("write-mix-{seed}-{ingests}.tsv")),
            ingest: d.join(format!("ingest-{seed}-{ingests}.jsonl")),
        }
    }

    fn all(&self) -> [&Path; 5] {
        [
            &self.dataset,
            &self.read_mix,
            &self.read_light,
            &self.write_mix,
            &self.ingest,
        ]
    }
}

/// Makes sure every input of `(scale, seed)` exists, generating the
/// missing ones in a child process (`servebench --generate`).
pub fn ensure(dir: &Path, scale: Scale, seed: u64, ingests: usize) -> Result<Inputs, String> {
    let inputs = Inputs::new(dir, scale, seed, ingests);
    if inputs.all().iter().all(|p| p.exists()) {
        return Ok(inputs);
    }
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let status = Command::new(exe)
        .args(["--generate", "--scale", scale.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--ingests", &ingests.to_string()])
        .arg("--data-dir")
        .arg(dir)
        .status()
        .map_err(|e| format!("starting the input generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }
    match inputs.all().iter().find(|p| !p.exists()) {
        Some(p) => Err(format!("input generator left {} missing", p.display())),
        None => Ok(inputs),
    }
}

/// Writes `bytes` to `path` through a temporary sibling, so an
/// interrupted run never leaves a partial input behind.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, bytes).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("renaming {}: {e}", tmp.display()))
}

/// The generator's entry point: builds whatever input of `(scale, seed)`
/// is missing.
pub fn generate(dir: &Path, scale: Scale, seed: u64, ingests: usize) -> Result<(), String> {
    let inputs = Inputs::new(dir, scale, seed, ingests);
    let scale_dir = inputs
        .dataset
        .parent()
        .expect("inputs live in a scale directory");
    fs::create_dir_all(scale_dir).map_err(|e| format!("creating {}: {e}", scale_dir.display()))?;
    let cfg = scale.dataset_config();
    let ds = if inputs.dataset.exists() {
        persist::load_file(&inputs.dataset).map_err(|e| format!("loading the dataset: {e}"))?
    } else {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let ds = Dataset::build_parallel(&cfg, threads)
            .map_err(|e| format!("building the dataset: {e:?}"))?;
        persist::save_file(&ds, &cfg, &inputs.dataset)
            .map_err(|e| format!("saving the dataset: {e}"))?;
        ds
    };
    let plan = scale.plan();
    let read_mix = read_mix_pool(&ds, plan.per_shape);
    if !inputs.read_mix.exists() {
        write_atomic(&inputs.read_mix, pool_text(&read_mix).as_bytes())?;
    }
    if !inputs.read_light.exists() {
        write_atomic(
            &inputs.read_light,
            pool_text(&read_light_pool(&ds, plan.light_pool)).as_bytes(),
        )?;
    }
    if !inputs.ingest.exists() || !inputs.write_mix.exists() {
        let trips = ingest_trips(&ds, &cfg, ingests, seed)?;
        let subset: Vec<PoolQuery> = read_mix
            .into_iter()
            .filter(|p| p.shape != WRITE_MIX_SKIPS)
            .collect();
        let kept = unaffected_by(&ds, &subset, &trips);
        write_atomic(&inputs.write_mix, pool_text(&kept).as_bytes())?;
        let lines: Vec<String> = trips
            .iter()
            .map(|t| serde_json::to_string(&t.serialize()).expect("trajectory renders"))
            .collect();
        write_atomic(&inputs.ingest, (lines.join("\n") + "\n").as_bytes())?;
    }
    Ok(())
}

fn query_body(locations: &[NodeId], keywords: &KeywordSet, lambda: f64, k: usize) -> String {
    let locs: Vec<String> = locations.iter().map(|n| n.0.to_string()).collect();
    let kws: Vec<String> = keywords.ids().iter().map(|k| k.0.to_string()).collect();
    format!(
        r#"{{"locations":[{}],"keywords":[{}],"lambda":{lambda},"k":{k}}}"#,
        locs.join(","),
        kws.join(",")
    )
}

fn pool_query(shape: &str, body: String) -> PoolQuery {
    let query = parse_query(&body).expect("generated bodies are valid queries");
    PoolQuery {
        shape: shape.to_string(),
        body,
        query,
    }
}

/// Keywords whose document frequency is 1–5% of the trips (the planner's
/// rare band ends at 5%); falls back to the rarest used keywords on
/// datasets too small to have such a band.
fn rare_keywords(ds: &Dataset) -> Vec<KeywordId> {
    let live = ds.store.len() as f64;
    let df = |k: u32| ds.keyword_index.document_frequency(KeywordId(k)) as f64 / live;
    let vocab = ds.vocab.len() as u32;
    let band: Vec<KeywordId> = (0..vocab)
        .filter(|&k| (0.01..=0.05).contains(&df(k)))
        .map(KeywordId)
        .collect();
    if band.len() >= 2 {
        return band;
    }
    let mut used: Vec<u32> = (0..vocab).filter(|&k| df(k) > 0.0).collect();
    used.sort_by(|&a, &b| df(a).total_cmp(&df(b)).then(a.cmp(&b)));
    used.into_iter().take(8).map(KeywordId).collect()
}

/// The `read-mix` pool: `per_shape` queries of each of [`SHAPES`].
pub fn read_mix_pool(ds: &Dataset, per_shape: usize) -> Vec<PoolQuery> {
    let rare = rare_keywords(ds);
    let mut pool = Vec::with_capacity(per_shape * SHAPES.len());
    for (si, shape) in SHAPES.iter().enumerate() {
        let specs = workload::generate(
            ds,
            &WorkloadConfig {
                num_queries: per_shape,
                locations_per_query: shape.m,
                keywords_per_query: shape.keywords,
                seed: POOL_SEED + si as u64,
                ..Default::default()
            },
        );
        let mut rng = SplitMix(POOL_SEED ^ si as u64);
        for spec in specs {
            let keywords = if shape.rare {
                KeywordSet::from_ids((0..shape.keywords).map(|_| rare[rng.below(rare.len())]))
            } else {
                spec.keywords
            };
            let body = query_body(&spec.locations, &keywords, shape.lambda, READ_K);
            pool.push(pool_query(shape.name, body));
        }
    }
    pool
}

/// The `read-light` pool: single-source k = 1 queries.
pub fn read_light_pool(ds: &Dataset, n: usize) -> Vec<PoolQuery> {
    let specs = workload::generate(
        ds,
        &WorkloadConfig {
            num_queries: n,
            locations_per_query: 1,
            keywords_per_query: 3,
            seed: POOL_SEED ^ 0x1167,
            ..Default::default()
        },
    );
    specs
        .into_iter()
        .map(|s| pool_query("m1-k1", query_body(&s.locations, &s.keywords, 0.5, 1)))
        .collect()
}

/// `n` fresh trips on the dataset's city and tag model, drawn from `seed`.
fn ingest_trips(
    ds: &Dataset,
    cfg: &DatasetConfig,
    n: usize,
    seed: u64,
) -> Result<Vec<Trajectory>, String> {
    let trip_cfg = cfg
        .trips
        .clone()
        .with_seed(seed ^ INGEST_SALT)
        .with_num_trips(n);
    let mut generator =
        TripGenerator::new(&ds.network, trip_cfg).map_err(|e| format!("trip generator: {e}"))?;
    Ok(generator.generate(&ds.tags).into_trajectories())
}

/// The queries of `pool` whose top-k is the same before and after every
/// trip of `trips` is ingested. Ingesting only adds trips, so such a
/// query's answer is the same at every intermediate epoch too, and one
/// answer computed before timing checks every read of `write-mix`.
fn unaffected_by(ds: &Dataset, pool: &[PoolQuery], trips: &[Trajectory]) -> Vec<PoolQuery> {
    let manager = EpochManager::new(
        Arc::new(ds.network.clone()),
        ds.store.clone(),
        ds.vocab.len(),
    );
    let answers = |snap: &uots::EpochSnapshot| -> Vec<Answer> {
        let db = snap.database();
        pool.iter()
            .map(|p| answer_of(&Planner::new().run(&db, &p.query).expect("pool query runs")))
            .collect()
    };
    let before = answers(&manager.snapshot());
    for t in trips {
        manager.ingest(t.clone());
    }
    let after = answers(&manager.publish());
    pool.iter()
        .zip(before.iter().zip(&after))
        .filter(|(_, (b, a))| b == a)
        .map(|(p, _)| pool_query(&p.shape, p.body.clone()))
        .collect()
}

fn pool_text(pool: &[PoolQuery]) -> String {
    pool.iter()
        .map(|p| format!("{}\t{}\n", p.shape, p.body))
        .collect()
}

/// Reads a pool file written by [`generate`].
pub fn load_pool(path: &Path) -> Result<Vec<PoolQuery>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let (shape, body) = line
                .split_once('\t')
                .ok_or_else(|| format!("malformed pool line in {}", path.display()))?;
            let query = parse_query(body)?;
            Ok(PoolQuery {
                shape: shape.to_string(),
                body: body.to_string(),
                query,
            })
        })
        .collect()
}

/// Reads the trips to ingest: the trajectory and its `/ingest` body.
pub fn load_ingests(path: &Path) -> Result<Vec<(Trajectory, String)>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .map(|line| {
            let c: Content = serde_json::from_str(line).map_err(|e| format!("ingest line: {e}"))?;
            let t = Trajectory::deserialize(&c).map_err(|e| format!("ingest trip: {e}"))?;
            Ok((t, format!(r#"{{"insert":[{line}],"publish":true}}"#)))
        })
        .collect()
}

fn ids(c: &Content, key: &str) -> Result<Vec<u32>, String> {
    c.get(key)
        .and_then(Content::as_seq)
        .ok_or_else(|| format!("`{key}` missing"))?
        .iter()
        .map(|v| match *v {
            Content::I64(x) => u32::try_from(x).ok(),
            Content::U64(x) => u32::try_from(x).ok(),
            _ => None,
        })
        .map(|v| v.ok_or_else(|| format!("`{key}` holds a non-id")))
        .collect()
}

/// Parses a `/topk` body into the query the service will answer, with the
/// service's defaults for every field the body leaves out.
pub fn parse_query(body: &str) -> Result<UotsQuery, String> {
    let c: Content = serde_json::from_str(body).map_err(|e| format!("query body: {e}"))?;
    let num = |key: &str| match c.get(key) {
        Some(Content::F64(v)) => Some(*v),
        Some(Content::I64(v)) => Some(*v as f64),
        Some(Content::U64(v)) => Some(*v as f64),
        _ => None,
    };
    let lambda = num("lambda").ok_or("`lambda` missing")?;
    let k = num("k").ok_or("`k` missing")? as usize;
    let options = QueryOptions {
        weights: Weights::lambda(lambda).map_err(|e| e.to_string())?,
        k,
        ..QueryOptions::default()
    };
    UotsQuery::with_options(
        ids(&c, "locations")?.into_iter().map(NodeId).collect(),
        KeywordSet::from_ids(ids(&c, "keywords")?.into_iter().map(KeywordId)),
        Vec::new(),
        options,
    )
    .map_err(|e| e.to_string())
}

/// SplitMix64: a small deterministic generator for orders and picks.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The request order of a run: `total` pool indexes, made of whole
/// seeded permutations of the pool, so every query is sent equally often
/// (up to one pass) whatever the seed.
pub fn order(pool_len: usize, total: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix(seed);
    let mut out = Vec::with_capacity(total + pool_len);
    while out.len() < total {
        let mut pass: Vec<usize> = (0..pool_len).collect();
        for i in (1..pass.len()).rev() {
            pass.swap(i, rng.below(i + 1));
        }
        out.extend(pass);
    }
    out.truncate(total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_are_seeded_permutations() {
        let a = order(10, 25, 1);
        assert_eq!(a, order(10, 25, 1));
        assert_ne!(a, order(10, 25, 2));
        let mut first: Vec<usize> = a[..10].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..10).collect::<Vec<_>>());
        assert_eq!(a.len(), 25);
    }

    #[test]
    fn query_bodies_round_trip() {
        let body = query_body(
            &[NodeId(3), NodeId(9)],
            &KeywordSet::from_ids([KeywordId(4)]),
            0.1,
            3,
        );
        let q = parse_query(&body).unwrap();
        assert_eq!(q.num_locations(), 2);
        assert_eq!(q.options().k, 3);
        assert_eq!(q.options().weights.spatial, 0.1);
    }
}
