//! F6 — per-query latency as the average trajectory length grows
//! (controlled via the trip generator's sample stride).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uots_bench::{algorithms, make_queries, Scale};
use uots_core::Database;
use uots_datagen::Dataset;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("f6_length");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for stride in [8usize, 2] {
        let mut cfg = Scale::Bench.config(1_000);
        cfg.trips.sample_stride = stride;
        let ds = Dataset::build(&cfg).expect("dataset builds");
        let avg_len = format!("{:.0}", ds.stats().avg_len);
        let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
            .with_keyword_index(&ds.keyword_index);
        let queries = make_queries(&ds, 3, 4, 3, 0.5, 1, 0xf6);
        for (name, algo) in algorithms(false) {
            group.bench_with_input(BenchmarkId::new(&name, &avg_len), &queries, |b, qs| {
                b.iter(|| {
                    for q in qs {
                        criterion::black_box(algo.run(&db, q).expect("query runs"));
                    }
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
