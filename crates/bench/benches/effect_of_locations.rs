//! F1 — per-query latency as the number of query locations m grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uots_bench::{algorithms, make_queries, Scale};
use uots_core::Database;

fn bench(c: &mut Criterion) {
    let ds = Scale::Bench.build(1_500);
    let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
        .with_keyword_index(&ds.keyword_index);
    let mut group = c.benchmark_group("f1_locations");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for m in [2usize, 4, 8] {
        let queries = make_queries(&ds, 3, m, 3, 0.5, 1, 0xf1);
        for (name, algo) in algorithms(false) {
            group.bench_with_input(BenchmarkId::new(&name, m), &queries, |b, qs| {
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
