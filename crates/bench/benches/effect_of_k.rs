//! F4 — per-query latency as the answer size k grows (top-k extension).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uots_bench::{algorithms, make_queries, Scale};
use uots_core::Database;

fn bench(c: &mut Criterion) {
    let ds = Scale::Bench.build(1_500);
    let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
        .with_keyword_index(&ds.keyword_index);
    let mut group = c.benchmark_group("f4_k");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for k in [1usize, 10, 50] {
        let queries = make_queries(&ds, 3, 4, 3, 0.5, k, 0xf4);
        for (name, algo) in algorithms(false) {
            group.bench_with_input(BenchmarkId::new(&name, k), &queries, |b, qs| {
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
