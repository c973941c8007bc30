//! T2 — pruning effectiveness under default settings; Criterion measures
//! latency while the companion `experiments --only t2` run reports the
//! candidate/pruning ratios themselves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uots_bench::{algorithms, make_queries, Scale};
use uots_core::Database;

fn bench(c: &mut Criterion) {
    let ds = Scale::Bench.build(2_000);
    let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
        .with_keyword_index(&ds.keyword_index);
    let queries = make_queries(&ds, 4, 4, 3, 0.5, 1, 0x12);
    let mut group = c.benchmark_group("t2_pruning");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for (name, algo) in algorithms(true) {
        group.bench_with_input(BenchmarkId::from_parameter(&name), &queries, |b, qs| {
            b.iter(|| {
                for q in qs {
                    criterion::black_box(algo.run(&db, q).expect("query runs"));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
