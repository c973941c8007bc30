//! F7 — batch wall time across thread counts (queries are independent, the
//! property the paper exploits for parallelism).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uots_bench::{make_queries, Scale};
use uots_core::algorithms::Expansion;
use uots_core::{parallel, Database};

fn bench(c: &mut Criterion) {
    let ds = Scale::Bench.build(1_500);
    let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
        .with_keyword_index(&ds.keyword_index);
    let queries = make_queries(&ds, 16, 4, 3, 0.5, 1, 0xf7);
    let algo = Expansion::default();
    let mut group = c.benchmark_group("f7_threads");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                criterion::black_box(
                    parallel::run_batch(&db, &algo, &queries, t).expect("batch runs"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
