//! F8 — scheduling strategy ablation: the paper's heuristic vs round-robin
//! vs min-radius on the same expansion engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use uots_bench::{make_queries, Scale};
use uots_core::algorithms::{Algorithm, Expansion};
use uots_core::{Database, Scheduler};

fn bench(c: &mut Criterion) {
    let ds = Scale::Bench.build(1_500);
    let db = Database::new(&ds.network, &ds.store, &ds.vertex_index, &ds.keyword_blocks)
        .with_keyword_index(&ds.keyword_index);
    let queries = make_queries(&ds, 4, 6, 3, 0.5, 1, 0xf8);
    let mut group = c.benchmark_group("f8_scheduling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_millis(1500));
    for (label, sched) in [
        ("heuristic", Scheduler::heuristic()),
        ("round-robin", Scheduler::RoundRobin),
        ("min-radius", Scheduler::MinRadius),
    ] {
        let algo = Expansion::new(sched);
        group.bench_with_input(BenchmarkId::from_parameter(label), &queries, |b, qs| {
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
