//! E10 micro-bench: new-order admission, unregulated vs regulated.

use criterion::{criterion_group, criterion_main, Criterion};
use prever_bench::experiments::e10_tpcc;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_tpcc");
    group.sample_size(10);
    group.bench_function("full_table_quick", |b| {
        b.iter(|| e10_tpcc::run(true));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
