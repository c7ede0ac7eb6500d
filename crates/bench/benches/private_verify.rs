//! E2 micro-bench: one bound decision per mechanism.

use criterion::{criterion_group, criterion_main, Criterion};
use prever_bench::experiments::e2_private_verify;

fn bench(c: &mut Criterion) {
    // The table run exercises all mechanisms; here we time one of them
    // individually for statistical confidence.
    let mut group = c.benchmark_group("e2_private_verify");

    group.bench_function("mpc_3p_check", |b| {
        use prever_mpc::FederatedBoundCheck;
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let mut check = FederatedBoundCheck::new();
        b.iter(|| check.check_upper_bound(&[10, 12, 8], 3, 40, &mut rng).unwrap());
    });

    group.bench_function("full_table_e2_quick", |b| {
        b.iter(|| e2_private_verify::run(true));
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
