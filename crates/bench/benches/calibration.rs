//! Criterion benches of the measurement + calibration pipeline: one
//! placement sweep, the two-sweep calibration, and a full Table II row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mc_bench::tables::evaluate_platform;
use mc_membench::{calibration_sweeps, sweep_platform_parallel, BenchConfig, BenchRunner};
use mc_model::ContentionModel;
use mc_topology::{platforms, NumaId};

fn sweep_and_calibrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration");
    group.sample_size(20);

    let p = platforms::henri();
    group.bench_function("one_placement_sweep", |b| {
        let runner = BenchRunner::new(&p, BenchConfig::default());
        b.iter(|| runner.run_placement(black_box(NumaId::new(0)), NumaId::new(0)))
    });

    group.bench_function("two_sweep_model_calibration", |b| {
        b.iter(|| {
            let (local, remote) = calibration_sweeps(&p, BenchConfig::default());
            ContentionModel::calibrate(&p.topology, &local, &remote).unwrap()
        })
    });

    for plat in [platforms::henri(), platforms::henri_subnuma()] {
        group.bench_with_input(
            BenchmarkId::new("full_table2_row", plat.name().to_string()),
            &plat,
            |b, plat| b.iter(|| evaluate_platform(black_box(plat), BenchConfig::default())),
        );
    }

    // Event-driven sweep through the runner's persistent solver memo: the
    // workload the memoization tentpole targets.
    group.bench_function("event_driven_placement_sweep", |b| {
        let mut cfg = BenchConfig::event_driven();
        cfg.window = 0.05;
        cfg.warmup = 0.02;
        let runner = BenchRunner::new(&p, cfg);
        b.iter(|| runner.run_placement(black_box(NumaId::new(0)), NumaId::new(0)))
    });

    // The pooled point-stealing scheduler over a whole platform.
    group.bench_function("pooled_platform_sweep", |b| {
        b.iter(|| sweep_platform_parallel(black_box(&p), BenchConfig::default()))
    });
    group.finish();
}

criterion_group!(benches, sweep_and_calibrate);
criterion_main!(benches);
