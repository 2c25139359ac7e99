//! Criterion benches of the discrete-event engine: a full parallel
//! benchmark phase (n compute kernels + one message stream), run through
//! the uncached reference path, through a cold memoizing engine, and
//! through a warm one (the steady-state regime of a placement sweep).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mc_memsim::engine::{Activity, ActivityKind, Engine};
use mc_memsim::fabric::Fabric;
use mc_topology::{platforms, NumaId, Platform};

fn parallel_acts(p: &Platform) -> Vec<Activity> {
    let mut acts: Vec<Activity> = (0..p.max_compute_cores())
        .map(|i| Activity {
            kind: ActivityKind::Compute {
                numa: NumaId::new(0),
                bytes_per_pass: 256e6,
                pass_overhead: 2e-6,
            },
            start: i as f64 * 1.3e-5,
        })
        .collect();
    acts.push(Activity {
        kind: ActivityKind::CommRecv {
            numa: NumaId::new(0),
            msg_bytes: 64e6,
            handshake: 2e-6,
            gap: 1e-6,
        },
        start: 0.0,
    });
    acts
}

fn parallel_phase(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/parallel_phase");
    group.sample_size(20);
    for p in [platforms::henri(), platforms::diablo()] {
        let fabric = Fabric::new(&p);
        let acts = parallel_acts(&p);
        group.bench_with_input(
            BenchmarkId::from_parameter(p.name().to_string()),
            &acts,
            |b, acts| {
                b.iter(|| Engine::new(&fabric).run(black_box(acts), 0.05, 0.3));
            },
        );
    }
    group.finish();
}

/// The pre-memoization reference: every event runs the solver.
fn parallel_phase_uncached(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/parallel_phase_uncached");
    group.sample_size(20);
    for p in [platforms::henri(), platforms::diablo()] {
        let fabric = Fabric::new(&p);
        let acts = parallel_acts(&p);
        group.bench_with_input(
            BenchmarkId::from_parameter(p.name().to_string()),
            &acts,
            |b, acts| {
                let engine = Engine::new(&fabric).uncached();
                b.iter(|| engine.run(black_box(acts), 0.05, 0.3));
            },
        );
    }
    group.finish();
}

/// The steady-state regime: one engine reused across runs, so nearly
/// every event is a cache hit — how runs behave inside a placement sweep.
fn parallel_phase_warm_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/parallel_phase_warm");
    group.sample_size(20);
    for p in [platforms::henri(), platforms::diablo()] {
        let fabric = Fabric::new(&p);
        let acts = parallel_acts(&p);
        group.bench_with_input(
            BenchmarkId::from_parameter(p.name().to_string()),
            &acts,
            |b, acts| {
                let engine = Engine::new(&fabric);
                engine.run(acts, 0.05, 0.3); // warm the solver memo
                b.iter(|| engine.run(black_box(acts), 0.05, 0.3));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    parallel_phase,
    parallel_phase_uncached,
    parallel_phase_warm_cache
);
criterion_main!(benches);
