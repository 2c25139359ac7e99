//! Fault-injection harness: calibration stability under sweep
//! perturbations and engine behaviour under activity-level faults, across
//! several platforms and many seeds. It runs with the rest of the suite
//! (`cargo test -q`).

use memory_contention::membench::faults::Fault;
use memory_contention::membench::record::SweepColumn;
use memory_contention::membench::{BenchConfig, BenchRunner, PlacementSweep};
use memory_contention::memsim::faults::{inject_all, EngineFault};
use memory_contention::memsim::{Activity, ActivityKind, Engine, Fabric};
use memory_contention::model::robustness::fault_spread;
use memory_contention::model::CalibrationError;
use memory_contention::topology::{platforms, NumaId, Platform, SocketId};

fn local_sweep(platform: &Platform) -> PlacementSweep {
    let numa = platform.topology.first_numa_of(SocketId::new(0));
    BenchRunner::new(platform, BenchConfig::default()).run_placement(numa, numa)
}

#[test]
fn survivable_faults_bounded_on_every_platform() {
    for platform in [platforms::henri(), platforms::occigen(), platforms::dahu()] {
        let sweep = local_sweep(&platform);
        let faults = [
            Fault::DropPoints { fraction: 0.2 },
            Fault::OutlierSpike {
                column: SweepColumn::CompPar,
                factor: 1.05,
            },
            Fault::ShufflePoints,
        ];
        let report = fault_spread(&sweep, &faults, 16);
        assert!(
            report.failures.is_empty(),
            "{}: survivable faults rejected: {:?}",
            platform.name(),
            report.failures
        );
        let spread = report.spread.expect("survivors exist");
        assert!(
            spread.b_comp_seq.cv() < 0.02,
            "{}: {:?}",
            platform.name(),
            spread.b_comp_seq
        );
        assert!(
            spread.b_comm_seq.cv() < 0.05,
            "{}: {:?}",
            platform.name(),
            spread.b_comm_seq
        );
        assert!(
            spread.t_max_par.cv() < 0.10,
            "{}: {:?}",
            platform.name(),
            spread.t_max_par
        );
    }
}

#[test]
fn each_poisoning_fault_maps_to_its_own_error() {
    let sweep = local_sweep(&platforms::henri());
    let nan = fault_spread(
        &sweep,
        &[Fault::NanPoison {
            column: SweepColumn::CompAlone,
        }],
        6,
    );
    assert!(nan
        .failures
        .iter()
        .all(|(_, e)| matches!(e, CalibrationError::NonFinite { .. })));
    assert_eq!(nan.failures.len(), 6);

    let zero = fault_spread(
        &sweep,
        &[Fault::ZeroColumn {
            column: SweepColumn::CommAlone,
        }],
        6,
    );
    assert!(zero
        .failures
        .iter()
        .all(|(_, e)| matches!(e, CalibrationError::NoCommBandwidth { .. })));

    let dup = fault_spread(&sweep, &[Fault::ConflictingDuplicate { factor: 3.0 }], 6);
    assert!(dup
        .failures
        .iter()
        .all(|(_, e)| matches!(e, CalibrationError::DuplicateCores { .. })));
}

#[test]
fn mixed_faults_partition_into_survivors_and_typed_failures() {
    // A NaN poison on top of survivable faults: every seed must either
    // calibrate or be rejected with NonFinite — nothing in between, and
    // certainly no panic.
    let sweep = local_sweep(&platforms::henri());
    let faults = [
        Fault::DropPoints { fraction: 0.3 },
        Fault::NanPoison {
            column: SweepColumn::CommPar,
        },
    ];
    let report = fault_spread(&sweep, &faults, 20);
    assert_eq!(report.attempted, 20);
    assert_eq!(report.params.len() + report.failures.len(), 20);
    assert!(report
        .failures
        .iter()
        .all(|(_, e)| matches!(e, CalibrationError::NonFinite { .. })));
    // The poison lands on a random point of a non-empty sweep, so every
    // seed is in fact rejected here; assert the harness quantified that.
    assert_eq!(report.survival_rate(), 0.0);
}

#[test]
fn repeated_harness_runs_are_deterministic() {
    let sweep = local_sweep(&platforms::henri());
    let faults = [
        Fault::DropPoints { fraction: 0.25 },
        Fault::OutlierSpike {
            column: SweepColumn::CommPar,
            factor: 0.9,
        },
    ];
    let a = fault_spread(&sweep, &faults, 10);
    let b = fault_spread(&sweep, &faults, 10);
    assert_eq!(a, b);
}

// ---- engine-level injection ------------------------------------------

fn contended_scenario() -> Vec<Activity> {
    let mut acts: Vec<Activity> = (0..8)
        .map(|i| Activity {
            kind: ActivityKind::Compute {
                numa: NumaId::new(0),
                bytes_per_pass: 64e6,
                pass_overhead: 2e-6,
            },
            start: i as f64 * 1.3e-5,
        })
        .collect();
    acts.push(Activity {
        kind: ActivityKind::CommRecv {
            numa: NumaId::new(0),
            msg_bytes: 64e6,
            handshake: 4e-6,
            gap: 1e-6,
        },
        start: 0.0,
    });
    acts
}

#[test]
fn stalled_activities_never_deadlock_the_engine() {
    let p = platforms::henri();
    let f = Fabric::new(&p);
    let engine = Engine::new(&f);
    for victim in 0..9 {
        let mut acts = contended_scenario();
        inject_all(
            &mut acts,
            &[EngineFault::Stall {
                victim,
                delay: 0.08,
            }],
        );
        let report = engine.run(&acts, 0.02, 0.1);
        assert_eq!(report.window, (0.02, 0.1));
        // Everyone except the stalled victim made progress.
        for (i, a) in report.activities.iter().enumerate() {
            if i != victim {
                assert!(a.total_bytes > 0.0, "victim {victim}, activity {i}");
            }
        }
    }
}

#[test]
fn slowed_comm_frees_bandwidth_for_compute() {
    let p = platforms::henri();
    let f = Fabric::new(&p);
    let engine = Engine::new(&f);
    let clean = contended_scenario();
    let mut faulty = contended_scenario();
    inject_all(
        &mut faulty,
        &[EngineFault::SlowDown {
            victim: 8,
            factor: 200.0,
        }],
    );
    let base = engine.run(&clean, 0.05, 0.3);
    let got = engine.run(&faulty, 0.05, 0.3);
    let base_comp = base.compute_bandwidth(&clean);
    let got_comp = got.compute_bandwidth(&faulty);
    let base_comm = base.comm_bandwidth(&clean);
    let got_comm = got.comm_bandwidth(&faulty);
    assert!(got_comm < base_comm, "{got_comm} vs {base_comm}");
    assert!(got_comp >= base_comp - 1e-9, "{got_comp} vs {base_comp}");
}
