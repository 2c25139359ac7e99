//! Observability-layer integration tests: the pipeline emits spans and
//! counters for every stage when a recorder is installed, changes nothing
//! when one is (and when one is not), and exports a pinned JSON schema.

use std::sync::{Arc, Mutex, OnceLock};

use memory_contention::obs;
use memory_contention::obs::Recorder as _;
use memory_contention::prelude::*;

/// The recorder slot is process-global: tests that install one must not
/// overlap. (Poisoning is ignored — a failed test must not cascade.)
fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// Run the full pipeline (sweep → calibrate → evaluate) on henri with the
/// event-driven backend, so the discrete-event engine runs too.
fn run_pipeline() -> ErrorBreakdown {
    let platform = platforms::henri();
    let mut config = BenchConfig::event_driven();
    config.noisy = false;
    let sweep = sweep_platform_parallel(&platform, config);
    let (s_local, s_remote) = calibration_placements(&platform);
    let local = sweep.placement(s_local.0, s_local.1).expect("local sample");
    let remote = sweep
        .placement(s_remote.0, s_remote.1)
        .expect("remote sample");
    let model = ContentionModel::calibrate(&platform.topology, local, remote)
        .expect("calibration succeeds");
    evaluate(&model, &sweep, &[s_local, s_remote])
}

#[test]
fn metrics_cover_every_pipeline_stage() {
    let _guard = recorder_lock();
    let registry = Arc::new(obs::Registry::new());
    obs::set_recorder(registry.clone());
    run_pipeline();
    obs::clear_recorder();

    let snap = registry.snapshot();
    // Engine: one counter batch per event-driven run.
    assert!(registry.counter_total("engine.runs") > 0);
    assert!(registry.counter_total("engine.events") > 0);
    assert!(registry.counter_total("engine.solver_invocations") > 0);
    // Sweep: one point counter + wall-time histogram sample per point.
    let points = registry.counter_total("sweep.points");
    assert!(points > 0);
    let point_seconds: u64 = snap
        .histograms
        .iter()
        .filter(|((n, _), _)| n == "sweep.point_seconds")
        .map(|(_, h)| h.count)
        .sum();
    assert_eq!(point_seconds, points);
    // Every point's three phases are either an engine run or a reused
    // alone-phase result.
    let reused = registry.counter_total("sweep.alone_reused");
    assert!(reused > 0);
    assert_eq!(registry.counter_total("engine.runs") + reused, 3 * points);
    // Spans: sweep, calibrate and evaluate stages all traced.
    for stage in ["sweep", "calibrate", "evaluate"] {
        assert!(
            snap.spans.iter().any(|s| s.stage == stage),
            "missing {stage} span in {:?}",
            snap.spans.iter().map(|s| &s.stage).collect::<Vec<_>>()
        );
    }
    // The sweep spans carry the platform tag.
    let sweep_span = snap.spans.iter().find(|s| s.stage == "sweep").unwrap();
    assert!(sweep_span
        .tags
        .iter()
        .any(|(k, v)| k == "platform" && v == "henri"));
}

#[test]
fn instrumented_run_is_bit_identical_to_disabled() {
    let _guard = recorder_lock();
    obs::clear_recorder();
    let baseline = run_pipeline();

    let registry = Arc::new(obs::Registry::new());
    obs::set_recorder(registry.clone());
    let instrumented = run_pipeline();
    obs::clear_recorder();

    // Not approximately equal: *bit-identical*. Instrumentation must never
    // reorder a float summation or perturb a measurement.
    assert_eq!(baseline, instrumented);
    assert!(
        registry.counter_total("engine.runs") > 0,
        "recorder saw the run"
    );
}

#[test]
fn disabled_recorder_reports_disabled() {
    let _guard = recorder_lock();
    obs::clear_recorder();
    assert!(!obs::enabled());
    assert!(obs::recorder().is_none());
}

/// Deterministic registry contents shared by the exporter golden tests.
/// Spans are recorded via `record_span` (deterministic timestamps) —
/// wall-clock spans share the exact same rendering path.
fn golden_registry() -> obs::Registry {
    let registry = obs::Registry::new();
    registry.add(
        "engine.runs",
        &[("platform", obs::TagValue::Str("henri"))],
        18,
    );
    registry.add(
        "calibrate.repairs",
        &[("rule", obs::TagValue::Str("duplicate-collapsed"))],
        2,
    );
    registry.observe(
        "sweep.point_seconds",
        &[
            ("platform", obs::TagValue::Str("henri")),
            ("m_comp", obs::TagValue::U64(0)),
        ],
        0.25,
    );
    registry.observe(
        "sweep.point_seconds",
        &[
            // Same series as above: tag order must not matter.
            ("m_comp", obs::TagValue::U64(0)),
            ("platform", obs::TagValue::Str("henri")),
        ],
        0.75,
    );
    registry.observe(
        "evaluate.mape_comm_pct",
        &[
            ("m_comp", obs::TagValue::U64(1)),
            ("m_comm", obs::TagValue::U64(0)),
        ],
        2.5,
    );
    registry.record_span(
        "sweep",
        &[
            ("platform", obs::TagValue::Str("henri")),
            ("mode", obs::TagValue::Str("parallel")),
        ],
        0.0,
        1.5,
    );
    registry.record_span(
        "calibrate",
        &[("m_comp", obs::TagValue::U64(0))],
        1.5,
        0.125,
    );
    registry
}

#[test]
fn metrics_json_schema_matches_golden_file() {
    // Pin the exporter schema against checked-in golden files.
    let registry = golden_registry();
    assert_eq!(
        registry.metrics_json_lines(),
        include_str!("golden/metrics.jsonl"),
        "metrics JSON schema drifted from tests/golden/metrics.jsonl"
    );
    assert_eq!(
        registry.trace_json_lines(),
        include_str!("golden/trace.jsonl"),
        "trace JSON schema drifted from tests/golden/trace.jsonl"
    );
}

const CHROME_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/chrome_trace.json"
);

#[test]
fn chrome_trace_schema_matches_golden_file() {
    // Pin the Chrome trace_event exporter byte for byte: pipeline spans
    // on the pipeline track, rank-tagged spans on per-rank replay
    // tracks, node-tagged spans on per-node sched tracks, tags
    // flattened into `args`, metadata events naming every track.
    //
    // Regenerate after an intentional schema change:
    // `UPDATE_GOLDEN=1 cargo test --test observability`.
    let registry = golden_registry();
    registry.record_span("compute", &[("rank", obs::TagValue::U64(0))], 0.0, 0.5);
    registry.record_span("send", &[("rank", obs::TagValue::U64(1))], 0.5, 0.25);
    registry.record_span(
        "sched.job",
        &[
            ("job", obs::TagValue::Str("solver")),
            ("node", obs::TagValue::U64(1)),
            ("policy", obs::TagValue::Str("first_fit")),
        ],
        0.0,
        2.0,
    );
    let rendered = registry.chrome_trace();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(CHROME_GOLDEN_PATH, &rendered).expect("golden chrome trace written");
        return;
    }
    let golden = std::fs::read_to_string(CHROME_GOLDEN_PATH).expect("golden chrome trace present");
    assert_eq!(
        rendered, golden,
        "chrome trace schema drifted from tests/golden/chrome_trace.json \
         (rerun with UPDATE_GOLDEN=1 if the change is intentional)"
    );
}

#[test]
fn chrome_trace_is_valid_json_with_finite_timestamps() {
    // A real instrumented run (not hand-built spans): replay a synthetic
    // trace with per-rank timeline spans bridged in, then require the
    // chrome export to parse as one JSON array whose `X` events all
    // carry finite, non-negative `ts`/`dur` and the pinned pid scheme.
    let _guard = recorder_lock();
    let registry = Arc::new(obs::Registry::new());
    obs::set_recorder(registry.clone());
    let platform = platforms::henri();
    let trace = memory_contention::replay::generate::allreduce_step(
        &memory_contention::replay::generate::GenParams {
            ranks: 2,
            iters: 1,
            compute_bytes: 32 << 20,
            comm_bytes: 4 << 20,
            ..Default::default()
        },
    );
    let outcome = memory_contention::replay::replay(
        &platform,
        &trace,
        &memory_contention::replay::ReplayConfig::default(),
    )
    .unwrap();
    memory_contention::replay::report::record_timeline_spans(registry.as_ref(), &outcome);
    obs::clear_recorder();

    let rendered = registry.chrome_trace();
    let doc = mc_json::Json::parse(&rendered).expect("chrome trace parses as JSON");
    let events = doc.as_array().expect("chrome trace is a JSON array");
    assert!(!events.is_empty());
    let mut on_rank_tracks = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(|p| p.as_str()).expect("ph present");
        match ph {
            "X" => {
                for key in ["ts", "dur"] {
                    let v = ev.get(key).and_then(|v| v.as_f64()).expect(key);
                    assert!(v.is_finite() && v >= 0.0, "{key}={v}");
                }
                let pid = ev.get("pid").and_then(|v| v.as_u64()).expect("pid");
                assert!((1..=3).contains(&pid), "unknown pid {pid}");
                if pid == 2 {
                    on_rank_tracks += 1;
                }
            }
            "M" => {
                let name = ev.get("name").and_then(|n| n.as_str()).unwrap();
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata {name}"
                );
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    // Every rank-tagged timeline span made it out as a complete event
    // on the replay process's per-rank tracks (pid 2); the engine's own
    // aggregate `replay` span rides on the pipeline track.
    let spans: usize = outcome.contended.timelines.iter().map(Vec::len).sum();
    assert_eq!(on_rank_tracks, spans);
}

#[test]
fn open_spans_reach_both_exporters_with_the_incomplete_marker() {
    // A span still open when the export happens (a crashed or mid-flight
    // stage) must surface — flagged — in the JSONL trace and in the
    // chrome args, not silently vanish.
    let registry = obs::Registry::new();
    registry.record_span("sweep", &[], 0.0, 1.0);
    let _open = registry.span_enter("calibrate", &[]);
    let jsonl = registry.trace_json_lines();
    let complete_line = jsonl.lines().find(|l| l.contains("\"sweep\"")).unwrap();
    let open_line = jsonl.lines().find(|l| l.contains("\"calibrate\"")).unwrap();
    assert!(!complete_line.contains("incomplete"), "{complete_line}");
    assert!(open_line.ends_with(",\"incomplete\":true}"), "{open_line}");

    let chrome = registry.chrome_trace();
    let doc = mc_json::Json::parse(&chrome).unwrap();
    let open_event = doc
        .as_array()
        .unwrap()
        .iter()
        .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("calibrate"))
        .expect("open span exported");
    assert!(matches!(
        open_event.get("args").and_then(|a| a.get("incomplete")),
        Some(mc_json::Json::Bool(true))
    ));
}
