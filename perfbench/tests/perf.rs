//! Black-box tests of the `perf` binary: short runs of every workload
//! checked against `BENCHMARK.json`, the determinism of the traced
//! run's counters, and the failure paths.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

use mc_json::Json;

/// Run `perf` and return its exit code and stdout lines parsed as JSON.
fn perf(args: &[&str]) -> (i32, Vec<Json>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines = stdout
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    (out.status.code().expect("exited"), lines)
}

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&fs::read_to_string(path).unwrap()).unwrap()
}

fn names(section: &str) -> Vec<(String, String)> {
    benchmark()
        .get(section)
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn value(record: &Json, section: &str, name: &str) -> f64 {
    record
        .get(section)
        .and_then(|s| s.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{section}.{name} missing"))
}

/// The summary line carries exactly the four keys, and every metric of
/// `section` with its unit and a number. No end-to-end metric and no
/// per-layer time reads 0: a constant would tell two commits apart by
/// nothing.
fn check_summary(summary: &Json, section: &str) {
    let Json::Obj(members) = summary else {
        panic!("summary is not an object");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    assert!(summary.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(summary.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = summary.get("metrics").unwrap();
    for (name, unit) in names(section) {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let value = m
            .get("value")
            .unwrap_or_else(|| panic!("{name} has no value"));
        if name == "op_s_p90" && *value == Json::Null {
            // Fewer than 100 ops leave under ten samples beyond the p90.
            continue;
        }
        let v = value
            .as_f64()
            .unwrap_or_else(|| panic!("{name} is not a number"));
        if section == "end_to_end" || matches!(unit.as_str(), "s" | "us" | "ns") {
            assert_ne!(v, 0.0, "{name}");
        }
    }
}

#[test]
fn every_workload_prints_every_metric_and_fails_no_op() {
    for seed in ["42", "7"] {
        for (workload, _) in names("workloads") {
            let args = [
                "run",
                "--workload",
                &workload,
                "--seed",
                seed,
                "--ops",
                "3",
                "--setups",
                "1",
            ];
            let (code, lines) = perf(&args);
            assert_eq!(code, 0, "{workload} seed {seed}");
            let record = &lines[0];
            assert_eq!(
                value(record, "metrics", "failed_ops_ratio"),
                0.0,
                "{workload}"
            );
            let expected = record.get("checks").and_then(|c| c.get("expected"));
            let pinned = if seed == "42" { "match" } else { "not pinned" };
            assert_eq!(expected.and_then(Json::as_str), Some(pinned), "{workload}");
            check_summary(lines.last().unwrap(), "end_to_end");
        }
    }
}

/// Layer counters that must not depend on timing.
const DETERMINISTIC: [&str; 9] = [
    "memsim.engine.solves",
    "memsim.delta.requests",
    "memsim.delta.reuse_hits",
    "memsim.delta.state_hits",
    "memsim.delta.full_solves",
    "mpisim.world.node_steps",
    "sched.node_sims",
    "replay.events",
    "membench.points",
];

fn traced_counters(seed: &str) -> BTreeMap<(String, &'static str), f64> {
    let (code, lines) = perf(&[
        "run", "--trace", "1", "--seed", seed, "--ops", "3", "--setups", "1",
    ]);
    assert_eq!(code, 0);
    let mut counters = BTreeMap::new();
    for pair in lines.chunks(2) {
        let workload = pair[0]
            .get("workload")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        check_summary(&pair[1], "per_layer");
        for name in DETERMINISTIC {
            counters.insert((workload.clone(), name), value(&pair[0], "layers", name));
        }
    }
    counters
}

/// The counters repeat exactly across invocations. Across seeds, which
/// scale sizes without changing an op's work, so do all but the
/// allreduce's delta-solver request counts (which move by under 0.2 %).
#[test]
fn traced_layer_counters_repeat_exactly() {
    let first = traced_counters("42");
    assert_eq!(first.len(), 4 * DETERMINISTIC.len());
    // Each workload exercises its own layers.
    assert!(first[&("sweep-calibrate".into(), "memsim.engine.solves")] > 0.0);
    assert!(first[&("replay-allreduce".into(), "mpisim.world.node_steps")] > 0.0);
    assert!(first[&("schedule-mixed".into(), "sched.node_sims")] > 0.0);
    assert_eq!(first[&("replay-allreduce".into(), "replay.events")], 768.0);
    assert_eq!(traced_counters("42"), first);
    let seed_dependent = ["memsim.delta.requests", "memsim.delta.reuse_hits"];
    let work = |c: BTreeMap<(String, &'static str), f64>| {
        let mut c = c;
        c.retain(|(w, name), _| w != "replay-allreduce" || !seed_dependent.contains(name));
        c
    };
    assert_eq!(work(traced_counters("7")), work(first));
}

#[test]
fn trace_writes_layers_and_a_chrome_trace_with_a_track_per_layer() {
    let dir = tmp("trace-files");
    let out = tmp("trace-records.jsonl");
    let _ = fs::remove_file(&out);
    let args = [
        "run",
        "--trace",
        "1",
        "--workload",
        "replay-halo2d-file",
        "--ops",
        "2",
        "--setups",
        "1",
    ];
    let files = [
        "--trace-dir",
        dir.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ];
    let (code, lines) = perf(&[&args[..], &files].concat());
    assert_eq!(code, 0);
    let record = &lines[0];
    // `--out` appends the record, traced or not.
    assert_eq!(
        fs::read_to_string(&out).unwrap().trim_end(),
        record.render()
    );
    // Ingest plus stepping cover the op.
    let op =
        value(record, "layers", "replay.source_s") + value(record, "layers", "replay.engine_s");
    assert!(value(record, "layers", "unattributed_s") < 0.1 * op);
    assert!(value(record, "layers", "trace_overhead") > 0.0);
    assert!(value(record, "layers", "replay.trace_bytes") > 0.0);

    let layers = Json::parse(&fs::read_to_string(dir.join("layers.json")).unwrap()).unwrap();
    let halo = layers
        .get("workloads")
        .and_then(|w| w.get("replay-halo2d-file"))
        .unwrap();
    assert!(halo.get("replay.source_s").is_some());

    let trace = Json::parse(&fs::read_to_string(dir.join("trace.json")).unwrap()).unwrap();
    let mut tracks: BTreeMap<u64, String> = BTreeMap::new();
    for e in trace.as_array().unwrap() {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_u64).unwrap();
        let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
        let prev = tracks.insert(tid, name.clone());
        assert!(
            prev.is_none_or(|p| p == name),
            "track {tid} holds two layers"
        );
    }
    let on_tracks: Vec<&str> = tracks.values().map(String::as_str).collect();
    assert_eq!(on_tracks, ["op", "replay.source_s", "replay.engine_s"]);
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--ops", "3", "--seconds", "1"],
        &["run", "--trace", "2"],
        &["run", "--trace-dir", "out"],
        &["run", "--frobnicate", "1"],
        &["trace"],
        &["compare", "one.jsonl"],
    ] {
        let (code, lines) = perf(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(lines.is_empty(), "{args:?}");
    }
}

fn record(workload: &str, op_s: f64) -> String {
    let m = |v: f64, unit: &str| format!("{{\"value\":{v},\"unit\":\"{unit}\"}}");
    format!(
        "{{\"workload\":\"{workload}\",\"mode\":\"run\",\"correct\":true,\"metrics\":{{\"setup_s\":{},\
         \"op_s_p50\":{},\"op_s_p90\":{},\"ops_per_s\":{},\"peak_rss_kb\":{},\"failed_ops_ratio\":{}}},\
         \"checks\":{{\"attempted\":150,\"failed\":0}}}}\n",
        m(0.01, "s"),
        m(op_s, "s"),
        m(op_s * 1.1, "s"),
        m(1.0 / op_s, "1/s"),
        m(9000.0, "kB"),
        m(0.0, "ratio"),
    )
}

#[test]
fn compare_judges_paired_records_and_needs_ten_pairs() {
    let write = |name: &str, scale: f64, n: usize| {
        let text: String = (0..n)
            .map(|i| record("replay-allreduce", scale * (0.1 + 0.0001 * i as f64)))
            .collect();
        let path = tmp(name);
        fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    };
    let base = write("base.jsonl", 1.0, 10);
    let faster = write("faster.jsonl", 0.8, 10);
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["compare", &base, &faster])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8(out.stdout).unwrap();
    let row = |metric: &str| {
        text.lines()
            .find(|l| l.split_whitespace().nth(1) == Some(metric))
            .unwrap_or_else(|| panic!("no {metric} row in\n{text}"))
            .to_string()
    };
    assert!(row("op_s_p50").ends_with("better"), "{text}");
    assert!(row("ops_per_s").ends_with("better"), "{text}");
    assert!(row("peak_rss_kb").ends_with("within bound"), "{text}");

    // Swapped, the change is a regression and the exit status says so.
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["compare", &faster, &base])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stdout).unwrap().contains("worse"));

    let short = write("short.jsonl", 1.0, 9);
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["compare", &base, &short])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("at least 10"));
}
