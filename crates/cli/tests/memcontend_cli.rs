//! Exit-code and observability-export tests for the `memcontend` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn memcontend(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memcontend"))
        .args(args)
        .output()
        .expect("memcontend runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("memcontend-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_platform_exits_2() {
    let out = memcontend(&["topo", "--platform", "zzz"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn missing_model_file_exits_4() {
    let out = memcontend(&[
        "predict",
        "--model",
        "/nonexistent/model.txt",
        "--cores",
        "4",
        "--comp-numa",
        "0",
        "--comm-numa",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
}

#[test]
fn malformed_model_file_exits_3() {
    let dir = tmp("bad-model");
    let path = dir.join("model.txt");
    std::fs::write(&path, "this is not a model file\n").expect("write model");
    let out = memcontend(&[
        "predict",
        "--model",
        path.to_str().unwrap(),
        "--cores",
        "4",
        "--comp-numa",
        "0",
        "--comm-numa",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
}

#[test]
fn metrics_flag_exports_pipeline_metrics() {
    let dir = tmp("metrics");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.jsonl");
    let out = memcontend(&[
        "evaluate",
        "--platform",
        "henri",
        "--metrics",
        metrics.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("average"));

    let metrics = std::fs::read_to_string(&metrics).expect("metrics exported");
    assert!(metrics.contains("\"name\":\"sweep.points\""), "{metrics}");
    let trace = std::fs::read_to_string(&trace).expect("trace exported");
    for stage in ["memcontend", "sweep", "calibrate", "evaluate"] {
        assert!(trace.contains(&format!("\"stage\":\"{stage}\"")), "{trace}");
    }
}

#[test]
fn chrome_trace_format_exports_a_trace_event_array() {
    let dir = tmp("chrome");
    let trace = dir.join("trace.json");
    let out = memcontend(&[
        "replay",
        "--platform",
        "henri",
        "--generate",
        "allreduce",
        "--ranks",
        "2",
        "--iters",
        "1",
        "--compute-mb",
        "32",
        "--comm-mb",
        "4",
        "--trace",
        trace.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let body = std::fs::read_to_string(&trace).expect("chrome trace exported");
    assert!(body.starts_with("[\n"), "{}", &body[..40.min(body.len())]);
    assert!(body.trim_end().ends_with(']'), "{body}");
    // Complete events with the pinned phase, per-rank replay tracks and
    // track-naming metadata.
    assert!(body.contains("\"ph\":\"X\""), "{body}");
    assert!(body.contains("\"cat\":\"replay\""), "{body}");
    assert!(body.contains("\"rank\":\"1\""), "{body}");
    assert!(body.contains("\"name\":\"thread_name\""), "{body}");
    assert!(body.contains("rank 1"), "{body}");
}

#[test]
fn trace_format_flag_mistakes_exit_2() {
    // An unknown format is a usage error …
    let dir = tmp("badformat");
    let trace = dir.join("trace.json");
    let out = memcontend(&[
        "topo",
        "--platform",
        "henri",
        "--trace",
        trace.to_str().unwrap(),
        "--trace-format",
        "xml",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("trace-format"), "{}", stderr(&out));
    // … and so is --trace-format without --trace.
    let out = memcontend(&["topo", "--platform", "henri", "--trace-format", "chrome"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--trace"), "{}", stderr(&out));
}

#[test]
fn misspelt_yes_no_values_exit_2() {
    // A typo once meant "off", which also slipped past the check that
    // --stream and --search exclude each other.
    let out = memcontend(&[
        "replay",
        "--generate",
        "halo2d",
        "--platform",
        "henri",
        "--ranks",
        "4",
        "--iters",
        "1",
        "--stream",
        "yse",
        "--search",
        "yes",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("--stream value 'yse'"),
        "{}",
        stderr(&out)
    );
    let out = memcontend(&["calibrate", "--platform", "henri", "--sparse", "maybe"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

#[test]
fn report_flag_writes_self_contained_html() {
    let dir = tmp("report");
    let report = dir.join("report.html");
    let out = memcontend(&[
        "replay",
        "--platform",
        "henri",
        "--generate",
        "halo2d",
        "--ranks",
        "4",
        "--iters",
        "1",
        "--compute-mb",
        "64",
        "--comm-mb",
        "8",
        "--report",
        report.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("report written to"));
    let html = std::fs::read_to_string(&report).expect("report written");
    assert!(html.starts_with("<!DOCTYPE html>"), "{}", &html[..60]);
    assert!(html.contains("<svg"), "{html}");
    // The recorder is installed for --report alone: the run's own
    // metrics (counters, spans) are embedded in the report.
    assert!(html.contains("<h2>Counters</h2>"), "{html}");
    assert!(html.contains("replay.ranks"), "{html}");
    assert!(html.contains("<h2>Spans</h2>"), "{html}");
    // Self-contained: no external resources of any kind. (The SVG
    // xmlns attribute is a namespace identifier, not a fetched URL.)
    assert!(!html.contains("src="), "{html}");
    assert!(!html.contains("href="), "{html}");
    assert!(!html.contains("<script"), "{html}");
    assert!(!html.contains("<link"), "{html}");
}

#[test]
fn unwritable_metrics_path_exits_4_after_success() {
    let out = memcontend(&[
        "topo",
        "--platform",
        "henri",
        "--metrics",
        "/nonexistent-dir/metrics.jsonl",
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    // The command output is still printed before the export failure.
    assert!(String::from_utf8_lossy(&out.stdout).contains("henri"));
}

#[test]
fn misspelt_options_exit_2_on_every_subcommand() {
    for cmd in [
        "topo",
        "bench",
        "calibrate",
        "predict",
        "advise",
        "evaluate",
        "replay",
        "schedule",
        "serve",
        "help",
    ] {
        let out = memcontend(&[cmd, "--platfrom", "henri"]);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("unknown option --platfrom"),
            "{cmd}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("usage:"), "{cmd}: {}", stderr(&out));
    }
}

#[test]
fn out_of_range_sizes_and_ranks_exit_2() {
    let replay = ["replay", "--platform", "henri", "--generate"];
    for tail in [
        &["allreduce", "--ranks", "1000000000000", "--stream", "yes"][..],
        &["allreduce", "--ranks", "1000000000000"],
        &["halo2d", "--ranks", "4", "--iters", "1000000000000"],
        &["halo2d", "--compute-mb", "6e10"],
        &["halo2d", "--comm-mb", "-1"],
    ] {
        let out = memcontend(&[&replay[..], tail].concat());
        assert_eq!(out.status.code(), Some(2), "{tail:?}: {}", stderr(&out));
    }
    for gb in [["-1", "1"], ["nan", "1"], ["1", "inf"], ["1", "1e308"]] {
        let out = memcontend(&[
            "advise",
            "--platform",
            "henri",
            "--compute-gb",
            gb[0],
            "--comm-gb",
            gb[1],
        ]);
        assert_eq!(out.status.code(), Some(2), "{gb:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("2^53"), "{gb:?}: {}", stderr(&out));
    }
}

/// One core ceiling (2^10 per compute phase) wherever a count enters:
/// a trace line is invalid data, a flag a usage error. Past it the
/// simulators would add one stream per core and the advisor would
/// score every count, so none of these may run.
#[test]
fn core_counts_past_the_ceiling_get_their_callers_class() {
    let dir = tmp("cores");
    let trace = dir.join("t.jsonl");
    std::fs::write(
        &trace,
        "{\"ranks\":2}\n\
         {\"rank\":0,\"event\":\"compute\",\"numa\":0,\"cores\":10000000000,\"bytes\":1000000}\n",
    )
    .unwrap();
    let trace = trace.to_str().unwrap();
    let out = memcontend(&["replay", "--platform", "henri", "--input", trace]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
    assert!(stderr(&out).contains("2^10"), "{}", stderr(&out));

    let good = dir.join("good.jsonl");
    std::fs::write(&good, "{\"ranks\":2}\n{\"rank\":0,\"event\":\"wait\"}\n").unwrap();
    let good = good.to_str().unwrap();
    for args in [
        &[
            "replay",
            "--platform",
            "henri",
            "--input",
            good,
            "--cores",
            "1025",
        ][..],
        &[
            "replay",
            "--platform",
            "henri",
            "--generate",
            "halo2d",
            "--ranks",
            "4",
            "--iters",
            "1",
            "--cores",
            "10000000000",
        ],
        &[
            "advise",
            "--platform",
            "henri",
            "--compute-gb",
            "10",
            "--comm-gb",
            "1",
            "--max-cores",
            "1000000000",
        ],
    ] {
        let out = memcontend(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("2^10"), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn out_of_range_queue_lines_exit_3_with_their_line_number() {
    let dir = tmp("queue");
    for job in [
        r#"{"name":"a","compute_gb":1,"comm_gb":1e308,"max_cores":8}"#,
        r#"{"pattern":"allreduce","ranks":1000000000000}"#,
        r#"{"pattern":"halo2d","ranks":4,"iters":1,"cores":10000000000}"#,
    ] {
        let path = dir.join("q.jsonl");
        std::fs::write(&path, format!("{{\"compute_gb\":1}}\n{job}\n")).unwrap();
        let out = memcontend(&[
            "schedule",
            "--jobs",
            path.to_str().unwrap(),
            "--platform",
            "henri",
        ]);
        assert_eq!(out.status.code(), Some(3), "{job}: {}", stderr(&out));
        assert!(stderr(&out).contains("line 2"), "{job}: {}", stderr(&out));
    }
}

/// A fleet of more than 2^12 nodes is a usage error, checked before any
/// node is built or the queue is read: before, `--nodes` or a `--fleet`
/// count of 10^12 reached an allocation abort.
#[test]
fn fleets_past_the_node_ceiling_exit_2() {
    let over = [
        &["--platform", "henri", "--nodes", "4097"][..],
        &["--platform", "henri", "--nodes", "18446744073709551615"],
        &["--fleet", "henri*4097"],
        &["--fleet", "henri*4000,dahu*97"],
        &["--fleet", "henri*18446744073709551615,dahu*1"],
    ];
    for fleet in over {
        let args = [&["schedule", "--jobs", "absent.jsonl"][..], fleet].concat();
        let out = memcontend(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("must be at most 4096 nodes"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    // 2^64 does not parse as a count at all.
    for fleet in [
        &["--platform", "henri", "--nodes", "18446744073709551616"][..],
        &["--fleet", "henri*18446744073709551616"],
    ] {
        let args = [&["schedule", "--jobs", "absent.jsonl"][..], fleet].concat();
        let out = memcontend(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn misspelt_metrics_option_exits_2_and_writes_nothing() {
    let dir = tmp("metrcs");
    let path = dir.join("m.jsonl");
    let out = memcontend(&["topo", "--metrcs", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--metrcs"), "{}", stderr(&out));
    assert!(!path.exists());
}

/// `predict` applies the core ceiling and the NUMA range like serve does:
/// before, 10^10 cores printed "NaN %" and a ninth NUMA node printed
/// bandwidths for a node henri does not have, both with exit 0.
#[test]
fn predict_rejects_cores_past_the_ceiling_and_unknown_numa_nodes() {
    for (cores, comp, says) in [
        ("1025", "0", "2^10"),
        ("10000000000", "0", "2^10"),
        ("4", "9", "out of range"),
    ] {
        let out = memcontend(&[
            "predict",
            "--platform",
            "henri",
            "--cores",
            cores,
            "--comp-numa",
            comp,
            "--comm-numa",
            "0",
        ]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{cores} {comp}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains(says), "{}", stderr(&out));
    }
}
