//! Exit-code contract and observability-export tests for the `repro`
//! binary: 0 success, 2 usage mistakes, 3 invalid or degenerate input
//! data, 4 file I/O failures — never a panic on user-reachable paths.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    let out = repro(&["table1", "--frobnicate", "yes"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn missing_flag_value_exits_2() {
    let out = repro(&["table1", "--out"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--out"));
}

#[test]
fn evaluate_csv_without_the_csv_exits_2() {
    let dir = tmp("no-csv");
    let out = repro(&["evaluate-csv", "--out", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--sweep-csv"));
    assert!(
        stderr(&out).contains("missing required option --sweep-csv"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn unreadable_sweep_csv_exits_4() {
    let dir = tmp("io");
    let missing = dir.join("does-not-exist.csv");
    let out = repro(&[
        "evaluate-csv",
        "--out",
        dir.to_str().unwrap(),
        "--sweep-csv",
        missing.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
}

#[test]
fn incomplete_sweep_exits_3_not_panic() {
    // A parseable sweep that misses the remote calibration placement: the
    // old code path hit `.expect("placement measured")` and aborted.
    let dir = tmp("degenerate");
    let csv = dir.join("partial.csv");
    std::fs::write(
        &csv,
        "platform,m_comp,m_comm,n_cores,comp_alone,comm_alone,comp_par,comm_par\n\
         henri,0,0,1,5.6,11.0,5.6,11.0\n\
         henri,0,0,2,11.2,11.0,11.2,10.5\n",
    )
    .expect("write csv");
    let out = repro(&[
        "evaluate-csv",
        "--out",
        dir.to_str().unwrap(),
        "--sweep-csv",
        csv.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("placement"), "{}", stderr(&out));
}

#[test]
fn non_finite_csv_cell_exits_3_with_line_number() {
    let dir = tmp("nan");
    let csv = dir.join("nan.csv");
    std::fs::write(
        &csv,
        "platform,m_comp,m_comm,n_cores,comp_alone,comm_alone,comp_par,comm_par\n\
         henri,0,0,1,5.6,NaN,5.6,11.0\n",
    )
    .expect("write csv");
    let out = repro(&[
        "evaluate-csv",
        "--out",
        dir.to_str().unwrap(),
        "--sweep-csv",
        csv.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
}

#[test]
fn unknown_platform_in_csv_exits_2() {
    let dir = tmp("unknown-platform");
    let csv = dir.join("alien.csv");
    std::fs::write(
        &csv,
        "platform,m_comp,m_comm,n_cores,comp_alone,comm_alone,comp_par,comm_par\n\
         alien,0,0,1,5.6,11.0,5.6,11.0\n",
    )
    .expect("write csv");
    let out = repro(&[
        "evaluate-csv",
        "--out",
        dir.to_str().unwrap(),
        "--sweep-csv",
        csv.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("alien"), "{}", stderr(&out));
}

#[test]
fn metrics_flag_exports_pipeline_metrics() {
    let dir = tmp("metrics");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.jsonl");
    let out = repro(&[
        "fig2",
        "--exact",
        "yes",
        "--out",
        dir.to_str().unwrap(),
        "--metrics",
        metrics.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let metrics = std::fs::read_to_string(&metrics).expect("metrics exported");
    assert!(metrics.contains("\"name\":\"sweep.points\""), "{metrics}");
    assert!(metrics.contains("\"type\":\"histogram\""), "{metrics}");
    let trace = std::fs::read_to_string(&trace).expect("trace exported");
    assert!(trace.contains("\"stage\":\"sweep\""), "{trace}");
    assert!(trace.contains("\"stage\":\"calibrate\""), "{trace}");
    assert!(trace.contains("\"stage\":\"repro.fig2\""), "{trace}");
}

#[test]
fn comma_separated_targets_run_together() {
    let dir = tmp("comma");
    let out = repro(&["table1,fig1", "--out", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(dir.join("table1.txt").exists());
    assert!(dir.join("fig1_topologies.txt").exists());
}

#[test]
fn unknown_target_exits_2_names_it_and_writes_nothing() {
    let dir = tmp("fgi3");
    for targets in ["fgi3", "table1,fgi3", "table1,"] {
        let out = repro(&[targets, "--out", dir.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{targets}: {}", stderr(&out));
        let name = targets.rsplit(',').next().unwrap();
        assert!(
            stderr(&out).contains(&format!("unknown target '{name}'")),
            "{targets}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("usage:"), "{targets}");
        assert!(!dir.join("table1.txt").exists(), "{targets}");
    }
}

#[test]
fn misspelt_option_exits_2_and_names_it() {
    let out = repro(&["table1", "--exatc", "yes"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unknown option --exatc"),
        "{}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn chrome_trace_format_writes_a_trace_event_array() {
    let dir = tmp("chrome");
    let trace = dir.join("trace.json");
    let out = repro(&[
        "fig2",
        "--exact",
        "yes",
        "--out",
        dir.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let body = std::fs::read_to_string(&trace).expect("chrome trace exported");
    assert!(body.starts_with("[\n"), "{}", &body[..40.min(body.len())]);
    assert!(body.trim_end().ends_with(']'), "{body}");
    assert!(body.contains("\"ph\":\"X\""), "{body}");
    assert!(body.contains("repro.fig2"), "{body}");
}
