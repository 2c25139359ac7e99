//! Black-box tests of the `bench` binary: each scenario at a small size
//! prints one JSON object whose deterministic fields are pinned, and
//! every failure exits with the `memcontend` code of its class.

use std::process::{Command, Output};

use mc_json::Json;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Run a scenario that must succeed and parse its one JSON line.
fn summary(args: &[&str]) -> Json {
    let out = bench(args);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    Json::parse(stdout.trim()).unwrap_or_else(|e| panic!("{args:?}: {e}: {stdout}"))
}

/// The number at `path` (dot-separated keys), printed with `decimals`.
fn fixed(j: &Json, path: &str, decimals: usize) -> String {
    let v = path
        .split('.')
        .try_fold(j, |v, key| v.get(key))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("no number at {path}"));
    format!("{v:.decimals$}")
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    j.get(key).and_then(Json::as_str).expect("string field")
}

#[test]
fn replay_pins_events_makespan_and_solver_counters_in_both_modes() {
    for (mode, extra) in [("stream", &[][..]), ("eager", &["--eager", "yes"][..])] {
        let args = [
            &[
                "replay",
                "--pattern",
                "halo2d",
                "--ranks",
                "64",
                "--iters",
                "1",
            ][..],
            extra,
        ]
        .concat();
        let j = summary(&args);
        assert_eq!(text(&j, "mode"), mode);
        assert_eq!(text(&j, "platform"), "henri");
        assert_eq!(fixed(&j, "events", 0), "640");
        assert_eq!(fixed(&j, "makespan_s", 6), "0.011984");
        assert_eq!(fixed(&j, "slowdown", 4), "1.0000");
        assert!(j.get("wall_s").and_then(Json::as_f64).is_some());
        for (counter, value) in [
            ("node_steps", "256"),
            ("requests", "192"),
            ("reuse_hits", "0"),
            ("state_hits", "190"),
            ("full_solves", "2"),
            ("transitions", "1536"),
            ("reduction", "128"),
        ] {
            assert_eq!(
                fixed(&j, &format!("solver.{counter}"), 0),
                value,
                "{counter}"
            );
        }
    }
}

#[test]
fn schedule_pins_makespans_simulations_and_speedups() {
    let j = summary(&["schedule", "--jobs", "4", "--nodes", "2"]);
    assert_eq!(text(&j, "fleet"), "henri x2");
    assert_eq!(fixed(&j, "max_slowdown", 2), "1.25");
    assert_eq!(fixed(&j, "node_simulations", 0), "15");
    for (counter, value) in [
        ("requests", "64"),
        ("reuse_hits", "0"),
        ("state_hits", "30"),
        ("full_solves", "34"),
    ] {
        assert_eq!(
            fixed(&j, &format!("solver.{counter}"), 0),
            value,
            "{counter}"
        );
    }
    for (policy, makespan, throughput, colocated, violations) in [
        ("first_fit", "2.438547", "1.6403", "4", "4"),
        ("round_robin", "2.673435", "1.4962", "4", "3"),
        ("contention_aware", "1.590668", "2.5147", "3", "2"),
    ] {
        assert_eq!(fixed(&j, &format!("{policy}.makespan_s"), 6), makespan);
        let tput = fixed(&j, &format!("{policy}.throughput_jobs_per_s"), 4);
        assert_eq!(tput, throughput);
        assert_eq!(fixed(&j, &format!("{policy}.colocated"), 0), colocated);
        assert_eq!(fixed(&j, &format!("{policy}.violations"), 0), violations);
    }
    assert_eq!(fixed(&j, "speedup_vs_first_fit", 4), "1.5330");
    assert_eq!(fixed(&j, "speedup_vs_round_robin", 4), "1.6807");
}

#[test]
fn cxl_pins_the_crossover() {
    let j = summary(&["cxl"]);
    assert_eq!(text(&j, "platform"), "henri-cxl");
    let rows = j.get("workloads").and_then(Json::as_array).unwrap();
    let expected = [
        (
            "pingpong-idle",
            "4",
            "0.005933",
            "0.011186",
            "1.8853",
            "messages",
        ),
        ("pingpong-hot", "5", "0.016956", "0.015481", "0.9130", "cxl"),
        ("halo2d-hot", "80", "0.094892", "0.045984", "0.4846", "cxl"),
    ];
    assert_eq!(rows.len(), expected.len());
    for (row, (name, events, messages, cxl, ratio, winner)) in rows.iter().zip(expected) {
        assert_eq!(text(row, "name"), name);
        assert_eq!(fixed(row, "events", 0), events);
        assert_eq!(fixed(row, "messages.makespan_s", 6), messages);
        assert_eq!(fixed(row, "cxl.makespan_s", 6), cxl);
        assert_eq!(fixed(row, "cxl_over_messages", 4), ratio);
        assert_eq!(text(row, "winner"), winner);
    }
    let hot = &rows[2];
    assert_eq!(fixed(hot, "messages.slowdown", 4), "4.2067");
    assert_eq!(fixed(hot, "cxl.slowdown", 4), "2.0385");
}

#[test]
fn usage_mistakes_exit_2() {
    for args in [
        &[][..],
        &["zzz"],
        &["replay", "--pattern", "halo2d", "--ranks", "x"],
        &[
            "replay",
            "--pattern",
            "halo2d",
            "--ranks",
            "4",
            "--eager",
            "maybe",
        ],
        &["replay", "--pattern", "halo2d", "--ranks", "1"],
        &[
            "replay",
            "--pattern",
            "allreduce",
            "--ranks",
            "1000000000000",
        ],
        &[
            "replay",
            "--pattern",
            "halo2d",
            "--ranks",
            "4",
            "--compute-mb",
            "8589934593",
        ],
        &["schedule", "--platform", "zzz"],
        &["schedule", "--max-slowdown", "0.5"],
        &["schedule", "--job", "4"],
        &["replay", "--itres", "1"],
        &["cxl", "--core", "4"],
        &["loadgen", "--addr", "127.0.0.1:9", "--con", "4"],
        &["cxl", "--cores", "0"],
        &["cxl", "--cores", "10000000000"],
        &["cxl", "--comm-mb", "17592186044416"],
        &["loadgen", "--addr", "127.0.0.1:9", "--rate", "1e-300"],
        &["loadgen", "--addr", "127.0.0.1:9", "--duration-s", "inf"],
        &["loadgen", "--conns", "4"],
        // Past the thread ceiling, before any connection starts.
        &["loadgen", "--addr", "127.0.0.1:9", "--conns", "1025"],
        // Past the schedule ceiling, before any job or node is built.
        &["schedule", "--jobs", "4097"],
        &["schedule", "--nodes", "4097"],
        &["schedule", "--jobs", "18446744073709551616"],
        &["schedule", "--nodes", "18446744073709551616"],
    ] {
        let out = bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("usage: bench"), "{args:?}");
    }
}

#[test]
fn cxl_on_a_platform_without_a_pool_is_invalid_data() {
    let out = bench(&["cxl", "--platform", "henri"]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stderr(&out).contains("CXL.mem pool"), "{}", stderr(&out));
}

#[test]
fn loadgen_with_nothing_completed_exits_1_after_its_summary() {
    // A port whose listener is gone refuses every connection, so the
    // run completes nothing.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("ephemeral port")
        .to_string();
    let out = bench(&["loadgen", "--addr", &addr, "--duration-s", "0.1"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let j = Json::parse(String::from_utf8_lossy(&out.stdout).trim()).unwrap();
    assert_eq!(fixed(&j, "completed", 0), "0");
}
