//! Black-box protocol tests for `memcontend serve`: the binary is
//! spawned with piped stdin/stdout and must honour the JSON-lines
//! contract — one response per request, in order, typed in-band errors,
//! exit 0 at EOF — plus the observability story (`--metrics`/`--trace`
//! exports) and the startup exit codes.
//!
//! The conversational surface is pinned by a golden transcript
//! (`tests/golden/serve_session.jsonl`): request lines prefixed `"> "`,
//! expected response lines prefixed `"< "`. The simulation is
//! deterministic, so responses — floats included — are byte-stable.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

/// Run `memcontend serve <flags>` feeding `input` to stdin, return the
/// completed process output.
fn serve(flags: &[&str], input: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_memcontend"))
        .arg("serve")
        .args(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("memcontend serve spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("request lines written");
    // Dropping stdin closes the pipe: the service sees EOF and exits.
    child.wait_with_output().expect("memcontend serve exits")
}

fn stdout_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect()
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/serve_session.jsonl"
);

#[test]
fn golden_session_replays_byte_for_byte() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden transcript present");
    let requests: Vec<&str> = golden
        .lines()
        .filter_map(|l| l.strip_prefix("> "))
        .collect();
    let expected: Vec<&str> = golden
        .lines()
        .filter_map(|l| l.strip_prefix("< "))
        .collect();
    assert!(!requests.is_empty() && requests.len() == expected.len());

    let out = serve(&[], &(requests.join("\n") + "\n"));
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = stdout_lines(&out);
    assert_eq!(actual.len(), expected.len(), "one response per request");
    for (i, (got, want)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "response {} diverged from the transcript", i + 1);
    }
}

/// The serving acceptance bar: a 100-request batch against one platform
/// answers with at least 90 % registry cache hits, asserted from the
/// `--metrics` JSON-lines export.
#[test]
fn hundred_request_batch_is_mostly_registry_hits() {
    let dir = std::env::temp_dir().join(format!("memcontend-serve-acc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let metrics = dir.join("metrics.jsonl");
    let trace = dir.join("trace.jsonl");

    let items: Vec<String> = (0..100)
        .map(|i| {
            format!(
                r#"{{"op":"predict","platform":"henri","cores":{},"comp_numa":0,"comm_numa":1}}"#,
                i % 17 + 1
            )
        })
        .collect();
    let batch = format!("{{\"batch\":[{}]}}\n", items.join(","));
    let out = serve(
        &[
            "--workers",
            "4",
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ],
        &batch,
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // All 100 answers in the single batch response are successes.
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), 1);
    assert_eq!(lines[0].matches("\"ok\":true").count(), 101); // envelope + items
    assert_eq!(lines[0].matches("\"comp\":").count(), 100);

    let metrics = std::fs::read_to_string(&metrics).expect("metrics exported");
    let hits = counter_total(&metrics, "registry.hit");
    let misses = counter_total(&metrics, "registry.miss");
    assert_eq!(hits + misses, 100, "{metrics}");
    assert!(hits >= 90, "only {hits} hits / {misses} misses\n{metrics}");
    assert_eq!(counter_total(&metrics, "serve.requests"), 100);
    assert!(metrics.contains("\"name\":\"serve.request_seconds\""));
    assert!(metrics.contains("\"name\":\"serve.batch_size\""));

    let trace = std::fs::read_to_string(&trace).expect("trace exported");
    for stage in ["serve", "serve.batch", "serve.request"] {
        assert!(trace.contains(&format!("\"stage\":\"{stage}\"")), "{trace}");
    }
}

/// Sum every exported value of a counter across its tag sets.
fn counter_total(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .filter(|l| {
            l.contains("\"type\":\"counter\"") && l.contains(&format!("\"name\":\"{name}\""))
        })
        .map(|l| {
            let raw = l.split("\"value\":").nth(1).expect("counter has a value");
            raw.trim_end_matches('}').parse::<u64>().expect("integer")
        })
        .sum()
}

#[test]
fn empty_input_exits_zero_silently() {
    let out = serve(&[], "");
    assert_eq!(out.status.code(), Some(0));
    assert!(out.stdout.is_empty());
}

#[test]
fn out_of_range_requests_answer_usage_and_the_session_goes_on() {
    let input = concat!(
        r#"{"op":"replay","platform":"henri","pattern":"allreduce","ranks":1000000000000}"#,
        "\n",
        r#"{"op":"replay","platform":"henri","pattern":"halo2d","ranks":4,"iters":1000000000000}"#,
        "\n",
        r#"{"op":"replay","platform":"henri","pattern":"halo2d","compute_mb":1e10}"#,
        "\n",
        r#"{"op":"recommend","platform":"henri","compute_gb":1e308,"comm_gb":1}"#,
        "\n",
        r#"{"op":"stats"}"#,
        "\n",
    );
    let out = serve(&[], input);
    assert_eq!(out.status.code(), Some(0));
    let lines = stdout_lines(&out);
    assert_eq!(lines.len(), 5, "{lines:?}");
    for line in &lines[..4] {
        assert!(line.contains(r#""class":"usage""#), "{line}");
    }
    assert!(lines[4].contains(r#""op":"stats""#), "{}", lines[4]);
}

#[test]
fn startup_errors_use_the_process_exit_codes() {
    // A bad flag is a usage error before the loop starts.
    let out = serve(&["--workers", "0"], "");
    assert_eq!(out.status.code(), Some(2));
    // An unreadable --warm file is fatal I/O: a service asked to start
    // warm must not silently start cold.
    let out = serve(&["--warm", "henri=/nonexistent/model.txt"], "");
    assert_eq!(out.status.code(), Some(4));
}

#[test]
fn warm_started_service_hits_on_its_first_request() {
    let dir = std::env::temp_dir().join(format!("memcontend-serve-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let model = dir.join("henri.txt");
    let saved = Command::new(env!("CARGO_BIN_EXE_memcontend"))
        .args(["calibrate", "--platform", "henri", "--save"])
        .arg(&model)
        .output()
        .expect("calibrate runs");
    assert_eq!(saved.status.code(), Some(0));

    let warm = format!("henri={}", model.display());
    let out = serve(
        &["--warm", &warm],
        "{\"op\":\"predict\",\"platform\":\"henri\",\"cores\":4,\"comp_numa\":0,\"comm_numa\":0}\n",
    );
    assert_eq!(out.status.code(), Some(0));
    let lines = stdout_lines(&out);
    assert!(
        lines[0].contains("\"cached\":true"),
        "warm-loaded model must answer the first request from cache: {}",
        lines[0]
    );
}
