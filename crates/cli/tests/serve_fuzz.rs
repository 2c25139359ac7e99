//! Serve request fuzz: the request lines of the golden session
//! (`tests/golden/serve_session.jsonl`) under seeded byte flips,
//! truncations and inserted `\`, `"`, control bytes and invalid UTF-8,
//! the mutations the trace and job-queue fuzzes apply. Each mutated
//! request goes through `serve_loop`, followed by a probe request. Every
//! response is a JSON object, every error is typed (its class agrees
//! with its exit code), nothing panics, and the session still answers
//! the probe after whatever the mutated line became.
//!
//! The same mutations of the `serve --listen` hello line must each get
//! an ack or a typed rejection, and the server must still accept the
//! next connection.

use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use mc_cli::net::NetServer;
use mc_cli::serve::serve_loop;
use mc_cli::Args;
use mc_json::Json;
use mc_membench::{calibration_sweeps, BenchConfig};
use mc_model::{model_to_text, ContentionModel};
use mc_topology::platforms;
use proptest::prelude::*;
use proptest::TestRng;

const PROBE: &str = r#"{"id":"probe","op":"stats"}"#;

/// The golden session's request lines.
fn requests() -> &'static [String] {
    static REQUESTS: OnceLock<Vec<String>> = OnceLock::new();
    REQUESTS.get_or_init(|| {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/serve_session.jsonl"
        );
        let golden = std::fs::read_to_string(path).expect("golden session is committed");
        golden
            .lines()
            .filter_map(|l| l.strip_prefix("> "))
            .map(str::to_owned)
            .collect()
    })
}

/// `--warm henri=FILE` with henri's calibrated model, so a mutated
/// request that stays valid hits the registry instead of calibrating.
fn warm_flag() -> &'static str {
    static FLAG: OnceLock<String> = OnceLock::new();
    FLAG.get_or_init(|| {
        let p = platforms::henri();
        let (local, remote) = calibration_sweeps(&p, BenchConfig::default());
        let model = ContentionModel::calibrate(&p.topology, &local, &remote).unwrap();
        let path = std::env::temp_dir().join(format!(
            "memcontend-serve-fuzz-{}.model.txt",
            std::process::id()
        ));
        std::fs::write(&path, model_to_text(&model)).unwrap();
        format!("henri={}", path.display())
    })
}

/// One mutation of `bytes`: a bit flip, a truncation, or an inserted
/// `\`, `"`, control byte or invalid UTF-8 byte.
fn mutate(rng: &mut TestRng, bytes: &mut Vec<u8>) {
    let at = rng.below(bytes.len() + 1);
    match rng.below(6) {
        0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
        1 => bytes.truncate(at),
        2 => bytes.insert(at, b'\\'),
        3 => bytes.insert(at, b'"'),
        4 => bytes.insert(at, rng.below(0x20) as u8),
        _ => bytes.insert(at, [0xff, 0xc3, 0x80, 0xed][rng.below(4)]),
    }
}

/// An error response's class must be the one its exit code names.
fn check_error(error: &Json) -> Result<(), TestCaseError> {
    let class = error.get("class").and_then(Json::as_str);
    let code = error.get("exit_code").and_then(Json::as_u64);
    prop_assert!(
        matches!(
            (class, code),
            (Some("usage"), Some(2)) | (Some("data"), Some(3)) | (Some("io"), Some(4))
        ),
        "{error:?}"
    );
    Ok(())
}

/// Every response is an object with a boolean `ok`; a failed one (or a
/// failed batch item) carries a typed error.
fn check_response(resp: &Json) -> Result<(), TestCaseError> {
    match resp.get("ok") {
        Some(Json::Bool(true)) => {
            for item in resp.get("batch").and_then(Json::as_array).unwrap_or(&[]) {
                check_response(item)?;
            }
        }
        Some(Json::Bool(false)) => {
            check_error(
                resp.get("error")
                    .ok_or_else(|| TestCaseError::fail("no error"))?,
            )?;
        }
        _ => prop_assert!(false, "no boolean 'ok' in {resp:?}"),
    }
    Ok(())
}

/// Serve `bytes` then the probe; check every response and that the
/// last one answers the probe.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut input = bytes.to_vec();
    input.push(b'\n');
    input.extend_from_slice(PROBE.as_bytes());
    input.push(b'\n');
    let args = Args::parse(["serve", "--warm", warm_flag()]).unwrap();
    let mut out = Vec::new();
    serve_loop(&args, Cursor::new(input), &mut out).unwrap();
    let text = String::from_utf8(out).expect("responses are UTF-8");
    let mut last = None;
    for line in text.lines() {
        let resp = Json::parse(line).map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
        check_response(&resp)?;
        last = Some(resp);
    }
    let last = last.ok_or_else(|| TestCaseError::fail("no response"))?;
    prop_assert!(
        last.get("id").and_then(Json::as_str) == Some("probe")
            && last.get("ok") == Some(&Json::Bool(true)),
        "the probe after {:?} got {last:?}",
        String::from_utf8_lossy(bytes)
    );
    Ok(())
}

#[test]
fn unmutated_requests_are_answered() {
    for request in requests() {
        check(request.as_bytes()).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fuzzed_requests_never_panic_or_end_the_session(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let requests = requests();
        let mut bytes = requests[rng.below(requests.len())].as_bytes().to_vec();
        for _ in 0..1 + rng.below(4) {
            mutate(&mut rng, &mut bytes);
        }
        check(&bytes)?;
    }
}

/// A `serve --listen` on an ephemeral port, run on its own thread.
fn listener() -> &'static str {
    static ADDR: OnceLock<String> = OnceLock::new();
    ADDR.get_or_init(|| {
        let args = Args::parse(["serve", "--listen", "127.0.0.1:0"]).unwrap();
        let server = NetServer::bind(&args).unwrap();
        let addr = server.local_addr().to_string();
        std::thread::spawn(move || server.run());
        addr
    })
}

/// Whether the server reads `line` as a request: it is not UTF-8, or it
/// holds more than blanks or a `#` comment.
fn is_request(line: &[u8]) -> bool {
    std::str::from_utf8(line).map_or(true, |text| {
        let text = text.trim();
        !text.is_empty() && !text.starts_with('#')
    })
}

/// Open a connection, send the lines of `bytes` up to the first the
/// server reads as a request (so none is left unread when it answers and
/// closes), close the sending half and return the first response line.
fn first_answer(bytes: &[u8]) -> Option<String> {
    let mut sent = Vec::new();
    for line in bytes.split(|&b| b == b'\n') {
        sent.extend_from_slice(line);
        sent.push(b'\n');
        if is_request(line) {
            break;
        }
    }
    let mut stream = TcpStream::connect(listener()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A rejection may close the connection before the write half does.
    let _ = stream
        .write_all(&sent)
        .and_then(|()| stream.shutdown(Shutdown::Write));
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    (!line.is_empty()).then_some(line)
}

/// The answer to a (mutated) hello line is an ack or a typed rejection
/// (none when no line reached the server), and the next connection
/// still gets its ack.
fn check_hello(bytes: &[u8]) -> Result<(), TestCaseError> {
    match first_answer(bytes) {
        None => prop_assert!(
            !bytes.split(|&b| b == b'\n').any(is_request),
            "no answer to {bytes:?}"
        ),
        Some(line) => {
            let resp = Json::parse(line.trim_end())
                .map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
            check_response(&resp)?;
        }
    }
    let ack = first_answer(br#"{"hello":{"tenant":"probe"}}"#).unwrap_or_default();
    prop_assert!(
        ack.starts_with(r#"{"ok":true,"hello""#),
        "after {bytes:?}: {ack}"
    );
    Ok(())
}

#[test]
fn unmutated_hello_is_acked() {
    check_hello(br#"{"hello":{"tenant":"alice"}}"#).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fuzzed_hello_lines_get_an_ack_or_a_typed_rejection(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let mut bytes = br#"{"hello":{"tenant":"alice"}}"#.to_vec();
        for _ in 0..1 + rng.below(4) {
            mutate(&mut rng, &mut bytes);
        }
        check_hello(&bytes)?;
    }
}
