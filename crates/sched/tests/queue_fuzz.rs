//! Job-queue parser fuzz: the committed queues
//! (`tests/golden/schedule_*.jobs.jsonl`) under seeded byte flips,
//! truncations and inserted `\`, `"`, control bytes and invalid UTF-8,
//! the same mutations the trace ingest fuzz applies. Every input ends in
//! `Ok` or a typed `SchedError` of the invalid-data class (`Io` only when
//! a mutated line names a `trace` file), never a panic.
//!
//! `parse_jobs` takes text. The CLI reads a queue with
//! `fs::read_to_string`, which turns invalid UTF-8 into an I/O error
//! before the parser runs; here it is decoded lossily instead, so the
//! parser also sees the replacement characters.

use mc_model::ErrorCategory;
use mc_sched::{parse_jobs, SchedError};
use proptest::prelude::*;
use proptest::TestRng;

const QUEUES: [&str; 2] = ["schedule_mixed12.jobs.jsonl", "schedule_smoke.jobs.jsonl"];

fn queue(name: &str) -> Vec<u8> {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(path).expect("golden queues are committed")
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

/// Parse `bytes` and check the outcome's error class.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    match parse_jobs(&text) {
        Ok(_) => {}
        Err(e @ SchedError::Io { .. }) => prop_assert!(e.category() == ErrorCategory::Io),
        Err(e) => prop_assert!(
            e.category() == ErrorCategory::InvalidData,
            "{e} on {text:?}"
        ),
    }
    Ok(())
}

#[test]
fn unmutated_queues_parse() {
    for name in QUEUES {
        let text = String::from_utf8(queue(name)).unwrap();
        let jobs = parse_jobs(&text).unwrap();
        assert_eq!(jobs.len(), text.lines().count(), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fuzzed_queues_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let mut bytes = queue(QUEUES[rng.below(QUEUES.len())]);
        for _ in 0..1 + rng.below(4) {
            mutate(&mut rng, &mut bytes);
        }
        check(&bytes)?;
    }
}
