//! Calibrated-model text fuzz: a `model_to_text` output under seeded
//! byte flips, truncations and inserted `\`, `"`, control bytes and
//! invalid UTF-8, the mutations the trace and job-queue fuzzes apply.
//! Every input reads back as a model or as a typed `PersistError` of the
//! invalid-data class, never a panic; a model that reads back answers
//! every placement without panicking either.
//!
//! `model_from_text` takes text. `predict --model` and `serve --warm`
//! read the file with `fs::read_to_string`, which turns invalid UTF-8
//! into an I/O error before the parser runs; here it is decoded lossily
//! instead, so the parser also sees the replacement characters.

use std::sync::OnceLock;

use mc_membench::{calibration_sweeps, BenchConfig};
use mc_model::{model_from_text, model_to_text, ContentionModel, ErrorCategory, McError};
use mc_topology::platforms;
use proptest::prelude::*;
use proptest::TestRng;

/// The persisted form of henri-subnuma's calibrated model (four NUMA
/// nodes, so the text has both a local and a remote section worth
/// mutating).
fn model_text() -> &'static [u8] {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let p = platforms::henri_subnuma();
        let (local, remote) = calibration_sweeps(&p, BenchConfig::default());
        let model = ContentionModel::calibrate(&p.topology, &local, &remote).unwrap();
        model_to_text(&model)
    })
    .as_bytes()
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

/// Read `bytes` back and check the outcome.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    match model_from_text(&text) {
        Ok(model) => {
            for (m_comp, m_comm) in model.placements() {
                for n in [1, 8, 17] {
                    model.predict(n, m_comp, m_comm);
                    model.predict_alone(n, m_comp, m_comm);
                }
            }
        }
        Err(e) => {
            let category = McError::from(e.clone()).category();
            prop_assert!(category == ErrorCategory::InvalidData, "{e} on {text:?}");
        }
    }
    Ok(())
}

#[test]
fn the_unmutated_model_reads_back() {
    let text = std::str::from_utf8(model_text()).unwrap();
    let model = model_from_text(text).unwrap();
    assert_eq!(model_to_text(&model), text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fuzzed_models_never_panic(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let mut bytes = model_text().to_vec();
        for _ in 0..1 + rng.below(4) {
            mutate(&mut rng, &mut bytes);
        }
        check(&bytes)?;
    }
}
