//! Plain-text persistence for calibrated models.
//!
//! A calibrated model is ten numbers per locality class plus a little
//! topology context — exactly the kind of artefact users want to archive
//! next to their benchmark CSVs and reload later without re-measuring. The
//! format is a minimal `key = value` text file (one section per
//! instantiation), kept hand-rolled so the dependency set stays at the
//! approved crates.

use std::fmt::Write as _;

use mc_topology::NumaId;

use crate::instantiation::InstantiatedModel;
use crate::params::ModelParams;
use crate::placement::ContentionModel;

/// Errors when parsing a persisted model.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// A required key is missing from a section.
    MissingKey(&'static str),
    /// A value failed to parse (line number, 1-based).
    BadValue(usize),
    /// A section header is missing or unknown.
    BadSection(usize),
    /// The parsed parameters are structurally invalid.
    Invalid(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::MissingKey(k) => write!(f, "missing key {k}"),
            PersistError::BadValue(line) => write!(f, "bad value at line {line}"),
            PersistError::BadSection(line) => write!(f, "bad section at line {line}"),
            PersistError::Invalid(e) => write!(f, "invalid parameters: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

fn write_params(out: &mut String, section: &str, p: &ModelParams) {
    let _ = writeln!(out, "[{section}]");
    let _ = writeln!(out, "n_max_par = {}", p.n_max_par);
    let _ = writeln!(out, "t_max_par = {}", p.t_max_par);
    let _ = writeln!(out, "n_max_seq = {}", p.n_max_seq);
    let _ = writeln!(out, "t_max_seq = {}", p.t_max_seq);
    let _ = writeln!(out, "t_max2_par = {}", p.t_max2_par);
    let _ = writeln!(out, "delta_l = {}", p.delta_l);
    let _ = writeln!(out, "delta_r = {}", p.delta_r);
    let _ = writeln!(out, "b_comp_seq = {}", p.b_comp_seq);
    let _ = writeln!(out, "b_comm_seq = {}", p.b_comm_seq);
    let _ = writeln!(out, "alpha = {}", p.alpha);
}

/// Serialise a calibrated model to the text format.
pub fn model_to_text(model: &ContentionModel) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# memory-contention calibrated model");
    let _ = writeln!(out, "[meta]");
    let _ = writeln!(out, "numa_per_socket = {}", model.numa_per_socket());
    let _ = writeln!(out, "numa_count = {}", model.placements().len().isqrt());
    write_params(&mut out, "local", model.local().params());
    write_params(&mut out, "remote", model.remote().params());
    out
}

/// Most NUMA nodes a model file may declare: 2^8, far above any
/// platform's. A model answers for every (computation, communication)
/// node pair, so past this a file's placement grid would outgrow memory.
const MAX_NUMA_NODES: usize = 1 << 8;

#[derive(Default)]
struct RawSection {
    entries: Vec<(String, f64)>,
}

impl RawSection {
    fn get(&self, key: &'static str) -> Result<f64, PersistError> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .ok_or(PersistError::MissingKey(key))
    }

    fn params(&self) -> Result<ModelParams, PersistError> {
        let p = ModelParams {
            n_max_par: self.get("n_max_par")? as usize,
            t_max_par: self.get("t_max_par")?,
            n_max_seq: self.get("n_max_seq")? as usize,
            t_max_seq: self.get("t_max_seq")?,
            t_max2_par: self.get("t_max2_par")?,
            delta_l: self.get("delta_l")?,
            delta_r: self.get("delta_r")?,
            b_comp_seq: self.get("b_comp_seq")?,
            b_comm_seq: self.get("b_comm_seq")?,
            alpha: self.get("alpha")?,
        };
        p.validate()
            .map_err(|e| PersistError::Invalid(e.to_string()))?;
        Ok(p)
    }
}

/// Parse the text format back into a model.
pub fn model_from_text(text: &str) -> Result<ContentionModel, PersistError> {
    let mut meta = RawSection::default();
    let mut local = RawSection::default();
    let mut remote = RawSection::default();
    let mut current: Option<&mut RawSection> = None;

    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(section) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            current = match section {
                "meta" => Some(&mut meta),
                "local" => Some(&mut local),
                "remote" => Some(&mut remote),
                _ => return Err(PersistError::BadSection(idx + 1)),
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(PersistError::BadValue(idx + 1));
        };
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| PersistError::BadValue(idx + 1))?;
        // `str::parse::<f64>` happily accepts "NaN"/"inf"; a persisted
        // model must never smuggle non-finite parameters past the
        // validation `from_csv` performs on fresh data.
        if !value.is_finite() {
            return Err(PersistError::BadValue(idx + 1));
        }
        match current.as_deref_mut() {
            Some(section) => section.entries.push((key.trim().to_string(), value)),
            None => return Err(PersistError::BadSection(idx + 1)),
        }
    }

    let numa_per_socket = meta.get("numa_per_socket")? as usize;
    let numa_count = meta.get("numa_count")? as usize;
    if numa_count > MAX_NUMA_NODES {
        return Err(PersistError::Invalid(format!(
            "{numa_count} NUMA nodes, more than the {MAX_NUMA_NODES} a model may hold"
        )));
    }
    if numa_per_socket == 0 || numa_count == 0 || !numa_count.is_multiple_of(numa_per_socket) {
        return Err(PersistError::Invalid(format!(
            "inconsistent topology: {numa_count} nodes, {numa_per_socket} per socket"
        )));
    }
    Ok(ContentionModel::from_parts(
        InstantiatedModel::new(local.params()?),
        InstantiatedModel::new(remote.params()?),
        numa_per_socket,
        numa_count,
        (NumaId::new(0), NumaId::new(0)),
        (
            NumaId::new(numa_per_socket as u16),
            NumaId::new(numa_per_socket as u16),
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_membench::{calibration_sweeps, BenchConfig};
    use mc_topology::platforms;

    fn model() -> ContentionModel {
        let p = platforms::henri_subnuma();
        let (local, remote) = calibration_sweeps(&p, BenchConfig::default());
        ContentionModel::calibrate(&p.topology, &local, &remote).unwrap()
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let m = model();
        let text = model_to_text(&m);
        let back = model_from_text(&text).unwrap();
        for (m_comp, m_comm) in m.placements() {
            for n in [1usize, 6, 12, 17] {
                let a = m.predict(n, m_comp, m_comm);
                let b = back.predict(n, m_comp, m_comm);
                assert!((a.comp - b.comp).abs() < 1e-9, "comp at n={n}");
                assert!((a.comm - b.comm).abs() < 1e-9, "comm at n={n}");
            }
        }
    }

    #[test]
    fn text_is_human_readable() {
        let text = model_to_text(&model());
        assert!(text.contains("[local]"));
        assert!(text.contains("[remote]"));
        assert!(text.contains("b_comm_seq = "));
        assert!(text.contains("numa_per_socket = 2"));
    }

    #[test]
    fn a_numa_count_above_the_ceiling_is_rejected() {
        let text = model_to_text(&model());
        assert!(text.contains("numa_count = 4\n"));
        let ok = text.replace("numa_count = 4\n", "numa_count = 256\n");
        assert_eq!(model_from_text(&ok).unwrap().placements().len(), 256 * 256);
        for bad in ["258", "10000000000", "1e300"] {
            let text = text.replace("numa_count = 4\n", &format!("numa_count = {bad}\n"));
            assert!(
                matches!(model_from_text(&text), Err(PersistError::Invalid(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn missing_key_is_reported() {
        let text = model_to_text(&model()).replace("alpha = ", "omega = ");
        assert_eq!(
            model_from_text(&text),
            Err(PersistError::MissingKey("alpha"))
        );
    }

    #[test]
    fn non_finite_values_are_rejected_with_line_numbers() {
        // "NaN"/"inf" parse successfully via str::parse::<f64>; the format
        // must reject them in every section, pointing at the line.
        for bad in ["NaN", "nan", "inf", "-inf", "infinity"] {
            let text = format!("[meta]\nnuma_per_socket = {bad}\n");
            assert_eq!(
                model_from_text(&text),
                Err(PersistError::BadValue(2)),
                "meta value {bad:?} must be rejected"
            );
        }
        let text = model_to_text(&model())
            .lines()
            .map(|l| {
                if l.starts_with("alpha = ") {
                    "alpha = NaN".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("alpha = NaN"), "substitution must hit");
        let line = text
            .lines()
            .position(|l| l.starts_with("alpha = NaN"))
            .unwrap()
            + 1;
        assert_eq!(model_from_text(&text), Err(PersistError::BadValue(line)));
    }

    #[test]
    fn round_trip_rejects_injected_infinities() {
        let text = model_to_text(&model());
        for field in ["t_max_par = ", "b_comm_seq = ", "delta_r = "] {
            let broken = text
                .lines()
                .map(|l| {
                    if l.starts_with(field) {
                        format!("{field}inf")
                    } else {
                        l.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join("\n");
            assert!(
                matches!(model_from_text(&broken), Err(PersistError::BadValue(_))),
                "{field}inf must not round-trip"
            );
        }
    }

    #[test]
    fn garbage_value_is_located() {
        let text = "[meta]\nnuma_per_socket = spaghetti\n";
        assert_eq!(model_from_text(text), Err(PersistError::BadValue(2)));
    }

    #[test]
    fn unknown_section_is_rejected() {
        let text = "[surprise]\nx = 1\n";
        assert_eq!(model_from_text(text), Err(PersistError::BadSection(1)));
    }

    #[test]
    fn key_before_any_section_is_rejected() {
        let text = "x = 1\n";
        assert_eq!(model_from_text(text), Err(PersistError::BadSection(1)));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let text = model_to_text(&model());
        // Force alpha out of range in both sections.
        let broken = text
            .lines()
            .map(|l| {
                if l.starts_with("alpha = ") {
                    "alpha = 7.0".to_string()
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(matches!(
            model_from_text(&broken),
            Err(PersistError::Invalid(_))
        ));
    }
}
