//! The job queue: JSON-lines job descriptors distilled to
//! [`PhaseProfile`]s.
//!
//! One job per line, three spellings:
//!
//! ```text
//! {"name":"solver","compute_gb":40,"comm_gb":8,"max_cores":16}
//! {"name":"train","pattern":"allreduce","ranks":4,"iters":2,"compute_mb":256,"comm_mb":64}
//! {"name":"capture","trace":"app.trace.jsonl","max_cores":32}
//! ```
//!
//! Pattern and trace jobs run through the replay distiller
//! ([`mc_replay::phase_profile`]) — which counts **both** communication
//! directions, so send-heavy applications keep their comm volume — and
//! are scaled from per-rank averages to whole-application totals: a
//! scheduled job is the entire application co-located on one node.
//! `max_cores` is the job's requested core budget; `0` (or absent)
//! means "as many as the node offers". Co-location may shrink the grant
//! below the request (two-layer allocation); a request wider than every
//! fleet node is a [`SchedError::JobTooWide`] at validation time.

use mc_json::Json;
use mc_model::{size_bytes, PhaseProfile};
use mc_replay::generate::{self, GenParams};
use mc_replay::search::native_cores;
use mc_replay::{phase_profile, Trace};

use crate::error::SchedError;

/// One job waiting to be placed.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Display name (defaults to `job<index>`).
    pub name: String,
    /// Whole-application workload: total compute bytes, total comm
    /// bytes, requested core budget (`max_cores == 0` → uncapped).
    pub profile: PhaseProfile,
}

/// Bytes per MB of the queue's `compute_mb`/`comm_mb` fields.
const MIB: f64 = (1 << 20) as f64;

fn bad(line: usize, message: impl Into<String>) -> SchedError {
    SchedError::BadJob {
        line,
        message: message.into(),
    }
}

/// A GB (`unit` 1e9) or MB (`unit` 2^20) size field in bytes, under the
/// one size rule ([`size_bytes`]); `default` units when absent.
fn size_field(
    obj: &Json,
    key: &str,
    default: f64,
    unit: f64,
    line: usize,
) -> Result<f64, SchedError> {
    let x = match obj.get(key) {
        None => default,
        Some(v) => v
            .as_f64()
            .ok_or_else(|| bad(line, format!("field '{key}' must be a number")))?,
    };
    size_bytes(x, unit).map_err(|e| bad(line, format!("field '{key}' {e}")))
}

fn usize_field(obj: &Json, key: &str, default: usize, line: usize) -> Result<usize, SchedError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().map(|x| x as usize).ok_or_else(|| {
            bad(
                line,
                format!("field '{key}' must be a non-negative integer"),
            )
        }),
    }
}

/// Distill a trace into a whole-application job profile: per-rank
/// averages from [`phase_profile`] scaled back up by the rank count.
fn distill(trace: &Trace, max_cores: Option<usize>) -> PhaseProfile {
    let ranks = trace.ranks().max(1);
    let avg = phase_profile(trace, 0);
    PhaseProfile {
        compute_bytes: avg.compute_bytes * ranks as f64,
        comm_bytes: avg.comm_bytes * ranks as f64,
        max_cores: max_cores.unwrap_or(ranks * native_cores(trace)),
    }
}

/// Parse a JSON-lines job queue. Blank lines are skipped; anything else
/// must be a job object. Errors carry 1-based line numbers.
pub fn parse_jobs(text: &str) -> Result<Vec<JobSpec>, SchedError> {
    let mut jobs = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let obj = Json::parse(raw).map_err(|e| bad(line, format!("not valid JSON: {e}")))?;
        if !matches!(obj, Json::Obj(_)) {
            return Err(bad(line, "a job must be a JSON object"));
        }
        let name = match obj.get("name") {
            None => format!("job{}", jobs.len()),
            Some(v) => v
                .as_str()
                .ok_or_else(|| bad(line, "field 'name' must be a string"))?
                .to_string(),
        };
        let explicit_cap = match obj.get("max_cores") {
            None => None,
            Some(_) => Some(usize_field(&obj, "max_cores", 0, line)?),
        };
        let profile = if let Some(pattern) = obj.get("pattern") {
            let pattern = pattern
                .as_str()
                .ok_or_else(|| bad(line, "field 'pattern' must be a string"))?;
            let ranks = usize_field(&obj, "ranks", 4, line)?;
            let iters = usize_field(&obj, "iters", 2, line)?;
            if iters == 0 {
                return Err(bad(line, "field 'iters' must be at least 1"));
            }
            let cores = usize_field(&obj, "cores", 4, line)?;
            if cores == 0 {
                return Err(bad(line, "field 'cores' must be at least 1"));
            }
            let params = GenParams {
                ranks,
                iters,
                cores,
                compute_bytes: size_field(&obj, "compute_mb", 256.0, MIB, line)? as u64,
                comm_bytes: size_field(&obj, "comm_mb", 8.0, MIB, line)? as u64,
                ..GenParams::default()
            };
            let trace =
                generate::by_name(pattern, &params).map_err(|e| bad(line, e.to_string()))?;
            distill(&trace, explicit_cap)
        } else if let Some(path) = obj.get("trace") {
            let path = path
                .as_str()
                .ok_or_else(|| bad(line, "field 'trace' must be a file path string"))?;
            let text = std::fs::read_to_string(path).map_err(|e| SchedError::Io {
                path: path.to_string(),
                message: e.to_string(),
            })?;
            let trace = Trace::from_json_lines(&text)
                .map_err(|e| bad(line, format!("trace '{path}': {e}")))?;
            distill(&trace, explicit_cap)
        } else {
            let compute_bytes = size_field(&obj, "compute_gb", 0.0, 1e9, line)?;
            let comm_bytes = size_field(&obj, "comm_gb", 0.0, 1e9, line)?;
            if compute_bytes == 0.0 && comm_bytes == 0.0 {
                return Err(bad(
                    line,
                    "a job needs compute_gb and/or comm_gb (or a 'pattern'/'trace' field)",
                ));
            }
            PhaseProfile {
                compute_bytes,
                comm_bytes,
                max_cores: explicit_cap.unwrap_or(0),
            }
        };
        jobs.push(JobSpec { name, profile });
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_inline_profiles() {
        let jobs = parse_jobs(
            "{\"name\":\"a\",\"compute_gb\":40,\"comm_gb\":8,\"max_cores\":16}\n\
             \n\
             {\"comm_gb\":2.5}\n",
        )
        .unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].name, "a");
        assert_eq!(jobs[0].profile.compute_bytes, 40e9);
        assert_eq!(jobs[0].profile.max_cores, 16);
        assert_eq!(jobs[1].name, "job1");
        assert_eq!(jobs[1].profile.comm_bytes, 2.5e9);
        assert_eq!(jobs[1].profile.max_cores, 0); // uncapped
    }

    #[test]
    fn pattern_jobs_distill_whole_application_totals() {
        let jobs = parse_jobs(
            "{\"name\":\"t\",\"pattern\":\"allreduce\",\"ranks\":4,\"iters\":2,\
             \"cores\":2,\"compute_mb\":1,\"comm_mb\":1}",
        )
        .unwrap();
        let p = &jobs[0].profile;
        // 4 ranks × 2 iters × 1 MB compute each.
        assert_eq!(p.compute_bytes, 8.0 * (1 << 20) as f64);
        assert!(p.comm_bytes > 0.0);
        assert_eq!(p.max_cores, 8); // ranks × per-phase cores
    }

    #[test]
    fn send_heavy_pattern_jobs_keep_their_comm_volume() {
        // halo2d communicates via matched send/recv pairs; before the
        // send-accounting fix its distilled comm volume was halved.
        let jobs = parse_jobs(
            "{\"pattern\":\"halo2d\",\"ranks\":4,\"iters\":1,\"cores\":2,\
             \"compute_mb\":0,\"comm_mb\":10}",
        )
        .unwrap();
        let trace = generate::halo2d(&GenParams {
            ranks: 4,
            iters: 1,
            cores: 2,
            compute_bytes: 0,
            comm_bytes: 10 << 20,
            ..GenParams::default()
        });
        let recv: u64 = trace
            .events
            .iter()
            .flatten()
            .filter_map(|ev| match ev {
                mc_replay::EventKind::Recv { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .sum();
        assert_eq!(jobs[0].profile.comm_bytes, 2.0 * recv as f64);
    }

    #[test]
    fn bad_lines_carry_line_numbers() {
        let e = parse_jobs("{\"compute_gb\":1}\nnot json\n").unwrap_err();
        assert!(matches!(e, SchedError::BadJob { line: 2, .. }), "{e}");
        let e = parse_jobs("{\"compute_gb\":-1}").unwrap_err();
        assert!(matches!(e, SchedError::BadJob { line: 1, .. }), "{e}");
        let e = parse_jobs("{\"name\":\"x\"}").unwrap_err();
        assert!(e.to_string().contains("compute_gb"), "{e}");
        let e = parse_jobs("{\"pattern\":\"nope\"}").unwrap_err();
        assert!(e.to_string().contains("unknown pattern"), "{e}");
        let e = parse_jobs("{\"trace\":\"/nonexistent/x.jsonl\"}").unwrap_err();
        assert!(matches!(e, SchedError::Io { .. }), "{e}");
        assert_eq!(e.category(), mc_model::ErrorCategory::Io);
    }

    #[test]
    fn out_of_range_sizes_and_ranks_are_bad_lines() {
        for job in [
            r#"{"name":"a","compute_gb":1,"comm_gb":1e308,"max_cores":8}"#,
            r#"{"compute_gb":1e7}"#,
            r#"{"pattern":"halo2d","compute_mb":1e10}"#,
            r#"{"pattern":"allreduce","ranks":1000000000000}"#,
            r#"{"pattern":"allreduce","ranks":1}"#,
            r#"{"pattern":"halo2d","iters":1000000000000}"#,
        ] {
            let e = parse_jobs(&format!("{{\"compute_gb\":1}}\n{job}\n")).unwrap_err();
            assert!(
                matches!(e, SchedError::BadJob { line: 2, .. }),
                "{job}: {e}"
            );
            assert_eq!(e.category(), mc_model::ErrorCategory::InvalidData);
        }
    }
}
