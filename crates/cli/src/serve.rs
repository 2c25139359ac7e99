//! The `memcontend serve` subcommand: a long-lived, batched prediction
//! service speaking JSON lines over stdin/stdout.
//!
//! ## Protocol
//!
//! One request per line, one response per line, in order: a JSON object
//! carrying either an `"op"` (with the fields that op reads, listed in
//! `try_request`) or a `"batch"` of such requests. DESIGN.md §11 gives
//! the grammar; `crate::ops` reads and checks each op's fields, for
//! this service and the `memcontend` subcommands alike. Any request may
//! carry an `"id"` echoed in its response. Failures are
//! `{"ok":false,"error":{"class":C,"exit_code":N,"message":M}}` on the
//! CLI's exit-code contract: `usage`/2 for malformed requests, `data`/3
//! for invalid model data, `io`/4 for file failures. A bad request never
//! ends the loop; the process exits 0 at EOF (and 2/3/4 only for
//! *startup* failures: bad flags, an unreadable `--warm` file).
//!
//! ## Caching and batching
//!
//! The model-backed ops answer from a shared [`ModelRegistry`], so only
//! the first request against a platform pays for calibration sweeps
//! (`"cached":true` marks the later ones); `--warm` seeds it from saved
//! model files. A `{"batch":[...]}` fans out over a bounded worker pool
//! and answers in request order. DESIGN.md §11 covers keying, eviction
//! and the `mc-obs` vocabulary (`serve.*`, `registry.*`).

use std::io::{BufRead, ErrorKind, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mc_json::{obj, Json, LineError};
use mc_model::{ModelParams, ModelRegistry};
use mc_obs::{tags, TagValue};
use mc_topology::platforms;

use crate::args::{Args, CliError, EXIT_INVALID_DATA, EXIT_IO};
use crate::ops;

/// Default registry capacity: comfortably above the built-in platform
/// count so a service scanning every machine still gets all hits.
const DEFAULT_CAPACITY: usize = 64;

/// Upper default on batch workers: batches are short bursts; more
/// threads than this mostly contend on the registry shards.
const MAX_DEFAULT_WORKERS: usize = 8;

/// Parse `--workers`/`--capacity` and build the warm-loaded registry.
/// Failures here are *startup* failures — the only fatal (exit 2/3/4)
/// path a serve transport keeps.
pub(crate) fn build_registry(args: &Args) -> Result<(ModelRegistry, usize), CliError> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = args.count_or("workers", cores.min(MAX_DEFAULT_WORKERS))?;
    let registry = ModelRegistry::new(args.count_or("capacity", DEFAULT_CAPACITY)?);
    warm_load(&registry, args)?;
    Ok((registry, workers))
}

/// Run the stdin/stdout serve loop (the binary passes locked
/// stdin/stdout; tests pass buffers).
///
/// Startup failures (bad flags, an unreadable `--warm` file) are fatal.
/// A transport that dies *mid-session* — a truncated pipe, a read error
/// — ends the session like EOF instead of aborting the process: the
/// requests already answered stay answered, and the exit code stays 0.
pub fn serve_loop(
    args: &Args,
    input: impl BufRead,
    mut output: impl Write,
) -> Result<(), CliError> {
    let (registry, workers) = build_registry(args)?;

    let _span = mc_obs::span(
        "serve",
        &[
            (tags::WORKERS, TagValue::U64(workers as u64)),
            (tags::TRANSPORT, TagValue::Str("stdio")),
        ],
    );
    // The shared line-oriented parser: skips blank and `#` lines,
    // bounds nesting depth against hostile requests, and attributes
    // syntax errors to their line number.
    for item in mc_json::parse_lines(input) {
        let response = match item {
            Ok((_line, request)) => dispatch(&registry, &request, workers),
            Err(e) => match rejected_line(&e) {
                Some(response) => response,
                None => {
                    count_disconnect("stdio");
                    eprintln!("serve: input failed at {e}; ending session");
                    break;
                }
            },
        };
        if write_response(&mut output, &response).is_err() {
            count_disconnect("stdio");
            eprintln!("serve: output failed; ending session");
            break;
        }
    }
    Ok(())
}

/// The answer to a line the transport delivered that is no request: not
/// UTF-8 (the reader consumed the line and reads on) or not JSON. `None`
/// for a transport failure, which ends the session.
pub(crate) fn rejected_line(error: &LineError) -> Option<Json> {
    let message = match error {
        LineError::Json { line, error } => {
            format!("request line {line} is not valid JSON ({error})")
        }
        LineError::Io { line, error } if error.kind() == ErrorKind::InvalidData => {
            format!("request line {line} is not valid UTF-8")
        }
        LineError::Io { .. } => return None,
    };
    count_request("invalid", "usage");
    Some(error_response(None, &CliError::Protocol(message)))
}

/// Write one response line and flush — clients block on the reply, so it
/// must never sit in a buffer.
pub(crate) fn write_response(output: &mut impl Write, response: &Json) -> std::io::Result<()> {
    writeln!(output, "{}", response.render())?;
    output.flush()
}

/// Count a session torn down by a transport failure (tagged with the
/// transport so a stdio pipe break and a dropped TCP client stay
/// distinguishable).
pub(crate) fn count_disconnect(transport: &str) {
    if let Some(rec) = mc_obs::recorder() {
        let transport_tag = [(tags::TRANSPORT, TagValue::Str(transport))];
        rec.add("serve.disconnects", &transport_tag, 1);
    }
}

/// Seed the registry from every `--warm` flag at startup. Failures here
/// are fatal (exit 2/3/4): a service that silently starts cold when
/// asked to start warm would defeat the point of the flag.
fn warm_load(registry: &ModelRegistry, args: &Args) -> Result<(), CliError> {
    for spec in args.get_all("warm") {
        for part in split_warm_spec(spec) {
            let Some((name, path)) = part.split_once('=') else {
                return Err(CliError::Protocol(format!(
                    "--warm entry '{part}' is not PLATFORM=FILE"
                )));
            };
            let platform = platforms::by_name(name)
                .ok_or_else(|| CliError::UnknownPlatform(name.to_string()))?;
            registry.warm(ops::platform_key(&platform), ops::read_model(path)?);
        }
    }
    Ok(())
}

/// Split one `--warm` value into entries. The historical
/// `PLAT=FILE,PLAT=FILE` list form is honoured only when *every*
/// comma-separated segment contains `=`; otherwise the commas belong to
/// a file path and the value is a single entry. Paths whose comma-split
/// tails happen to contain `=` must use one `--warm` flag per entry —
/// the unambiguous form.
fn split_warm_spec(spec: &str) -> Vec<&str> {
    let parts: Vec<&str> = spec.split(',').collect();
    if parts.len() > 1 && parts.iter().all(|p| p.contains('=')) {
        parts
    } else {
        vec![spec]
    }
}

/// Route one parsed line: batch envelope or single request.
pub(crate) fn dispatch(registry: &ModelRegistry, request: &Json, workers: usize) -> Json {
    if request.get("batch").is_some() {
        handle_batch(registry, request, workers)
    } else {
        handle_request(registry, request)
    }
}

/// Fan a batch out over a point-stealing worker pool; responses come
/// back in request order (each lands in its pre-assigned slot, exactly
/// like the pooled sweep writes measurement points).
fn handle_batch(registry: &ModelRegistry, request: &Json, workers: usize) -> Json {
    let id = request.get("id").cloned();
    let Some(items) = request.get("batch").and_then(Json::as_array) else {
        count_request("batch", "usage");
        return error_response(
            id.as_ref(),
            &CliError::Protocol("'batch' must be an array of requests".into()),
        );
    };
    let _span = mc_obs::span(
        "serve.batch",
        &[(tags::BATCH_SIZE, TagValue::U64(items.len() as u64))],
    );
    if let Some(rec) = mc_obs::recorder() {
        rec.add("serve.batches", &[], 1);
        rec.observe("serve.batch_size", &[], items.len() as f64);
    }

    let workers = workers.min(items.len()).max(1);
    let responses: Vec<Json> = if workers == 1 {
        items
            .iter()
            .map(|item| handle_batch_item(registry, item))
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<(usize, Json)>> = Mutex::new(Vec::with_capacity(items.len()));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= items.len() {
                        break;
                    }
                    let response = handle_batch_item(registry, &items[idx]);
                    slots
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .push((idx, response));
                });
            }
        });
        let mut measured = slots.into_inner().unwrap_or_else(|p| p.into_inner());
        measured.sort_unstable_by_key(|&(idx, _)| idx);
        measured.into_iter().map(|(_, r)| r).collect()
    };

    response(true, id.as_ref(), vec![("batch", Json::Arr(responses))])
}

fn handle_batch_item(registry: &ModelRegistry, item: &Json) -> Json {
    if item.get("batch").is_some() {
        count_request("batch", "usage");
        return error_response(
            item.get("id"),
            &CliError::Protocol("batches cannot nest".into()),
        );
    }
    handle_request(registry, item)
}

/// Answer one non-batch request; never panics, never kills the loop.
fn handle_request(registry: &ModelRegistry, request: &Json) -> Json {
    let id = request.get("id").cloned();
    let op = request
        .get("op")
        .and_then(Json::as_str)
        .unwrap_or("invalid")
        .to_string();
    let op_tag = [(tags::OP, TagValue::Str(&op))];
    let _span = mc_obs::span("serve.request", &op_tag);
    let started = mc_obs::enabled().then(Instant::now);
    let result = try_request(registry, request);
    if let (Some(started), Some(rec)) = (started, mc_obs::recorder()) {
        let seconds = started.elapsed().as_secs_f64();
        rec.observe("serve.request_seconds", &op_tag, seconds);
    }
    match result {
        Ok(fields) => {
            count_request(&op, "ok");
            let mut members = vec![("op", Json::Str(op))];
            members.extend(fields);
            response(true, id.as_ref(), members)
        }
        Err(e) => {
            count_request(&op, class_of(&e));
            error_response(id.as_ref(), &e)
        }
    }
}

/// A success response's members after `ok`, `id` and `op`.
type Fields = Vec<(&'static str, Json)>;

fn try_request(registry: &ModelRegistry, request: &Json) -> Result<Fields, CliError> {
    let Json::Obj(members) = request else {
        return Err(CliError::Protocol("request must be a JSON object".into()));
    };
    let op = request
        .get("op")
        .ok_or_else(|| CliError::Protocol("missing 'op' (or 'batch')".into()))?
        .as_str()
        .ok_or_else(|| CliError::Protocol("'op' must be a string".into()))?;
    // Each op with the fields it reads besides `op` and `id`: any other
    // field is a misspelling, not something to ignore.
    type Handler = fn(&ModelRegistry, &Json) -> Result<Fields, CliError>;
    let (fields, handler): (&str, Handler) = match op {
        "predict" => ("platform model cores comp_numa comm_numa", predict),
        "calibrate" => ("platform", calibrate),
        "evaluate" => ("platform", evaluate),
        "recommend" => ("platform compute_gb comm_gb max_cores top", recommend),
        "replay" => (
            "platform pattern trace_file ranks iters cores compute_mb comm_mb comp_numa comm_numa",
            replay,
        ),
        "stats" => ("", |registry, _| stats_op(registry)),
        other => return Err(CliError::Protocol(format!("unknown op '{other}'"))),
    };
    let known = |k: &str| k == "op" || k == "id" || fields.split(' ').any(|f| f == k);
    if let Some((field, _)) = members.iter().find(|(k, _)| !known(k)) {
        let message = format!("unknown field '{field}' for op '{op}'");
        return Err(CliError::Protocol(message));
    }
    handler(registry, request)
}

fn predict(registry: &ModelRegistry, request: &Json) -> Result<Fields, CliError> {
    let p = ops::predict(request, Some(registry))?;
    Ok(vec![
        ("cores", Json::Num(p.cores as f64)),
        ("comp_numa", Json::Num(p.m_comp.index() as f64)),
        ("comm_numa", Json::Num(p.m_comm.index() as f64)),
        ("comp", Json::Num(p.par.comp)),
        ("comm", Json::Num(p.par.comm)),
        ("comp_alone", Json::Num(p.alone.comp)),
        ("comm_alone", Json::Num(p.alone.comm)),
        ("cached", Json::Bool(p.cached)),
    ])
}

fn params_json(p: &ModelParams) -> Json {
    obj(vec![
        ("n_max_par", Json::Num(p.n_max_par as f64)),
        ("t_max_par", Json::Num(p.t_max_par)),
        ("n_max_seq", Json::Num(p.n_max_seq as f64)),
        ("t_max_seq", Json::Num(p.t_max_seq)),
        ("t_max2_par", Json::Num(p.t_max2_par)),
        ("delta_l", Json::Num(p.delta_l)),
        ("delta_r", Json::Num(p.delta_r)),
        ("b_comp_seq", Json::Num(p.b_comp_seq)),
        ("b_comm_seq", Json::Num(p.b_comm_seq)),
        ("alpha", Json::Num(p.alpha)),
    ])
}

fn calibrate(registry: &ModelRegistry, request: &Json) -> Result<Fields, CliError> {
    let c = ops::calibrate(request, Some(registry))?;
    Ok(vec![
        ("platform", Json::Str(c.platform.name().to_string())),
        ("local", params_json(c.model.local().params())),
        ("remote", params_json(c.model.remote().params())),
        ("cached", Json::Bool(c.cached)),
    ])
}

fn evaluate(registry: &ModelRegistry, request: &Json) -> Result<Fields, CliError> {
    let r = ops::evaluate(request, Some(registry))?;
    let e = &r.errors;
    Ok(vec![
        ("platform", Json::Str(r.platform.name().to_string())),
        ("comm_samples", Json::Num(e.comm_samples)),
        ("comm_non_samples", Json::Num(e.comm_non_samples)),
        ("comm_all", Json::Num(e.comm_all)),
        ("comp_samples", Json::Num(e.comp_samples)),
        ("comp_non_samples", Json::Num(e.comp_non_samples)),
        ("comp_all", Json::Num(e.comp_all)),
        ("average", Json::Num(e.average)),
        ("skipped", Json::Num(e.skipped as f64)),
        ("cached", Json::Bool(r.cached)),
    ])
}

/// `{"op":"recommend",...}`: the `top` best configurations (default 1).
fn recommend(registry: &ModelRegistry, request: &Json) -> Result<Fields, CliError> {
    let a = ops::advise(request, Some(registry))?;
    let recommendations: Vec<Json> = a
        .ranked
        .iter()
        .take(a.top.unwrap_or(1).max(1))
        .map(|r| {
            obj(vec![
                ("cores", Json::Num(r.n_cores as f64)),
                ("comp_numa", Json::Num(r.m_comp.index() as f64)),
                ("comm_numa", Json::Num(r.m_comm.index() as f64)),
                ("comp_bw", Json::Num(r.comp_bw)),
                ("comm_bw", Json::Num(r.comm_bw)),
                ("makespan", Json::Num(r.makespan)),
            ])
        })
        .collect();
    Ok(vec![
        ("platform", Json::Str(a.platform.name().to_string())),
        ("considered", Json::Num(a.ranked.len() as f64)),
        ("recommendations", Json::Arr(recommendations)),
        ("cached", Json::Bool(a.cached)),
    ])
}

/// `{"op":"replay",...}`: a pattern's or trace file's contention slowdown.
fn replay(registry: &ModelRegistry, request: &Json) -> Result<Fields, CliError> {
    let r = ops::replay(request, Some(registry))?;
    let out = &r.outcome;
    Ok(vec![
        ("platform", Json::Str(r.platform.name().to_string())),
        ("ranks", Json::Num(out.ranks as f64)),
        ("events", Json::Num(out.events as f64)),
        ("makespan", Json::Num(out.contended.makespan)),
        ("baseline", Json::Num(out.baseline.makespan)),
        ("slowdown", Json::Num(out.slowdown)),
    ])
}

/// `{"op":"stats"}`: registry counters and resident-set telemetry, the
/// instantaneous `VmRSS` and the process's high-water mark (`null` off
/// Linux).
fn stats_op(registry: &ModelRegistry) -> Result<Fields, CliError> {
    let s = registry.stats();
    let rss = |v: Option<u64>| v.map_or(Json::Null, |kb| Json::Num(kb as f64));
    Ok(vec![
        ("models", Json::Num(s.len as f64)),
        ("hits", Json::Num(s.hits as f64)),
        ("misses", Json::Num(s.misses as f64)),
        ("evictions", Json::Num(s.evictions as f64)),
        ("hit_rate", Json::Num(s.hit_rate())),
        ("current_rss_kb", rss(mc_obs::current_rss_kb())),
        ("peak_rss_kb", rss(mc_obs::peak_rss_kb())),
    ])
}

/// The error class string for a response: the exit-code contract's
/// `usage`/`data`/`io`, plus `overload` for admission rejections (a
/// transient service condition, not a caller mistake — clients back off
/// and retry rather than fixing the request).
pub(crate) fn class_of(e: &CliError) -> &'static str {
    match e {
        CliError::Overload(_) => "overload",
        _ => match e.exit_code() {
            EXIT_INVALID_DATA => "data",
            EXIT_IO => "io",
            _ => "usage",
        },
    }
}

/// A response: `ok`, the request's `id` when it has one, then `members`.
fn response(ok: bool, id: Option<&Json>, members: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(ok))];
    all.extend(id.map(|id| ("id", id.clone())));
    all.extend(members);
    obj(all)
}

pub(crate) fn error_response(id: Option<&Json>, e: &CliError) -> Json {
    let error = obj(vec![
        ("class", Json::Str(class_of(e).into())),
        ("exit_code", Json::Num(e.exit_code() as f64)),
        ("message", Json::Str(e.to_string())),
    ]);
    response(false, id, vec![("error", error)])
}

pub(crate) fn count_request(op: &str, result: &str) {
    if let Some(rec) = mc_obs::recorder() {
        let request_tags = [
            (tags::OP, TagValue::Str(op)),
            (tags::RESULT, TagValue::Str(result)),
        ];
        rec.add("serve.requests", &request_tags, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_membench::{calibration_sweeps, BenchConfig};
    use mc_model::ContentionModel;
    use mc_replay::generate::{self, GenParams};
    use mc_topology::NumaId;
    use std::io::Cursor;

    fn serve(lines: &str, extra: &[&str]) -> Vec<Json> {
        let mut argv = vec!["serve"];
        argv.extend_from_slice(extra);
        let args = Args::parse(argv).unwrap();
        let mut out = Vec::new();
        serve_loop(&args, Cursor::new(lines.as_bytes()), &mut out).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect()
    }

    fn ok(resp: &Json) -> bool {
        resp.get("ok") == Some(&Json::Bool(true))
    }

    fn error_class(resp: &Json) -> Option<&str> {
        resp.get("error")?.get("class")?.as_str()
    }

    #[test]
    fn predict_misses_then_hits() {
        let req = r#"{"op":"predict","platform":"henri","cores":17,"comp_numa":0,"comm_numa":1}"#;
        let out = serve(&format!("{req}\n{req}\n"), &[]);
        assert_eq!(out.len(), 2);
        assert!(ok(&out[0]) && ok(&out[1]));
        assert_eq!(out[0].get("cached"), Some(&Json::Bool(false)));
        assert_eq!(out[1].get("cached"), Some(&Json::Bool(true)));
        // Identical predictions either way.
        assert_eq!(out[0].get("comp"), out[1].get("comp"));
        assert!(out[0].get("comp").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn ops_share_one_registry_entry_per_platform() {
        let lines = concat!(
            r#"{"op":"calibrate","platform":"henri"}"#,
            "\n",
            r#"{"op":"predict","platform":"henri","cores":4,"comp_numa":0,"comm_numa":0}"#,
            "\n",
            r#"{"op":"recommend","platform":"henri","compute_gb":10,"comm_gb":1}"#,
            "\n",
        );
        let out = serve(lines, &[]);
        assert!(out.iter().all(ok), "{out:?}");
        assert_eq!(out[0].get("cached"), Some(&Json::Bool(false)));
        assert_eq!(out[1].get("cached"), Some(&Json::Bool(true)));
        assert_eq!(out[2].get("cached"), Some(&Json::Bool(true)));
        let recs = out[2].get("recommendations").unwrap().as_array().unwrap();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].get("makespan").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn batch_responses_come_back_in_request_order() {
        // Mixed good/bad items, ids echoed: order must match the request
        // array regardless of worker scheduling.
        let mut items = Vec::new();
        for i in 1..=12 {
            items.push(format!(
                r#"{{"id":{i},"op":"predict","platform":"henri","cores":{i},"comp_numa":0,"comm_numa":0}}"#
            ));
        }
        items.push(r#"{"id":13,"op":"nonsense"}"#.to_string());
        let line = format!("{{\"id\":\"b\",\"batch\":[{}]}}\n", items.join(","));
        let out = serve(&line, &["--workers", "4"]);
        assert_eq!(out.len(), 1);
        assert!(ok(&out[0]));
        assert_eq!(out[0].get("id").and_then(Json::as_str), Some("b"));
        let batch = out[0].get("batch").unwrap().as_array().unwrap();
        assert_eq!(batch.len(), 13);
        for (i, resp) in batch.iter().take(12).enumerate() {
            assert_eq!(
                resp.get("id").and_then(Json::as_u64),
                Some(i as u64 + 1),
                "slot {i} out of order"
            );
            assert_eq!(resp.get("cores").and_then(Json::as_u64), Some(i as u64 + 1));
        }
        assert_eq!(error_class(&batch[12]), Some("usage"));
        assert_eq!(batch[12].get("id").and_then(Json::as_u64), Some(13));
    }

    #[test]
    fn error_classes_map_the_exit_code_contract() {
        let lines = concat!(
            "not json\n",
            r#"{"op":"frobnicate"}"#,
            "\n",
            r#"{"op":"predict","platform":"zzz","cores":1,"comp_numa":0,"comm_numa":0}"#,
            "\n",
            r#"{"op":"predict","platform":"henri","cores":0,"comp_numa":0,"comm_numa":0}"#,
            "\n",
            r#"{"op":"predict","platform":"henri","cores":1,"comp_numa":9,"comm_numa":0}"#,
            "\n",
            r#"{"op":"predict","model":"/nonexistent/m.txt","cores":1,"comp_numa":0,"comm_numa":0}"#,
            "\n",
            r#"{"batch":42}"#,
            "\n",
        );
        let out = serve(lines, &[]);
        let classes: Vec<_> = out.iter().map(|r| error_class(r).unwrap()).collect();
        assert_eq!(
            classes,
            ["usage", "usage", "usage", "usage", "usage", "io", "usage"]
        );
        let codes: Vec<_> = out
            .iter()
            .map(|r| r.get("error").unwrap().get("exit_code").unwrap().as_u64())
            .collect();
        assert_eq!(codes[5], Some(4));
        assert!(codes.iter().take(5).all(|c| *c == Some(2)));
    }

    /// A core count past the one ceiling is a usage error, answered at
    /// once, and the session answers the next request.
    #[test]
    fn core_counts_past_the_ceiling_are_usage_errors() {
        let lines = concat!(
            r#"{"op":"replay","platform":"henri","pattern":"halo2d","ranks":4,"iters":1,"cores":10000000000}"#,
            "\n",
            r#"{"op":"recommend","platform":"henri","compute_gb":10,"comm_gb":1,"max_cores":1000000000}"#,
            "\n",
            r#"{"op":"replay","platform":"henri","pattern":"halo2d","ranks":4,"iters":1,"cores":2}"#,
            "\n",
        );
        let out = serve(lines, &[]);
        assert_eq!(out.len(), 3);
        for resp in &out[..2] {
            assert_eq!(error_class(resp), Some("usage"), "{resp:?}");
            let message = resp.get("error").unwrap().get("message").unwrap();
            assert!(message.as_str().unwrap().contains("2^10"), "{message:?}");
        }
        assert!(ok(&out[2]), "{:?}", out[2]);
    }

    #[test]
    fn malformed_model_file_is_a_data_error() {
        let dir = std::env::temp_dir().join(format!("memcontend-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.txt");
        std::fs::write(&path, "[meta]\nnuma_per_socket = NaN\n").unwrap();
        let line = format!(
            r#"{{"op":"predict","model":"{}","cores":1,"comp_numa":0,"comm_numa":0}}"#,
            path.display()
        );
        let out = serve(&format!("{line}\n"), &[]);
        assert_eq!(error_class(&out[0]), Some("data"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn model_file_requests_round_trip_and_cache() {
        let dir = std::env::temp_dir().join(format!("memcontend-serve-ok-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.txt");
        let p = platforms::henri();
        let (local, remote) = calibration_sweeps(&p, BenchConfig::default());
        let model = ContentionModel::calibrate(&p.topology, &local, &remote).unwrap();
        std::fs::write(&path, mc_model::model_to_text(&model)).unwrap();
        let line = format!(
            r#"{{"op":"predict","model":"{}","cores":8,"comp_numa":0,"comm_numa":1}}"#,
            path.display()
        );
        let out = serve(&format!("{line}\n{line}\n"), &[]);
        assert!(ok(&out[0]) && ok(&out[1]));
        assert_eq!(out[1].get("cached"), Some(&Json::Bool(true)));
        let expect = model.predict(8, NumaId::new(0), NumaId::new(1));
        assert_eq!(out[0].get("comp").unwrap().as_f64().unwrap(), expect.comp);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_loaded_platform_hits_on_first_request() {
        let dir = std::env::temp_dir().join(format!("memcontend-warm-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("henri.txt");
        let p = platforms::henri();
        let (local, remote) = calibration_sweeps(&p, BenchConfig::default());
        let model = ContentionModel::calibrate(&p.topology, &local, &remote).unwrap();
        std::fs::write(&path, mc_model::model_to_text(&model)).unwrap();
        let warm = format!("henri={}", path.display());
        let out = serve(
            "{\"op\":\"predict\",\"platform\":\"henri\",\"cores\":4,\"comp_numa\":0,\"comm_numa\":0}\n",
            &["--warm", &warm],
        );
        assert!(ok(&out[0]));
        assert_eq!(
            out[0].get("cached"),
            Some(&Json::Bool(true)),
            "warm-loaded model must make the very first request a hit"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A reader that yields its canned bytes, then fails with an I/O
    /// error — a client whose pipe breaks mid-session.
    struct TruncatedReader {
        data: std::io::Cursor<Vec<u8>>,
        failed: bool,
    }

    impl std::io::Read for TruncatedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match std::io::Read::read(&mut self.data, buf)? {
                0 => {
                    self.failed = true;
                    Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "transport died mid-session",
                    ))
                }
                n => Ok(n),
            }
        }
    }

    #[test]
    fn mid_session_read_failure_ends_the_session_not_the_process() {
        // Regression (ISSUE 7): serve_loop used to return Err on any
        // LineError::Io, turning one broken client pipe into exit 4.
        // The requests answered before the failure must stay answered
        // and the loop must end like EOF.
        let req = r#"{"op":"predict","platform":"henri","cores":4,"comp_numa":0,"comm_numa":0}"#;
        let reader = std::io::BufReader::new(TruncatedReader {
            data: std::io::Cursor::new(format!("{req}\n").into_bytes()),
            failed: false,
        });
        let args = Args::parse(["serve"]).unwrap();
        let mut out = Vec::new();
        serve_loop(&args, reader, &mut out).expect("a dying transport is not a process failure");
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 1, "the request before the break was answered");
        assert!(ok(&lines[0]));
    }

    #[test]
    fn a_line_of_invalid_utf8_is_rejected_and_the_session_goes_on() {
        let input = b"{\"op\":\"st\xffats\"}\n{\"op\":\"stats\"}\n".to_vec();
        let args = Args::parse(["serve"]).unwrap();
        let mut out = Vec::new();
        serve_loop(&args, Cursor::new(input), &mut out).unwrap();
        let lines: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(error_class(&lines[0]), Some("usage"));
        let message = lines[0].get("error").unwrap().get("message").unwrap();
        assert!(message
            .as_str()
            .unwrap()
            .contains("line 1 is not valid UTF-8"));
        assert!(ok(&lines[1]));
    }

    #[test]
    fn warm_paths_with_commas_load_via_repeated_flags() {
        let dir =
            std::env::temp_dir().join(format!("memcontend-warm-comma-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // The path the comma list form would shred.
        let path = dir.join("henri,v2.txt");
        let p = platforms::henri();
        let (local, remote) = calibration_sweeps(&p, BenchConfig::default());
        let model = ContentionModel::calibrate(&p.topology, &local, &remote).unwrap();
        std::fs::write(&path, mc_model::model_to_text(&model)).unwrap();
        let warm = format!("henri={}", path.display());
        let out = serve(
            "{\"op\":\"predict\",\"platform\":\"henri\",\"cores\":4,\"comp_numa\":0,\"comm_numa\":0}\n",
            &["--warm", &warm],
        );
        assert!(ok(&out[0]), "{:?}", out[0]);
        assert_eq!(
            out[0].get("cached"),
            Some(&Json::Bool(true)),
            "a comma-bearing path must warm-load via a dedicated flag"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn warm_spec_splitting_keeps_comma_lists_and_comma_paths_apart() {
        // Back-compat list: every segment has '='.
        assert_eq!(split_warm_spec("a=x,b=y"), ["a=x", "b=y"]);
        // A comma inside a path: one entry.
        assert_eq!(
            split_warm_spec("henri=models/a,b.txt"),
            ["henri=models/a,b.txt"]
        );
        // Degenerate inputs stay single entries for the parser to reject.
        assert_eq!(split_warm_spec("nonsense"), ["nonsense"]);
        assert_eq!(split_warm_spec("a=x"), ["a=x"]);
    }

    #[test]
    fn stats_op_reports_registry_counters_and_rss() {
        let lines = concat!(
            r#"{"op":"predict","platform":"henri","cores":4,"comp_numa":0,"comm_numa":0}"#,
            "\n",
            r#"{"op":"predict","platform":"henri","cores":8,"comp_numa":0,"comm_numa":0}"#,
            "\n",
            r#"{"op":"stats"}"#,
            "\n",
        );
        let out = serve(lines, &[]);
        let stats = &out[2];
        assert!(ok(stats), "{stats:?}");
        assert_eq!(stats.get("models").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("misses").and_then(Json::as_u64), Some(1));
        assert!((stats.get("hit_rate").unwrap().as_f64().unwrap() - 0.5).abs() < 1e-12);
        #[cfg(target_os = "linux")]
        {
            let current = stats.get("current_rss_kb").unwrap().as_u64().unwrap();
            let peak = stats.get("peak_rss_kb").unwrap().as_u64().unwrap();
            assert!(current > 0 && current <= peak);
        }
    }

    #[test]
    fn warm_failures_are_fatal_at_startup() {
        let args = Args::parse(["serve", "--warm", "henri=/nonexistent/m.txt"]).unwrap();
        let e = serve_loop(&args, Cursor::new(&b""[..]), Vec::new()).unwrap_err();
        assert_eq!(e.exit_code(), EXIT_IO);
        let args = Args::parse(["serve", "--warm", "nonsense"]).unwrap();
        let e = serve_loop(&args, Cursor::new(&b""[..]), Vec::new()).unwrap_err();
        assert!(e.is_usage());
        let args = Args::parse(["serve", "--warm", "zzz=file.txt"]).unwrap();
        let e = serve_loop(&args, Cursor::new(&b""[..]), Vec::new()).unwrap_err();
        assert_eq!(e, CliError::UnknownPlatform("zzz".into()));
    }

    #[test]
    fn evaluate_op_reports_the_breakdown() {
        let out = serve("{\"op\":\"evaluate\",\"platform\":\"henri\"}\n", &[]);
        assert!(ok(&out[0]), "{:?}", out[0]);
        let avg = out[0].get("average").unwrap().as_f64().unwrap();
        assert!(avg > 0.0 && avg < 10.0, "henri MAPE ≈ paper: {avg}");
        assert_eq!(out[0].get("skipped").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn replay_op_predicts_a_slowdown() {
        let line = concat!(
            r#"{"op":"replay","platform":"henri","pattern":"allreduce","#,
            r#""ranks":2,"iters":1,"compute_mb":32,"comm_mb":4}"#,
            "\n",
        );
        let out = serve(line, &[]);
        assert!(ok(&out[0]), "{:?}", out[0]);
        assert_eq!(out[0].get("ranks").and_then(Json::as_u64), Some(2));
        let makespan = out[0].get("makespan").unwrap().as_f64().unwrap();
        let baseline = out[0].get("baseline").unwrap().as_f64().unwrap();
        let slowdown = out[0].get("slowdown").unwrap().as_f64().unwrap();
        assert!(makespan > 0.0 && baseline > 0.0);
        assert!(slowdown >= 1.0 - 1e-9, "slowdown {slowdown}");
    }

    #[test]
    fn replay_op_rejects_bad_inputs() {
        let lines = concat!(
            r#"{"op":"replay","platform":"henri"}"#,
            "\n",
            r#"{"op":"replay","platform":"henri","pattern":"zzz"}"#,
            "\n",
            r#"{"op":"replay","platform":"henri","pattern":"halo2d","ranks":1}"#,
            "\n",
            r#"{"op":"replay","platform":"henri","trace_file":"/nonexistent/t.jsonl"}"#,
            "\n",
            r#"{"op":"replay","platform":"henri","pattern":"halo2d","comp_numa":9}"#,
            "\n",
        );
        let out = serve(lines, &[]);
        let classes: Vec<_> = out.iter().map(|r| error_class(r).unwrap()).collect();
        assert_eq!(classes, ["usage", "usage", "usage", "io", "usage"]);
        assert!(out[1]
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("halo2d"));
    }

    #[test]
    fn a_misspelt_field_is_a_usage_error_on_every_op() {
        let cases = [
            (
                r#"{"op":"predict","platform":"henri","cores":4,"comp_numa":0,"comm_nmua":1}"#,
                "comm_nmua",
            ),
            (r#"{"op":"calibrate","platfrom":"henri"}"#, "platfrom"),
            (
                r#"{"op":"evaluate","platform":"henri","model":"m.txt"}"#,
                "model",
            ),
            (
                r#"{"op":"recommend","platform":"henri","compute_gb":4,"comm_gb":1,"tpo":3}"#,
                "tpo",
            ),
            (
                r#"{"op":"replay","platform":"henri","pattern":"halo2d","rnaks":64}"#,
                "rnaks",
            ),
            (r#"{"op":"stats","id":7,"verbose":true}"#, "verbose"),
        ];
        let lines: String = cases.iter().map(|(req, _)| format!("{req}\n")).collect();
        // The loop answers every line and keeps serving after the errors.
        let out = serve(&format!("{lines}{{\"op\":\"stats\"}}\n"), &[]);
        assert_eq!(out.len(), cases.len() + 1);
        for ((req, field), resp) in cases.iter().zip(&out) {
            assert_eq!(error_class(resp), Some("usage"), "{req}: {resp:?}");
            let error = resp.get("error").unwrap();
            assert_eq!(error.get("exit_code"), Some(&Json::Num(2.0)), "{req}");
            let message = error.get("message").unwrap().as_str().unwrap();
            assert!(
                message.contains(&format!("unknown field '{field}'")),
                "{message}"
            );
        }
        assert_eq!(out[5].get("id"), Some(&Json::Num(7.0)));
        assert!(ok(&out[6]), "{:?}", out[6]);
    }

    #[test]
    fn replay_op_reads_a_trace_file_and_flags_bad_data() {
        let dir = std::env::temp_dir().join(format!("memcontend-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let good = dir.join("good.trace.jsonl");
        let trace = generate::halo2d(&GenParams {
            ranks: 4,
            iters: 1,
            compute_bytes: 64 << 20,
            comm_bytes: 8 << 20,
            ..GenParams::default()
        });
        std::fs::write(&good, trace.to_json_lines()).unwrap();
        let bad = dir.join("bad.trace.jsonl");
        std::fs::write(&bad, "{\"rank\":0,\"event\":\"warp\"}\n").unwrap();
        let lines = format!(
            "{{\"op\":\"replay\",\"platform\":\"henri\",\"trace_file\":\"{}\"}}\n\
             {{\"op\":\"replay\",\"platform\":\"henri\",\"trace_file\":\"{}\"}}\n",
            good.display(),
            bad.display()
        );
        let out = serve(&lines, &[]);
        assert!(ok(&out[0]), "{:?}", out[0]);
        assert_eq!(out[0].get("ranks").and_then(Json::as_u64), Some(4));
        assert_eq!(error_class(&out[1]), Some("data"));
        std::fs::remove_file(&good).ok();
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn blank_lines_are_ignored_and_eof_ends_cleanly() {
        let out = serve("\n   \n", &[]);
        assert!(out.is_empty());
    }

    #[test]
    fn registry_hits_dominate_a_hundred_request_batch() {
        // The serving acceptance bar: a 100-request batch against one
        // platform is ≥ 90 % registry hits. Populate-once pins it to
        // exactly one miss — whichever worker gets there first — and 99
        // hits, visible as the per-response `cached` flag. (The
        // metrics-export view of the same bar lives in the black-box
        // protocol tests, where the service runs in its own process.)
        let items: Vec<String> = (0..100)
            .map(|i| {
                format!(
                    r#"{{"op":"predict","platform":"henri","cores":{},"comp_numa":0,"comm_numa":1}}"#,
                    i % 17 + 1
                )
            })
            .collect();
        let line = format!("{{\"batch\":[{}]}}\n", items.join(","));
        let out = serve(&line, &["--workers", "4"]);
        let batch = out[0].get("batch").unwrap().as_array().unwrap();
        assert_eq!(batch.len(), 100);
        assert!(batch.iter().all(ok));
        let hits = batch
            .iter()
            .filter(|r| r.get("cached") == Some(&Json::Bool(true)))
            .count();
        assert_eq!(hits, 99, "populate-once: one miss, ninety-nine hits");
    }
}
