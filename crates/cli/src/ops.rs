//! The model ops — predict, calibrate, evaluate, advise (serve's
//! `recommend`) and replay — each implemented once for both surfaces.
//! An op reads its inputs through [`Inputs`] (flags: [`Args`]; serve
//! request fields, the same names in snake_case: [`Json`]), checks them
//! once under the model's input rules ([`core_count`], [`size_bytes`],
//! NUMA nodes on the platform's or model's grid, a known platform) and
//! returns a typed result that `commands` renders as text and `serve`
//! as JSON.

use std::fs;
use std::io::Write as _;
use std::sync::Arc;

use mc_json::Json;
use mc_membench::{
    calibration_placements, calibration_sweeps, sweep_platform_parallel, BenchConfig, BenchRunner,
};
use mc_model::{
    calibrate_sparse, core_count, model_from_text, rank, size_bytes, ContentionModel,
    ErrorBreakdown, McError, ModelRegistry, PhaseProfile, Prediction, Recommendation, RegistryKey,
};
use mc_replay::generate::{GenParams, LazyGen};
use mc_replay::{
    report, CommMode, Crosscheck, ReplayConfig, ReplayError, ReplayOutcome, SearchOutcome, Trace,
    TraceReader,
};
use mc_topology::{platforms, NumaId, Platform};

use crate::args::{Args, CliError};

/// One input under its two spellings: the command-line flag and the
/// serve request field.
#[derive(Clone, Copy)]
pub struct Key(&'static str, &'static str);

const PLATFORM: Key = Key("platform", "platform");
pub const COMP_NUMA: Key = Key("comp-numa", "comp_numa");
pub const COMM_NUMA: Key = Key("comm-numa", "comm_numa");
const MODEL: Key = Key("model", "model");
const CORES: Key = Key("cores", "cores");
const SPARSE: Key = Key("sparse", "sparse");
const COMPUTE_GB: Key = Key("compute-gb", "compute_gb");
const COMM_GB: Key = Key("comm-gb", "comm_gb");
const MAX_CORES: Key = Key("max-cores", "max_cores");
const TOP: Key = Key("top", "top");
const INPUT: Key = Key("input", "trace_file");
const GENERATE: Key = Key("generate", "pattern");
const RANKS: Key = Key("ranks", "ranks");
const ITERS: Key = Key("iters", "iters");
const COMPUTE_MB: Key = Key("compute-mb", "compute_mb");
const COMM_MB: Key = Key("comm-mb", "comm_mb");
const STREAM: Key = Key("stream", "stream");
const SEARCH: Key = Key("search", "search");
const COMM_MODE: Key = Key("comm-mode", "comm_mode");
const SAVE_TRACE: Key = Key("save-trace", "save_trace");

/// Where an op reads its inputs: each method answers for one [`Key`],
/// under this surface's spelling and with this surface's errors.
pub trait Inputs {
    /// The key as this surface spells it.
    fn name(&self, key: Key) -> &'static str;
    /// The key as error messages quote it.
    fn quote(&self, key: Key) -> String;
    /// The key's text, if given.
    fn text(&self, key: Key) -> Result<Option<&str>, CliError>;
    /// The key's non-negative integer, if given.
    fn int(&self, key: Key) -> Result<Option<usize>, CliError>;
    /// The key's number, if given.
    fn number(&self, key: Key) -> Result<Option<f64>, CliError>;
    /// The key's yes/no value, off when absent. Serve requests have no
    /// yes/no fields, so there every flag is off.
    fn flag(&self, _key: Key) -> Result<bool, CliError> {
        Ok(false)
    }
    /// The error for a required key that is absent.
    fn missing(&self, key: Key) -> CliError;
    /// A usage error in this surface's class.
    fn usage(&self, message: String) -> CliError;
}

impl Inputs for Args {
    fn name(&self, key: Key) -> &'static str {
        key.0
    }

    fn quote(&self, key: Key) -> String {
        format!("--{}", key.0)
    }

    fn text(&self, key: Key) -> Result<Option<&str>, CliError> {
        Ok(self.get(key.0))
    }

    fn int(&self, key: Key) -> Result<Option<usize>, CliError> {
        self.num(key.0)
    }

    fn number(&self, key: Key) -> Result<Option<f64>, CliError> {
        self.num(key.0)
    }

    fn flag(&self, key: Key) -> Result<bool, CliError> {
        Args::flag(self, key.0)
    }

    fn missing(&self, key: Key) -> CliError {
        CliError::MissingOption(key.0)
    }

    fn usage(&self, message: String) -> CliError {
        CliError::Usage(message)
    }
}

/// A request field read through `read`, or an error saying it must be
/// `what`.
fn field<'a, T>(
    request: &'a Json,
    key: Key,
    what: &str,
    read: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<Option<T>, CliError> {
    let bad = || CliError::Protocol(format!("'{}' must be {what}", key.1));
    let value = request.get(key.1);
    value.map(|v| read(v).ok_or_else(bad)).transpose()
}

impl Inputs for Json {
    fn name(&self, key: Key) -> &'static str {
        key.1
    }

    fn quote(&self, key: Key) -> String {
        format!("'{}'", key.1)
    }

    fn text(&self, key: Key) -> Result<Option<&str>, CliError> {
        field(self, key, "a string", Json::as_str)
    }

    fn int(&self, key: Key) -> Result<Option<usize>, CliError> {
        field(self, key, "a non-negative integer", |v| {
            v.as_u64().map(|n| usize::try_from(n).unwrap_or(usize::MAX))
        })
    }

    fn number(&self, key: Key) -> Result<Option<f64>, CliError> {
        field(self, key, "a number", Json::as_f64)
    }

    fn missing(&self, key: Key) -> CliError {
        CliError::Protocol(format!("missing '{}'", key.1))
    }

    fn usage(&self, message: String) -> CliError {
        CliError::Protocol(message)
    }
}

fn required<T>(input: &impl Inputs, key: Key, value: Option<T>) -> Result<T, CliError> {
    value.ok_or_else(|| input.missing(key))
}

/// A usage error naming `key` and the rule its value broke.
fn broke(input: &impl Inputs, key: Key, rule: &str) -> CliError {
    input.usage(format!("{} {rule}", input.quote(key)))
}

/// The platform the input names.
pub fn platform(input: &impl Inputs) -> Result<Platform, CliError> {
    let name = required(input, PLATFORM, input.text(PLATFORM)?)?;
    platforms::by_name(name).ok_or_else(|| CliError::UnknownPlatform(name.to_string()))
}

/// A NUMA node, if given: one of the `count` nodes.
pub fn numa(input: &impl Inputs, key: Key, count: usize) -> Result<Option<NumaId>, CliError> {
    let node = |n| numa_in(input, key, n, count);
    input.int(key)?.map(node).transpose()
}

fn numa_in(input: &impl Inputs, key: Key, n: usize, count: usize) -> Result<NumaId, CliError> {
    match u16::try_from(n) {
        Ok(id) if n < count => Ok(NumaId::new(id)),
        _ => Err(CliError::NumaOutOfRange {
            option: input.name(key),
            numa: n,
            count,
        }),
    }
}

/// A count, if given, of at least one.
fn count(input: &impl Inputs, key: Key) -> Result<Option<usize>, CliError> {
    match input.int(key)? {
        Some(0) => Err(CliError::NonPositive(input.name(key))),
        n => Ok(n),
    }
}

/// A core count, if given: at least one, and within [`core_count`].
fn cores(input: &impl Inputs, key: Key) -> Result<Option<usize>, CliError> {
    let ceiling = |n| core_count(n).map_err(|e| broke(input, key, &e));
    count(input, key)?.map(ceiling).transpose()
}

/// `value` GB (`unit` 1e9) or MB (`unit` 2^20) in bytes, within
/// [`size_bytes`].
fn bytes(input: &impl Inputs, key: Key, value: f64, unit: f64) -> Result<f64, CliError> {
    size_bytes(value, unit).map_err(|e| broke(input, key, &e))
}

/// The registry key of `platform`'s calibrated model.
pub fn platform_key(platform: &Platform) -> RegistryKey {
    RegistryKey::new(platform.name(), "default", calibration_placements(platform))
}

/// Read and parse a saved model file.
pub fn read_model(path: &str) -> Result<ContentionModel, McError> {
    let text = fs::read_to_string(path).map_err(|e| McError::io(path, e))?;
    Ok(model_from_text(&text)?)
}

/// The serve registry an op's models come from; without one (the command
/// line) each model is built afresh and never counts as cached.
pub type Models<'a> = Option<&'a ModelRegistry>;

/// Where an op's model comes from: the platform's two sample sweeps or
/// a saved model file.
#[derive(Clone, Copy)]
enum ModelSource<'a> {
    Platform(&'a Platform),
    File(&'a str),
}

/// The model `source` names, and whether the registry already held it.
fn model_for(
    models: Models<'_>,
    source: ModelSource<'_>,
) -> Result<(Arc<ContentionModel>, bool), CliError> {
    let build = || match source {
        ModelSource::Platform(p) => {
            let (local, remote) = calibration_sweeps(p, BenchConfig::default());
            Ok(ContentionModel::calibrate(&p.topology, &local, &remote)?)
        }
        ModelSource::File(path) => read_model(path),
    };
    let Some(registry) = models else {
        return Ok((Arc::new(build()?), false));
    };
    let key = match source {
        ModelSource::Platform(p) => platform_key(p),
        ModelSource::File(path) => {
            let zero = (NumaId::new(0), NumaId::new(0));
            RegistryKey::new(format!("file:{path}"), "file", (zero, zero))
        }
    };
    Ok(registry.get_or_insert_with(&key, build)?)
}

/// One configuration's bandwidths, overlapped (`par`) and alone.
pub struct Predicted {
    pub cores: usize,
    pub m_comp: NumaId,
    pub m_comm: NumaId,
    pub par: Prediction,
    pub alone: Prediction,
    pub cached: bool,
}

/// `predict`: bandwidths for `cores` cores under one placement, from the
/// platform's model or a saved model file (which wins when both are
/// given). The NUMA nodes must be on the model's own grid.
pub fn predict(input: &impl Inputs, models: Models<'_>) -> Result<Predicted, CliError> {
    let platform;
    let source = match input.text(MODEL)? {
        Some(path) => ModelSource::File(path),
        None => {
            platform = self::platform(input)?;
            ModelSource::Platform(&platform)
        }
    };
    let cores = required(input, CORES, cores(input, CORES)?)?;
    let comp = required(input, COMP_NUMA, input.int(COMP_NUMA)?)?;
    let comm = required(input, COMM_NUMA, input.int(COMM_NUMA)?)?;
    let (model, cached) = model_for(models, source)?;
    let m_comp = numa_in(input, COMP_NUMA, comp, model.numa_count())?;
    let m_comm = numa_in(input, COMM_NUMA, comm, model.numa_count())?;
    // Past the cores its bandwidth curve covers, the model predicts no
    // compute bandwidth at all, and every share of it is meaningless.
    let alone = model.predict_alone(cores, m_comp, m_comm);
    if alone.comp.is_nan() || alone.comp <= 0.0 {
        let rule = format!(
            "{cores} is more cores than the model can answer for: \
             it predicts no compute bandwidth for them"
        );
        return Err(broke(input, CORES, &rule));
    }
    Ok(Predicted {
        cores,
        m_comp,
        m_comm,
        par: model.predict(cores, m_comp, m_comm),
        alone,
        cached,
    })
}

/// A calibrated model; with sparse sweeps, the share of runs each saved.
pub struct Calibrated {
    pub platform: Platform,
    pub model: Arc<ContentionModel>,
    pub cached: bool,
    pub sparse_savings: Option<(f64, f64)>,
}

/// `calibrate`: the platform's model from its two sample sweeps, or with
/// `sparse` from the adaptive sweeps of the paper's footnote 2, which
/// stop once both bandwidth peaks are confirmed.
pub fn calibrate(input: &impl Inputs, models: Models<'_>) -> Result<Calibrated, CliError> {
    let platform = platform(input)?;
    let (model, cached, sparse_savings) = if input.flag(SPARSE)? {
        let runner = BenchRunner::new(&platform, BenchConfig::default());
        let ((lc, lm), (rc, rm)) = calibration_placements(&platform);
        let local = calibrate_sparse(&runner, lc, lm).map_err(McError::from)?;
        let remote = calibrate_sparse(&runner, rc, rm).map_err(McError::from)?;
        let model = ContentionModel::calibrate(&platform.topology, &local.sweep, &remote.sweep)
            .map_err(McError::from)?;
        let savings = (local.savings(), remote.savings());
        (Arc::new(model), false, Some(savings))
    } else {
        let (model, cached) = model_for(models, ModelSource::Platform(&platform))?;
        (model, cached, None)
    };
    Ok(Calibrated {
        platform,
        model,
        cached,
        sparse_savings,
    })
}

/// The platform's Table II row.
pub struct Evaluated {
    pub platform: Platform,
    pub errors: ErrorBreakdown,
    pub cached: bool,
}

/// `evaluate`: the prediction error of the platform's model over every
/// placement of a full sweep.
pub fn evaluate(input: &impl Inputs, models: Models<'_>) -> Result<Evaluated, CliError> {
    let platform = platform(input)?;
    let (model, cached) = model_for(models, ModelSource::Platform(&platform))?;
    let sweep = sweep_platform_parallel(&platform, BenchConfig::default());
    let (local, remote) = calibration_placements(&platform);
    let errors = mc_model::evaluate(model.as_ref(), &sweep, &[local, remote]);
    Ok(Evaluated {
        platform,
        errors,
        cached,
    })
}

/// Every configuration, best first, and how many the input asks for.
pub struct Advised {
    pub platform: Platform,
    pub compute_gb: f64,
    pub comm_gb: f64,
    pub ranked: Vec<Recommendation>,
    pub top: Option<usize>,
    pub cached: bool,
}

/// `advise` (serve: `recommend`): the configurations of a phase moving
/// `compute_gb` through memory while `comm_gb` arrive, ranked by
/// predicted makespan.
pub fn advise(input: &impl Inputs, models: Models<'_>) -> Result<Advised, CliError> {
    let platform = platform(input)?;
    let compute_gb = required(input, COMPUTE_GB, input.number(COMPUTE_GB)?)?;
    let comm_gb = required(input, COMM_GB, input.number(COMM_GB)?)?;
    let phase = PhaseProfile {
        compute_bytes: bytes(input, COMPUTE_GB, compute_gb, 1e9)?,
        comm_bytes: bytes(input, COMM_GB, comm_gb, 1e9)?,
        max_cores: cores(input, MAX_CORES)?.unwrap_or(platform.max_compute_cores()),
    };
    let top = input.int(TOP)?;
    let (model, cached) = model_for(models, ModelSource::Platform(&platform))?;
    Ok(Advised {
        ranked: rank(&model, &phase),
        platform,
        compute_gb,
        comm_gb,
        top,
        cached,
    })
}

/// A replay's outcome, its messaging twin in cxl mode, and the placement
/// search with the advisor's cross-check of its winner.
pub struct Replayed {
    pub platform: Platform,
    pub outcome: ReplayOutcome,
    pub messaging: Option<ReplayOutcome>,
    pub search: Option<(SearchOutcome, Crosscheck)>,
}

/// What a replay reads its events from.
enum Source<'a> {
    File(&'a str),
    Generator(LazyGen),
}

/// The inputs only a generator reads.
const GENERATOR_ONLY: [Key; 4] = [RANKS, ITERS, COMPUTE_MB, COMM_MB];

/// `replay`: a whole program's contention slowdown, from a trace file
/// (which `cores`/`comp_numa`/`comm_numa` re-home) or a generated pattern
/// (which they feed). With `stream` no trace is materialized: a file is
/// parsed line by line after its `{"ranks":N}` header and a generator
/// runs lazily, so memory stays bounded by ranks rather than by events.
pub fn replay(input: &impl Inputs, models: Models<'_>) -> Result<Replayed, CliError> {
    let platform = platform(input)?;
    let p = &platform;
    let stream = input.flag(STREAM)?;
    let do_search = input.flag(SEARCH)?;
    let exclusive = |a, b: String, why| {
        let a = input.quote(a);
        input.usage(format!("{a} and {b} are mutually exclusive{why}"))
    };
    if stream && do_search {
        let why = " (the placement sweep replays the trace many times and needs it in memory)";
        return Err(exclusive(STREAM, input.quote(SEARCH), why));
    }
    let comm_mode = match input.text(COMM_MODE)? {
        None | Some("messages") => CommMode::Messages,
        Some("cxl") => CommMode::Cxl,
        Some(other) => {
            let rule = format!("must be 'messages' or 'cxl', got '{other}'");
            return Err(broke(input, COMM_MODE, &rule));
        }
    };
    if comm_mode == CommMode::Cxl && do_search {
        let (cxl, why) = (
            input.quote(COMM_MODE),
            " (the placement sweep ranks messaging replays)",
        );
        return Err(exclusive(SEARCH, format!("{cxl} cxl"), why));
    }
    let numa_count = p.topology.numa_count();
    let comp_numa = numa(input, COMP_NUMA, numa_count)?;
    let comm_numa = numa(input, COMM_NUMA, numa_count)?;
    let cores = cores(input, CORES)?;
    let save = input.text(SAVE_TRACE)?;
    let mut config = ReplayConfig {
        // Streaming runs keep full timelines only for the ranks a gantt
        // chart can show; the rest fold into the busy totals.
        timeline_ranks: stream.then_some(report::GANTT_MAX_ROWS),
        comm_mode,
        ..ReplayConfig::default()
    };
    let source = match (input.text(INPUT)?, input.text(GENERATE)?) {
        (Some(_), Some(_)) => return Err(exclusive(INPUT, input.quote(GENERATE), "")),
        (None, None) => {
            let [input_, generate] = [INPUT, GENERATE].map(|k| input.quote(k));
            return Err(input.usage(format!("replay needs {input_} or {generate}")));
        }
        (Some(path), None) => {
            for key in GENERATOR_ONLY {
                if input.number(key)?.is_some() {
                    let only = format!("only applies to {}", input.quote(GENERATE));
                    return Err(broke(input, key, &only));
                }
            }
            config = ReplayConfig {
                comp_numa,
                comm_numa,
                cores,
                ..config
            };
            Source::File(path)
        }
        (None, Some(pattern)) => {
            let d = GenParams::default();
            let mib = |key, default| match input.number(key)? {
                Some(mb) => bytes(input, key, mb, (1 << 20) as f64).map(|b| b as u64),
                None => Ok(default),
            };
            let params = GenParams {
                ranks: input.int(RANKS)?.unwrap_or(d.ranks),
                iters: count(input, ITERS)?.unwrap_or(d.iters),
                cores: cores.unwrap_or(d.cores),
                compute_bytes: mib(COMPUTE_MB, d.compute_bytes)?,
                comm_bytes: mib(COMM_MB, d.comm_bytes)?,
                comp_numa: comp_numa.unwrap_or(d.comp_numa),
                comm_numa: comm_numa.unwrap_or(d.comm_numa),
            };
            Source::Generator(LazyGen::new(pattern, &params)?)
        }
    };
    let mut search = None;
    let (outcome, messaging) = match source {
        Source::File(_) if stream && save.is_some() => {
            let [save, stream, input_] = [SAVE_TRACE, STREAM, INPUT].map(|k| input.quote(k));
            return Err(input.usage(format!(
                "{save} is redundant with {stream} {input_} (the trace is already on disk)"
            )));
        }
        Source::File(path) if stream => {
            // Missing/unreadable files are I/O errors (exit 4);
            // re-open failures inside a pass surface as trace I/O.
            fs::File::open(path).map_err(io(path))?;
            let open = || {
                let f = fs::File::open(path).map_err(|e| mc_replay::TraceError::Io {
                    line: 0,
                    message: e.to_string(),
                })?;
                Ok(TraceReader::new(std::io::BufReader::new(f))?)
            };
            replay_modes(config, |c| mc_replay::replay_with(p, open, c))?
        }
        Source::Generator(gen) if stream => {
            if let Some(dst) = save {
                let mut w = std::io::BufWriter::new(fs::File::create(dst).map_err(io(dst))?);
                let written = gen.write_interleaved(&mut w).and_then(|_| w.flush());
                written.map_err(io(dst))?;
            }
            let source = || Ok(gen.source());
            replay_modes(config, |c| mc_replay::replay_with(p, source, c))?
        }
        source => {
            let trace = match source {
                Source::File(path) => {
                    Trace::from_json_lines(&fs::read_to_string(path).map_err(io(path))?)?
                }
                Source::Generator(gen) => gen.try_collect()?,
            };
            if let Some(dst) = save {
                fs::write(dst, trace.to_json_lines()).map_err(io(dst))?;
            }
            let outcomes = replay_modes(config, |c| mc_replay::replay(p, &trace, c))?;
            if do_search {
                let found = mc_replay::search(p, &trace, &[])?;
                let (model, _) = model_for(models, ModelSource::Platform(p))?;
                let winner = found.winner();
                let max_cores = p.max_compute_cores();
                let check = mc_replay::advisor_crosscheck(&model, &trace, winner, max_cores);
                search = Some((found, check));
            }
            outcomes
        }
    };
    Ok(Replayed {
        platform,
        outcome,
        messaging,
        search,
    })
}

/// An I/O error on `path`.
fn io(path: &str) -> impl FnOnce(std::io::Error) -> McError + '_ {
    move |e| McError::io(path, e)
}

/// Replay under `config`; in cxl mode, first replay the same source
/// under ordinary messaging too, for the head-to-head.
fn replay_modes(
    config: ReplayConfig,
    run: impl Fn(&ReplayConfig) -> Result<ReplayOutcome, ReplayError>,
) -> Result<(ReplayOutcome, Option<ReplayOutcome>), CliError> {
    let messaging = match config.comm_mode {
        CommMode::Cxl => Some(run(&ReplayConfig {
            comm_mode: CommMode::Messages,
            ..config
        })?),
        CommMode::Messages => None,
    };
    Ok((run(&config)?, messaging))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_model::model_to_text;

    fn args(line: &[&str]) -> Args {
        Args::parse(line.iter().copied()).unwrap()
    }

    fn request(line: &str) -> Json {
        Json::parse(line).unwrap()
    }

    /// The CLI used to calibrate `evaluate` from the full sweep's two
    /// sample placements, serve from `calibration_sweeps`; the one route
    /// left is serve's. Both sweeps are the same bits on every platform a
    /// name reaches, so the Table II row is too.
    #[test]
    fn evaluate_matches_calibrating_from_the_full_sweep_bit_for_bit() {
        for p in platforms::extended() {
            let sweep = sweep_platform_parallel(&p, BenchConfig::default());
            let (local, remote) = calibration_placements(&p);
            let pick = |(c, m)| sweep.placement(c, m).unwrap();
            let model = ContentionModel::calibrate(&p.topology, pick(local), pick(remote)).unwrap();
            let old = mc_model::evaluate(&model, &sweep, &[local, remote]);
            let new = evaluate(&args(&["evaluate", "--platform", p.name()]), None).unwrap();
            let bits = |e: &ErrorBreakdown| {
                [
                    e.comm_samples,
                    e.comm_non_samples,
                    e.comm_all,
                    e.comp_samples,
                ]
                .into_iter()
                .chain([e.comp_non_samples, e.comp_all, e.average, e.skipped as f64])
                .map(f64::to_bits)
                .collect::<Vec<_>>()
            };
            assert_eq!(bits(&old), bits(&new.errors), "{}", p.name());
            let (l, r) = calibration_sweeps(&p, BenchConfig::default());
            assert_eq!(
                format!("{:?}", (&l, &r)),
                format!("{:?}", (pick(local), pick(remote)))
            );
        }
    }

    /// `predict` checks its core count and NUMA nodes the same way on
    /// both surfaces, and checks a model file's NUMA nodes against that
    /// model's own grid.
    #[test]
    fn predict_inputs_are_checked_alike_on_both_surfaces() {
        let flags = |cores: &str, comp: &str| {
            let line = [
                "predict",
                "--platform",
                "henri",
                "--cores",
                cores,
                "--comp-numa",
                comp,
            ];
            predict(&args(&[&line[..], &["--comm-numa", "0"]].concat()), None).err()
        };
        let fields = |cores: &str, comp: &str| {
            let line = format!(
                r#"{{"platform":"henri","cores":{cores},"comp_numa":{comp},"comm_numa":0}}"#
            );
            predict(&request(&line), None).err()
        };
        for (cores, comp) in [("0", "0"), ("1025", "0"), ("10000000000", "0"), ("4", "9")] {
            let (cli, serve) = (flags(cores, comp).unwrap(), fields(cores, comp).unwrap());
            assert!(cli.is_usage() && serve.is_usage(), "{cli} / {serve}");
        }
        let numa = |e| {
            matches!(
                e,
                Some(CliError::NumaOutOfRange {
                    numa: 9,
                    count: 2,
                    ..
                })
            )
        };
        assert!(numa(flags("4", "9")) && numa(fields("4", "9")));
        assert!(flags("1024", "1").is_none() && fields("1024", "1").is_none());

        let dir = std::env::temp_dir();
        for (platform, nodes) in [("henri", 2), ("henri-subnuma", 4)] {
            let path = dir.join(format!("ops-grid-{platform}-{}.txt", std::process::id()));
            let model = calibrate(&args(&["calibrate", "--platform", platform]), None).unwrap();
            std::fs::write(&path, model_to_text(&model.model)).unwrap();
            let path = path.to_str().unwrap();
            let at = |comp: usize| {
                let comp = comp.to_string();
                let line = [
                    "predict",
                    "--model",
                    path,
                    "--cores",
                    "4",
                    "--comp-numa",
                    &comp,
                ];
                predict(&args(&[&line[..], &["--comm-numa", "0"]].concat()), None)
            };
            assert!(at(nodes - 1).is_ok(), "{platform}");
            match at(nodes) {
                Err(CliError::NumaOutOfRange { count, .. }) => assert_eq!(count, nodes),
                other => panic!("{platform}: {:?}", other.err()),
            }
            std::fs::remove_file(path).ok();
        }
    }

    /// A trace file's `cores`/`comp_numa`/`comm_numa` re-home it on both
    /// surfaces alike; generator-only inputs next to it are usage errors.
    #[test]
    fn replay_overrides_mean_the_same_on_both_surfaces() {
        let path = std::env::temp_dir().join(format!("ops-replay-{}.jsonl", std::process::id()));
        let gen = [
            "replay",
            "--platform",
            "henri",
            "--generate",
            "halo2d",
            "--ranks",
            "4",
        ];
        let save = ["--iters", "1", "--save-trace", path.to_str().unwrap()];
        replay(&args(&[&gen[..], &save].concat()), None).unwrap();
        let path = path.to_str().unwrap();
        let file = ["replay", "--platform", "henri", "--input", path];
        let moved = ["--cores", "2", "--comp-numa", "1", "--comm-numa", "1"];
        let cli = replay(&args(&[&file[..], &moved].concat()), None).unwrap();
        let plain = replay(&args(&file), None).unwrap();
        let line = format!(
            r#"{{"platform":"henri","trace_file":"{path}","cores":2,"comp_numa":1,"comm_numa":1}}"#
        );
        let bits = |r: &Replayed| r.outcome.contended.makespan.to_bits();
        assert_ne!(bits(&cli), bits(&plain), "the overrides re-home the trace");
        let mut out = Vec::new();
        let session = format!("{{\"op\":\"replay\",{}\n", &line[1..]);
        let serve = Args::parse(["serve"]).unwrap();
        crate::serve::serve_loop(&serve, session.as_bytes(), &mut out).unwrap();
        let response = request(std::str::from_utf8(&out).unwrap().trim_end());
        let makespan = response.get("makespan").and_then(Json::as_f64);
        assert_eq!(makespan.map(f64::to_bits), Some(bits(&cli)), "{response:?}");

        for (flag, field) in [("--ranks", "ranks"), ("--iters", "iters")]
            .into_iter()
            .chain([("--compute-mb", "compute_mb"), ("--comm-mb", "comm_mb")])
        {
            let e = replay(&args(&[&file[..], &[flag, "4"]].concat()), None)
                .err()
                .unwrap();
            assert!(e.is_usage() && e.to_string().contains(flag), "{e}");
            let line = format!(r#"{{"platform":"henri","trace_file":"{path}","{field}":4}}"#);
            let e = replay(&request(&line), None).err().unwrap();
            assert!(e.is_usage() && e.to_string().contains(field), "{e}");
        }
        let e = replay(
            &request(r#"{"platform":"henri","trace_file":"x","comp_numa":2}"#),
            None,
        );
        assert!(matches!(e.err(), Some(CliError::NumaOutOfRange { .. })));
        std::fs::remove_file(path).ok();
    }
}
