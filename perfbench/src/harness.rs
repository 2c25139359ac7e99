//! The closed loop: one thread, one op at a time, every op and every
//! set-up preceded by the host probe and reported in reference-host
//! seconds.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use mc_json::Json;
use mc_obs::{Registry, TagValue};

use crate::layers::{self, Layers, LAYERS};
use crate::probe::Probe;
use crate::stats::{fastest_ref_s, median, p90, quartiles, ref_host_factor, relative_iqr};
use crate::workloads::{same_bits, setup, Outputs, Spec, Workload};

/// When the timed loop ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// After this many timed ops (traced ops in a traced run).
    Ops(usize),
    /// Once this many seconds have passed and at least [`MIN_OPS`]
    /// (traced run: [`MIN_TRACED_OPS`]) ops ran, or [`GRACE_S`] later
    /// regardless.
    Seconds(f64),
}

/// Untraced ops a `--seconds` run times at least, so `op_s_p90` has ten
/// samples beyond it.
pub const MIN_OPS: usize = 100;
/// Traced ops a `--seconds` traced run times at least.
pub const MIN_TRACED_OPS: usize = 20;
/// How long past `--seconds` a slow host may take to reach the minimum.
pub const GRACE_S: f64 = 60.0;
/// A run whose probe IQR exceeds this share of its median is `noisy`.
pub const NOISY_PROBE_IQR: f64 = 0.20;
/// One set-up sample repeats the set-up back to back until this much
/// time has passed and takes the mean. Three workloads set up in
/// microseconds, where one cold set-up after the probe varied by 25 %
/// between sets of runs. A set-up slower than this runs once per sample.
pub const SETUP_SAMPLE_S: f64 = 0.02;
/// Set-up samples a run takes unless `--setups` says otherwise: the
/// first before the warm-up op, the rest spread evenly over the timed
/// loop, between ops. The host switches between fast and slow spells
/// lasting seconds; samples taken back to back all fall in one spell,
/// which let the scheduler's `setup_s` move by 31 % between two sets of
/// runs (`BENCHMARK.md`).
pub const DEFAULT_SETUPS: usize = 40;
/// Consecutive set-up samples that make one `setup_s` estimate
/// ([`fastest_ref_s`]); `setup_s` is the median of the estimates.
pub const SETUP_BLOCK: usize = 10;

/// An end-to-end metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether a larger value is better.
    pub higher_is_better: bool,
}

const fn metric(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
    }
}

/// The end-to-end metrics `BENCHMARK.json` bounds. `failed_ops_ratio`
/// is reported beside them but is not bounded there: it is 0 on every
/// healthy run, and a failed op already makes the run incorrect.
pub const END_TO_END: [Metric; 5] = [
    metric("setup_s", "s", false),
    metric("op_s_p50", "s", false),
    metric("op_s_p90", "s", false),
    metric("ops_per_s", "1/s", true),
    metric("peak_rss_kb", "kB", false),
];

/// The failure metric printed beside [`END_TO_END`].
pub const FAILED_OPS_RATIO: Metric = metric("failed_ops_ratio", "ratio", false);

/// The committed reference: the probe median every time is scaled to,
/// and the outputs one seed must reproduce.
pub struct Reference {
    /// Probe median on the host the benchmark was committed from.
    pub probe_ref_s: f64,
    /// The seed whose outputs are pinned.
    pub seed: u64,
    /// Pinned outputs per workload.
    pub outputs: BTreeMap<String, Outputs>,
}

/// How the first op's outputs compare with the pinned ones.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    /// Every pinned output agrees to 1e-12 relative.
    Match,
    /// Nothing is pinned for this workload and seed.
    NotPinned,
    /// Some output disagrees.
    Mismatch(String),
}

impl Reference {
    /// The reference compiled into the benchmark, `reference.json`.
    pub fn builtin() -> Result<Reference, String> {
        let bad = |what: &str| format!("reference.json: {what}");
        let doc =
            Json::parse(include_str!("../reference.json")).map_err(|e| bad(&e.to_string()))?;
        let probe_ref_s = doc
            .get("probe_ref_s")
            .and_then(Json::as_f64)
            .filter(|v| *v > 0.0)
            .ok_or_else(|| bad("probe_ref_s must be a positive number"))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("seed must be a whole number"))?;
        let mut outputs = BTreeMap::new();
        if let Some(Json::Obj(workloads)) = doc.get("outputs") {
            for (name, values) in workloads {
                let Json::Obj(values) = values else {
                    return Err(bad(&format!("outputs of {name} must be an object")));
                };
                let values = values
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|v| (k.clone(), v))
                            .ok_or_else(|| bad(&format!("{name}.{k} must be a number")))
                    })
                    .collect::<Result<Outputs, String>>()?;
                outputs.insert(name.clone(), values);
            }
        }
        Ok(Reference {
            probe_ref_s,
            seed,
            outputs,
        })
    }

    /// Compare `got` with what is pinned for `workload` at `seed`.
    pub fn check(&self, workload: &str, seed: u64, got: &Outputs) -> Expected {
        let Some(want) = self.outputs.get(workload).filter(|_| seed == self.seed) else {
            return Expected::NotPinned;
        };
        let names = |o: &Outputs| o.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        if names(want) != names(got) {
            return Expected::Mismatch(format!(
                "outputs {:?}, pinned {:?}",
                names(got),
                names(want)
            ));
        }
        for ((name, w), (_, g)) in want.iter().zip(got) {
            if (w - g).abs() > 1e-12 * w.abs().max(g.abs()) {
                return Expected::Mismatch(format!("{name} = {g}, pinned {w}"));
            }
        }
        Expected::Match
    }
}

/// What to measure.
pub struct Plan<'a> {
    /// The workload.
    pub spec: &'static Spec,
    /// Input seed.
    pub seed: u64,
    /// When the timed loop ends.
    pub stop: Stop,
    /// Set-up samples to time; the first one's inputs are used.
    pub setups: usize,
    /// Interleave a traced op after every untraced op.
    pub traced: bool,
    /// Where workloads write their files.
    pub work_dir: &'a Path,
    /// Probe reference and pinned outputs.
    pub reference: &'a Reference,
}

/// Everything one measurement produced.
#[derive(Default)]
pub struct Measured {
    /// One set-up estimate per [`SETUP_BLOCK`] samples, reference-host
    /// seconds.
    pub setup_s: Vec<f64>,
    /// Set-up samples, raw wall seconds.
    pub setup_wall_s: Vec<f64>,
    /// The probe run just before each set-up sample, seconds.
    pub setup_probe_s: Vec<f64>,
    /// Untraced op times, reference-host seconds.
    pub op_s: Vec<f64>,
    /// Untraced op times, raw wall seconds.
    pub op_wall_s: Vec<f64>,
    /// Traced op times, reference-host seconds.
    pub traced_op_s: Vec<f64>,
    /// Per-layer metrics of each traced op.
    pub layer_rows: Vec<BTreeMap<&'static str, f64>>,
    /// Every probe time, seconds.
    pub probes: Vec<f64>,
    /// Timed ops run (traced ones included).
    pub attempted: usize,
    /// Timed ops that errored or whose outputs failed a check.
    pub failed: usize,
    /// The first failed op's reason.
    pub first_error: Option<String>,
    /// The warm-up op's outputs, which every timed op must reproduce.
    pub outputs: Outputs,
    /// The untimed reference pass.
    pub reference: Option<Result<(), String>>,
    /// The pinned-output check.
    pub expected: Option<Expected>,
    /// VmHWM after the timed loop, kB.
    pub peak_rss_kb: Option<u64>,
}

impl Measured {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && matches!(self.reference, Some(Ok(())))
            && !matches!(self.expected, Some(Expected::Mismatch(_)))
    }

    /// Timed ops that count towards the stop rule.
    fn ops_done(&self, traced: bool) -> usize {
        if traced {
            self.traced_op_s.len()
        } else {
            self.op_s.len()
        }
    }

    fn enough(&self, traced: bool) -> bool {
        let min = if traced { MIN_TRACED_OPS } else { MIN_OPS };
        self.ops_done(traced) >= min
    }

    /// One set-up sample: the probe, then the set-up repeated back to
    /// back for [`SETUP_SAMPLE_S`]. Returns the last workload set up.
    fn setup_sample(
        &mut self,
        plan: &Plan<'_>,
        probe: &mut Probe,
    ) -> Result<Box<dyn Workload>, String> {
        let p = probe.run();
        self.probes.push(p);
        self.setup_probe_s.push(p);
        let start = Instant::now();
        let mut reps = 0u32;
        let w = loop {
            let w = setup(plan.spec.name, plan.seed, plan.work_dir)?;
            reps += 1;
            if start.elapsed().as_secs_f64() >= SETUP_SAMPLE_S {
                break w;
            }
        };
        self.setup_wall_s
            .push(start.elapsed().as_secs_f64() / f64::from(reps));
        Ok(w)
    }

    /// One timed op: probe, op, output check. Returns the op's wall
    /// seconds, its probe seconds and its start.
    fn timed_op(
        &mut self,
        w: &mut dyn Workload,
        probe: &mut Probe,
        layers: &mut Layers,
    ) -> (f64, f64, Instant) {
        let p = probe.run();
        self.probes.push(p);
        let start = Instant::now();
        let out = w.op(layers);
        let wall = start.elapsed().as_secs_f64();
        self.attempted += 1;
        let problem = match out {
            Ok(o) if same_bits(&o, &self.outputs) => None,
            Ok(o) => Some(format!("outputs {o:?} differ from the first op's")),
            Err(e) => Some(e),
        };
        if let Some(problem) = problem {
            self.failed += 1;
            self.first_error.get_or_insert(problem);
        }
        (wall, p, start)
    }

    /// Every end-to-end metric plus `failed_ops_ratio` as `(name, unit,
    /// value)`, `None` where the samples do not support a value.
    pub fn end_to_end(&self) -> Vec<(&'static str, &'static str, Option<f64>)> {
        let total: f64 = self.op_s.iter().sum();
        let values = [
            median(&self.setup_s),
            median(&self.op_s),
            p90(&self.op_s),
            (total > 0.0).then(|| self.op_s.len() as f64 / total),
            self.peak_rss_kb.map(|kb| kb as f64),
        ];
        let failed = (self.attempted > 0).then(|| self.failed as f64 / self.attempted as f64);
        END_TO_END
            .iter()
            .zip(values)
            .chain([(&FAILED_OPS_RATIO, failed)])
            .map(|(metric, v)| (metric.name, metric.unit, v))
            .collect()
    }

    /// Every per-layer metric as `(name, unit, value)`: the median over
    /// traced ops, plus the run's `trace_overhead`.
    pub fn layers(&self) -> Vec<(&'static str, &'static str, Option<f64>)> {
        let overhead = median(&self.traced_op_s)
            .zip(median(&self.op_s))
            .map(|(traced, plain)| traced / plain);
        LAYERS
            .iter()
            .map(|l| {
                let value = if l.name == "trace_overhead" {
                    overhead
                } else {
                    let col: Vec<f64> = self.layer_rows.iter().map(|r| r[l.name]).collect();
                    median(&col)
                };
                (l.name, l.unit, value)
            })
            .collect()
    }
}

/// Spans of a traced run, kept in memory and rendered as a Chrome trace
/// when the run ends: one track (`tid`) per layer, track 0 for whole
/// ops, every span tagged with its workload and op id.
pub struct Sink {
    /// The span store.
    pub registry: Registry,
    epoch: Instant,
    next_op: Cell<u64>,
}

impl Sink {
    /// An empty sink whose clock starts now.
    pub fn new() -> Sink {
        Sink {
            registry: Registry::new(),
            epoch: Instant::now(),
            next_op: Cell::new(0),
        }
    }

    fn record(&self, workload: &str, start: Instant, wall_s: f64, layers: &Layers) {
        let op = self.next_op.get();
        self.next_op.set(op + 1);
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        let span = |stage: &str, track: u64, t: Instant, dur: f64| {
            self.registry.record_span(
                stage,
                &[
                    (mc_obs::tags::NODE, TagValue::U64(track)),
                    (mc_obs::tags::OP, TagValue::U64(op)),
                    ("workload", TagValue::Str(workload)),
                ],
                at(t),
                dur,
            );
        };
        span("op", 0, start, wall_s);
        for s in layers.spans() {
            let track = layers::index(s.layer).expect("spans are charged to known layers");
            span(s.layer, track as u64 + 1, s.start, s.dur_s);
        }
    }
}

/// Set up `plan.spec` and run the warm-up op, then the timed loop with
/// the remaining set-up samples spread over it, then the checks.
pub fn measure(
    plan: &Plan<'_>,
    probe: &mut Probe,
    sink: Option<&Sink>,
) -> Result<Measured, String> {
    if plan.setups == 0 {
        return Err("--setups must be at least 1".into());
    }
    let probe_ref_s = plan.reference.probe_ref_s;
    let factor = |p: f64| ref_host_factor(p, probe_ref_s);
    let mut m = Measured::default();
    let mut w = m.setup_sample(plan, probe)?;
    m.outputs = w.op(&mut Layers::off())?;

    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let ops = m.ops_done(plan.traced);
        let (done, progress) = match plan.stop {
            Stop::Ops(n) => (ops >= n, ops as f64 / n as f64),
            Stop::Seconds(s) => (
                elapsed >= s + GRACE_S || (elapsed >= s && m.enough(plan.traced)),
                elapsed / s,
            ),
        };
        if done {
            break;
        }
        // Set-up sample `i` is due once `i / setups` of the loop is done.
        let taken = m.setup_wall_s.len();
        if taken < plan.setups && progress * plan.setups as f64 >= taken as f64 {
            drop(m.setup_sample(plan, probe)?);
        }
        let (wall, p, _) = m.timed_op(&mut *w, probe, &mut Layers::off());
        m.op_wall_s.push(wall);
        m.op_s.push(wall * factor(p));
        if plan.traced {
            let mut layers = Layers::on();
            let (wall, p, op_start) = m.timed_op(&mut *w, probe, &mut layers);
            w.after_traced_op(&mut layers);
            let f = factor(p);
            m.traced_op_s.push(wall * f);
            m.layer_rows.push(layers.finish(wall * f, f));
            if let Some(sink) = sink {
                sink.record(plan.spec.name, op_start, wall, &layers);
            }
        }
    }
    // The loop takes at most one sample between two ops, so a short one
    // leaves some untaken.
    while m.setup_wall_s.len() < plan.setups {
        drop(m.setup_sample(plan, probe)?);
    }
    m.setup_s = m
        .setup_wall_s
        .chunks(SETUP_BLOCK)
        .zip(m.setup_probe_s.chunks(SETUP_BLOCK))
        .filter_map(|(walls, probes)| fastest_ref_s(walls, probes, probe_ref_s))
        .collect();
    // Before the reference pass, which may hold a whole trace in memory.
    m.peak_rss_kb = mc_obs::peak_rss_kb();
    m.reference = Some(w.reference(&m.outputs));
    let expected = plan.reference.check(plan.spec.name, plan.seed, &m.outputs);
    if let Expected::Mismatch(why) = &expected {
        m.failed = m.attempted;
        m.first_error = Some(format!("pinned output mismatch: {why}"));
    }
    m.expected = Some(expected);
    Ok(m)
}

fn num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::Num)
}

/// Metrics as `{"name": {"value": v, "unit": u}, ...}`.
fn table(rows: Vec<(&str, &str, Option<f64>)>) -> Json {
    let entry = |v: Option<f64>, unit: &str| {
        mc_json::obj(vec![("value", num(v)), ("unit", Json::Str(unit.into()))])
    };
    Json::Obj(
        rows.into_iter()
            .map(|(name, unit, v)| (name.to_string(), entry(v, unit)))
            .collect(),
    )
}

fn spread(values: &[f64]) -> Json {
    let q = quartiles(values);
    mc_json::obj(vec![
        ("median", num(median(values))),
        ("iqr", num(q.map(|[q1, _, q3]| q3 - q1))),
        ("n", Json::Num(values.len() as f64)),
    ])
}

/// The full record of one measurement: metrics with units, the output
/// checks, and context (raw wall times, probe spread, outputs).
pub fn record(plan: &Plan<'_>, m: &Measured) -> Json {
    let expected = match &m.expected {
        Some(Expected::Match) => "match".to_string(),
        Some(Expected::NotPinned) | None => "not pinned".to_string(),
        Some(Expected::Mismatch(why)) => format!("mismatch: {why}"),
    };
    let reference = match &m.reference {
        Some(Ok(())) => "ok".to_string(),
        Some(Err(e)) => e.clone(),
        None => "not run".to_string(),
    };
    let noisy = relative_iqr(&m.probes).is_some_and(|s| s > NOISY_PROBE_IQR);
    let mut members = vec![
        ("workload", Json::Str(plan.spec.name.into())),
        ("seed", Json::Num(plan.seed as f64)),
        (
            "mode",
            Json::Str(if plan.traced { "trace" } else { "run" }.into()),
        ),
        ("correct", Json::Bool(m.correct())),
        ("metrics", table(m.end_to_end())),
    ];
    if plan.traced {
        members.push(("layers", table(m.layers())));
    }
    members.push((
        "checks",
        mc_json::obj(vec![
            ("attempted", Json::Num(m.attempted as f64)),
            ("failed", Json::Num(m.failed as f64)),
            (
                "first_error",
                m.first_error.clone().map_or(Json::Null, Json::Str),
            ),
            ("expected", Json::Str(expected)),
            ("reference", Json::Str(reference)),
        ]),
    ));
    members.push((
        "context",
        mc_json::obj(vec![
            ("setups", Json::Num(m.setup_wall_s.len() as f64)),
            ("wall_setup_s", spread(&m.setup_wall_s)),
            ("wall_op_s", spread(&m.op_wall_s)),
            ("probe_s", spread(&m.probes)),
            ("probe_ref_s", Json::Num(plan.reference.probe_ref_s)),
            ("noisy", Json::Bool(noisy)),
            (
                "outputs",
                Json::Obj(
                    m.outputs
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ]),
    ));
    mc_json::obj(members)
}

/// The one-line summary that ends the output: `correct`, `attempted`,
/// `failed` and the metrics `BENCHMARK.json` names — end-to-end for an
/// untraced run, the summarised per-layer ones for a traced one.
pub fn summary(traced: bool, m: &Measured) -> Json {
    let metrics = if traced {
        let mut rows = m.layers();
        rows.retain(|(name, _, _)| LAYERS.iter().any(|l| l.name == *name && l.summarised()));
        rows
    } else {
        let mut rows = m.end_to_end();
        rows.retain(|(name, _, _)| *name != FAILED_OPS_RATIO.name);
        rows
    };
    mc_json::obj(vec![
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", table(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinned(value: f64) -> Reference {
        Reference {
            probe_ref_s: 0.006,
            seed: 42,
            outputs: [("w".to_string(), vec![("x".to_string(), value)])].into(),
        }
    }

    #[test]
    fn pinned_outputs_compare_at_1e12_relative() {
        let got = vec![("x".to_string(), 2.0)];
        assert_eq!(pinned(2.0).check("w", 42, &got), Expected::Match);
        assert_eq!(
            pinned(2.0 * (1.0 + 1e-13)).check("w", 42, &got),
            Expected::Match
        );
        assert!(matches!(
            pinned(2.0 * (1.0 + 1e-11)).check("w", 42, &got),
            Expected::Mismatch(_)
        ));
        // Other seeds and workloads are not pinned.
        assert_eq!(pinned(3.0).check("w", 7, &got), Expected::NotPinned);
        assert_eq!(pinned(3.0).check("v", 42, &got), Expected::NotPinned);
        // A renamed output is a mismatch, not a pass.
        let renamed = vec![("y".to_string(), 2.0)];
        assert!(matches!(
            pinned(2.0).check("w", 42, &renamed),
            Expected::Mismatch(_)
        ));
    }

    #[test]
    fn a_mismatched_pinned_output_fails_every_op_and_the_run() {
        let mut reference = Reference::builtin().unwrap();
        let pinned = reference.outputs.get_mut("replay-allreduce").unwrap();
        let slowdown = pinned.iter_mut().find(|(k, _)| k == "slowdown").unwrap();
        slowdown.1 *= 1.0 + 1e-9;
        let work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
        let plan = Plan {
            spec: crate::workloads::spec("replay-allreduce").unwrap(),
            seed: reference.seed,
            stop: Stop::Ops(3),
            setups: 1,
            traced: false,
            work_dir: &work_dir,
            reference: &reference,
        };
        let m = measure(&plan, &mut Probe::new(), None).unwrap();
        assert!(matches!(m.expected, Some(Expected::Mismatch(_))));
        assert_eq!((m.attempted, m.failed), (3, 3));
        // `run` exits with `correct()`: 1 here.
        assert!(!m.correct());
        let line = summary(false, &m);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn every_set_up_sample_is_taken_even_when_the_loop_is_short() {
        let reference = Reference::builtin().unwrap();
        let work_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
        for (ops, setups) in [(3, 2), (2, 12)] {
            let plan = Plan {
                spec: crate::workloads::spec("replay-allreduce").unwrap(),
                seed: 7,
                stop: Stop::Ops(ops),
                setups,
                traced: false,
                work_dir: &work_dir,
                reference: &reference,
            };
            let m = measure(&plan, &mut Probe::new(), None).unwrap();
            assert!(m.correct());
            assert_eq!(m.setup_wall_s.len(), setups);
            // One probe before each set-up sample and each op.
            assert_eq!(m.probes.len(), setups + ops);
            assert_eq!(m.setup_s.len(), setups.div_ceil(SETUP_BLOCK));
        }
    }

    #[test]
    fn the_builtin_reference_parses() {
        let r = Reference::builtin().unwrap();
        assert!(r.probe_ref_s > 0.0);
        for spec in &crate::workloads::SPECS {
            assert!(
                r.outputs.contains_key(spec.name),
                "{} not pinned",
                spec.name
            );
        }
    }
}
