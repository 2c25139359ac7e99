//! `perf compare BASE.jsonl CHANGE.jsonl`: decide, metric by metric and
//! workload by workload, whether a change made things better, worse
//! beyond the bound `BENCHMARK.json` fixes, or left it unresolved.
//!
//! The records are `perf run --out FILE` lines from runs of the two
//! commits made alternately, so record `i` of one file pairs with record
//! `i` of the other. The rule is choosing-metrics §8: a gain needs the
//! change to win at least nine pairs in ten and its median to beat the
//! parent's by more than the parent's own interquartile range; a metric
//! whose parent spread is wider than its bound is unresolved unless every
//! change run beats every parent run. The same rule run the other way
//! marks a regression too small to fail the bound, so a bound sized for
//! a noisy host does not hide it. A change that fails more than the
//! parent is worse, and none of its metrics reads better.

use std::collections::BTreeMap;
use std::fs;

use mc_json::Json;

use crate::harness::{END_TO_END, FAILED_OPS_RATIO};
use crate::stats::{median, quartiles};
use crate::workloads::SPECS;

/// Pairs a comparison needs per workload.
pub const MIN_PAIRS: usize = 10;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 pairs by more than the parent's spread.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// bound, or the change fails more.
    Worse,
    /// The parent's spread is wider than the bound, so "no worse" cannot
    /// be told from noise.
    Unresolved,
    /// The parent wins ≥ 9/10 pairs by more than its own spread, but the
    /// change is not worse by more than the bound: a real regression that
    /// still passes.
    Regressed,
    /// Not worse by more than the bound.
    WithinBound,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed, within bound",
            Verdict::WithinBound => "within bound",
        }
    }
}

/// Judge paired samples (`base[i]` ran next to `change[i]`) against a
/// bound given as a share of the parent's median. Returns the verdict and
/// the change's win fraction (ties count for neither side). `None` with
/// fewer than two pairs or unequal lengths.
pub fn verdict(
    base: &[f64],
    change: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> Option<(Verdict, f64)> {
    if base.len() != change.len() {
        return None;
    }
    let [q1, base_med, q3] = quartiles(base)?;
    let change_med = median(change)?;
    // Positive when `c` is better than `b`.
    let gain = |b: f64, c: f64| if higher_is_better { c - b } else { b - c };
    let share = |pred: fn(f64) -> bool| {
        let n = base
            .iter()
            .zip(change)
            .filter(|(b, c)| pred(gain(**b, **c)));
        n.count() as f64 / base.len() as f64
    };
    let win_fraction = share(|g| g > 0.0);
    let better_by = gain(base_med, change_med);
    if win_fraction >= 0.9 && better_by > q3 - q1 {
        return Some((Verdict::Better, win_fraction));
    }
    let every_run_better = base
        .iter()
        .all(|b| change.iter().all(|c| gain(*b, *c) > 0.0));
    let scale = bound * base_med.abs();
    let v = if q3 - q1 > scale && !every_run_better {
        Verdict::Unresolved
    } else if -better_by > scale {
        Verdict::Worse
    } else if share(|g| g < 0.0) >= 0.9 && -better_by > q3 - q1 {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    };
    Some((v, win_fraction))
}

/// Failures summed over one side's records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Ops run.
    pub attempted: u64,
    /// Ops that errored or failed a check.
    pub failed: u64,
    /// Runs whose record is not `correct` (a failed op, or a check after
    /// the timed loop that disagreed).
    pub incorrect_runs: usize,
}

impl Failures {
    fn of(records: &[Json]) -> Failures {
        let mut f = Failures::default();
        for r in records {
            let count = |k| {
                r.get("checks")
                    .and_then(|c| c.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            f.attempted += count("attempted");
            f.failed += count("failed");
            f.incorrect_runs += usize::from(r.get("correct") != Some(&Json::Bool(true)));
        }
        f
    }

    /// Whether `self` fails more than `base`: a larger share of its ops,
    /// or more of its runs.
    pub fn worse_than(&self, base: &Failures) -> bool {
        let share = |f: &Failures| f.failed as f64 / f.attempted.max(1) as f64;
        self.incorrect_runs > base.incorrect_runs || share(self) > share(base)
    }

    fn describe(&self) -> String {
        format!(
            "{}/{} ops, {} bad runs",
            self.failed, self.attempted, self.incorrect_runs
        )
    }
}

/// One printed line of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Metric name.
    pub metric: &'static str,
    /// The parent's side, as printed.
    pub base: String,
    /// The change's side, as printed.
    pub change: String,
    /// The change's win fraction, as printed.
    pub wins: String,
    /// `None` when the records lack the metric.
    pub verdict: Option<Verdict>,
}

/// The bound of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(include_str!("../../BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rows = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    rows.iter()
        .map(|r| {
            let name = r.get("name").and_then(Json::as_str);
            let bound = r.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "BENCHMARK.json: end_to_end rows need name and bound".to_string())
        })
        .collect()
}

/// Untraced run records of each workload, in file order.
fn read_records(path: &str) -> Result<BTreeMap<String, Vec<Json>>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for line in text.lines() {
        let Ok(rec) = Json::parse(line) else {
            continue;
        };
        let workload = rec.get("workload").and_then(Json::as_str);
        let is_run = rec.get("mode").and_then(Json::as_str) == Some("run");
        if let (Some(w), true) = (workload, is_run) {
            out.entry(w.to_string()).or_default().push(rec.clone());
        }
    }
    Ok(out)
}

fn metric_values(records: &[Json], name: &str) -> Option<Vec<f64>> {
    records
        .iter()
        .map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.6} [{q1:.6}, {q3:.6}]"),
        None => "-".into(),
    }
}

/// Judge one workload's paired records: a row per end-to-end metric,
/// then the failure row.
pub fn judge(base: &[Json], change: &[Json], bounds: &BTreeMap<String, f64>) -> Vec<Row> {
    let pairs = base.len().min(change.len());
    let (base, change) = (&base[..pairs], &change[..pairs]);
    let (base_fail, change_fail) = (Failures::of(base), Failures::of(change));
    let fails_more = change_fail.worse_than(&base_fail);
    let mut rows: Vec<Row> = END_TO_END
        .iter()
        .map(|m| {
            let values = metric_values(base, m.name).zip(metric_values(change, m.name));
            let bound = bounds.get(m.name).copied().unwrap_or(0.0);
            let judged = values
                .as_ref()
                .and_then(|(bv, cv)| verdict(bv, cv, m.higher_is_better, bound))
                .map(|(v, w)| match v {
                    // A gain does not count when more ops fail.
                    Verdict::Better if fails_more => (Verdict::WithinBound, w),
                    v => (v, w),
                });
            let (base_col, change_col) = values
                .as_ref()
                .map_or(("-".into(), "-".into()), |(bv, cv)| {
                    (summary(bv), summary(cv))
                });
            Row {
                metric: m.name,
                base: base_col,
                change: change_col,
                wins: judged.map_or("-".into(), |(_, w)| format!("{w:.2}")),
                verdict: judged.map(|(v, _)| v),
            }
        })
        .collect();
    rows.push(Row {
        metric: FAILED_OPS_RATIO.name,
        base: base_fail.describe(),
        change: change_fail.describe(),
        wins: "-".into(),
        verdict: Some(if fails_more {
            Verdict::Worse
        } else {
            Verdict::WithinBound
        }),
    });
    rows
}

/// Run `perf compare`. Returns whether no metric came out worse.
pub fn run(base_path: &str, change_path: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let base = read_records(base_path)?;
    let change = read_records(change_path)?;
    let mut clean = true;
    let mut compared = 0;
    println!(
        "{:<20} {:<17} {:>34} {:>34} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for spec in &SPECS {
        let (Some(b), Some(c)) = (base.get(spec.name), change.get(spec.name)) else {
            continue;
        };
        let pairs = b.len().min(c.len());
        if pairs < MIN_PAIRS {
            return Err(format!(
                "{}: {pairs} record pairs; compare needs at least {MIN_PAIRS}",
                spec.name
            ));
        }
        compared += 1;
        for row in judge(b, c, &bounds) {
            clean &= row.verdict != Some(Verdict::Worse);
            let label = row.verdict.map_or("no values", Verdict::label);
            println!(
                "{:<20} {:<17} {:>34} {:>34} {:>6}  {label}",
                spec.name, row.metric, row.base, row.change, row.wins
            );
        }
    }
    if compared == 0 {
        return Err("no workload has run records in both files".into());
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + spread * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn a_consistent_win_beyond_the_spread_is_better() {
        let base = around(1.0, 0.01);
        let change: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        assert_eq!(
            verdict(&base, &change, false, 0.1),
            Some((Verdict::Better, 1.0))
        );
        // The same numbers as a higher-is-better metric are a regression.
        assert_eq!(
            verdict(&base, &change, true, 0.1).map(|v| v.0),
            Some(Verdict::Worse)
        );
    }

    #[test]
    fn a_small_change_is_within_bound() {
        let base = around(1.0, 0.01);
        let change: Vec<f64> = base.iter().rev().map(|b| b * 1.005).collect();
        assert_eq!(
            verdict(&base, &change, false, 0.1).map(|v| v.0),
            Some(Verdict::WithinBound)
        );
    }

    #[test]
    fn a_consistent_loss_inside_the_bound_is_regressed() {
        // Loses 9 pairs in 10 by more than the parent's spread, but only
        // by 2 % against a bound of 10 %: reported, and still passing.
        let base = around(1.0, 0.01);
        let change: Vec<f64> = base.iter().rev().map(|b| b * 1.02).collect();
        assert_eq!(
            verdict(&base, &change, false, 0.1),
            Some((Verdict::Regressed, 0.1))
        );
        // The same loss on a higher-is-better metric.
        let rate: Vec<f64> = change.iter().map(|c| 1.0 / c).collect();
        let base_rate: Vec<f64> = base.iter().map(|b| 1.0 / b).collect();
        assert_eq!(
            verdict(&base_rate, &rate, true, 0.1).map(|v| v.0),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn a_regression_beyond_the_bound_is_worse() {
        let base = around(1.0, 0.01);
        let change: Vec<f64> = base.iter().map(|b| b * 1.2).collect();
        assert_eq!(
            verdict(&base, &change, false, 0.1),
            Some((Verdict::Worse, 0.0))
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = around(1.0, 0.5);
        let change = around(1.05, 0.5);
        assert_eq!(
            verdict(&base, &change, false, 0.1).map(|v| v.0),
            Some(Verdict::Unresolved)
        );
        // ...unless every change run beats every parent run (here by
        // less than the parent's own spread, so not a gain either).
        let change = around(0.45, 0.01);
        assert_eq!(
            verdict(&base, &change, false, 0.1).map(|v| v.0),
            Some(Verdict::WithinBound)
        );
    }

    #[test]
    fn wins_below_nine_tenths_are_not_a_gain() {
        let base = around(1.0, 0.01);
        let mut change: Vec<f64> = base.iter().map(|b| b * 0.8).collect();
        change[0] = 2.0;
        change[1] = 2.0;
        assert_eq!(
            verdict(&base, &change, false, 0.1),
            Some((Verdict::WithinBound, 0.8))
        );
    }

    #[test]
    fn unpaired_samples_are_refused() {
        assert_eq!(verdict(&[1.0, 2.0], &[1.0], false, 0.1), None);
        assert_eq!(verdict(&[1.0], &[1.0], false, 0.1), None);
    }

    /// A run record with only `op_s_p50` and its checks.
    fn record(op_s: f64, failed: u64) -> Json {
        Json::parse(&format!(
            "{{\"workload\":\"w\",\"mode\":\"run\",\"correct\":{},\
             \"metrics\":{{\"op_s_p50\":{{\"value\":{op_s},\"unit\":\"s\"}}}},\
             \"checks\":{{\"attempted\":100,\"failed\":{failed}}}}}",
            failed == 0
        ))
        .unwrap()
    }

    fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
        rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn a_change_that_fails_more_ops_is_worse_and_never_better() {
        let bounds = bounds().unwrap();
        let base: Vec<Json> = around(1.0, 0.01).iter().map(|&v| record(v, 0)).collect();
        let faster: Vec<Json> = around(0.8, 0.01).iter().map(|&v| record(v, 0)).collect();
        let rows = judge(&base, &faster, &bounds);
        assert_eq!(row(&rows, "op_s_p50").verdict, Some(Verdict::Better));
        assert_eq!(
            row(&rows, "failed_ops_ratio").verdict,
            Some(Verdict::WithinBound)
        );

        // One failed op in three of ten runs: the median run still has
        // none, but the change is worse and its speed is no gain.
        let mut failing = faster.clone();
        for i in [2, 5, 8] {
            failing[i] = record(0.8, 1);
        }
        let rows = judge(&base, &failing, &bounds);
        let failures = row(&rows, "failed_ops_ratio");
        assert_eq!(failures.verdict, Some(Verdict::Worse));
        assert_eq!(failures.change, "3/1000 ops, 3 bad runs");
        assert_eq!(row(&rows, "op_s_p50").verdict, Some(Verdict::WithinBound));

        // The same failures on both sides are not a regression.
        let rows = judge(&failing, &failing, &bounds);
        assert_eq!(
            row(&rows, "failed_ops_ratio").verdict,
            Some(Verdict::WithinBound)
        );
    }

    #[test]
    fn benchmark_json_bounds_every_end_to_end_metric() {
        let b = bounds().unwrap();
        for m in &END_TO_END {
            let bound = b.get(m.name).copied();
            assert!(
                bound.is_some_and(|x| x > 0.0 && x <= 0.25),
                "{}: {bound:?}",
                m.name
            );
        }
        assert_eq!(b.len(), END_TO_END.len());
    }
}
