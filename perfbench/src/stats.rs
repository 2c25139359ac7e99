//! Order statistics and the drift-correction arithmetic.

/// The factor that converts a wall time to reference-host seconds:
/// `probe_ref_s / probe_s`, where `probe_s` is the probe run just before
/// and `probe_ref_s` the committed probe median.
pub fn ref_host_factor(probe_s: f64, probe_ref_s: f64) -> f64 {
    probe_ref_s / probe_s
}

/// A block of set-up samples in reference-host seconds: the fastest
/// sample scaled by `probe_ref_s` over the fastest probe of the block.
/// Both minima are the host at its quietest during the block, so their
/// ratio holds when neighbours slow the host for the whole block, where
/// a per-sample correction over- or under-shoots. `None` when empty.
pub fn fastest_ref_s(walls: &[f64], probes: &[f64], probe_ref_s: f64) -> Option<f64> {
    let min = |v: &[f64]| v.iter().copied().reduce(f64::min);
    Some(min(walls)? * probe_ref_s / min(probes)?)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// `exclusive` method), so spreads computed here and by external
/// tooling agree. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range over median, the spread every bound is compared
/// against. `None` for fewer than two values or a zero median.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The 90th percentile (nearest rank), reported only when at least ten
/// samples lie beyond it: fewer would make the tail a handful of
/// anecdotes. With `n` samples that needs `n - ceil(0.9 n) >= 10`, i.e.
/// at least 100 samples.
pub fn p90(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    let rank = (9 * n).div_ceil(10);
    (rank >= 1 && n - rank >= 10).then(|| v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(p90(&v), None, "99 samples leave only 9 beyond the p90");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p90(&v), Some(90.0));
        let v: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(p90(&v), Some(135.0));
        assert_eq!(p90(&[]), None);
        assert_eq!(p90(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn probe_correction_scales_by_host_speed() {
        // A host running the probe twice as slow as the reference ran
        // the op twice as slow too: its time halves.
        assert_eq!(0.2 * ref_host_factor(0.012, 0.006), 0.1);
        // A host at reference speed reports wall time unchanged.
        assert_eq!(0.15 * ref_host_factor(0.006, 0.006), 0.15);
        // A faster host scales the op up.
        assert!((0.1 * ref_host_factor(0.004, 0.006) - 0.15).abs() < 1e-15);
    }

    #[test]
    fn set_up_blocks_pair_the_fastest_sample_with_the_fastest_probe() {
        // The fastest probe ran at twice the reference time: the fastest
        // set-up halves, whichever samples the two minima came from.
        let walls = [3e-4, 1e-4, 2e-4];
        let probes = [0.016, 0.020, 0.012];
        let got = fastest_ref_s(&walls, &probes, 0.006).unwrap();
        assert!((got - 0.5e-4).abs() < 1e-18);
        assert_eq!(fastest_ref_s(&[1e-4], &[0.006], 0.006), Some(1e-4));
        assert_eq!(fastest_ref_s(&[], &[], 0.006), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(relative_iqr(&v), Some((8.25 - 2.75) / 5.5));
    }
}
