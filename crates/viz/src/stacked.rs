//! Stacked-bandwidth chart — the paper's Fig. 2.
//!
//! The parallel-phase bandwidths are stacked (computation area below,
//! communication area on top) so the share of the bus capacity between the
//! two streams is visible; the compute-alone curve is drawn on top as a
//! line, and the model's calibration points (`(Nmax_par, Tmax_par)`,
//! `(Nmax_seq, Tmax_seq)`, `(Nmax_seq, Tmax2_par)`, `(1, Bcomp_seq)`) are
//! marked.

use crate::chart::{ALONE_COLOR, COMM_COLOR, COMP_COLOR};
use crate::svg::{Scale, Svg};

/// One labelled calibration point drawn over the stack.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkedPoint {
    /// Core count (x).
    pub n: f64,
    /// Bandwidth (y).
    pub value: f64,
    /// Label written next to the marker.
    pub label: String,
}

/// Input data of the stacked chart: one entry per core count.
#[derive(Debug, Clone, PartialEq)]
pub struct StackedData {
    /// Chart title.
    pub title: String,
    /// Core counts (x values), ascending.
    pub n_cores: Vec<f64>,
    /// Parallel-phase computation bandwidth per core count.
    pub comp_par: Vec<f64>,
    /// Parallel-phase communication bandwidth per core count.
    pub comm_par: Vec<f64>,
    /// Compute-alone bandwidth per core count.
    pub comp_alone: Vec<f64>,
    /// Calibration points to mark.
    pub marks: Vec<MarkedPoint>,
}

impl StackedData {
    /// Render at the given pixel size. Panics if the series lengths
    /// disagree.
    pub fn render(&self, width: f64, height: f64) -> Svg {
        assert_eq!(self.n_cores.len(), self.comp_par.len(), "series mismatch");
        assert_eq!(self.n_cores.len(), self.comm_par.len(), "series mismatch");
        assert_eq!(self.n_cores.len(), self.comp_alone.len(), "series mismatch");
        let mut svg = Svg::new(width, height);
        let (ml, mr, mt, mb) = (52.0, 16.0, 30.0, 40.0);
        let (x0, x1, y0, y1) = (ml, width - mr, height - mb, mt);

        let top = self
            .comp_par
            .iter()
            .zip(&self.comm_par)
            .map(|(a, b)| a + b)
            .fold(1.0f64, f64::max)
            .max(self.comp_alone.iter().copied().fold(0.0, f64::max));
        let xmax = self.n_cores.last().copied().unwrap_or(1.0);
        let xs = Scale::new(0.0, xmax, x0, x1);
        let ys = Scale::new(0.0, top * 1.1, y0, y1);

        // Computation area (0 → comp_par).
        let mut comp_poly: Vec<(f64, f64)> = self
            .n_cores
            .iter()
            .zip(&self.comp_par)
            .map(|(&n, &v)| (xs.map(n), ys.map(v)))
            .collect();
        comp_poly.push((xs.map(xmax), ys.map(0.0)));
        comp_poly.push((xs.map(self.n_cores[0]), ys.map(0.0)));
        svg.polygon(&comp_poly, COMP_COLOR, 0.55);

        // Communication area (comp_par → comp_par + comm_par).
        let mut comm_poly: Vec<(f64, f64)> = self
            .n_cores
            .iter()
            .zip(self.comp_par.iter().zip(&self.comm_par))
            .map(|(&n, (&c, &m))| (xs.map(n), ys.map(c + m)))
            .collect();
        let lower: Vec<(f64, f64)> = self
            .n_cores
            .iter()
            .zip(&self.comp_par)
            .rev()
            .map(|(&n, &v)| (xs.map(n), ys.map(v)))
            .collect();
        comm_poly.extend(lower);
        svg.polygon(&comm_poly, COMM_COLOR, 0.55);

        // Compute-alone line.
        let alone: Vec<(f64, f64)> = self
            .n_cores
            .iter()
            .zip(&self.comp_alone)
            .map(|(&n, &v)| (xs.map(n), ys.map(v)))
            .collect();
        svg.polyline(&alone, ALONE_COLOR, 2.0, false);

        // Axes.
        svg.rect(x0, y1, x1 - x0, y0 - y1, "#333", "none", 0.8);
        for t in xs.ticks(8) {
            let px = xs.map(t);
            svg.line(px, y0, px, y0 + 4.0, "#333", 0.8);
            svg.text(px, y0 + 15.0, 9.0, "middle", &format!("{t:.0}"));
        }
        for t in ys.ticks(6) {
            let py = ys.map(t);
            svg.line(x0 - 4.0, py, x0, py, "#333", 0.8);
            svg.text(x0 - 6.0, py + 3.0, 9.0, "end", &format!("{t:.0}"));
        }
        svg.text(
            (x0 + x1) / 2.0,
            height - 8.0,
            10.5,
            "middle",
            "Number of computing cores",
        );
        svg.vtext(
            14.0,
            (y0 + y1) / 2.0,
            10.5,
            "Stacked memory bandwidth (GB/s)",
        );
        svg.text((x0 + x1) / 2.0, 16.0, 12.0, "middle", &self.title);

        // Calibration marks.
        for m in &self.marks {
            let (px, py) = (xs.map(m.n), ys.map(m.value));
            svg.circle(px, py, 4.0, "#d62728");
            svg.text(px + 6.0, py - 6.0, 9.5, "start", &m.label);
        }
        svg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> StackedData {
        StackedData {
            title: "henri-subnuma, local placement".into(),
            n_cores: (1..=17).map(|n| n as f64).collect(),
            comp_par: (1..=17).map(|n| (n as f64 * 5.6).min(40.0)).collect(),
            comm_par: (1..=17)
                .map(|n| (42.0 - n as f64 * 5.6).clamp(2.8, 11.3))
                .collect(),
            comp_alone: (1..=17).map(|n| (n as f64 * 5.6).min(42.0)).collect(),
            marks: vec![MarkedPoint {
                n: 1.0,
                value: 5.6,
                label: "(1, Bcomp_seq)".into(),
            }],
        }
    }

    #[test]
    fn renders_two_areas_a_line_and_marks() {
        let out = data().render(640.0, 400.0).render();
        assert_eq!(out.matches("<polygon").count(), 2);
        assert!(out.contains("<polyline"));
        assert!(out.contains("Bcomp_seq"));
        assert!(out.contains("Stacked memory bandwidth"));
    }

    #[test]
    #[should_panic(expected = "series mismatch")]
    fn mismatched_series_panic() {
        let mut d = data();
        d.comm_par.pop();
        d.render(100.0, 100.0);
    }
}
