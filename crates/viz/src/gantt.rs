//! Gantt charts — execution timelines of overlapped compute phases and
//! message transfers from the MPI simulator.

use crate::svg::{Scale, Svg};

/// One bar on a Gantt row.
#[derive(Debug, Clone, PartialEq)]
pub struct GanttBar {
    /// Start time, seconds.
    pub t0: f64,
    /// End time, seconds.
    pub t1: f64,
    /// CSS colour of the bar.
    pub color: String,
    /// Annotation drawn inside the bar (elided when it does not fit).
    pub label: String,
}

impl GanttBar {
    /// The bar's extent as an ordered `(lo, hi)` pair. Hand-edited or
    /// adversarial input can carry `t1 < t0`; normalizing here keeps
    /// [`Gantt::span`] and [`Gantt::render`] drawing the bar where it
    /// actually lies instead of a 1-px sliver at the wrong position.
    fn ordered(&self) -> (f64, f64) {
        if self.t1 < self.t0 {
            (self.t1, self.t0)
        } else {
            (self.t0, self.t1)
        }
    }
}

/// One row (entity) of a Gantt chart.
#[derive(Debug, Clone, PartialEq)]
pub struct GanttRow {
    /// Row label (e.g. "rank 0 compute").
    pub label: String,
    /// Bars, any order.
    pub bars: Vec<GanttBar>,
}

/// A Gantt chart.
#[derive(Debug, Clone, PartialEq)]
pub struct Gantt {
    /// Figure title.
    pub title: String,
    /// Rows, drawn top to bottom.
    pub rows: Vec<GanttRow>,
}

impl Gantt {
    /// Time span covered by all bars, `(min, max)`.
    pub fn span(&self) -> (f64, f64) {
        let mut t_min = f64::INFINITY;
        let mut t_max = f64::NEG_INFINITY;
        for row in &self.rows {
            for bar in &row.bars {
                let (lo, hi) = bar.ordered();
                t_min = t_min.min(lo);
                t_max = t_max.max(hi);
            }
        }
        if t_min > t_max {
            (0.0, 1.0)
        } else {
            (t_min, t_max)
        }
    }

    /// Render at the given pixel width; row height is fixed.
    pub fn render(&self, width: f64) -> Svg {
        let row_h = 30.0;
        let (ml, mt, mb) = (130.0, 40.0, 36.0);
        let height = mt + self.rows.len() as f64 * row_h + mb;
        let mut svg = Svg::new(width, height);
        svg.text(width / 2.0, 22.0, 13.0, "middle", &self.title);

        let (t0, t1) = self.span();
        let span = (t1 - t0).max(1e-12);
        let xs = Scale::new(t0, t0 + span, ml, width - 20.0);

        for (r, row) in self.rows.iter().enumerate() {
            let y = mt + r as f64 * row_h;
            svg.text(ml - 8.0, y + row_h / 2.0 + 4.0, 10.5, "end", &row.label);
            svg.line(ml, y + row_h, width - 20.0, y + row_h, "#ddd", 0.6);
            for bar in &row.bars {
                let (lo, hi) = bar.ordered();
                let x0 = xs.map(lo);
                let x1 = xs.map(hi);
                svg.rect(
                    x0,
                    y + 5.0,
                    (x1 - x0).max(1.0),
                    row_h - 10.0,
                    "#555",
                    &bar.color,
                    0.5,
                );
                // Fit check counts characters, not bytes: a multi-byte
                // label ("64 MiB →") is no wider than its char count.
                if x1 - x0 > 8.0 * bar.label.chars().count() as f64 * 0.6 {
                    svg.text(
                        (x0 + x1) / 2.0,
                        y + row_h / 2.0 + 3.5,
                        9.5,
                        "middle",
                        &bar.label,
                    );
                }
            }
        }
        // Time axis.
        let y_axis = mt + self.rows.len() as f64 * row_h + 4.0;
        for tick in xs.ticks(8) {
            let px = xs.map(tick);
            svg.line(px, y_axis, px, y_axis + 4.0, "#333", 0.8);
            svg.text(px, y_axis + 16.0, 9.0, "middle", &format!("{:.2}", tick));
        }
        svg.text(
            (ml + width - 20.0) / 2.0,
            height - 6.0,
            10.5,
            "middle",
            "time (s)",
        );
        svg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> Gantt {
        Gantt {
            title: "overlap".into(),
            rows: vec![
                GanttRow {
                    label: "rank 0 compute".into(),
                    bars: vec![GanttBar {
                        t0: 0.0,
                        t1: 0.5,
                        color: "#ff7f0e".into(),
                        label: "iter 0".into(),
                    }],
                },
                GanttRow {
                    label: "net 1→0".into(),
                    bars: vec![GanttBar {
                        t0: 0.1,
                        t1: 0.3,
                        color: "#1f77b4".into(),
                        label: "64 MiB".into(),
                    }],
                },
            ],
        }
    }

    #[test]
    fn span_covers_all_bars() {
        assert_eq!(chart().span(), (0.0, 0.5));
    }

    #[test]
    fn empty_chart_has_unit_span_and_renders() {
        let g = Gantt {
            title: "empty".into(),
            rows: vec![],
        };
        assert_eq!(g.span(), (0.0, 1.0));
        let _ = g.render(400.0);
    }

    #[test]
    fn multibyte_labels_elide_by_char_count_not_bytes() {
        // "64 MiB →" is 8 chars but 10 bytes: at a width where 8 chars
        // fit, byte-based fitting would wrongly elide it.
        let label = "64 MiB →";
        assert_eq!(label.chars().count(), 8);
        assert_eq!(label.len(), 10);
        let bar_for = |label: &str| Gantt {
            title: "labels".into(),
            rows: vec![GanttRow {
                label: "row".into(),
                bars: vec![GanttBar {
                    t0: 0.0,
                    t1: 1.0,
                    color: "#1f77b4".into(),
                    label: label.into(),
                }],
            }],
        };
        // Pick a width where an 8-char label fits but a 10-char one
        // would not: bar pixels ≈ width - 150, threshold 4.8/char.
        let width = 150.0 + 8.0 * 8.0 * 0.6 + 4.0;
        let multi = bar_for(label).render(width).render();
        assert!(multi.contains("64 MiB"), "{multi}");
        // A genuinely-10-char ASCII label still elides at that width.
        let long = bar_for("64 MiB -)>").render(width).render();
        assert!(!long.contains("64 MiB"), "{long}");
    }

    #[test]
    fn reversed_bars_normalize_to_the_same_geometry() {
        let bar = |t0: f64, t1: f64| Gantt {
            title: "rev".into(),
            rows: vec![GanttRow {
                label: "row".into(),
                bars: vec![GanttBar {
                    t0,
                    t1,
                    color: "#1f77b4".into(),
                    label: String::new(),
                }],
            }],
        };
        let fwd = bar(0.2, 0.8);
        let rev = bar(0.8, 0.2);
        assert_eq!(fwd.span(), (0.2, 0.8));
        assert_eq!(rev.span(), (0.2, 0.8));
        // Identical SVG output: the reversed bar is drawn at the same
        // position and full width, not as a 1-px sliver.
        assert_eq!(fwd.render(400.0).render(), rev.render(400.0).render());
    }

    #[test]
    fn renders_rows_bars_and_axis() {
        let out = chart().render(600.0).render();
        assert!(out.contains("rank 0 compute"));
        assert!(out.contains("net 1"));
        assert!(out.contains("time (s)"));
        // Background + 2 bars.
        assert!(out.matches("<rect").count() >= 3);
    }
}
