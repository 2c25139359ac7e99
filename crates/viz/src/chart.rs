//! Dual-axis line/marker charts — the building block of the paper's
//! Figs. 3–8 subplots: network bandwidth on the left Y-axis (blue), memory
//! bandwidth for computations on the right Y-axis (orange), measurements as
//! markers (● alone, ▼ parallel) and model predictions as lines.

use crate::svg::{Scale, Svg};

/// Which Y-axis a series reads on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YAxis {
    /// Left axis (network bandwidth in the paper).
    Left,
    /// Right axis (compute memory bandwidth in the paper).
    Right,
}

/// How a series is drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesStyle {
    /// Solid line (model predictions).
    Line,
    /// Dashed line.
    DashedLine,
    /// Filled circles (measurements of the alone phases).
    Circles,
    /// Downward triangles (measurements of the parallel phase).
    Triangles,
}

/// One data series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Display name (legend).
    pub label: String,
    /// `(x, y)` points in data space.
    pub points: Vec<(f64, f64)>,
    /// CSS colour.
    pub color: String,
    /// Drawing style.
    pub style: SeriesStyle,
    /// Axis the `y` values read on.
    pub axis: YAxis,
}

/// A dual-axis chart description.
#[derive(Debug, Clone, PartialEq)]
pub struct DualAxisChart {
    /// Title above the plot (the paper writes the placement there).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Left Y-axis label.
    pub left_label: String,
    /// Right Y-axis label.
    pub right_label: String,
    /// Data series.
    pub series: Vec<Series>,
    /// Highlight frame (the paper marks calibration subplots with a
    /// thicker frame and bold title).
    pub highlighted: bool,
    /// Draw a legend box listing the series (off in dense subplot grids,
    /// on for standalone figures).
    pub legend: bool,
}

impl DualAxisChart {
    /// Upper bound of an axis from the data (with headroom), at least 1.
    fn axis_max(&self, axis: YAxis) -> f64 {
        let max = self
            .series
            .iter()
            .filter(|s| s.axis == axis)
            .flat_map(|s| s.points.iter().map(|p| p.1))
            .fold(0.0f64, f64::max);
        (max * 1.12).max(1.0)
    }

    fn x_max(&self) -> f64 {
        self.series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .fold(1.0f64, f64::max)
    }

    /// Render at the given pixel size.
    pub fn render(&self, width: f64, height: f64) -> Svg {
        let mut svg = Svg::new(width, height);
        let (ml, mr, mt, mb) = (44.0, 44.0, 24.0, 34.0);
        let x0 = ml;
        let x1 = width - mr;
        let y0 = height - mb;
        let y1 = mt;

        let xs = Scale::new(0.0, self.x_max(), x0, x1);
        let ls = Scale::new(0.0, self.axis_max(YAxis::Left), y0, y1);
        let rs = Scale::new(0.0, self.axis_max(YAxis::Right), y0, y1);

        // Frame.
        let frame_w = if self.highlighted { 2.5 } else { 0.8 };
        svg.rect(x0, y1, x1 - x0, y0 - y1, "#333", "none", frame_w);

        // Ticks and labels.
        for t in xs.ticks(6) {
            let px = xs.map(t);
            svg.line(px, y0, px, y0 + 4.0, "#333", 0.8);
            svg.text(px, y0 + 15.0, 9.0, "middle", &format!("{t:.0}"));
        }
        for t in ls.ticks(5) {
            let py = ls.map(t);
            svg.line(x0 - 4.0, py, x0, py, "#1f77b4", 0.8);
            svg.text(x0 - 6.0, py + 3.0, 9.0, "end", &format!("{t:.0}"));
        }
        for t in rs.ticks(5) {
            let py = rs.map(t);
            svg.line(x1, py, x1 + 4.0, py, "#ff7f0e", 0.8);
            svg.text(x1 + 6.0, py + 3.0, 9.0, "start", &format!("{t:.0}"));
        }
        svg.text((x0 + x1) / 2.0, height - 6.0, 10.0, "middle", &self.x_label);
        svg.vtext(12.0, (y0 + y1) / 2.0, 10.0, &self.left_label);
        svg.vtext(width - 8.0, (y0 + y1) / 2.0, 10.0, &self.right_label);
        let title_size = if self.highlighted { 11.5 } else { 10.5 };
        svg.text((x0 + x1) / 2.0, 14.0, title_size, "middle", &self.title);

        // Legend.
        if self.legend && !self.series.is_empty() {
            let entry_h = 13.0;
            let box_w = 6.0
                + 22.0
                + self.series.iter().map(|s| s.label.len()).max().unwrap_or(0) as f64 * 5.6;
            let box_h = 6.0 + self.series.len() as f64 * entry_h;
            let (bx, by) = (x0 + 8.0, y1 + 8.0);
            svg.rect(bx, by, box_w, box_h, "#aaa", "white", 0.7);
            for (i, s) in self.series.iter().enumerate() {
                let ey = by + 6.0 + i as f64 * entry_h + 5.0;
                match s.style {
                    SeriesStyle::Line => svg.line(bx + 4.0, ey, bx + 20.0, ey, &s.color, 1.8),
                    SeriesStyle::DashedLine => {
                        svg.polyline(&[(bx + 4.0, ey), (bx + 20.0, ey)], &s.color, 1.4, true)
                    }
                    SeriesStyle::Circles => svg.circle(bx + 12.0, ey, 2.4, &s.color),
                    SeriesStyle::Triangles => svg.triangle_down(bx + 12.0, ey, 3.0, &s.color),
                }
                svg.text(bx + 24.0, ey + 3.2, 9.0, "start", &s.label);
            }
        }

        // Series, clipped to the plot frame (markers near the frame edge
        // would otherwise spill into the margins of neighbouring subplots).
        svg.push_clip_rect(x0 - 4.0, y1 - 4.0, (x1 - x0) + 8.0, (y0 - y1) + 8.0);
        for s in &self.series {
            let ys = match s.axis {
                YAxis::Left => &ls,
                YAxis::Right => &rs,
            };
            let px: Vec<(f64, f64)> = s
                .points
                .iter()
                .map(|&(x, y)| (xs.map(x), ys.map(y)))
                .collect();
            match s.style {
                SeriesStyle::Line => svg.polyline(&px, &s.color, 1.8, false),
                SeriesStyle::DashedLine => svg.polyline(&px, &s.color, 1.4, true),
                SeriesStyle::Circles => {
                    for &(x, y) in &px {
                        svg.circle(x, y, 2.4, &s.color);
                    }
                }
                SeriesStyle::Triangles => {
                    for &(x, y) in &px {
                        svg.triangle_down(x, y, 3.0, &s.color);
                    }
                }
            }
        }
        svg.pop_clip();
        svg
    }
}

/// The paper's colour for communications (blue).
pub const COMM_COLOR: &str = "#1f77b4";
/// The paper's colour for computations (orange).
pub const COMP_COLOR: &str = "#ff7f0e";
/// Colour for the compute-alone reference curve (green, Fig. 2).
pub const ALONE_COLOR: &str = "#2ca02c";

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> DualAxisChart {
        DualAxisChart {
            title: "comp on numa0, comm on numa1".into(),
            x_label: "Number of computing cores".into(),
            left_label: "Network bandwidth (GB/s)".into(),
            right_label: "Memory bandwidth (GB/s)".into(),
            series: vec![
                Series {
                    label: "comm model".into(),
                    points: (1..=17).map(|n| (n as f64, 11.0)).collect(),
                    color: COMM_COLOR.into(),
                    style: SeriesStyle::Line,
                    axis: YAxis::Left,
                },
                Series {
                    label: "comp measured".into(),
                    points: (1..=17).map(|n| (n as f64, 5.6 * n as f64)).collect(),
                    color: COMP_COLOR.into(),
                    style: SeriesStyle::Triangles,
                    axis: YAxis::Right,
                },
            ],
            highlighted: true,
            legend: false,
        }
    }

    #[test]
    fn renders_axes_series_and_title() {
        let svg = chart().render(320.0, 240.0).render();
        assert!(svg.contains("<polyline"));
        assert!(svg.contains("<polygon")); // triangles
        assert!(svg.contains("comp on numa0"));
        assert!(svg.contains("Network bandwidth"));
    }

    #[test]
    fn axis_max_has_headroom() {
        let c = chart();
        assert!(c.axis_max(YAxis::Left) > 11.0);
        assert!(c.axis_max(YAxis::Right) > 5.6 * 17.0);
    }

    #[test]
    fn empty_axis_defaults_to_one() {
        let mut c = chart();
        c.series.clear();
        assert_eq!(c.axis_max(YAxis::Left), 1.0);
        // Must still render without panicking.
        let _ = c.render(100.0, 100.0);
    }

    #[test]
    fn legend_lists_series_labels() {
        let with_legend = DualAxisChart {
            legend: true,
            ..chart()
        }
        .render(400.0, 300.0)
        .render();
        assert!(with_legend.contains("comm model"));
        assert!(with_legend.contains("comp measured"));
        let without = chart().render(400.0, 300.0).render();
        assert!(!without.contains("comm model"));
    }

    #[test]
    fn highlight_thickens_frame() {
        let thin = DualAxisChart {
            highlighted: false,
            ..chart()
        }
        .render(320.0, 240.0)
        .render();
        let thick = chart().render(320.0, 240.0).render();
        assert!(thick.contains("stroke-width=\"2.5\""));
        assert!(!thin.contains("stroke-width=\"2.5\""));
    }
}
