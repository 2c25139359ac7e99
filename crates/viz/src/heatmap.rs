//! Heatmaps — used for the per-placement prediction-error matrix (an
//! extended-report-style view the paper's Table II aggregates away).

use crate::svg::Svg;

/// A labelled matrix of values rendered as coloured cells.
#[derive(Debug, Clone, PartialEq)]
pub struct Heatmap {
    /// Figure title.
    pub title: String,
    /// Column labels (x axis).
    pub col_labels: Vec<String>,
    /// Row labels (y axis).
    pub row_labels: Vec<String>,
    /// Row-major values; `rows × cols` entries.
    pub values: Vec<f64>,
    /// Unit suffix appended to the cell annotations (e.g. "%").
    pub unit: String,
}

impl Heatmap {
    fn rows(&self) -> usize {
        self.row_labels.len()
    }

    fn cols(&self) -> usize {
        self.col_labels.len()
    }

    /// Linear white→red colour ramp over the value range.
    fn color(&self, v: f64, max: f64) -> String {
        let t = if max > 0.0 {
            (v / max).clamp(0.0, 1.0)
        } else {
            0.0
        };
        // white (255,255,255) → strong red (178, 24, 43)
        let r = 255.0 + t * (178.0 - 255.0);
        let g = 255.0 + t * (24.0 - 255.0);
        let b = 255.0 + t * (43.0 - 255.0);
        format!("rgb({:.0},{:.0},{:.0})", r, g, b)
    }

    /// Render at a given cell size.
    pub fn render(&self, cell: f64) -> Svg {
        assert_eq!(
            self.values.len(),
            self.rows() * self.cols(),
            "value count must be rows x cols"
        );
        let (ml, mt) = (90.0, 60.0);
        let width = ml + self.cols() as f64 * cell + 20.0;
        let height = mt + self.rows() as f64 * cell + 20.0;
        let mut svg = Svg::new(width, height);
        svg.text(width / 2.0, 20.0, 13.0, "middle", &self.title);

        let max = self.values.iter().cloned().fold(0.0f64, f64::max);
        for (i, v) in self.values.iter().enumerate() {
            let row = i / self.cols();
            let col = i % self.cols();
            let x = ml + col as f64 * cell;
            let y = mt + row as f64 * cell;
            svg.rect(x, y, cell, cell, "#999", &self.color(*v, max), 0.6);
            // Annotate: dark text on light cells, light on dark.
            svg.text(
                x + cell / 2.0,
                y + cell / 2.0 + 4.0,
                11.0,
                "middle",
                &format!("{v:.1}{}", self.unit),
            );
        }
        for (c, label) in self.col_labels.iter().enumerate() {
            svg.text(
                ml + c as f64 * cell + cell / 2.0,
                mt - 8.0,
                10.5,
                "middle",
                label,
            );
        }
        for (r, label) in self.row_labels.iter().enumerate() {
            svg.text(
                ml - 6.0,
                mt + r as f64 * cell + cell / 2.0 + 4.0,
                10.5,
                "end",
                label,
            );
        }
        svg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> Heatmap {
        Heatmap {
            title: "comm error per placement".into(),
            col_labels: vec!["comp numa0".into(), "comp numa1".into()],
            row_labels: vec!["comm numa0".into(), "comm numa1".into()],
            values: vec![1.0, 2.0, 3.0, 12.0],
            unit: "%".into(),
        }
    }

    #[test]
    fn renders_cells_and_labels() {
        let out = map().render(70.0).render();
        assert_eq!(out.matches("<rect").count(), 1 + 4); // background + 4 cells
        assert!(out.contains("comp numa1"));
        assert!(out.contains("12.0%"));
    }

    #[test]
    fn color_scales_with_value() {
        let m = map();
        assert_eq!(m.color(0.0, 12.0), "rgb(255,255,255)");
        assert_eq!(m.color(12.0, 12.0), "rgb(178,24,43)");
    }

    #[test]
    fn zero_max_does_not_divide_by_zero() {
        let m = Heatmap {
            values: vec![0.0, 0.0, 0.0, 0.0],
            ..map()
        };
        assert_eq!(m.color(0.0, 0.0), "rgb(255,255,255)");
        let _ = m.render(50.0);
    }

    #[test]
    #[should_panic(expected = "value count")]
    fn wrong_shape_panics() {
        let mut m = map();
        m.values.pop();
        m.render(50.0);
    }
}
