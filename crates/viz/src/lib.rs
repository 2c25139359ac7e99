//! # mc-viz — figure rendering
//!
//! Hand-rolled SVG and ASCII plotting used by the reproduction harness to
//! regenerate the paper's figures: dual-axis subplots (Figs. 3-8), the
//! stacked-bandwidth chart (Fig. 2), subplot grids, and a terminal
//! rendering of the machine diagram (Fig. 1), plus self-contained HTML
//! run reports ([`HtmlReport`]). The only crate the code uses is the
//! workspace's own `mc-obs`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ascii;
pub mod chart;
pub mod gantt;
pub mod grid;
pub mod heatmap;
pub mod report;
pub mod stacked;
pub mod svg;

pub use ascii::{line_plot, topology_diagram, TopologySketch};
pub use chart::{DualAxisChart, Series, SeriesStyle, YAxis, ALONE_COLOR, COMM_COLOR, COMP_COLOR};
pub use gantt::{Gantt, GanttBar, GanttRow};
pub use grid::ChartGrid;
pub use heatmap::Heatmap;
pub use report::HtmlReport;
pub use stacked::{MarkedPoint, StackedData};
pub use svg::{Scale, Svg};
