//! Self-contained HTML run reports: one file an operator can open to
//! answer "where did the time go" for a replay, a schedule run or a
//! serve session.
//!
//! The report is **zero-dependency by construction**: inline `<style>`,
//! inline SVG figures, plain tables — no `src=`/`href=` attributes, no
//! scripts, no external fonts. Writing the file is the only I/O the
//! caller performs; rendering is pure and byte-stable for a given
//! input, so reports are goldenable like every other exporter.
//!
//! Sections are appended in call order: run-metadata header, SVG
//! figures (Gantt timelines), arbitrary tables, and a
//! [`MetricsSnapshot`] expansion (counters, histogram summaries,
//! spans) via [`HtmlReport::metrics`].

use std::fmt::Write as _;

use mc_obs::MetricsSnapshot;

use crate::svg::Svg;

/// Escape text for HTML element content.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// One report section.
#[derive(Debug, Clone)]
enum Section {
    /// An inline SVG figure with a heading.
    Figure { heading: String, svg: String },
    /// A table with a heading, column names and stringly rows.
    Table {
        heading: String,
        columns: Vec<String>,
        rows: Vec<Vec<String>>,
    },
}

/// A report under construction; see the module docs.
#[derive(Debug, Clone)]
pub struct HtmlReport {
    title: String,
    meta: Vec<(String, String)>,
    sections: Vec<Section>,
}

impl HtmlReport {
    /// Start a report with the given page title.
    pub fn new(title: &str) -> Self {
        HtmlReport {
            title: title.to_string(),
            meta: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Add one run-metadata entry (platform, ranks, makespan, …) to the
    /// header block.
    pub fn meta(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Add an inline SVG figure.
    pub fn figure(&mut self, heading: &str, svg: &Svg) {
        self.sections.push(Section::Figure {
            heading: heading.to_string(),
            svg: svg.render(),
        });
    }

    /// Add a table. Rows shorter than `columns` render with trailing
    /// empty cells.
    pub fn table(&mut self, heading: &str, columns: &[&str], rows: Vec<Vec<String>>) {
        self.sections.push(Section::Table {
            heading: heading.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
        });
    }

    /// Expand a metrics snapshot into counter, histogram-summary and
    /// span tables (each section only when non-empty). Incomplete spans
    /// — open at snapshot time — are marked in their own column.
    pub fn metrics(&mut self, snap: &MetricsSnapshot) {
        fn tags(t: &[(String, String)]) -> String {
            if t.is_empty() {
                return "-".to_string();
            }
            t.iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(",")
        }
        if !snap.counters.is_empty() {
            let rows = snap
                .counters
                .iter()
                .map(|((name, t), v)| vec![name.clone(), tags(t), v.to_string()])
                .collect();
            self.table("Counters", &["name", "tags", "value"], rows);
        }
        if !snap.histograms.is_empty() {
            let rows = snap
                .histograms
                .iter()
                .map(|((name, t), h)| {
                    vec![
                        name.clone(),
                        tags(t),
                        h.count.to_string(),
                        format!("{:.6}", h.mean()),
                        format!("{:.6}", h.min),
                        format!("{:.6}", h.max),
                    ]
                })
                .collect();
            self.table(
                "Histograms",
                &["name", "tags", "count", "mean", "min", "max"],
                rows,
            );
        }
        if !snap.spans.is_empty() {
            let rows = snap
                .spans
                .iter()
                .map(|s| {
                    vec![
                        s.stage.clone(),
                        tags(&s.tags),
                        format!("{:.6}", s.start_s),
                        format!("{:.6}", s.duration_s),
                        if s.incomplete { "incomplete" } else { "" }.to_string(),
                    ]
                })
                .collect();
            self.table(
                "Spans",
                &["stage", "tags", "start_s", "duration_s", ""],
                rows,
            );
        }
    }

    /// Render the complete, self-contained HTML document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
        let _ = writeln!(out, "<title>{}</title>", esc(&self.title));
        // The `pre` rule styles no section; it stays so `--report` pages
        // keep their bytes.
        out.push_str(
            "<style>\n\
             body{font-family:sans-serif;margin:2em auto;max-width:960px;color:#222}\n\
             h1{font-size:1.4em;border-bottom:2px solid #555;padding-bottom:.2em}\n\
             h2{font-size:1.1em;margin-top:1.6em}\n\
             table{border-collapse:collapse;font-size:.85em}\n\
             th,td{border:1px solid #bbb;padding:.25em .6em;text-align:left}\n\
             th{background:#eee}\n\
             dl.meta{display:grid;grid-template-columns:max-content 1fr;gap:.2em 1em}\n\
             dl.meta dt{font-weight:bold}\n\
             dl.meta dd{margin:0}\n\
             pre{background:#f6f6f6;padding:.8em;overflow-x:auto;font-size:.85em}\n\
             svg{max-width:100%;height:auto}\n\
             </style>\n</head>\n<body>\n",
        );
        let _ = writeln!(out, "<h1>{}</h1>", esc(&self.title));
        if !self.meta.is_empty() {
            out.push_str("<dl class=\"meta\">\n");
            for (k, v) in &self.meta {
                let _ = writeln!(out, "<dt>{}</dt><dd>{}</dd>", esc(k), esc(v));
            }
            out.push_str("</dl>\n");
        }
        for section in &self.sections {
            match section {
                Section::Figure { heading, svg } => {
                    let _ = writeln!(out, "<h2>{}</h2>", esc(heading));
                    // The SVG is inlined verbatim: mc-viz documents
                    // escape their own text content and reference
                    // nothing external.
                    out.push_str(svg);
                }
                Section::Table {
                    heading,
                    columns,
                    rows,
                } => {
                    let _ = writeln!(out, "<h2>{}</h2>", esc(heading));
                    out.push_str("<table>\n<tr>");
                    for c in columns {
                        let _ = write!(out, "<th>{}</th>", esc(c));
                    }
                    out.push_str("</tr>\n");
                    for row in rows {
                        out.push_str("<tr>");
                        for i in 0..columns.len() {
                            let cell = row.get(i).map(String::as_str).unwrap_or("");
                            let _ = write!(out, "<td>{}</td>", esc(cell));
                        }
                        out.push_str("</tr>\n");
                    }
                    out.push_str("</table>\n");
                }
            }
        }
        out.push_str("</body>\n</html>\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_obs::{Recorder, Registry};

    fn sample() -> HtmlReport {
        let mut rep = HtmlReport::new("trace replay on henri");
        rep.meta("platform", "henri");
        rep.meta("slowdown", "1.31x");
        let mut svg = Svg::new(100.0, 40.0);
        svg.rect(5.0, 5.0, 50.0, 10.0, "#555", "#1f77b4", 0.5);
        rep.figure("Timeline", &svg);
        rep.table(
            "Comparison",
            &["policy", "makespan_s"],
            vec![
                vec!["first_fit".into(), "1.25".into()],
                vec!["line <two> & 'three'".into(), "1.50".into()],
            ],
        );
        rep
    }

    #[test]
    fn renders_a_complete_document() {
        let html = sample().render();
        assert!(html.starts_with("<!DOCTYPE html>"), "{html}");
        assert!(html.trim_end().ends_with("</html>"), "{html}");
        assert!(html.contains("<h1>trace replay on henri</h1>"));
        assert!(html.contains("<dt>platform</dt><dd>henri</dd>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("<th>policy</th>"));
        assert!(html.contains("<td>first_fit</td>"));
        assert!(html.contains("<td>line &lt;two&gt; &amp;"));
    }

    #[test]
    fn report_is_self_contained() {
        // No external references of any kind: no src= or href=
        // attributes, no <script>, no <link>.
        let html = sample().render();
        assert!(!html.contains("src="), "{html}");
        assert!(!html.contains("href="), "{html}");
        assert!(!html.contains("<script"), "{html}");
        assert!(!html.contains("<link"), "{html}");
    }

    #[test]
    fn metrics_expand_into_tables() {
        use mc_obs::TagValue;
        let r = Registry::new();
        r.add("replay.ranks", &[], 4);
        r.observe(
            "replay.makespan_seconds",
            &[("platform", TagValue::Str("henri"))],
            1.5,
        );
        r.record_span("replay", &[], 0.0, 2.0);
        let _open = mc_obs::Recorder::span_enter(&r, "serve.request", &[]);
        let mut rep = HtmlReport::new("metrics");
        rep.metrics(&r.snapshot());
        let html = rep.render();
        assert!(html.contains("<h2>Counters</h2>"), "{html}");
        assert!(html.contains("<td>replay.ranks</td>"), "{html}");
        assert!(html.contains("<h2>Histograms</h2>"), "{html}");
        assert!(html.contains("platform=henri"), "{html}");
        assert!(html.contains("<h2>Spans</h2>"), "{html}");
        assert!(html.contains("<td>incomplete</td>"), "{html}");
    }

    #[test]
    fn empty_snapshot_adds_no_sections() {
        let mut rep = HtmlReport::new("empty");
        rep.metrics(&MetricsSnapshot::default());
        let html = rep.render();
        assert!(!html.contains("<h2>"), "{html}");
        assert!(!html.contains("<table>"), "{html}");
    }

    #[test]
    fn hostile_titles_and_cells_are_escaped() {
        let mut rep = HtmlReport::new("<script>alert(1)</script>");
        rep.meta("k", "<img src=x>");
        rep.table("t\"", &["<col>"], vec![vec!["<cell>".into()]]);
        let html = rep.render();
        assert!(!html.contains("<script>alert"), "{html}");
        assert!(!html.contains("<img"), "{html}");
        assert!(html.contains("&lt;col&gt;"));
        assert!(html.contains("&lt;cell&gt;"));
    }

    #[test]
    fn render_is_deterministic() {
        assert_eq!(sample().render(), sample().render());
    }
}
