//! Minimal SVG document builder — just enough vector-graphics surface for
//! the paper's figures (polylines, markers, axes, text, filled areas),
//! hand-rolled to keep the dependency set to the approved crates.

use std::fmt::Write as _;

/// An SVG document under construction.
#[derive(Debug, Clone)]
pub struct Svg {
    width: f64,
    height: f64,
    body: String,
    defs: String,
    clip_seq: usize,
    embed_seq: usize,
}

/// Escape text for XML — both element content and attribute values, so the
/// single quote (`&apos;`) must be covered too.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\'', "&apos;")
}

impl Svg {
    /// Start a document of the given pixel size.
    pub fn new(width: f64, height: f64) -> Self {
        Svg {
            width,
            height,
            body: String::new(),
            defs: String::new(),
            clip_seq: 0,
            embed_seq: 0,
        }
    }

    /// A straight line segment.
    pub fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        let _ = writeln!(
            self.body,
            r#"<line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="{stroke}" stroke-width="{width}"/>"#
        );
    }

    /// A polyline through the given points.
    pub fn polyline(&mut self, points: &[(f64, f64)], stroke: &str, width: f64, dashed: bool) {
        if points.is_empty() {
            return;
        }
        let pts: Vec<String> = points
            .iter()
            .map(|(x, y)| format!("{x:.2},{y:.2}"))
            .collect();
        let dash = if dashed {
            r#" stroke-dasharray="6 3""#
        } else {
            ""
        };
        let _ = writeln!(
            self.body,
            r#"<polyline points="{}" fill="none" stroke="{stroke}" stroke-width="{width}"{dash}/>"#,
            pts.join(" ")
        );
    }

    /// A closed filled polygon (used by stacked areas).
    pub fn polygon(&mut self, points: &[(f64, f64)], fill: &str, opacity: f64) {
        if points.is_empty() {
            return;
        }
        let pts: Vec<String> = points
            .iter()
            .map(|(x, y)| format!("{x:.2},{y:.2}"))
            .collect();
        let _ = writeln!(
            self.body,
            r#"<polygon points="{}" fill="{fill}" fill-opacity="{opacity}" stroke="none"/>"#,
            pts.join(" ")
        );
    }

    /// A filled circle marker.
    pub fn circle(&mut self, cx: f64, cy: f64, r: f64, fill: &str) {
        let _ = writeln!(
            self.body,
            r#"<circle cx="{cx:.2}" cy="{cy:.2}" r="{r:.2}" fill="{fill}"/>"#
        );
    }

    /// A downward triangle marker (the paper's ▼ for parallel-phase
    /// measurements).
    pub fn triangle_down(&mut self, cx: f64, cy: f64, r: f64, fill: &str) {
        let pts = [(cx - r, cy - r * 0.8), (cx + r, cy - r * 0.8), (cx, cy + r)];
        self.polygon(&pts, fill, 1.0);
    }

    /// An axis-aligned rectangle outline or fill.
    #[allow(clippy::too_many_arguments)]
    pub fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, stroke: &str, fill: &str, sw: f64) {
        let _ = writeln!(
            self.body,
            r#"<rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}" stroke="{stroke}" fill="{fill}" stroke-width="{sw}"/>"#
        );
    }

    /// Text with an anchor: "start", "middle" or "end".
    pub fn text(&mut self, x: f64, y: f64, size: f64, anchor: &str, content: &str) {
        let _ = writeln!(
            self.body,
            r#"<text x="{x:.2}" y="{y:.2}" font-size="{size}" font-family="sans-serif" text-anchor="{anchor}">{}</text>"#,
            esc(content)
        );
    }

    /// Text rotated 90° counter-clockwise around its anchor (for y-axis
    /// labels).
    pub fn vtext(&mut self, x: f64, y: f64, size: f64, content: &str) {
        let _ = writeln!(
            self.body,
            r#"<text x="{x:.2}" y="{y:.2}" font-size="{size}" font-family="sans-serif" text-anchor="middle" transform="rotate(-90 {x:.2} {y:.2})">{}</text>"#,
            esc(content)
        );
    }

    /// Open a group clipped to an axis-aligned rectangle. Must be paired
    /// with [`Svg::pop_clip`]. The clip path lands in the document's
    /// `<defs>`, which [`Svg::embed`] carries over.
    pub fn push_clip_rect(&mut self, x: f64, y: f64, w: f64, h: f64) {
        let id = format!("clip{}", self.clip_seq);
        self.clip_seq += 1;
        let _ = writeln!(
            self.defs,
            r#"<clipPath id="{id}"><rect x="{x:.2}" y="{y:.2}" width="{w:.2}" height="{h:.2}"/></clipPath>"#
        );
        let _ = writeln!(self.body, r##"<g clip-path="url(#{id})">"##);
    }

    /// Close a group opened by [`Svg::push_clip_rect`].
    pub fn pop_clip(&mut self) {
        let _ = writeln!(self.body, "</g>");
    }

    /// Embed another document at an offset (used by the subplot grid).
    ///
    /// The child's `<defs>` (clip paths) come along, with every `id`
    /// rewritten to a per-embed namespace so two embedded children cannot
    /// collide (both start their own ids at `clip0`).
    pub fn embed(&mut self, other: &Svg, x: f64, y: f64) {
        let prefix = format!("e{}-", self.embed_seq);
        self.embed_seq += 1;
        self.defs
            .push_str(&other.defs.replace("id=\"", &format!("id=\"{prefix}")));
        let _ = writeln!(self.body, r#"<g transform="translate({x:.2} {y:.2})">"#);
        self.body
            .push_str(&other.body.replace("url(#", &format!("url(#{prefix}")));
        let _ = writeln!(self.body, "</g>");
    }

    /// Finish the document.
    pub fn render(&self) -> String {
        let defs = if self.defs.is_empty() {
            String::new()
        } else {
            format!("<defs>\n{}</defs>\n", self.defs)
        };
        format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{:.0}\" height=\"{:.0}\" \
             viewBox=\"0 0 {:.0} {:.0}\">\n{}<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n{}</svg>\n",
            self.width, self.height, self.width, self.height, defs, self.body
        )
    }
}

/// A linear mapping from data space to pixel space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Data-space minimum.
    pub d0: f64,
    /// Data-space maximum.
    pub d1: f64,
    /// Pixel-space coordinate of `d0`.
    pub p0: f64,
    /// Pixel-space coordinate of `d1`.
    pub p1: f64,
}

impl Scale {
    /// Build a scale.
    pub fn new(d0: f64, d1: f64, p0: f64, p1: f64) -> Self {
        assert!(d1 > d0, "degenerate data range [{d0}, {d1}]");
        Scale { d0, d1, p0, p1 }
    }

    /// Map a data value to pixels (clamped to the data range).
    pub fn map(&self, v: f64) -> f64 {
        let t = ((v - self.d0) / (self.d1 - self.d0)).clamp(0.0, 1.0);
        self.p0 + t * (self.p1 - self.p0)
    }

    /// Round-number tick positions (about `n` of them).
    pub fn ticks(&self, n: usize) -> Vec<f64> {
        let span = self.d1 - self.d0;
        let raw_step = span / n.max(1) as f64;
        let mag = 10f64.powf(raw_step.log10().floor());
        let step = [1.0, 2.0, 5.0, 10.0]
            .iter()
            .map(|m| m * mag)
            .find(|s| span / s <= n as f64)
            .unwrap_or(mag * 10.0);
        let mut v = (self.d0 / step).ceil() * step;
        let mut out = Vec::new();
        while v <= self.d1 + 1e-9 {
            out.push(v);
            v += step;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_produces_wellformed_shell() {
        let mut s = Svg::new(100.0, 50.0);
        s.line(0.0, 0.0, 10.0, 10.0, "black", 1.0);
        s.text(5.0, 5.0, 10.0, "middle", "a<b&c");
        let out = s.render();
        assert!(out.starts_with("<svg"));
        assert!(out.trim_end().ends_with("</svg>"));
        assert!(out.contains("a&lt;b&amp;c"));
        assert!(out.contains("<line"));
    }

    #[test]
    fn scale_maps_endpoints_and_midpoint() {
        let sc = Scale::new(0.0, 10.0, 100.0, 200.0);
        assert_eq!(sc.map(0.0), 100.0);
        assert_eq!(sc.map(10.0), 200.0);
        assert_eq!(sc.map(5.0), 150.0);
    }

    #[test]
    fn scale_clamps_out_of_range() {
        let sc = Scale::new(0.0, 10.0, 0.0, 100.0);
        assert_eq!(sc.map(-5.0), 0.0);
        assert_eq!(sc.map(50.0), 100.0);
    }

    #[test]
    fn inverted_pixel_axis_works() {
        // SVG y grows downwards: p0 > p1 is the normal case for y-scales.
        let sc = Scale::new(0.0, 10.0, 100.0, 0.0);
        assert_eq!(sc.map(0.0), 100.0);
        assert_eq!(sc.map(10.0), 0.0);
    }

    #[test]
    fn ticks_are_round_and_cover_range() {
        let sc = Scale::new(0.0, 17.0, 0.0, 1.0);
        let ticks = sc.ticks(6);
        assert!(!ticks.is_empty());
        assert!(ticks.len() <= 8);
        for t in &ticks {
            assert!((0.0..=17.0).contains(t));
        }
        // 0 must be a tick of a 0-anchored range.
        assert_eq!(ticks[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "degenerate data range")]
    fn degenerate_scale_panics() {
        Scale::new(5.0, 5.0, 0.0, 1.0);
    }

    #[test]
    fn embed_offsets_content() {
        let mut inner = Svg::new(10.0, 10.0);
        inner.circle(1.0, 1.0, 1.0, "red");
        let mut outer = Svg::new(100.0, 100.0);
        outer.embed(&inner, 50.0, 60.0);
        let out = outer.render();
        assert!(out.contains("translate(50.00 60.00)"));
        assert!(out.contains("<circle"));
    }

    #[test]
    fn esc_covers_attribute_context() {
        // Hostile labels: every XML metacharacter, including the single
        // quote that only matters in attribute values.
        let mut s = Svg::new(10.0, 10.0);
        s.text(1.0, 1.0, 8.0, "start", r#"a<b&c>"d'e"#);
        s.vtext(2.0, 2.0, 8.0, "x' onload='alert(1)");
        let out = s.render();
        assert!(out.contains("a&lt;b&amp;c&gt;&quot;d&apos;e"));
        assert!(out.contains("x&apos; onload=&apos;alert(1)"));
        assert!(!out.contains("d'e"));
        assert!(!out.contains("onload='"));
    }

    #[test]
    fn embed_carries_clip_defs_with_unique_ids() {
        // Two children each define their own clip0: the parent must keep
        // both clip paths and keep their references pointing at distinct
        // ids — the old embed dropped child defs entirely.
        let child = |color: &str| {
            let mut c = Svg::new(10.0, 10.0);
            c.push_clip_rect(0.0, 0.0, 5.0, 5.0);
            c.circle(1.0, 1.0, 1.0, color);
            c.pop_clip();
            c
        };
        let mut outer = Svg::new(100.0, 100.0);
        outer.embed(&child("red"), 0.0, 0.0);
        outer.embed(&child("blue"), 50.0, 0.0);
        let out = outer.render();
        assert_eq!(out.matches("<clipPath").count(), 2);
        assert!(out.contains(r#"id="e0-clip0""#));
        assert!(out.contains(r#"id="e1-clip0""#));
        assert!(out.contains("url(#e0-clip0)"));
        assert!(out.contains("url(#e1-clip0)"));
        // No reference is left pointing at the (gone) un-prefixed id.
        assert!(!out.contains("url(#clip0)"));
    }

    #[test]
    fn nested_embeds_keep_references_consistent() {
        let mut inner = Svg::new(10.0, 10.0);
        inner.push_clip_rect(0.0, 0.0, 5.0, 5.0);
        inner.circle(1.0, 1.0, 1.0, "red");
        inner.pop_clip();
        let mut mid = Svg::new(20.0, 20.0);
        mid.embed(&inner, 1.0, 1.0);
        let mut outer = Svg::new(40.0, 40.0);
        outer.embed(&mid, 2.0, 2.0);
        let out = outer.render();
        assert!(out.contains(r#"id="e0-e0-clip0""#));
        assert!(out.contains("url(#e0-e0-clip0)"));
    }

    #[test]
    fn markers_render() {
        let mut s = Svg::new(10.0, 10.0);
        s.triangle_down(5.0, 5.0, 2.0, "blue");
        s.rect(0.0, 0.0, 10.0, 10.0, "black", "none", 0.5);
        let out = s.render();
        assert!(out.contains("<polygon"));
        assert!(out.contains("<rect"));
    }
}
