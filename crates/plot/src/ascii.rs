//! Terminal line charts and histograms.

use crate::fmt_sig;

/// A multi-series ASCII line chart.
///
/// Renders one or more `f64` series into a fixed-size character grid
/// with a y-axis scale, suitable for experiment logs and examples.
/// Series are drawn with distinct glyphs in order: `*`, `o`, `+`, `x`,
/// `#`, `@`.
///
/// # Example
///
/// ```
/// use sociolearn_plot::AsciiChart;
///
/// let ys: Vec<f64> = (0..40).map(|i| i as f64).collect();
/// let out = AsciiChart::new(40, 8).render(&ys);
/// assert!(out.lines().count() >= 8);
/// ```
#[derive(Debug, Clone)]
pub struct AsciiChart {
    width: usize,
    height: usize,
    caption: Option<String>,
    labels: Vec<String>,
    y_min: Option<f64>,
    y_max: Option<f64>,
}

const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

impl AsciiChart {
    /// Creates a chart with the given plot-area width and height in
    /// characters (clamped to at least 10×3).
    pub fn new(width: usize, height: usize) -> Self {
        AsciiChart {
            width: width.max(10),
            height: height.max(3),
            caption: None,
            labels: Vec::new(),
            y_min: None,
            y_max: None,
        }
    }

    /// Adds a caption line above the chart.
    pub fn with_caption(mut self, caption: &str) -> Self {
        self.caption = Some(caption.to_string());
        self
    }

    /// Adds per-series legend labels (used by [`render_multi`]).
    ///
    /// [`render_multi`]: AsciiChart::render_multi
    pub fn with_labels<I, S>(mut self, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.labels = labels.into_iter().map(Into::into).collect();
        self
    }

    /// Fixes the y-axis range instead of auto-scaling to the data.
    pub fn with_y_range(mut self, lo: f64, hi: f64) -> Self {
        self.y_min = Some(lo);
        self.y_max = Some(hi);
        self
    }

    /// Renders a single series.
    pub fn render(&self, ys: &[f64]) -> String {
        self.render_multi(&[ys])
    }

    /// Renders several series onto the same axes.
    ///
    /// Empty input (or all-empty series) renders a placeholder message.
    pub fn render_multi(&self, series: &[&[f64]]) -> String {
        let finite: Vec<f64> = series
            .iter()
            .flat_map(|s| s.iter())
            .copied()
            .filter(|v| v.is_finite())
            .collect();
        if finite.is_empty() {
            return "(no data)\n".to_string();
        }
        let mut lo = self
            .y_min
            .unwrap_or_else(|| finite.iter().copied().fold(f64::INFINITY, f64::min));
        let mut hi = self
            .y_max
            .unwrap_or_else(|| finite.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        if lo == hi {
            lo -= 0.5;
            hi += 0.5;
        }

        let mut grid = vec![vec![' '; self.width]; self.height];
        let max_len = series.iter().map(|s| s.len()).max().unwrap_or(0);
        for (si, s) in series.iter().enumerate() {
            let glyph = GLYPHS[si % GLYPHS.len()];
            for (i, &v) in s.iter().enumerate() {
                if !v.is_finite() {
                    continue;
                }
                let x = if max_len <= 1 {
                    0
                } else {
                    i * (self.width - 1) / (max_len - 1).max(1)
                };
                let frac = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
                let y = ((1.0 - frac) * (self.height - 1) as f64).round() as usize;
                grid[y][x.min(self.width - 1)] = glyph;
            }
        }

        let mut out = String::new();
        if let Some(c) = &self.caption {
            out.push_str(c);
            out.push('\n');
        }
        for (row_idx, row) in grid.iter().enumerate() {
            let label = if row_idx == 0 {
                fmt_sig(hi, 3)
            } else if row_idx == self.height - 1 {
                fmt_sig(lo, 3)
            } else {
                String::new()
            };
            out.push_str(&format!("{label:>9} |"));
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!("{:>9} +{}\n", "", "-".repeat(self.width)));
        if !self.labels.is_empty() {
            let legend: Vec<String> = self
                .labels
                .iter()
                .enumerate()
                .map(|(i, l)| format!("{} {}", GLYPHS[i % GLYPHS.len()], l))
                .collect();
            out.push_str(&format!("{:>10}{}\n", "", legend.join("   ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_monotone_series() {
        let ys: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let out = AsciiChart::new(30, 6).render(&ys);
        // Top row should contain the max label, bottom the min.
        assert!(out.contains("29"));
        assert!(out.contains('*'));
    }

    #[test]
    fn empty_series_placeholder() {
        let out = AsciiChart::new(30, 6).render(&[]);
        assert_eq!(out, "(no data)\n");
    }

    #[test]
    fn constant_series_does_not_divide_by_zero() {
        let out = AsciiChart::new(20, 5).render(&[2.0; 10]);
        assert!(out.contains('*'));
    }

    #[test]
    fn multi_series_distinct_glyphs() {
        let a: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..20).map(|i| 19.0 - i as f64).collect();
        let out = AsciiChart::new(20, 8)
            .with_labels(["up", "down"])
            .render_multi(&[&a, &b]);
        assert!(out.contains('*'));
        assert!(out.contains('o'));
        assert!(out.contains("up"));
        assert!(out.contains("down"));
    }

    #[test]
    fn fixed_y_range_clamps() {
        let out = AsciiChart::new(20, 5)
            .with_y_range(0.0, 1.0)
            .render(&[5.0, -5.0]);
        assert!(out.contains('1'));
        assert!(out.contains('0'));
    }

    #[test]
    fn nan_values_skipped() {
        let out = AsciiChart::new(20, 5).render(&[1.0, f64::NAN, 3.0]);
        assert!(out.contains('*'));
    }

    #[test]
    fn caption_is_first_line() {
        let out = AsciiChart::new(20, 4)
            .with_caption("hello")
            .render(&[1.0, 2.0]);
        assert!(out.starts_with("hello\n"));
    }
}
