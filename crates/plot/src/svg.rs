//! Minimal standalone SVG figures.

use crate::fmt_sig;

const COLORS: [&str; 8] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
];

/// A named data series for an [`SvgPlot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points in data coordinates.
    pub points: Vec<(f64, f64)>,
    /// Draw markers at each point in addition to the polyline.
    pub markers: bool,
}

impl Series {
    /// Creates a line series from `(x, y)` pairs.
    pub fn line<S: Into<String>>(label: S, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
            markers: false,
        }
    }

    /// Creates a line series with circular markers at each point.
    pub fn with_markers<S: Into<String>>(label: S, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
            markers: true,
        }
    }

    /// Convenience: a series from a y-vector with x = 0, 1, 2, ...
    pub fn from_ys<S: Into<String>>(label: S, ys: &[f64]) -> Self {
        Series::line(
            label,
            ys.iter().enumerate().map(|(i, &y)| (i as f64, y)).collect(),
        )
    }
}

/// Axis scale for an [`SvgPlot`] axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Linear axis (default).
    #[default]
    Linear,
    /// Base-10 logarithmic axis; non-positive values are dropped.
    Log,
}

/// Builder for a self-contained SVG line/scatter figure.
///
/// # Example
///
/// ```
/// use sociolearn_plot::{Series, SvgPlot};
///
/// let svg = SvgPlot::new("demo")
///     .x_label("t")
///     .y_label("regret")
///     .add(Series::from_ys("run", &[3.0, 2.0, 1.5, 1.2]))
///     .render();
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("regret"));
/// ```
#[derive(Debug, Clone)]
pub struct SvgPlot {
    title: String,
    x_label: String,
    y_label: String,
    width: u32,
    height: u32,
    series: Vec<Series>,
    x_scale: Scale,
    y_scale: Scale,
    hlines: Vec<(f64, String)>,
}

impl SvgPlot {
    /// Creates an empty 720×480 plot with the given title.
    pub fn new<S: Into<String>>(title: S) -> Self {
        SvgPlot {
            title: title.into(),
            x_label: String::new(),
            y_label: String::new(),
            width: 720,
            height: 480,
            series: Vec::new(),
            x_scale: Scale::Linear,
            y_scale: Scale::Linear,
            hlines: Vec::new(),
        }
    }

    /// Sets the x-axis label.
    pub fn x_label<S: Into<String>>(mut self, s: S) -> Self {
        self.x_label = s.into();
        self
    }

    /// Sets the y-axis label.
    pub fn y_label<S: Into<String>>(mut self, s: S) -> Self {
        self.y_label = s.into();
        self
    }

    /// Switches the x axis to log scale.
    pub fn log_x(mut self) -> Self {
        self.x_scale = Scale::Log;
        self
    }

    /// Switches the y axis to log scale.
    pub fn log_y(mut self) -> Self {
        self.y_scale = Scale::Log;
        self
    }

    /// Adds a horizontal reference line (e.g. a theorem bound) with a label.
    pub fn hline<S: Into<String>>(mut self, y: f64, label: S) -> Self {
        self.hlines.push((y, label.into()));
        self
    }

    /// Adds a data series.
    #[allow(clippy::should_implement_trait)]
    pub fn add(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    fn transform(scale: Scale, v: f64) -> Option<f64> {
        match scale {
            Scale::Linear => v.is_finite().then_some(v),
            Scale::Log => (v > 0.0 && v.is_finite()).then(|| v.log10()),
        }
    }

    /// Renders the figure to an SVG string.
    pub fn render(&self) -> String {
        let (w, h) = (self.width as f64, self.height as f64);
        let (ml, mr, mt, mb) = (70.0, 20.0, 40.0, 55.0);
        let pw = w - ml - mr;
        let ph = h - mt - mb;

        // Collect transformed points per series.
        let tseries: Vec<Vec<(f64, f64)>> = self
            .series
            .iter()
            .map(|s| {
                s.points
                    .iter()
                    .filter_map(|&(x, y)| {
                        Some((
                            Self::transform(self.x_scale, x)?,
                            Self::transform(self.y_scale, y)?,
                        ))
                    })
                    .collect()
            })
            .collect();
        let hline_ys: Vec<f64> = self
            .hlines
            .iter()
            .filter_map(|&(y, _)| Self::transform(self.y_scale, y))
            .collect();

        let mut xlo = f64::INFINITY;
        let mut xhi = f64::NEG_INFINITY;
        let mut ylo = f64::INFINITY;
        let mut yhi = f64::NEG_INFINITY;
        for pts in &tseries {
            for &(x, y) in pts {
                xlo = xlo.min(x);
                xhi = xhi.max(x);
                ylo = ylo.min(y);
                yhi = yhi.max(y);
            }
        }
        for &y in &hline_ys {
            ylo = ylo.min(y);
            yhi = yhi.max(y);
        }
        if !xlo.is_finite() {
            xlo = 0.0;
            xhi = 1.0;
        }
        if !ylo.is_finite() {
            ylo = 0.0;
            yhi = 1.0;
        }
        if xlo == xhi {
            xlo -= 0.5;
            xhi += 0.5;
        }
        if ylo == yhi {
            ylo -= 0.5;
            yhi += 0.5;
        }
        // A little breathing room on y.
        let pad = (yhi - ylo) * 0.05;
        ylo -= pad;
        yhi += pad;

        let px = |x: f64| ml + (x - xlo) / (xhi - xlo) * pw;
        let py = |y: f64| mt + (1.0 - (y - ylo) / (yhi - ylo)) * ph;

        let mut out = String::new();
        out.push_str(&format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{}\" height=\"{}\" \
             viewBox=\"0 0 {} {}\" font-family=\"sans-serif\" font-size=\"12\">\n",
            self.width, self.height, self.width, self.height
        ));
        out.push_str(&format!(
            "<rect width=\"{}\" height=\"{}\" fill=\"white\"/>\n",
            self.width, self.height
        ));
        // Title.
        out.push_str(&format!(
            "<text x=\"{}\" y=\"22\" text-anchor=\"middle\" font-size=\"15\" font-weight=\"bold\">{}</text>\n",
            w / 2.0,
            escape(&self.title)
        ));
        // Axes.
        out.push_str(&format!(
            "<line x1=\"{ml}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"black\"/>\n",
            mt + ph,
            ml + pw,
            mt + ph
        ));
        out.push_str(&format!(
            "<line x1=\"{ml}\" y1=\"{mt}\" x2=\"{ml}\" y2=\"{}\" stroke=\"black\"/>\n",
            mt + ph
        ));
        // Ticks: 6 per axis.
        for i in 0..=5 {
            let fx = i as f64 / 5.0;
            let xv = xlo + fx * (xhi - xlo);
            let x = ml + fx * pw;
            let tick_label = match self.x_scale {
                Scale::Linear => fmt_sig(xv, 3),
                Scale::Log => format!("1e{}", fmt_sig(xv, 2)),
            };
            out.push_str(&format!(
                "<line x1=\"{x}\" y1=\"{}\" x2=\"{x}\" y2=\"{}\" stroke=\"black\"/>\n",
                mt + ph,
                mt + ph + 5.0
            ));
            out.push_str(&format!(
                "<text x=\"{x}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
                mt + ph + 18.0,
                tick_label
            ));

            let yv = ylo + fx * (yhi - ylo);
            let y = mt + (1.0 - fx) * ph;
            let tick_label = match self.y_scale {
                Scale::Linear => fmt_sig(yv, 3),
                Scale::Log => format!("1e{}", fmt_sig(yv, 2)),
            };
            out.push_str(&format!(
                "<line x1=\"{}\" y1=\"{y}\" x2=\"{ml}\" y2=\"{y}\" stroke=\"black\"/>\n",
                ml - 5.0
            ));
            out.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" text-anchor=\"end\">{}</text>\n",
                ml - 8.0,
                y + 4.0,
                tick_label
            ));
        }
        // Axis labels.
        out.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\">{}</text>\n",
            ml + pw / 2.0,
            h - 12.0,
            escape(&self.x_label)
        ));
        out.push_str(&format!(
            "<text x=\"16\" y=\"{}\" text-anchor=\"middle\" transform=\"rotate(-90 16 {})\">{}</text>\n",
            mt + ph / 2.0,
            mt + ph / 2.0,
            escape(&self.y_label)
        ));
        // Reference lines.
        for (i, (yraw, label)) in self.hlines.iter().enumerate() {
            if let Some(ty) = Self::transform(self.y_scale, *yraw) {
                if ty >= ylo && ty <= yhi {
                    let y = py(ty);
                    out.push_str(&format!(
                        "<line x1=\"{ml}\" y1=\"{y}\" x2=\"{}\" y2=\"{y}\" stroke=\"#888\" stroke-dasharray=\"6,4\"/>\n",
                        ml + pw
                    ));
                    out.push_str(&format!(
                        "<text x=\"{}\" y=\"{}\" text-anchor=\"end\" fill=\"#555\">{}</text>\n",
                        ml + pw - 4.0,
                        y - 4.0 - 14.0 * i as f64,
                        escape(label)
                    ));
                }
            }
        }
        // Series.
        for (si, pts) in tseries.iter().enumerate() {
            let color = COLORS[si % COLORS.len()];
            if pts.len() > 1 {
                let path: Vec<String> = pts
                    .iter()
                    .map(|&(x, y)| format!("{:.2},{:.2}", px(x), py(y)))
                    .collect();
                out.push_str(&format!(
                    "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.8\" points=\"{}\"/>\n",
                    path.join(" ")
                ));
            }
            if self.series[si].markers || pts.len() == 1 {
                for &(x, y) in pts {
                    out.push_str(&format!(
                        "<circle cx=\"{:.2}\" cy=\"{:.2}\" r=\"3\" fill=\"{color}\"/>\n",
                        px(x),
                        py(y)
                    ));
                }
            }
        }
        // Legend.
        for (si, s) in self.series.iter().enumerate() {
            let color = COLORS[si % COLORS.len()];
            let y = mt + 10.0 + 16.0 * si as f64;
            out.push_str(&format!(
                "<line x1=\"{}\" y1=\"{y}\" x2=\"{}\" y2=\"{y}\" stroke=\"{color}\" stroke-width=\"3\"/>\n",
                ml + 8.0,
                ml + 28.0
            ));
            out.push_str(&format!(
                "<text x=\"{}\" y=\"{}\">{}</text>\n",
                ml + 33.0,
                y + 4.0,
                escape(&s.label)
            ));
        }
        out.push_str("</svg>\n");
        out
    }
}

pub(crate) fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_series_and_labels() {
        let svg = SvgPlot::new("T")
            .x_label("xx")
            .y_label("yy")
            .add(Series::from_ys("alpha", &[1.0, 2.0, 3.0]))
            .render();
        assert!(svg.contains("<polyline"));
        assert!(svg.contains("alpha"));
        assert!(svg.contains("xx"));
        assert!(svg.contains("yy"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn empty_plot_still_valid() {
        let svg = SvgPlot::new("empty").render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
    }

    #[test]
    fn log_scale_drops_nonpositive() {
        let svg = SvgPlot::new("log")
            .log_y()
            .add(Series::from_ys("s", &[0.0, -1.0, 10.0, 100.0]))
            .render();
        // Only two positive points survive -> polyline with 2 points.
        assert!(svg.contains("<polyline"));
    }

    #[test]
    fn hline_rendered_with_label() {
        let svg = SvgPlot::new("h")
            .hline(2.0, "bound 3δ")
            .add(Series::from_ys("s", &[1.0, 3.0]))
            .render();
        assert!(svg.contains("stroke-dasharray"));
        assert!(svg.contains("bound 3δ"));
    }

    #[test]
    fn markers_render_circles() {
        let svg = SvgPlot::new("m")
            .add(Series::with_markers("s", vec![(0.0, 1.0), (1.0, 2.0)]))
            .render();
        assert!(svg.contains("<circle"));
    }

    #[test]
    fn title_escaped() {
        let svg = SvgPlot::new("a<b&c").render();
        assert!(svg.contains("a&lt;b&amp;c"));
    }
}
