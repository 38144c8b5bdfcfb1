//! ANSI terminal dashboard renderer.

use super::SeriesRegistry;
use crate::{fmt_sig, AsciiChart};

/// Moves the cursor home and clears to end of screen, so a reprinted
/// dashboard overwrites the previous frame in place.
const ANSI_REDRAW: &str = "\x1b[H\x1b[J";

/// Incremental terminal dashboard: one [`AsciiChart`] panel per
/// registered series, redrawn in place with ANSI escapes.
///
/// [`render`](LiveTerm::render) is a pure function of the registry —
/// identical samples yield a byte-identical frame — and
/// [`frame`](LiveTerm::frame) merely prefixes the cursor-home/clear
/// escape so successive prints overwrite each other instead of
/// scrolling.
///
/// # Example
///
/// ```
/// use sociolearn_plot::{LiveTerm, SeriesRegistry};
///
/// let mut reg = SeriesRegistry::new(60);
/// let alive = reg.gauge("alive", "nodes");
/// for t in 0..30 {
///     reg.push(alive, 100.0 - f64::from(t));
/// }
/// let term = LiveTerm::new();
/// let out = term.render(&reg);
/// assert!(out.contains("alive"));
/// assert!(out.contains("nodes"));
/// // Same registry, same bytes.
/// assert_eq!(out, term.render(&reg));
/// // The in-place frame is the same text behind a redraw escape.
/// assert_eq!(term.frame(&reg), format!("\u{1b}[H\u{1b}[J{out}"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LiveTerm;

/// Chart panel width in characters.
const WIDTH: usize = 64;
/// Chart panel height in characters.
const HEIGHT: usize = 5;

impl LiveTerm {
    /// Creates a renderer with 64×5 chart panels.
    pub fn new() -> Self {
        LiveTerm
    }

    /// Renders one dashboard frame: a header line followed by a
    /// labelled chart panel per series, in registration order.
    pub fn render(&self, reg: &SeriesRegistry) -> String {
        let mut out = String::with_capacity(reg.len() * (HEIGHT + 2) * (WIDTH + 12));
        out.push_str(&format!(
            "fleet telemetry · tick {} · {} series · window {}\n",
            reg.ticks(),
            reg.len(),
            reg.window()
        ));
        for s in reg.iter() {
            let stats = match (s.ring().latest(), s.ring().min(), s.ring().max()) {
                (Some(last), Some(lo), Some(hi)) => format!(
                    "last {} · min {} · max {}",
                    fmt_sig(last, 3),
                    fmt_sig(lo, 3),
                    fmt_sig(hi, 3)
                ),
                _ => "no samples".to_string(),
            };
            let unit = if s.unit().is_empty() {
                String::new()
            } else {
                format!(" ({})", s.unit())
            };
            out.push_str(&format!(
                "\n{}{} [{}] · {}\n",
                s.name(),
                unit,
                s.kind().label(),
                stats
            ));
            out.push_str(&AsciiChart::new(WIDTH, HEIGHT).render(&s.ring().to_vec()));
        }
        out
    }

    /// [`render`](LiveTerm::render) prefixed with the ANSI
    /// cursor-home + clear-screen escape, so printing successive
    /// frames redraws the dashboard in place.
    pub fn frame(&self, reg: &SeriesRegistry) -> String {
        format!("{ANSI_REDRAW}{}", self.render(reg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> SeriesRegistry {
        let mut reg = SeriesRegistry::new(32);
        let a = reg.gauge("alive", "nodes");
        let d = reg.counter("drops", "events/tick");
        for t in 0..40 {
            reg.push(a, 100.0 - t as f64);
            reg.push(d, (t % 3) as f64);
        }
        reg
    }

    #[test]
    fn renders_every_series_with_metadata() {
        let out = LiveTerm::new().render(&sample_registry());
        for needle in ["alive", "nodes", "drops", "events/tick", "gauge", "counter"] {
            assert!(out.contains(needle), "missing {needle:?} in:\n{out}");
        }
        assert!(out.starts_with("fleet telemetry · tick 40 · 2 series"));
    }

    #[test]
    fn byte_identical_across_renders() {
        let reg = sample_registry();
        let term = LiveTerm::new();
        assert_eq!(term.render(&reg), term.render(&reg));
    }

    #[test]
    fn frame_prefixes_redraw_escape() {
        let reg = sample_registry();
        let term = LiveTerm::new();
        let frame = term.frame(&reg);
        assert!(frame.starts_with("\x1b[H\x1b[J"));
        assert!(frame.ends_with(&term.render(&reg)));
    }

    #[test]
    fn empty_registry_still_renders_header() {
        let reg = SeriesRegistry::new(8);
        let out = LiveTerm::new().render(&reg);
        assert!(out.contains("0 series"));
    }

    #[test]
    fn empty_series_shows_placeholder() {
        let mut reg = SeriesRegistry::new(8);
        reg.gauge("quiet", "");
        let out = LiveTerm::new().render(&reg);
        assert!(out.contains("no samples"));
        assert!(out.contains("(no data)"));
    }
}
