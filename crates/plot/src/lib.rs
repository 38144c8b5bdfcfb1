//! Plotting and report-output substrate for the `sociolearn` workspace.
//!
//! The Rust plotting ecosystem is thin and pulls heavy native
//! dependencies, so the reproduction suite renders its figures with
//! this self-contained crate instead:
//!
//! * [`AsciiChart`] — multi-series line charts for terminal output,
//! * [`SvgPlot`] — standalone SVG figures (axes, ticks, legends),
//! * [`CsvWriter`] — raw data series for external tooling,
//! * [`MarkdownTable`] — the tables in each experiment's report
//!   under `results/`,
//! * [`telemetry`] — live-fleet dashboards: [`SampleRing`] windows in
//!   a [`SeriesRegistry`], rendered incrementally by [`LiveTerm`]
//!   (ANSI in-place redraw) and [`LiveSvg`] (self-contained SVG
//!   snapshot).
//!
//! # Example
//!
//! ```
//! use sociolearn_plot::{AsciiChart, MarkdownTable};
//!
//! let ys: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
//! let chart = AsciiChart::new(60, 10).with_caption("sin(t)").render(&ys);
//! assert!(chart.contains("sin(t)"));
//!
//! let mut t = MarkdownTable::new(&["beta", "regret"]);
//! t.add_row(&["0.6".into(), "0.12".into()]);
//! assert!(t.render().contains("| beta | regret |"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ascii;
mod csv;
mod format;
mod svg;
mod table;
pub mod telemetry;

pub use ascii::{ascii_histogram, AsciiChart};
pub use csv::CsvWriter;
pub use format::{fmt_sci, fmt_sig};
pub use svg::{Series, SvgPlot};
pub use table::MarkdownTable;
pub use telemetry::{LiveSvg, LiveTerm, SampleRing, SeriesId, SeriesKind, SeriesRegistry};
