//! # wormsim-viz
//!
//! Dependency-free terminal charts for the experiment harness: braille
//! line plots for figure curves and horizontal bar charts for categorical
//! comparisons. Pure text output — pipes cleanly into logs and CI.
//!
//! ```
//! use wormsim_viz::{LineChart, Series};
//!
//! let chart = LineChart::new(60, 12)
//!     .with_title("throughput vs rate")
//!     .with_series(Series::new(
//!         "NHop",
//!         (0..20).map(|i| (i as f64, (i as f64 * 0.3).min(4.0))).collect(),
//!     ));
//! let rendered = chart.render();
//! assert!(rendered.contains("throughput vs rate"));
//! assert!(rendered.contains("NHop"));
//! ```

#![forbid(unsafe_code)]

mod bars;
mod canvas;
mod line;

pub use bars::BarChart;
pub use canvas::BrailleCanvas;
pub use line::{LineChart, Series};
