//! Experiment harness regenerating every figure of the paper's evaluation
//! (Section 5), plus the ablations called out in DESIGN.md.
//!
//! The heavy lifting lives in this library so that the `experiments`
//! binary, the integration tests, and the Criterion benches all share one
//! implementation:
//!
//! * [`experiments`] — the sweep driver: a figure is a list of cells
//!   (configuration, destination count, router) run over the scale's
//!   networks, tallied per cell; plus the two ablations that simulate no
//!   tasks (tree length, mobility);
//! * [`campaign`] — the fault-injection cells judged by the
//!   delivery-guarantee oracle (`experiments guarantees`, `BENCH_6.json`);
//! * [`table`] — plain-text table rendering and CSV output;
//! * [`chart`] — SVG line charts, regenerating the figures themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod chart;
pub mod experiments;
pub mod table;

pub use chart::LineChart;
pub use experiments::{panel, sweep, Cell, Router, Scale, Tally};
pub use table::{render_table, write_csv};
