//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `expN` module owns one table/figure: it builds the workload at the
//! documented scale-down, runs the relevant pipelines, and prints the same
//! rows/series the paper reports (plus CSV dumps for plotting). The
//! `experiments` binary dispatches subcommands to these modules.
//!
//! Scale-down policy (see DESIGN.md §2 and EXPERIMENTS.md): graphs are
//! 10³–10⁴× smaller than the paper's, and the simulated cluster's fixed
//! per-phase overheads are shrunk proportionally so that the variable
//! (per-byte / per-FLOP) regime the paper operates in stays visible.
//! Ratios and shapes are the reproduction target, not absolute numbers.

pub mod ctx;
pub mod report;
pub mod workloads;

pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

pub use ctx::ExpCtx;
