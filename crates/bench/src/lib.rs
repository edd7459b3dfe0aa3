//! Experiment harness regenerating every figure and table of the paper.
//!
//! Each `figN`/`tableN` function runs the corresponding experiment and
//! returns typed rows; the `paper` binary prints them. Absolute numbers are
//! machine-dependent — the *shape* (who wins, growth orders, crossovers)
//! is what reproduces the paper; each experiment's expected shape is
//! documented on its function and asserted in `tests/paper_shapes.rs`.
//! Performance is measured by `perfbench`, not here.

pub mod experiments;
pub mod table;

pub use experiments::*;

/// Scale presets: `Small` finishes in seconds per experiment (CI-friendly);
/// `Paper` approaches the paper's problem sizes (minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Small,
    Paper,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Workers available for scale-up experiments: capped so laptop runs stay
/// honest (hyper-threads masquerading as nodes would flatten the curves).
pub fn max_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
}
