//! Experiment harness regenerating every figure and table of the paper.
//!
//! Each `figN`/`tableN` function runs the corresponding experiment and
//! returns typed rows; the `paper` binary prints them. Absolute numbers are
//! machine-dependent — the *shape* (who wins, growth orders, crossovers)
//! is what reproduces the paper. Each experiment's expected shape is
//! documented on its function, and `tests/paper_shapes.rs` asserts it: one
//! named test per section the binary prints calls the same runner at
//! [`Scale::Small`], so `paper --scale small` prints exactly what the tests
//! check (in the same build profile). Performance is measured by
//! `perfbench`, not here.

pub mod experiments;
pub mod table;

pub use experiments::*;

/// Scale presets: `Small` is the miniature `tests/paper_shapes.rs` asserts,
/// seconds per experiment; `Paper` approaches the paper's problem sizes
/// (minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Small,
    Paper,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Workers available for scale-up experiments: capped so laptop runs stay
/// honest (hyper-threads masquerading as nodes would flatten the curves).
pub fn max_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(8)
}
