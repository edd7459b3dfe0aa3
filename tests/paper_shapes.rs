//! The paper's shapes, asserted on what the `paper` binary prints: every
//! test calls its `brace_bench` runner at `Scale::Small` and only asserts,
//! so `cargo run -p brace-bench -- all --scale small` shows the numbers
//! these tests check (in the same build profile). The full figures come
//! from `--scale paper`.

use brace_bench::{fig3, fig4, fig5, fig6, fig7, fig8, table2, Fig3Row, Scale};
use brace_common::stats::log_log_slope;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Held for the whole of every wall-clock test. The harness runs tests on
/// parallel threads, and a shape timed while another timed test keeps the
/// cores busy bends. A failed test poisons the lock; the next one takes it
/// anyway, so one failure does not fail the rest.
static WALL_CLOCK: Mutex<()> = Mutex::new(());

fn wall_clock() -> MutexGuard<'static, ()> {
    WALL_CLOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Figure 3's rows, timed once (under the lock) for both of its tests, so
/// neither holds the lock while it waits for the other's run.
fn fig3_rows() -> &'static [Fig3Row] {
    static ROWS: OnceLock<Vec<Fig3Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let _timing = wall_clock();
        fig3(Scale::Small)
    })
}

/// Figure 3's shape: without indexing, tick cost grows markedly faster
/// with population than with the tile join, whose probe order is the index
/// (the paper's prototype used a KD-tree). Wall-time growth exponents over
/// a 4x size range, with wide margins for scheduler noise.
#[test]
fn fig3_shape_indexing_changes_growth_order() {
    let slope = |secs: fn(&Fig3Row) -> f64| {
        log_log_slope(&fig3_rows().iter().map(|r| (r.agents as f64, secs(r))).collect::<Vec<_>>()).unwrap()
    };
    let slope_scan = slope(|r| r.noidx_tick_secs);
    let slope_join = slope(|r| r.idx_tick_secs);
    assert!(
        slope_scan > slope_join + 0.4,
        "scan must grow clearly faster than indexed: {slope_scan:.2} vs {slope_join:.2}"
    );
    assert!(slope_scan > 1.4, "scan growth must tend quadratic, got {slope_scan:.2}");
    assert!(slope_join < 1.5, "indexed growth must stay near-linear, got {slope_join:.2}");
}

/// MITSIM's role in Figure 3: the hand-coded baseline beats the generic
/// engine at equal physics on every road. The paper shows "comparable but
/// inferior"; we only assert the direction with a wide noise margin.
#[test]
fn fig3_shape_baseline_is_faster_than_generic_engine() {
    for r in fig3_rows() {
        let (base, brace) = (r.mitsim_tick_secs, r.idx_tick_secs);
        assert!(base < brace * 1.5, "hand-coded baseline should not lose badly at {}: {base}s vs {brace}s", r.segment);
    }
}

/// Figure 4's shape: the index's wall-time advantage shrinks as visibility
/// grows (probes return ever larger fractions of the school). The index is
/// the tile join.
#[test]
fn fig4_shape_index_advantage_shrinks_with_visibility() {
    let _timing = wall_clock();
    let rows = fig4(Scale::Small);
    let ratio = |i: usize| rows[i].noidx_tick_secs / rows[i].idx_tick_secs;
    let (small_vis, large_vis) = (ratio(0), ratio(rows.len() - 1));
    assert!(
        small_vis > large_vis * 1.4,
        "index advantage must shrink with visibility: {small_vis:.1}x -> {large_vis:.1}x"
    );
    assert!(small_vis > 2.0, "at small visibility the index must prune hard, got {small_vis:.1}x");
}

/// Figure 5's communication shape (timing-free): the non-local predator
/// needs a second communication round and ships effect bytes; the inverted
/// script does neither, and all four configurations end in the same world,
/// bit for bit.
#[test]
fn fig5_shape_inversion_eliminates_second_reduce_pass() {
    let r = fig5(Scale::Small);
    assert_eq!(r.rounds_nonlocal, 2);
    assert!(r.effect_bytes_nonlocal > 0);
    assert_eq!(r.rounds_inverted, 1);
    assert_eq!(r.effect_bytes_inverted, 0);
    assert!(r.worlds_bit_identical(), "the four configurations' final worlds differ");
}

/// Figure 6's shape on what a superstep is charged for (timing-free, so no
/// core count bends it): as the road grows with the worker count, agents
/// per worker per tick stay flat, and so do replica bytes per band. A
/// worker between two others receives two bands and one at either end of
/// the road one, so the mean worker receives 2(w − 1)/w of them.
#[test]
fn fig6_shape_work_and_bytes_per_worker_stay_flat() {
    let rows = fig6(Scale::Small);
    let per_band = |i: usize| {
        let w = rows[i].workers as f64;
        rows[i].replica_bytes_per_worker_tick * w / (2.0 * (w - 1.0))
    };
    assert!(rows.len() >= 3 && rows[0].workers >= 2, "{rows:?}");
    for (i, r) in rows.iter().enumerate() {
        let agents = r.agents_per_worker_tick / rows[0].agents_per_worker_tick;
        assert!((0.95..1.05).contains(&agents), "agents per worker at {} workers: {agents:.2}x", r.workers);
        let bytes = per_band(i) / per_band(0);
        assert!((0.9..1.1).contains(&bytes), "replica bytes per band at {} workers: {bytes:.2}x", r.workers);
    }
}

/// Figures 7/8's mechanism: a drifting school concentrates on one border
/// partition without load balancing; the balancer keeps ownership spread.
/// Asserted on agent counts (scheduler-independent).
#[test]
fn fig7_shape_load_balancer_tracks_drifting_school() {
    for r in fig7(Scale::Small) {
        assert_eq!(r.nolb.repartitions, 0);
        assert!(r.lb.repartitions >= 1, "balancer must act");
        let (imb_nolb, imb_lb) = (r.nolb.final_imbalance, r.lb.final_imbalance);
        assert!(imb_nolb > 3.0, "without LB nearly everything sits on one of 4 workers, got {imb_nolb}");
        assert!(imb_lb < 2.0, "with LB ownership stays spread, got {imb_lb}");
    }
}

/// Figure 8's shape on what drives its epoch times (the same runs as
/// Figure 7's test): without the balancer the busiest of the 4 workers'
/// share of the agents grows over the run until it holds nearly all of
/// them; with it, no epoch's busiest worker holds more than 60%.
#[test]
fn fig8_shape_busiest_share_grows_without_balancer() {
    let pair = fig8(Scale::Small);
    let (nolb, lb) = (&pair.nolb.busiest_share, &pair.lb.busiest_share);
    let half = nolb.len() / 2;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    assert!(nolb[0] < 0.5, "the school starts spread: {nolb:?}");
    assert!(mean(&nolb[half..]) > mean(&nolb[..half]), "without LB the share grows: {nolb:?}");
    assert!(nolb[nolb.len() - 1] > 0.75, "without LB one worker ends with nearly everything: {nolb:?}");
    assert!(lb.iter().all(|&share| share < 0.6), "with LB the share stays bounded: {lb:?}");
}

/// Table 2's shape in miniature: the two traffic engines agree on density
/// and velocity within a few percent after settling.
#[test]
fn table2_shape_engines_agree_on_aggregates() {
    for row in table2(Scale::Small).rows {
        assert!(row.velocity_rmspe < 0.15, "lane {} velocity RMSPE {}", row.lane, row.velocity_rmspe);
        assert!(row.density_rmspe < 0.35, "lane {} density RMSPE {}", row.lane, row.density_rmspe);
    }
}
