//! The frozen workload table and the bench-owned hotspot scenario.
//!
//! Work is fixed, not time: every size below is a constant, identical on a
//! parent commit and on a change, so `attempted` (= `PASSES · ops`) is a
//! constant per workload and op `k` does the same work in every pass.
//! `BENCHMARK.json` admits no size keys, so the table lives here; `--check`
//! pins `attempted` against it.

use brace::common::{DetRng, Result};
use brace::core::Agent;
use brace::scenario::{Registry, Scenario, ScenarioSetup};

/// Passes per untraced run (`R`): each replays the same op sequence from
/// the same seed state, and per-op medians are taken across them.
pub const PASSES: usize = 5;

/// Seed at which `goldens.json` pins the final-world checksums.
pub const GOLDEN_SEED: u64 = 42;

#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    pub workers: usize,
    pub epoch_len: u64,
    pub checkpoint_every: u64,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// One op = `ticks_per_op` ticks of `scenario` through `SimHandle::run`
    /// (one tick single-node, one epoch on the cluster).
    Sim { scenario: &'static str, agents: usize, hotspot: bool, cluster: Option<ClusterSpec> },
    /// One op = `POST /runs` → `GET /runs/:id/stream` to the terminal line.
    Serve { agents: usize, ticks: u64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Warm-up ops per pass (`W`): timed, charged to set-up.
    pub warmup: usize,
    /// Measured ops per pass (`N`).
    pub ops: usize,
    pub kind: Kind,
}

impl Workload {
    pub fn attempted(&self) -> u64 {
        (PASSES * self.ops) as u64
    }

    /// Whether the work runs on threads other than the harness's own (the
    /// cluster's workers, the server's pool) — picks the speed reference.
    pub fn computes_off_thread(&self) -> bool {
        !matches!(self.kind, Kind::Sim { cluster: None, .. })
    }
}

/// Sizes were timed on the reference container (2 vCPUs under KVM) so a
/// pass lands near 2.5 s and a five-pass run near 13 s when the machine is
/// quiet: the pipeline's 92 runs plus two builds must fit its 3420 s cap
/// even when the machine runs 1.8× slow throughout.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fish-uniform",
        warmup: 5,
        ops: 30,
        kind: Kind::Sim { scenario: "fish", agents: 12_000, hotspot: false, cluster: None },
    },
    Workload {
        name: "fish-hotspot",
        warmup: 3,
        ops: 30,
        kind: Kind::Sim { scenario: "fish", agents: 5_000, hotspot: true, cluster: None },
    },
    Workload {
        name: "predator-cluster2",
        warmup: 2,
        ops: 30,
        kind: Kind::Sim {
            scenario: "predator",
            agents: 40_000,
            hotspot: false,
            cluster: Some(ClusterSpec { workers: 2, epoch_len: 5, checkpoint_every: 4 }),
        },
    },
    Workload { name: "serve-mix", warmup: 6, ops: 45, kind: Kind::Serve { agents: 4_000, ticks: 20 } },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---- fish-hotspot ----------------------------------------------------------

pub const HOTSPOT_CLUSTERS: usize = 12;
const LATTICE: (usize, usize) = (4, 3);

/// Registry `fish` with its positions re-drawn into Zipf-weighted Gaussian
/// clusters — the recipe of `crates/bench`'s private `hotspotize`
/// (12 clusters, weight ∝ 1/(k+1), σ = extent/64), with two changes that
/// keep the *amount of work* independent of the seed, so runs at different
/// seeds stay comparable: cluster sizes are exact quotas instead of
/// multinomial draws (the query cost goes with Σ nₖ², and a ±2 % draw on the
/// largest cluster is ±4 % work), and centres sit jittered on a 4×3 lattice
/// (so two heavy clusters never merge and none is clipped by the border).
pub struct HotspotFish {
    registry: Registry,
}

impl HotspotFish {
    pub fn new() -> HotspotFish {
        HotspotFish { registry: Registry::builtin() }
    }

    fn base(&self) -> &dyn Scenario {
        self.registry.get("fish").expect("registry ships `fish`")
    }
}

/// `n` split over the clusters in proportion to 1/(k+1), largest-remainder
/// rounding, so the quotas sum to `n` exactly.
pub fn zipf_quotas(n: usize) -> [usize; HOTSPOT_CLUSTERS] {
    let total: f64 = (0..HOTSPOT_CLUSTERS).map(|k| 1.0 / (k + 1) as f64).sum();
    let exact: Vec<f64> = (0..HOTSPOT_CLUSTERS).map(|k| n as f64 / (k + 1) as f64 / total).collect();
    let mut quotas = [0usize; HOTSPOT_CLUSTERS];
    for (q, e) in quotas.iter_mut().zip(&exact) {
        *q = e.floor() as usize;
    }
    let mut by_remainder: Vec<usize> = (0..HOTSPOT_CLUSTERS).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())).then(a.cmp(&b)));
    let short = n - quotas.iter().sum::<usize>();
    for &k in by_remainder.iter().take(short) {
        quotas[k] += 1;
    }
    quotas
}

/// Positions for `n` agents inside `[lo, hi]²`; a pure function of its
/// arguments.
pub fn hotspot_positions(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<(f64, f64)> {
    let root = DetRng::seed_from_u64(seed);
    let extent = hi - lo;
    let sigma = extent / 64.0;
    let (cols, rows) = LATTICE;
    let (cw, ch) = (extent / cols as f64, extent / rows as f64);

    // Which lattice cell carries which Zipf rank: a seeded shuffle.
    let mut cells: Vec<usize> = (0..HOTSPOT_CLUSTERS).collect();
    let mut pick = root.stream(0xC3);
    for i in (1..cells.len()).rev() {
        cells.swap(i, pick.below(i as u64 + 1) as usize);
    }
    let centers: Vec<(f64, f64)> = cells
        .iter()
        .map(|&cell| {
            let (cx, cy) = ((cell % cols) as f64 + 0.5, (cell / cols) as f64 + 0.5);
            (lo + (cx + pick.range(-0.25, 0.25)) * cw, lo + (cy + pick.range(-0.25, 0.25)) * ch)
        })
        .collect();

    // Exact quotas, then a seeded shuffle so cluster membership is not
    // correlated with agent id (row order is id order: no locality gift).
    let mut label: Vec<u8> =
        zipf_quotas(n).iter().enumerate().flat_map(|(k, &q)| std::iter::repeat_n(k as u8, q)).collect();
    let mut shuffle = root.stream(0xC4);
    for i in (1..label.len()).rev() {
        label.swap(i, shuffle.below(i as u64 + 1) as usize);
    }

    label
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let mut r = root.stream(i as u64 + 0x100);
            let (cx, cy) = centers[k as usize];
            ((cx + r.normal() * sigma).clamp(lo, hi), (cy + r.normal() * sigma).clamp(lo, hi))
        })
        .collect()
}

impl Scenario for HotspotFish {
    fn name(&self) -> &'static str {
        "fish-hotspot"
    }
    fn description(&self) -> &'static str {
        "registry fish, positions re-drawn into 12 Zipf-weighted Gaussian clusters (perfbench-owned)"
    }
    fn default_population(&self) -> usize {
        5_000
    }
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup> {
        let mut setup = self.base().build(Some(size.unwrap_or(self.default_population())), seed)?;
        // The school is a disc around the origin; `space_x` is its x-extent.
        let (lo, hi) = setup.space_x;
        let positions = hotspot_positions(setup.population.len(), lo, hi, seed);
        for (a, (x, y)) in setup.population.iter_mut().zip(positions) {
            a.pos.x = x;
            a.pos.y = y;
        }
        Ok(setup)
    }
    fn check(&self, world: &[Agent]) -> Result<()> {
        self.base().check(world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(p: &[(f64, f64)]) -> Vec<u8> {
        p.iter().flat_map(|(x, y)| x.to_le_bytes().into_iter().chain(y.to_le_bytes())).collect()
    }

    #[test]
    fn hotspot_generator_is_a_pure_function_of_the_seed() {
        let a = hotspot_positions(600, -20.0, 20.0, 42);
        let b = hotspot_positions(600, -20.0, 20.0, 42);
        let c = hotspot_positions(600, -20.0, 20.0, 43);
        assert_eq!(bytes(&a), bytes(&b), "same seed ⇒ same bytes");
        assert_ne!(bytes(&a), bytes(&c), "different seed ⇒ different bytes");
        assert!(a.iter().all(|&(x, y)| (-20.0..=20.0).contains(&x) && (-20.0..=20.0).contains(&y)));
    }

    #[test]
    fn quotas_are_exact_and_zipf_shaped() {
        for n in [12, 600, 6_000, 6_001] {
            let q = zipf_quotas(n);
            assert_eq!(q.iter().sum::<usize>(), n);
            assert!(q.windows(2).all(|w| w[0] >= w[1]), "{q:?}");
        }
        // Largest cluster carries 1/H₁₂ ≈ 32.2 % of the population.
        assert_eq!(zipf_quotas(6_000)[0], 1_933);
    }

    #[test]
    fn scenario_build_repositions_without_touching_state() {
        let s = HotspotFish::new();
        let hot = s.build(Some(300), 7).unwrap();
        let base = Registry::builtin().get("fish").unwrap().build(Some(300), 7).unwrap();
        assert_eq!(hot.population.len(), base.population.len());
        assert!(hot.population.iter().zip(&base.population).all(|(h, b)| h.id == b.id && h.state == b.state));
        assert!(hot.population.iter().zip(&base.population).any(|(h, b)| h.pos != b.pos));
        s.check(&hot.population).unwrap();
    }

    #[test]
    fn table_names_are_unique_and_sizes_hold_the_floor() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.ops >= 30, "N never below 30");
        }
    }
}
