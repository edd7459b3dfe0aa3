//! # brace-scenario — the scenario registry and the backend-erased driver
//!
//! The paper's central promise is *"write the behavior once, run it at any
//! scale"*: the same simulation program executes on one node or on a
//! MapReduce cluster. The runtime half of that promise lives in
//! `brace_core` (the single-node engine) and `brace_mapreduce` (the
//! N-worker cluster, bit-identical to the single node); this crate is the API
//! half:
//!
//! * [`Scenario`] — what a *workload* is: a name, a behavior (hand-coded
//!   Rust or BRASIL-compiled), a deterministic seeded population generator,
//!   default bounds/index/epoch configuration, and post-run sanity checks.
//! * [`Registry`] — the named collection of scenarios. [`Registry::builtin`]
//!   carries every in-tree workload (the paper's fish / traffic / predator,
//!   the three BRASIL scripts, and the registry-era scenarios — an SIR
//!   epidemic and an obstacle-field flock); user code can
//!   [`register`](Registry::register) its own.
//! * [`Runner`] / [`SimHandle`] — the backend-erased driver: pick a
//!   [`Backend`] (`SingleNode` or `Cluster`), launch, run ticks, observe
//!   progress through [`Observer`] hooks, collect the world and its
//!   [`world_checksum`]. One facade, both engines, no per-backend call
//!   sites.
//! * Durable runs — a [`Runner`] run on a cluster backend with a run
//!   directory (`ClusterConfig::run_dir`: write-ahead manifest + fsynced
//!   checkpoints) is a crash-safe *job*; [`DurableRunner`] resumes one
//!   bit-identically after a process restart (`brace run --resume
//!   <run-id>`) and lists what is on disk.
//!
//! The load-bearing invariant — enforced by the registry-driven conformance
//! suite in `tests/scenario_conformance.rs` — is that every registered
//! scenario's [`conformance_setup`] produces **bit-identical** worlds on both
//! backends. Adding a scenario to the registry therefore buys distributed
//! execution, CLI exposure (`brace run --scenario <name>`), bench coverage
//! and the conformance proof, all without touching any of those call sites.

pub mod builtin;
pub mod durable;
pub mod jobline;
pub mod runner;

pub use builtin::brasil_unoptimized;
pub use durable::{DurableRunner, RunSummary};
pub use jobline::{index_by_name, JobSpec, RunKey};
pub use runner::{fit_epoch, Backend, Observer, Progress, RunReport, Runner, SimHandle, Throttle};

use brace_common::{BraceError, Result};
use brace_core::{Agent, Behavior};
use std::sync::Arc;

/// Everything the driver needs to launch one scenario instance: the
/// behavior, its initial population, and the run configuration the scenario
/// considers its defaults.
pub struct ScenarioSetup {
    /// The simulation program, shared by every worker.
    pub behavior: Arc<dyn Behavior>,
    /// Deterministic initial population (a pure function of the build seed).
    pub population: Vec<Agent>,
    /// Master-coordination cadence for cluster runs (ticks per epoch).
    pub epoch_len: u64,
    /// x-extent of the initial 1-D column partitioning for cluster runs.
    pub space_x: (f64, f64),
}

/// A named, self-describing workload.
///
/// Implementations must be deterministic end to end: `build(size, seed)`
/// must return the same behavior and population for the same arguments on
/// every machine, so that a scenario name plus a seed fully identifies a
/// simulation.
pub trait Scenario: Send + Sync {
    /// Registry name (unique, kebab-case; the CLI and bench key on it).
    fn name(&self) -> &'static str;

    /// One-line human description.
    fn description(&self) -> &'static str;

    /// Population size used when [`Scenario::build`] gets `None`.
    fn default_population(&self) -> usize;

    /// Construct the behavior and a deterministic seeded population of
    /// roughly `size` agents (scenarios whose population derives from
    /// other parameters — e.g. traffic's road density — may differ
    /// slightly), plus the scenario's default run configuration.
    fn build(&self, size: Option<usize>, seed: u64) -> Result<ScenarioSetup>;

    /// Post-run sanity checks over the collected world (model invariants:
    /// conserved counts, bounded states, agents out of obstacles, …).
    /// Runner convenience paths ([`Runner::run`], the CLI) call this after
    /// every run.
    fn check(&self, world: &[Agent]) -> Result<()> {
        let _ = world;
        Ok(())
    }
}

/// Population size of every scenario's [`conformance_setup`]: big enough
/// that a 2-worker split has real boundary traffic, small enough that the
/// full registry × both backends suite stays CI-cheap.
pub const CONFORMANCE_POPULATION: usize = 300;

/// The reduced configuration the conformance suite certifies, the same for
/// every scenario: its default build at [`CONFORMANCE_POPULATION`]. Like
/// every run, it is bit-identical on every backend and worker count, on the
/// join and on the scan.
pub fn conformance_setup(scenario: &dyn Scenario, seed: u64) -> Result<ScenarioSetup> {
    scenario.build(Some(CONFORMANCE_POPULATION), seed)
}

/// The named scenario collection.
pub struct Registry {
    scenarios: Vec<Box<dyn Scenario>>,
}

impl Registry {
    /// An empty registry (build your own catalogue).
    pub fn empty() -> Registry {
        Registry { scenarios: Vec::new() }
    }

    /// The in-tree catalogue: every workload this repo ships.
    pub fn builtin() -> Registry {
        let mut r = Registry::empty();
        for s in builtin::all() {
            r.register(s).expect("builtin scenario names are unique");
        }
        r
    }

    /// Add a scenario; rejects duplicate names.
    pub fn register(&mut self, scenario: Box<dyn Scenario>) -> Result<()> {
        if self.get(scenario.name()).is_some() {
            return Err(BraceError::Config(format!("scenario `{}` is already registered", scenario.name())));
        }
        self.scenarios.push(scenario);
        Ok(())
    }

    /// Look a scenario up by name.
    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        self.scenarios.iter().find(|s| s.name() == name).map(|s| s.as_ref())
    }

    /// Like [`Registry::get`], but an error naming the alternatives.
    pub fn get_or_err(&self, name: &str) -> Result<&dyn Scenario> {
        self.get(name).ok_or_else(|| {
            BraceError::Config(format!("unknown scenario `{name}` (registered: {})", self.names().join(", ")))
        })
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.scenarios.iter().map(|s| s.name()).collect()
    }

    /// Iterate the scenarios in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.scenarios.iter().map(|s| s.as_ref())
    }

    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::builtin()
    }
}

/// FNV-1a over every bit of the world: ids, positions, states, effects,
/// liveness, in slice order. Position/state bits go in via `to_bits`, so
/// even a `-0.0` vs `0.0` flip moves the sum. This is the repo's canonical
/// world fingerprint — the golden-tick suite, the registry conformance
/// suite and the CLI all report it, so their numbers are directly
/// comparable. Callers compare worlds **sorted by agent id**
/// ([`SimHandle::world`] returns them that way).
pub fn world_checksum(agents: &[Agent]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn mix(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(PRIME)
    }
    let mut h = OFFSET;
    for a in agents {
        h = mix(h, a.id.raw());
        h = mix(h, a.pos.x.to_bits());
        h = mix(h, a.pos.y.to_bits());
        h = mix(h, a.alive as u64);
        for s in &a.state {
            h = mix(h, s.to_bits());
        }
        for e in &a.effects {
            h = mix(h, e.to_bits());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_is_populated_and_unique() {
        let r = Registry::builtin();
        assert!(r.len() >= 8, "expected the full catalogue, got {:?}", r.names());
        let mut names = r.names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), r.len(), "duplicate names");
        for s in r.iter() {
            assert!(!s.description().is_empty());
            assert!(s.default_population() > 0);
        }
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut r = Registry::builtin();
        let err = r.register(builtin::all().remove(0)).expect_err("duplicate must be rejected");
        assert!(err.to_string().contains("already registered"));
    }

    #[test]
    fn lookup_unknown_names_alternatives() {
        let r = Registry::builtin();
        let err = r.get_or_err("no-such-scenario").err().unwrap();
        assert!(err.to_string().contains("fish"), "{err}");
    }

    #[test]
    fn checksum_sees_every_bit() {
        let r = Registry::builtin();
        let setup = r.get("fish").unwrap().build(Some(10), 1).unwrap();
        let mut world = setup.population;
        let base = world_checksum(&world);
        world[3].pos.x = -world[3].pos.x;
        assert_ne!(base, world_checksum(&world));
    }
}
