//! # brace-core — the state-effect pattern and the single-node engine
//!
//! The paper observes (§2.1) that nearly all behavioral simulations share a
//! structure it calls the **state-effect pattern**: agent attributes divide
//! into *states* (public, frozen during a tick, updated only at tick
//! boundaries) and *effects* (write-only intermediate values aggregated by
//! decomposable, order-independent *combinator* functions). Each tick is a
//! **query phase** (read states / assign effects) followed by an **update
//! phase** (read own state + aggregated effects / write own next state).
//! Combined with the **neighborhood property** — agents only interact within
//! a bounded *visible region* and move within a bounded *reachable region* —
//! a tick becomes a spatial self-join that can be partitioned.
//!
//! This crate implements that model:
//!
//! * [`combinator`] — the ⊕ aggregate operators with their identities;
//! * [`schema`] — agent schemas: state fields, effect fields with
//!   combinators, visibility/reachability bounds;
//! * [`agent`] — the dynamic agent record `⟨oid, s, e⟩` of Appendix A,
//!   plus the struct-of-arrays [`AgentPool`] the executor runs on;
//! * [`behavior`] — the [`Behavior`] trait every model
//!   (hand-coded Rust or compiled BRASIL) implements, plus the
//!   [`Neighbors`] view and
//!   [`EffectWriter`] through which the query phase
//!   runs;
//! * [`effect`] — staged, order-independent effect aggregation;
//! * [`executor`] — the tick's two sharded phase functions (sort-merge join
//!   query shards in parallel → deterministic merge; update), the unit the
//!   MapReduce runtime runs per partition, plus the row-oriented oracle;
//! * [`engine`] — [`Simulation`], the single-node engine: those phases run
//!   back to back over one partition, with its builder and the population
//!   check ([`check_population`]) both engines share;
//! * [`metrics`] — per-tick timing and throughput accounting.
//!
//! This crate is the *engine* layer. User-facing entry points live one
//! level up in `brace_scenario`: a `Scenario` registry (every workload —
//! hand-coded or BRASIL-compiled — behind one trait) and a backend-erased
//! `Runner` that drives a `Simulation` or a `brace_mapreduce` cluster
//! through one facade, bit-identically.

pub mod agent;
pub mod behavior;
pub mod combinator;
pub mod effect;
pub mod engine;
pub mod executor;
pub mod metrics;
pub mod schema;

pub use agent::{Agent, AgentPool, AgentRead, AgentRef, PoolView};
pub use behavior::{Behavior, NeighborRef, Neighbors, UpdateCtx};
pub use combinator::Combinator;
pub use effect::{EffectTable, EffectWrite, EffectWriter};
pub use engine::{check_population, Simulation, SimulationBuilder};
pub use executor::{PendingSpawn, TickScratch};
pub use metrics::TickMetrics;
pub use schema::{AgentSchema, SchemaBuilder};
