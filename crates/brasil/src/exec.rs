//! The compiled class, and the behavior that runs it.
//!
//! [`analyze`](crate::analyze()) checks a class and lowers it to a
//! [`CompiledClass`] (schema + query plan + update rules);
//! [`BrasilBehavior`] lowers that once more, to the flat register program
//! of [`vm`](mod@crate::vm), and runs it as a [`brace_core::Behavior`], so
//! compiled scripts run unchanged on the single-node engine and on every
//! worker of the distributed runtime — which is the whole point of the
//! language ("hides all the complexities of modeling computations in
//! MapReduce and parallel programming").
//!
//! ## NIL semantics
//!
//! BRASIL specifies weak-reference semantics: a value derived from an agent
//! that is not visible resolves to NIL, NIL propagates through expressions,
//! and aggregates ignore NIL (Appendix B). An effect assignment whose value
//! is NIL is skipped. In the executable subset, loop variables are always
//! visible (the runtime materializes exactly the visible region — the two
//! sides of the paper's Theorem 1), so NIL is only reachable through
//! undefined arithmetic, which maps NaN → NIL at `const` bindings and
//! assignment boundaries. The tree walker in
//! [`reference`](mod@crate::reference) spells these rules out with
//! `Option<f64>`; the register program carries NIL as a per-lane mask.

use crate::plan::{ProbeBounds, QueryPlan, UpdateRule};
use crate::reference::ReferenceBehavior;
use crate::vm::Program;
use brace_common::{AgentId, DetRng, Rect, Result, Vec2};
use brace_core::behavior::{Behavior, Neighbors, UpdateCtx};
use brace_core::effect::EffectWriter;
use brace_core::schema::SchemaBuilder;
use brace_core::{Agent, AgentRef as RowRef, AgentSchema, Combinator, QuerySlice, UpdateChunk};

/// A fully compiled agent class.
#[derive(Debug, Clone)]
pub struct CompiledClass {
    schema: AgentSchema,
    pub query: QueryPlan,
    pub updates: Vec<UpdateRule>,
    /// Probe-rect bounds proven by the optimizer's pushdown; `None` until
    /// (and unless) it derives any.
    pub probe_bounds: Option<ProbeBounds>,
}

impl CompiledClass {
    /// A class from its plan. `schema` carries the name, the state fields
    /// and the bounds; each of `effects`, in slot order, is added remote
    /// exactly when `query` assigns it to another agent (a
    /// `PStmt::RemoteEffect` target), and local-only otherwise.
    pub(crate) fn new(
        mut schema: SchemaBuilder,
        effects: impl Iterator<Item = (String, Combinator)>,
        query: QueryPlan,
        updates: Vec<UpdateRule>,
    ) -> Result<CompiledClass> {
        let remote = query.remote_fields();
        for (slot, (name, combinator)) in effects.enumerate() {
            schema = if remote.contains(&(slot as u16)) {
                schema.remote_effect(name, combinator)
            } else {
                schema.effect(name, combinator)
            };
        }
        Ok(CompiledClass { schema: schema.build()?, query, updates, probe_bounds: None })
    }

    pub fn schema(&self) -> &AgentSchema {
        &self.schema
    }

    /// The range-probe rect for an agent at `pos`: the visibility square,
    /// tightened by whatever bounds pushdown proved.
    pub fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
        let rect = Rect::centered(pos, vis);
        match &self.probe_bounds {
            Some(b) => b.tighten(pos, rect),
            None => rect,
        }
    }

    /// Rebuild with a different query plan (used by the optimizer). The
    /// schema's remote fields are re-derived from the plan; the derived
    /// probe bounds are dropped — they describe the *old* plan, and the
    /// optimizer derives them once, after its last rewrite.
    pub fn with_query(&self, query: QueryPlan) -> CompiledClass {
        let mut b = AgentSchema::builder(self.schema.name())
            .visibility(self.schema.visibility())
            .reachability(self.schema.reachability());
        for s in self.schema.state_defs() {
            b = b.state(s.name.clone());
        }
        let effects = self.schema.effect_defs().iter().map(|e| (e.name.clone(), e.combinator));
        CompiledClass::new(b, effects, query, self.updates.clone()).expect("schema rebuilt from a valid schema")
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// A compiled class as a runnable behavior: the class and the register
/// program lowered from it, which is all that runs.
#[derive(Debug, Clone)]
pub struct BrasilBehavior {
    class: CompiledClass,
    program: Program,
}

impl BrasilBehavior {
    pub fn new(class: CompiledClass) -> Self {
        let program = crate::vm::lower(&class);
        BrasilBehavior { class, program }
    }

    pub fn class(&self) -> &CompiledClass {
        &self.class
    }

    /// The same class run by the tree-walking specification
    /// ([`reference`](mod@crate::reference)) — what tests compare this
    /// behavior against, bit for bit. No scenario, CLI or serve path builds it.
    pub fn reference(&self) -> ReferenceBehavior {
        ReferenceBehavior::new(self.class.clone())
    }
}

impl Behavior for BrasilBehavior {
    fn schema(&self) -> &AgentSchema {
        self.class.schema()
    }

    fn query(&self, me: RowRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        self.program.query(me, neighbors, eff, rng);
    }

    /// The register program over a run of members at a time, each body op
    /// once over the run's `(member, candidate)` pairs.
    fn query_slice(&self, slice: &mut QuerySlice<'_, '_>) {
        self.program.query_slice(slice);
    }

    fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
        self.class.probe_rect(pos, vis)
    }

    /// A query with no loop reads no neighbour, for any agent: the engine
    /// opens no block and runs no filter for its members. Its walk over an
    /// empty neighbourhood is the walk over a full one, since nothing in it
    /// looks at the candidates.
    fn reads_neighbors(&self, _me: RowRef<'_>) -> bool {
        self.program.reads_neighbors()
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        self.program.update(me, &ctx.rng);
    }

    /// The register program over a lane of agents per pass, read straight
    /// off the chunk's columns (a script never kills or spawns).
    fn update_rows(
        &self,
        chunk: &mut UpdateChunk<'_>,
        _tick: u64,
        root: &DetRng,
        _spawns: &mut Vec<(Vec2, Vec<f64>)>,
        _parents: &mut Vec<AgentId>,
    ) {
        self.program.update_rows(chunk, root, self.schema().reachability());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::parse;
    use brace_common::{AgentId, Vec2};
    use brace_core::Simulation;
    use brace_spatial::IndexKind;

    fn compile_src(src: &str) -> CompiledClass {
        analyze(&parse(src).unwrap().classes[0]).unwrap()
    }

    const COUNTER: &str = r#"
        class Bird {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float seen : n;
            private effect float n : sum;
            public void run() {
                foreach (Bird p : Extent<Bird>) { n <- 1; }
            }
        }
    "#;

    fn grid_agents(schema: &AgentSchema, n: usize, gap: f64) -> Vec<Agent> {
        (0..n).map(|i| Agent::new(AgentId::new(i as u64), Vec2::new(i as f64 * gap, 0.0), schema)).collect()
    }

    #[test]
    fn neighbor_count_script_counts_correctly() {
        let class = compile_src(COUNTER);
        let behavior = BrasilBehavior::new(class);
        let agents = grid_agents(behavior.schema(), 5, 0.9);
        let mut sim = Simulation::builder(behavior).agents(agents).seed(1).build().unwrap();
        sim.step();
        let seen: Vec<f64> = sim.agents().iter().map(|a| a.state[0]).collect();
        // Ends see 1 neighbor; middles see 2 (visibility 1.0, gap 0.9).
        assert_eq!(seen, vec![1.0, 2.0, 2.0, 2.0, 1.0]);
    }

    /// Theorem 1 (empirical form): the engine materializes exactly the
    /// visible region, so a script's foreach sees precisely the agents
    /// within the `#range` bound — the weak-reference semantics and the
    /// replica-filtering implementation agree.
    #[test]
    fn theorem1_visibility_semantics_match_runtime_filtering() {
        let class = compile_src(COUNTER);
        let behavior = BrasilBehavior::new(class);
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(3);
        let agents: Vec<Agent> = (0..60)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 10.0), rng.range(0.0, 10.0)), &schema))
            .collect();
        let reference: Vec<f64> = agents
            .iter()
            .map(|a| {
                agents
                    .iter()
                    .filter(|b| b.id != a.id && (b.pos.x - a.pos.x).abs() <= 1.0 && (b.pos.y - a.pos.y).abs() <= 1.0)
                    .count() as f64
            })
            .collect();
        let mut sim = Simulation::builder(behavior).agents(agents).seed(9).build().unwrap();
        sim.step();
        let got: Vec<f64> = sim.agents().iter().map(|a| a.state[0]).collect();
        assert_eq!(got, reference);
    }

    #[test]
    fn update_rules_are_simultaneous() {
        // swapx/swapy exchange values; simultaneous semantics swap them,
        // sequential semantics would duplicate one.
        let src = r#"
            class S {
                public state float a : b;
                public state float b : a;
                public void run() {}
            }
        "#;
        let class = compile_src(src);
        let behavior = BrasilBehavior::new(class);
        let schema = behavior.schema().clone();
        let mut agent = Agent::new(AgentId::new(0), Vec2::ZERO, &schema);
        agent.state = vec![1.0, 2.0];
        let mut sim = Simulation::builder(behavior).agents(vec![agent]).build().unwrap();
        sim.step();
        assert_eq!(sim.agents()[0].state, vec![2.0, 1.0]);
    }

    #[test]
    fn reachability_crops_movement() {
        let src = r#"
            class M {
                public state float x : x + 100 #range[-1, 1];
                public state float y : y #range[-1, 1];
                public void run() {}
            }
        "#;
        let behavior = BrasilBehavior::new(compile_src(src));
        let schema = behavior.schema().clone();
        let agent = Agent::new(AgentId::new(0), Vec2::ZERO, &schema);
        let mut sim = Simulation::builder(behavior).agents(vec![agent]).build().unwrap();
        sim.step();
        assert_eq!(sim.agents()[0].pos.x, 1.0, "movement cropped to the reachable region");
    }

    #[test]
    fn effect_read_after_loop_sees_local_aggregate() {
        let src = r#"
            class R {
                public state float x : x #range[-5, 5];
                public state float y : y #range[-5, 5];
                public state float res : flag;
                private effect float n : sum;
                private effect float flag : max;
                public void run() {
                    foreach (R p : Extent<R>) { n <- 1; }
                    if (n >= 2) { flag <- 1; }
                }
            }
        "#;
        let behavior = BrasilBehavior::new(compile_src(src));
        let schema = behavior.schema().clone();
        let agents: Vec<Agent> =
            (0..3).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &schema)).collect();
        let mut sim = Simulation::builder(behavior).agents(agents).build().unwrap();
        sim.step();
        // All three see 2 neighbors -> flag set.
        for a in sim.agents() {
            assert_eq!(a.state[0], 1.0);
        }
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let src = r#"
            class J {
                public state float x : x + rand() #range[-1, 1];
                public state float y : y #range[-1, 1];
                public void run() {}
            }
        "#;
        let run = |seed| {
            let behavior = BrasilBehavior::new(compile_src(src));
            let schema = behavior.schema().clone();
            let agents: Vec<Agent> =
                (0..10).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64 * 3.0, 0.0), &schema)).collect();
            let mut sim = Simulation::builder(behavior).agents(agents).seed(seed).build().unwrap();
            sim.run(3);
            sim.agents().iter().map(|a| a.pos.x).collect::<Vec<_>>()
        };
        assert_eq!(run(4), run(4));
        assert_ne!(run(4), run(5));
    }

    #[test]
    fn nonlocal_script_assigns_remote_effects() {
        let src = r#"
            class P {
                public state float x : x #range[-2, 2];
                public state float y : y #range[-2, 2];
                public state float hits : got;
                private effect float got : sum;
                public void run() {
                    foreach (P p : Extent<P>) { p.got <- 1; }
                }
            }
        "#;
        let class = compile_src(src);
        assert!(class.schema().is_remote(brace_common::FieldId::new(0)));
        let behavior = BrasilBehavior::new(class);
        let schema = behavior.schema().clone();
        let agents: Vec<Agent> =
            (0..4).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &schema)).collect();
        let mut sim = Simulation::builder(behavior).agents(agents).index(IndexKind::Join).build().unwrap();
        sim.step();
        // Line of 4 with visibility 2: ends are hit by 2, middles by 3.
        let hits: Vec<f64> = sim.agents().iter().map(|a| a.state[0]).collect();
        assert_eq!(hits, vec![2.0, 3.0, 3.0, 2.0]);
    }

    #[test]
    fn division_by_zero_yields_nil_and_skips_assignment() {
        // 1/abs(x - p.x) is infinite for coincident agents (the paper's own
        // fish script has this hazard); inf is a number and aggregates, but
        // 0/0 is NaN -> NIL -> skipped.
        let src = r#"
            class D {
                public state float x : x #range[-1, 1];
                public state float y : y #range[-1, 1];
                public state float got : n;
                private effect float n : sum;
                public void run() {
                    foreach (D p : Extent<D>) {
                        n <- (x - p.x) / abs(x - p.x);
                    }
                }
            }
        "#;
        let behavior = BrasilBehavior::new(compile_src(src));
        let schema = behavior.schema().clone();
        // Two coincident agents: (x - p.x)/|x - p.x| = 0/0 = NaN -> skipped.
        let agents: Vec<Agent> = (0..2).map(|i| Agent::new(AgentId::new(i), Vec2::ZERO, &schema)).collect();
        let mut sim = Simulation::builder(behavior).agents(agents).build().unwrap();
        sim.step();
        for a in sim.agents() {
            assert_eq!(a.state[0], 0.0, "NIL assignment must be skipped, leaving the sum identity");
        }
    }

    #[test]
    fn clamp_with_nan_bounds_skips_the_assignment_instead_of_panicking() {
        // `0/0` bounds: on constants this used to panic the const-fold pass
        // at compile time, on run-time values the tick. Both yield NaN now,
        // which is NIL at the assignment: the field keeps its value.
        let src = r#"
            class N {
                public state float x : x #range[-1, 1];
                public state float y : y #range[-1, 1];
                public state float v : clamp(v + 1, (v - v) / (v - v), (x - x) / (x - x));
                public state float w : clamp(w + 1, 0 / 0, 0 / 0);
                public state float got : e;
                private effect float e : sum;
                public void run() {
                    foreach (N p : Extent<N>) {
                        e <- clamp(p.v, (x - x) / (x - x), 0 / 0);
                        e <- clamp(1, 0 / 0, 0 / 0);
                    }
                }
            }
        "#;
        let behavior = crate::Script::compile(src).expect("folding NaN bounds must not panic").behavior("N").unwrap();
        let schema = behavior.schema().clone();
        let agents: Vec<Agent> = (0..3)
            .map(|i| {
                let mut a = Agent::new(AgentId::new(i), Vec2::new(i as f64 * 0.5, 0.0), &schema);
                a.state = vec![7.0, 9.0, 5.0];
                a
            })
            .collect();
        let mut sim = Simulation::builder(behavior).agents(agents).build().unwrap();
        sim.run(2);
        for a in sim.agents() {
            assert_eq!(&a.state[..2], &[7.0, 9.0], "NaN-bounded clamps leave their fields alone");
            assert_eq!(a.state[2], 0.0, "NaN effect values are skipped: the sum stays at its identity");
        }
    }

    #[test]
    fn locals_bind_and_scope() {
        let src = r#"
            class L {
                public state float x : x #range[-3, 3];
                public state float y : y #range[-3, 3];
                public state float out : acc;
                private effect float acc : sum;
                public void run() {
                    const float two = 1 + 1;
                    foreach (L p : Extent<L>) {
                        const float d = abs(x - p.x);
                        if (d < two) { acc <- d; }
                    }
                }
            }
        "#;
        let behavior = BrasilBehavior::new(compile_src(src));
        let schema = behavior.schema().clone();
        let agents: Vec<Agent> =
            (0..3).map(|i| Agent::new(AgentId::new(i), Vec2::new(i as f64, 0.0), &schema)).collect();
        let mut sim = Simulation::builder(behavior).agents(agents).build().unwrap();
        sim.step();
        // Agent 1 sees agents 0 and 2 at distance 1 each (< 2): acc = 2.
        assert_eq!(sim.agents()[1].state[0], 2.0);
        // Agents 0/2 see distances 1 and 2; only 1 < 2 counts: acc = 1.
        assert_eq!(sim.agents()[0].state[0], 1.0);
    }
}
