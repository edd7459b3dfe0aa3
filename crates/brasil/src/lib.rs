//! # BRASIL — the Big Red Agent SImulation Language
//!
//! BRASIL is the paper's agent-centric scripting language (§4): an
//! object-oriented surface where each class is an agent, every field is
//! tagged `state` or `effect`, the query phase is the `run()` method, and
//! update rules are attached to state fields. Its restrictions — iteration
//! only via `foreach` over the extent, effects write-only inside loops,
//! update rules reading only the agent's own fields — are exactly what lets
//! scripts compile to a dataflow plan that the BRACE runtime can partition.
//!
//! Pipeline (one module per stage):
//!
//! ```text
//!   source ──lexer──► tokens ──parser──► AST
//!          ──analyze──► dataflow plan (plan.rs, the "monad-algebra-lite"):
//!                       the state-effect checker lowers each expression
//!                       as it checks it, in one walk
//!          ──optimize──► plan (one straight line: const folding, dead
//!                        code, effect inversion on request and dead code
//!                        again, then visibility-predicate pushdown)
//!          ──vm::lower──► one flat register program (query + update),
//!                        every pure op value-numbered
//!          ──exec──► a `brace_core::Behavior` the engine runs anywhere
//! ```
//!
//! Every plan — optimized or not — runs through the one evaluator in
//! [`vm`]; the tree walker in [`mod@reference`] is the executable specification
//! tests hold it to, and nothing else calls it.
//!
//! The visibility `#range[lo, hi]` tags become the schema's visibility and
//! reachability bounds, which is where spatial-index selection happens: the
//! engine turns the `foreach` into an orthogonal range query. Weak-reference
//! visibility semantics (out-of-range reads resolve to NIL) are implemented
//! by NIL-propagating evaluation (a per-lane NIL mask in [`vm`]), and the equivalence of those semantics
//! with BRACE's replica filtering (the paper's Theorem 1) is asserted by
//! tests in `exec`.
//!
//! ## Example
//!
//! ```
//! use brasil::Script;
//! use brace_core::Behavior;
//!
//! let src = r#"
//!     class Fish {
//!         public state float x : x + vx #range[-1, 1];
//!         public state float y : y + vy #range[-1, 1];
//!         public state float vx : vx + avoidx / max(count, 1);
//!         public state float vy : vy + avoidy / max(count, 1);
//!         private effect float avoidx : sum;
//!         private effect float avoidy : sum;
//!         private effect int count : sum;
//!         public void run() {
//!             foreach (Fish p : Extent<Fish>) {
//!                 avoidx <- (x - p.x) / max(abs(x - p.x), 0.01);
//!                 avoidy <- (y - p.y) / max(abs(y - p.y), 0.01);
//!                 count <- 1;
//!             }
//!         }
//!     }
//! "#;
//! let script = Script::compile(src).expect("valid BRASIL");
//! let behavior = script.behavior("Fish").expect("class exists");
//! assert_eq!(behavior.schema().name(), "Fish");
//! ```

pub mod analyze;
pub mod ast;
pub mod exec;
pub mod optimize;
pub mod parser;
pub mod plan;
pub mod pretty;
pub mod reference;
pub mod token;
pub mod vm;

pub use analyze::analyze;
pub use exec::{BrasilBehavior, CompiledClass};
pub use optimize::{constant_fold, invert_effects, optimize, PassReport};
pub use parser::parse;

use brace_common::Result;

/// A compiled BRASIL script: one or more agent classes ready to run.
pub struct Script {
    classes: Vec<CompiledClass>,
}

impl Script {
    /// Lex, parse, check and plan, and optimize `source`.
    pub fn compile(source: &str) -> Result<Script> {
        Self::compile_with(source, true)
    }

    /// Compile without the optimizer (for A/B measurements).
    pub fn compile_unoptimized(source: &str) -> Result<Script> {
        Self::compile_with(source, false)
    }

    fn compile_with(source: &str, optimize_plans: bool) -> Result<Script> {
        let program = parser::parse(source)?;
        let mut classes = Vec::with_capacity(program.classes.len());
        for class in &program.classes {
            let mut compiled = analyze::analyze(class)?;
            if optimize_plans {
                compiled = optimize::optimize(compiled);
            }
            classes.push(compiled);
        }
        Ok(Script { classes })
    }

    /// The compiled classes.
    pub fn classes(&self) -> &[CompiledClass] {
        &self.classes
    }

    /// Build a runnable [`BrasilBehavior`] for class `name`.
    pub fn behavior(&self, name: &str) -> Option<BrasilBehavior> {
        self.classes.iter().find(|c| c.schema().name() == name).map(|c| BrasilBehavior::new(c.clone()))
    }
}
