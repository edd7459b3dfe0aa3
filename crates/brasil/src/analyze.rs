//! The state-effect checker, which emits the plan it checks.
//!
//! "The BRASIL compiler then enforces the read-write restrictions of the
//! state-effect pattern over those fields" (§4.1). Concretely:
//!
//! * in `run()` (the query phase) state fields are **read-only**; effect
//!   fields are **write-only inside `foreach`** (assignments aggregate) and
//!   may be *read* only **outside** any loop — the paper's "effect variables
//!   can only be read outside of a foreach-loop";
//! * neighbor access is restricted to *state* fields of the loop variable —
//!   an agent can never observe another agent's unaggregated effects;
//! * update rules read only the agent's **own** state and (final) effect
//!   fields — no neighbor access at tick boundaries;
//! * the spatial fields `x`/`y` (by name) map onto the agent position; their
//!   `#range` tags must be constants and become the schema's visibility and
//!   reachability bounds;
//! * non-local effect assignments (`p.f <- e`) are detected and recorded —
//!   they decide between one and two reduce passes downstream.
//!
//! The checker is also a light type checker: an expression is a number
//! (`float`/`int`/`bool` all evaluate to numeric values, with booleans as
//! 0/1) or an agent reference (only comparable and only dereferenceable).
//! [`analyze`] walks `run()` and then the update rules once, with one scope
//! table (the locals in scope with their slots, and the loop variable), and
//! lowers each expression to the dataflow plan ([`crate::plan`]) as it
//! checks it: what it returns is the [`CompiledClass`] the optimizer takes.

use crate::ast::*;
use crate::exec::CompiledClass;
use crate::plan::{AgentRef, Axis, Builtin, PExpr, PStmt, QueryPlan, UpdateRule, UpdateTarget};
use brace_common::{BraceError, Result};
use brace_core::{AgentSchema, Combinator};
use std::collections::HashMap;

fn sem<T>(line: u32, msg: impl std::fmt::Display) -> Result<T> {
    Err(BraceError::Semantic(format!("line {line}: {msg}")))
}

/// Evaluate a constant expression (a `#range` bound on line `line`).
fn const_eval(e: &Expr, line: u32) -> Result<f64> {
    match e {
        Expr::Number(n) => Ok(*n),
        Expr::Bool(b) => Ok(*b as i32 as f64),
        Expr::Unary(UnOp::Neg, inner) => Ok(-const_eval(inner, line)?),
        Expr::Binary(op, a, b) => {
            let (a, b) = (const_eval(a, line)?, const_eval(b, line)?);
            Ok(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => return sem(line, "non-arithmetic operator in #range bound"),
            })
        }
        _ => sem(line, "#range bounds must be constant expressions"),
    }
}

/// What a field name reads: a position axis, or a state or effect slot.
#[derive(Clone, Copy)]
enum Field {
    Pos(Axis),
    State(u16),
    Effect(u16),
}

/// A checked expression: a number, or an agent reference.
enum Val {
    Num(PExpr),
    Agent(AgentRef),
}

struct Checker<'a> {
    class: &'a str,
    fields: HashMap<&'a str, Field>,
    /// Locals in scope with their slots (query phase only).
    locals: Vec<(&'a str, u16)>,
    /// The loop variable, inside the `foreach`.
    loop_var: Option<&'a str>,
    /// Slots handed out so far, in source order; none is reused.
    next_local: u16,
    /// Walking the update rules rather than `run()`.
    update: bool,
    /// The first fault in source order that breaks no state-effect rule: a
    /// local bound to an agent reference, or a local past the last slot.
    /// [`analyze`] reports it once every rule has been checked, so a class
    /// that breaks a rule is refused for the rule.
    late: Option<BraceError>,
}

impl<'a> Checker<'a> {
    /// What field `name` reads: `x` and `y` are the position whatever is
    /// declared.
    fn field(&self, name: &str) -> Option<Field> {
        match name {
            "x" => Some(Field::Pos(Axis::X)),
            "y" => Some(Field::Pos(Axis::Y)),
            _ => self.fields.get(name).copied(),
        }
    }

    fn ident(&self, name: &str, line: u32) -> Result<Val> {
        if self.loop_var == Some(name) {
            return Ok(Val::Agent(AgentRef::Other));
        }
        if let Some(&(_, slot)) = self.locals.iter().find(|(l, _)| *l == name) {
            return Ok(Val::Num(PExpr::Local(slot)));
        }
        Ok(Val::Num(match self.field(name) {
            Some(Field::Pos(axis)) => PExpr::SelfPos(axis),
            Some(Field::State(slot)) => PExpr::SelfState(slot),
            Some(Field::Effect(slot)) => self.own_effect(name, slot, line)?,
            None if self.update => {
                return sem(line, format!("update rules may only read the agent's own fields; `{name}` is not one"))
            }
            None => return sem(line, format!("unknown identifier `{name}`")),
        }))
    }

    /// A read of the agent's own effect field `name` (bare or through
    /// `this`): its aggregate, so only outside the `foreach`.
    fn own_effect(&self, name: &str, slot: u16, line: u32) -> Result<PExpr> {
        if self.loop_var.is_some() {
            return sem(
                line,
                format!("effect field `{name}` cannot be read inside a foreach loop (effects aggregate until the loop completes)"),
            );
        }
        Ok(PExpr::SelfEffect(slot))
    }

    /// Check and lower an expression of a statement (or update rule) on
    /// line `line`.
    fn expr(&self, e: &Expr, line: u32) -> Result<Val> {
        Ok(Val::Num(match e {
            Expr::Number(n) => PExpr::Const(*n),
            Expr::Bool(b) => PExpr::Const(*b as i32 as f64),
            Expr::This if self.update => return sem(line, "`this` has no meaning in an update rule"),
            Expr::This => return Ok(Val::Agent(AgentRef::This)),
            Expr::Ident(name) => return self.ident(name, line),
            Expr::Field(_, field) if self.update => {
                return sem(line, format!("update rules cannot access other agents (`.{field}`)"))
            }
            Expr::Field(base, field) => {
                let Val::Agent(on) = self.expr(base, line)? else {
                    return sem(line, format!("`.{field}` applied to a non-agent expression"));
                };
                let this = on == AgentRef::This;
                match self.field(field) {
                    Some(Field::Pos(axis)) if this => PExpr::SelfPos(axis),
                    Some(Field::Pos(axis)) => PExpr::OtherPos(axis),
                    Some(Field::State(slot)) if this => PExpr::SelfState(slot),
                    Some(Field::State(slot)) => PExpr::OtherState(slot),
                    Some(Field::Effect(slot)) if this => self.own_effect(field, slot, line)?,
                    Some(Field::Effect(_)) => {
                        return sem(line, format!("cannot read effect field `{field}` of another agent"))
                    }
                    None => return sem(line, format!("class `{}` has no state field `{field}`", self.class)),
                }
            }
            Expr::Unary(op, inner) => {
                PExpr::Unary(*op, Box::new(self.num(inner, line, || "unary operator applied to an agent reference")?))
            }
            Expr::Binary(op, a, b) => match (self.expr(a, line)?, self.expr(b, line)?) {
                (Val::Num(a), Val::Num(b)) => PExpr::Binary(*op, Box::new(a), Box::new(b)),
                (Val::Agent(left), Val::Agent(right)) if matches!(op, BinOp::Eq | BinOp::Ne) => {
                    PExpr::AgentEq { left, right, negate: *op == BinOp::Ne }
                }
                _ => {
                    return sem(
                        line,
                        match op {
                            BinOp::Eq | BinOp::Ne => "cannot compare an agent with a number",
                            BinOp::And | BinOp::Or => "logical operator applied to an agent reference",
                            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => "comparison applied to an agent reference",
                            _ => "arithmetic applied to an agent reference",
                        },
                    )
                }
            },
            Expr::Call(name, args) => {
                // `rand()` is the one call that is not a `Builtin`.
                let builtin = match (name.as_str(), Builtin::parse(name)) {
                    ("rand", _) => None,
                    (_, None) => return sem(line, format!("unknown function `{name}`")),
                    (_, builtin) => builtin,
                };
                let arity = builtin.map_or(0, Builtin::arity);
                if args.len() != arity {
                    return sem(line, format!("`{name}` takes {arity} argument(s), got {}", args.len()));
                }
                let args = args
                    .iter()
                    .map(|a| self.num(a, line, || format!("agent reference passed to `{name}`")))
                    .collect::<Result<Vec<_>>>()?;
                builtin.map_or(PExpr::Rand, |b| PExpr::Call(b, args))
            }
        }))
    }

    /// [`Checker::expr`] where only a number may stand; `agent` says why
    /// an agent reference may not.
    fn num<M: std::fmt::Display>(&self, e: &Expr, line: u32, agent: impl FnOnce() -> M) -> Result<PExpr> {
        match self.expr(e, line)? {
            Val::Num(e) => Ok(e),
            Val::Agent(_) => sem(line, agent()),
        }
    }

    fn block(&mut self, block: &'a Block) -> Result<Vec<PStmt>> {
        let locals_at_entry = self.locals.len();
        let mut out = Vec::with_capacity(block.stmts.len());
        for stmt in &block.stmts {
            out.push(match stmt {
                Stmt::Const { name, value, line, .. } => {
                    if self.field(name).is_some() {
                        return sem(*line, format!("local `{name}` shadows a field"));
                    }
                    if self.locals.iter().any(|(l, _)| l == name) || self.loop_var == Some(name.as_str()) {
                        return sem(*line, format!("duplicate local `{name}`"));
                    }
                    let value = match self.expr(value, *line)? {
                        Val::Num(value) => value,
                        Val::Agent(_) => {
                            let err = format!("line {line}: local `{name}` cannot hold an agent reference");
                            self.late.get_or_insert(BraceError::Semantic(err));
                            PExpr::Const(0.0)
                        }
                    };
                    let slot = self.next_local;
                    self.next_local = slot.checked_add(1).unwrap_or_else(|| {
                        let err = format!("more than {} `const` bindings in one script", u16::MAX);
                        self.late.get_or_insert(BraceError::Semantic(err));
                        slot
                    });
                    self.locals.push((name.as_str(), slot));
                    PStmt::Let { slot, value }
                }
                Stmt::EffectAssign { target, field, value, line } => {
                    let Some(&Field::Effect(field)) = self.fields.get(field.as_str()) else {
                        return sem(
                            *line,
                            format!("`<-` target `{field}` is not an effect field (states are read-only in run())"),
                        );
                    };
                    let value = self.num(value, *line, || "cannot assign an agent reference to an effect")?;
                    // Non-local: the target must be an agent expression —
                    // in this subset, the loop variable.
                    match target {
                        None => PStmt::LocalEffect { field, value },
                        Some(Expr::Ident(v)) if self.loop_var == Some(v.as_str()) => PStmt::RemoteEffect { field, value },
                        Some(_) => return sem(*line, "non-local effect target must be a foreach loop variable"),
                    }
                }
                Stmt::If { cond, then_, else_, line } => {
                    let cond = self.num(cond, *line, || "if condition cannot be an agent reference")?;
                    let then_ = self.block(then_)?;
                    let else_ = match else_ {
                        Some(e) => self.block(e)?,
                        None => Vec::new(),
                    };
                    PStmt::If { cond, then_, else_ }
                }
                Stmt::Foreach { class, var, extent, body, line } => {
                    if class != self.class || extent != self.class {
                        return sem(
                            *line,
                            format!(
                                "foreach over `Extent<{extent}>` of class `{class}`: only the agent's own class `{}` is supported",
                                self.class
                            ),
                        );
                    }
                    if self.loop_var.is_some() {
                        return sem(
                            *line,
                            "nested foreach loops are not supported (no self-join of extents inside a tick)",
                        );
                    }
                    if self.locals.iter().any(|(l, _)| l == var) {
                        return sem(*line, format!("loop variable `{var}` shadows another binding"));
                    }
                    self.loop_var = Some(var.as_str());
                    let body = self.block(body)?;
                    self.loop_var = None;
                    PStmt::Foreach { body }
                }
            });
        }
        self.locals.truncate(locals_at_entry);
        Ok(out)
    }
}

/// Check one class declaration and lower it: fields first, then `run()`,
/// then the update rules in declaration order.
pub fn analyze(decl: &ClassDecl) -> Result<CompiledClass> {
    // ---- field tables ------------------------------------------------------
    let mut seen: HashMap<&str, u32> = HashMap::new();
    for f in &decl.fields {
        if let Some(prev) = seen.insert(f.name.as_str(), f.line) {
            return sem(f.line, format!("field `{}` already declared at line {prev}", f.name));
        }
    }
    let mut fields = HashMap::new();
    let mut schema = AgentSchema::builder(decl.name.clone());
    let mut states = 0usize;
    let mut effects = Vec::new();
    let mut ranges: Vec<(f64, f64)> = Vec::new();
    let mut rules = Vec::new();
    for f in &decl.fields {
        let field = match &f.kind {
            FieldKind::State { range, update } => {
                if let TypeName::Agent(t) = &f.ty {
                    return sem(f.line, format!("agent-typed state fields (`{t}`) are outside the supported subset"));
                }
                let (field, target) = match f.name.as_str() {
                    "x" | "y" => {
                        if let Some((lo, hi)) = range {
                            let (lo, hi) = (const_eval(lo, f.line)?, const_eval(hi, f.line)?);
                            if lo > hi {
                                return sem(f.line, format!("#range lower bound {lo} exceeds upper bound {hi}"));
                            }
                            ranges.push((lo, hi));
                        }
                        if f.name == "x" {
                            (Field::Pos(Axis::X), UpdateTarget::PosX)
                        } else {
                            (Field::Pos(Axis::Y), UpdateTarget::PosY)
                        }
                    }
                    _ if range.is_some() => return sem(f.line, "#range only applies to the spatial fields x and y"),
                    name => {
                        schema = schema.state(name);
                        let slot = states as u16;
                        states += 1;
                        (Field::State(slot), UpdateTarget::State(slot))
                    }
                };
                if let Some(rule) = update {
                    rules.push((rule, f.line, target));
                }
                field
            }
            FieldKind::Effect { combinator } => {
                let Some(c) = Combinator::parse(combinator) else {
                    return sem(
                        f.line,
                        format!("unknown combinator `{combinator}` (expected sum, prod, min, max, or, and)"),
                    );
                };
                effects.push((f.name.clone(), c));
                Field::Effect((effects.len() - 1) as u16)
            }
        };
        fields.insert(f.name.as_str(), field);
    }

    // Visibility/reachability: the largest |bound| across spatial ranges
    // (square L∞ regions). Untagged spatial fields leave it unbounded.
    let spatial_fields = fields.values().filter(|f| matches!(f, Field::Pos(_))).count();
    let bound = if !ranges.is_empty() && ranges.len() == spatial_fields {
        ranges.iter().map(|(lo, hi)| lo.abs().max(hi.abs())).fold(0.0f64, f64::max)
    } else {
        f64::INFINITY
    };
    // The paper uses one constraint for both roles.
    let schema = schema.visibility(bound).reachability(bound);

    // ---- run(), then the update rules ---------------------------------------
    let mut checker = Checker {
        class: &decl.name,
        fields,
        locals: Vec::new(),
        loop_var: None,
        next_local: 0,
        update: false,
        late: None,
    };
    let stmts = checker.block(&decl.run)?;
    checker.update = true;
    let mut updates = Vec::with_capacity(rules.len());
    for (rule, line, target) in rules {
        let expr = checker.num(rule, line, || "an update rule cannot be an agent reference")?;
        updates.push(UpdateRule { target, expr });
    }
    if let Some(err) = checker.late {
        return Err(err);
    }
    CompiledClass::new(schema, effects.into_iter(), QueryPlan { stmts, n_locals: checker.next_local }, updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze_src(src: &str) -> Result<CompiledClass> {
        let prog = parse(src)?;
        analyze(&prog.classes[0])
    }

    /// The message `src` is refused with.
    fn refusal(src: &str) -> String {
        analyze_src(src).expect_err("must reject").to_string()
    }

    const FISH: &str = r#"
        class Fish {
            public state float x : x + vx #range[-1, 1];
            public state float y : y + vy #range[-1, 1];
            public state float vx : vx + avoidx / max(count, 1);
            public state float vy : vy + avoidy / max(count, 1);
            private effect float avoidx : sum;
            private effect float avoidy : sum;
            private effect int count : sum;
            public void run() {
                foreach (Fish p : Extent<Fish>) {
                    p.avoidx <- 1 / abs(x - p.x);
                    p.avoidy <- 1 / abs(y - p.y);
                    p.count <- 1;
                }
            }
        }
    "#;

    #[test]
    fn fish_analyzes_with_bounds_and_nonlocal() {
        let a = analyze_src(FISH).unwrap();
        let schema = a.schema();
        assert_eq!(schema.state_defs().iter().map(|s| s.name.as_str()).collect::<Vec<_>>(), ["vx", "vy"]);
        assert_eq!(
            schema.effect_defs().iter().map(|e| e.name.as_str()).collect::<Vec<_>>(),
            ["avoidx", "avoidy", "count"]
        );
        assert_eq!(schema.effect_defs().iter().map(|e| e.combinator).collect::<Vec<_>>(), vec![Combinator::Sum; 3]);
        let targets: Vec<UpdateTarget> = a.updates.iter().map(|u| u.target).collect();
        assert_eq!(targets, [UpdateTarget::PosX, UpdateTarget::PosY, UpdateTarget::State(0), UpdateTarget::State(1)]);
        assert_eq!(schema.visibility(), 1.0);
        assert_eq!(schema.reachability(), 1.0);
        assert!(schema.effect_defs().iter().all(|e| e.remote), "every effect is assigned to `p`");
    }

    #[test]
    fn local_only_script_is_flagged_local() {
        let a = analyze_src(
            r#"
            class A {
                public state float x : x #range[-2, 2];
                private effect float n : sum;
                public void run() {
                    foreach (A p : Extent<A>) { n <- 1; }
                }
            }
        "#,
        )
        .unwrap();
        assert!(!a.schema().has_nonlocal_effects());
        assert_eq!(a.schema().visibility(), 2.0);
    }

    #[test]
    fn effect_read_inside_loop_rejected() {
        let err = analyze_src(
            r#"
            class A {
                private effect float n : sum;
                public void run() {
                    foreach (A p : Extent<A>) { n <- n + 1; }
                }
            }
        "#,
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("inside a foreach"));
    }

    #[test]
    fn effect_read_outside_loop_allowed() {
        analyze_src(
            r#"
            class A {
                private effect float n : sum;
                private effect float big : max;
                public void run() {
                    foreach (A p : Extent<A>) { n <- 1; }
                    if (n > 10) { big <- n; }
                }
            }
        "#,
        )
        .unwrap();
    }

    #[test]
    fn state_assignment_in_query_rejected() {
        let err = analyze_src(
            r#"
            class A {
                public state float v : v;
                public void run() { v <- 1; }
            }
        "#,
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("not an effect field"));
    }

    #[test]
    fn neighbor_effect_read_rejected() {
        let err = analyze_src(
            r#"
            class A {
                private effect float n : sum;
                private effect float m : sum;
                public void run() {
                    foreach (A p : Extent<A>) { m <- p.n; }
                }
            }
        "#,
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("effect field `n` of another agent"));
    }

    #[test]
    fn this_reads_the_own_effect_where_the_bare_name_does() {
        // `in_loop` ends the foreach on line 4, `after` follows it on line 5.
        let class = |in_loop: &str, after: &str| {
            format!(
                "class A {{ private effect float n : sum;\n private effect float m : sum;\n public void run() {{\n \
                 foreach (A p : Extent<A>) {{ p.n <- 1; {in_loop} }}\n {after} }} }}",
            )
        };
        let plan = |read: &str| analyze_src(&class("", &format!("m <- {read};"))).unwrap().query;
        assert_eq!(plan("this.n"), plan("n"));
        for read in ["this.n", "n"] {
            let err = refusal(&class(&format!("m <- {read};"), ""));
            assert!(err.contains("line 4: effect field `n` cannot be read inside a foreach loop"), "{read}: {err}");
        }
    }

    #[test]
    fn update_rule_cannot_see_other_agents() {
        let err = analyze_src(
            r#"
            class A {
                public state float v : p.v;
                public void run() {}
            }
        "#,
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("cannot access other agents"));
    }

    #[test]
    fn nonlocal_target_must_be_loop_var() {
        let err = analyze_src(
            r#"
            class A {
                public state float v : v;
                private effect float n : sum;
                public void run() { v.n <- 1; }
            }
        "#,
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("loop variable"));
    }

    #[test]
    fn unknown_combinator_rejected() {
        let err = analyze_src(
            r#"
            class A {
                private effect float n : median;
                public void run() {}
            }
        "#,
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("median"));
    }

    #[test]
    fn duplicate_field_rejected() {
        let err = analyze_src(
            r#"
            class A {
                public state float v : v;
                private effect float v : sum;
                public void run() {}
            }
        "#,
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("already declared"));
    }

    #[test]
    fn range_on_non_spatial_rejected() {
        let err = analyze_src(
            r#"
            class A {
                public state float speed : speed #range[-1, 1];
                public void run() {}
            }
        "#,
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("spatial fields"));
    }

    #[test]
    fn missing_range_means_unbounded_visibility() {
        let a = analyze_src(
            r#"
            class A {
                public state float x : x;
                public void run() {}
            }
        "#,
        )
        .unwrap();
        assert_eq!(a.schema().visibility(), f64::INFINITY);
    }

    #[test]
    fn nested_foreach_rejected() {
        let err = analyze_src(
            r#"
            class A {
                private effect float n : sum;
                public void run() {
                    foreach (A p : Extent<A>) {
                        foreach (A q : Extent<A>) { n <- 1; }
                    }
                }
            }
        "#,
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("nested foreach"));
    }

    #[test]
    fn agent_comparison_with_this_allowed() {
        analyze_src(
            r#"
            class A {
                private effect float n : sum;
                public void run() {
                    foreach (A p : Extent<A>) {
                        if (p == this) { } else { n <- 1; }
                    }
                }
            }
        "#,
        )
        .unwrap();
    }

    #[test]
    fn agent_arithmetic_rejected() {
        let err = analyze_src(
            r#"
            class A {
                private effect float n : sum;
                public void run() {
                    foreach (A p : Extent<A>) { n <- p + 1; }
                }
            }
        "#,
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("agent reference"));
    }

    #[test]
    fn constant_range_arithmetic_is_folded() {
        let a = analyze_src(
            r#"
            class A {
                public state float x : x #range[0 - 2 * 3, 6];
                public void run() {}
            }
        "#,
        )
        .unwrap();
        assert_eq!(a.schema().visibility(), 6.0);
    }

    #[test]
    fn range_bounds_that_are_not_constant_name_their_line() {
        let class =
            |range: &str| format!("class A {{\n public state float x : x #range[{range}];\n public void run() {{}} }}");
        let err = refusal(&class("-1, x"));
        assert!(err.contains("line 2: #range bounds must be constant expressions"), "{err}");
        let err = refusal(&class("-1, 1 < 2"));
        assert!(err.contains("line 2: non-arithmetic operator in #range bound"), "{err}");
    }

    #[test]
    fn a_local_cannot_hold_an_agent_reference() {
        let err =
            refusal("class A { private effect float n : sum;\n public void run() {\n const float a = this;\n } }");
        assert!(err.contains("line 3: local `a` cannot hold an agent reference"), "{err}");
        let err = refusal(
            "class A { private effect float n : sum;\n public void run() {\n foreach (A p : Extent<A>) {\n \
             const float q = p;\n n <- q; } } }",
        );
        assert!(err.contains("line 4: local `q` cannot hold an agent reference"), "{err}");
        // A rule broken further on is what the class is refused for.
        let err = refusal(
            "class A { private effect float n : sum;\n public void run() {\n const float a = this;\n \
             foreach (A p : Extent<A>) { n <- n; } } }",
        );
        assert!(err.contains("line 4: effect field `n` cannot be read inside a foreach loop"), "{err}");
    }

    #[test]
    fn locals_take_slots_in_source_order_and_rules_keep_declaration_order() {
        let a = analyze_src(
            r#"
            class A {
                public state float v : v + 1;
                public state float x : x #range[-1, 1];
                private effect float n : sum;
                public state float w : n;
                public void run() {
                    const float a = 1;
                    if (a > 0) { const float b = 2; n <- b; }
                    foreach (A p : Extent<A>) { const float c = p.v; n <- c; }
                }
            }
        "#,
        )
        .unwrap();
        assert_eq!(a.query.n_locals, 3);
        let mut slots = Vec::new();
        for s in &a.query.stmts {
            s.visit(&mut |s| {
                if let PStmt::Let { slot, .. } = s {
                    slots.push(*slot);
                }
            });
        }
        assert_eq!(slots, [0, 1, 2]);
        let targets: Vec<UpdateTarget> = a.updates.iter().map(|u| u.target).collect();
        assert_eq!(targets, [UpdateTarget::State(0), UpdateTarget::PosX, UpdateTarget::State(1)]);
    }
}
