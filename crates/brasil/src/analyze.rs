//! Semantic analysis: the state-effect checker.
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
//! The checker is also a light type checker with three types: numbers
//! (`float`/`int`/`bool` all evaluate to numeric values, with booleans as
//! 0/1), and agent references (only comparable and only dereferenceable).

use crate::ast::*;
use crate::plan::Builtin;
use brace_common::{BraceError, Result};
use brace_core::Combinator;
use std::collections::{HashMap, HashSet};

/// Built-in functions: name → arity.
pub fn builtin_arity(name: &str) -> Option<usize> {
    if name == "rand" {
        return Some(0);
    }
    Builtin::parse(name).map(Builtin::arity)
}

/// Analysis output: validated class plus resolved symbol information.
#[derive(Debug, Clone)]
pub struct AnalyzedClass {
    pub decl: ClassDecl,
    /// Non-spatial state field names, in declaration order (schema order).
    pub state_names: Vec<String>,
    /// Effect field names in declaration order.
    pub effect_names: Vec<String>,
    pub combinators: Vec<Combinator>,
    pub has_x: bool,
    pub has_y: bool,
    /// L∞ visibility bound derived from `#range` tags (∞ when untagged).
    pub visibility: f64,
    /// Per-tick movement bound (same tags; the paper uses one constraint
    /// for both roles).
    pub reachability: f64,
}

/// Evaluate a constant expression (for `#range` bounds).
fn const_eval(e: &Expr) -> Result<f64> {
    match e {
        Expr::Number(n) => Ok(*n),
        Expr::Bool(b) => Ok(*b as i32 as f64),
        Expr::Unary(UnOp::Neg, inner) => Ok(-const_eval(inner)?),
        Expr::Binary(op, a, b) => {
            let (a, b) = (const_eval(a)?, const_eval(b)?);
            Ok(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => return Err(BraceError::Semantic("non-arithmetic operator in #range bound".into())),
            })
        }
        _ => Err(BraceError::Semantic("#range bounds must be constant expressions".into())),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Num,
    Bool,
    Agent,
}

struct Checker<'a> {
    class: &'a str,
    states: HashSet<&'a str>,
    effects: HashSet<&'a str>,
    /// Locals in scope (query phase only).
    locals: Vec<String>,
    /// Loop variables in scope, innermost last.
    loop_vars: Vec<String>,
}

impl<'a> Checker<'a> {
    fn sem<T>(&self, line: u32, msg: impl std::fmt::Display) -> Result<T> {
        Err(BraceError::Semantic(format!("line {line}: {msg}")))
    }

    fn is_spatial(name: &str) -> bool {
        name == "x" || name == "y"
    }

    /// Type of an identifier in query-phase expression position.
    fn ident_ty(&self, name: &str, line: u32, in_loop: bool) -> Result<Ty> {
        if self.loop_vars.iter().any(|v| v == name) {
            return Ok(Ty::Agent);
        }
        if self.locals.iter().any(|v| v == name) {
            return Ok(Ty::Num);
        }
        if Self::is_spatial(name) || self.states.contains(name) {
            return Ok(Ty::Num);
        }
        if self.effects.contains(name) {
            if in_loop {
                return self.sem(
                    line,
                    format!("effect field `{name}` cannot be read inside a foreach loop (effects aggregate until the loop completes)"),
                );
            }
            return Ok(Ty::Num);
        }
        self.sem(line, format!("unknown identifier `{name}`"))
    }

    /// Validate a query-phase expression; returns its type.
    fn query_expr(&self, e: &Expr, line: u32, in_loop: bool) -> Result<Ty> {
        match e {
            Expr::Number(_) => Ok(Ty::Num),
            Expr::Bool(_) => Ok(Ty::Bool),
            Expr::This => Ok(Ty::Agent),
            Expr::Ident(name) => self.ident_ty(name, line, in_loop),
            Expr::Field(base, field) => {
                let bt = self.query_expr(base, line, in_loop)?;
                if bt != Ty::Agent {
                    return self.sem(line, format!("`.{field}` applied to a non-agent expression"));
                }
                if Self::is_spatial(field) || self.states.contains(field.as_str()) {
                    Ok(Ty::Num)
                } else if self.effects.contains(field.as_str()) {
                    self.sem(line, format!("cannot read effect field `{field}` of another agent"))
                } else {
                    self.sem(line, format!("class `{}` has no state field `{field}`", self.class))
                }
            }
            Expr::Unary(op, inner) => {
                let t = self.query_expr(inner, line, in_loop)?;
                match op {
                    UnOp::Neg if t == Ty::Num || t == Ty::Bool => Ok(Ty::Num),
                    UnOp::Not if t == Ty::Bool || t == Ty::Num => Ok(Ty::Bool),
                    _ => self.sem(line, "unary operator applied to an agent reference"),
                }
            }
            Expr::Binary(op, a, b) => {
                let (ta, tb) = (self.query_expr(a, line, in_loop)?, self.query_expr(b, line, in_loop)?);
                match op {
                    BinOp::Eq | BinOp::Ne => {
                        if (ta == Ty::Agent) != (tb == Ty::Agent) {
                            self.sem(line, "cannot compare an agent with a number")
                        } else {
                            Ok(Ty::Bool)
                        }
                    }
                    BinOp::And | BinOp::Or => {
                        if ta == Ty::Agent || tb == Ty::Agent {
                            self.sem(line, "logical operator applied to an agent reference")
                        } else {
                            Ok(Ty::Bool)
                        }
                    }
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if ta == Ty::Agent || tb == Ty::Agent {
                            self.sem(line, "comparison applied to an agent reference")
                        } else {
                            Ok(Ty::Bool)
                        }
                    }
                    _ => {
                        if ta == Ty::Agent || tb == Ty::Agent {
                            self.sem(line, "arithmetic applied to an agent reference")
                        } else {
                            Ok(Ty::Num)
                        }
                    }
                }
            }
            Expr::Call(name, args) => {
                let Some(arity) = builtin_arity(name) else {
                    return self.sem(line, format!("unknown function `{name}`"));
                };
                if args.len() != arity {
                    return self.sem(line, format!("`{name}` takes {arity} argument(s), got {}", args.len()));
                }
                for a in args {
                    if self.query_expr(a, line, in_loop)? == Ty::Agent {
                        return self.sem(line, format!("agent reference passed to `{name}`"));
                    }
                }
                Ok(Ty::Num)
            }
        }
    }

    fn query_block(&mut self, block: &Block, in_loop: bool) -> Result<()> {
        let locals_at_entry = self.locals.len();
        for stmt in &block.stmts {
            match stmt {
                Stmt::Const { name, value, line, .. } => {
                    if self.states.contains(name.as_str())
                        || self.effects.contains(name.as_str())
                        || Self::is_spatial(name)
                    {
                        return self.sem(*line, format!("local `{name}` shadows a field"));
                    }
                    if self.locals.iter().any(|l| l == name) || self.loop_vars.iter().any(|l| l == name) {
                        return self.sem(*line, format!("duplicate local `{name}`"));
                    }
                    self.query_expr(value, *line, in_loop)?;
                    self.locals.push(name.clone());
                }
                Stmt::EffectAssign { target, field, value, line } => {
                    if !self.effects.contains(field.as_str()) {
                        return self.sem(
                            *line,
                            format!("`<-` target `{field}` is not an effect field (states are read-only in run())"),
                        );
                    }
                    if self.query_expr(value, *line, in_loop)? == Ty::Agent {
                        return self.sem(*line, "cannot assign an agent reference to an effect");
                    }
                    if let Some(t) = target {
                        // Non-local: target must be an agent expression —
                        // in this subset, a loop variable.
                        match t {
                            Expr::Ident(v) if self.loop_vars.iter().any(|lv| lv == v) => {}
                            _ => return self.sem(*line, "non-local effect target must be a foreach loop variable"),
                        }
                    }
                }
                Stmt::If { cond, then_, else_, line } => {
                    let t = self.query_expr(cond, *line, in_loop)?;
                    if t == Ty::Agent {
                        return self.sem(*line, "if condition cannot be an agent reference");
                    }
                    self.query_block(then_, in_loop)?;
                    if let Some(e) = else_ {
                        self.query_block(e, in_loop)?;
                    }
                }
                Stmt::Foreach { class, var, extent, body, line } => {
                    if class != self.class || extent != self.class {
                        return self.sem(
                            *line,
                            format!(
                                "foreach over `Extent<{extent}>` of class `{class}`: only the agent's own class `{}` is supported",
                                self.class
                            ),
                        );
                    }
                    if in_loop {
                        return self.sem(
                            *line,
                            "nested foreach loops are not supported (no self-join of extents inside a tick)",
                        );
                    }
                    if self.loop_vars.iter().any(|v| v == var) || self.locals.iter().any(|v| v == var) {
                        return self.sem(*line, format!("loop variable `{var}` shadows another binding"));
                    }
                    self.loop_vars.push(var.clone());
                    self.query_block(body, true)?;
                    self.loop_vars.pop();
                }
            }
        }
        self.locals.truncate(locals_at_entry);
        Ok(())
    }

    /// Validate an update-rule expression: own fields + effects + builtins
    /// only.
    fn update_expr(&self, e: &Expr, line: u32) -> Result<()> {
        match e {
            Expr::Number(_) | Expr::Bool(_) => Ok(()),
            Expr::This => self.sem(line, "`this` has no meaning in an update rule"),
            Expr::Ident(name) => {
                if Self::is_spatial(name) || self.states.contains(name.as_str()) || self.effects.contains(name.as_str())
                {
                    Ok(())
                } else {
                    self.sem(line, format!("update rules may only read the agent's own fields; `{name}` is not one"))
                }
            }
            Expr::Field(_, f) => self.sem(line, format!("update rules cannot access other agents (`.{f}`)")),
            Expr::Unary(_, inner) => self.update_expr(inner, line),
            Expr::Binary(_, a, b) => {
                self.update_expr(a, line)?;
                self.update_expr(b, line)
            }
            Expr::Call(name, args) => {
                let Some(arity) = builtin_arity(name) else {
                    return self.sem(line, format!("unknown function `{name}`"));
                };
                if args.len() != arity {
                    return self.sem(line, format!("`{name}` takes {arity} argument(s), got {}", args.len()));
                }
                for a in args {
                    self.update_expr(a, line)?;
                }
                Ok(())
            }
        }
    }
}

/// Analyze one class declaration.
pub fn analyze(decl: &ClassDecl) -> Result<AnalyzedClass> {
    // ---- field tables ------------------------------------------------------
    let mut seen: HashMap<&str, u32> = HashMap::new();
    for f in &decl.fields {
        if let Some(prev) = seen.insert(f.name.as_str(), f.line) {
            return Err(BraceError::Semantic(format!(
                "line {}: field `{}` already declared at line {prev}",
                f.line, f.name
            )));
        }
    }
    let mut state_names = Vec::new();
    let mut effect_names = Vec::new();
    let mut combinators = Vec::new();
    let mut has_x = false;
    let mut has_y = false;
    let mut ranges: Vec<(f64, f64)> = Vec::new();
    for f in &decl.fields {
        match &f.kind {
            FieldKind::State { range, .. } => {
                if let TypeName::Agent(t) = &f.ty {
                    return Err(BraceError::Semantic(format!(
                        "line {}: agent-typed state fields (`{t}`) are outside the supported subset",
                        f.line
                    )));
                }
                let spatial = f.name == "x" || f.name == "y";
                if spatial {
                    if f.name == "x" {
                        has_x = true;
                    } else {
                        has_y = true;
                    }
                    if let Some((lo, hi)) = range {
                        let (lo, hi) = (const_eval(lo)?, const_eval(hi)?);
                        if lo > hi {
                            return Err(BraceError::Semantic(format!(
                                "line {}: #range lower bound {lo} exceeds upper bound {hi}",
                                f.line
                            )));
                        }
                        ranges.push((lo, hi));
                    }
                } else {
                    if range.is_some() {
                        return Err(BraceError::Semantic(format!(
                            "line {}: #range only applies to the spatial fields x and y",
                            f.line
                        )));
                    }
                    state_names.push(f.name.clone());
                }
            }
            FieldKind::Effect { combinator } => {
                let Some(c) = Combinator::parse(combinator) else {
                    return Err(BraceError::Semantic(format!(
                        "line {}: unknown combinator `{combinator}` (expected sum, prod, min, max, or, and)",
                        f.line
                    )));
                };
                effect_names.push(f.name.clone());
                combinators.push(c);
            }
        }
    }

    // Visibility/reachability: the largest |bound| across spatial ranges
    // (square L∞ regions). Untagged spatial fields leave it unbounded.
    let spatial_fields = has_x as usize + has_y as usize;
    let (visibility, reachability) = if !ranges.is_empty() && ranges.len() == spatial_fields {
        let ext = ranges.iter().map(|(lo, hi)| lo.abs().max(hi.abs())).fold(0.0f64, f64::max);
        (ext, ext)
    } else {
        (f64::INFINITY, f64::INFINITY)
    };

    // ---- check run() --------------------------------------------------------
    let mut checker = Checker {
        class: &decl.name,
        states: decl
            .fields
            .iter()
            .filter(|f| matches!(f.kind, FieldKind::State { .. }))
            .map(|f| f.name.as_str())
            .collect(),
        effects: decl
            .fields
            .iter()
            .filter(|f| matches!(f.kind, FieldKind::Effect { .. }))
            .map(|f| f.name.as_str())
            .collect(),
        locals: Vec::new(),
        loop_vars: Vec::new(),
    };
    checker.query_block(&decl.run, false)?;

    // ---- check update rules -------------------------------------------------
    for f in &decl.fields {
        if let FieldKind::State { update: Some(rule), .. } = &f.kind {
            checker.update_expr(rule, f.line)?;
        }
    }

    Ok(AnalyzedClass {
        decl: decl.clone(),
        state_names,
        effect_names,
        combinators,
        has_x,
        has_y,
        visibility,
        reachability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze_src(src: &str) -> Result<AnalyzedClass> {
        let prog = parse(src)?;
        analyze(&prog.classes[0])
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
        assert_eq!(a.state_names, vec!["vx", "vy"]);
        assert_eq!(a.effect_names, vec!["avoidx", "avoidy", "count"]);
        assert_eq!(a.combinators, vec![Combinator::Sum; 3]);
        assert!(a.has_x && a.has_y);
        assert_eq!(a.visibility, 1.0);
        assert_eq!(a.reachability, 1.0);
        let schema = crate::exec::compile(&a).unwrap().schema().clone();
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
        assert!(!crate::exec::compile(&a).unwrap().schema().has_nonlocal_effects());
        assert_eq!(a.visibility, 2.0);
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
        assert_eq!(a.visibility, f64::INFINITY);
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
        assert_eq!(a.visibility, 6.0);
    }
}
