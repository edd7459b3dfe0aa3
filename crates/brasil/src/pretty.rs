//! Pretty-printer for compiled plans.
//!
//! Renders a [`QueryPlan`](crate::plan::QueryPlan) in a compact algebra-flavored notation so the
//! optimizer's rewrites are inspectable (the `predator_inversion` example
//! prints before/after plans with it), followed by a one-line summary of the
//! register program the class lowers to ([`vm`](mod@crate::vm)):
//!
//! ```text
//! foreach p ∈ Extent {
//!   crowd ⊕= 1
//!   if (self.size > p.size + 0.3) { p.hurt ⊕= self.size - p.size }
//! }
//! ```

use crate::ast::{BinOp, UnOp};
use crate::exec::CompiledClass;
use crate::plan::{AgentRef, Axis, Bound, PExpr, PStmt, UpdateTarget};
use brace_core::AgentSchema;
use std::fmt::Write;

fn binop(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

fn state_name(schema: &AgentSchema, i: u16) -> String {
    schema.state_defs().get(i as usize).map(|d| d.name.clone()).unwrap_or_else(|| format!("s{i}"))
}

fn effect_name(schema: &AgentSchema, i: u16) -> String {
    schema.effect_defs().get(i as usize).map(|d| d.name.clone()).unwrap_or_else(|| format!("e{i}"))
}

/// Render one expression.
pub fn expr(schema: &AgentSchema, e: &PExpr) -> String {
    match e {
        PExpr::Const(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{}", *v as i64)
            } else {
                format!("{v}")
            }
        }
        PExpr::SelfPos(Axis::X) => "self.x".into(),
        PExpr::SelfPos(Axis::Y) => "self.y".into(),
        PExpr::OtherPos(Axis::X) => "p.x".into(),
        PExpr::OtherPos(Axis::Y) => "p.y".into(),
        PExpr::SelfState(i) => format!("self.{}", state_name(schema, *i)),
        PExpr::OtherState(i) => format!("p.{}", state_name(schema, *i)),
        PExpr::SelfEffect(i) => format!("self.{}", effect_name(schema, *i)),
        PExpr::Local(i) => format!("t{i}"),
        PExpr::AgentEq { left, right, negate } => {
            let r = |a: &AgentRef| match a {
                AgentRef::This => "self",
                AgentRef::Other => "p",
            };
            format!("({} {} {})", r(left), if *negate { "!=" } else { "==" }, r(right))
        }
        PExpr::Unary(UnOp::Neg, inner) => format!("-{}", expr(schema, inner)),
        PExpr::Unary(UnOp::Not, inner) => format!("!{}", expr(schema, inner)),
        PExpr::Binary(op, a, b) => {
            format!("({} {} {})", expr(schema, a), binop(*op), expr(schema, b))
        }
        PExpr::Call(b, args) => {
            let args: Vec<String> = args.iter().map(|a| expr(schema, a)).collect();
            format!("{}({})", format!("{b:?}").to_lowercase(), args.join(", "))
        }
        PExpr::Rand => "rand()".into(),
    }
}

fn stmts(schema: &AgentSchema, list: &[PStmt], indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    for s in list {
        match s {
            PStmt::Let { slot, value } => {
                let _ = writeln!(out, "{pad}let t{slot} = {}", expr(schema, value));
            }
            PStmt::LocalEffect { field, value } => {
                let _ = writeln!(out, "{pad}{} ⊕= {}", effect_name(schema, *field), expr(schema, value));
            }
            PStmt::RemoteEffect { field, value } => {
                let _ = writeln!(out, "{pad}p.{} ⊕= {}", effect_name(schema, *field), expr(schema, value));
            }
            PStmt::If { cond, then_, else_ } => {
                let _ = writeln!(out, "{pad}if {} {{", expr(schema, cond));
                stmts(schema, then_, indent + 1, out);
                if !else_.is_empty() {
                    let _ = writeln!(out, "{pad}}} else {{");
                    stmts(schema, else_, indent + 1, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
            PStmt::Foreach { body } => {
                let _ = writeln!(out, "{pad}foreach p ∈ Extent {{");
                stmts(schema, body, indent + 1, out);
                let _ = writeln!(out, "{pad}}}");
            }
        }
    }
}

/// ` [remote: a, b]` — the effect fields other agents may write — or
/// nothing for a local-effect class.
fn remote_fields(schema: &AgentSchema) -> String {
    let names: Vec<&str> = schema.effect_defs().iter().filter(|e| e.remote).map(|e| e.name.as_str()).collect();
    if names.is_empty() {
        String::new()
    } else {
        format!(" [remote: {}]", names.join(", "))
    }
}

/// Render a whole compiled class: query plan and update rules.
pub fn class(c: &CompiledClass) -> String {
    let schema = c.schema();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "class {} (visibility {}, reachability {}, {} effects){}",
        schema.name(),
        schema.visibility(),
        schema.reachability(),
        schema.num_effects(),
        remote_fields(schema)
    );
    let _ = writeln!(out, "query {{");
    stmts(schema, &c.query.stmts, 1, &mut out);
    let _ = writeln!(out, "}}");
    for rule in &c.updates {
        let target = match rule.target {
            UpdateTarget::PosX => "x".to_string(),
            UpdateTarget::PosY => "y".to_string(),
            UpdateTarget::State(i) => state_name(schema, i),
        };
        let _ = writeln!(out, "update {target} := {}", expr(schema, &rule.expr));
    }
    if let Some(b) = &c.probe_bounds {
        let side = |bounds: &[Bound]| -> String {
            bounds
                .iter()
                .map(|b| match b {
                    Bound::Rel(d) if *d == 0.0 => "self".to_string(),
                    Bound::Rel(d) if *d > 0.0 => format!("self+{d}"),
                    Bound::Rel(d) => format!("self{d}"),
                    Bound::Abs(v) => format!("{v}"),
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut parts = Vec::new();
        for (name, bounds) in [("x ≥", &b.x_lo), ("x ≤", &b.x_hi), ("y ≥", &b.y_lo), ("y ≤", &b.y_hi)] {
            if !bounds.is_empty() {
                parts.push(format!("{name} {}", side(bounds)));
            }
        }
        let _ = writeln!(out, "probe-bounds: {}", parts.join("; "));
    }
    let p = crate::vm::lower(c).summary();
    let _ = writeln!(
        out,
        "register-program: query {} op(s) per agent ({} hoisted out of the loop) + {} {}, \
         {} register(s); update {} op(s) {}, {} register(s)",
        p.agent_ops,
        p.hoisted_ops,
        p.candidate_ops,
        match (p.columns, p.ordered_body, p.loops) {
            (true, ..) => "per (agent, neighbour) pair in columns",
            (false, true, _) => "per candidate, one at a time (a body draws or reads an effect)",
            (false, false, 0) => "per candidate (no loop)",
            (false, false, 1) => "per candidate, one at a time (the loop is not the only statement)",
            (false, false, _) => "per candidate, one at a time (more than one loop)",
        },
        p.query_registers,
        p.update_ops,
        if p.update_lanes == 1 {
            "over 1 agent per pass (a guarded draw)".to_string()
        } else {
            format!("over {} agents per pass", p.update_lanes)
        },
        p.update_registers,
    );
    out
}

/// Render an optimizer report: each rewrite's count, in the order they ran.
pub fn report(passes: &[crate::optimize::PassReport]) -> String {
    let mut out = String::new();
    for p in passes {
        let _ = writeln!(out, "  {:<12} {} rewrite(s)", p.name, p.rewrites);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::parse;

    fn compile_src(src: &str) -> CompiledClass {
        analyze(&parse(src).unwrap().classes[0]).unwrap()
    }

    const SRC: &str = r#"
        class Fish {
            public state float x : x + vx #range[-1, 1];
            public state float vx : vx * 0.5;
            private effect float avoid : sum;
            public void run() {
                const float one = 1;
                foreach (Fish p : Extent<Fish>) {
                    if (p == this) { } else { p.avoid <- one / abs(x - p.x); }
                }
            }
        }
    "#;

    #[test]
    fn renders_all_constructs() {
        let rendered = class(&compile_src(SRC));
        assert!(rendered.contains("class Fish"), "{rendered}");
        assert!(rendered.contains("effects) [remote: avoid]\n"), "{rendered}");
        assert!(rendered.contains("foreach p ∈ Extent {"));
        assert!(rendered.contains("let t0 = 1"));
        assert!(rendered.contains("p.avoid ⊕= (t0 / abs((self.x - p.x)))"));
        assert!(rendered.contains("(p == self)"));
        assert!(rendered.contains("update x := (self.x + self.vx)"));
        assert!(rendered.contains("update vx := (self.vx * 0.5)"));
        // `one`, `self.x` leave the loop; identity test, subtract, abs, divide stay.
        assert!(
            rendered
                .contains("register-program: query 2 op(s) per agent (1 hoisted out of the loop) + 3 per (agent, neighbour) pair in columns"),
            "{rendered}"
        );
        assert!(rendered.contains("update 4 op(s) over 8 agents per pass, "), "{rendered}");
    }

    #[test]
    fn a_guarded_update_draw_renders_one_agent_per_pass() {
        let guarded = SRC.replace("vx * 0.5;", "vx * 0.5 + (vx > 1 && rand() < 0.5);");
        let rendered = class(&compile_src(&guarded));
        assert!(rendered.contains("over 1 agent per pass (a guarded draw), "), "{rendered}");
    }

    #[test]
    fn inversion_is_visible_in_rendering() {
        // Inversion refuses a loop that reads a prelude local (`one`).
        let class_nl = compile_src(&SRC.replace("one / abs", "1 / abs"));
        let inverted = crate::optimize::invert_effects(class_nl).unwrap();
        let rendered = class(&inverted);
        assert!(!rendered.contains("[remote"), "{rendered}");
        assert!(rendered.contains("1 effects)\n"), "{rendered}");
        // The inverted assignment reads the *other* agent's x first.
        assert!(rendered.contains("avoid ⊕= "), "{rendered}");
        assert!(rendered.contains("(p.x - self.x)"), "{rendered}");
    }
}
