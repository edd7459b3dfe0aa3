//! The executable specification: a tree-walking interpreter of the plan.
//!
//! This is what BRASIL *means*. Evaluation is recursive over
//! [`PExpr`] and returns `Option<f64>` — `None` is NIL
//! (module docs of [`exec`](mod@crate::exec)) — one neighbour and one
//! statement at a time, in source order, with its own arithmetic. Nothing in
//! production runs it: [`BrasilBehavior`](crate::exec::BrasilBehavior) runs the
//! register program ([`vm`](mod@crate::vm)), and tests compare the two bit for
//! bit through [`BrasilBehavior::reference`](crate::exec::BrasilBehavior::reference)
//! — the role `reference_step` plays in `brace_core`. Keep it simple rather
//! than fast.

use crate::ast::{BinOp, UnOp};
use crate::exec::CompiledClass;
use crate::plan::{AgentRef, Axis, PExpr, PStmt, UpdateTarget};
use brace_common::{DetRng, FieldId, Rect, Vec2};
use brace_core::behavior::{Behavior, Neighbors, UpdateCtx};
use brace_core::effect::EffectWriter;
use brace_core::{Agent, AgentRead, AgentRef as RowRef, AgentSchema};

/// Evaluation context for one query/update invocation. Generic over the
/// agent representation ([`AgentRead`]): the query phase evaluates against
/// pool row views, the update phase against a snapshot record — both
/// monomorphize to direct reads.
struct EvalCtx<'a, R: AgentRead + Copy> {
    me: R,
    other: Option<R>,
    locals: &'a mut [Option<f64>],
    /// Locally-aggregated effect shadow (query) or the final aggregated
    /// effects (update).
    effects: &'a [f64],
    rng: &'a mut DetRng,
}

/// NIL-propagating evaluation.
fn eval<R: AgentRead + Copy>(e: &PExpr, ctx: &mut EvalCtx<'_, R>) -> Option<f64> {
    Some(match e {
        PExpr::Const(c) => *c,
        PExpr::SelfPos(Axis::X) => ctx.me.pos().x,
        PExpr::SelfPos(Axis::Y) => ctx.me.pos().y,
        PExpr::OtherPos(Axis::X) => ctx.other?.pos().x,
        PExpr::OtherPos(Axis::Y) => ctx.other?.pos().y,
        PExpr::SelfState(i) => ctx.me.state(*i),
        PExpr::OtherState(i) => ctx.other?.state(*i),
        PExpr::SelfEffect(i) => ctx.effects[*i as usize],
        PExpr::Local(i) => ctx.locals[*i as usize]?,
        PExpr::AgentEq { left, right, negate } => {
            let l = match left {
                AgentRef::This => ctx.me.id(),
                AgentRef::Other => ctx.other?.id(),
            };
            let r = match right {
                AgentRef::This => ctx.me.id(),
                AgentRef::Other => ctx.other?.id(),
            };
            (((l == r) != *negate) as i32) as f64
        }
        PExpr::Unary(op, inner) => {
            let v = eval(inner, ctx)?;
            match op {
                UnOp::Neg => -v,
                UnOp::Not => ((v == 0.0) as i32) as f64,
            }
        }
        PExpr::Binary(op, a, b) => {
            // Short-circuit logic evaluates lazily; everything else strictly.
            match op {
                BinOp::And => {
                    let l = eval(a, ctx)?;
                    if l == 0.0 {
                        0.0
                    } else {
                        ((eval(b, ctx)? != 0.0) as i32) as f64
                    }
                }
                BinOp::Or => {
                    let l = eval(a, ctx)?;
                    if l != 0.0 {
                        1.0
                    } else {
                        ((eval(b, ctx)? != 0.0) as i32) as f64
                    }
                }
                _ => {
                    let l = eval(a, ctx)?;
                    let r = eval(b, ctx)?;
                    match op {
                        BinOp::Add => l + r,
                        BinOp::Sub => l - r,
                        BinOp::Mul => l * r,
                        BinOp::Div => l / r,
                        BinOp::Rem => l % r,
                        BinOp::Lt => ((l < r) as i32) as f64,
                        BinOp::Le => ((l <= r) as i32) as f64,
                        BinOp::Gt => ((l > r) as i32) as f64,
                        BinOp::Ge => ((l >= r) as i32) as f64,
                        BinOp::Eq => ((l == r) as i32) as f64,
                        BinOp::Ne => ((l != r) as i32) as f64,
                        BinOp::And | BinOp::Or => unreachable!("handled above"),
                    }
                }
            }
        }
        PExpr::Call(b, args) => {
            let mut vals = [0.0f64; 3];
            for (i, a) in args.iter().enumerate() {
                vals[i] = eval(a, ctx)?;
            }
            b.apply(&vals[..args.len()])
        }
        PExpr::Rand => ctx.rng.unit(),
    })
}

/// A compiled class run by the tree walker. Test-only by convention: built
/// through [`BrasilBehavior::reference`](crate::exec::BrasilBehavior::reference).
#[derive(Debug, Clone)]
pub struct ReferenceBehavior {
    class: CompiledClass,
}

impl ReferenceBehavior {
    pub(crate) fn new(class: CompiledClass) -> Self {
        ReferenceBehavior { class }
    }

    #[allow(clippy::too_many_arguments)] // interpreter context, flattened for the hot path
    fn exec_stmts<'v>(
        &self,
        stmts: &[PStmt],
        me: RowRef<'v>,
        neighbors: &Neighbors<'v>,
        eff: &mut EffectWriter<'_>,
        shadow: &mut [f64],
        locals: &mut [Option<f64>],
        other: Option<(RowRef<'v>, u32)>,
        rng: &mut DetRng,
    ) {
        let schema = self.class.schema();
        for stmt in stmts {
            match stmt {
                PStmt::Let { slot, value } => {
                    let v = {
                        let mut ctx = EvalCtx { me, other: other.map(|o| o.0), locals, effects: shadow, rng };
                        eval(value, &mut ctx)
                    };
                    // A binding coerces NaN → NIL.
                    locals[*slot as usize] = v.filter(|v| !v.is_nan());
                }
                PStmt::LocalEffect { field, value } => {
                    let v = {
                        let mut ctx = EvalCtx { me, other: other.map(|o| o.0), locals, effects: shadow, rng };
                        eval(value, &mut ctx)
                    };
                    if let Some(v) = v.filter(|v| !v.is_nan()) {
                        let fid = FieldId::new(*field);
                        eff.local(fid, v);
                        let comb = schema.combinator(fid);
                        shadow[*field as usize] = comb.combine(shadow[*field as usize], v);
                    }
                }
                PStmt::RemoteEffect { field, value } => {
                    let Some((_, target_row)) = other else {
                        unreachable!("remote effect outside foreach (rejected by analysis)")
                    };
                    let v = {
                        let mut ctx = EvalCtx { me, other: other.map(|o| o.0), locals, effects: shadow, rng };
                        eval(value, &mut ctx)
                    };
                    if let Some(v) = v.filter(|v| !v.is_nan()) {
                        eff.remote(target_row, FieldId::new(*field), v);
                    }
                }
                PStmt::If { cond, then_, else_ } => {
                    let c = {
                        let mut ctx = EvalCtx { me, other: other.map(|o| o.0), locals, effects: shadow, rng };
                        eval(cond, &mut ctx)
                    };
                    let branch = match c {
                        Some(v) if v != 0.0 => then_,
                        Some(_) => else_,
                        None => continue, // NIL condition: whole statement is skipped
                    };
                    self.exec_stmts(branch, me, neighbors, eff, shadow, locals, other, rng);
                }
                PStmt::Foreach { body } => {
                    for nb in neighbors.iter() {
                        self.exec_stmts(body, me, neighbors, eff, shadow, locals, Some((nb.agent, nb.row)), rng);
                    }
                }
            }
        }
    }
}

impl Behavior for ReferenceBehavior {
    fn schema(&self) -> &AgentSchema {
        self.class.schema()
    }

    fn query(&self, me: RowRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        let schema = self.class.schema();
        let mut shadow = schema.effect_identities();
        let mut locals = vec![None; self.class.query.n_locals as usize];
        self.exec_stmts(&self.class.query.stmts, me, neighbors, eff, &mut shadow, &mut locals, None, rng);
    }

    fn probe_rect(&self, pos: Vec2, vis: f64) -> Rect {
        self.class.probe_rect(pos, vis)
    }

    fn update(&self, me: &mut Agent, ctx: &mut UpdateCtx<'_>) {
        // Simultaneous semantics: evaluate every rule against the
        // pre-update snapshot, then commit.
        let snapshot = me.clone();
        let mut locals: Vec<Option<f64>> = Vec::new();
        let mut staged: Vec<(UpdateTarget, f64)> = Vec::with_capacity(self.class.updates.len());
        for rule in &self.class.updates {
            let v = {
                let mut ec = EvalCtx {
                    me: &snapshot,
                    other: None,
                    locals: &mut locals,
                    effects: &snapshot.effects,
                    rng: &mut ctx.rng,
                };
                eval(&rule.expr, &mut ec)
            };
            // NIL update leaves the field unchanged (weak-reference
            // semantics: a rule depending on NIL data is a no-op).
            if let Some(v) = v.filter(|v| !v.is_nan()) {
                staged.push((rule.target, v));
            }
        }
        for (target, v) in staged {
            match target {
                UpdateTarget::PosX => me.pos.x = v,
                UpdateTarget::PosY => me.pos.y = v,
                UpdateTarget::State(i) => me.state[i as usize] = v,
            }
        }
    }
}
