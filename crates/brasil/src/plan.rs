//! The dataflow plan — BRASIL's compilation target.
//!
//! The paper compiles BRASIL to the monad algebra (Appendix B); the plan
//! here is that algebra's operational skeleton specialized to the query
//! shape the language can express: a straight-line prefix, one optional
//! `foreach` join with the visible extent (the simplified loop form
//! `F(E, B)` of equation (11)), conditionals, and effect aggregation (⊕).
//! [`analyze`](crate::analyze()) emits it as it checks the source. Every
//! slot is resolved — no names survive that walk — which makes the
//! algebraic rewrites in [`optimize`](mod@crate::optimize) plain tree surgery.

use crate::ast::{BinOp, UnOp};
use brace_common::{Rect, Vec2};
use serde::{Deserialize, Serialize};

/// Spatial axis selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Axis {
    X,
    Y,
}

/// Built-in functions (validated arity at analysis time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Builtin {
    Abs,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Ln,
    Floor,
    Ceil,
    Sign,
    Min,
    Max,
    Pow,
    Atan2,
    Clamp,
}

impl Builtin {
    pub fn parse(name: &str) -> Option<Builtin> {
        Some(match name {
            "abs" => Builtin::Abs,
            "sqrt" => Builtin::Sqrt,
            "sin" => Builtin::Sin,
            "cos" => Builtin::Cos,
            "exp" => Builtin::Exp,
            "ln" => Builtin::Ln,
            "floor" => Builtin::Floor,
            "ceil" => Builtin::Ceil,
            "sign" => Builtin::Sign,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "pow" => Builtin::Pow,
            "atan2" => Builtin::Atan2,
            "clamp" => Builtin::Clamp,
            _ => return None,
        })
    }

    /// Number of arguments.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Abs
            | Builtin::Sqrt
            | Builtin::Sin
            | Builtin::Cos
            | Builtin::Exp
            | Builtin::Ln
            | Builtin::Floor
            | Builtin::Ceil
            | Builtin::Sign => 1,
            Builtin::Min | Builtin::Max | Builtin::Pow | Builtin::Atan2 => 2,
            Builtin::Clamp => 3,
        }
    }

    /// Apply to evaluated arguments. With [`unop`](crate::vm::unop) and
    /// [`binop`](crate::vm::binop) this is BRASIL's one arithmetic table:
    /// the evaluator and constant folding both call it.
    #[inline]
    pub fn apply(self, args: &[f64]) -> f64 {
        match self {
            Builtin::Abs => args[0].abs(),
            Builtin::Sqrt => args[0].sqrt(),
            Builtin::Sin => args[0].sin(),
            Builtin::Cos => args[0].cos(),
            Builtin::Exp => args[0].exp(),
            Builtin::Ln => args[0].ln(),
            Builtin::Floor => args[0].floor(),
            Builtin::Ceil => args[0].ceil(),
            Builtin::Sign => {
                if args[0] > 0.0 {
                    1.0
                } else if args[0] < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            Builtin::Min => args[0].min(args[1]),
            Builtin::Max => args[0].max(args[1]),
            Builtin::Pow => args[0].powf(args[1]),
            Builtin::Atan2 => args[0].atan2(args[1]),
            Builtin::Clamp => {
                // Bounds in either order; `min`/`max` drop one NaN bound, and
                // with both NaN there is no interval (`f64::clamp` would
                // panic): the result is NaN, which an assignment skips.
                let (lo, hi) = (args[1].min(args[2]), args[2].max(args[1]));
                if lo.is_nan() {
                    f64::NAN
                } else {
                    args[0].clamp(lo, hi)
                }
            }
        }
    }
}

/// Which agent an agent-valued reference denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AgentRef {
    This,
    /// The current `foreach` loop variable.
    Other,
}

/// A resolved expression. `Self*` reads the querying agent, `Other*` reads
/// the current loop neighbor (valid only inside `Foreach`). Equality is
/// structural with constants compared **by bit pattern** (see the
/// `PartialEq` impl).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PExpr {
    Const(f64),
    SelfPos(Axis),
    OtherPos(Axis),
    SelfState(u16),
    OtherState(u16),
    /// Read of the agent's *locally aggregated* effect value; analysis
    /// guarantees this occurs only outside loops.
    SelfEffect(u16),
    /// A `const` local slot.
    Local(u16),
    /// Agent identity comparison (`p == this`); `negate` for `!=`.
    AgentEq {
        left: AgentRef,
        right: AgentRef,
        negate: bool,
    },
    Unary(UnOp, Box<PExpr>),
    Binary(BinOp, Box<PExpr>, Box<PExpr>),
    Call(Builtin, Vec<PExpr>),
    /// Deterministic per-(agent, tick, phase) random draw in [0, 1).
    Rand,
}

/// Structural equality, with `Const`s equal only when their bits are: the
/// optimizer's idempotence property and the tests compare plans bit for
/// bit, and under IEEE `==` a folded `0/0` would be unequal to itself while
/// `0` and `-0` would be one constant. Pushdown's [`Bound`]s, harvested from
/// such constants, compare the same way. `PStmt`, `UpdateRule` and
/// `QueryPlan` derive their equality from this.
impl PartialEq for PExpr {
    fn eq(&self, other: &PExpr) -> bool {
        use PExpr::*;
        match (self, other) {
            (Const(a), Const(b)) => a.to_bits() == b.to_bits(),
            (SelfPos(a), SelfPos(b)) | (OtherPos(a), OtherPos(b)) => a == b,
            (SelfState(a), SelfState(b))
            | (OtherState(a), OtherState(b))
            | (SelfEffect(a), SelfEffect(b))
            | (Local(a), Local(b)) => a == b,
            (AgentEq { left: l1, right: r1, negate: n1 }, AgentEq { left: l2, right: r2, negate: n2 }) => {
                (l1, r1, n1) == (l2, r2, n2)
            }
            (Unary(o1, a1), Unary(o2, a2)) => o1 == o2 && a1 == a2,
            (Binary(o1, a1, b1), Binary(o2, a2, b2)) => o1 == o2 && a1 == a2 && b1 == b2,
            (Call(f1, a1), Call(f2, a2)) => f1 == f2 && a1 == a2,
            (Rand, Rand) => true,
            _ => false,
        }
    }
}

impl PExpr {
    /// Does any node satisfy `pred`?
    pub fn any(&self, pred: &mut impl FnMut(&PExpr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        match self {
            PExpr::Unary(_, e) => e.any(pred),
            PExpr::Binary(_, a, b) => a.any(pred) || b.any(pred),
            PExpr::Call(_, args) => args.iter().any(|a| a.any(pred)),
            _ => false,
        }
    }

    /// Rewrite every node bottom-up.
    pub fn map(self, f: &mut impl FnMut(PExpr) -> PExpr) -> PExpr {
        let rebuilt = match self {
            PExpr::Unary(op, e) => PExpr::Unary(op, Box::new(e.map(f))),
            PExpr::Binary(op, a, b) => PExpr::Binary(op, Box::new(a.map(f)), Box::new(b.map(f))),
            PExpr::Call(b, args) => PExpr::Call(b, args.into_iter().map(|a| a.map(f)).collect()),
            leaf => leaf,
        };
        f(rebuilt)
    }
}

/// A plan statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PStmt {
    /// Bind local slot `slot`.
    Let {
        slot: u16,
        value: PExpr,
    },
    /// `field <- value` on the querying agent (⊕-aggregated).
    LocalEffect {
        field: u16,
        value: PExpr,
    },
    /// `other.field <- value` on the current loop neighbor.
    RemoteEffect {
        field: u16,
        value: PExpr,
    },
    If {
        cond: PExpr,
        then_: Vec<PStmt>,
        else_: Vec<PStmt>,
    },
    /// Join with the visible extent: run `body` once per visible neighbor.
    Foreach {
        body: Vec<PStmt>,
    },
}

impl PStmt {
    /// The expression the statement itself evaluates (a loop has none).
    pub fn expr(&self) -> Option<&PExpr> {
        match self {
            PStmt::Let { value: e, .. }
            | PStmt::LocalEffect { value: e, .. }
            | PStmt::RemoteEffect { value: e, .. }
            | PStmt::If { cond: e, .. } => Some(e),
            PStmt::Foreach { .. } => None,
        }
    }

    /// Visit every statement in the tree.
    pub fn visit(&self, f: &mut impl FnMut(&PStmt)) {
        f(self);
        match self {
            PStmt::If { then_, else_, .. } => {
                for s in then_.iter().chain(else_) {
                    s.visit(f);
                }
            }
            PStmt::Foreach { body } => {
                for s in body {
                    s.visit(f);
                }
            }
            _ => {}
        }
    }
}

/// The compiled query phase.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QueryPlan {
    pub stmts: Vec<PStmt>,
    pub n_locals: u16,
}

impl QueryPlan {
    /// Count statements matching `pred` (diagnostics and optimizer tests).
    pub fn count(&self, pred: &mut impl FnMut(&PStmt) -> bool) -> usize {
        let mut n = 0;
        for s in &self.stmts {
            s.visit(&mut |st| {
                if pred(st) {
                    n += 1
                }
            });
        }
        n
    }

    /// Does the plan contain any non-local effect assignment?
    pub fn has_remote_effects(&self) -> bool {
        self.count(&mut |s| matches!(s, PStmt::RemoteEffect { .. })) > 0
    }

    /// The effect slots the plan assigns to other agents (the
    /// `RemoteEffect` targets): the schema's remote fields. Ascending, each
    /// once.
    pub fn remote_fields(&self) -> Vec<u16> {
        let mut fields = Vec::new();
        for s in &self.stmts {
            s.visit(&mut |st| {
                if let PStmt::RemoteEffect { field, .. } = st {
                    fields.push(*field);
                }
            });
        }
        fields.sort_unstable();
        fields.dedup();
        fields
    }
}

/// Update-rule target: position axis or ordinary state slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateTarget {
    PosX,
    PosY,
    State(u16),
}

/// One compiled update rule. Rules evaluate against a snapshot of the
/// agent (simultaneous semantics) and commit together.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpdateRule {
    pub target: UpdateTarget,
    pub expr: PExpr,
}

// ---------------------------------------------------------------------------
// Visibility-predicate pushdown
// ---------------------------------------------------------------------------

/// One proven axis bound on a candidate's position, either relative to the
/// querying agent's own coordinate on the same axis or absolute. Equal by
/// bit pattern, like [`PExpr`]'s constants: a guard against a folded `0/0`
/// harvests a NaN bound, and the tests compare derived bounds bit for bit.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum Bound {
    /// `self coordinate + offset`.
    Rel(f64),
    /// A world-space constant.
    Abs(f64),
}

impl PartialEq for Bound {
    fn eq(&self, other: &Bound) -> bool {
        match (self, other) {
            (Bound::Rel(a), Bound::Rel(b)) | (Bound::Abs(a), Bound::Abs(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Bound {
    pub fn resolve(self, base: f64) -> f64 {
        match self {
            Bound::Rel(offset) => base + offset,
            Bound::Abs(v) => v,
        }
    }
}

/// Axis bounds proven by pushdown: every candidate that can take the
/// loop's guarded branch satisfies all of them, so the probe rect may
/// be intersected with them before the spatial index runs. Bounds are
/// inclusive — boundary candidates still pass through the interpreted
/// guard, which is what decides semantics.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProbeBounds {
    pub x_lo: Vec<Bound>,
    pub x_hi: Vec<Bound>,
    pub y_lo: Vec<Bound>,
    pub y_hi: Vec<Bound>,
}

impl ProbeBounds {
    pub fn is_empty(&self) -> bool {
        self.x_lo.is_empty() && self.x_hi.is_empty() && self.y_lo.is_empty() && self.y_hi.is_empty()
    }

    /// Intersect a visibility rect with the proven bounds, resolved against
    /// the querying agent's position. May produce an inverted (empty) rect
    /// when the guard is unsatisfiable — the probe then yields nothing,
    /// which matches a guard no candidate passes.
    pub fn tighten(&self, pos: Vec2, mut rect: Rect) -> Rect {
        for b in &self.x_lo {
            rect.lo.x = rect.lo.x.max(b.resolve(pos.x));
        }
        for b in &self.x_hi {
            rect.hi.x = rect.hi.x.min(b.resolve(pos.x));
        }
        for b in &self.y_lo {
            rect.lo.y = rect.lo.y.max(b.resolve(pos.y));
        }
        for b in &self.y_hi {
            rect.hi.y = rect.hi.y.min(b.resolve(pos.y));
        }
        rect
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_parse_and_apply() {
        assert_eq!(Builtin::parse("abs"), Some(Builtin::Abs));
        assert_eq!(Builtin::parse("nope"), None);
        assert_eq!(Builtin::Abs.apply(&[-3.0]), 3.0);
        assert_eq!(Builtin::Min.apply(&[2.0, 5.0]), 2.0);
        assert_eq!(Builtin::Pow.apply(&[2.0, 10.0]), 1024.0);
        assert_eq!(Builtin::Sign.apply(&[-7.0]), -1.0);
        assert_eq!(Builtin::Sign.apply(&[0.0]), 0.0);
        assert_eq!(Builtin::Clamp.apply(&[5.0, 0.0, 2.0]), 2.0);
    }

    #[test]
    fn clamp_with_nan_bounds_is_nan_not_a_panic() {
        let nan = f64::NAN;
        assert!(Builtin::Clamp.apply(&[1.0, nan, nan]).is_nan());
        // One NaN bound is dropped, bounds may come in either order, and a
        // NaN value stays NaN — all as before.
        assert_eq!(Builtin::Clamp.apply(&[5.0, nan, 2.0]), 2.0);
        assert_eq!(Builtin::Clamp.apply(&[5.0, 2.0, nan]), 2.0);
        assert_eq!(Builtin::Clamp.apply(&[5.0, 2.0, 0.0]), 2.0);
        assert!(Builtin::Clamp.apply(&[nan, 0.0, 2.0]).is_nan());
    }

    #[test]
    fn expr_any_finds_rand() {
        let e = PExpr::Binary(BinOp::Add, Box::new(PExpr::Const(1.0)), Box::new(PExpr::Rand));
        assert!(e.any(&mut |n| matches!(n, PExpr::Rand)));
        assert!(!PExpr::Const(1.0).any(&mut |n| matches!(n, PExpr::Rand)));
    }

    #[test]
    fn expr_map_rewrites_leaves() {
        let e = PExpr::Binary(BinOp::Add, Box::new(PExpr::SelfPos(Axis::X)), Box::new(PExpr::OtherPos(Axis::X)));
        let swapped = e.map(&mut |n| match n {
            PExpr::SelfPos(a) => PExpr::OtherPos(a),
            PExpr::OtherPos(a) => PExpr::SelfPos(a),
            other => other,
        });
        assert_eq!(
            swapped,
            PExpr::Binary(BinOp::Add, Box::new(PExpr::OtherPos(Axis::X)), Box::new(PExpr::SelfPos(Axis::X)))
        );
    }

    #[test]
    fn plan_counts_remote_effects() {
        let plan = QueryPlan {
            stmts: vec![PStmt::Foreach {
                body: vec![
                    PStmt::LocalEffect { field: 0, value: PExpr::Const(1.0) },
                    PStmt::RemoteEffect { field: 1, value: PExpr::Const(2.0) },
                ],
            }],
            n_locals: 0,
        };
        assert!(plan.has_remote_effects());
        assert_eq!(plan.count(&mut |s| matches!(s, PStmt::LocalEffect { .. })), 1);
    }
}
