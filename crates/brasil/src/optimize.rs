//! Algebraic optimization of compiled plans.
//!
//! Three rewrites, mirroring §4.2, and one derivation:
//!
//! * **const-fold** ([`fold_constants`]) — evaluate constant subtrees at
//!   compile time (the garden-variety algebraic rewrite; `rand()` and agent
//!   reads block folding). It folds by calling the evaluator's own
//!   arithmetic table ([`vm::unop`](crate::vm::unop),
//!   [`vm::binop`](crate::vm::binop),
//!   [`Builtin::apply`](crate::plan::Builtin::apply)), so fold time and run
//!   time are one function and cannot diverge.
//! * **dead-code** ([`eliminate_dead_code`]) — remove `Let`s whose slot is
//!   never read, `If`s with constant conditions, and empty loops/branches
//!   (the paper's "rewrite rules that function like dead-code elimination").
//! * **invert** ([`invert_effects`]) — **effect inversion** (Theorems 2/3):
//!   rewrite non-local effect assignments `p.f <- E(this, p)` into local ones
//!   `f <- E(p, this)` by swapping the roles of the querying agent and the
//!   loop variable, eliminating the second reduce pass of the runtime.
//! * **pushdown** ([`with_probe_bounds`]) — turn a loop's guard into bounds
//!   on the probe rect. It rewrites nothing, so it runs once, last.
//!
//! [`standard`] runs const-fold → dead-code; [`with_inversion`] runs
//! const-fold → dead-code → invert → dead-code. One run of each rewrite is
//! its fixpoint: folding is bottom-up, dead code sweeps until nothing more
//! goes, and neither makes work for the other. Fold and dead code come
//! before inversion so that a dead branch — an `if (false)` that draws,
//! reads a prelude local or assigns to a neighbour — neither makes it refuse
//! nor gets inverted; the dead code after it drops the `Let`s of the loop's
//! local part that only the non-local assignments read.
//!
//! Repeated subexpressions are not a plan rewrite: [`vm::lower`](crate::vm::lower)
//! value-numbers every pure op, so a repeat is computed once whatever the
//! plan looks like.
//!
//! ### Inversion correctness conditions
//!
//! The rewrite is exact — the inverted class leaves the world the original
//! leaves, bit for bit — when (a) every agent runs the same script with the
//! same visibility bound, so visibility is *symmetric*: `q` sees `this` iff
//! `this` sees `q` (the probe rect, [`Rect::centered`](brace_common::Rect::centered),
//! holds exactly the `q` with `|fl(q − this)| ≤ vis` on each axis, which
//! rounding cannot make one-sided), and (b) the inverted fragment draws no
//! randomness (the draw would move from the assigner's stream to the
//! target's, changing the realization) and reads no local bound before the
//! loop (the inverted assignment would need the neighbour's binding, which
//! the querying agent never computes), and (c) `run()` reads back no effect
//! field it assigns to other agents (the read sees this agent's own local
//! contributions; inverted, it would also see what its neighbours send,
//! which only the second reduce pass delivers), and (d) no field it assigns
//! to other agents also gets a local write (uninverted, a target's own
//! writes fold at its own place in the order of sources and each
//! neighbour's at the neighbour's; inverted, the two interleave per
//! candidate, which moves the last bits of a `sum` and the sign of a zero
//! under `min`). Then each target combines the same values in the same
//! canonical candidate order either way. Condition (a) is the
//! uniform-distance-bound special case of the paper's Theorem 3 in which
//! the factor-2 relaxation of the visibility bound is unnecessary;
//! `invert_effects` returns an error rather than silently changing
//! semantics when the conditions fail.

use crate::ast::BinOp;
use crate::exec::CompiledClass;
use crate::plan::{AgentRef, Axis, Bound, PExpr, PStmt, ProbeBounds, QueryPlan};
use crate::vm::{binop, unop};
use brace_common::{BraceError, Result};

/// What one rewrite did: its name and how much it rewrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassReport {
    pub name: &'static str,
    pub rewrites: usize,
}

/// The bit-preserving optimizer: [`standard`] without its report.
pub fn optimize(class: CompiledClass) -> CompiledClass {
    standard(class).0
}

/// Const-fold → dead-code, then probe bounds. Every rewrite here preserves
/// the plan's results bit for bit. The report lists the rewrites in the
/// order they ran.
pub fn standard(class: CompiledClass) -> (CompiledClass, Vec<PassReport>) {
    let (class, folded) = fold_constants(class);
    let (class, dead) = eliminate_dead_code(class);
    let report =
        vec![PassReport { name: "const-fold", rewrites: folded }, PassReport { name: "dead-code", rewrites: dead }];
    (with_probe_bounds(class), report)
}

/// [`standard`], then invert → dead-code, then probe bounds again. Like
/// every rewrite here it preserves the plan's results bit for bit. An
/// inversion refusal (rand in the loop, a prelude local read by the
/// inverted fragment, a read of a non-local field, a field written both
/// locally and non-locally, a loop under an `if`, too many local slots to
/// double) leaves the class as it is: the two-pass reduce path still runs
/// it correctly.
pub fn with_inversion(class: CompiledClass) -> (CompiledClass, Vec<PassReport>) {
    let (class, mut report) = standard(class);
    let (class, inverted) = if class.query.has_remote_effects() {
        invert_effects(class.clone()).map_or((class, 0), |inv| (inv, 1))
    } else {
        (class, 0)
    };
    let (class, dead) = eliminate_dead_code(class);
    report
        .extend([PassReport { name: "invert", rewrites: inverted }, PassReport { name: "dead-code", rewrites: dead }]);
    (with_probe_bounds(class), report)
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Fold the constant subtrees of every query expression and update rule.
/// Each fold leaves fewer expression nodes, so the count of nodes gone is
/// the rewrite count, and zero means nothing changed. Folding removes no
/// statement, so the schema stands.
pub fn fold_constants(mut class: CompiledClass) -> (CompiledClass, usize) {
    let before = class_nodes(&class);
    class.query.stmts = fold_stmts(std::mem::take(&mut class.query.stmts));
    for rule in &mut class.updates {
        rule.expr = constant_fold(rule.expr.clone());
    }
    let folded = before - class_nodes(&class);
    (class, folded)
}

fn class_nodes(class: &CompiledClass) -> usize {
    let mut n = 0;
    let mut count = |e: &PExpr| {
        e.any(&mut |_| {
            n += 1;
            false
        });
    };
    for s in &class.query.stmts {
        s.visit(&mut |st| st.expr().into_iter().for_each(&mut count));
    }
    class.updates.iter().for_each(|r| count(&r.expr));
    n
}

/// Fold the constant subtrees of an expression.
pub fn constant_fold(e: PExpr) -> PExpr {
    e.map(&mut |node| match node {
        PExpr::Unary(op, inner) => match *inner {
            PExpr::Const(v) => PExpr::Const(unop(op, v)),
            _ => PExpr::Unary(op, inner),
        },
        PExpr::Binary(op, a, b) => match ((*a).clone(), (*b).clone()) {
            (PExpr::Const(l), PExpr::Const(r)) => PExpr::Const(binop(op, l, r)),
            // Only the identities that hold bit for bit, for every `x`
            // (signed zeros included), matched on the constant's bits:
            // `x + -0`, `-0 + x`, `x - +0`, `x * 1`, `1 * x`, `x / 1`. Not
            // `x + 0` or `x - -0`: `-0 + 0` is `+0`.
            (lhs, PExpr::Const(r)) if is_identity_rhs(op, r) => lhs,
            (PExpr::Const(l), rhs) if is_identity_lhs(op, l) => rhs,
            _ => PExpr::Binary(op, a, b),
        },
        PExpr::Call(b, args) => {
            if args.iter().all(|a| matches!(a, PExpr::Const(_))) {
                let vals: Vec<f64> = args
                    .iter()
                    .map(|a| match a {
                        PExpr::Const(v) => *v,
                        _ => unreachable!(),
                    })
                    .collect();
                PExpr::Const(b.apply(&vals))
            } else {
                PExpr::Call(b, args)
            }
        }
        other => other,
    })
}

/// `x op c == x` bitwise for every `x`.
fn is_identity_rhs(op: BinOp, c: f64) -> bool {
    match op {
        BinOp::Add => c.to_bits() == (-0.0f64).to_bits(),
        BinOp::Sub => c.to_bits() == 0.0f64.to_bits(),
        BinOp::Mul | BinOp::Div => c.to_bits() == 1.0f64.to_bits(),
        _ => false,
    }
}

/// `c op x == x` bitwise for every `x`.
fn is_identity_lhs(op: BinOp, c: f64) -> bool {
    match op {
        BinOp::Add => c.to_bits() == (-0.0f64).to_bits(),
        BinOp::Mul => c.to_bits() == 1.0f64.to_bits(),
        _ => false,
    }
}

fn fold_stmts(stmts: Vec<PStmt>) -> Vec<PStmt> {
    stmts
        .into_iter()
        .map(|s| match s {
            PStmt::Let { slot, value } => PStmt::Let { slot, value: constant_fold(value) },
            PStmt::LocalEffect { field, value } => PStmt::LocalEffect { field, value: constant_fold(value) },
            PStmt::RemoteEffect { field, value } => PStmt::RemoteEffect { field, value: constant_fold(value) },
            PStmt::If { cond, then_, else_ } => {
                PStmt::If { cond: constant_fold(cond), then_: fold_stmts(then_), else_: fold_stmts(else_) }
            }
            PStmt::Foreach { body } => PStmt::Foreach { body: fold_stmts(body) },
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Dead code elimination
// ---------------------------------------------------------------------------

/// Remove unread `Let`s, constant `If`s and empty control structures, until
/// none is left (removing an `If` can orphan a `Let`). Returns how many
/// statements went. A `Let` or an empty `If` that draws stays: every
/// `rand()` takes the next number of the agent's stream, so dropping one
/// would shift every later draw.
pub fn eliminate_dead_code(class: CompiledClass) -> (CompiledClass, usize) {
    let mut stmts = class.query.stmts.clone();
    let before = size(&stmts);
    loop {
        let used = used_slots(&stmts);
        let n = size(&stmts);
        stmts = sweep(stmts, &used);
        if size(&stmts) == n {
            break;
        }
    }
    let removed = before - size(&stmts);
    if removed == 0 {
        return (class, 0);
    }
    // Rebuilt, because a removed non-local assignment can leave a field
    // local-only.
    let plan = QueryPlan { stmts, n_locals: class.query.n_locals };
    (class.with_query(plan), removed)
}

fn size(stmts: &[PStmt]) -> usize {
    let mut n = 0;
    for s in stmts {
        s.visit(&mut |_| n += 1);
    }
    n
}

fn used_slots(stmts: &[PStmt]) -> Vec<bool> {
    let mut used = vec![false; u16::MAX as usize + 1];
    let mut mark = |e: &PExpr| {
        let mut any = |n: &PExpr| {
            if let PExpr::Local(i) = n {
                used[*i as usize] = true;
            }
            false
        };
        e.any(&mut any);
    };
    for s in stmts {
        s.visit(&mut |st| {
            if let Some(e) = st.expr() {
                mark(e);
            }
        });
    }
    used
}

fn sweep(stmts: Vec<PStmt>, used: &[bool]) -> Vec<PStmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            PStmt::Let { slot, value } => {
                // Keep the binding only if read somewhere or if it draws.
                if used[slot as usize] || draws(&value) {
                    out.push(PStmt::Let { slot, value });
                }
            }
            PStmt::If { cond, then_, else_ } => {
                let then_ = sweep(then_, used);
                let else_ = sweep(else_, used);
                match cond {
                    PExpr::Const(v) if v != 0.0 => out.extend(then_),
                    PExpr::Const(_) => out.extend(else_),
                    cond => {
                        if !(then_.is_empty() && else_.is_empty()) || draws(&cond) {
                            out.push(PStmt::If { cond, then_, else_ });
                        }
                    }
                }
            }
            PStmt::Foreach { body } => {
                let body = sweep(body, used);
                if !body.is_empty() {
                    out.push(PStmt::Foreach { body });
                }
            }
            other => out.push(other),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Effect inversion (Theorems 2 and 3)
// ---------------------------------------------------------------------------

/// Swap the roles of `this` and the loop variable in an expression.
fn swap_roles(e: PExpr) -> PExpr {
    e.map(&mut |node| match node {
        PExpr::SelfPos(a) => PExpr::OtherPos(a),
        PExpr::OtherPos(a) => PExpr::SelfPos(a),
        PExpr::SelfState(i) => PExpr::OtherState(i),
        PExpr::OtherState(i) => PExpr::SelfState(i),
        PExpr::AgentEq { left, right, negate } => PExpr::AgentEq { left: flip(left), right: flip(right), negate },
        other => other,
    })
}

fn flip(r: AgentRef) -> AgentRef {
    match r {
        AgentRef::This => AgentRef::Other,
        AgentRef::Other => AgentRef::This,
    }
}

/// Offset every local slot in a statement tree (for the duplicated inverted
/// copy, whose bindings must not collide with the original's).
fn offset_slots(stmts: Vec<PStmt>, delta: u16) -> Vec<PStmt> {
    let bump = |e: PExpr| {
        e.map(&mut |n| match n {
            PExpr::Local(i) => PExpr::Local(i + delta),
            other => other,
        })
    };
    stmts
        .into_iter()
        .map(|s| match s {
            PStmt::Let { slot, value } => PStmt::Let { slot: slot + delta, value: bump(value) },
            PStmt::LocalEffect { field, value } => PStmt::LocalEffect { field, value: bump(value) },
            PStmt::RemoteEffect { field, value } => PStmt::RemoteEffect { field, value: bump(value) },
            PStmt::If { cond, then_, else_ } => {
                PStmt::If { cond: bump(cond), then_: offset_slots(then_, delta), else_: offset_slots(else_, delta) }
            }
            PStmt::Foreach { body } => PStmt::Foreach { body: offset_slots(body, delta) },
        })
        .collect()
}

/// Drop every `RemoteEffect` from a tree (keeping structure).
fn strip_remote(stmts: Vec<PStmt>) -> Vec<PStmt> {
    stmts
        .into_iter()
        .filter_map(|s| match s {
            PStmt::RemoteEffect { .. } => None,
            PStmt::If { cond, then_, else_ } => {
                Some(PStmt::If { cond, then_: strip_remote(then_), else_: strip_remote(else_) })
            }
            PStmt::Foreach { body } => Some(PStmt::Foreach { body: strip_remote(body) }),
            other => Some(other),
        })
        .collect()
}

/// Drop every `LocalEffect` from a tree, then swap agent roles everywhere —
/// producing the fragment "what each neighbor would have assigned to me,
/// computed by me".
fn remote_as_local(stmts: Vec<PStmt>) -> Vec<PStmt> {
    stmts
        .into_iter()
        .filter_map(|s| match s {
            PStmt::LocalEffect { .. } => None,
            PStmt::RemoteEffect { field, value } => Some(PStmt::LocalEffect { field, value: swap_roles(value) }),
            PStmt::Let { slot, value } => Some(PStmt::Let { slot, value: swap_roles(value) }),
            PStmt::If { cond, then_, else_ } => {
                Some(PStmt::If { cond: swap_roles(cond), then_: remote_as_local(then_), else_: remote_as_local(else_) })
            }
            PStmt::Foreach { body } => Some(PStmt::Foreach { body: remote_as_local(body) }),
        })
        .collect()
}

/// Does `stmts` read a local slot that no `Let` inside it binds — one bound
/// before the loop?
fn reads_outer_local(stmts: &[PStmt]) -> bool {
    let mut bound = Vec::new();
    for s in stmts {
        s.visit(&mut |st| {
            if let PStmt::Let { slot, .. } = st {
                bound.push(*slot);
            }
        });
    }
    let mut outer = false;
    for s in stmts {
        s.visit(&mut |st| {
            outer |= st.expr().is_some_and(|e| e.any(&mut |n| matches!(n, PExpr::Local(i) if !bound.contains(i))))
        });
    }
    outer
}

fn draws(e: &PExpr) -> bool {
    e.any(&mut |n| matches!(n, PExpr::Rand))
}

fn contains_rand(stmts: &[PStmt]) -> bool {
    let mut found = false;
    for s in stmts {
        s.visit(&mut |st| found |= st.expr().is_some_and(draws));
    }
    found
}

/// Rewrite the class so all effect assignments are local. See the module
/// docs for the correctness conditions. Idempotent on local-only classes.
pub fn invert_effects(class: CompiledClass) -> Result<CompiledClass> {
    if !class.query.has_remote_effects() {
        return Ok(class);
    }
    // Condition (c) of the module docs.
    let remote = class.query.remote_fields();
    let mut reads_remote = false;
    for s in &class.query.stmts {
        s.visit(&mut |st| {
            reads_remote |=
                st.expr().is_some_and(|e| e.any(&mut |n| matches!(n, PExpr::SelfEffect(f) if remote.contains(f))))
        });
    }
    if reads_remote {
        return Err(BraceError::Rewrite(
            "effect inversion would let `run()` read the contributions other agents send to a field; refusing".into(),
        ));
    }
    // Condition (d) of the module docs.
    let mut mixed = false;
    for s in &class.query.stmts {
        s.visit(&mut |st| mixed |= matches!(st, PStmt::LocalEffect { field, .. } if remote.contains(field)));
    }
    if mixed {
        return Err(BraceError::Rewrite(
            "effect inversion would interleave a field's own writes with the ones it pulls from its neighbours; \
             refusing a field written both locally and non-locally"
                .into(),
        ));
    }
    let n_locals = class.query.n_locals;
    // The inverted fragment takes a second copy of every slot.
    let Some(doubled) = n_locals.checked_mul(2) else {
        return Err(BraceError::Rewrite(format!(
            "effect inversion doubles the script's {n_locals} local slots, past {}",
            u16::MAX
        )));
    };
    let mut out: Vec<PStmt> = Vec::new();
    for stmt in class.query.stmts.clone() {
        match stmt {
            PStmt::Foreach { body } => {
                if contains_rand(&body) {
                    return Err(BraceError::Rewrite(
                        "effect inversion would move a rand() draw between agent streams; \
                         refusing to change the random realization"
                            .into(),
                    ));
                }
                // Condition (b) of the module docs.
                let inverted = remote_as_local(body.clone());
                if reads_outer_local(&inverted) {
                    return Err(BraceError::Rewrite(
                        "effect inversion would read a local bound before the loop, which the inverted \
                         assignment needs from the neighbour; refusing"
                            .into(),
                    ));
                }
                // Original loop minus its non-local assignments, plus the
                // inverted fragment with fresh local slots.
                let inverted = offset_slots(inverted, n_locals);
                let local_part = strip_remote(body);
                let mut merged = local_part;
                merged.extend(inverted);
                if !merged.is_empty() {
                    out.push(PStmt::Foreach { body: merged });
                }
            }
            other => {
                // A loop under an `if`: the inverted fragment would need the
                // neighbour's condition, which the querying agent never
                // evaluates.
                let mut remote = false;
                other.visit(&mut |s| remote |= matches!(s, PStmt::RemoteEffect { .. }));
                if remote {
                    return Err(BraceError::Rewrite(
                        "non-local effect assignment outside a top-level foreach loop cannot be inverted".into(),
                    ));
                }
                out.push(other);
            }
        }
    }
    let plan = QueryPlan { stmts: out, n_locals: doubled };
    debug_assert!(!plan.has_remote_effects());
    Ok(class.with_query(plan))
}

// ---------------------------------------------------------------------------
// Visibility-predicate pushdown
// ---------------------------------------------------------------------------

/// Record on the class the [`ProbeBounds`] its plan proves, so the executor
/// probes a smaller rect; `None` if it proves none. Bounds come from a loop
/// whose entire body is guarded by a single `if` with no else branch. Sound
/// because comparison and `&&` nodes always evaluate to 0/1 (never
/// NIL/NaN): if the root conjunction is non-zero, every comparison reachable
/// through `&&` spines alone evaluated to 1 — so a candidate violating any
/// harvested bound makes the guard false (or NIL, which also skips the
/// `if`) and contributed nothing.
pub fn with_probe_bounds(mut class: CompiledClass) -> CompiledClass {
    class.probe_bounds = derive_probe_bounds(&class.query);
    class
}

fn derive_probe_bounds(plan: &QueryPlan) -> Option<ProbeBounds> {
    let body = sole_loop_body(plan)?;
    if contains_rand(body) {
        return None;
    }
    // Shape: any number of `Let`s, then exactly one guard `if` with an
    // empty else, then nothing. Effects outside the guard would make
    // excluded candidates observable.
    let mut guard: Option<&PExpr> = None;
    for s in body {
        if guard.is_some() {
            return None;
        }
        match s {
            PStmt::Let { .. } => {}
            PStmt::If { cond, else_, .. } if else_.is_empty() => guard = Some(cond),
            _ => return None,
        }
    }
    let mut b = ProbeBounds::default();
    collect_bounds(guard?, &mut b);
    if b.is_empty() {
        None
    } else {
        Some(b)
    }
}

/// The body of the plan's single `Foreach`, if it has exactly one and it
/// sits at the top level.
fn sole_loop_body(plan: &QueryPlan) -> Option<&Vec<PStmt>> {
    let mut loops = 0;
    for s in &plan.stmts {
        s.visit(&mut |st| {
            if matches!(st, PStmt::Foreach { .. }) {
                loops += 1;
            }
        });
    }
    if loops != 1 {
        return None;
    }
    plan.stmts.iter().find_map(|s| match s {
        PStmt::Foreach { body } => Some(body),
        _ => None,
    })
}

fn collect_bounds(e: &PExpr, b: &mut ProbeBounds) {
    match e {
        PExpr::Binary(BinOp::And, l, r) => {
            collect_bounds(l, b);
            collect_bounds(r, b);
        }
        PExpr::Binary(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge), l, r) => {
            if let PExpr::OtherPos(axis) = **l {
                // p.axis OP bound: Gt/Ge is a lower bound, Lt/Le an upper.
                if let Some(bound) = self_side(r, axis) {
                    push_bound(b, axis, matches!(op, BinOp::Gt | BinOp::Ge), bound);
                }
            } else if let PExpr::OtherPos(axis) = **r {
                // bound OP p.axis: mirrored.
                if let Some(bound) = self_side(l, axis) {
                    push_bound(b, axis, matches!(op, BinOp::Lt | BinOp::Le), bound);
                }
            }
        }
        _ => {}
    }
}

fn push_bound(b: &mut ProbeBounds, axis: Axis, lo: bool, bound: Bound) {
    match (axis, lo) {
        (Axis::X, true) => b.x_lo.push(bound),
        (Axis::X, false) => b.x_hi.push(bound),
        (Axis::Y, true) => b.y_lo.push(bound),
        (Axis::Y, false) => b.y_hi.push(bound),
    }
}

/// A guard operand expressible as a probe-time bound: a constant, the
/// querying agent's own coordinate on the same axis, or that coordinate
/// plus/minus a constant. (Strict vs non-strict comparison is deliberately
/// ignored — the rect keeps boundary candidates and the guard re-filters.)
fn self_side(e: &PExpr, axis: Axis) -> Option<Bound> {
    match e {
        PExpr::Const(c) => Some(Bound::Abs(*c)),
        PExpr::SelfPos(a) if *a == axis => Some(Bound::Rel(0.0)),
        PExpr::Binary(BinOp::Add, a, b) => match (&**a, &**b) {
            (PExpr::SelfPos(ax), PExpr::Const(c)) if *ax == axis => Some(Bound::Rel(*c)),
            (PExpr::Const(c), PExpr::SelfPos(ax)) if *ax == axis => Some(Bound::Rel(*c)),
            _ => None,
        },
        PExpr::Binary(BinOp::Sub, a, b) => match (&**a, &**b) {
            (PExpr::SelfPos(ax), PExpr::Const(c)) if *ax == axis => Some(Bound::Rel(-*c)),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::exec::BrasilBehavior;
    use crate::parser::parse;
    use brace_common::{AgentId, DetRng, Vec2};
    use brace_core::{Agent, Behavior, Simulation};

    fn compile_src(src: &str) -> CompiledClass {
        analyze(&parse(src).unwrap().classes[0]).unwrap()
    }

    #[test]
    fn folding_collapses_constants() {
        let e = PExpr::Binary(
            BinOp::Add,
            Box::new(PExpr::Const(1.0)),
            Box::new(PExpr::Binary(BinOp::Mul, Box::new(PExpr::Const(2.0)), Box::new(PExpr::Const(3.0)))),
        );
        assert_eq!(constant_fold(e), PExpr::Const(7.0));
    }

    #[test]
    fn folding_applies_identities() {
        let x = PExpr::SelfState(0);
        let bin = |op, l: &PExpr, r: &PExpr| PExpr::Binary(op, Box::new(l.clone()), Box::new(r.clone()));
        let k = PExpr::Const;
        for e in [
            bin(BinOp::Add, &x, &k(-0.0)),
            bin(BinOp::Add, &k(-0.0), &x),
            bin(BinOp::Sub, &x, &k(0.0)),
            bin(BinOp::Mul, &x, &k(1.0)),
            bin(BinOp::Mul, &k(1.0), &x),
            bin(BinOp::Div, &x, &k(1.0)),
        ] {
            assert_eq!(constant_fold(e), x);
        }
        // `-0 + 0` is `+0`: these are not identities for `x = -0`.
        for e in [bin(BinOp::Add, &x, &k(0.0)), bin(BinOp::Add, &k(0.0), &x), bin(BinOp::Sub, &x, &k(-0.0))] {
            assert_eq!(constant_fold(e.clone()), e);
        }
    }

    #[test]
    fn folding_stops_at_rand() {
        let e = PExpr::Binary(BinOp::Add, Box::new(PExpr::Rand), Box::new(PExpr::Const(-0.0)));
        // x + -0 identity applies, but Rand itself cannot become Const.
        assert_eq!(constant_fold(e), PExpr::Rand);
    }

    #[test]
    fn constants_compare_by_bits() {
        assert_ne!(PExpr::Const(0.0), PExpr::Const(-0.0));
        assert_eq!(PExpr::Const(f64::NAN), PExpr::Const(f64::NAN));
        assert_eq!(Bound::Abs(f64::NAN), Bound::Abs(f64::NAN));
        assert_ne!(Bound::Rel(0.0), Bound::Rel(-0.0));
    }

    #[test]
    fn dead_let_removed() {
        let class = compile_src(
            r#"
            class A {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    const float unused = 42;
                    const float used = 2;
                    foreach (A p : Extent<A>) { e <- used; }
                }
            }
        "#,
        );
        let optimized = optimize(class);
        let lets = optimized.query.count(&mut |s| matches!(s, PStmt::Let { .. }));
        assert_eq!(lets, 1, "only the used let survives");
    }

    #[test]
    fn constant_if_pruned() {
        let class = compile_src(
            r#"
            class A {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    foreach (A p : Extent<A>) {
                        if (1 > 2) { e <- 1; } else { e <- 5; }
                    }
                }
            }
        "#,
        );
        let optimized = optimize(class);
        assert_eq!(optimized.query.count(&mut |s| matches!(s, PStmt::If { .. })), 0);
        // The else branch's assignment survives inline.
        assert_eq!(optimized.query.count(&mut |s| matches!(s, PStmt::LocalEffect { .. })), 1);
    }

    #[test]
    fn empty_foreach_removed() {
        let class = compile_src(
            r#"
            class A {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    const float dead = 3;
                    foreach (A p : Extent<A>) {
                        if (false) { e <- dead; }
                    }
                }
            }
        "#,
        );
        let optimized = optimize(class);
        assert!(optimized.query.stmts.is_empty(), "{:?}", optimized.query.stmts);
    }

    const PAPER_FISH: &str = r#"
        class Fish {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float ax : avoidx;
            public state float ay : avoidy;
            public state float c : count;
            private effect float avoidx : sum;
            private effect float avoidy : sum;
            private effect float count : sum;
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
    fn inversion_produces_the_papers_rewrite() {
        let class = compile_src(PAPER_FISH);
        assert!(class.schema().has_nonlocal_effects());
        let inverted = invert_effects(class).unwrap();
        assert!(!inverted.schema().has_nonlocal_effects());
        assert!(!inverted.query.has_remote_effects());
        // The paper's rewritten loop assigns 1/abs(p.x - x) locally: the
        // expression must read OtherPos - SelfPos now.
        let locals = inverted.query.count(&mut |s| matches!(s, PStmt::LocalEffect { .. }));
        assert_eq!(locals, 3);
    }

    #[test]
    fn inversion_preserves_semantics() {
        // Run the same population through original and inverted scripts;
        // aggregated effects (and hence next-tick states and positions) must
        // agree bit for bit.
        let run = |class: CompiledClass| {
            let behavior = BrasilBehavior::new(class);
            let schema = behavior.schema().clone();
            let mut rng = DetRng::seed_from_u64(8);
            let agents: Vec<Agent> = (0..40)
                .map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 6.0), rng.range(0.0, 6.0)), &schema))
                .collect();
            let mut sim = Simulation::builder(behavior).agents(agents).seed(5).build().unwrap();
            sim.step();
            let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            sim.agents().iter().map(|a| (a.id, bits(&[a.pos.x, a.pos.y]), bits(&a.state))).collect::<Vec<_>>()
        };
        let original = run(compile_src(PAPER_FISH));
        let inverted = run(invert_effects(compile_src(PAPER_FISH)).unwrap());
        assert_eq!(original, inverted);
    }

    #[test]
    fn inversion_handles_conditionals() {
        let src = r#"
            class Biter {
                public state float x : x #range[-2, 2];
                public state float y : y #range[-2, 2];
                public state float size : size;
                public state float pain : hurt;
                private effect float hurt : sum;
                public void run() {
                    foreach (Biter p : Extent<Biter>) {
                        if (size > p.size) { p.hurt <- size - p.size; }
                    }
                }
            }
        "#;
        let run = |class: CompiledClass| {
            let behavior = BrasilBehavior::new(class);
            let schema = behavior.schema().clone();
            let agents: Vec<Agent> = (0..6)
                .map(|i| {
                    let mut a = Agent::new(AgentId::new(i), Vec2::new(i as f64 * 0.8, 0.0), &schema);
                    a.state[0] = i as f64; // size
                    a
                })
                .collect();
            let mut sim = Simulation::builder(behavior).agents(agents).seed(2).build().unwrap();
            sim.step();
            sim.agents().iter().map(|a| a.state[1]).collect::<Vec<_>>()
        };
        let original = run(compile_src(src));
        let inverted = run(invert_effects(compile_src(src)).unwrap());
        assert_eq!(original, inverted);
        // Sanity: bigger fish are never hurt by smaller neighbors only.
        assert_eq!(original[5], 0.0, "largest fish takes no damage");
        assert!(original[0] > 0.0, "smallest fish is bitten");
    }

    #[test]
    fn inversion_refuses_randomized_loops() {
        let src = r#"
            class R {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    foreach (R p : Extent<R>) { p.e <- rand(); }
                }
            }
        "#;
        let err = invert_effects(compile_src(src)).expect_err("must refuse");
        assert!(err.to_string().contains("rand()"));
    }

    /// A loop whose non-local assignment reads a `const` bound before the
    /// loop: constant, and read off `this` (the inverted write would need the
    /// neighbour's binding).
    fn prelude_script(prelude: &str) -> String {
        format!(
            r#"class F {{
                public state float x : x #range[-1, 1];
                public state float y : y #range[-1, 1];
                public state float c : count;
                private effect float count : sum;
                public void run() {{
                    const float w = {prelude};
                    foreach (F p : Extent<F>) {{ p.count <- w; }}
                }}
            }}"#
        )
    }

    #[test]
    fn inversion_refuses_a_loop_that_reads_a_prelude_local() {
        for prelude in ["2", "x"] {
            let src = prelude_script(prelude);
            let err = invert_effects(compile_src(&src)).expect_err("must refuse");
            assert!(err.to_string().contains("before the loop"), "{err}");
            let (inverted, _) = with_inversion(compile_src(&src));
            assert!(inverted.schema().has_nonlocal_effects(), "a refused inversion must leave the class alone");
            let want = bits_after_steps(compile_src(&src));
            assert_eq!(bits_after_steps(inverted), want, "prelude `{prelude}`");
            assert!(want.iter().any(|(_, s)| s[2] != 0.0f64.to_bits()), "no agent counted anything");
        }
    }

    #[test]
    fn inversion_refuses_a_read_of_a_non_local_field() {
        // `count` read after the loop is this agent's own contributions: 0.
        let src = PAPER_FISH.replace(
            "p.count <- 1;\n                }",
            "p.count <- 1;\n                }\n                avoidx <- count;",
        );
        let err = invert_effects(compile_src(&src)).expect_err("must refuse");
        assert!(err.to_string().contains("contributions"), "{err}");
    }

    /// A local write to a non-local field, in the loop or before it.
    #[test]
    fn inversion_refuses_a_field_written_both_locally_and_non_locally() {
        for src in [
            PAPER_FISH.replace("p.count <- 1;", "p.count <- 1; count <- 1;"),
            PAPER_FISH.replace("foreach (Fish p", "avoidy <- 0;\n                foreach (Fish p"),
        ] {
            let err = invert_effects(compile_src(&src)).expect_err("must refuse");
            assert!(err.to_string().contains("both locally and non-locally"), "{err}");
            let (out, report) = with_inversion(compile_src(&src));
            assert!(out.schema().has_nonlocal_effects(), "{report:?}");
        }
    }

    #[test]
    fn inversion_refuses_a_loop_under_an_if() {
        let src = PAPER_FISH
            .replace("foreach (Fish p : Extent<Fish>) {", "if (x > 0) { foreach (Fish p : Extent<Fish>) {")
            .replace("p.count <- 1;\n                }", "p.count <- 1;\n                } }");
        let err = invert_effects(compile_src(&src)).expect_err("must refuse");
        assert!(err.to_string().contains("top-level foreach"), "{err}");
        let (out, report) = with_inversion(compile_src(&src));
        assert!(out.schema().has_nonlocal_effects(), "{report:?}");
        assert_idempotent(compile_src(&src));
    }

    /// A loop of `n` sibling `if`s that each bind one `const`, then a
    /// non-local assignment.
    fn many_locals_script(n: usize) -> String {
        let consts = "if (true) { const float c = 1; } ".repeat(n);
        format!(
            "class F {{ public state float x : x #range[-1, 1]; private effect float e : sum;
               public void run() {{ foreach (F p : Extent<F>) {{ {consts} p.e <- 1; }} }} }}"
        )
    }

    #[test]
    fn local_slots_past_u16_are_an_error() {
        let err = invert_effects(compile_src(&many_locals_script(1 << 15))).expect_err("must refuse");
        assert!(err.to_string().contains("local slots"), "{err}");
        let prog = parse(&many_locals_script(1 << 16)).unwrap();
        let err = analyze(&prog.classes[0]).expect_err("must refuse");
        assert!(err.to_string().contains("`const` bindings"), "{err}");
    }

    #[test]
    fn inversion_is_identity_on_local_scripts() {
        let src = r#"
            class L {
                public state float x : x #range[-1, 1];
                private effect float e : sum;
                public void run() {
                    foreach (L p : Extent<L>) { e <- 1; }
                }
            }
        "#;
        let class = compile_src(src);
        let before = class.query.clone();
        let after = invert_effects(class).unwrap();
        assert_eq!(before, after.query);
    }

    #[test]
    fn inverted_class_runs_single_reduce_pass() {
        // The schema flag drives the runtime's 1-vs-2 reduce decision.
        let class = compile_src(PAPER_FISH);
        assert!(class.schema().has_nonlocal_effects());
        let inv = invert_effects(class).unwrap();
        assert!(!inv.schema().has_nonlocal_effects());
    }

    /// Local-effects-only schooling script with a repeated denominator.
    const SCHOOL: &str = r#"
        class Fish {
            public state float x : x #range[-1, 1];
            public state float y : y #range[-1, 1];
            public state float ax : avoidx;
            public state float ay : avoidy;
            private effect float avoidx : sum;
            private effect float avoidy : sum;
            public void run() {
                foreach (Fish p : Extent<Fish>) {
                    avoidx <- (x - p.x) / max((x - p.x) * (x - p.x) + (y - p.y) * (y - p.y), 0.04);
                    avoidy <- (y - p.y) / max((x - p.x) * (x - p.x) + (y - p.y) * (y - p.y), 0.04);
                }
            }
        }
    "#;

    const GUARDED: &str = r#"
        class Car {
            public state float x : x #range[0, 100];
            public state float y : y;
            public state float g : gap;
            private effect float gap : sum;
            public void run() {
                foreach (Car p : Extent<Car>) {
                    if (p.x > x) { gap <- p.x - x; }
                }
            }
        }
    "#;

    fn states_after_steps(class: CompiledClass) -> Vec<(AgentId, Vec<f64>)> {
        let behavior = BrasilBehavior::new(class);
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(11);
        let agents: Vec<Agent> = (0..50)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 4.0), rng.range(0.0, 4.0)), &schema))
            .collect();
        let mut sim = Simulation::builder(behavior).agents(agents).seed(9).build().unwrap();
        for _ in 0..3 {
            sim.step();
        }
        sim.agents().iter().map(|a| (a.id, a.state.clone())).collect()
    }

    /// Optimizing `class` a second time, with inversion or without, rewrites
    /// nothing and leaves the plan, the update rules and the probe bounds as
    /// the first run left them.
    fn assert_idempotent(class: CompiledClass) {
        for entry in [standard, with_inversion] {
            let (once, _) = entry(class.clone());
            let (twice, again) = entry(once.clone());
            assert!(again.iter().all(|p| p.rewrites == 0), "{again:?}");
            assert_eq!(
                (&twice.query, &twice.updates, &twice.probe_bounds),
                (&once.query, &once.updates, &once.probe_bounds)
            );
        }
    }

    #[test]
    fn a_second_run_of_the_optimizer_rewrites_nothing() {
        let (_, report) = with_inversion(compile_src(PAPER_FISH));
        let names: Vec<_> = report.iter().map(|p| (p.name, p.rewrites)).collect();
        assert_eq!(names, [("const-fold", 0), ("dead-code", 0), ("invert", 1), ("dead-code", 0)]);
        for src in [PAPER_FISH, SCHOOL, GUARDED] {
            assert_idempotent(compile_src(src));
        }
    }

    #[test]
    fn dead_code_keeps_a_draw_nothing_reads() {
        // Dropping `c` would hand `e` the draw `c` takes.
        let src = two_effect_script("const float c = rand(); a <- rand(); if (rand() < 0.5) { } b <- rand();");
        let (out, report) = standard(compile_src(&src));
        assert_eq!(out.query, compile_src(&src).query, "{report:?}");
        assert_eq!(bits_after_steps(out), bits_after_steps(compile_src(&src)));
        // In a loop with a non-local assignment, the kept draw makes
        // inversion refuse.
        let src = PAPER_FISH.replace("p.count <- 1;", "p.count <- 1; const float r = rand();");
        let (out, report) = with_inversion(compile_src(&src));
        assert!(out.schema().has_nonlocal_effects(), "{report:?}");
    }

    /// Positions and states after [`states_after_steps`]' run, as bits.
    fn bits_after_steps(class: CompiledClass) -> Vec<(AgentId, Vec<u64>)> {
        states_after_steps_with_pos(class)
            .into_iter()
            .map(|(id, v)| (id, v.iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    fn states_after_steps_with_pos(class: CompiledClass) -> Vec<(AgentId, Vec<f64>)> {
        let behavior = BrasilBehavior::new(class);
        let schema = behavior.schema().clone();
        let mut rng = DetRng::seed_from_u64(11);
        let agents: Vec<Agent> = (0..50)
            .map(|i| Agent::new(AgentId::new(i), Vec2::new(rng.range(0.0, 4.0), rng.range(0.0, 4.0)), &schema))
            .collect();
        let mut sim = Simulation::builder(behavior).agents(agents).seed(9).build().unwrap();
        for _ in 0..3 {
            sim.step();
        }
        sim.agents().iter().map(|a| (a.id, [a.pos.x, a.pos.y].into_iter().chain(a.state.clone()).collect())).collect()
    }

    /// A one-loop class with two `max` effects `a` and `b` and the given
    /// loop body.
    fn two_effect_script(body: &str) -> String {
        format!(
            r#"class A {{
                public state float x : x #range[-1, 1];
                public state float y : y #range[-1, 1];
                public state float s : a;
                public state float t : b;
                private effect float a : max;
                private effect float b : max;
                public void run() {{ foreach (A p : Extent<A>) {{ {body} }} }}
            }}"#
        )
    }

    #[test]
    fn pipeline_keeps_signed_zero_constants_apart() {
        // `1 / ±0` is `±∞`: a rewrite that merged the two products would
        // flip `b`'s sign.
        let src = two_effect_script("a <- 1 / ((p.x - x) * 0); b <- 1 / ((p.x - x) * -0);");
        assert_eq!(bits_after_steps(optimize(compile_src(&src))), bits_after_steps(compile_src(&src)));
    }

    #[test]
    fn additive_identity_folds_keep_the_sign_of_zero() {
        // `p.x * -0 + 0` is `+0` for every `p.x`, so `a` is `+∞` everywhere;
        // folding the `+ 0` away would leave `-0` and `-∞` for `p.x > 0`.
        let src = two_effect_script("a <- 1 / ((p.x * -0) + 0); b <- 1;");
        assert_eq!(bits_after_steps(optimize(compile_src(&src))), bits_after_steps(compile_src(&src)));
    }

    #[test]
    fn nan_constants_are_idempotent() {
        for body in ["a <- (0 / 0) * p.x;", "if (p.x > 0 / 0) { a <- 1; }"] {
            assert_idempotent(compile_src(&two_effect_script(body)));
        }
    }

    #[test]
    fn pipeline_output_is_bit_identical_on_a_repeated_denominator() {
        let a = states_after_steps(compile_src(SCHOOL));
        let b = states_after_steps(optimize(compile_src(SCHOOL)));
        assert_eq!(a, b);
    }

    #[test]
    fn pushdown_derives_lower_bound_from_guard() {
        let b = optimize(compile_src(GUARDED)).probe_bounds.expect("bounds derived");
        assert_eq!(b.x_lo, vec![Bound::Rel(0.0)]);
        assert!(b.x_hi.is_empty() && b.y_lo.is_empty() && b.y_hi.is_empty());
    }

    #[test]
    fn pushdown_refuses_unguarded_loop() {
        assert!(optimize(compile_src(SCHOOL)).probe_bounds.is_none());
    }

    #[test]
    fn pushdown_output_is_bit_identical() {
        let a = states_after_steps(compile_src(GUARDED));
        let b = states_after_steps(optimize(compile_src(GUARDED)));
        assert_eq!(a, b);
    }
}
