//! The register program — how a compiled class runs.
//!
//! [`lower`] turns a [`CompiledClass`] — agent-level statements before and
//! after the loop, the `foreach` body, and the update rules — into one flat
//! [`Program`] of fixed-size register ops, value-numbered, with every op that
//! does not depend on the loop candidate hoisted out of the per-candidate
//! section. One evaluator runs it, driven through `Behavior::query_slice`
//! and `Behavior::update_rows`.
//!
//! ## One record per statement
//!
//! Lowering records each statement once, as a step: the ops still to run
//! before it, its act, and its *path* — the `if` conditions that reach it,
//! each with the branch taken. An `if` adds no control flow: its
//! condition's ops are closed by an `Eval` step on the outer path, and each
//! branch's steps carry the condition on theirs. A step runs — its ops,
//! then its act — exactly when every condition on its path is defined and
//! has its branch's truth. The walk reads the steps in order; the column
//! plan derives its acts and their paths from the same steps.
//!
//! ## The query as one data-flow pass per run of members
//!
//! A query that is nothing but one loop, whose body neither draws nor reads
//! an effect, has a `ColumnPlan`: a sweep slice runs in *runs* of members
//! (at most `RUN_MEMBERS` members, closed once they hold `RUN_PAIRS`
//! `(member, candidate)` pairs — a member's pairs are never split, so the
//! columns stay in cache whatever the slice's length), in one level of
//! columns, one value per pair:
//!
//! 1. each member's candidates are collected as pairs, and each pair's
//!    member's own fields and candidate's fields gathered;
//! 2. every op — the agent level's, then the body's — runs once over the
//!    run's pairs through the arithmetic table;
//! 3. each member's effects are written in probe order from the columns:
//!    pair by pair, each pair's acts in step order, where their paths hold.
//!
//! That is the walker's every write in the walker's order, so every effect
//! and the write-log's every entry are bit for bit the member-by-member
//! walk's. Every other query — an ordered body (it draws, or reads an
//! effect mid-loop), statements besides its loop, more than one loop or
//! none — runs [`Program::query`] member by member: the section walked in
//! statement order, the body once per candidate. NIL tracking has column
//! masks (one byte per pair), so it keeps a program on the column path.
//!
//! The update rules run [`UPDATE_LANES`] agents per pass — the update is the
//! map side of the tick, a pure function of each agent — every lane reading
//! its own row straight off the pool chunk's columns. The tree walker in
//! [`reference`](mod@crate::reference) is the specification; this module is
//! bit-identical to it by construction, and `brasil_vm_equals_reference`
//! (`tests/properties.rs`) holds it to that.
//!
//! ## Semantics carried over from the tree walker
//!
//! * **NIL is a mask, not NaN.** NaN does not propagate through comparisons,
//!   `min`/`max`, `&&`/`||` or `p == this`, so every register carries one
//!   NIL byte per lane (per pair, in a column). A result is NIL where an
//!   operand is; `a && b` is NIL where `a` is, or where `a ≠ 0` and `b` is
//!   (`||` dually); a `const` binding (a `Coerce` op) adds its NaN lanes; an
//!   `if` whose condition lane is NIL skips the statement for that lane; an
//!   effect assignment of a NIL or NaN value is skipped. A source `const` is the only way in — every
//!   `Let` in a plan is one — and lowering knows per register whether NIL
//!   can reach it: a program that binds none runs the evaluator with NIL
//!   tracking compiled out.
//! * **Order.** The value ops of a body that neither draws nor reads an
//!   effect are pure, so they run for every pair of a run and both sides of
//!   every branch. *Emission* is what is ordered: per field, candidates in
//!   order and statements in source order, so every effect write lands
//!   where the tree walker puts it (the write-log's replay and every float
//!   sum depend on it).
//! * **`rand()`.** The tree walker draws candidate-major and only on the
//!   paths it evaluates. A body that draws (or reads an effect mid-loop) is
//!   *ordered*: it runs one candidate at a time, each statement's ops immediately
//!   before the statement, branches not taken skipped, and an operand that
//!   draws is guarded by what the walker tests before evaluating it (a NIL
//!   earlier operand, the left side of `&&`/`||`). Agent-level statements
//!   always run that way. Update rules draw from each agent's own stream,
//!   in rule order, so a lane of agents draws what each would alone — but
//!   a guard tests lane 0 only, so an update program with a guarded draw
//!   runs one agent per pass. [`lower`] decides it from the program.
//! * **Update rules** read the pre-update agent, keep their results in
//!   registers and commit together; a NIL or NaN result leaves its field,
//!   and the move is cropped by the rule every update obeys
//!   (`UpdateChunk::move_to`).
//!
//! ## One arithmetic table, one arithmetic evaluator
//!
//! [`unop`], [`binop`] and [`Builtin::apply`] are the only implementation of
//! BRASIL arithmetic outside the reference, and `arith` is the only place
//! an arithmetic op and its NIL rule are evaluated: it runs one op over a
//! slice of values with the operator a constant (so the common ones
//! vectorise). Two layouts feed it. A register file (`run_ops`: a walk's
//! one lane, an update pass's [`UPDATE_LANES`]) keeps each register's lanes
//! in a fixed-size array, so an update pass stays straight-line code, and
//! runs the ops a column never holds — own-row sources, draws, effect
//! reads, guards — itself. A run's columns (`run_columns`) are strided
//! buffers, one column per register. Constant folding calls the same
//! table, so fold time and run time cannot diverge.
//!
//! No call allocates once warm: the register files and columns are
//! per-thread scratch sized by the largest program and run the thread has
//! met, so there is no size limit either.

use crate::ast::{BinOp, UnOp};
use crate::exec::CompiledClass;
use crate::plan::{Axis, Builtin, PExpr, PStmt, UpdateTarget};
use brace_common::{AgentId, DetRng, FieldId, Vec2};
use brace_core::behavior::Neighbors;
use brace_core::effect::EffectWriter;
use brace_core::{Agent, AgentRead, AgentRef as RowRef, AgentSchema, Combinator, QuerySlice, UpdateChunk};
use std::cell::RefCell;
use std::ops::Range;

/// Agents per update pass: an update program without a guard runs its ops
/// over this many agents at a time, each lane reading its own row. Eight
/// measured faster than four on both shipped update programs.
pub const UPDATE_LANES: usize = 8;

// ---------------------------------------------------------------------------
// The arithmetic table
// ---------------------------------------------------------------------------

#[inline(always)]
fn truth(b: bool) -> f64 {
    (b as i32) as f64
}

/// Apply a unary operator.
#[inline(always)]
pub fn unop(op: UnOp, v: f64) -> f64 {
    match op {
        UnOp::Neg => -v,
        UnOp::Not => truth(v == 0.0),
    }
}

/// Apply a binary operator to two defined operands. `&&`/`||` give the
/// short-circuit result: a NaN left side is neither zero nor skipped.
#[inline(always)]
pub fn binop(op: BinOp, l: f64, r: f64) -> f64 {
    match op {
        BinOp::Add => l + r,
        BinOp::Sub => l - r,
        BinOp::Mul => l * r,
        BinOp::Div => l / r,
        BinOp::Rem => l % r,
        BinOp::Lt => truth(l < r),
        BinOp::Le => truth(l <= r),
        BinOp::Gt => truth(l > r),
        BinOp::Ge => truth(l >= r),
        BinOp::Eq => truth(l == r),
        BinOp::Ne => truth(l != r),
        BinOp::And => {
            if l == 0.0 {
                0.0
            } else {
                truth(r != 0.0)
            }
        }
        BinOp::Or => {
            if l != 0.0 {
                1.0
            } else {
                truth(r != 0.0)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

/// What an op computes. Operands `a`, `b`, `c` are registers unless noted.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Code {
    /// The agent's own position / state slot `a` / (update phase) final
    /// effect `a`: the same in every lane of a query (in a body they are
    /// loop-invariant), each lane's own agent's in an update pass.
    SelfX,
    SelfY,
    SelfState,
    SelfEffect,
    /// One draw from each lane's agent's stream. Never value-numbered.
    Rand,
    /// Read of the locally aggregated effect held in register `a`, which
    /// emission keeps combining into. Never value-numbered.
    Copy,
    /// A source-level `const` binding: `a`, with its NaN lanes NIL.
    Coerce,
    // One code per operator — dispatch is a single jump — each evaluated
    // through the arithmetic table with the operator a constant.
    Neg,
    Not,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
    Abs,
    Sqrt,
    Min,
    Max,
    /// Every other builtin, one library call per candidate.
    Call(Builtin),
    /// Guards, run one lane wide only (a query's walk, a guarded update
    /// program), before an operand
    /// that draws: when the walker would not evaluate it, settle `dst` and
    /// skip the next `b` ops. `NilGuard`: `a` NIL ⇒ `dst` NIL. `AndGuard` /
    /// `OrGuard`: also `a == 0` ⇒ 0 / `a != 0` ⇒ 1.
    NilGuard,
    AndGuard,
    OrGuard,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Op {
    code: Code,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
}

const NO_REG: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
enum Act {
    /// Nothing but the ops before it (an `if` condition, a binding whose
    /// value draws, the end of a branch).
    Eval,
    /// `field ⊕= value` on the agent itself; `shadow` is the register a
    /// later read of the field sees, or [`NO_REG`] when nothing reads it.
    Local { field: u16, value: u32, shadow: u32, comb: Combinator },
    /// `field ⊕= value` on the candidate.
    Remote { field: u16, value: u32 },
    /// Sweep the candidates through `bodies[_]` (agent level only).
    Foreach(u32),
}

/// One statement: where its `path` holds, a walk runs `ops[..ops_end]`
/// (what has not run yet), then acts.
#[derive(Debug, Clone)]
struct Step {
    ops_end: u32,
    act: Act,
    /// The `if` conditions that reach the step, outermost first: `(cond,
    /// taken when non-zero)`.
    path: Vec<(u32, bool)>,
}

/// Whether a step on `path` runs: every condition is defined and has its
/// branch's truth. `cond(c)` is register `c`'s value and NIL byte. Tested
/// outermost first, so a condition is read only where its own step ran.
#[inline(always)]
fn reached<const NIL: bool>(path: &[(u32, bool)], cond: impl Fn(u32) -> (f64, u8)) -> bool {
    path.iter().all(|&(c, taken)| {
        let (v, nil) = cond(c);
        !(NIL && nil != 0) && (v != 0.0) == taken
    })
}

#[derive(Debug, Clone, Default)]
struct Section {
    ops: Vec<Op>,
    steps: Vec<Step>,
}

/// A register source written straight from a row: the candidate's, or (a
/// column plan's `own`) the member's.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fill {
    X,
    Y,
    State(u16),
    /// `p == this`, by identity.
    IsMe,
}

#[derive(Debug, Clone, Default)]
struct Body {
    fills: Vec<(u32, Fill)>,
    code: Section,
    /// Draws or reads an effect mid-loop: one candidate at a time, statement
    /// order.
    ordered: bool,
}

/// A phase's registers: how many, and the ones preset on every call —
/// constants and, in the query phase, each read effect's identity.
#[derive(Debug, Clone, Default)]
struct Registers {
    count: usize,
    presets: Vec<(u32, f64)>,
    /// Some register can be NIL (a source `const` binding is the only way
    /// in): the phase tracks NIL bytes. Most programs have none and skip it.
    nil: bool,
}

impl Registers {
    /// Register `r`'s preset value, if it has one.
    fn preset(&self, r: u32) -> Option<f64> {
        self.presets.iter().find(|&&(p, _)| p == r).map(|&(_, v)| v)
    }
}

/// A compiled class as one flat register program. See the module docs.
#[derive(Debug, Clone)]
pub struct Program {
    query_regs: Registers,
    query: Section,
    bodies: Vec<Body>,
    /// Ops lowered inside a `foreach` body but placed before the loop.
    hoisted: usize,
    update_regs: Registers,
    update: Vec<Op>,
    commits: Vec<(UpdateTarget, u32)>,
    /// Agents per update pass: [`UPDATE_LANES`], or 1 when a guard settles
    /// a draw (guards test lane 0 alone).
    update_lanes: usize,
    /// The update program draws: each lane derives its agent's stream.
    update_draws: bool,
    /// The body as columns, when the query runs a slice a run of members at
    /// a time.
    columns: Option<ColumnPlan>,
}

/// One effect act of a body as the column pass writes it.
#[derive(Debug, Clone)]
struct ColAct {
    field: FieldId,
    /// The column of the value written.
    value: u32,
    /// Written to the pair's candidate (a `Remote` act), not the member.
    target: bool,
    /// The `if` conditions that reach the act: `(column, taken when
    /// non-zero)`.
    path: Vec<(u32, bool)>,
}

/// A query that is nothing but one loop, as columns, one value per
/// `(member, candidate)` pair each: the agent level's ops and the body's,
/// each once over all of a run's pairs, and the acts each member's effects
/// are then written by.
#[derive(Debug, Clone)]
struct ColumnPlan {
    width: usize,
    /// Columns written from each pair's member's own row.
    own: Vec<(u32, Fill)>,
    /// Columns written from each pair's candidate row.
    fills: Vec<(u32, Fill)>,
    /// Constants the program reads: every pair's value.
    constants: Vec<(u32, f64)>,
    /// The agent level's ops, then the body's.
    ops: Vec<Op>,
    /// The body's effect acts, in step order: per pair, the walker's writes.
    acts: Vec<ColAct>,
}

impl ColumnPlan {
    /// The plan of a query whose registers are `regs`, if the query is
    /// nothing but one loop that neither draws nor reads an effect. Nothing
    /// in such a query reads an effect written, so no act keeps a shadow.
    fn new(query: &Section, bodies: &[Body], regs: &Registers) -> Option<ColumnPlan> {
        let [Step { ops_end, act: Act::Foreach(b), .. }] = query.steps[..] else { return None };
        let body = &bodies[b as usize];
        if body.ordered || !body.code.ops.iter().all(|op| op.code.is_arithmetic()) {
            return None;
        }
        let mut col = Placement { col: vec![NO_REG; regs.count], regs, width: 0, constants: Vec::new() };
        let (mut own, mut ops) = (Vec::new(), Vec::new());
        for op in &query.ops[..ops_end as usize] {
            let fill = match op.code {
                Code::SelfX => Fill::X,
                Code::SelfY => Fill::Y,
                Code::SelfState => Fill::State(op.a as u16),
                // Nothing is written before the loop: an effect read there
                // is its combinator's identity, the shadow's preset.
                Code::Copy => {
                    col.col[op.dst as usize] = col.read(op.a)?;
                    continue;
                }
                code if code.is_arithmetic() => {
                    ops.push(col.op(op)?);
                    continue;
                }
                _ => return None,
            };
            own.push((col.place(op.dst), fill));
        }
        let fills = body.fills.iter().map(|&(r, fill)| (col.place(r), fill)).collect();
        for op in &body.code.ops {
            ops.push(col.op(op)?);
        }
        let mut acts = Vec::new();
        for step in &body.code.steps {
            let (field, value, target) = match step.act {
                Act::Local { field, value, .. } => (field, value, false),
                Act::Remote { field, value } => (field, value, true),
                _ => continue,
            };
            let path = step.path.iter().map(|&(c, taken)| Some((col.read(c)?, taken))).collect::<Option<_>>()?;
            acts.push(ColAct { field: FieldId::new(field), value: col.read(value)?, target, path });
        }
        Some(ColumnPlan { width: col.width as usize, own, fills, constants: col.constants, ops, acts })
    }
}

/// Columns given out to registers in order of need: a preset gets its
/// constant column where it is first read.
struct Placement<'r> {
    /// Each register's column, or [`NO_REG`].
    col: Vec<u32>,
    regs: &'r Registers,
    width: u32,
    constants: Vec<(u32, f64)>,
}

impl Placement<'_> {
    fn place(&mut self, r: u32) -> u32 {
        debug_assert_eq!(self.col[r as usize], NO_REG, "register {r} placed twice");
        self.col[r as usize] = self.width;
        self.width += 1;
        self.width - 1
    }

    /// The column register `r` is read from, if a column holds it or it is
    /// a preset.
    fn read(&mut self, r: u32) -> Option<u32> {
        if self.col[r as usize] == NO_REG {
            let v = self.regs.preset(r)?;
            let c = self.place(r);
            self.constants.push((c, v));
        }
        Some(self.col[r as usize])
    }

    /// `op` over columns: its operands' columns, and a new one for its result.
    fn op(&mut self, op: &Op) -> Option<Op> {
        let mut args = [op.a, op.b, op.c];
        for a in &mut args[..op.code.arity()] {
            *a = self.read(*a)?;
        }
        let [a, b, c] = args;
        Some(Op { code: op.code, dst: self.place(op.dst), a, b, c })
    }
}

/// What `brace compile` prints about a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Query ops at agent level, those hoisted out of the loop included.
    pub agent_ops: usize,
    /// How many of them were lowered inside the loop body.
    pub hoisted_ops: usize,
    /// Query ops run per candidate (per pair, in columns).
    pub candidate_ops: usize,
    pub update_ops: usize,
    /// Agents each update op runs over: [`UPDATE_LANES`], or 1 for a
    /// program with a guarded draw.
    pub update_lanes: usize,
    pub query_registers: usize,
    pub update_registers: usize,
    /// `foreach` loops in the query.
    pub loops: usize,
    /// A body draws (or reads an effect): it runs one candidate at a time.
    pub ordered_body: bool,
    /// Agent-level statements of the query, each loop one.
    pub agent_steps: usize,
    /// The query runs a slice in columns: each op, the agent level's too,
    /// once over a run's `(member, candidate)` pairs.
    pub columns: bool,
}

impl Program {
    pub fn summary(&self) -> Summary {
        Summary {
            agent_ops: self.query.ops.len(),
            hoisted_ops: self.hoisted,
            candidate_ops: self.bodies.iter().map(|b| b.code.ops.len()).sum(),
            update_ops: self.update.len(),
            update_lanes: self.update_lanes,
            query_registers: self.query_regs.count,
            update_registers: self.update_regs.count,
            loops: self.bodies.len(),
            ordered_body: self.bodies.iter().any(|b| b.ordered),
            agent_steps: self.query.steps.len(),
            columns: self.columns.is_some(),
        }
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

struct Lower<'a> {
    schema: &'a AgentSchema,
    update_phase: bool,
    /// Per register: computed per candidate.
    varying: Vec<bool>,
    /// Per register: can be NIL.
    may_nil: Vec<bool>,
    presets: Vec<(u32, f64)>,
    /// Constants by bit pattern (`0.0` and `-0.0` are two).
    constants: Vec<(u64, u32)>,
    /// Pure ops in scope, for value numbering.
    known: Vec<Op>,
    slots: Vec<Option<u32>>,
    /// Per effect field: the register its mid-query reads see.
    shadows: Vec<u32>,
    outer: Section,
    body: Option<Body>,
    bodies: Vec<Body>,
    hoisted: usize,
    /// The path of the statement being lowered: the `if` conditions around
    /// it in its section.
    conds: Vec<(u32, bool)>,
}

fn draws(e: &PExpr) -> bool {
    e.any(&mut |n| matches!(n, PExpr::Rand))
}

impl From<UnOp> for Code {
    fn from(op: UnOp) -> Code {
        match op {
            UnOp::Neg => Code::Neg,
            UnOp::Not => Code::Not,
        }
    }
}

impl From<BinOp> for Code {
    fn from(op: BinOp) -> Code {
        match op {
            BinOp::Add => Code::Add,
            BinOp::Sub => Code::Sub,
            BinOp::Mul => Code::Mul,
            BinOp::Div => Code::Div,
            BinOp::Rem => Code::Rem,
            BinOp::Lt => Code::Lt,
            BinOp::Le => Code::Le,
            BinOp::Gt => Code::Gt,
            BinOp::Ge => Code::Ge,
            BinOp::Eq => Code::Eq,
            BinOp::Ne => Code::Ne,
            BinOp::And => Code::And,
            BinOp::Or => Code::Or,
        }
    }
}

impl From<Builtin> for Code {
    fn from(f: Builtin) -> Code {
        match f {
            Builtin::Abs => Code::Abs,
            Builtin::Sqrt => Code::Sqrt,
            Builtin::Min => Code::Min,
            Builtin::Max => Code::Max,
            f => Code::Call(f),
        }
    }
}

impl Code {
    /// A pure function of its operands: what a column pass runs.
    fn is_arithmetic(self) -> bool {
        use Code::*;
        !matches!(self, SelfX | SelfY | SelfState | SelfEffect | Rand | Copy | NilGuard | AndGuard | OrGuard)
    }

    /// How many of `a`, `b`, `c` are register operands.
    fn arity(self) -> usize {
        use Code::*;
        match self {
            SelfX | SelfY | SelfState | SelfEffect | Rand => 0,
            Copy | Coerce | NilGuard | AndGuard | OrGuard | Neg | Not | Abs | Sqrt => 1,
            Add | Sub | Mul | Div | Rem | Lt | Le | Gt | Ge | Eq | Ne | And | Or | Min | Max => 2,
            Call(f) => f.arity(),
        }
    }
}

impl<'a> Lower<'a> {
    fn new(class: &'a CompiledClass, update_phase: bool) -> Self {
        let schema = class.schema();
        Lower {
            schema,
            update_phase,
            varying: Vec::new(),
            may_nil: Vec::new(),
            presets: Vec::new(),
            constants: Vec::new(),
            known: Vec::new(),
            slots: vec![None; class.query.n_locals as usize],
            shadows: vec![NO_REG; schema.num_effects()],
            outer: Section::default(),
            body: None,
            bodies: Vec::new(),
            hoisted: 0,
            conds: Vec::new(),
        }
    }

    fn fresh(&mut self, varying: bool) -> u32 {
        self.varying.push(varying);
        self.may_nil.push(false);
        (self.varying.len() - 1) as u32
    }

    fn preset(&mut self, v: f64) -> u32 {
        let r = self.fresh(false);
        self.presets.push((r, v));
        r
    }

    fn constant(&mut self, v: f64) -> u32 {
        if let Some(&(_, r)) = self.constants.iter().find(|(bits, _)| *bits == v.to_bits()) {
            return r;
        }
        let r = self.preset(v);
        self.constants.push((v.to_bits(), r));
        r
    }

    /// The section ordered ops and steps go to right now.
    fn here_mut(&mut self) -> &mut Section {
        match &mut self.body {
            Some(b) => &mut b.code,
            None => &mut self.outer,
        }
    }

    /// Append an op, value-numbering pure duplicates away. Inside a body an
    /// op none of whose operands varies is hoisted to agent level.
    fn emit(&mut self, code: Code, args: [u32; 3]) -> u32 {
        let [a, b, c] = args;
        let regs = &args[..code.arity()];
        let pure = !matches!(code, Code::Rand | Code::Copy);
        if pure {
            if let Some(hit) = self.known.iter().find(|o| o.code == code && [o.a, o.b, o.c] == args) {
                return hit.dst;
            }
        }
        let in_body = self.body.is_some();
        let varying = in_body && (!pure || regs.iter().any(|&r| self.varying[r as usize]));
        let dst = self.fresh(varying);
        self.may_nil[dst as usize] = code == Code::Coerce || regs.iter().any(|&r| self.may_nil[r as usize]);
        let op = Op { code, dst, a, b, c };
        if pure {
            self.known.push(op);
        }
        if varying {
            let body = self.body.as_mut().expect("varying ops exist only in a body");
            body.ordered |= !pure;
            body.code.ops.push(op);
        } else {
            self.hoisted += in_body as usize;
            self.outer.ops.push(op);
        }
        dst
    }

    fn fill(&mut self, what: Fill) -> u32 {
        let known = self.body.as_ref().expect("neighbor read outside a foreach (rejected by analysis)");
        if let Some(&(r, _)) = known.fills.iter().find(|(_, f)| *f == what) {
            return r;
        }
        let r = self.fresh(true);
        self.body.as_mut().expect("checked above").fills.push((r, what));
        r
    }

    /// Value numbers found inside `f` die with it: an ordered section skips
    /// guarded regions, so what they compute is not there afterwards.
    fn scoped<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let mark = self.known.len();
        let out = f(self);
        self.known.truncate(mark);
        out
    }

    /// A register for a result computed where ordered ops go right now.
    fn fresh_here(&mut self) -> u32 {
        self.fresh(self.body.is_some())
    }

    /// Push a guard that settles `dst` on `tested`; [`settle`](Self::settle)
    /// fills in how far it skips.
    fn guard(&mut self, code: Code, dst: u32, tested: u32) -> usize {
        self.may_nil[dst as usize] |= self.may_nil[tested as usize];
        let ops = &mut self.here_mut().ops;
        ops.push(Op { code, dst, a: tested, b: 0, c: 0 });
        ops.len() - 1
    }

    /// Push the op that computes `dst` when no guard settled it; every guard
    /// skips to just past it.
    fn settle(&mut self, dst: u32, code: Code, args: [u32; 3], guards: &[usize]) {
        for &r in &args[..code.arity()] {
            self.may_nil[dst as usize] |= self.may_nil[r as usize];
        }
        let [a, b, c] = args;
        let ops = &mut self.here_mut().ops;
        ops.push(Op { code, dst, a, b, c });
        for &at in guards {
            ops[at].b = (ops.len() - at - 1) as u32;
        }
    }

    /// An op whose operands the walker evaluates left to right, giving up at
    /// the first NIL one: an operand that can be NIL and has a draw somewhere
    /// after it is followed by a guard, so the draw happens iff the walker
    /// gets to it.
    fn strict(&mut self, code: Code, args: &[&PExpr]) -> u32 {
        let mut regs = [0; 3];
        let guarded = args.iter().rposition(|a| draws(a)).unwrap_or(0);
        // Set at the first guard: the result register, and where the value
        // numbers of what a guard may skip begin.
        let mut open = None;
        let mut guards = Vec::new();
        for (k, a) in args.iter().enumerate() {
            regs[k] = self.expr(a);
            if k < guarded && self.may_nil[regs[k] as usize] {
                let (dst, _) = *open.get_or_insert_with(|| (self.fresh_here(), self.known.len()));
                guards.push(self.guard(Code::NilGuard, dst, regs[k]));
            }
        }
        let Some((dst, mark)) = open else { return self.emit(code, regs) };
        self.settle(dst, code, regs, &guards);
        self.known.truncate(mark);
        dst
    }

    /// Lower an expression in the walker's evaluation order; returns the
    /// register holding its value.
    fn expr(&mut self, e: &PExpr) -> u32 {
        match e {
            PExpr::Const(v) => self.constant(*v),
            PExpr::SelfPos(Axis::X) => self.emit(Code::SelfX, [0; 3]),
            PExpr::SelfPos(Axis::Y) => self.emit(Code::SelfY, [0; 3]),
            PExpr::SelfState(i) => self.emit(Code::SelfState, [*i as u32, 0, 0]),
            PExpr::OtherPos(Axis::X) => self.fill(Fill::X),
            PExpr::OtherPos(Axis::Y) => self.fill(Fill::Y),
            PExpr::OtherState(i) => self.fill(Fill::State(*i)),
            PExpr::SelfEffect(i) if self.update_phase => self.emit(Code::SelfEffect, [*i as u32, 0, 0]),
            PExpr::SelfEffect(i) => self.emit(Code::Copy, [self.shadows[*i as usize], 0, 0]),
            PExpr::Local(s) => match self.slots[*s as usize] {
                Some(r) => r,
                // Never bound (analysis rejects it; a rewrite can produce
                // it): the walker reads NIL, and NIL is a coerced NaN.
                None => {
                    let nan = self.constant(f64::NAN);
                    self.emit(Code::Coerce, [nan, 0, 0])
                }
            },
            PExpr::AgentEq { left, right, negate } => {
                let same = if left == right { self.constant(1.0) } else { self.fill(Fill::IsMe) };
                if *negate {
                    self.emit(Code::Not, [same, 0, 0])
                } else {
                    same
                }
            }
            PExpr::Unary(op, a) => self.strict((*op).into(), &[a]),
            // The walker evaluates `b` only where `a` does not decide.
            PExpr::Binary(op @ (BinOp::And | BinOp::Or), a, b) if draws(b) => {
                let a = self.expr(a);
                let dst = self.fresh_here();
                self.scoped(|this| {
                    let guard = this.guard(if *op == BinOp::And { Code::AndGuard } else { Code::OrGuard }, dst, a);
                    let b = this.expr(b);
                    let zero = this.constant(0.0);
                    this.settle(dst, Code::Ne, [b, zero, 0], &[guard]);
                });
                dst
            }
            PExpr::Binary(op, a, b) => self.strict((*op).into(), &[a, b]),
            PExpr::Call(f, args) => self.strict((*f).into(), &args.iter().collect::<Vec<_>>()),
            PExpr::Rand => self.emit(Code::Rand, [0; 3]),
        }
    }

    /// Close the section's ops lowered so far with a step on the current
    /// path.
    fn step(&mut self, act: Act) {
        let path = self.conds.clone();
        let s = self.here_mut();
        s.steps.push(Step { ops_end: s.ops.len() as u32, act, path });
    }

    fn stmts(&mut self, list: &[PStmt]) {
        for s in list {
            match s {
                PStmt::Let { slot, value } => {
                    let r = self.expr(value);
                    self.slots[*slot as usize] = Some(self.emit(Code::Coerce, [r, 0, 0]));
                    if draws(value) {
                        self.step(Act::Eval);
                    }
                }
                PStmt::LocalEffect { field, value } => {
                    let value = self.expr(value);
                    let comb = self.schema.combinator(FieldId::new(*field));
                    self.step(Act::Local { field: *field, value, shadow: self.shadows[*field as usize], comb });
                }
                PStmt::RemoteEffect { field, value } => {
                    assert!(self.body.is_some(), "remote effect outside a foreach (rejected by analysis)");
                    let value = self.expr(value);
                    self.step(Act::Remote { field: *field, value });
                }
                PStmt::If { cond, then_, else_ } => {
                    let cond = self.expr(cond);
                    self.step(Act::Eval);
                    for (branch, taken) in [(then_, true), (else_, false)] {
                        self.conds.push((cond, taken));
                        self.scoped(|this| this.stmts(branch));
                        // Ops the branch left unclosed run on its path too.
                        let s = self.here_mut();
                        if s.steps.last().map_or(0, |t| t.ops_end) < s.ops.len() as u32 {
                            self.step(Act::Eval);
                        }
                        self.conds.pop();
                    }
                }
                PStmt::Foreach { body } => {
                    assert!(self.body.is_none(), "nested foreach (rejected by analysis)");
                    self.body = Some(Body::default());
                    let outer = std::mem::take(&mut self.conds);
                    self.scoped(|this| this.stmts(body));
                    self.conds = outer;
                    self.bodies.push(self.body.take().expect("set above"));
                    self.step(Act::Foreach((self.bodies.len() - 1) as u32));
                }
            }
        }
    }

    fn registers(&mut self) -> Registers {
        Registers {
            count: self.varying.len(),
            presets: std::mem::take(&mut self.presets),
            nil: self.may_nil.contains(&true),
        }
    }
}

/// Lower a compiled class to its register program.
pub fn lower(class: &CompiledClass) -> Program {
    let mut q = Lower::new(class, false);
    // Effects the query reads back get a register that emission keeps
    // current, preset to the combinator's identity.
    for s in &class.query.stmts {
        s.visit(&mut |st| {
            let Some(e) = st.expr() else { return };
            e.any(&mut |n| {
                if let PExpr::SelfEffect(i) = n {
                    if q.shadows[*i as usize] == NO_REG {
                        let identity = q.schema.combinator(FieldId::new(*i)).identity();
                        q.shadows[*i as usize] = q.preset(identity);
                    }
                }
                false
            });
        });
    }
    q.stmts(&class.query.stmts);

    let query_regs = q.registers();
    let columns = ColumnPlan::new(&q.outer, &q.bodies, &query_regs);

    let mut u = Lower::new(class, true);
    let commits = class.updates.iter().map(|rule| (rule.target, u.expr(&rule.expr))).collect();
    let guarded = u.outer.ops.iter().any(|o| matches!(o.code, Code::NilGuard | Code::AndGuard | Code::OrGuard));
    Program {
        query_regs,
        query: q.outer,
        bodies: q.bodies,
        hoisted: q.hoisted,
        update_regs: u.registers(),
        update_lanes: if guarded { 1 } else { UPDATE_LANES },
        update_draws: u.outer.ops.iter().any(|o| o.code == Code::Rand),
        update: u.outer.ops,
        commits,
        columns,
    }
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// One member's registers in a walk: a single lane.
type Scalar = [f64; 1];

/// A per-thread register file of `N` lanes: values and one NIL byte per lane.
#[derive(Default)]
struct RegFile<const N: usize> {
    vals: Vec<[f64; N]>,
    nil: Vec<[u8; N]>,
}

/// A thread's query-phase scratch: a walk's registers and one run's
/// columns, each sized by the largest program and run the thread has met.
#[derive(Default)]
struct QueryScratch {
    walk: RegFile<1>,
    /// The run's pair columns, column-major, `stride` pairs apart, and their
    /// NIL bytes (programs that track NIL).
    cols: Vec<f64>,
    col_nil: Vec<u8>,
    stride: usize,
    /// The run's members in probe order, as the range of pairs each holds,
    /// and its pairs: each candidate's row and its member's.
    members: Vec<Range<usize>>,
    pairs: Vec<u32>,
    pair_self: Vec<u32>,
}

thread_local! {
    /// Not reentrant: a program never runs another program.
    static QUERY: RefCell<QueryScratch> = RefCell::default();
    static UPDATE_REGFILE: RefCell<RegFile<UPDATE_LANES>> = RefCell::default();
}

impl<const N: usize> RegFile<N> {
    /// The first `regs.count` registers: NIL bytes cleared (where the phase
    /// tracks them), presets written to every lane, everything else stale (an
    /// op writes before anything reads).
    #[inline]
    fn enter(&mut self, regs: &Registers) -> (&mut [[f64; N]], &mut [[u8; N]]) {
        if self.vals.len() < regs.count {
            self.vals.resize(regs.count, [0.0; N]);
            self.nil.resize(regs.count, [0; N]);
        }
        let (vals, nil) = (&mut self.vals[..regs.count], &mut self.nil[..regs.count]);
        if regs.nil {
            nil.fill([0; N]);
        }
        for &(r, v) in &regs.presets {
            vals[r as usize] = [v; N];
        }
        (vals, nil)
    }
}

/// What a pass's `Self*` and `Rand` ops read: the agents its lanes stand for.
trait Own<const N: usize> {
    fn x(&self, out: &mut [f64; N]);
    fn y(&self, out: &mut [f64; N]);
    fn state(&self, slot: u16, out: &mut [f64; N]);
    fn effect(&self, slot: u16, out: &mut [f64; N]);
    fn draw(&mut self, out: &mut [f64; N]);
}

/// A query's one agent; its draws land in lane 0 (a query's walk is one
/// lane wide).
struct Querier<'a, M> {
    me: &'a M,
    rng: &'a mut DetRng,
}

impl<M: AgentRead, const N: usize> Own<N> for Querier<'_, M> {
    #[inline(always)]
    fn x(&self, out: &mut [f64; N]) {
        *out = [self.me.pos().x; N];
    }
    #[inline(always)]
    fn y(&self, out: &mut [f64; N]) {
        *out = [self.me.pos().y; N];
    }
    #[inline(always)]
    fn state(&self, slot: u16, out: &mut [f64; N]) {
        *out = [self.me.state(slot); N];
    }
    fn effect(&self, _: u16, _: &mut [f64; N]) {
        unreachable!("a query reads its effects through `Copy`")
    }
    #[inline(always)]
    fn draw(&mut self, out: &mut [f64; N]) {
        out[0] = self.rng.unit();
    }
}

/// The rows an update pass reads and commits: a pool chunk's columns, or one
/// row record (a one-row column each).
trait Rows {
    fn ids(&self) -> &[AgentId];
    fn xs(&self) -> &[f64];
    fn ys(&self) -> &[f64];
    fn state(&self, slot: u16) -> &[f64];
    fn effect(&self, slot: u16) -> &[f64];
    fn state_mut(&mut self, slot: u16) -> &mut [f64];
    /// Row `i`'s next position.
    fn move_to(&mut self, i: usize, to: Vec2);
}

/// A chunk moves its rows under the reachability crop, as the default
/// `Behavior::update_rows` does.
struct Columns<'c, 'p> {
    chunk: &'c mut UpdateChunk<'p>,
    reach: f64,
}

impl Rows for Columns<'_, '_> {
    #[inline(always)]
    fn ids(&self) -> &[AgentId] {
        self.chunk.ids()
    }
    #[inline(always)]
    fn xs(&self) -> &[f64] {
        self.chunk.xs()
    }
    #[inline(always)]
    fn ys(&self) -> &[f64] {
        self.chunk.ys()
    }
    #[inline(always)]
    fn state(&self, slot: u16) -> &[f64] {
        self.chunk.state(slot)
    }
    #[inline(always)]
    fn effect(&self, slot: u16) -> &[f64] {
        self.chunk.effect(slot)
    }
    #[inline(always)]
    fn state_mut(&mut self, slot: u16) -> &mut [f64] {
        self.chunk.state_mut(slot)
    }
    #[inline(always)]
    fn move_to(&mut self, i: usize, to: Vec2) {
        self.chunk.move_to(i, to, self.reach);
    }
}

/// A row record moves uncropped: `Behavior::update`'s caller crops.
impl Rows for Agent {
    fn ids(&self) -> &[AgentId] {
        std::slice::from_ref(&self.id)
    }
    fn xs(&self) -> &[f64] {
        std::slice::from_ref(&self.pos.x)
    }
    fn ys(&self) -> &[f64] {
        std::slice::from_ref(&self.pos.y)
    }
    fn state(&self, slot: u16) -> &[f64] {
        std::slice::from_ref(&self.state[slot as usize])
    }
    fn effect(&self, slot: u16) -> &[f64] {
        std::slice::from_ref(&self.effects[slot as usize])
    }
    fn state_mut(&mut self, slot: u16) -> &mut [f64] {
        std::slice::from_mut(&mut self.state[slot as usize])
    }
    fn move_to(&mut self, _: usize, to: Vec2) {
        self.pos = to;
    }
}

/// One update pass: rows `at..at + n`, row `at + l` in lane `l`, drawing from
/// its own stream.
struct Pass<'a, R> {
    rows: &'a R,
    at: usize,
    n: usize,
    rngs: &'a mut [DetRng],
}

impl<R: Rows> Pass<'_, R> {
    /// Lanes `..n` of `out` from the pass's rows of `col` (a whole pass is
    /// one fixed-size copy).
    #[inline(always)]
    fn read<const N: usize>(&self, col: &[f64], out: &mut [f64; N]) {
        match col.get(self.at..self.at + N) {
            Some(full) if self.n == N => out.copy_from_slice(full),
            _ => out[..self.n].copy_from_slice(&col[self.at..self.at + self.n]),
        }
    }
}

impl<R: Rows, const N: usize> Own<N> for Pass<'_, R> {
    #[inline(always)]
    fn x(&self, out: &mut [f64; N]) {
        self.read(self.rows.xs(), out);
    }
    #[inline(always)]
    fn y(&self, out: &mut [f64; N]) {
        self.read(self.rows.ys(), out);
    }
    #[inline(always)]
    fn state(&self, slot: u16, out: &mut [f64; N]) {
        self.read(self.rows.state(slot), out);
    }
    #[inline(always)]
    fn effect(&self, slot: u16, out: &mut [f64; N]) {
        self.read(self.rows.effect(slot), out);
    }
    #[inline(always)]
    fn draw(&mut self, out: &mut [f64; N]) {
        for (v, rng) in out.iter_mut().zip(&mut self.rngs[..self.n]) {
            *v = rng.unit();
        }
    }
}

/// Where one arithmetic op reads its operands and writes its result: a
/// register file's lanes ([`Lanes`]) or a run's columns ([`ColumnOp`]).
/// [`arith`] is the only code that says what an op computes and when its
/// result is NIL; a site only says how it walks its entries.
trait OpSite {
    /// `out[i] = f(x[i])`, and so on for two and three operands.
    fn map1(&mut self, f: impl Fn(f64) -> f64);
    fn map2(&mut self, f: impl Fn(f64, f64) -> f64);
    fn map3(&mut self, f: impl Fn(f64, f64, f64) -> f64);
    /// `nil_out[i] = f(x[i], nil_x[i], nil_y[i], nil_z[i])`, an operand past
    /// the op's arity reading as not NIL.
    fn nil(&mut self, f: impl Fn(f64, u8, u8, u8) -> u8);
}

/// Evaluate one arithmetic op at `site` through the arithmetic table, and,
/// `NIL`, each result's NIL byte: NIL where an operand is; `a && b` NIL
/// where `a` is, or where `a ≠ 0` and `b` is (`||` dually: where `a`
/// decides, `b` is unevaluated and its NIL does not count); a `Coerce` (a
/// `const` binding) adds its NaN results.
#[inline(always)]
fn arith<const NIL: bool>(code: Code, site: &mut impl OpSite) {
    match code {
        Code::Coerce => {
            debug_assert!(NIL, "a program with a binding that coerces tracks NIL");
            site.map1(|x| x)
        }
        Code::Neg => site.map1(|x| unop(UnOp::Neg, x)),
        Code::Not => site.map1(|x| unop(UnOp::Not, x)),
        Code::Add => site.map2(|x, y| binop(BinOp::Add, x, y)),
        Code::Sub => site.map2(|x, y| binop(BinOp::Sub, x, y)),
        Code::Mul => site.map2(|x, y| binop(BinOp::Mul, x, y)),
        Code::Div => site.map2(|x, y| binop(BinOp::Div, x, y)),
        Code::Rem => site.map2(|x, y| binop(BinOp::Rem, x, y)),
        Code::Lt => site.map2(|x, y| binop(BinOp::Lt, x, y)),
        Code::Le => site.map2(|x, y| binop(BinOp::Le, x, y)),
        Code::Gt => site.map2(|x, y| binop(BinOp::Gt, x, y)),
        Code::Ge => site.map2(|x, y| binop(BinOp::Ge, x, y)),
        Code::Eq => site.map2(|x, y| binop(BinOp::Eq, x, y)),
        Code::Ne => site.map2(|x, y| binop(BinOp::Ne, x, y)),
        Code::And => site.map2(|x, y| binop(BinOp::And, x, y)),
        Code::Or => site.map2(|x, y| binop(BinOp::Or, x, y)),
        Code::Abs => site.map1(|x| Builtin::Abs.apply(&[x])),
        Code::Sqrt => site.map1(|x| Builtin::Sqrt.apply(&[x])),
        Code::Min => site.map2(|x, y| Builtin::Min.apply(&[x, y])),
        Code::Max => site.map2(|x, y| Builtin::Max.apply(&[x, y])),
        Code::Call(f) => match f.arity() {
            1 => site.map1(|x| f.apply(&[x])),
            2 => site.map2(|x, y| f.apply(&[x, y])),
            _ => site.map3(|x, y, z| f.apply(&[x, y, z])),
        },
        _ => unreachable!("{code:?} is not arithmetic"),
    }
    if !NIL {
        return;
    }
    match code {
        Code::Coerce => site.nil(|x, nx, _, _| nx | x.is_nan() as u8),
        Code::And => site.nil(|x, nx, ny, _| nx | (ny & (x != 0.0) as u8)),
        Code::Or => site.nil(|x, nx, ny, _| nx | (ny & (x == 0.0) as u8)),
        _ => site.nil(|_, nx, ny, nz| nx | ny | nz),
    }
}

/// An op's site in a register file: `W` of the `N` lanes of its registers,
/// each a fixed-size array, so an update pass stays straight-line code.
struct Lanes<'r, const N: usize, const W: usize> {
    vals: &'r mut [[f64; N]],
    nil: &'r mut [[u8; N]],
    op: Op,
}

impl<const N: usize, const W: usize> Lanes<'_, N, W> {
    /// Register `r` of the op's operands, if the op reads it.
    #[inline(always)]
    fn arg(&self, i: usize) -> Option<usize> {
        let Op { code, a, b, c, .. } = self.op;
        (i < code.arity()).then_some([a, b, c][i] as usize)
    }
}

impl<const N: usize, const W: usize> OpSite for Lanes<'_, N, W> {
    #[inline(always)]
    fn map1(&mut self, f: impl Fn(f64) -> f64) {
        let x = self.vals[self.op.a as usize];
        let out = &mut self.vals[self.op.dst as usize];
        for l in 0..W {
            out[l] = f(x[l]);
        }
    }
    #[inline(always)]
    fn map2(&mut self, f: impl Fn(f64, f64) -> f64) {
        let (x, y) = (self.vals[self.op.a as usize], self.vals[self.op.b as usize]);
        let out = &mut self.vals[self.op.dst as usize];
        for l in 0..W {
            out[l] = f(x[l], y[l]);
        }
    }
    #[inline(always)]
    fn map3(&mut self, f: impl Fn(f64, f64, f64) -> f64) {
        let Op { dst, a, b, c, .. } = self.op;
        let (x, y, z) = (self.vals[a as usize], self.vals[b as usize], self.vals[c as usize]);
        let out = &mut self.vals[dst as usize];
        for l in 0..W {
            out[l] = f(x[l], y[l], z[l]);
        }
    }
    #[inline(always)]
    fn nil(&mut self, f: impl Fn(f64, u8, u8, u8) -> u8) {
        let x = self.vals[self.op.a as usize];
        let [nx, ny, nz] = [0, 1, 2].map(|i| self.arg(i).map_or([0; N], |r| self.nil[r]));
        let out = &mut self.nil[self.op.dst as usize];
        for l in 0..W {
            out[l] = f(x[l], nx[l], ny[l], nz[l]);
        }
    }
}

/// Run `ops` over the first `W` of `N` lanes of a register file (a walk is
/// one lane, an update pass [`UPDATE_LANES`]): sources, draws and guards
/// here, every arithmetic op through [`arith`]. Lanes past the agents or
/// candidates a pass holds are stale and harmless (no op traps). Guards are
/// one-lane ops. `NIL`: the phase tracks NIL bytes ([`Registers::nil`]);
/// without it no register is ever NIL and `nil` is not touched.
#[inline(always)]
fn run_ops<const N: usize, const W: usize, const NIL: bool>(
    ops: &[Op],
    vals: &mut [[f64; N]],
    nil: &mut [[u8; N]],
    own: &mut impl Own<N>,
) {
    let mut pc = 0;
    while pc < ops.len() {
        let op = ops[pc];
        pc += 1;
        let Op { code, dst, a, b, .. } = op;
        let (d, a, b) = (dst as usize, a as usize, b as usize);
        match code {
            Code::SelfX => own.x(&mut vals[d]),
            Code::SelfY => own.y(&mut vals[d]),
            Code::SelfState => own.state(a as u16, &mut vals[d]),
            Code::SelfEffect => own.effect(a as u16, &mut vals[d]),
            Code::Rand => own.draw(&mut vals[d]),
            Code::Copy => vals[d][0] = vals[a][0],
            Code::NilGuard | Code::AndGuard | Code::OrGuard => {
                let x = vals[a][0];
                if NIL && nil[a][0] != 0 {
                    nil[d][0] = 1;
                } else if code == Code::AndGuard && x == 0.0 {
                    vals[d][0] = 0.0;
                } else if code == Code::OrGuard && x != 0.0 {
                    vals[d][0] = 1.0;
                } else {
                    continue;
                }
                // Settled: not NIL unless it was just made so.
                if NIL && nil[a][0] == 0 {
                    nil[d][0] = 0;
                }
                pc += b;
            }
            _ => arith::<NIL>(code, &mut Lanes::<N, W> { vals: &mut *vals, nil: &mut *nil, op }),
        }
    }
}

/// An op's site in a run's columns: the first `p` pairs of each of its
/// registers' columns, `stride` apart, NIL bytes laid out as the values.
struct ColumnOp<'c> {
    vals: &'c mut [f64],
    nil: &'c mut [u8],
    stride: usize,
    p: usize,
    op: Op,
}

/// `out` is `op`'s destination column of `buf` and its operands' (an
/// operand past the op's arity is empty), each the first `p` entries of a
/// column `stride` apart. An arithmetic op never reads its own destination.
#[inline(always)]
fn split<T>(buf: &mut [T], stride: usize, p: usize, op: Op) -> (&mut [T], [&[T]; 3]) {
    let Op { code, dst, a, b, c } = op;
    let d = dst as usize;
    let (lo, rest) = buf.split_at_mut(d * stride);
    let (out, hi) = rest.split_at_mut(stride);
    let (lo, hi): (&[T], &[T]) = (lo, hi);
    let get = |i: usize, r: u32| -> &[T] {
        let r = r as usize;
        match r.cmp(&d) {
            _ if i >= code.arity() => &[],
            std::cmp::Ordering::Less => &lo[r * stride..][..p],
            std::cmp::Ordering::Greater => &hi[(r - d - 1) * stride..][..p],
            std::cmp::Ordering::Equal => unreachable!("an op reads its own destination"),
        }
    };
    (&mut out[..p], [get(0, a), get(1, b), get(2, c)])
}

impl OpSite for ColumnOp<'_> {
    #[inline(always)]
    fn map1(&mut self, f: impl Fn(f64) -> f64) {
        let (out, [x, ..]) = split(self.vals, self.stride, self.p, self.op);
        for (o, &x) in out.iter_mut().zip(x) {
            *o = f(x);
        }
    }
    #[inline(always)]
    fn map2(&mut self, f: impl Fn(f64, f64) -> f64) {
        let (out, [x, y, _]) = split(self.vals, self.stride, self.p, self.op);
        for (o, (&x, &y)) in out.iter_mut().zip(x.iter().zip(y)) {
            *o = f(x, y);
        }
    }
    #[inline(always)]
    fn map3(&mut self, f: impl Fn(f64, f64, f64) -> f64) {
        let (out, [x, y, z]) = split(self.vals, self.stride, self.p, self.op);
        for (o, ((&x, &y), &z)) in out.iter_mut().zip(x.iter().zip(y).zip(z)) {
            *o = f(x, y, z);
        }
    }
    #[inline(always)]
    fn nil(&mut self, f: impl Fn(f64, u8, u8, u8) -> u8) {
        let x = &self.vals[self.op.a as usize * self.stride..][..self.p];
        let (out, [nx, ny, nz]) = split(self.nil, self.stride, self.p, self.op);
        for (i, o) in out.iter_mut().enumerate() {
            let at = |n: &[u8]| n.get(i).copied().unwrap_or(0);
            *o = f(x[i], nx[i], at(ny), at(nz));
        }
    }
}

/// Run arithmetic `ops` over the first `p` pairs of a run's columns,
/// `stride` apart: each op once over all of them, through [`arith`]. `NIL`:
/// one NIL byte per pair.
fn run_columns<const NIL: bool>(ops: &[Op], p: usize, stride: usize, vals: &mut [f64], nil: &mut [u8]) {
    for &op in ops {
        arith::<NIL>(op.code, &mut ColumnOp { vals: &mut *vals, nil: &mut *nil, stride, p, op });
    }
}

/// One member's walk of the query, in statement order: its registers, the
/// agent its `Self*` ops read, its candidates, writer and stream.
struct Walker<'q, 'v, 'w> {
    prog: &'q Program,
    vals: &'q mut [Scalar],
    nil: &'q mut [[u8; 1]],
    me: RowRef<'v>,
    neighbors: &'q Neighbors<'v>,
    eff: &'q mut EffectWriter<'w>,
    rng: &'q mut DetRng,
}

impl Walker<'_, '_, '_> {
    /// Walk `section`: each step whose path holds, its ops first, then its
    /// act; the steps of branches not taken are skipped, ops and all. `row`
    /// is the candidate a `Remote` act writes (a body's walk).
    fn walk<const NIL: bool>(&mut self, section: &Section, row: u32) {
        let mut pc = 0;
        for step in &section.steps {
            let ops = &section.ops[pc..step.ops_end as usize];
            pc = step.ops_end as usize;
            let cond = |c: u32| (self.vals[c as usize][0], if NIL { self.nil[c as usize][0] } else { 0 });
            if !reached::<NIL>(&step.path, cond) {
                continue;
            }
            let own = &mut Querier { me: &self.me, rng: &mut *self.rng };
            run_ops::<1, 1, NIL>(ops, self.vals, self.nil, own);
            let is_nil = |nil: &[[u8; 1]], r: u32| NIL && nil[r as usize][0] != 0;
            match step.act {
                Act::Eval => {}
                Act::Local { field, value, shadow, comb } => {
                    let v = self.vals[value as usize][0];
                    if !is_nil(self.nil, value) && !v.is_nan() {
                        self.eff.local(FieldId::new(field), v);
                        if shadow != NO_REG {
                            let acc = &mut self.vals[shadow as usize][0];
                            *acc = comb.combine(*acc, v);
                        }
                    }
                }
                Act::Remote { field, value } => {
                    let v = self.vals[value as usize][0];
                    if !is_nil(self.nil, value) && !v.is_nan() {
                        self.eff.remote(row, FieldId::new(field), v);
                    }
                }
                Act::Foreach(body) => {
                    let prog = self.prog;
                    self.sweep::<NIL>(&prog.bodies[body as usize]);
                }
            }
        }
    }

    /// The body walked once per candidate, in candidate order (`me` is never
    /// one).
    fn sweep<const NIL: bool>(&mut self, body: &Body) {
        let neighbors = self.neighbors;
        for nb in neighbors.iter() {
            for &(r, fill) in &body.fills {
                self.vals[r as usize][0] = match fill {
                    Fill::X => nb.pos.x,
                    Fill::Y => nb.pos.y,
                    Fill::State(k) => nb.agent.state(k),
                    Fill::IsMe => truth(nb.agent.id() == self.me.id()),
                };
            }
            self.walk::<NIL>(&body.code, nb.row);
        }
    }
}

/// A run's evaluated pair columns.
#[derive(Clone, Copy)]
struct Cols<'q> {
    vals: &'q [f64],
    nil: &'q [u8],
    stride: usize,
}

impl Cols<'_> {
    /// The value `act` writes for pair `p`, if the pair reaches it and it is
    /// neither NIL nor NaN.
    #[inline(always)]
    fn value<const NIL: bool>(&self, act: &ColAct, p: usize) -> Option<f64> {
        let at = |c: u32| c as usize * self.stride + p;
        let reached = reached::<NIL>(&act.path, |c| (self.vals[at(c)], if NIL { self.nil[at(c)] } else { 0 }));
        let v = self.vals[at(act.value)];
        (reached && !(NIL && self.nil[at(act.value)] != 0) && !v.is_nan()).then_some(v)
    }
}

/// Write one member's body effects from the run's columns, its pairs
/// `range`: pair by pair, each pair's acts in step order — the walker's
/// writes, in its order.
#[inline(always)]
fn emit_pairs<const NIL: bool>(
    plan: &ColumnPlan,
    cols: Cols<'_>,
    pairs: &[u32],
    range: Range<usize>,
    eff: &mut EffectWriter<'_>,
) {
    for p in range {
        for act in &plan.acts {
            let Some(v) = cols.value::<NIL>(act, p) else { continue };
            if act.target {
                eff.remote(pairs[p], act.field, v);
            } else {
                eff.local(act.field, v);
            }
        }
    }
}

/// `out[i] = col[rows[i]]`.
#[inline(always)]
fn gather<T: Copy>(out: &mut [T], col: &[T], rows: impl Iterator<Item = u32>) {
    for (o, r) in out.iter_mut().zip(rows) {
        *o = col[r as usize];
    }
}

/// Members per column run at most, and the pairs past which a run takes no
/// further member: a run's columns hold at most `RUN_PAIRS − 1` pairs plus
/// one member's neighbourhood (a member's pairs are never split), so they
/// stay in cache whatever the slice's length.
const RUN_PAIRS: usize = 256;
const RUN_MEMBERS: usize = 256;

impl Program {
    /// Whether the query has a `foreach`: a program lowered without one (its
    /// loop optimized away, or never written) reads no neighbour, whatever
    /// the agent — the only way a BRASIL query reaches another agent is a
    /// loop over the extent.
    pub fn reads_neighbors(&self) -> bool {
        !self.bodies.is_empty()
    }

    /// The query phase of one agent: the section walked in statement order,
    /// the body once per candidate.
    pub fn query(&self, me: RowRef<'_>, neighbors: &Neighbors<'_>, eff: &mut EffectWriter<'_>, rng: &mut DetRng) {
        QUERY.with_borrow_mut(|s| {
            let (vals, nil) = s.walk.enter(&self.query_regs);
            let mut w = Walker { prog: self, vals, nil, me, neighbors, eff, rng };
            if self.query_regs.nil {
                w.walk::<true>(&self.query, 0);
            } else {
                w.walk::<false>(&self.query, 0);
            }
        });
    }

    /// The query phase of one sweep slice. A program with a column plan runs
    /// it in runs of members: every op once over the run's pairs, then each
    /// member's effects written in probe order (module docs). Any other program runs
    /// [`Program::query`] member by member.
    pub fn query_slice(&self, slice: &mut QuerySlice<'_, '_>) {
        let Some(plan) = &self.columns else {
            return slice.query_each(|me, neighbors, eff, rng| self.query(me, neighbors, eff, rng));
        };
        QUERY.with_borrow_mut(|s| {
            if self.query_regs.nil {
                column_runs::<true>(plan, slice, s);
            } else {
                column_runs::<false>(plan, slice, s);
            }
        });
    }

    /// The update phase of a chunk of pool rows, straight off its columns:
    /// [`Summary::update_lanes`] agents per pass, each drawing from
    /// `root.stream(id)`, each move cropped to `reach` — where the default
    /// `Behavior::update_rows` leaves every row.
    pub fn update_rows(&self, chunk: &mut UpdateChunk<'_>, root: &DetRng, reach: f64) {
        self.run_update(&mut Columns { chunk, reach }, |id| root.stream(id.raw()));
    }

    /// The update phase of one row record, drawing from `rng` (the same
    /// evaluator at one lane; the caller crops the move).
    pub fn update(&self, me: &mut Agent, rng: &DetRng) {
        self.run_update(me, |_| rng.clone());
    }

    fn run_update<R: Rows>(&self, rows: &mut R, stream: impl Fn(AgentId) -> DetRng) {
        UPDATE_REGFILE.with_borrow_mut(|file| {
            let (vals, nil) = file.enter(&self.update_regs);
            match (self.update_lanes, self.update_regs.nil) {
                (1, false) => self.passes::<1, false, R>(rows, vals, nil, stream),
                (1, true) => self.passes::<1, true, R>(rows, vals, nil, stream),
                (_, false) => self.passes::<UPDATE_LANES, false, R>(rows, vals, nil, stream),
                (_, true) => self.passes::<UPDATE_LANES, true, R>(rows, vals, nil, stream),
            }
        });
    }

    /// Every row of `rows`, `W` per pass: the ops over the pass's lanes, then
    /// each lane's non-NIL, non-NaN results committed together (every rule
    /// read the pre-update row), the position through [`Rows::move_to`].
    fn passes<const W: usize, const NIL: bool, R: Rows>(
        &self,
        rows: &mut R,
        vals: &mut [[f64; UPDATE_LANES]],
        nil: &mut [[u8; UPDATE_LANES]],
        stream: impl Fn(AgentId) -> DetRng,
    ) {
        let len = rows.ids().len();
        let mut rngs: [DetRng; W] = std::array::from_fn(|_| DetRng::from_parts(0, 0));
        for at in (0..len).step_by(W) {
            let n = W.min(len - at);
            if self.update_draws {
                for (rng, &id) in rngs.iter_mut().zip(&rows.ids()[at..at + n]) {
                    *rng = stream(id);
                }
            }
            let mut pass = Pass { rows: &*rows, at, n, rngs: &mut rngs };
            run_ops::<UPDATE_LANES, W, NIL>(&self.update, vals, nil, &mut pass);
            let (mut xs, mut ys) = ([0.0; UPDATE_LANES], [0.0; UPDATE_LANES]);
            pass.read(rows.xs(), &mut xs);
            pass.read(rows.ys(), &mut ys);
            for &(target, r) in &self.commits {
                let (v, undefined) = (&vals[r as usize], if NIL { nil[r as usize] } else { [0; UPDATE_LANES] });
                let field = match target {
                    UpdateTarget::PosX => &mut xs[..n],
                    UpdateTarget::PosY => &mut ys[..n],
                    UpdateTarget::State(k) => &mut rows.state_mut(k)[at..at + n],
                };
                for (l, field) in field.iter_mut().enumerate() {
                    if undefined[l] == 0 && !v[l].is_nan() {
                        *field = v[l];
                    }
                }
            }
            for l in 0..n {
                rows.move_to(at + l, Vec2::new(xs[l], ys[l]));
            }
        }
    }
}

/// A slice through `plan`, one run of members at a time (module docs).
fn column_runs<const NIL: bool>(plan: &ColumnPlan, slice: &mut QuerySlice<'_, '_>, s: &mut QueryScratch) {
    let view = slice.view();
    let QueryScratch { cols, col_nil, stride, members, pairs, pair_self, .. } = s;
    // Another program may have left its constants in these columns.
    *stride = 0;
    let column = |fill: Fill| match fill {
        Fill::X => view.xs(),
        Fill::Y => view.ys(),
        Fill::State(k) => view.states(k),
        Fill::IsMe => unreachable!("an identity test is not a column gather"),
    };
    loop {
        members.clear();
        pairs.clear();
        pair_self.clear();
        let mut last = false;
        while members.len() < RUN_MEMBERS && pairs.len() < RUN_PAIRS {
            let Some((me, neighbors)) = slice.next_member() else {
                last = true;
                break;
            };
            let start = pairs.len();
            pairs.extend(neighbors.iter().map(|nb| nb.row));
            pair_self.resize(pairs.len(), me.row);
            members.push(start..pairs.len());
        }
        if members.is_empty() {
            break;
        }
        let p = pairs.len();
        if p > *stride {
            *stride = p.max(RUN_PAIRS).next_power_of_two();
            cols.resize(plan.width * *stride, 0.0);
            if NIL {
                col_nil.clear();
                col_nil.resize(plan.width * *stride, 0);
            }
            for &(c, v) in &plan.constants {
                cols[c as usize * *stride..][..*stride].fill(v);
            }
        }
        let stride = *stride;
        let at = |c: u32| c as usize * stride..c as usize * stride + p;
        // Each pair's member's fields and candidate's fields, then every op
        // over every pair.
        for &(c, fill) in &plan.own {
            gather(&mut cols[at(c)], column(fill), pair_self.iter().copied());
        }
        for &(c, fill) in &plan.fills {
            let out = &mut cols[at(c)];
            // Positions too: a member has few pairs, and one gather per
            // column over the run measured faster than copying each
            // member's carried positions.
            if fill != Fill::IsMe {
                gather(out, column(fill), pairs.iter().copied());
                continue;
            }
            let ids = view.ids();
            for (o, (&row, &me)) in out.iter_mut().zip(pairs.iter().zip(pair_self.iter())) {
                *o = truth(ids[row as usize] == ids[me as usize]);
            }
        }
        run_columns::<NIL>(&plan.ops, p, stride, cols, col_nil);
        // Each member's effects, in probe order.
        let cols = Cols { vals: cols, nil: col_nil, stride };
        for m in members.iter() {
            slice.emit(|eff| emit_pairs::<NIL>(plan, cols, pairs, m.clone(), eff));
        }
        if last {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::BrasilBehavior;
    use crate::optimize::{constant_fold, optimize};
    use crate::plan::{QueryPlan, UpdateRule};
    use brace_core::{Behavior, Simulation};

    fn compile_src(src: &str) -> CompiledClass {
        crate::Script::compile_unoptimized(src).unwrap().classes()[0].clone()
    }

    /// Three ticks of `class` over a small dense world, through the register
    /// program and through the reference: both final worlds.
    fn both_worlds(class: CompiledClass) -> (Vec<Agent>, Vec<Agent>) {
        let vm = BrasilBehavior::new(class);
        let run = |b: &dyn Fn() -> Box<dyn Behavior>| {
            let behavior = b();
            let mut rng = DetRng::seed_from_u64(11);
            let agents: Vec<Agent> = (0..40)
                .map(|i| {
                    let pos = if i % 6 == 5 { Vec2::ZERO } else { Vec2::new(rng.range(0.0, 3.0), rng.range(0.0, 3.0)) };
                    Agent::new(AgentId::new(i), pos, behavior.schema())
                })
                .collect();
            let mut sim = Simulation::builder(behavior).agents(agents).seed(9).build().unwrap();
            sim.run(3);
            sim.agents()
        };
        (run(&|| Box::new(vm.clone())), run(&|| Box::new(vm.reference())))
    }

    fn assert_bit_identical(a: &[Agent], b: &[Agent]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            let bits = |a: &Agent| {
                (a.pos.x.to_bits(), a.pos.y.to_bits(), a.state.iter().map(|s| s.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(x), bits(y), "agent {} diverged: {x:?} vs {y:?}", x.id);
        }
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

    #[test]
    fn a_pure_body_runs_in_columns_with_its_invariants_hoisted() {
        for class in [compile_src(SCHOOL), optimize(compile_src(SCHOOL))] {
            let s = lower(&class).summary();
            assert!(!s.ordered_body && s.columns, "{s:?}");
            // `self.x`, `self.y` leave the loop; value numbering computes the
            // shared differences and the denominator once, optimized or not:
            // 2 subs, 2 squares, 1 add, 1 max, 2 divides.
            assert_eq!((s.hoisted_ops, s.candidate_ops), (2, 8), "{s:?}");
            let (vm, spec) = both_worlds(class);
            assert_bit_identical(&vm, &spec);
        }
    }

    /// A loop-only body whose acts write constants, under an `if` that tests
    /// an agent-level value against a constant, and under one that tests a
    /// constant alone: the agent level's op, a path and an act each read a
    /// preset that no op writes, so it gets its column where it is first read.
    #[test]
    fn presets_read_by_ops_paths_and_acts_run_in_columns() {
        let class = compile_src(
            r#"
            class K {
                public state float x : x #range[-1, 1];
                public state float y : y #range[-1, 1];
                public state float got : e;
                private effect float e : sum;
                public void run() {
                    foreach (K p : Extent<K>) {
                        if (x > 1.5) { e <- 1; } else { if (2) { e <- p.y; } }
                    }
                }
            }
        "#,
        );
        let s = lower(&class).summary();
        assert!(s.columns && s.candidate_ops == 0, "{s:?}");
        let (vm, spec) = both_worlds(class);
        assert_bit_identical(&vm, &spec);
        assert!(vm.iter().any(|a| a.state[0] != 0.0));
    }

    #[test]
    fn a_body_that_draws_is_ordered_and_draws_like_the_walker() {
        let class = compile_src(
            r#"
            class R {
                public state float x : x #range[-1, 1];
                public state float y : y #range[-1, 1];
                public state float got : e;
                private effect float e : sum;
                public void run() {
                    foreach (R p : Extent<R>) {
                        if (p.x > x || rand() < 0.5) { e <- rand(); }
                    }
                }
            }
        "#,
        );
        assert!(lower(&class).summary().ordered_body);
        let (vm, spec) = both_worlds(class);
        assert_bit_identical(&vm, &spec);
    }

    #[test]
    fn a_source_const_in_the_body_lowers_and_tracks_nil() {
        // 1/(x - p.x) is ±∞ for agents sharing an x and 0/0 = NaN → NIL for
        // coincident ones: `min` would swallow a NaN, the NIL byte survives it.
        let class = compile_src(
            r#"
            class C {
                public state float x : x #range[-1, 1];
                public state float y : y #range[-1, 1];
                public state float got : e;
                private effect float e : sum;
                public void run() {
                    foreach (C p : Extent<C>) {
                        const float d = (x - p.x) / (x - p.x);
                        e <- min(d, 2);
                    }
                }
            }
        "#,
        );
        let program = lower(&class);
        assert!(program.query_regs.nil && !program.update_regs.nil);
        assert!(!program.summary().ordered_body);
        let (vm, spec) = both_worlds(class);
        assert_bit_identical(&vm, &spec);
        // Coincident agents exist and contributed nothing to each other.
        assert!(vm.iter().any(|a| a.pos == Vec2::ZERO));
    }

    #[test]
    fn programs_without_source_consts_track_no_nil() {
        let program = lower(&optimize(compile_src(SCHOOL)));
        assert!(!program.query_regs.nil && !program.update_regs.nil);
    }

    #[test]
    fn a_300_term_expression_lowers_and_runs() {
        let terms: Vec<String> = (1..=300).map(|k| format!("(x - p.x) * {k} + {k}")).collect();
        let src = format!(
            r#"class W {{
                public state float x : x #range[-1, 1];
                public state float y : y #range[-1, 1];
                public state float got : e;
                private effect float e : sum;
                public void run() {{ foreach (W p : Extent<W>) {{ e <- {}; }} }}
            }}"#,
            terms.join(" + ")
        );
        let class = compile_src(&src);
        assert!(lower(&class).summary().query_registers > 600);
        let (vm, spec) = both_worlds(class);
        assert_bit_identical(&vm, &spec);
    }

    /// The value the evaluator computes for an expression over one agent
    /// whose state `v` (`PExpr::SelfState(0)`) is `v`: lowered as an update
    /// rule, run, and read back raw (NaN payloads and all).
    fn evaluate(e: &PExpr, v: f64) -> f64 {
        let mut class = compile_src("class K { public state float v : v; public void run() {} }");
        class.query = QueryPlan::default();
        class.updates = vec![UpdateRule { target: UpdateTarget::State(0), expr: e.clone() }];
        let program = lower(&class);
        let mut me = Agent::new(AgentId::new(0), Vec2::ZERO, class.schema());
        me.state[0] = v;
        let rngs = &mut [DetRng::seed_from_u64(0)];
        UPDATE_REGFILE.with_borrow_mut(|file| {
            let (vals, nil) = file.enter(&program.update_regs);
            let pass = &mut Pass { rows: &me, at: 0, n: 1, rngs };
            run_ops::<UPDATE_LANES, 1, false>(&program.update, vals, nil, pass);
            vals[program.commits[0].1 as usize][0]
        })
    }

    /// Fold time ≡ run time: for every operator and builtin over the values
    /// where float semantics bite, `constant_fold` of the constant expression
    /// is bit-equal to what the evaluator computes for it unfolded — and an
    /// arithmetic operator with one non-constant operand (the identity folds'
    /// shape) evaluates to the same bits folded and unfolded, whatever
    /// special value that operand takes.
    #[test]
    fn constant_folding_is_bit_equal_to_evaluation() {
        let values = [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::from_bits(1), 1.0, -7.5];
        let k = |v: f64| Box::new(PExpr::Const(v));
        let mut cases = Vec::new();
        for &a in &values {
            for op in [UnOp::Neg, UnOp::Not] {
                cases.push(PExpr::Unary(op, k(a)));
            }
            for &b in &values {
                use BinOp::*;
                for op in [Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne, And, Or] {
                    cases.push(PExpr::Binary(op, k(a), k(b)));
                }
                for &c in &values {
                    cases.push(PExpr::Call(Builtin::Clamp, vec![PExpr::Const(a), PExpr::Const(b), PExpr::Const(c)]));
                }
            }
        }
        for name in ["abs", "sqrt", "sin", "cos", "exp", "ln", "floor", "ceil", "sign", "min", "max", "pow", "atan2"] {
            let f = Builtin::parse(name).unwrap();
            for &a in &values {
                for &b in &values[..if f.arity() == 2 { values.len() } else { 1 }] {
                    cases.push(PExpr::Call(f, [a, b][..f.arity()].iter().map(|&v| PExpr::Const(v)).collect()));
                }
            }
        }
        assert!(cases.len() > 1500);
        for e in cases {
            let PExpr::Const(folded) = constant_fold(e.clone()) else { panic!("{e:?} did not fold") };
            let run = evaluate(&e, 0.0);
            assert_eq!(folded.to_bits(), run.to_bits(), "{e:?}: folded {folded:?}, evaluated {run:?}");
        }
        let v = || Box::new(PExpr::SelfState(0));
        for &c in &values {
            for op in [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div] {
                for e in [PExpr::Binary(op, v(), k(c)), PExpr::Binary(op, k(c), v())] {
                    let folded = constant_fold(e.clone());
                    for &x in &values {
                        let (want, got) = (evaluate(&e, x), evaluate(&folded, x));
                        assert_eq!(want.to_bits(), got.to_bits(), "{e:?} at v = {x:?}: folded to {folded:?}");
                    }
                }
            }
        }
    }
}
