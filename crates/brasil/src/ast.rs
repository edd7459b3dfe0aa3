//! Abstract syntax of BRASIL.
//!
//! The shapes here mirror the surface grammar closely; resolution (field
//! ids, local slots, state/effect classification) happens in the one walk
//! of [`analyze`](mod@crate::analyze), which checks the tree and lowers it
//! to the plan.

use serde::{Deserialize, Serialize};

/// A whole source file: one or more agent classes.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub classes: Vec<ClassDecl>,
}

/// `class Name { members }`
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    pub name: String,
    pub fields: Vec<FieldDecl>,
    /// The query phase. Exactly one `run()` per class.
    pub run: Block,
}

/// Field visibility — parsed and kept for fidelity; access control is not
/// enforced across classes (single-class execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Visibility {
    Public,
    Private,
}

/// Declared field type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeName {
    Float,
    Int,
    Bool,
    /// A reference to another agent class (restricted subset; see analyze).
    Agent(String),
}

/// `public state float x : expr #range[lo, hi];` or
/// `private effect float e : sum;`
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    pub visibility: Visibility,
    pub name: String,
    pub ty: TypeName,
    pub kind: FieldKind,
    pub line: u32,
}

/// What a field is, per the state-effect pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldKind {
    /// State: optional update rule and optional `#range` constraint
    /// (visibility + reachability for spatial fields).
    State { update: Option<Expr>, range: Option<(Expr, Expr)> },
    /// Effect: the combinator's name (resolved in analysis).
    Effect { combinator: String },
}

/// A `{ ... }` statement list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// Statements allowed in `run()`.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `const float name = expr;`
    Const { name: String, ty: TypeName, value: Expr, line: u32 },
    /// `field <- expr;` (local) or `target.field <- expr;` (non-local).
    EffectAssign { target: Option<Expr>, field: String, value: Expr, line: u32 },
    /// `if (cond) { .. } else { .. }`
    If { cond: Expr, then_: Block, else_: Option<Block>, line: u32 },
    /// `foreach (Class var : Extent<Class>) { .. }`
    Foreach { class: String, var: String, extent: String, body: Block, line: u32 },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
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
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnOp {
    Neg,
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Number(f64),
    Bool(bool),
    /// Bare identifier: a field of `this` or a local `const`.
    Ident(String),
    /// `this`: in comparisons, as an assignment target, and before `.field`.
    This,
    /// `base.field` — field access on an agent-valued expression.
    Field(Box<Expr>, String),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Built-in function call `name(args)`.
    Call(String, Vec<Expr>),
}
