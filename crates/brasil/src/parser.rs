//! Recursive-descent parser for BRASIL.
//!
//! Grammar (see the BRASIL language notes in `DESIGN.md`):
//!
//! ```text
//! program   := class+
//! class     := "class" IDENT "{" member* "}"
//! member    := field | run
//! field     := vis? ("state" | "effect") type IDENT (":" spec)? ";"
//! spec      := expr ("#range" "[" expr "," expr "]")?      -- state
//!            | IDENT                                       -- effect combinator
//! run       := vis? "void" IDENT "(" ")" block
//! block     := "{" stmt* "}"
//! stmt      := "const" type IDENT "=" expr ";"
//!            | postfix "<-" expr ";"
//!            | "if" "(" expr ")" block ("else" block)?
//!            | "foreach" "(" IDENT IDENT ":" "Extent" "<" IDENT ">" ")" block
//! expr      := or ; or := and ("||" and)* ; and := cmp ("&&" cmp)* ;
//! cmp       := add (relop add)? ; add := mul (("+"|"-") mul)* ;
//! mul       := unary (("*"|"/"|"%") unary)* ; unary := ("-"|"!")* postfix ;
//! postfix   := primary ("." IDENT)* ;
//! primary   := NUMBER | "true" | "false" | "this" | IDENT ("(" args ")")? | "(" expr ")"
//! ```

use crate::ast::*;
use crate::token::{lex, Spanned, Tok};
use brace_common::{BraceError, Result};

/// How deep a program may nest, in levels. The parser recurses over what is
/// open at a token — blocks, parentheses, argument lists, unary operators —
/// and every later stage (checking and planning, the rewrites, lowering, dropping
/// the tree) over the height of the tree it built, so an unbounded input
/// would overflow the stack; at this depth a whole compile fits a 2 MiB
/// thread in a debug build. A block, a parenthesis and an argument list
/// open four levels (the parser reaches them through every precedence
/// level), a unary operator one. An expression node is accepted while the
/// levels open around it plus its height stay within the bound; an operator,
/// field access or call is one level of height, each of a chain's included
/// (`1 + 1 + … + 1` is parsed in a loop, but into a left-leaning tree whose
/// height adds up the chains of every deep left operand).
pub const MAX_DEPTH: usize = 640;

/// Parse a full program.
pub fn parse(source: &str) -> Result<Program> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0, depth: 0 };
    let mut classes = Vec::new();
    while !p.check(&Tok::Eof) {
        classes.push(p.class()?);
    }
    if classes.is_empty() {
        return Err(BraceError::Parse { line: 1, col: 1, message: "expected at least one class".into() });
    }
    Ok(Program { classes })
}

/// The binary operator `t` stands for at precedence `level`, loosest first:
/// `||`, `&&`, comparisons, `+ -`, `* / %`.
fn binop_at(level: usize, t: &Tok) -> Option<BinOp> {
    Some(match (level, t) {
        (0, Tok::OrOr) => BinOp::Or,
        (1, Tok::AndAnd) => BinOp::And,
        (2, Tok::Lt) => BinOp::Lt,
        (2, Tok::Le) => BinOp::Le,
        (2, Tok::Gt) => BinOp::Gt,
        (2, Tok::Ge) => BinOp::Ge,
        (2, Tok::EqEq) => BinOp::Eq,
        (2, Tok::Ne) => BinOp::Ne,
        (3, Tok::Plus) => BinOp::Add,
        (3, Tok::Minus) => BinOp::Sub,
        (4, Tok::Star) => BinOp::Mul,
        (4, Tok::Slash) => BinOp::Div,
        (4, Tok::Percent) => BinOp::Rem,
        _ => return None,
    })
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    /// Levels of nesting open at `pos`; see [`MAX_DEPTH`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Spanned {
        &self.tokens[self.pos]
    }

    fn check(&self, t: &Tok) -> bool {
        &self.peek().tok == t
    }

    fn advance(&mut self) -> Spanned {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.check(t) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        let s = self.peek();
        Err(BraceError::Parse { line: s.line, col: s.col, message: message.into() })
    }

    /// `height`, if a node that tall fits under the levels open here; see
    /// [`MAX_DEPTH`].
    fn fits(&self, height: usize) -> Result<usize> {
        if self.depth + height > MAX_DEPTH {
            return self.err(format!("nested more than {MAX_DEPTH} levels deep"));
        }
        Ok(height)
    }

    /// Run `parse` with `levels` more levels open (an error abandons the
    /// parse, so it need not close them).
    fn nested<T>(&mut self, levels: usize, parse: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.depth += levels;
        self.fits(0)?;
        let out = parse(self)?;
        self.depth -= levels;
        Ok(out)
    }

    fn expect(&mut self, t: &Tok) -> Result<Spanned> {
        if self.check(t) {
            Ok(self.advance())
        } else {
            self.err(format!("expected `{t}`, found `{}`", self.peek().tok))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match &self.peek().tok {
            Tok::Ident(s) => {
                let s = s.clone();
                self.advance();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found `{other}`")),
        }
    }

    fn class(&mut self) -> Result<ClassDecl> {
        self.expect(&Tok::Class)?;
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut run: Option<Block> = None;
        while !self.check(&Tok::RBrace) {
            let vis = if self.eat(&Tok::Public) {
                Visibility::Public
            } else if self.eat(&Tok::Private) {
                Visibility::Private
            } else {
                Visibility::Public
            };
            if self.eat(&Tok::Void) {
                let line = self.peek().line;
                let mname = self.ident()?;
                if mname != "run" {
                    return Err(BraceError::Parse {
                        line,
                        col: 1,
                        message: format!("only the `run()` method is supported, found `{mname}()`"),
                    });
                }
                self.expect(&Tok::LParen)?;
                self.expect(&Tok::RParen)?;
                let body = self.block()?;
                if run.replace(body).is_some() {
                    return Err(BraceError::Parse { line, col: 1, message: "duplicate run() method".into() });
                }
            } else {
                fields.push(self.field(vis)?);
            }
        }
        self.expect(&Tok::RBrace)?;
        Ok(ClassDecl { name, fields, run: run.unwrap_or_default() })
    }

    fn type_name(&mut self) -> Result<TypeName> {
        match &self.peek().tok {
            Tok::Ident(s) => {
                let ty = match s.as_str() {
                    "float" | "double" => TypeName::Float,
                    "int" | "long" => TypeName::Int,
                    "bool" | "boolean" => TypeName::Bool,
                    other => TypeName::Agent(other.to_string()),
                };
                self.advance();
                Ok(ty)
            }
            other => self.err(format!("expected type, found `{other}`")),
        }
    }

    fn field(&mut self, visibility: Visibility) -> Result<FieldDecl> {
        let line = self.peek().line;
        let kind_tok = if self.eat(&Tok::State) {
            Tok::State
        } else if self.eat(&Tok::Effect) {
            Tok::Effect
        } else {
            return self.err("expected `state` or `effect` field");
        };
        let ty = self.type_name()?;
        let name = self.ident()?;
        let kind = if kind_tok == Tok::State {
            let mut update = None;
            let mut range = None;
            if self.eat(&Tok::Colon) {
                update = Some(self.expr()?);
            }
            if self.eat(&Tok::RangeTag) {
                self.expect(&Tok::LBracket)?;
                let lo = self.expr()?;
                self.expect(&Tok::Comma)?;
                let hi = self.expr()?;
                self.expect(&Tok::RBracket)?;
                range = Some((lo, hi));
            }
            FieldKind::State { update, range }
        } else {
            self.expect(&Tok::Colon)?;
            let combinator = self.ident()?;
            FieldKind::Effect { combinator }
        };
        self.expect(&Tok::Semi)?;
        Ok(FieldDecl { visibility, name, ty, kind, line })
    }

    fn block(&mut self) -> Result<Block> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.check(&Tok::RBrace) {
            stmts.push(self.nested(4, Self::stmt)?);
        }
        self.expect(&Tok::RBrace)?;
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let line = self.peek().line;
        if self.eat(&Tok::Const) {
            let ty = self.type_name()?;
            let name = self.ident()?;
            self.expect(&Tok::Assign)?;
            let value = self.expr()?;
            self.expect(&Tok::Semi)?;
            return Ok(Stmt::Const { name, ty, value, line });
        }
        if self.eat(&Tok::If) {
            self.expect(&Tok::LParen)?;
            let cond = self.expr()?;
            self.expect(&Tok::RParen)?;
            let then_ = self.block()?;
            let else_ = if self.eat(&Tok::Else) { Some(self.block()?) } else { None };
            return Ok(Stmt::If { cond, then_, else_, line });
        }
        if self.eat(&Tok::Foreach) {
            self.expect(&Tok::LParen)?;
            let class = self.ident()?;
            let var = self.ident()?;
            self.expect(&Tok::Colon)?;
            self.expect(&Tok::Extent)?;
            self.expect(&Tok::Lt)?;
            let extent = self.ident()?;
            self.expect(&Tok::Gt)?;
            self.expect(&Tok::RParen)?;
            let body = self.block()?;
            return Ok(Stmt::Foreach { class, var, extent, body, line });
        }
        // Effect assignment: `lhs <- expr;` where lhs is ident or postfix
        // field access.
        let (lhs, _) = self.postfix()?;
        self.expect(&Tok::Arrow)?;
        let value = self.expr()?;
        self.expect(&Tok::Semi)?;
        match lhs {
            Expr::Ident(field) => Ok(Stmt::EffectAssign { target: None, field, value, line }),
            Expr::Field(base, field) => {
                // `this.f <- e` is local.
                if *base == Expr::This {
                    Ok(Stmt::EffectAssign { target: None, field, value, line })
                } else {
                    Ok(Stmt::EffectAssign { target: Some(*base), field, value, line })
                }
            }
            _ => Err(BraceError::Parse {
                line,
                col: 1,
                message: "left side of `<-` must be an effect field or target.field".into(),
            }),
        }
    }

    // ---- expressions ------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        Ok(self.tall_expr()?.0)
    }

    /// An expression and its height (a leaf is 0).
    fn tall_expr(&mut self) -> Result<(Expr, usize)> {
        self.nested(4, |p| p.binary(0))
    }

    /// The operators of precedence `level` and tighter, left-associative;
    /// comparisons (level 2) do not chain.
    fn binary(&mut self, level: usize) -> Result<(Expr, usize)> {
        if level == 5 {
            return self.unary_expr();
        }
        let (mut e, mut height) = self.binary(level + 1)?;
        while let Some(op) = binop_at(level, &self.peek().tok) {
            self.advance();
            let (r, r_height) = self.binary(level + 1)?;
            height = self.fits(height.max(r_height) + 1)?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
            if level == 2 {
                break;
            }
        }
        Ok((e, height))
    }

    fn unary_expr(&mut self) -> Result<(Expr, usize)> {
        let op = match self.peek().tok {
            Tok::Minus => UnOp::Neg,
            Tok::Not => UnOp::Not,
            _ => return self.postfix(),
        };
        self.advance();
        let (e, height) = self.nested(1, Self::unary_expr)?;
        Ok((Expr::Unary(op, Box::new(e)), height + 1))
    }

    fn postfix(&mut self) -> Result<(Expr, usize)> {
        let (mut e, mut height) = self.primary()?;
        while self.eat(&Tok::Dot) {
            let field = self.ident()?;
            height = self.fits(height + 1)?;
            e = Expr::Field(Box::new(e), field);
        }
        Ok((e, height))
    }

    fn primary(&mut self) -> Result<(Expr, usize)> {
        let leaf = match self.peek().tok.clone() {
            Tok::Number(n) => Expr::Number(n),
            Tok::True => Expr::Bool(true),
            Tok::False => Expr::Bool(false),
            Tok::This => Expr::This,
            Tok::LParen => {
                self.advance();
                let e = self.tall_expr()?;
                self.expect(&Tok::RParen)?;
                return Ok(e);
            }
            Tok::Ident(name) => {
                self.advance();
                if !self.eat(&Tok::LParen) {
                    return Ok((Expr::Ident(name), 0));
                }
                let mut args = Vec::new();
                let mut height = 0;
                if !self.check(&Tok::RParen) {
                    loop {
                        let (arg, arg_height) = self.tall_expr()?;
                        args.push(arg);
                        height = height.max(arg_height);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
                return Ok((Expr::Call(name, args), height + 1));
            }
            other => return self.err(format!("expected expression, found `{other}`")),
        };
        self.advance();
        Ok((leaf, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FISH: &str = r#"
        class Fish {
            public state float x : x + vx #range[-1, 1];
            public state float y : y + vy #range[-1, 1];
            public state float vx : vx + rand() + avoidx / count * vx;
            public state float vy : vy + rand() + avoidy / count * vy;
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
    fn parses_paper_figure_2() {
        let prog = parse(FISH).unwrap();
        assert_eq!(prog.classes.len(), 1);
        let c = &prog.classes[0];
        assert_eq!(c.name, "Fish");
        assert_eq!(c.fields.len(), 7);
        assert_eq!(c.run.stmts.len(), 1);
        match &c.run.stmts[0] {
            Stmt::Foreach { class, var, extent, body, .. } => {
                assert_eq!(class, "Fish");
                assert_eq!(var, "p");
                assert_eq!(extent, "Fish");
                assert_eq!(body.stmts.len(), 3);
                match &body.stmts[0] {
                    Stmt::EffectAssign { target: Some(t), field, .. } => {
                        assert_eq!(*t, Expr::Ident("p".into()));
                        assert_eq!(field, "avoidx");
                    }
                    other => panic!("expected non-local assign, got {other:?}"),
                }
            }
            other => panic!("expected foreach, got {other:?}"),
        }
    }

    #[test]
    fn state_field_with_range() {
        let prog = parse(FISH).unwrap();
        match &prog.classes[0].fields[0].kind {
            FieldKind::State { update: Some(_), range: Some((lo, hi)) } => {
                assert_eq!(*lo, Expr::Unary(UnOp::Neg, Box::new(Expr::Number(1.0))));
                assert_eq!(*hi, Expr::Number(1.0));
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn effect_field_combinator_name() {
        let prog = parse(FISH).unwrap();
        match &prog.classes[0].fields[4].kind {
            FieldKind::Effect { combinator } => assert_eq!(combinator, "sum"),
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn this_dot_field_assign_is_local() {
        let src = r#"
            class A {
                private effect float e : sum;
                public void run() { this.e <- 1; }
            }
        "#;
        let prog = parse(src).unwrap();
        match &prog.classes[0].run.stmts[0] {
            Stmt::EffectAssign { target: None, field, .. } => assert_eq!(field, "e"),
            other => panic!("expected local assign, got {other:?}"),
        }
    }

    #[test]
    fn if_else_and_const() {
        let src = r#"
            class A {
                public state float v : v;
                private effect float e : max;
                public void run() {
                    const float t = v * 2;
                    if (t > 1 && t < 10) { e <- t; } else { e <- 0 - t; }
                }
            }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.classes[0].run.stmts.len(), 2);
        match &prog.classes[0].run.stmts[1] {
            Stmt::If { else_: Some(_), .. } => {}
            other => panic!("expected if/else, got {other:?}"),
        }
    }

    #[test]
    fn operator_precedence() {
        let src = r#"
            class A {
                private effect float e : sum;
                public void run() { e <- 1 + 2 * 3 - 4 / 2; }
            }
        "#;
        let prog = parse(src).unwrap();
        // Shape: (1 + (2*3)) - (4/2)
        match &prog.classes[0].run.stmts[0] {
            Stmt::EffectAssign { value: Expr::Binary(BinOp::Sub, l, r), .. } => {
                assert!(matches!(**l, Expr::Binary(BinOp::Add, _, _)));
                assert!(matches!(**r, Expr::Binary(BinOp::Div, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_reports_position() {
        let err = parse("class A { public state float x : ; }").expect_err("must fail");
        match err {
            brace_common::BraceError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn rejects_unknown_method() {
        let err = parse("class A { public void step() {} }").expect_err("must fail");
        assert!(err.to_string().contains("run()"));
    }

    #[test]
    fn rejects_duplicate_run() {
        let err = parse("class A { public void run() {} public void run() {} }").expect_err("must fail");
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn multiple_classes() {
        let src = r#"
            class A { public state float x : x; public void run() {} }
            class B { public state float x : x; public void run() {} }
        "#;
        let prog = parse(src).unwrap();
        assert_eq!(prog.classes.len(), 2);
    }

    #[test]
    fn empty_program_rejected() {
        assert!(parse("  // nothing\n").is_err());
    }

    const SHAPES: [&str; 5] = ["parentheses", "unary minuses", "sum", "parenthesised sums", "mixed precedence"];

    /// A script whose one effect assignment nests `levels` deep in `shape`,
    /// on top of the 8 levels of its `run()` statement and expression. A
    /// parenthesis is 4 levels (so `levels` rounds up to a multiple of 4),
    /// a minus or a binary operator 1. "parenthesised sums" nests 64
    /// parenthesised sums, each the left operand of the next, so that each
    /// sum alone is short but the tree is `levels` tall; "mixed precedence"
    /// is a chain of minuses, then of `*`, `+`, `&&` and `||`.
    fn nested_script(shape: &str, levels: usize) -> String {
        let chain = |op: &str, n: usize| format!(" {op} 1").repeat(n);
        let value = match shape {
            "parentheses" => format!("{}1{}", "(".repeat(levels.div_ceil(4)), ")".repeat(levels.div_ceil(4))),
            "unary minuses" => format!("{}1", "-".repeat(levels)),
            "sum" => format!("1{}", chain("+", levels)),
            "parenthesised sums" => {
                let sum = chain("+", levels / 64);
                (1..64).fold(format!("1{sum}"), |inner, _| format!("({inner}){sum}")) + &chain("+", levels % 64)
            }
            _ => {
                let n = levels / 5;
                format!("{}1{}", "-".repeat(n), ["*", "+", "&&"].map(|op| chain(op, n)).concat())
                    + &chain("||", levels - 4 * n)
            }
        };
        format!("class A {{\n private effect float e : sum;\n public void run() {{\n e <- {value};\n }}\n}}")
    }

    /// Compile and lower `src` on a thread with the default spawned stack.
    fn compile_on_a_2_mib_thread(src: String) -> Result<()> {
        let compile = move || crate::Script::compile(&src).map(|s| drop(s.behavior("A").expect("class A")));
        std::thread::Builder::new().stack_size(2 << 20).spawn(compile).unwrap().join().unwrap()
    }

    #[test]
    fn nesting_at_the_bound_compiles_on_a_2_mib_thread() {
        for shape in SHAPES {
            let at_bound = compile_on_a_2_mib_thread(nested_script(shape, MAX_DEPTH - 8));
            assert!(at_bound.is_ok(), "{shape}: {at_bound:?}");
            let past = compile_on_a_2_mib_thread(nested_script(shape, MAX_DEPTH - 7));
            assert!(matches!(past, Err(BraceError::Parse { line: 4, .. })), "{shape}: {past:?}");
        }
    }

    #[test]
    fn a_hundred_thousand_levels_are_a_parse_error_not_a_stack_overflow() {
        for shape in SHAPES {
            let src = nested_script(shape, 100_000);
            let err = std::thread::spawn(move || crate::Script::compile(&src).err()).join().unwrap();
            assert!(matches!(err, Some(BraceError::Parse { line: 4, .. })), "{shape}: {err:?}");
        }
    }
}
