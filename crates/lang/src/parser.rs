//! Recursive-descent parser: concrete HipHop syntax → core AST modules.
//!
//! The grammar follows the paper's examples:
//!
//! ```text
//! module Main(in name = "", in passwd = "", in login, in logout,
//!             out enableLogin, out connState = "disconn",
//!             inout time = 0, inout connected) {
//!    fork {
//!       run Identity(...);
//!    } par {
//!       every (login.now) {
//!          run Authenticate(...);
//!          if (connected.nowval) { run Session(...); }
//!          else { emit connState("error"); }
//!       }
//!    }
//! }
//! ```
//!
//! Statement keywords are contextual identifiers; `yield` is `pause`;
//! labels (`DoseOK: fork { ... }`) are traps exited by `break DoseOK;`.

use crate::error::ParseError;
use crate::host::HostRegistry;
use crate::lexer::lex;
use crate::token::{Spanned, Tok};
use hiphop_core::ast::{AsyncSpec, AtomBody, Delay, Loc, RunBind, Stmt};
use hiphop_core::expr::{BinOp, Expr, UnOp};
use hiphop_core::module::{Module, ModuleRegistry, VarDecl};
use hiphop_core::signal::{Combine, Direction, SignalDecl};
use hiphop_core::value::Value;

/// Deepest statement plus expression nesting the parser accepts. Deeper
/// input is refused with a located error instead of overflowing the
/// stack of this recursive-descent parser or of the passes after it.
pub const MAX_NESTING: usize = 512;

/// Parses a source file containing one or more modules; `implements`
/// clauses are resolved against earlier modules of the same file.
///
/// # Errors
///
/// Returns the first [`ParseError`] with its source position.
pub fn parse_file(src: &str, hosts: &HostRegistry) -> Result<ModuleRegistry, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        hosts,
    };
    let mut registry = ModuleRegistry::new();
    while !p.at_eof() {
        let m = p.module(&registry)?;
        registry.register(m);
    }
    Ok(registry)
}

/// Parses a source file and returns the module named `main` along with
/// the registry (convenience for single-program files).
///
/// # Errors
///
/// Fails on parse errors or when `main` is absent.
pub fn parse_program(
    src: &str,
    main: &str,
    hosts: &HostRegistry,
) -> Result<(Module, ModuleRegistry), ParseError> {
    let registry = parse_file(src, hosts)?;
    let m = registry
        .get(main)
        .cloned()
        .ok_or_else(|| ParseError::new(format!("no module named `{main}`"), 1, 1))?;
    Ok((m, registry))
}

struct Parser<'a> {
    toks: Vec<Spanned>,
    pos: usize,
    /// Statements and expressions currently open (see [`MAX_NESTING`]).
    depth: usize,
    hosts: &'a HostRegistry,
}

impl Parser<'_> {
    fn peek(&self) -> &Spanned {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }
    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }
    fn at_eof(&self) -> bool {
        self.peek().tok == Tok::Eof
    }
    fn loc(&self) -> Loc {
        Loc::new(self.peek().line, self.peek().col)
    }
    fn bump(&mut self) -> Spanned {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }
    fn err(&self, msg: impl Into<String>) -> ParseError {
        let s = self.peek();
        ParseError::new(msg, s.line, s.col)
    }
    fn expect(&mut self, tok: Tok) -> Result<Spanned, ParseError> {
        if self.peek().tok == tok {
            Ok(self.bump())
        } else {
            Err(self.err(format!("expected {tok}, found {}", self.peek().tok)))
        }
    }
    fn is_kw(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }
    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }
    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek().tok)))
        }
    }
    /// Runs `f` one nesting level deeper, refusing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }
    fn ident(&mut self) -> Result<String, ParseError> {
        match &self.peek().tok {
            Tok::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // ------------------------------------------------------------------
    // Modules.

    fn module(&mut self, earlier: &ModuleRegistry) -> Result<Module, ParseError> {
        if self.eat_kw("hiphop") {
            // Optional `hiphop` prefix as in the paper listings.
        }
        self.expect_kw("module")?;
        let name = self.ident()?;
        let mut module = Module::new(name);
        self.expect(Tok::LParen)?;
        if self.peek().tok != Tok::RParen {
            loop {
                let (decl, var) = self.interface_item()?;
                if let Some(v) = var {
                    module = module.var(v);
                } else if let Some(d) = decl {
                    module = module.signal(d);
                }
                if self.peek().tok == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        if self.eat_kw("implements") {
            let base = self.ident()?;
            let other = earlier
                .get(&base)
                .ok_or_else(|| self.err(format!("implements unknown module `{base}`")))?;
            module = module.implements(other);
        }
        self.expect(Tok::LBrace)?;
        let body = self.stmts_until_rbrace()?;
        self.expect(Tok::RBrace)?;
        Ok(module.body(body))
    }

    fn interface_item(&mut self) -> Result<(Option<SignalDecl>, Option<VarDecl>), ParseError> {
        if self.eat_kw("var") {
            let name = self.ident()?;
            let default = if self.peek().tok == Tok::Assign {
                self.bump();
                Some(self.literal()?)
            } else {
                None
            };
            return Ok((
                None,
                Some(VarDecl {
                    name,
                    default,
                }),
            ));
        }
        let direction = if self.eat_kw("in") {
            Direction::In
        } else if self.eat_kw("out") {
            Direction::Out
        } else if self.eat_kw("inout") {
            Direction::InOut
        } else {
            // Direction-less interface signals (paper: `module
            // Session(connState, time, logout)`) are inout so they can be
            // bound either way by `run`.
            Direction::InOut
        };
        let name = self.ident()?;
        let mut decl = SignalDecl::new(name, direction);
        if self.peek().tok == Tok::Assign {
            self.bump();
            decl.init = Some(self.literal()?);
        }
        if self.eat_kw("combine") {
            decl.combine = Some(self.combine_op()?);
        }
        Ok((Some(decl), None))
    }

    fn combine_op(&mut self) -> Result<Combine, ParseError> {
        let c = match &self.peek().tok {
            Tok::Plus => Combine::Plus,
            Tok::Star => Combine::Mul,
            Tok::Ident(s) if s == "and" => Combine::And,
            Tok::Ident(s) if s == "or" => Combine::Or,
            Tok::Ident(s) if s == "min" => Combine::Min,
            Tok::Ident(s) if s == "max" => Combine::Max,
            Tok::Ident(s) if s == "append" => Combine::Append,
            other => return Err(self.err(format!("expected combine operator, found {other}"))),
        };
        self.bump();
        Ok(c)
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        let v = match &self.peek().tok {
            Tok::Num(n) => Value::Num(*n),
            Tok::Str(s) => Value::Str(s.clone()),
            Tok::Ident(s) if s == "true" => Value::Bool(true),
            Tok::Ident(s) if s == "false" => Value::Bool(false),
            Tok::Ident(s) if s == "null" => Value::Null,
            Tok::Minus => {
                self.bump();
                match &self.peek().tok {
                    Tok::Num(n) => {
                        let v = Value::Num(-n);
                        self.bump();
                        return Ok(v);
                    }
                    other => return Err(self.err(format!("expected number, found {other}"))),
                }
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                while self.peek().tok != Tok::RBracket {
                    items.push(self.literal()?);
                    if self.peek().tok == Tok::Comma {
                        self.bump();
                    }
                }
                self.bump();
                return Ok(Value::Arr(items));
            }
            other => return Err(self.err(format!("expected literal, found {other}"))),
        };
        self.bump();
        Ok(v)
    }

    // ------------------------------------------------------------------
    // Statements.

    fn stmts_until_rbrace(&mut self) -> Result<Stmt, ParseError> {
        let mut out = Vec::new();
        while self.peek().tok != Tok::RBrace && !self.at_eof() {
            out.push(self.stmt()?);
        }
        Ok(Stmt::seq(out))
    }

    fn block(&mut self) -> Result<Stmt, ParseError> {
        self.expect(Tok::LBrace)?;
        let s = self.stmts_until_rbrace()?;
        self.expect(Tok::RBrace)?;
        Ok(s)
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_at_depth)
    }

    fn stmt_at_depth(&mut self) -> Result<Stmt, ParseError> {
        let loc = self.loc();
        match &self.peek().tok {
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Nothing)
            }
            Tok::LBrace => self.block(),
            Tok::Ident(kw) => {
                let kw = kw.clone();
                match kw.as_str() {
                    "yield" | "pause" => {
                        self.bump();
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::Pause)
                    }
                    "halt" => {
                        self.bump();
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::Halt)
                    }
                    "emit" | "sustain" => {
                        self.bump();
                        let signal = self.ident()?;
                        self.expect(Tok::LParen)?;
                        let value = if self.peek().tok == Tok::RParen {
                            None
                        } else {
                            Some(self.expr()?)
                        };
                        self.expect(Tok::RParen)?;
                        self.expect(Tok::Semi)?;
                        Ok(if kw == "emit" {
                            Stmt::Emit { signal, value, loc }
                        } else {
                            Stmt::Sustain { signal, value, loc }
                        })
                    }
                    "hop" => self.hop_stmt(loc),
                    "fork" => {
                        self.bump();
                        let mut branches = vec![self.block()?];
                        while self.eat_kw("par") {
                            branches.push(self.block()?);
                        }
                        Ok(Stmt::par(branches))
                    }
                    "loop" => {
                        self.bump();
                        Ok(Stmt::loop_(self.block()?))
                    }
                    "if" => {
                        self.bump();
                        self.expect(Tok::LParen)?;
                        let cond = self.expr()?;
                        self.expect(Tok::RParen)?;
                        let then_branch = self.block()?;
                        let else_branch = if self.eat_kw("else") {
                            if self.is_kw("if") {
                                self.stmt()?
                            } else {
                                self.block()?
                            }
                        } else {
                            Stmt::Nothing
                        };
                        Ok(Stmt::If {
                            cond,
                            then_branch: Box::new(then_branch),
                            else_branch: Box::new(else_branch),
                            loc,
                        })
                    }
                    "await" => {
                        self.bump();
                        let delay = self.delay()?;
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::Await { delay, loc })
                    }
                    "abort" | "weakabort" => {
                        self.bump();
                        let delay = self.delay()?;
                        let body = self.block()?;
                        Ok(Stmt::Abort {
                            delay,
                            weak: kw == "weakabort",
                            body: Box::new(body),
                            loc,
                        })
                    }
                    "suspend" => {
                        self.bump();
                        let delay = self.delay()?;
                        let body = self.block()?;
                        Ok(Stmt::Suspend {
                            delay,
                            body: Box::new(body),
                            loc,
                        })
                    }
                    "every" => {
                        self.bump();
                        let delay = self.delay()?;
                        let body = self.block()?;
                        Ok(Stmt::Every {
                            delay,
                            body: Box::new(body),
                            loc,
                        })
                    }
                    "do" => {
                        self.bump();
                        let body = self.block()?;
                        self.expect_kw("every")?;
                        let delay = self.delay()?;
                        // Paper style: `do { ... } every (cond)` without a
                        // trailing semicolon.
                        if self.peek().tok == Tok::Semi {
                            self.bump();
                        }
                        Ok(Stmt::LoopEach {
                            delay,
                            body: Box::new(body),
                            loc,
                        })
                    }
                    "signal" => {
                        self.bump();
                        let mut decls = Vec::new();
                        loop {
                            let name = self.ident()?;
                            let mut d = SignalDecl::new(name, Direction::Local);
                            if self.peek().tok == Tok::Assign {
                                self.bump();
                                d.init = Some(self.literal()?);
                            }
                            if self.eat_kw("combine") {
                                d.combine = Some(self.combine_op()?);
                            }
                            decls.push(d);
                            if self.peek().tok == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                        self.expect(Tok::Semi)?;
                        // The declaration scopes over the remainder of the
                        // enclosing block.
                        let rest = self.stmts_until_rbrace()?;
                        Ok(Stmt::Local {
                            decls,
                            body: Box::new(rest),
                            loc,
                        })
                    }
                    "break" => {
                        self.bump();
                        let label = self.ident()?;
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::Exit { label, loc })
                    }
                    "run" => {
                        self.bump();
                        let module = self.ident()?;
                        self.expect(Tok::LParen)?;
                        let mut binds = Vec::new();
                        while self.peek().tok != Tok::RParen {
                            if self.peek().tok == Tok::Ellipsis {
                                self.bump(); // implicit-by-name marker
                            } else {
                                let first = self.ident()?;
                                if self.eat_kw("as") {
                                    let outer = self.ident()?;
                                    binds.push(RunBind::Signal {
                                        inner: first,
                                        outer,
                                    });
                                } else if self.peek().tok == Tok::Assign {
                                    self.bump();
                                    let value = self.expr()?;
                                    binds.push(RunBind::Var { name: first, value });
                                } else {
                                    // Bare name: bind same-named signal
                                    // explicitly (no-op but accepted).
                                    binds.push(RunBind::Signal {
                                        inner: first.clone(),
                                        outer: first,
                                    });
                                }
                            }
                            if self.peek().tok == Tok::Comma {
                                self.bump();
                            }
                        }
                        self.expect(Tok::RParen)?;
                        self.expect(Tok::Semi)?;
                        Ok(Stmt::Run { module, binds, loc })
                    }
                    "async" => self.async_stmt(loc),
                    _ => {
                        // Trap label: `IDENT ':' stmt`.
                        if *self.peek2() == Tok::Colon {
                            let label = self.ident()?;
                            self.expect(Tok::Colon)?;
                            let body = self.stmt()?;
                            Ok(Stmt::Trap {
                                label,
                                body: Box::new(body),
                                loc,
                            })
                        } else {
                            Err(self.err(format!("unknown statement `{kw}`")))
                        }
                    }
                }
            }
            other => Err(self.err(format!("expected a statement, found {other}"))),
        }
    }

    fn hop_stmt(&mut self, _loc: Loc) -> Result<Stmt, ParseError> {
        self.expect_kw("hop")?;
        self.expect(Tok::LBrace)?;
        let mut atoms = Vec::new();
        while self.peek().tok != Tok::RBrace {
            let aloc = self.loc();
            if self.eat_kw("log") {
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                atoms.push(Stmt::Atom {
                    body: AtomBody::Log(e),
                    loc: aloc,
                });
            } else if self.eat_kw("host") {
                let name = match &self.peek().tok {
                    Tok::Str(s) => s.clone(),
                    other => return Err(self.err(format!("expected host name string, found {other}"))),
                };
                self.bump();
                self.expect(Tok::Semi)?;
                let f = self
                    .hosts
                    .get_atom(&name)
                    .ok_or_else(|| {
                        ParseError::new(
                            format!("unregistered host atom `{name}`"),
                            aloc.line,
                            aloc.col,
                        )
                    })?
                    .clone();
                atoms.push(Stmt::Atom {
                    body: AtomBody::Host {
                        name,
                        reads: Vec::new(),
                        f,
                    },
                    loc: aloc,
                });
            } else {
                let var = self.ident()?;
                self.expect(Tok::Assign)?;
                let e = self.expr()?;
                self.expect(Tok::Semi)?;
                atoms.push(Stmt::Atom {
                    body: AtomBody::Assign(var, e),
                    loc: aloc,
                });
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(Stmt::seq(atoms))
    }

    fn async_stmt(&mut self, loc: Loc) -> Result<Stmt, ParseError> {
        self.expect_kw("async")?;
        let done_signal = match &self.peek().tok {
            Tok::Ident(s) if s != "kill" => {
                let s = s.clone();
                self.bump();
                Some(s)
            }
            _ => None,
        };
        let mut spec = AsyncSpec {
            done_signal,
            ..AsyncSpec::default()
        };
        spec.on_spawn = Some(self.host_block()?);
        loop {
            if self.is_kw("kill") {
                self.bump();
                spec.on_kill = Some(self.host_block()?);
            } else if self.is_kw("suspend") && *self.peek2() == Tok::LBrace {
                self.bump();
                spec.on_suspend = Some(self.host_block()?);
            } else if self.is_kw("resume") && *self.peek2() == Tok::LBrace {
                self.bump();
                spec.on_resume = Some(self.host_block()?);
            } else {
                break;
            }
        }
        Ok(Stmt::Async { spec, loc })
    }

    fn host_block(&mut self) -> Result<hiphop_core::ast::AsyncHook, ParseError> {
        let loc = self.loc();
        self.expect(Tok::LBrace)?;
        self.expect_kw("host")?;
        let name = match &self.peek().tok {
            Tok::Str(s) => s.clone(),
            other => return Err(self.err(format!("expected host name string, found {other}"))),
        };
        self.bump();
        if self.peek().tok == Tok::Semi {
            self.bump();
        }
        self.expect(Tok::RBrace)?;
        self.hosts
            .get_async(&name)
            .cloned()
            .ok_or_else(|| ParseError::new(format!("unregistered host hook `{name}`"), loc.line, loc.col))
    }

    fn delay(&mut self) -> Result<Delay, ParseError> {
        // Forms: `(cond)`, `immediate (cond)`, `(immediate cond)`,
        // `count(n, cond)`.
        let mut immediate = self.eat_kw("immediate");
        if self.is_kw("count") {
            self.bump();
            self.expect(Tok::LParen)?;
            let n = self.expr()?;
            self.expect(Tok::Comma)?;
            let cond = self.expr()?;
            self.expect(Tok::RParen)?;
            return Ok(Delay {
                immediate,
                count: Some(n),
                cond,
            });
        }
        self.expect(Tok::LParen)?;
        if self.eat_kw("immediate") {
            immediate = true;
        }
        if self.is_kw("count") {
            self.bump();
            self.expect(Tok::LParen)?;
            let n = self.expr()?;
            self.expect(Tok::Comma)?;
            let cond = self.expr()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::RParen)?;
            return Ok(Delay {
                immediate,
                count: Some(n),
                cond,
            });
        }
        let cond = self.expr()?;
        self.expect(Tok::RParen)?;
        Ok(Delay {
            immediate,
            count: None,
            cond,
        })
    }

    // ------------------------------------------------------------------
    // Expressions.

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::ternary)
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let c = self.or_expr()?;
        if self.peek().tok == Tok::Question {
            self.bump();
            let a = self.expr()?;
            self.expect(Tok::Colon)?;
            let b = self.expr()?;
            Ok(Expr::ternary(c, a, b))
        } else {
            Ok(c)
        }
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.and_expr()?;
        while self.peek().tok == Tok::OrOr {
            self.bump();
            e = e.or(self.and_expr()?);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.equality()?;
        while self.peek().tok == Tok::AndAnd {
            self.bump();
            e = e.and(self.equality()?);
        }
        Ok(e)
    }

    fn equality(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.relational()?;
        loop {
            let op = match self.peek().tok {
                Tok::EqEq => BinOp::Eq,
                Tok::NotEq => BinOp::Ne,
                Tok::EqEqEq => BinOp::StrictEq,
                Tok::NotEqEq => BinOp::StrictNe,
                _ => break,
            };
            self.bump();
            e = Expr::Binary(op, Box::new(e), Box::new(self.relational()?));
        }
        Ok(e)
    }

    fn relational(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.additive()?;
        loop {
            let op = match self.peek().tok {
                Tok::Lt => BinOp::Lt,
                Tok::Le => BinOp::Le,
                Tok::Gt => BinOp::Gt,
                Tok::Ge => BinOp::Ge,
                _ => break,
            };
            self.bump();
            e = Expr::Binary(op, Box::new(e), Box::new(self.additive()?));
        }
        Ok(e)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.multiplicative()?;
        loop {
            let op = match self.peek().tok {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            e = Expr::Binary(op, Box::new(e), Box::new(self.multiplicative()?));
        }
        Ok(e)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.unary()?;
        loop {
            let op = match self.peek().tok {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Rem,
                _ => break,
            };
            self.bump();
            e = Expr::Binary(op, Box::new(e), Box::new(self.unary()?));
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().tok {
            Tok::Not => {
                self.bump();
                Ok(Expr::Unary(UnOp::Not, Box::new(self.nested(Self::unary)?)))
            }
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.nested(Self::unary)?)))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            match self.peek().tok {
                Tok::Dot => {
                    self.bump();
                    let field = self.ident()?;
                    e = match (&e, field.as_str()) {
                        (Expr::Var(name), "now") => Expr::now(name.clone()),
                        (Expr::Var(name), "pre") => Expr::pre(name.clone()),
                        (Expr::Var(name), "nowval") => Expr::nowval(name.clone()),
                        (Expr::Var(name), "preval") => Expr::preval(name.clone()),
                        _ => e.field(field),
                    };
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = e.index(idx);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match &self.peek().tok {
            Tok::Num(n) => {
                let e = Expr::num(*n);
                self.bump();
                Ok(e)
            }
            Tok::Str(s) => {
                let e = Expr::str(s.clone());
                self.bump();
                Ok(e)
            }
            Tok::Ident(s) if s == "true" => {
                self.bump();
                Ok(Expr::bool(true))
            }
            Tok::Ident(s) if s == "false" => {
                self.bump();
                Ok(Expr::bool(false))
            }
            Tok::Ident(s) if s == "null" => {
                self.bump();
                Ok(Expr::Lit(Value::Null))
            }
            Tok::Ident(s) => {
                let name = s.clone();
                self.bump();
                if self.peek().tok == Tok::LParen {
                    // Built-in pure function call: `min(a, b)`.
                    self.bump();
                    let mut args = Vec::new();
                    while self.peek().tok != Tok::RParen {
                        args.push(self.expr()?);
                        if self.peek().tok == Tok::Comma {
                            self.bump();
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::var(name))
                }
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::LBracket => {
                self.bump();
                let mut items = Vec::new();
                while self.peek().tok != Tok::RBracket {
                    items.push(self.expr()?);
                    if self.peek().tok == Tok::Comma {
                        self.bump();
                    }
                }
                self.bump();
                Ok(Expr::Array(items))
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}
