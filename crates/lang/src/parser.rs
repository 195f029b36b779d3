//! Textual surface syntax for programs and expressions.
//!
//! The concrete syntax follows the paper's figures closely:
//!
//! ```text
//! stmt  ::= "skip"
//!         | x ":=" expr
//!         | x ":=" "[" expr "]"
//!         | "[" expr "]" ":=" expr
//!         | x ":=" "alloc" "(" expr ")"
//!         | "if" "(" expr ")" block "else" block
//!         | "while" "(" expr ")" block
//!         | "par" block block
//!         | "atomic" block
//!         | "output" "(" expr ")"
//! block ::= "{" stmt (";" stmt)* "}"
//! ```
//!
//! Expressions have the usual precedence (`||` < `&&` < comparisons <
//! additive < multiplicative < unary), and container operations are spelled
//! as function calls (`put(m, k, v)`, `dom(m)`, `append(s, e)`, `len(s)`,
//! `to_ms(s)`, …).
//!
//! Lexing and error positions use the shared machinery in [`crate::span`]:
//! every [`ParseError`] carries a 1-based `line:column` [`Pos`]. The
//! annotated-program frontend (`commcsl-front`) builds on the same lexer,
//! the same [`Pos`]/[`ParseError`] types, and the same function-call table
//! ([`func_by_name`] / [`func_surface_name`]).

use commcsl_pure::{Func, Symbol, Term, Value};

use crate::ast::Cmd;
use crate::span::{Lexer, Pos, Token};

pub use crate::span::ParseError;

/// Parses a whole program.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, including trailing junk.
///
/// # Example
///
/// ```
/// use commcsl_lang::parser::parse_program;
///
/// let prog = parse_program("x := 1; par { x := x + 1 } { skip }").unwrap();
/// assert_eq!(prog.loc(), 4);
/// ```
pub fn parse_program(input: &str) -> Result<Cmd, ParseError> {
    let mut p = Parser::new(input)?;
    let cmd = p.parse_stmts()?;
    p.expect_eof()?;
    Ok(cmd)
}

/// Parses a single expression.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, including trailing junk.
pub fn parse_expr(input: &str) -> Result<Term, ParseError> {
    let mut p = Parser::new(input)?;
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Token,
    pos: Pos,
}

const SYMBOLS: &[&str] = &[
    ":=", "==", "!=", "<=", ">=", "&&", "||", "(", ")", "[", "]", "{", "}", ",", ";", "+",
    "-", "*", "/", "%", "<", ">", "!", "=",
];

/// The surface name ↔ [`Func`] table shared by the plain-program parser,
/// the annotated-program frontend, and the pretty-printer.
const CALL_TABLE: &[(&str, Func, usize)] = &[
    ("pair", Func::MkPair, 2),
    ("fst", Func::Fst, 1),
    ("snd", Func::Snd, 1),
    ("left", Func::MkLeft, 1),
    ("right", Func::MkRight, 1),
    ("is_left", Func::IsLeft, 1),
    ("from_left", Func::FromLeft, 1),
    ("from_right", Func::FromRight, 1),
    ("append", Func::SeqAppend, 2),
    ("concat", Func::SeqConcat, 2),
    ("len", Func::SeqLen, 1),
    ("index", Func::SeqIndex, 2),
    ("index_or", Func::SeqIndexOr, 3),
    ("tail", Func::SeqTail, 1),
    ("head_or", Func::SeqHeadOr, 2),
    ("sum", Func::SeqSum, 1),
    ("mean", Func::SeqMean, 1),
    ("sorted", Func::SeqSorted, 1),
    ("to_ms", Func::SeqToMultiset, 1),
    ("to_set", Func::SeqToSet, 1),
    ("set_add", Func::SetAdd, 2),
    ("set_union", Func::SetUnion, 2),
    ("set_card", Func::SetCard, 1),
    ("set_contains", Func::SetContains, 2),
    ("set_to_seq", Func::SetToSeq, 1),
    ("ms_add", Func::MsAdd, 2),
    ("ms_union", Func::MsUnion, 2),
    ("ms_card", Func::MsCard, 1),
    ("ms_contains", Func::MsContains, 2),
    ("ms_to_seq", Func::MsToSortedSeq, 1),
    ("put", Func::MapPut, 3),
    ("get_or", Func::MapGetOr, 3),
    ("dom", Func::MapDom, 1),
    ("map_contains", Func::MapContains, 2),
    ("map_len", Func::MapLen, 1),
    ("max", Func::Max, 2),
    ("min", Func::Min, 2),
    ("implies", Func::Implies, 2),
    ("iff", Func::Iff, 2),
    ("ite", Func::Ite, 3),
];

/// Looks up a surface function name, returning the [`Func`] and its arity.
pub fn func_by_name(name: &str) -> Option<(Func, usize)> {
    CALL_TABLE
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, f, a)| (f.clone(), *a))
}

/// The surface call name of a [`Func`], if it has one. Operators
/// (`Add`, `Eq`, …) and uninterpreted symbols have none.
pub fn func_surface_name(f: &Func) -> Option<&'static str> {
    CALL_TABLE
        .iter()
        .find(|(_, func, _)| func == f)
        .map(|(n, _, _)| *n)
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(input, SYMBOLS);
        let (tok, pos) = lexer.next_token()?;
        Ok(Parser { lexer, tok, pos })
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(self.pos, message))
    }

    fn advance(&mut self) -> Result<(), ParseError> {
        let (tok, pos) = self.lexer.next_token()?;
        self.tok = tok;
        self.pos = pos;
        Ok(())
    }

    fn eat_sym(&mut self, sym: &'static str) -> Result<(), ParseError> {
        if self.tok == Token::Sym(sym) {
            self.advance()
        } else {
            self.err(format!("expected `{sym}`, found {}", self.tok))
        }
    }

    fn at_sym(&self, sym: &'static str) -> bool {
        self.tok == Token::Sym(sym)
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.tok, Token::Ident(s) if s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.at_keyword(kw) {
            self.advance()
        } else {
            self.err(format!("expected keyword `{kw}`, found {}", self.tok))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.tok == Token::Eof {
            Ok(())
        } else {
            self.err(format!("trailing input: {}", self.tok))
        }
    }

    // ------------------------------------------------------------ commands

    fn parse_stmts(&mut self) -> Result<Cmd, ParseError> {
        let mut cmds = vec![self.parse_stmt()?];
        while self.at_sym(";") {
            self.advance()?;
            if self.tok == Token::Eof || self.at_sym("}") {
                break; // trailing semicolon
            }
            cmds.push(self.parse_stmt()?);
        }
        Ok(Cmd::block(cmds))
    }

    fn parse_block(&mut self) -> Result<Cmd, ParseError> {
        self.eat_sym("{")?;
        if self.at_sym("}") {
            self.advance()?;
            return Ok(Cmd::Skip);
        }
        let body = self.parse_stmts()?;
        self.eat_sym("}")?;
        Ok(body)
    }

    fn parse_stmt(&mut self) -> Result<Cmd, ParseError> {
        match self.tok.clone() {
            Token::Ident(kw) if kw == "skip" => {
                self.advance()?;
                Ok(Cmd::Skip)
            }
            Token::Ident(kw) if kw == "if" => {
                self.advance()?;
                self.eat_sym("(")?;
                let cond = self.parse_expr()?;
                self.eat_sym(")")?;
                let then_c = self.parse_block()?;
                self.eat_keyword("else")?;
                let else_c = self.parse_block()?;
                Ok(Cmd::if_(cond, then_c, else_c))
            }
            Token::Ident(kw) if kw == "while" => {
                self.advance()?;
                self.eat_sym("(")?;
                let cond = self.parse_expr()?;
                self.eat_sym(")")?;
                let body = self.parse_block()?;
                Ok(Cmd::while_(cond, body))
            }
            Token::Ident(kw) if kw == "par" => {
                self.advance()?;
                let left = self.parse_block()?;
                let right = self.parse_block()?;
                Ok(Cmd::par(left, right))
            }
            Token::Ident(kw) if kw == "atomic" => {
                self.advance()?;
                let body = self.parse_block()?;
                Ok(Cmd::atomic(body))
            }
            Token::Ident(kw) if kw == "output" => {
                self.advance()?;
                self.eat_sym("(")?;
                let e = self.parse_expr()?;
                self.eat_sym(")")?;
                Ok(Cmd::Output(e))
            }
            Token::Ident(name) => {
                // Assignment forms: x := e, x := [e], x := alloc(e).
                self.advance()?;
                self.eat_sym(":=")?;
                if self.at_sym("[") {
                    self.advance()?;
                    let addr = self.parse_expr()?;
                    self.eat_sym("]")?;
                    return Ok(Cmd::Load(Symbol::new(&name), addr));
                }
                if self.at_keyword("alloc") {
                    self.advance()?;
                    self.eat_sym("(")?;
                    let init = self.parse_expr()?;
                    self.eat_sym(")")?;
                    return Ok(Cmd::Alloc(Symbol::new(&name), init));
                }
                let e = self.parse_expr()?;
                Ok(Cmd::Assign(Symbol::new(&name), e))
            }
            Token::Sym("[") => {
                self.advance()?;
                let addr = self.parse_expr()?;
                self.eat_sym("]")?;
                self.eat_sym(":=")?;
                let val = self.parse_expr()?;
                Ok(Cmd::Store(addr, val))
            }
            other => self.err(format!("expected a statement, found {other}")),
        }
    }

    // ---------------------------------------------------------- expressions

    fn parse_expr(&mut self) -> Result<Term, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.parse_and()?;
        while self.at_sym("||") {
            self.advance()?;
            let rhs = self.parse_and()?;
            lhs = Term::or([lhs, rhs]);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.parse_cmp()?;
        while self.at_sym("&&") {
            self.advance()?;
            let rhs = self.parse_cmp()?;
            lhs = Term::and([lhs, rhs]);
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Term, ParseError> {
        let lhs = self.parse_add()?;
        let op = match self.tok {
            Token::Sym("==") => Some("=="),
            Token::Sym("!=") => Some("!="),
            Token::Sym("<") => Some("<"),
            Token::Sym("<=") => Some("<="),
            Token::Sym(">") => Some(">"),
            Token::Sym(">=") => Some(">="),
            _ => None,
        };
        let Some(op) = op else {
            return Ok(lhs);
        };
        self.advance()?;
        let rhs = self.parse_add()?;
        Ok(match op {
            "==" => Term::eq(lhs, rhs),
            "!=" => Term::neq(lhs, rhs),
            "<" => Term::lt(lhs, rhs),
            "<=" => Term::le(lhs, rhs),
            ">" => Term::lt(rhs, lhs),
            ">=" => Term::le(rhs, lhs),
            _ => unreachable!("comparison token"),
        })
    }

    fn parse_add(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.parse_mul()?;
        loop {
            if self.at_sym("+") {
                self.advance()?;
                lhs = Term::add(lhs, self.parse_mul()?);
            } else if self.at_sym("-") {
                self.advance()?;
                lhs = Term::sub(lhs, self.parse_mul()?);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_mul(&mut self) -> Result<Term, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            if self.at_sym("*") {
                self.advance()?;
                lhs = Term::mul(lhs, self.parse_unary()?);
            } else if self.at_sym("/") {
                self.advance()?;
                lhs = Term::app(Func::Div, [lhs, self.parse_unary()?]);
            } else if self.at_sym("%") {
                self.advance()?;
                lhs = Term::app(Func::Mod, [lhs, self.parse_unary()?]);
            } else {
                return Ok(lhs);
            }
        }
    }

    fn parse_unary(&mut self) -> Result<Term, ParseError> {
        if self.at_sym("!") {
            self.advance()?;
            return Ok(Term::not(self.parse_unary()?));
        }
        if self.at_sym("-") {
            self.advance()?;
            return Ok(Term::app(Func::Neg, [self.parse_unary()?]));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Term, ParseError> {
        match self.tok.clone() {
            Token::Int(n) => {
                self.advance()?;
                Ok(Term::int(n))
            }
            Token::Str(s) => {
                self.advance()?;
                Ok(Term::Lit(Value::str(s)))
            }
            Token::Sym("(") => {
                self.advance()?;
                let e = self.parse_expr()?;
                self.eat_sym(")")?;
                Ok(e)
            }
            Token::Ident(name) => {
                self.advance()?;
                match name.as_str() {
                    "true" => return Ok(Term::tt()),
                    "false" => return Ok(Term::ff()),
                    "empty_seq" => return Ok(Term::Lit(Value::seq_empty())),
                    "empty_set" => return Ok(Term::Lit(Value::set_empty())),
                    "empty_ms" => return Ok(Term::Lit(Value::multiset_empty())),
                    "empty_map" => return Ok(Term::Lit(Value::map_empty())),
                    "unit" => return Ok(Term::Lit(Value::Unit)),
                    _ => {}
                }
                if !self.at_sym("(") {
                    return Ok(Term::var(name));
                }
                self.advance()?;
                let mut args = Vec::new();
                if !self.at_sym(")") {
                    args.push(self.parse_expr()?);
                    while self.at_sym(",") {
                        self.advance()?;
                        args.push(self.parse_expr()?);
                    }
                }
                self.eat_sym(")")?;
                self.make_call(&name, args)
            }
            other => self.err(format!("expected an expression, found {other}")),
        }
    }

    fn make_call(&self, name: &str, args: Vec<Term>) -> Result<Term, ParseError> {
        let Some((func, arity)) = func_by_name(name) else {
            return self.err(format!("unknown function `{name}`"));
        };
        if args.len() != arity {
            return self.err(format!(
                "`{name}` expects {arity} argument(s), got {}",
                args.len()
            ));
        }
        Ok(Term::App(func, args.into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_assignments_and_sequencing() {
        let c = parse_program("x := 1; y := x + 2").unwrap();
        assert_eq!(
            c,
            Cmd::seq(
                Cmd::assign("x", Term::int(1)),
                Cmd::assign("y", Term::add(Term::var("x"), Term::int(2))),
            )
        );
    }

    #[test]
    fn parses_heap_commands() {
        let c = parse_program("p := alloc(7); x := [p]; [p] := x + 1").unwrap();
        assert_eq!(c.loc(), 3);
        assert!(matches!(
            c,
            Cmd::Seq(ref a, _) if matches!(**a, Cmd::Alloc(_, _))
        ));
    }

    #[test]
    fn parses_control_flow() {
        let c = parse_program(
            "if (h > 0) { x := 1 } else { x := 2 }; while (x < 5) { x := x + 1 }",
        )
        .unwrap();
        // if(1) + two branches(2) + while(1) + body(1)
        assert_eq!(c.loc(), 5);
    }

    #[test]
    fn parses_par_and_atomic() {
        let c = parse_program("par { atomic { x := x + 3 } } { atomic { x := x + 4 } }")
            .unwrap();
        match c {
            Cmd::Par(l, r) => {
                assert!(matches!(*l, Cmd::Atomic(_)));
                assert!(matches!(*r, Cmd::Atomic(_)));
            }
            other => panic!("expected par, got {other:?}"),
        }
    }

    #[test]
    fn parses_container_calls() {
        let e = parse_expr("put(m, k, v)").unwrap();
        assert_eq!(
            e,
            Term::app(
                Func::MapPut,
                [Term::var("m"), Term::var("k"), Term::var("v")]
            )
        );
        let e = parse_expr("sorted(set_to_seq(dom(m)))").unwrap();
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("1 + 2 * 3 == 7 && true").unwrap();
        // Evaluates to true.
        assert_eq!(
            e.eval(&Default::default()).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn comparison_desugaring() {
        assert_eq!(
            parse_expr("a > b").unwrap(),
            Term::lt(Term::var("b"), Term::var("a"))
        );
        assert_eq!(
            parse_expr("a != b").unwrap(),
            Term::neq(Term::var("a"), Term::var("b"))
        );
    }

    #[test]
    fn comments_and_whitespace() {
        let c = parse_program("// init\nx := 1; // set x\ny := 2").unwrap();
        assert_eq!(c.loc(), 2);
    }

    #[test]
    fn string_literals() {
        let e = parse_expr("get_or(household, \"nAdults\", 0)").unwrap();
        assert!(matches!(e, Term::App(Func::MapGetOr, _)));
    }

    #[test]
    fn error_reports_position() {
        let err = parse_program("x := ").unwrap_err();
        assert_eq!(err.pos.line, 1);
        assert!(err.pos.col >= 5);
        assert!(err.pos.offset >= 4);
        assert!(err.to_string().contains("expected an expression"));
    }

    #[test]
    fn error_positions_span_lines() {
        let err = parse_program("x := 1;\ny := !!").unwrap_err();
        assert_eq!(err.pos.line, 2);
        assert_eq!(err.pos.col, 8);
    }

    #[test]
    fn rejects_trailing_junk() {
        assert!(parse_program("skip }").is_err());
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(parse_expr("put(m, k)").is_err());
        assert!(parse_expr("nonsense(1)").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse_program("x := 1;").is_ok());
        assert!(parse_program("par { x := 1; } { y := 2; }").is_ok());
    }

    #[test]
    fn empty_block_is_skip() {
        let c = parse_program("par { } { skip }").unwrap();
        assert_eq!(c, Cmd::par(Cmd::Skip, Cmd::Skip));
    }

    #[test]
    fn call_table_roundtrips() {
        for name in ["put", "dom", "append", "ite", "implies"] {
            let (func, _) = func_by_name(name).unwrap();
            assert_eq!(func_surface_name(&func), Some(name));
        }
        assert!(func_by_name("nonsense").is_none());
        assert_eq!(func_surface_name(&Func::Add), None);
    }
}
