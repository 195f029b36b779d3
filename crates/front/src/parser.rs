//! Parser for the `.csl` surface syntax.
//!
//! ```text
//! program   ::= "program" name ";" resource* stmt*
//! name      ::= ident | string
//!
//! resource  ::= "resource" ident ":" sort ("named" string)? "{"
//!                   "alpha" "(" "v" ")" "=" expr ";"
//!                   action*
//!               "}"
//! action    ::= ("shared" | "unique") "action" ident "(" "arg" ":" sort ")"
//!                   "=" expr ("requires" expr)? ";"
//!
//! sort      ::= "Int" | "Bool" | "Unit" | "Str" | "?"
//!             | ("Seq" | "Set" | "Multiset") "[" sort "]"
//!             | ("Map" | "Pair" | "Either") "[" sort "," sort "]"
//!
//! stmt      ::= "input" ident ":" sort ("low" | "high") ";"
//!             | ident ":=" expr ";"
//!             | "if" "(" expr ")" block ("else" block)?
//!             | "for" ident "in" expr ".." expr block
//!             | "share" ident "=" expr ";"
//!             | "par" block ("||" block)*
//!             | "with" ident "performing" ident "(" args ")" suffix ";"
//!             | "unshare" ident "into" ident ";"
//!             | "assert" "low" "(" expr ")" ";"
//!             | "output" expr ";"
//! suffix    ::= ε | "deferred" | "times" expr | "binding" ident "at" expr
//! block     ::= "{" stmt* "}"
//! args      ::= ε | expr ("," expr)*
//! ```
//!
//! Expressions are the shared expression language of
//! [`commcsl_lang::parser`] (same precedence, same function-call table),
//! with two extensions: `&&` / `||` chains build *variadic*
//! conjunctions/disjunctions (so `a && b && c` is one `And` node, matching
//! the builder API's [`commcsl_pure::Term::and`]), and a unary minus
//! directly before an integer literal folds into a negative literal (so
//! `-1` round-trips as `Term::int(-1)`).
//!
//! All diagnostics carry 1-based `line:column` positions via the shared
//! [`commcsl_lang::span`] machinery.

use commcsl_lang::parser::func_by_name;
use commcsl_lang::span::{Lexer, ParseError, Pos, Token};
use commcsl_logic::spec::ActionKind;
use commcsl_pure::{Func, Sort, Term, Value};

use crate::ast::{ActionDecl, ResourceDecl, Stmt, StmtKind, SurfaceProgram, WithSuffix};

/// Words that cannot open an assignment statement or bind a resource.
pub const KEYWORDS: &[&str] = &[
    "program", "resource", "named", "alpha", "shared", "unique", "action", "requires",
    "input", "low", "high", "if", "else", "for", "in", "share", "par", "with",
    "performing", "deferred", "times", "binding", "at", "unshare", "into", "assert",
    "output",
];

/// Deepest nesting of statements, expressions, unary operands and sorts
/// the parser accepts; deeper input is a [`ParseError`], not a stack
/// overflow. Real programs nest fewer than ten levels.
pub(crate) const MAX_DEPTH: usize = 64;

const SYMBOLS: &[&str] = &[
    ":=", "==", "!=", "<=", ">=", "&&", "||", "..", "(", ")", "[", "]", "{", "}", ",",
    ";", ":", "+", "-", "*", "/", "%", "<", ">", "!", "=", "?", ".",
];

/// Parses a whole `.csl` file into its surface AST.
///
/// # Errors
///
/// Returns a [`ParseError`] (with `line:column` position) on malformed
/// input, including trailing junk.
pub fn parse_surface(input: &str) -> Result<SurfaceProgram, ParseError> {
    let mut p = Parser::new(input)?;
    let prog = p.parse_program()?;
    p.expect_eof()?;
    Ok(prog)
}

/// Parses a single expression of the annotated language.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, including trailing junk.
pub fn parse_term(input: &str) -> Result<Term, ParseError> {
    let mut p = Parser::new(input)?;
    let e = p.parse_expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    tok: Token,
    pos: Pos,
    /// Levels currently open (bounded by [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Self, ParseError> {
        let mut lexer = Lexer::new(input, SYMBOLS);
        let (tok, pos) = lexer.next_token()?;
        Ok(Parser { lexer, tok, pos, depth: 0 })
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError::new(self.pos, message))
    }

    /// Runs `parse` one nesting level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested<T>(
        &mut self,
        parse: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn advance(&mut self) -> Result<(), ParseError> {
        let (tok, pos) = self.lexer.next_token()?;
        self.tok = tok;
        self.pos = pos;
        Ok(())
    }

    fn at_sym(&self, sym: &'static str) -> bool {
        self.tok == Token::Sym(sym)
    }

    fn eat_sym(&mut self, sym: &'static str) -> Result<(), ParseError> {
        if self.at_sym(sym) {
            self.advance()
        } else {
            self.err(format!("expected `{sym}`, found {}", self.tok))
        }
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

    fn eat_ident(&mut self, what: &str) -> Result<(String, Pos), ParseError> {
        match self.tok.clone() {
            Token::Ident(s) => {
                let pos = self.pos;
                self.advance()?;
                Ok((s, pos))
            }
            other => self.err(format!("expected {what}, found {other}")),
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.tok == Token::Eof {
            Ok(())
        } else {
            self.err(format!("trailing input: {}", self.tok))
        }
    }

    // ------------------------------------------------------------- program

    fn parse_program(&mut self) -> Result<SurfaceProgram, ParseError> {
        self.eat_keyword("program")?;
        let name = match self.tok.clone() {
            Token::Ident(s) => {
                self.advance()?;
                s
            }
            Token::Str(s) => {
                self.advance()?;
                s
            }
            other => {
                return self.err(format!(
                    "expected a program name (identifier or string), found {other}"
                ))
            }
        };
        self.eat_sym(";")?;
        let mut resources = Vec::new();
        while self.at_keyword("resource") {
            resources.push(self.parse_resource()?);
        }
        let mut body = Vec::new();
        while self.tok != Token::Eof {
            body.push(self.parse_stmt()?);
        }
        Ok(SurfaceProgram { name, resources, body })
    }

    fn parse_resource(&mut self) -> Result<ResourceDecl, ParseError> {
        self.eat_keyword("resource")?;
        let (binder, binder_pos) = self.eat_ident("a resource name")?;
        if KEYWORDS.contains(&binder.as_str()) {
            return Err(ParseError::new(
                binder_pos,
                format!("`{binder}` is a reserved word and cannot name a resource"),
            ));
        }
        self.eat_sym(":")?;
        let value_sort = self.parse_sort()?;
        let spec_name = if self.at_keyword("named") {
            self.advance()?;
            match self.tok.clone() {
                Token::Str(s) => {
                    self.advance()?;
                    Some(s)
                }
                other => {
                    return self.err(format!(
                        "expected a string after `named`, found {other}"
                    ))
                }
            }
        } else {
            None
        };
        self.eat_sym("{")?;
        self.eat_keyword("alpha")?;
        self.eat_sym("(")?;
        self.eat_keyword("v")?;
        self.eat_sym(")")?;
        self.eat_sym("=")?;
        let alpha_pos = self.pos;
        let alpha = self.parse_expr()?;
        self.eat_sym(";")?;
        let mut actions = Vec::new();
        while self.at_keyword("shared") || self.at_keyword("unique") {
            actions.push(self.parse_action()?);
        }
        self.eat_sym("}")?;
        Ok(ResourceDecl {
            binder,
            binder_pos,
            spec_name,
            value_sort,
            alpha,
            alpha_pos,
            actions,
        })
    }

    fn parse_action(&mut self) -> Result<ActionDecl, ParseError> {
        let kind = if self.at_keyword("shared") {
            ActionKind::Shared
        } else {
            ActionKind::Unique
        };
        self.advance()?;
        self.eat_keyword("action")?;
        let (name, name_pos) = self.eat_ident("an action name")?;
        self.eat_sym("(")?;
        self.eat_keyword("arg")?;
        self.eat_sym(":")?;
        let arg_sort = self.parse_sort()?;
        self.eat_sym(")")?;
        self.eat_sym("=")?;
        let body_pos = self.pos;
        let body = self.parse_expr()?;
        let pre = if self.at_keyword("requires") {
            self.advance()?;
            let pre_pos = self.pos;
            Some((self.parse_expr()?, pre_pos))
        } else {
            None
        };
        self.eat_sym(";")?;
        Ok(ActionDecl {
            name,
            name_pos,
            kind,
            arg_sort,
            body,
            body_pos,
            pre,
        })
    }

    // --------------------------------------------------------------- sorts

    fn parse_sort(&mut self) -> Result<Sort, ParseError> {
        if self.at_sym("?") {
            self.advance()?;
            return Ok(Sort::Unknown);
        }
        let (head, head_pos) = self.eat_ident("a sort")?;
        let one = |p: &mut Self| -> Result<Sort, ParseError> {
            p.eat_sym("[")?;
            let s = p.nested(Self::parse_sort)?;
            p.eat_sym("]")?;
            Ok(s)
        };
        let two = |p: &mut Self| -> Result<(Sort, Sort), ParseError> {
            p.eat_sym("[")?;
            let a = p.nested(Self::parse_sort)?;
            p.eat_sym(",")?;
            let b = p.nested(Self::parse_sort)?;
            p.eat_sym("]")?;
            Ok((a, b))
        };
        match head.as_str() {
            "Int" => Ok(Sort::Int),
            "Bool" => Ok(Sort::Bool),
            "Unit" => Ok(Sort::Unit),
            "Str" => Ok(Sort::Str),
            "Seq" => Ok(Sort::seq(one(self)?)),
            "Set" => Ok(Sort::set(one(self)?)),
            "Multiset" => Ok(Sort::multiset(one(self)?)),
            "Map" => {
                let (k, v) = two(self)?;
                Ok(Sort::map(k, v))
            }
            "Pair" => {
                let (a, b) = two(self)?;
                Ok(Sort::pair(a, b))
            }
            "Either" => {
                let (a, b) = two(self)?;
                Ok(Sort::either(a, b))
            }
            other => Err(ParseError::new(
                head_pos,
                format!("unknown sort `{other}`"),
            )),
        }
    }

    // ---------------------------------------------------------- statements

    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.eat_sym("{")?;
        let mut body = Vec::new();
        while !self.at_sym("}") {
            body.push(self.parse_stmt()?);
        }
        self.advance()?;
        Ok(body)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos;
        let kind = self.nested(Self::parse_stmt_kind)?;
        Ok(Stmt { pos, kind })
    }

    fn parse_stmt_kind(&mut self) -> Result<StmtKind, ParseError> {
        match self.tok.clone() {
            Token::Ident(kw) if kw == "input" => {
                self.advance()?;
                let (var, _) = self.eat_ident("a variable")?;
                self.eat_sym(":")?;
                let sort = self.parse_sort()?;
                let low = if self.at_keyword("low") {
                    true
                } else if self.at_keyword("high") {
                    false
                } else {
                    return self.err(format!(
                        "expected `low` or `high`, found {}",
                        self.tok
                    ));
                };
                self.advance()?;
                self.eat_sym(";")?;
                Ok(StmtKind::Input { var, sort, low })
            }
            Token::Ident(kw) if kw == "if" => {
                self.advance()?;
                self.eat_sym("(")?;
                let cond = self.parse_expr()?;
                self.eat_sym(")")?;
                let then_b = self.parse_block()?;
                let else_b = if self.at_keyword("else") {
                    self.advance()?;
                    self.parse_block()?
                } else {
                    Vec::new()
                };
                Ok(StmtKind::If { cond, then_b, else_b })
            }
            Token::Ident(kw) if kw == "for" => {
                self.advance()?;
                let (var, _) = self.eat_ident("a loop variable")?;
                self.eat_keyword("in")?;
                let from = self.parse_expr()?;
                self.eat_sym("..")?;
                let to = self.parse_expr()?;
                let body = self.parse_block()?;
                Ok(StmtKind::For { var, from, to, body })
            }
            Token::Ident(kw) if kw == "share" => {
                self.advance()?;
                let (resource, resource_pos) = self.eat_ident("a resource name")?;
                self.eat_sym("=")?;
                let init_pos = self.pos;
                let init = self.parse_expr()?;
                self.eat_sym(";")?;
                Ok(StmtKind::Share { resource, resource_pos, init, init_pos })
            }
            Token::Ident(kw) if kw == "par" => {
                self.advance()?;
                let mut workers = vec![self.parse_block()?];
                while self.at_sym("||") {
                    self.advance()?;
                    workers.push(self.parse_block()?);
                }
                Ok(StmtKind::Par { workers })
            }
            Token::Ident(kw) if kw == "with" => {
                self.advance()?;
                let (resource, resource_pos) = self.eat_ident("a resource name")?;
                self.eat_keyword("performing")?;
                let (action, action_pos) = self.eat_ident("an action name")?;
                let args_pos = self.pos;
                self.eat_sym("(")?;
                let mut args = Vec::new();
                if !self.at_sym(")") {
                    args.push(self.parse_expr()?);
                    while self.at_sym(",") {
                        self.advance()?;
                        args.push(self.parse_expr()?);
                    }
                }
                self.eat_sym(")")?;
                let suffix = if self.at_keyword("deferred") {
                    self.advance()?;
                    WithSuffix::Deferred
                } else if self.at_keyword("times") {
                    self.advance()?;
                    WithSuffix::Times(self.parse_expr()?)
                } else if self.at_keyword("binding") {
                    self.advance()?;
                    let (var, _) = self.eat_ident("a variable")?;
                    self.eat_keyword("at")?;
                    let index = self.parse_expr()?;
                    WithSuffix::Binding { var, index }
                } else {
                    WithSuffix::None
                };
                self.eat_sym(";")?;
                Ok(StmtKind::With {
                    resource,
                    resource_pos,
                    action,
                    action_pos,
                    args,
                    args_pos,
                    suffix,
                })
            }
            Token::Ident(kw) if kw == "unshare" => {
                self.advance()?;
                let (resource, resource_pos) = self.eat_ident("a resource name")?;
                self.eat_keyword("into")?;
                let (into, _) = self.eat_ident("a variable")?;
                self.eat_sym(";")?;
                Ok(StmtKind::Unshare { resource, resource_pos, into })
            }
            Token::Ident(kw) if kw == "assert" => {
                self.advance()?;
                self.eat_keyword("low")?;
                self.eat_sym("(")?;
                let e = self.parse_expr()?;
                self.eat_sym(")")?;
                self.eat_sym(";")?;
                Ok(StmtKind::AssertLow(e))
            }
            Token::Ident(kw) if kw == "output" => {
                self.advance()?;
                let e = self.parse_expr()?;
                self.eat_sym(";")?;
                Ok(StmtKind::Output(e))
            }
            Token::Ident(name) => {
                if KEYWORDS.contains(&name.as_str()) {
                    return self.err(format!("unexpected keyword `{name}`"));
                }
                self.advance()?;
                self.eat_sym(":=")?;
                let expr = self.parse_expr()?;
                self.eat_sym(";")?;
                Ok(StmtKind::Assign { var: name, expr })
            }
            other => self.err(format!("expected a statement, found {other}")),
        }
    }

    // ---------------------------------------------------------- expressions

    fn parse_expr(&mut self) -> Result<Term, ParseError> {
        self.nested(Self::parse_or)
    }

    fn parse_or(&mut self) -> Result<Term, ParseError> {
        let first = self.parse_and()?;
        if !self.at_sym("||") {
            return Ok(first);
        }
        let mut operands = vec![first];
        while self.at_sym("||") {
            self.advance()?;
            operands.push(self.parse_and()?);
        }
        Ok(Term::or(operands))
    }

    fn parse_and(&mut self) -> Result<Term, ParseError> {
        let first = self.parse_cmp()?;
        if !self.at_sym("&&") {
            return Ok(first);
        }
        let mut operands = vec![first];
        while self.at_sym("&&") {
            self.advance()?;
            operands.push(self.parse_cmp()?);
        }
        Ok(Term::and(operands))
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
            return Ok(Term::not(self.nested(Self::parse_unary)?));
        }
        if self.at_sym("-") {
            self.advance()?;
            // `-` directly before an integer literal folds into a negative
            // literal, so `-1` round-trips as `Term::int(-1)`.
            if let Token::Int(n) = self.tok {
                self.advance()?;
                return Ok(Term::int(-n));
            }
            return Ok(Term::app(Func::Neg, [self.nested(Self::parse_unary)?]));
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
                let Some((func, arity)) = func_by_name(&name) else {
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
            other => self.err(format!("expected an expression, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let p = parse_surface("program demo;\noutput 1;").unwrap();
        assert_eq!(p.name, "demo");
        assert!(p.resources.is_empty());
        assert_eq!(p.body.len(), 1);
        assert_eq!(p.body[0].kind, StmtKind::Output(Term::int(1)));
        assert_eq!((p.body[0].pos.line, p.body[0].pos.col), (2, 1));
    }

    #[test]
    fn parses_string_program_name() {
        let p = parse_surface("program \"count-vaccinated\";").unwrap();
        assert_eq!(p.name, "count-vaccinated");
    }

    #[test]
    fn parses_resource_with_actions() {
        let src = "program p;\n\
                   resource ctr: Int named \"counter-add\" {\n\
                       alpha(v) = v;\n\
                       shared action Add(arg: Int) = v + arg requires arg1 == arg2;\n\
                       unique action Reset(arg: Unit) = 0;\n\
                   }\n\
                   share ctr = 0;\n\
                   unshare ctr into c;\n\
                   output c;";
        let p = parse_surface(src).unwrap();
        assert_eq!(p.resources.len(), 1);
        let r = &p.resources[0];
        assert_eq!(r.binder, "ctr");
        assert_eq!(r.spec_name.as_deref(), Some("counter-add"));
        assert_eq!(r.value_sort, Sort::Int);
        assert_eq!(r.alpha, Term::var("v"));
        assert_eq!(r.actions.len(), 2);
        assert_eq!(r.actions[0].kind, ActionKind::Shared);
        assert!(r.actions[0].pre.is_some());
        assert_eq!(r.actions[1].kind, ActionKind::Unique);
        assert!(r.actions[1].pre.is_none());
    }

    #[test]
    fn parses_compound_sorts() {
        let src = "program p;\n\
                   resource q: Pair[Either[Int, Seq[Int]], Seq[Int]] {\n\
                       alpha(v) = snd(v);\n\
                   }";
        let p = parse_surface(src).unwrap();
        assert_eq!(
            p.resources[0].value_sort,
            Sort::pair(
                Sort::either(Sort::Int, Sort::seq(Sort::Int)),
                Sort::seq(Sort::Int)
            )
        );
    }

    #[test]
    fn parses_par_and_with_forms() {
        let src = "program p;\n\
                   par {\n\
                       with q performing Prod(x);\n\
                       with q performing Prod(2 * x) deferred;\n\
                   } || {\n\
                       with q performing Cons() times k;\n\
                       with q performing Cons() binding y at i;\n\
                   }";
        let p = parse_surface(src).unwrap();
        let StmtKind::Par { workers } = &p.body[0].kind else {
            panic!("expected par");
        };
        assert_eq!(workers.len(), 2);
        let StmtKind::With { suffix, args, .. } = &workers[0][1].kind else {
            panic!("expected with");
        };
        assert_eq!(*suffix, WithSuffix::Deferred);
        assert_eq!(args.len(), 1);
        let StmtKind::With { suffix, args, .. } = &workers[1][1].kind else {
            panic!("expected with");
        };
        assert!(args.is_empty());
        assert!(matches!(suffix, WithSuffix::Binding { var, .. } if var == "y"));
    }

    #[test]
    fn parses_loops_inputs_and_conditionals() {
        let src = "program p;\n\
                   input n: Int low;\n\
                   input h: Int high;\n\
                   for i in 0 .. n / 2 {\n\
                       if (h == 0) { x := 1; } else { x := 2; }\n\
                       assert low(x);\n\
                   }";
        let p = parse_surface(src).unwrap();
        assert_eq!(p.body.len(), 3);
        let StmtKind::For { from, to, body, .. } = &p.body[2].kind else {
            panic!("expected for");
        };
        assert_eq!(*from, Term::int(0));
        assert_eq!(
            *to,
            Term::app(Func::Div, [Term::var("n"), Term::int(2)])
        );
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn chained_connectives_are_variadic() {
        let t = parse_term("a == b && c == d && e == f").unwrap();
        let Term::App(Func::And, operands) = t else {
            panic!("expected And");
        };
        assert_eq!(operands.len(), 3);
        let t = parse_term("x == 1 || y == 2").unwrap();
        let Term::App(Func::Or, operands) = t else {
            panic!("expected Or");
        };
        assert_eq!(operands.len(), 2);
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse_term("-1").unwrap(), Term::int(-1));
        assert_eq!(
            parse_term("-(1)").unwrap(),
            Term::app(Func::Neg, [Term::int(1)])
        );
        assert_eq!(
            parse_term("-x").unwrap(),
            Term::app(Func::Neg, [Term::var("x")])
        );
        assert_eq!(
            parse_term("1 - -2").unwrap(),
            Term::sub(Term::int(1), Term::int(-2))
        );
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = parse_surface("program p;\ninput x: Wrong low;").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (2, 10));
        assert!(err.message.contains("unknown sort"));

        let err = parse_surface("program p;\nx := ;").unwrap_err();
        assert_eq!((err.pos.line, err.pos.col), (2, 6));
    }

    #[test]
    fn keywords_cannot_be_assigned() {
        let err = parse_surface("program p;\nshare := 1;").unwrap_err();
        assert!(err.message.contains("expected"));
        let err = parse_surface("program p;\noutput := 1;").unwrap_err();
        // `output :=` parses as `output` statement with expression `:= 1`.
        assert_eq!(err.pos.line, 2);
    }

    #[test]
    fn deep_parentheses_are_a_parse_error() {
        let deep = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
        let e = parse_term(&deep).unwrap_err();
        // The top-level expression is level 1, so the 64th `(` would open
        // level 65; the error sits on the token after it.
        assert_eq!((e.pos.line, e.pos.col), (1, MAX_DEPTH as u32 + 1));
        assert!(e.message.contains("nesting deeper than 64"), "{e}");
        let ok = format!(
            "{}1{}",
            "(".repeat(MAX_DEPTH - 1),
            ")".repeat(MAX_DEPTH - 1)
        );
        assert_eq!(parse_term(&ok).unwrap(), Term::int(1));
        let nots = format!("{}true", "!".repeat(100_000));
        assert!(parse_term(&nots)
            .unwrap_err()
            .message
            .contains("nesting deeper"));
    }

    #[test]
    fn deep_blocks_are_a_parse_error() {
        let deep = format!(
            "program p;\n{}{}",
            "if (true) {".repeat(100_000),
            "}".repeat(100_000)
        );
        let e = parse_surface(&deep).unwrap_err();
        assert!(e.message.contains("nesting deeper than 64"), "{e}");
        // The 64th `if` is level 64, so its condition would open level 65:
        // the error sits on that `true`.
        assert_eq!(e.pos.line, 2);
        assert_eq!(
            e.pos.col as usize,
            (MAX_DEPTH - 1) * "if (true) {".len() + 5
        );
        let ok = format!(
            "program p;\n{}{}",
            "if (true) {".repeat(MAX_DEPTH - 1),
            "}".repeat(MAX_DEPTH - 1)
        );
        parse_surface(&ok).unwrap();
        let sort = format!("Seq[{}Int{}]", "Seq[".repeat(100_000), "]".repeat(100_000));
        let src = format!("program p;\ninput x: {sort} low;\n");
        assert!(parse_surface(&src)
            .unwrap_err()
            .message
            .contains("nesting deeper"));
    }

    #[test]
    fn rejects_trailing_junk() {
        assert!(parse_surface("program p;\noutput 1; }").is_err());
    }
}
