//! Recursive-descent parser for the `--where` expression grammar.
//!
//! ```text
//! expr       := or
//! or         := and ( "||" and )*
//! and        := unary ( "&&" unary )*
//! unary      := "!" unary | atom
//! atom       := "(" expr ")" | comparison
//! comparison := FIELD op value
//!             | FIELD "in" "(" value ( "," value )* ")"
//! op         := "==" | "!=" | "<" | "<=" | ">" | ">=" | "~"
//! value      := NUMBER | STRING | WORD
//! ```
//!
//! The parser is syntax-only: field names and value types are checked
//! by the compiler in `lib.rs`, which is where the span on every node
//! pays off.
//!
//! Parsing, type checking, evaluation and drop all recurse once per
//! tree level (and parsing once per open `(` or `!`), so both are
//! bounded by [`MAX_DEPTH`]: a hostile expression gets an error instead
//! of overflowing the stack of whichever thread compiles it.

use crate::lexer::{Lexed, Span, Tok};

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// `~`: case-insensitive substring match.
    Match,
}

impl CmpOp {
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Match => "~",
        }
    }
}

/// A literal on the right-hand side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ValueKind {
    Num(f64),
    Str(String),
    Word(String),
}

/// A spanned literal.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Value {
    pub kind: ValueKind,
    pub span: Span,
}

/// The syntax tree of one filter expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Ast {
    And(Box<Ast>, Box<Ast>),
    Or(Box<Ast>, Box<Ast>),
    Not(Box<Ast>),
    Cmp {
        field: String,
        field_span: Span,
        op: CmpOp,
        op_span: Span,
        value: Value,
    },
    In {
        field: String,
        field_span: Span,
        values: Vec<Value>,
    },
}

/// The deepest syntax tree, and the deepest `(`/`!` nesting, that
/// [`parse`] accepts. A comparison is one level; a chain of `N`
/// comparisons joined by `||` (or `&&`) is `N` levels deep.
pub(crate) const MAX_DEPTH: usize = 128;

pub(crate) fn parse(tokens: &[Lexed], src_len: usize) -> Result<Ast, (String, Span)> {
    let mut p = Parser {
        tokens,
        pos: 0,
        open: 0,
        end: Span::new(src_len, src_len),
    };
    if tokens.is_empty() {
        return Err(("empty filter expression".into(), Span::new(0, src_len.max(1))));
    }
    let (ast, _depth) = p.or_expr()?;
    if let Some(extra) = p.peek() {
        return Err((
            format!("unexpected {} after the expression", extra.tok.describe()),
            extra.span,
        ));
    }
    Ok(ast)
}

/// A parsed subtree and its depth (a comparison is one level deep).
type Parsed = (Ast, usize);

struct Parser<'a> {
    tokens: &'a [Lexed],
    pos: usize,
    /// `(` and `!` entered and not yet left: the parser's recursion.
    open: usize,
    /// Zero-width span at end of input, for "expected ..." errors there.
    end: Span,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Lexed> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&'a Lexed> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<Span, (String, Span)> {
        match self.next() {
            Some(l) if &l.tok == want => Ok(l.span),
            Some(l) => Err((
                format!("expected {what}, found {}", l.tok.describe()),
                l.span,
            )),
            None => Err((format!("expected {what}, found end of expression"), self.end)),
        }
    }

    /// The error for a tree or nesting deeper than [`MAX_DEPTH`],
    /// pointing at the token that went one level too far.
    fn too_deep(span: Span) -> (String, Span) {
        (format!("expression nests deeper than {MAX_DEPTH} levels"), span)
    }

    /// The depth of a node over children `depth` deep.
    fn parent_depth(depth: usize, span: Span) -> Result<usize, (String, Span)> {
        if depth == MAX_DEPTH {
            return Err(Self::too_deep(span));
        }
        Ok(depth + 1)
    }

    /// Enters one more `(` or `!`; the caller leaves it on success.
    fn open(&mut self, span: Span) -> Result<(), (String, Span)> {
        if self.open == MAX_DEPTH {
            return Err(Self::too_deep(span));
        }
        self.open += 1;
        Ok(())
    }

    fn or_expr(&mut self) -> Result<Parsed, (String, Span)> {
        let (mut lhs, mut depth) = self.and_expr()?;
        while let Some(op) = self.peek().filter(|l| l.tok == Tok::OrOr) {
            self.pos += 1;
            let (rhs, rhs_depth) = self.and_expr()?;
            depth = Self::parent_depth(depth.max(rhs_depth), op.span)?;
            lhs = Ast::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    fn and_expr(&mut self) -> Result<Parsed, (String, Span)> {
        let (mut lhs, mut depth) = self.unary()?;
        while let Some(op) = self.peek().filter(|l| l.tok == Tok::AndAnd) {
            self.pos += 1;
            let (rhs, rhs_depth) = self.unary()?;
            depth = Self::parent_depth(depth.max(rhs_depth), op.span)?;
            lhs = Ast::And(Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, depth))
    }

    fn unary(&mut self) -> Result<Parsed, (String, Span)> {
        match self.peek() {
            Some(bang) if bang.tok == Tok::Bang => {
                self.pos += 1;
                self.open(bang.span)?;
                let (inner, depth) = self.unary()?;
                self.open -= 1;
                Ok((Ast::Not(Box::new(inner)), Self::parent_depth(depth, bang.span)?))
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<Parsed, (String, Span)> {
        match self.peek() {
            Some(l) if l.tok == Tok::LParen => {
                self.pos += 1;
                self.open(l.span)?;
                let inner = self.or_expr()?;
                self.open -= 1;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Some(l) => {
                if let Tok::Word(field) = &l.tok {
                    let field = field.clone();
                    let field_span = l.span;
                    self.pos += 1;
                    Ok((self.comparison(field, field_span)?, 1))
                } else {
                    Err((
                        format!(
                            "expected a field name or `(`, found {}",
                            l.tok.describe()
                        ),
                        l.span,
                    ))
                }
            }
            None => Err((
                "expected a field name or `(`, found end of expression".into(),
                self.end,
            )),
        }
    }

    fn comparison(&mut self, field: String, field_span: Span) -> Result<Ast, (String, Span)> {
        let (op, op_span) = match self.next() {
            Some(l) => {
                let op = match &l.tok {
                    Tok::EqEq => Some(CmpOp::Eq),
                    Tok::Ne => Some(CmpOp::Ne),
                    Tok::Lt => Some(CmpOp::Lt),
                    Tok::Le => Some(CmpOp::Le),
                    Tok::Gt => Some(CmpOp::Gt),
                    Tok::Ge => Some(CmpOp::Ge),
                    Tok::Tilde => Some(CmpOp::Match),
                    Tok::Word(w) if w == "in" => None,
                    other => {
                        return Err((
                            format!(
                                "expected a comparison operator or `in` after `{field}`, \
                                 found {}",
                                other.describe()
                            ),
                            l.span,
                        ))
                    }
                };
                match op {
                    Some(op) => (op, l.span),
                    None => return self.in_set(field, field_span),
                }
            }
            None => {
                return Err((
                    format!("expected a comparison operator or `in` after `{field}`"),
                    self.end,
                ))
            }
        };
        let value = self.value()?;
        Ok(Ast::Cmp {
            field,
            field_span,
            op,
            op_span,
            value,
        })
    }

    fn in_set(&mut self, field: String, field_span: Span) -> Result<Ast, (String, Span)> {
        self.expect(&Tok::LParen, "`(` after `in`")?;
        let mut values = vec![self.value()?];
        loop {
            match self.next() {
                Some(l) if l.tok == Tok::Comma => values.push(self.value()?),
                Some(l) if l.tok == Tok::RParen => break,
                Some(l) => {
                    return Err((
                        format!("expected `,` or `)`, found {}", l.tok.describe()),
                        l.span,
                    ))
                }
                None => {
                    return Err(("expected `,` or `)`, found end of expression".into(), self.end))
                }
            }
        }
        Ok(Ast::In {
            field,
            field_span,
            values,
        })
    }

    fn value(&mut self) -> Result<Value, (String, Span)> {
        match self.next() {
            Some(l) => {
                let kind = match &l.tok {
                    Tok::Number(n) => ValueKind::Num(*n),
                    Tok::Str(s) => ValueKind::Str(s.clone()),
                    Tok::Word(w) => ValueKind::Word(w.clone()),
                    other => {
                        return Err((
                            format!("expected a value, found {}", other.describe()),
                            l.span,
                        ))
                    }
                };
                Ok(Value { kind, span: l.span })
            }
            None => Err(("expected a value, found end of expression".into(), self.end)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> Ast {
        parse(&lex(src).unwrap(), src.len()).unwrap()
    }

    fn parse_err(src: &str) -> String {
        parse(&lex(src).unwrap(), src.len()).unwrap_err().0
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        // a || b && c  parses as  a || (b && c)
        let ast = parsed("a == 1 || b == 2 && c == 3");
        match ast {
            Ast::Or(lhs, rhs) => {
                assert!(matches!(*lhs, Ast::Cmp { .. }));
                assert!(matches!(*rhs, Ast::And(..)));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let ast = parsed("(a == 1 || b == 2) && c == 3");
        assert!(matches!(ast, Ast::And(..)));
    }

    #[test]
    fn not_applies_to_the_nearest_atom() {
        let ast = parsed("!a == 1 && b == 2");
        match ast {
            Ast::And(lhs, _) => assert!(matches!(*lhs, Ast::Not(..))),
            other => panic!("unexpected shape: {other:?}"),
        }
        assert!(matches!(parsed("!!a == 1"), Ast::Not(..)));
    }

    #[test]
    fn in_sets_parse() {
        match parsed("category in (gpu, memory, \"System Board\")") {
            Ast::In { field, values, .. } => {
                assert_eq!(field, "category");
                assert_eq!(values.len(), 3);
                assert_eq!(values[2].kind, ValueKind::Str("System Board".into()));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn error_messages_name_the_problem() {
        assert!(parse_err("").contains("empty filter expression"));
        assert!(parse_err("ttr >").contains("expected a value"));
        assert!(parse_err("ttr 24").contains("comparison operator or `in`"));
        assert!(parse_err("(a == 1").contains("expected `)`"));
        assert!(parse_err("a == 1 b == 2").contains("after the expression"));
        assert!(parse_err("in (a)").contains("comparison operator or `in`"));
        assert!(parse_err("a in b").contains("`(` after `in`"));
        assert!(parse_err("a in (1,)").contains("expected a value"));
        assert!(parse_err("&& a == 1").contains("field name or `(`"));
    }

    #[test]
    fn one_level_past_max_depth_is_rejected() {
        // The deepest accepted expressions compile and evaluate in
        // `lib.rs`'s `nesting_at_the_bound_compiles_and_evaluates`.
        let (parens, close) = ("(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        for deep in [
            vec!["a == 1"; MAX_DEPTH + 1].join(" || "),
            vec!["a == 1"; MAX_DEPTH + 1].join(" && "),
            format!("{}a == 1", "!".repeat(MAX_DEPTH)),
            format!("({parens}a == 1){close}"),
            // A `!` counts toward the open `(`/`!` limit too.
            format!("!{parens}a == 1 && b == 2{close}"),
        ] {
            assert!(
                parse_err(&deep).contains(&format!("nests deeper than {MAX_DEPTH} levels")),
                "{deep}"
            );
        }
    }
}
