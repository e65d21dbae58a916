//! Recursive-descent parser for the supported SELECT subset.

use crate::ast::{CompareOp, Expr, PathExpr, Pattern, Query, TermOrVar};
use crate::QueryError;
use provio_rdf::{ns, Iri, Literal, Namespaces, Term};

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Var(String),
    Iri(String),
    PName(String),
    Str(String),
    Number(String),
    Bool(bool),
    Word(String), // keywords and `a`
    LBrace,
    RBrace,
    LParen,
    RParen,
    Dot,
    Semi,
    Comma,
    Caret,
    Slash,
    Pipe,
    Plus,
    Star,
    Bang,
    AndAnd,
    OrOr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    DoubleCaret,
    Eof,
}

fn tokenize(src: &str) -> Result<Vec<Tok>, QueryError> {
    let b = src.as_bytes();
    let mut i = 0;
    let mut toks = Vec::new();
    let err = |m: String| QueryError::new(m);
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'?' | b'$' => {
                i += 1;
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                if i == start {
                    return Err(err("empty variable name".into()));
                }
                toks.push(Tok::Var(src[start..i].to_string()));
            }
            b'<' => {
                // `<` could be an IRI or a comparison; IRIs never contain
                // spaces and must close with '>'.
                if let Some(end) = src[i + 1..].find('>') {
                    let body = &src[i + 1..i + 1 + end];
                    if !body.contains(char::is_whitespace) && !body.is_empty() {
                        toks.push(Tok::Iri(body.to_string()));
                        i += end + 2;
                        continue;
                    }
                }
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    toks.push(Tok::Le);
                    i += 2;
                } else {
                    toks.push(Tok::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    toks.push(Tok::Ge);
                    i += 2;
                } else {
                    toks.push(Tok::Gt);
                    i += 1;
                }
            }
            b'"' => {
                i += 1;
                let start = i;
                loop {
                    if i >= b.len() {
                        return Err(err("unterminated string".into()));
                    }
                    match b[i] {
                        b'"' => break,
                        b'\\' => {
                            if i + 1 >= b.len() {
                                return Err(err("unterminated escape".into()));
                            }
                            i += 2;
                        }
                        _ => i += 1,
                    }
                }
                let raw = &src[start..i];
                i += 1;
                let unescaped = provio_rdf::term::unescape_literal(raw)
                    .ok_or_else(|| err("bad escape in string".into()))?;
                toks.push(Tok::Str(unescaped));
            }
            b'{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            b'}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            b'(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            b'.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            b';' => {
                toks.push(Tok::Semi);
                i += 1;
            }
            b',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            b'^' => {
                if i + 1 < b.len() && b[i + 1] == b'^' {
                    toks.push(Tok::DoubleCaret);
                    i += 2;
                } else {
                    toks.push(Tok::Caret);
                    i += 1;
                }
            }
            b'/' => {
                toks.push(Tok::Slash);
                i += 1;
            }
            b'|' => {
                if i + 1 < b.len() && b[i + 1] == b'|' {
                    toks.push(Tok::OrOr);
                    i += 2;
                } else {
                    toks.push(Tok::Pipe);
                    i += 1;
                }
            }
            b'&' => {
                if i + 1 < b.len() && b[i + 1] == b'&' {
                    toks.push(Tok::AndAnd);
                    i += 2;
                } else {
                    return Err(err("stray '&'".into()));
                }
            }
            b'+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            b'*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            b'!' => {
                if i + 1 < b.len() && b[i + 1] == b'=' {
                    toks.push(Tok::Ne);
                    i += 2;
                } else {
                    toks.push(Tok::Bang);
                    i += 1;
                }
            }
            b'=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            b'0'..=b'9' | b'-' => {
                let start = i;
                i += 1;
                while i < b.len()
                    && (b[i].is_ascii_digit() || b[i] == b'.' || b[i] == b'e' || b[i] == b'E')
                {
                    i += 1;
                }
                toks.push(Tok::Number(src[start..i].to_string()));
            }
            _ => {
                let start = i;
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric()
                        || b[i] == b'_'
                        || b[i] == b':'
                        || b[i] == b'-'
                        || b[i] == b'%'
                        // '.' is legal inside a prefixed-name local part
                        // (e.g. ex:decimate.h5) but not as the last char —
                        // a trailing '.' is the statement terminator.
                        || (b[i] == b'.'
                            && i + 1 < b.len()
                            && (b[i + 1].is_ascii_alphanumeric()
                                || b[i + 1] == b'_'
                                || b[i + 1] == b'-')))
                {
                    i += 1;
                }
                if i == start {
                    return Err(err(format!("unexpected character '{}'", c as char)));
                }
                let word = &src[start..i];
                if word == "true" {
                    toks.push(Tok::Bool(true));
                } else if word == "false" {
                    toks.push(Tok::Bool(false));
                } else if word.contains(':') {
                    toks.push(Tok::PName(word.to_string()));
                } else {
                    toks.push(Tok::Word(word.to_string()));
                }
            }
        }
    }
    toks.push(Tok::Eof);
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    nss: Namespaces,
    statement_count: usize,
    /// Depth in the path or expression tree of the node being parsed.
    depth: usize,
}

/// Deepest path or expression tree the parser builds. Query text comes
/// from outside the program, and parsing, evaluating and dropping a tree
/// all recurse over it: brackets, `!` and every further operand of an
/// operator chain (`a || b || c` nests to the left) each add a level.
const MAX_NESTING: usize = 64;

impl Parser {
    /// One level down, for the rest of the enclosing construct.
    fn deepen(&mut self) -> Result<(), QueryError> {
        if self.depth == MAX_NESTING {
            return Err(QueryError::new(format!(
                "nesting deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        Ok(())
    }

    /// Run `inner` one level down.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<T, QueryError> {
        self.deepen()?;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_word(&mut self, kw: &str) -> bool {
        if let Tok::Word(w) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.next();
                return true;
            }
        }
        false
    }

    fn expect_word(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_word(kw) {
            Ok(())
        } else {
            Err(QueryError::new(format!(
                "expected '{kw}', got {:?}",
                self.peek()
            )))
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), QueryError> {
        if *self.peek() == t {
            self.next();
            Ok(())
        } else {
            Err(QueryError::new(format!(
                "expected {t:?}, got {:?}",
                self.peek()
            )))
        }
    }

    fn resolve(&self, pname: &str) -> Result<Iri, QueryError> {
        self.nss
            .expand(pname)
            .ok_or_else(|| QueryError::new(format!("unknown prefix in '{pname}'")))
    }

    fn parse_query(&mut self) -> Result<Query, QueryError> {
        // Prologue.
        while self.eat_word("PREFIX") {
            let Tok::PName(pn) = self.next() else {
                return Err(QueryError::new("expected prefix name after PREFIX"));
            };
            let prefix = pn
                .strip_suffix(':')
                .ok_or_else(|| QueryError::new("prefix must end with ':'"))?
                .to_string();
            let Tok::Iri(iri) = self.next() else {
                return Err(QueryError::new("expected IRI after prefix name"));
            };
            self.nss.bind(prefix, iri);
        }

        self.expect_word("SELECT")?;
        let distinct = self.eat_word("DISTINCT");

        let mut projection = Vec::new();
        let mut aggregate = None;
        loop {
            match self.peek().clone() {
                Tok::Star if projection.is_empty() && aggregate.is_none() => {
                    self.next();
                    break;
                }
                Tok::Var(_) => {
                    let Tok::Var(v) = self.next() else {
                        unreachable!()
                    };
                    projection.push(v);
                }
                Tok::LParen => {
                    // ( COUNT ( [DISTINCT] ?v | * ) AS ?alias )
                    self.next();
                    self.expect_word("COUNT")?;
                    self.expect(Tok::LParen)?;
                    let agg_distinct = self.eat_word("DISTINCT");
                    let var = match self.next() {
                        Tok::Star => None,
                        Tok::Var(v) => Some(v),
                        t => {
                            return Err(QueryError::new(format!(
                                "COUNT takes '*' or a variable, got {t:?}"
                            )))
                        }
                    };
                    self.expect(Tok::RParen)?;
                    self.expect_word("AS")?;
                    let Tok::Var(alias) = self.next() else {
                        return Err(QueryError::new("expected alias variable after AS"));
                    };
                    self.expect(Tok::RParen)?;
                    if aggregate.is_some() {
                        return Err(QueryError::new("at most one COUNT aggregate"));
                    }
                    aggregate = Some(crate::ast::Aggregate {
                        var,
                        distinct: agg_distinct,
                        alias,
                    });
                }
                _ => break,
            }
        }
        if projection.is_empty() && aggregate.is_none() {
            // `SELECT *` consumed above leaves both empty legitimately only
            // when Star matched; detect bare SELECT here.
            if !matches!(self.peek(), Tok::Word(w) if w.eq_ignore_ascii_case("WHERE")) {
                return Err(QueryError::new("SELECT needs '*', variables or COUNT"));
            }
        }

        self.expect_word("WHERE")?;
        self.expect(Tok::LBrace)?;
        let mut patterns = Vec::new();
        loop {
            match self.peek() {
                Tok::RBrace => {
                    self.next();
                    break;
                }
                Tok::Word(w)
                    if w.eq_ignore_ascii_case("OPTIONAL")
                        || w.eq_ignore_ascii_case("UNION")
                        || w.eq_ignore_ascii_case("GRAPH") =>
                {
                    return Err(QueryError::new(format!("unsupported keyword '{w}'")));
                }
                Tok::Word(w) if w.eq_ignore_ascii_case("FILTER") => {
                    self.next();
                    self.expect(Tok::LParen)?;
                    let e = self.parse_or_expr()?;
                    self.expect(Tok::RParen)?;
                    patterns.push(Pattern::Filter(e));
                    // Optional '.' after a filter.
                    if *self.peek() == Tok::Dot {
                        self.next();
                    }
                }
                Tok::Eof => return Err(QueryError::new("unterminated WHERE block")),
                _ => self.parse_triple_block(&mut patterns)?,
            }
        }

        // GROUP BY.
        let mut group_by = Vec::new();
        if self.eat_word("GROUP") {
            self.expect_word("BY")?;
            while let Tok::Var(_) = self.peek() {
                let Tok::Var(v) = self.next() else { unreachable!() };
                group_by.push(v);
            }
            if group_by.is_empty() {
                return Err(QueryError::new("empty GROUP BY"));
            }
            if aggregate.is_none() {
                return Err(QueryError::new("GROUP BY requires a COUNT aggregate"));
            }
        }

        // Solution modifiers.
        let mut order_by = Vec::new();
        if self.eat_word("ORDER") {
            self.expect_word("BY")?;
            loop {
                match self.peek().clone() {
                    Tok::Var(v) => {
                        self.next();
                        order_by.push((v, false));
                    }
                    Tok::Word(w)
                        if w.eq_ignore_ascii_case("ASC") || w.eq_ignore_ascii_case("DESC") =>
                    {
                        let desc = w.eq_ignore_ascii_case("DESC");
                        self.next();
                        self.expect(Tok::LParen)?;
                        let Tok::Var(v) = self.next() else {
                            return Err(QueryError::new("expected variable in ORDER BY"));
                        };
                        self.expect(Tok::RParen)?;
                        order_by.push((v, desc));
                    }
                    _ => break,
                }
            }
            if order_by.is_empty() {
                return Err(QueryError::new("empty ORDER BY"));
            }
        }
        let mut limit = None;
        let mut offset = 0;
        loop {
            if self.eat_word("LIMIT") {
                let Tok::Number(n) = self.next() else {
                    return Err(QueryError::new("expected number after LIMIT"));
                };
                limit = Some(
                    n.parse()
                        .map_err(|_| QueryError::new("bad LIMIT value"))?,
                );
            } else if self.eat_word("OFFSET") {
                let Tok::Number(n) = self.next() else {
                    return Err(QueryError::new("expected number after OFFSET"));
                };
                offset = n
                    .parse()
                    .map_err(|_| QueryError::new("bad OFFSET value"))?;
            } else {
                break;
            }
        }

        if *self.peek() != Tok::Eof {
            return Err(QueryError::new(format!(
                "trailing tokens after query: {:?}",
                self.peek()
            )));
        }

        Ok(Query {
            projection,
            aggregate,
            group_by,
            distinct,
            patterns,
            order_by,
            limit,
            offset,
            statement_count: self.statement_count,
        })
    }

    /// subject (path object (',' object)*) (';' path object…)* '.'
    fn parse_triple_block(&mut self, out: &mut Vec<Pattern>) -> Result<(), QueryError> {
        let subject = self.parse_term_or_var("subject")?;
        loop {
            let path = self.parse_path()?;
            loop {
                let object = self.parse_term_or_var("object")?;
                self.statement_count += 1;
                out.push(Pattern::Triple {
                    subject: subject.clone(),
                    path: path.clone(),
                    object,
                });
                if *self.peek() == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
            match self.peek() {
                Tok::Semi => {
                    self.next();
                    // allow trailing ';' before '.' or '}'
                    if matches!(self.peek(), Tok::Dot) {
                        self.next();
                        return Ok(());
                    }
                    if matches!(self.peek(), Tok::RBrace) {
                        return Ok(());
                    }
                }
                Tok::Dot => {
                    self.next();
                    return Ok(());
                }
                Tok::RBrace => return Ok(()),
                other => {
                    return Err(QueryError::new(format!(
                        "expected ';', '.' or '}}' after triple, got {other:?}"
                    )))
                }
            }
        }
    }

    fn parse_term_or_var(&mut self, what: &str) -> Result<TermOrVar, QueryError> {
        match self.next() {
            Tok::Var(v) => Ok(TermOrVar::Var(v)),
            Tok::Iri(i) => Ok(TermOrVar::Term(Term::iri(i))),
            Tok::PName(p) => Ok(TermOrVar::Term(Term::Iri(self.resolve(&p)?))),
            Tok::Str(s) => {
                // Optional datatype / lang suffix.
                match self.peek().clone() {
                    Tok::DoubleCaret => {
                        self.next();
                        let dt = match self.next() {
                            Tok::Iri(i) => Iri::new(i),
                            Tok::PName(p) => self.resolve(&p)?,
                            t => {
                                return Err(QueryError::new(format!(
                                    "expected datatype after ^^, got {t:?}"
                                )))
                            }
                        };
                        Ok(TermOrVar::Term(Term::Literal(Literal::typed(s, dt))))
                    }
                    _ => Ok(TermOrVar::Term(Term::Literal(Literal::plain(s)))),
                }
            }
            Tok::Number(n) => {
                let dt = if n.contains('.') || n.contains('e') || n.contains('E') {
                    ns::XSD_DOUBLE
                } else {
                    ns::XSD_INTEGER
                };
                Ok(TermOrVar::Term(Term::Literal(Literal::typed(
                    n,
                    Iri::new(dt),
                ))))
            }
            Tok::Bool(v) => Ok(TermOrVar::Term(Term::Literal(Literal::boolean(v)))),
            t => Err(QueryError::new(format!("expected {what}, got {t:?}"))),
        }
    }

    // Path grammar: alt := seq ('|' seq)* ; seq := step ('/' step)* ;
    // step := ('^')? primary ('+'|'*')? ; primary := iri | '(' alt ')' | 'a'
    fn parse_path(&mut self) -> Result<PathExpr, QueryError> {
        let outer = self.depth;
        let mut left = self.parse_path_seq()?;
        while *self.peek() == Tok::Pipe {
            self.next();
            self.deepen()?;
            let right = self.parse_path_seq()?;
            left = PathExpr::Alternative(Box::new(left), Box::new(right));
        }
        self.depth = outer;
        Ok(left)
    }

    fn parse_path_seq(&mut self) -> Result<PathExpr, QueryError> {
        let outer = self.depth;
        let mut left = self.parse_path_step()?;
        while *self.peek() == Tok::Slash {
            self.next();
            self.deepen()?;
            let right = self.parse_path_step()?;
            left = PathExpr::Sequence(Box::new(left), Box::new(right));
        }
        self.depth = outer;
        Ok(left)
    }

    fn parse_path_step(&mut self) -> Result<PathExpr, QueryError> {
        let inverse = if *self.peek() == Tok::Caret {
            self.next();
            true
        } else {
            false
        };
        let mut p = match self.next() {
            Tok::Iri(i) => PathExpr::Iri(Iri::new(i)),
            Tok::PName(pn) => PathExpr::Iri(self.resolve(&pn)?),
            Tok::Word(w) if w == "a" => PathExpr::Iri(Iri::new(ns::RDF_TYPE)),
            Tok::LParen => {
                let inner = self.nested(Self::parse_path)?;
                self.expect(Tok::RParen)?;
                inner
            }
            t => return Err(QueryError::new(format!("expected predicate, got {t:?}"))),
        };
        match self.peek() {
            Tok::Plus => {
                self.next();
                p = PathExpr::OneOrMore(Box::new(p));
            }
            Tok::Star => {
                self.next();
                p = PathExpr::ZeroOrMore(Box::new(p));
            }
            _ => {}
        }
        if inverse {
            p = PathExpr::Inverse(Box::new(p));
        }
        Ok(p)
    }

    // Expression grammar: or := and ('||' and)* ; and := unary ('&&' unary)* ;
    // unary := '!' unary | cmp ; cmp := primary (op primary)? ;
    fn parse_or_expr(&mut self) -> Result<Expr, QueryError> {
        let outer = self.depth;
        let mut left = self.parse_and_expr()?;
        while *self.peek() == Tok::OrOr {
            self.next();
            self.deepen()?;
            let right = self.parse_and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        self.depth = outer;
        Ok(left)
    }

    fn parse_and_expr(&mut self) -> Result<Expr, QueryError> {
        let outer = self.depth;
        let mut left = self.parse_unary_expr()?;
        while *self.peek() == Tok::AndAnd {
            self.next();
            self.deepen()?;
            let right = self.parse_unary_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        self.depth = outer;
        Ok(left)
    }

    fn parse_unary_expr(&mut self) -> Result<Expr, QueryError> {
        if *self.peek() == Tok::Bang {
            self.next();
            let inner = self.nested(Self::parse_unary_expr)?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        let left = self.parse_primary_expr()?;
        let op = match self.peek() {
            Tok::Eq => CompareOp::Eq,
            Tok::Ne => CompareOp::Ne,
            Tok::Lt => CompareOp::Lt,
            Tok::Le => CompareOp::Le,
            Tok::Gt => CompareOp::Gt,
            Tok::Ge => CompareOp::Ge,
            _ => return Ok(left),
        };
        self.next();
        let right = self.parse_primary_expr()?;
        Ok(Expr::Compare(op, Box::new(left), Box::new(right)))
    }

    fn parse_primary_expr(&mut self) -> Result<Expr, QueryError> {
        match self.next() {
            Tok::Var(v) => Ok(Expr::Var(v)),
            Tok::Iri(i) => Ok(Expr::Const(Term::iri(i))),
            Tok::PName(p) => Ok(Expr::Const(Term::Iri(self.resolve(&p)?))),
            Tok::Str(s) => Ok(Expr::Const(Term::Literal(Literal::plain(s)))),
            Tok::Number(n) => {
                let dt = if n.contains('.') || n.contains('e') || n.contains('E') {
                    ns::XSD_DOUBLE
                } else {
                    ns::XSD_INTEGER
                };
                Ok(Expr::Const(Term::Literal(Literal::typed(n, Iri::new(dt)))))
            }
            Tok::Bool(v) => Ok(Expr::Const(Term::Literal(Literal::boolean(v)))),
            Tok::LParen => {
                let inner = self.nested(Self::parse_or_expr)?;
                self.expect(Tok::RParen)?;
                Ok(inner)
            }
            Tok::Word(w) if w.eq_ignore_ascii_case("REGEX") => {
                self.expect(Tok::LParen)?;
                let target = self.nested(Self::parse_or_expr)?;
                self.expect(Tok::Comma)?;
                let Tok::Str(pat) = self.next() else {
                    return Err(QueryError::new("REGEX pattern must be a string"));
                };
                self.expect(Tok::RParen)?;
                Ok(Expr::Regex(Box::new(target), pat))
            }
            Tok::Word(w) if w.eq_ignore_ascii_case("BOUND") => {
                self.expect(Tok::LParen)?;
                let Tok::Var(v) = self.next() else {
                    return Err(QueryError::new("BOUND takes a variable"));
                };
                self.expect(Tok::RParen)?;
                Ok(Expr::Bound(v))
            }
            Tok::Word(w)
                if w.eq_ignore_ascii_case("STRSTARTS")
                    || w.eq_ignore_ascii_case("STRENDS")
                    || w.eq_ignore_ascii_case("CONTAINS") =>
            {
                self.expect(Tok::LParen)?;
                let a = self.nested(Self::parse_or_expr)?;
                self.expect(Tok::Comma)?;
                let b = self.nested(Self::parse_or_expr)?;
                self.expect(Tok::RParen)?;
                let (a, b) = (Box::new(a), Box::new(b));
                Ok(if w.eq_ignore_ascii_case("STRSTARTS") {
                    Expr::StrStarts(a, b)
                } else if w.eq_ignore_ascii_case("STRENDS") {
                    Expr::StrEnds(a, b)
                } else {
                    Expr::Contains(a, b)
                })
            }
            t => Err(QueryError::new(format!("unexpected token in FILTER: {t:?}"))),
        }
    }
}

impl Query {
    /// Parse a SELECT query.
    pub fn parse(src: &str) -> Result<Query, QueryError> {
        let toks = tokenize(src)?;
        let mut p = Parser {
            toks,
            pos: 0,
            nss: Namespaces::standard(),
            statement_count: 0,
            depth: 0,
        };
        p.parse_query()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_select() {
        let q = Query::parse(
            "PREFIX prov: <http://www.w3.org/ns/prov#>\n\
             SELECT ?p WHERE { <urn:x> prov:wasAttributedTo ?p . }",
        )
        .unwrap();
        assert_eq!(q.projection, vec!["p"]);
        assert_eq!(q.patterns.len(), 1);
        assert_eq!(q.statement_count, 1);
    }

    #[test]
    fn parse_semicolon_and_comma_lists() {
        let q = Query::parse(
            "SELECT * WHERE { ?x <urn:p> ?y ; <urn:q> ?z , ?w . }",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 3);
        assert_eq!(q.statement_count, 3);
    }

    #[test]
    fn parse_property_paths() {
        let q = Query::parse(
            "SELECT ?a WHERE { ?a (<urn:d>)+ <urn:root> . ?a ^<urn:p>/<urn:q>* ?b . }",
        )
        .unwrap();
        let Pattern::Triple { path, .. } = &q.patterns[0] else {
            panic!()
        };
        assert!(matches!(path, PathExpr::OneOrMore(_)));
        let Pattern::Triple { path, .. } = &q.patterns[1] else {
            panic!()
        };
        // `^<urn:p>/<urn:q>*` parses as Sequence(Inverse(p), ZeroOrMore(q)).
        assert!(matches!(path, PathExpr::Sequence(_, _)));
    }

    #[test]
    fn parse_filter_expressions() {
        let q = Query::parse(
            "SELECT ?x WHERE { ?x <urn:v> ?v . FILTER(?v >= 3 && (?v < 10 || !(?v = 7))) }",
        )
        .unwrap();
        assert!(matches!(q.patterns[1], Pattern::Filter(_)));
    }

    #[test]
    fn parse_builtin_functions() {
        let q = Query::parse(
            "SELECT ?x WHERE { ?x <urn:l> ?l . FILTER(REGEX(?l, \"^dec\") && STRSTARTS(?l, \"d\") && BOUND(?x)) }",
        )
        .unwrap();
        assert_eq!(q.patterns.len(), 2);
    }

    #[test]
    fn parse_modifiers() {
        let q = Query::parse(
            "SELECT DISTINCT ?x WHERE { ?x <urn:p> ?y . } ORDER BY DESC(?x) ?y LIMIT 5 OFFSET 2",
        )
        .unwrap();
        assert!(q.distinct);
        assert_eq!(q.order_by, vec![("x".into(), true), ("y".into(), false)]);
        assert_eq!(q.limit, Some(5));
        assert_eq!(q.offset, 2);
    }

    #[test]
    fn a_keyword_is_rdf_type() {
        let q = Query::parse("SELECT ?x WHERE { ?x a <urn:C> . }").unwrap();
        let Pattern::Triple { path, .. } = &q.patterns[0] else {
            panic!()
        };
        assert_eq!(path.as_plain().unwrap().as_str(), ns::RDF_TYPE);
    }

    #[test]
    fn unsupported_keywords_rejected() {
        assert!(Query::parse("SELECT ?x WHERE { OPTIONAL { ?x <urn:p> ?y . } }").is_err());
    }

    #[test]
    fn unknown_prefix_rejected() {
        let e = Query::parse("SELECT ?x WHERE { ?x zzz:p ?y . }").unwrap_err();
        assert!(e.to_string().contains("unknown prefix"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(Query::parse("SELECT ?x WHERE { ?x <urn:p> ?y . } banana").is_err());
    }

    #[test]
    fn comparison_vs_iri_disambiguation() {
        // `<` as comparison inside FILTER must still work though IRIs use '<'.
        let q = Query::parse("SELECT ?v WHERE { ?x <urn:p> ?v . FILTER(?v < 10) }").unwrap();
        assert_eq!(q.patterns.len(), 2);
    }

    #[test]
    fn standard_prefixes_preloaded() {
        // prov:/provio:/rdf:/xsd: work without PREFIX declarations.
        let q = Query::parse("SELECT ?x WHERE { ?x prov:wasAttributedTo ?p . }").unwrap();
        let Pattern::Triple { path, .. } = &q.patterns[0] else {
            panic!()
        };
        assert_eq!(
            path.as_plain().unwrap().as_str(),
            "http://www.w3.org/ns/prov#wasAttributedTo"
        );
    }
}
