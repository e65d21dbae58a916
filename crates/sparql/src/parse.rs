//! Recursive-descent parser for the supported SELECT subset, over the
//! tokens of [`provio_rdf::lex`].

use crate::ast::{Aggregate, CompareOp, Expr, PathExpr, Pattern, Query, TermOrVar};
use crate::QueryError;
use provio_rdf::lex::{Lexer, Token};
use provio_rdf::{Namespaces, Term};

struct Parser<'a> {
    lex: Lexer<'a>,
    nss: Namespaces,
    /// Where the lexer spells a term the query does not spell whole.
    buf: String,
    statement_count: usize,
    /// Depth in the path or expression tree of the node being parsed.
    depth: usize,
}

/// Deepest path or expression tree the parser builds. Query text comes
/// from outside the program, and parsing, evaluating and dropping a tree
/// all recurse over it: brackets, `!` and every further operand of an
/// operator chain (`a || b || c` nests to the left) each add a level.
const MAX_NESTING: usize = 64;

impl Parser<'_> {
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

    /// Is the next token the keyword `kw`, in any case?
    fn at_word(&mut self, kw: &str) -> Result<bool, QueryError> {
        Ok(matches!(self.lex.peek()?, Token::Word(w) if w.eq_ignore_ascii_case(kw)))
    }

    fn eat_word(&mut self, kw: &str) -> Result<bool, QueryError> {
        let hit = self.at_word(kw)?;
        if hit {
            self.lex.token()?;
        }
        Ok(hit)
    }

    fn expect_word(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_word(kw)? {
            return Ok(());
        }
        Err(QueryError::new(format!("expected '{kw}', got {:?}", self.lex.peek()?)))
    }

    fn expect(&mut self, punct: &str) -> Result<(), QueryError> {
        if self.lex.eat(punct)? {
            return Ok(());
        }
        Err(QueryError::new(format!("expected '{punct}', got {:?}", self.lex.peek()?)))
    }

    /// The variable that comes next, consumed, if one does.
    fn eat_var(&mut self) -> Result<Option<String>, QueryError> {
        let &Token::Var(v) = self.lex.peek()? else {
            return Ok(None);
        };
        self.lex.token()?;
        Ok(Some(v.to_string()))
    }

    /// The variable that must come next; `what` names its place.
    fn var(&mut self, what: &str) -> Result<String, QueryError> {
        match self.eat_var()? {
            Some(v) => Ok(v),
            None => Err(QueryError::new(format!(
                "expected variable {what}, got {:?}",
                self.lex.peek()?
            ))),
        }
    }

    /// The variables that come next, possibly none.
    fn vars(&mut self) -> Result<Vec<String>, QueryError> {
        let mut vars = Vec::new();
        while let Some(v) = self.eat_var()? {
            vars.push(v);
        }
        Ok(vars)
    }

    /// A constant term. A blank node label in a query would be a fresh
    /// variable, which this subset does not model, so it is refused.
    fn term(&mut self, what: &str) -> Result<Term, QueryError> {
        match self.lex.term(&self.nss, what, &mut self.buf)?.to_term() {
            Term::Blank(b) => Err(QueryError::new(format!(
                "blank node '{b}' as {what}: not supported in queries, use a variable"
            ))),
            term => Ok(term),
        }
    }

    /// The count after LIMIT or OFFSET.
    fn count(&mut self, kw: &str) -> Result<usize, QueryError> {
        let Token::Number(n) = self.lex.token()? else {
            return Err(QueryError::new(format!("expected number after {kw}")));
        };
        n.parse().map_err(|_| QueryError::new(format!("bad {kw} value")))
    }

    fn parse_query(&mut self) -> Result<Query, QueryError> {
        // Prologue.
        while self.eat_word("PREFIX")? {
            self.lex.prefix_binding(&mut self.nss)?;
        }

        self.expect_word("SELECT")?;
        let distinct = self.eat_word("DISTINCT")?;

        let mut projection = Vec::new();
        let mut aggregate = None;
        // '*', or variables and at most one ( COUNT ( [DISTINCT] ?v | * ) AS ?alias ).
        while !(projection.is_empty() && aggregate.is_none() && self.lex.eat("*")?) {
            projection.extend(self.vars()?);
            if !self.lex.eat("(")? {
                break;
            }
            self.expect_word("COUNT")?;
            self.expect("(")?;
            let agg_distinct = self.eat_word("DISTINCT")?;
            let var = if self.lex.eat("*")? {
                None
            } else {
                Some(self.var("or '*' in COUNT")?)
            };
            self.expect(")")?;
            self.expect_word("AS")?;
            let alias = self.var("after AS")?;
            self.expect(")")?;
            if aggregate.is_some() {
                return Err(QueryError::new("at most one COUNT aggregate"));
            }
            aggregate = Some(Aggregate {
                var,
                distinct: agg_distinct,
                alias,
            });
        }
        self.expect_word("WHERE")?;
        self.expect("{")?;
        let mut patterns = Vec::new();
        while !self.lex.eat("}")? {
            match *self.lex.peek()? {
                Token::Word(w)
                    if ["OPTIONAL", "UNION", "GRAPH"]
                        .iter()
                        .any(|kw| w.eq_ignore_ascii_case(kw)) =>
                {
                    return Err(QueryError::new(format!("unsupported keyword '{w}'")));
                }
                Token::Word(w) if w.eq_ignore_ascii_case("FILTER") => {
                    self.lex.token()?;
                    self.expect("(")?;
                    let e = self.parse_or_expr()?;
                    self.expect(")")?;
                    patterns.push(Pattern::Filter(e));
                    // Optional '.' after a filter.
                    self.lex.eat(".")?;
                }
                Token::Eof => return Err(QueryError::new("unterminated WHERE block")),
                _ => self.parse_triple_block(&mut patterns)?,
            }
        }

        let mut group_by = Vec::new();
        if self.eat_word("GROUP")? {
            self.expect_word("BY")?;
            group_by = self.vars()?;
            if group_by.is_empty() {
                return Err(QueryError::new("empty GROUP BY"));
            }
            if aggregate.is_none() {
                return Err(QueryError::new("GROUP BY requires a COUNT aggregate"));
            }
        }

        // Solution modifiers.
        let mut order_by = Vec::new();
        if self.eat_word("ORDER")? {
            self.expect_word("BY")?;
            loop {
                let desc = self.at_word("DESC")?;
                if desc || self.at_word("ASC")? {
                    self.lex.token()?;
                    self.expect("(")?;
                    order_by.push((self.var("in ORDER BY")?, desc));
                    self.expect(")")?;
                } else if let Some(v) = self.eat_var()? {
                    order_by.push((v, false));
                } else {
                    break;
                }
            }
            if order_by.is_empty() {
                return Err(QueryError::new("empty ORDER BY"));
            }
        }
        let mut limit = None;
        let mut offset = 0;
        loop {
            if self.eat_word("LIMIT")? {
                limit = Some(self.count("LIMIT")?);
            } else if self.eat_word("OFFSET")? {
                offset = self.count("OFFSET")?;
            } else {
                break;
            }
        }

        match self.lex.token()? {
            Token::Eof => {}
            t => return Err(QueryError::new(format!("trailing tokens after query: {t:?}"))),
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
                if !self.lex.eat(",")? {
                    break;
                }
            }
            // A ';' may trail before the '.' or '}' that ends the block.
            let more = self.lex.eat(";")?;
            if self.lex.eat(".")? || *self.lex.peek()? == Token::Punct("}") {
                return Ok(());
            }
            if !more {
                return Err(QueryError::new(format!(
                    "expected ';', '.' or '}}' after triple, got {:?}",
                    self.lex.peek()?
                )));
            }
        }
    }

    fn parse_term_or_var(&mut self, what: &str) -> Result<TermOrVar, QueryError> {
        match self.eat_var()? {
            Some(v) => Ok(TermOrVar::Var(v)),
            None => self.term(what).map(TermOrVar::Term),
        }
    }

    // Path grammar: alt := seq ('|' seq)* ; seq := step ('/' step)* ;
    // step := ('^')? primary ('+'|'*')? ; primary := iri | '(' alt ')' | 'a'
    fn parse_path(&mut self) -> Result<PathExpr, QueryError> {
        let outer = self.depth;
        let mut left = self.parse_path_seq()?;
        while self.lex.eat("|")? {
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
        while self.lex.eat("/")? {
            self.deepen()?;
            let right = self.parse_path_step()?;
            left = PathExpr::Sequence(Box::new(left), Box::new(right));
        }
        self.depth = outer;
        Ok(left)
    }

    fn parse_path_step(&mut self) -> Result<PathExpr, QueryError> {
        let inverse = self.lex.eat("^")?;
        let mut p = if self.lex.eat("(")? {
            let inner = self.nested(Self::parse_path)?;
            self.expect(")")?;
            inner
        } else {
            let Term::Iri(iri) = self.lex.predicate(&self.nss, &mut self.buf)?.to_term() else {
                unreachable!("the predicate production reads an IRI");
            };
            PathExpr::Iri(iri)
        };
        if self.lex.eat("+")? {
            p = PathExpr::OneOrMore(Box::new(p));
        } else if self.lex.eat("*")? {
            p = PathExpr::ZeroOrMore(Box::new(p));
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
        while self.lex.eat("||")? {
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
        while self.lex.eat("&&")? {
            self.deepen()?;
            let right = self.parse_unary_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        self.depth = outer;
        Ok(left)
    }

    fn parse_unary_expr(&mut self) -> Result<Expr, QueryError> {
        if self.lex.eat("!")? {
            let inner = self.nested(Self::parse_unary_expr)?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        let left = self.parse_primary_expr()?;
        let op = match self.lex.peek()? {
            Token::Punct("=") => CompareOp::Eq,
            Token::Punct("!=") => CompareOp::Ne,
            Token::Punct("<") => CompareOp::Lt,
            Token::Punct("<=") => CompareOp::Le,
            Token::Punct(">") => CompareOp::Gt,
            Token::Punct(">=") => CompareOp::Ge,
            _ => return Ok(left),
        };
        self.lex.token()?;
        let right = self.parse_primary_expr()?;
        Ok(Expr::Compare(op, Box::new(left), Box::new(right)))
    }

    fn parse_primary_expr(&mut self) -> Result<Expr, QueryError> {
        if self.lex.eat("(")? {
            let inner = self.nested(Self::parse_or_expr)?;
            self.expect(")")?;
            return Ok(inner);
        }
        if let Some(v) = self.eat_var()? {
            return Ok(Expr::Var(v));
        }
        let call = match *self.lex.peek()? {
            Token::Word(w) => ["REGEX", "BOUND", "STRSTARTS", "STRENDS", "CONTAINS"]
                .into_iter()
                .find(|f| w.eq_ignore_ascii_case(f)),
            _ => None,
        };
        let Some(call) = call else {
            return self.term("FILTER operand").map(Expr::Const);
        };
        self.lex.token()?;
        self.expect("(")?;
        let expr = if call == "BOUND" {
            Expr::Bound(self.var("in BOUND")?)
        } else {
            let a = Box::new(self.nested(Self::parse_or_expr)?);
            self.expect(",")?;
            match call {
                "REGEX" => match self.lex.token()? {
                    Token::Str(pattern) => Expr::Regex(a, pattern.into_owned()),
                    _ => return Err(QueryError::new("REGEX pattern must be a string")),
                },
                "STRSTARTS" => Expr::StrStarts(a, Box::new(self.nested(Self::parse_or_expr)?)),
                "STRENDS" => Expr::StrEnds(a, Box::new(self.nested(Self::parse_or_expr)?)),
                _ => Expr::Contains(a, Box::new(self.nested(Self::parse_or_expr)?)),
            }
        };
        self.expect(")")?;
        Ok(expr)
    }
}

impl Query {
    /// Parse a SELECT query.
    pub fn parse(src: &str) -> Result<Query, QueryError> {
        let mut p = Parser {
            lex: Lexer::new(src),
            nss: Namespaces::standard(),
            buf: String::new(),
            statement_count: 0,
            depth: 0,
        };
        p.parse_query()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use provio_rdf::ns;

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
