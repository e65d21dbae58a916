//! The text front end: one lexer and one term production for Turtle,
//! N-Triples and SPARQL.
//!
//! The three syntaxes share their terminals — Turtle 1.1 and SPARQL 1.1
//! define IRIREF, PNAME, BLANK_NODE_LABEL, the quoted string, LANGTAG and
//! the numerics identically, and N-Triples is a subset of Turtle — so they
//! share the code that reads them. [`Lexer`] cuts a `&str` into [`Token`]s
//! that borrow from it (only a string body that really holds an escape is
//! copied), and [`Lexer::term`] is the single place where tokens become a
//! term: `"…"` with its optional `^^datatype` or `@lang`, a bare number as
//! `xsd:integer` / `xsd:double`, `true` / `false` as `xsd:boolean`. A term
//! comes back as a [`TermView`] that borrows from the input, or from a
//! buffer the caller passes for what the input does not spell whole (a
//! prefixed name, an escaped body, a prefixed datatype): the parsers intern
//! it without allocating, and `TermView::to_term` builds the owned
//! [`Term`](crate::Term) where one is kept. The grammars (`turtle`,
//! `ntriples`, `provio_sparql::parse`) keep only their statement structure
//! and decide which tokens a position admits; the lexer has no mode and
//! does not know which of them is calling.
//!
//! | terminal | accepted | rejected |
//! |---|---|---|
//! | IRIREF | `<…>` with no byte ≤ 0x20 and none of ``<>"{}\|^`\`` inside, `<>` included | anything else after `<`, which is then the operator `<` or `<=` |
//! | PNAME / word | an ASCII letter or `:`, then ASCII letters, digits, `_ - : %`, and `.` when a letter, digit, `_` or `-` follows; a PNAME if it holds a `:` | non-ASCII letters; a leading digit, `_`, `-`, `%` or `.` |
//! | BLANK_NODE_LABEL | `_:` and ASCII letters, digits, `_ - .`, trailing dots given back | an empty label |
//! | string | `"…"` with the escapes `\" \\ \n \r \t \uXXXX \UXXXXXXXX`; raw newlines allowed | other escapes, `'…'`, `"""…"""` |
//! | LANGTAG | `@` and ASCII letters, digits, `-` (`@prefix` is one) | an empty tag |
//! | number | `[+-]? digits ('.' digits)? ([eE] [+-]? digits)?` | a sign or exponent with no digits (`-`, `5e` is `5` then `e`), `.5`, `5.` |
//! | variable | `?` or `$` and ASCII letters, digits, `_` | an empty name |
//! | punctuation | `^^ && \|\| != <= >= { } ( ) . ; , ^ / \| + * ! = < >` | a lone `&` |
//!
//! Whitespace is space, tab, CR and LF; `#` starts a comment that runs to
//! the end of the line. The lexer keeps a byte offset, not a line count:
//! [`ParseError::line`] is worked out when an error is raised.

use crate::namespace::{ns, Namespaces};
use crate::term::{self, TermView};
use crate::ParseError;
use std::borrow::Cow;

/// One terminal, borrowing its text from the input.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `<…>`: the text between the brackets.
    Iri(&'a str),
    /// `prefix:local`, whole.
    PName(&'a str),
    /// `_:label`: the label.
    Blank(&'a str),
    /// `"…"`: the body with its escapes resolved.
    Str(Cow<'a, str>),
    /// `@tag`: the tag.
    LangTag(&'a str),
    /// An INTEGER, DECIMAL or DOUBLE, as written.
    Number(&'a str),
    /// A bare word with no `:` in it: `a`, `true`, a keyword.
    Word(&'a str),
    /// `?name` or `$name`: the name.
    Var(&'a str),
    /// Punctuation or an operator, as written.
    Punct(&'static str),
    Eof,
}

/// The buffers the productions spell one triple's terms into: one per
/// position, so that a statement's three views can be held at once. Reused
/// from statement to statement, each allocates only while it grows.
#[derive(Debug, Default)]
pub(crate) struct TripleBufs {
    pub(crate) subject: String,
    pub(crate) predicate: String,
    pub(crate) object: String,
}

/// A cursor over the input with one token of lookahead.
pub struct Lexer<'a> {
    src: &'a str,
    /// Offset of the first byte not yet scanned.
    pos: usize,
    peeked: Option<Token<'a>>,
}

pub(crate) fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'-'
}

/// The bytes a LANGTAG holds after its `@`.
pub(crate) fn is_tag_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'-'
}

/// How many bytes at the head of `bytes` are `accept`ed.
pub(crate) fn run(bytes: &[u8], accept: impl Fn(u8) -> bool) -> usize {
    bytes.iter().position(|&b| !accept(b)).unwrap_or(bytes.len())
}

/// The bytes an IRIREF may hold: none ≤ 0x20 and none of `<>"{}|^`\`.
const IRI_BYTE: [bool; 256] = {
    let mut ok = [true; 256];
    let mut b = 0;
    while b <= b' ' as usize {
        ok[b] = false;
        b += 1;
    }
    let held_back = b"<>\"{}|^`\\";
    let mut i = 0;
    while i < held_back.len() {
        ok[held_back[i] as usize] = false;
        i += 1;
    }
    ok
};

/// Length of the IRIREF body at the head of `bytes` (what follows a `<`),
/// or `None` if a byte an IRI cannot hold comes before the closing `>`.
pub(crate) fn iri_len(bytes: &[u8]) -> Option<usize> {
    // Whole blocks that hold nothing but IRI bytes first: a loop with no
    // exit in it runs at twice the speed of one that tests every byte, and
    // IRIs are most of a document.
    let mut len = 0;
    while let Some(block) = bytes.get(len..len + 16) {
        if !block.iter().fold(true, |ok, &b| ok & IRI_BYTE[b as usize]) {
            break;
        }
        len += 16;
    }
    len += run(&bytes[len..], |b| IRI_BYTE[b as usize]);
    (bytes.get(len) == Some(&b'>')).then_some(len)
}

/// Offset of the quote that closes the string whose opening quote heads
/// `bytes`, and whether a `\` comes before it; `None` if none does. A
/// `\` hides the byte after it.
pub(crate) fn string_end(bytes: &[u8]) -> Option<(usize, bool)> {
    let mut end = 1;
    let mut escaped = false;
    loop {
        let at = bytes.get(end..)?.iter().position(|b| matches!(b, b'"' | b'\\'))?;
        if bytes[end + at] == b'"' {
            return Some((end + at, escaped));
        }
        escaped = true;
        end += at + 2;
    }
}

/// Length of the number at the head of `bytes`, 0 if there is none.
fn number_len(bytes: &[u8]) -> usize {
    let digits = |at: usize| run(&bytes[at.min(bytes.len())..], |b| b.is_ascii_digit());
    let sign = |at: usize| usize::from(matches!(bytes.get(at), Some(b'+' | b'-')));
    let mut len = sign(0);
    let int = digits(len);
    if int == 0 {
        return 0;
    }
    len += int;
    if bytes.get(len) == Some(&b'.') && digits(len + 1) > 0 {
        len += 1 + digits(len + 1);
    }
    if matches!(bytes.get(len), Some(b'e' | b'E')) {
        let exponent = len + 1 + sign(len + 1);
        if digits(exponent) > 0 {
            len = exponent + digits(exponent);
        }
    }
    len
}

impl<'a> Lexer<'a> {
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            peeked: None,
        }
    }

    /// An error at the line the lexer has scanned to (the lookahead token
    /// included).
    pub fn error(&self, message: impl Into<String>) -> ParseError {
        let scanned = &self.src.as_bytes()[..self.pos];
        ParseError::new(1 + scanned.iter().filter(|&&b| b == b'\n').count(), message)
    }

    /// The next token, consumed.
    pub fn token(&mut self) -> Result<Token<'a>, ParseError> {
        match self.peeked.take() {
            Some(t) => Ok(t),
            None => self.scan(),
        }
    }

    /// The next token, left in place.
    pub fn peek(&mut self) -> Result<&Token<'a>, ParseError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.scan()?);
        }
        Ok(self.peeked.as_ref().expect("just filled"))
    }

    /// Consume the next token if it is the punctuation `p`.
    pub fn eat(&mut self, p: &str) -> Result<bool, ParseError> {
        let hit = matches!(self.peek()?, Token::Punct(q) if *q == p);
        if hit {
            self.peeked = None;
        }
        Ok(hit)
    }

    fn skip_blank(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'#' => self.pos += run(&bytes[self.pos..], |b| b != b'\n'),
                _ => break,
            }
        }
    }

    /// Step over a sigil of `sigil` bytes and the `len` bytes after it,
    /// which are the token's text.
    fn cut(&mut self, sigil: usize, len: usize) -> &'a str {
        let text = &self.src[self.pos + sigil..self.pos + sigil + len];
        self.pos += sigil + len;
        text
    }

    fn scan(&mut self) -> Result<Token<'a>, ParseError> {
        self.skip_blank();
        let rest = &self.src[self.pos..];
        let bytes = rest.as_bytes();
        let Some(&first) = bytes.first() else {
            return Ok(Token::Eof);
        };
        match first {
            b'<' => {
                if let Some(len) = iri_len(&bytes[1..]) {
                    let iri = self.cut(1, len);
                    self.pos += 1;
                    return Ok(Token::Iri(iri));
                }
            }
            b'"' => return self.scan_string(rest),
            b'_' if bytes.get(1) == Some(&b':') => {
                let len = run(&bytes[2..], |b| is_word_byte(b) || b == b'.');
                // A trailing '.' is the statement terminator.
                let label = rest[2..2 + len].trim_end_matches('.');
                if label.is_empty() {
                    return Err(self.error("empty blank node label"));
                }
                return Ok(Token::Blank(self.cut(2, label.len())));
            }
            b'@' => {
                let len = run(&bytes[1..], is_tag_byte);
                if len == 0 {
                    return Err(self.error("empty language tag"));
                }
                return Ok(Token::LangTag(self.cut(1, len)));
            }
            b'?' | b'$' => {
                let len = run(&bytes[1..], |b| b.is_ascii_alphanumeric() || b == b'_');
                if len == 0 {
                    return Err(self.error("empty variable name"));
                }
                return Ok(Token::Var(self.cut(1, len)));
            }
            b'+' | b'-' | b'0'..=b'9' => {
                let len = number_len(bytes);
                if len > 0 {
                    return Ok(Token::Number(self.cut(0, len)));
                }
            }
            _ => {}
        }
        if first.is_ascii_alphabetic() || first == b':' {
            // '.' is legal inside a prefixed name's local part
            // (ex:decimate.h5) but not as its last character: there it ends
            // the statement.
            let len = (1..bytes.len())
                .take_while(|&i| {
                    is_word_byte(bytes[i])
                        || matches!(bytes[i], b':' | b'%')
                        || (bytes[i] == b'.' && bytes.get(i + 1).is_some_and(|&b| is_word_byte(b)))
                })
                .count();
            let word = self.cut(0, 1 + len);
            return Ok(if word.contains(':') {
                Token::PName(word)
            } else {
                Token::Word(word)
            });
        }
        let second = |b: u8, two: &'static str, one: &'static str| {
            if bytes.get(1) == Some(&b) {
                two
            } else {
                one
            }
        };
        let punct = match first {
            b'.' => ".",
            b';' => ";",
            b',' => ",",
            b'{' => "{",
            b'}' => "}",
            b'(' => "(",
            b')' => ")",
            b'/' => "/",
            b'+' => "+",
            b'*' => "*",
            b'=' => "=",
            b'^' => second(b'^', "^^", "^"),
            b'|' => second(b'|', "||", "|"),
            b'!' => second(b'=', "!=", "!"),
            b'<' => second(b'=', "<=", "<"),
            b'>' => second(b'=', ">=", ">"),
            b'&' => second(b'&', "&&", ""),
            _ => "",
        };
        if punct.is_empty() {
            let c = rest.chars().next().expect("rest is not empty");
            return Err(self.error(format!("unexpected character '{c}'")));
        }
        self.pos += punct.len();
        Ok(Token::Punct(punct))
    }

    /// The string whose opening quote heads `rest`.
    fn scan_string(&mut self, rest: &'a str) -> Result<Token<'a>, ParseError> {
        let Some((end, escaped)) = string_end(rest.as_bytes()) else {
            self.pos = self.src.len();
            return Err(self.error("unterminated string literal"));
        };
        self.pos += end + 1;
        let body = &rest[1..end];
        if !escaped {
            return Ok(Token::Str(Cow::Borrowed(body)));
        }
        match term::unescape_literal(body) {
            Some(unescaped) => Ok(Token::Str(Cow::Owned(unescaped))),
            None => Err(self.error("bad escape sequence")),
        }
    }

    /// `token` as an IRI: an IRIREF's text, or `None` once a PNAME has been
    /// expanded onto the end of `buf`.
    fn iri_text(
        &self,
        token: Token<'a>,
        nss: &Namespaces,
        what: &str,
        buf: &mut String,
    ) -> Result<Option<&'a str>, ParseError> {
        match token {
            Token::Iri(iri) => Ok(Some(iri)),
            Token::PName(pname) if nss.expand_into(pname, buf) => Ok(None),
            Token::PName(pname) => Err(self.error(format!("unknown prefix in '{pname}'"))),
            other => Err(self.error(format!("expected {what}, got {other:?}"))),
        }
    }

    /// `name: <iri>`, what follows `@prefix` or `PREFIX`: bound in `nss`.
    pub fn prefix_binding(&mut self, nss: &mut Namespaces) -> Result<(), ParseError> {
        let Token::PName(name) = self.token()? else {
            return Err(self.error("expected prefix name after PREFIX"));
        };
        let prefix = name
            .strip_suffix(':')
            .ok_or_else(|| self.error("prefix must end with ':'"))?;
        let Token::Iri(iri) = self.token()? else {
            return Err(self.error("expected IRI after prefix name"));
        };
        nss.bind(prefix, iri);
        Ok(())
    }
}

/// The productions every syntax shares. Each returns a view that borrows
/// from the input (`'a`) where the input spells the term whole, and from the
/// caller's `buf` (`'b`) where it does not: a prefixed name expanded, an
/// escaped string body resolved, a prefixed datatype expanded. `buf` is
/// cleared first.
impl<'b, 'a: 'b> Lexer<'a> {
    fn iri_str(
        &self,
        token: Token<'a>,
        nss: &Namespaces,
        what: &str,
        buf: &'b mut String,
    ) -> Result<&'b str, ParseError> {
        buf.clear();
        let iri = self.iri_text(token, nss, what, buf)?;
        Ok(iri.unwrap_or(buf))
    }

    /// An IRI's text; `what` names the position in the error.
    pub(crate) fn iri(
        &mut self,
        nss: &Namespaces,
        what: &str,
        buf: &'b mut String,
    ) -> Result<&'b str, ParseError> {
        let token = self.token()?;
        self.iri_str(token, nss, what, buf)
    }

    /// A predicate: an IRI, or `a` for `rdf:type`.
    pub fn predicate(
        &mut self,
        nss: &Namespaces,
        buf: &'b mut String,
    ) -> Result<TermView<'b>, ParseError> {
        match self.token()? {
            Token::Word("a") => Ok(TermView::Iri(ns::RDF_TYPE)),
            other => self
                .iri_str(other, nss, "predicate", buf)
                .map(TermView::Iri),
        }
    }

    /// An IRI or a blank node.
    pub(crate) fn subject(
        &mut self,
        nss: &Namespaces,
        buf: &'b mut String,
    ) -> Result<TermView<'b>, ParseError> {
        match self.token()? {
            Token::Blank(label) => Ok(TermView::Blank(label)),
            other => self.iri_str(other, nss, "subject", buf).map(TermView::Iri),
        }
    }

    /// Any term: an IRI, a blank node, or a literal — a string with its
    /// optional `^^datatype` or `@lang`, a bare number (`xsd:double` if it
    /// has a fraction or an exponent, else `xsd:integer`), `true` or
    /// `false`. `what` names the position in the error.
    pub fn term(
        &mut self,
        nss: &Namespaces,
        what: &str,
        buf: &'b mut String,
    ) -> Result<TermView<'b>, ParseError> {
        let (lexical, datatype) = match self.token()? {
            Token::Blank(label) => return Ok(TermView::Blank(label)),
            Token::Number(n) => (n, term::numeric_datatype(n)),
            Token::Word(w @ ("true" | "false")) => (w, ns::XSD_BOOLEAN),
            Token::Str(body) => return self.string_literal(body, nss, buf),
            other => return self.iri_str(other, nss, what, buf).map(TermView::Iri),
        };
        Ok(TermView::Literal {
            lexical,
            datatype: Some(datatype),
            lang: None,
        })
    }

    /// The literal whose string `body` has just been read.
    fn string_literal(
        &mut self,
        body: Cow<'a, str>,
        nss: &Namespaces,
        buf: &'b mut String,
    ) -> Result<TermView<'b>, ParseError> {
        // An escaped body was resolved into a `String` of its own: it moves
        // into `buf`, and a prefixed datatype is spelled after it.
        let body = match body {
            Cow::Borrowed(body) => {
                buf.clear();
                Some(body)
            }
            Cow::Owned(body) => {
                *buf = body;
                None
            }
        };
        let body_len = buf.len();
        // `Some(None)`: a datatype spelled in `buf`.
        let mut datatype = None;
        let mut lang = None;
        if self.eat("^^")? {
            let token = self.token()?;
            datatype = Some(self.iri_text(token, nss, "datatype", buf)?);
        } else if let &Token::LangTag(tag) = self.peek()? {
            self.peeked = None;
            lang = Some(tag);
        }
        let buf: &'b String = buf;
        Ok(TermView::Literal {
            lexical: body.unwrap_or(&buf[..body_len]),
            datatype: datatype.map(|dt| dt.unwrap_or(&buf[body_len..])),
            lang,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{BlankNode, Iri, Literal, Term};

    fn tokens(src: &str) -> Result<Vec<Token<'_>>, ParseError> {
        let mut lex = Lexer::new(src);
        let mut out = Vec::new();
        loop {
            match lex.token()? {
                Token::Eof => return Ok(out),
                t => out.push(t),
            }
        }
    }

    #[test]
    fn every_terminal_once() {
        let src = "<urn:a> ex:b.c _:l.1. \"s\" @en-GB -1.5e+3 SELECT ?v $w ^^ ^ <= < # tail\n.";
        let p = Token::Punct;
        assert_eq!(
            tokens(src).unwrap(),
            vec![
                Token::Iri("urn:a"),
                Token::PName("ex:b.c"),
                Token::Blank("l.1"),
                p("."),
                Token::Str(Cow::Borrowed("s")),
                Token::LangTag("en-GB"),
                Token::Number("-1.5e+3"),
                Token::Word("SELECT"),
                Token::Var("v"),
                Token::Var("w"),
                p("^^"),
                p("^"),
                p("<="),
                p("<"),
                p("."),
            ]
        );
    }

    #[test]
    fn only_an_escaped_body_is_copied() {
        let mut lex = Lexer::new(r#""plain \u00e9 é" "a\"b\\c\n""#);
        assert!(matches!(lex.token(), Ok(Token::Str(Cow::Owned(s))) if s == "plain é é"));
        assert!(matches!(lex.token(), Ok(Token::Str(Cow::Owned(s))) if s == "a\"b\\c\n"));
        let mut lex = Lexer::new("\"WestSac—亚洲\"@zh");
        assert!(matches!(lex.token(), Ok(Token::Str(Cow::Borrowed("WestSac—亚洲")))));
        assert_eq!(lex.token(), Ok(Token::LangTag("zh")));
        for bad in ["\"open", "\"open\\", "\"bad \\q\"", "\"short \\u00\""] {
            assert!(tokens(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_number_is_an_integer_a_decimal_or_a_double() {
        for (src, len) in [
            ("0", 1),
            ("+5", 2),
            ("-17 ", 3),
            ("1.5", 3),
            ("1.", 1),
            ("1.e5", 1),
            ("1e5", 3),
            ("1E-5", 4),
            ("1.25e+10,", 8),
            ("5e", 1),
            ("5e+", 1),
            ("1.2.3", 3),
            ("1-2", 1),
            ("-", 0),
            ("+e1", 0),
            ("-.5", 0),
        ] {
            assert_eq!(number_len(src.as_bytes()), len, "{src}");
        }
    }

    #[test]
    fn an_angle_bracket_opens_an_iri_only_if_one_closes_it() {
        let p = Token::Punct;
        assert_eq!(tokens("<>").unwrap(), vec![Token::Iri("")]);
        assert_eq!(
            tokens("?v<3 && ?w>4").unwrap(),
            vec![Token::Var("v"), p("<"), Token::Number("3"), p("&&"), Token::Var("w"), p(">"), Token::Number("4")]
        );
        for held_back in [' ', '\n', '\t', '\u{0}', '<', '"', '{', '}', '|', '^', '`', '\\'] {
            let src = format!("<urn:a{held_back}b>");
            assert_ne!(tokens(&src).map(|t| t.len()), Ok(1), "{src:?}");
        }
    }

    #[test]
    fn the_line_is_counted_when_the_error_is_raised() {
        let mut lex = Lexer::new("<urn:a>\n  # comment\n\n  \u{1}");
        assert_eq!(lex.token(), Ok(Token::Iri("urn:a")));
        let e = lex.token().unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (4, "unexpected character '\u{1}'"));
        // An unterminated string has been scanned to the end of the input.
        assert_eq!(Lexer::new("\"a\nb\nc").token().unwrap_err().line, 3);
        // The lookahead token counts as scanned.
        let mut lex = Lexer::new("a\n\nb");
        lex.token().unwrap();
        lex.peek().unwrap();
        assert_eq!(lex.error("x").line, 3);
    }

    #[test]
    fn the_term_production() {
        let nss = Namespaces::standard();
        let mut lex = Lexer::new("\"5\"^^xsd:integer \"x\"@en \"p\" 7 2.5 true _:b <urn:i> prov:used \"x\"^^7 zzz:q");
        let mut buf = String::new();
        let mut next = || lex.term(&nss, "term", &mut buf).map(TermView::to_term);
        assert_eq!(next(), Ok(Literal::typed("5", Iri::new(ns::XSD_INTEGER)).into()));
        assert_eq!(next(), Ok(Literal::lang_tagged("x", "en").into()));
        assert_eq!(next(), Ok(Term::plain("p")));
        assert_eq!(next(), Ok(Literal::integer(7).into()));
        assert_eq!(next(), Ok(Literal::double(2.5).into()));
        assert_eq!(next(), Ok(Literal::boolean(true).into()));
        assert_eq!(next(), Ok(BlankNode::new("b").into()));
        assert_eq!(next(), Ok(Term::iri("urn:i")));
        assert_eq!(next(), Ok(Term::iri("http://www.w3.org/ns/prov#used")));
        assert_eq!(next().unwrap_err().message, "expected datatype, got Number(\"7\")");
        assert_eq!(next().unwrap_err().message, "unknown prefix in 'zzz:q'");
        assert_eq!(next().unwrap_err().message, "expected term, got Eof");
    }

    #[test]
    fn a_view_borrows_the_input_where_the_input_spells_the_term_whole() {
        let src = r#"<urn:i> _:b "p"^^<urn:dt> "q"@en 7 true prov:used "e\tx"^^xsd:integer "p"^^prov:T"#;
        let (nss, mut lex, mut buf) = (Namespaces::standard(), Lexer::new(src), String::new());
        // Per text of each view: in the input, in the buffer, or a static.
        for want in ["i", "i", "ii", "ii", "is", "is", "b", "bb", "ib"] {
            let spans: Vec<_> = match lex.term(&nss, "term", &mut buf).unwrap() {
                TermView::Iri(t) | TermView::Blank(t) => vec![t.as_bytes().as_ptr_range()],
                TermView::Literal {
                    lexical,
                    datatype,
                    lang,
                } => [Some(lexical), datatype, lang]
                    .into_iter()
                    .flatten()
                    .map(|t| t.as_bytes().as_ptr_range())
                    .collect(),
            };
            let inside = |text: &str, span: &std::ops::Range<*const u8>| {
                let whole = text.as_bytes().as_ptr_range();
                whole.start <= span.start && span.end <= whole.end
            };
            let got: String = spans
                .iter()
                .map(|span| match (inside(src, span), inside(&buf, span)) {
                    (true, _) => 'i',
                    (_, true) => 'b',
                    _ => 's',
                })
                .collect();
            assert_eq!(got, want, "{buf:?}");
        }
        let mut lex = Lexer::new("a ex:p");
        assert_eq!(lex.predicate(&nss, &mut buf), Ok(TermView::Iri(ns::RDF_TYPE)));
        assert_eq!(lex.predicate(&nss, &mut buf).unwrap_err().message, "unknown prefix in 'ex:p'");
    }
}
