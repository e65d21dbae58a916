//! RDF terms: IRIs, blank nodes, and literals.
//!
//! Terms are cheap to clone (`Arc<str>` payloads) because the tracker clones
//! the same subject/predicate terms into many triples on the hot path.

use crate::namespace::ns;
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// An IRI (used for named nodes and predicates).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Iri(Arc<str>);

impl Iri {
    pub fn new(iri: impl Into<Arc<str>>) -> Self {
        Iri(iri.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Iri {
    fn from(s: &str) -> Self {
        Iri::new(s)
    }
}

impl From<String> for Iri {
    fn from(s: String) -> Self {
        Iri::new(s)
    }
}

/// A blank (anonymous) node with a document-scoped label.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlankNode(Arc<str>);

impl BlankNode {
    pub fn new(label: impl Into<Arc<str>>) -> Self {
        BlankNode(label.into())
    }

    pub fn label(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// A literal: lexical form plus an optional datatype IRI or language tag.
///
/// Exactly one of `datatype`/`lang` may be set; a plain literal has neither
/// (it is implicitly `xsd:string`, which we do not materialize, matching
/// Turtle's compact form).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    lexical: Arc<str>,
    datatype: Option<Iri>,
    lang: Option<Arc<str>>,
}

impl Literal {
    /// A plain string literal.
    pub fn plain(lexical: impl Into<Arc<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            lang: None,
        }
    }

    /// A literal with an explicit datatype.
    pub fn typed(lexical: impl Into<Arc<str>>, datatype: Iri) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: Some(datatype),
            lang: None,
        }
    }

    /// A language-tagged string.
    pub fn lang_tagged(lexical: impl Into<Arc<str>>, lang: impl Into<Arc<str>>) -> Self {
        Literal {
            lexical: lexical.into(),
            datatype: None,
            lang: Some(lang.into()),
        }
    }

    /// An `xsd:integer` literal: digits formatted on the stack, so the
    /// lexical `Arc<str>` is the only allocation.
    pub fn integer(v: i64) -> Self {
        let mut buf = [0u8; 20];
        Literal::typed(fmt_i64(v, &mut buf), xsd().integer.clone())
    }

    /// An `xsd:double` literal.
    pub fn double(v: f64) -> Self {
        Literal::typed(format!("{v:?}"), xsd().double.clone())
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(v: bool) -> Self {
        Literal::typed(if v { "true" } else { "false" }, xsd().boolean.clone())
    }

    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    pub fn datatype(&self) -> Option<&Iri> {
        self.datatype.as_ref()
    }

    pub fn lang(&self) -> Option<&str> {
        self.lang.as_deref()
    }

    /// Parse the lexical form as an integer if the datatype is numeric (or
    /// absent and the form happens to parse).
    pub fn as_i64(&self) -> Option<i64> {
        self.lexical.parse().ok()
    }

    /// Parse the lexical form as a double.
    pub fn as_f64(&self) -> Option<f64> {
        self.lexical.parse().ok()
    }
}

/// The three datatype IRIs the typed constructors share.
struct Xsd {
    integer: Iri,
    double: Iri,
    boolean: Iri,
}

fn xsd() -> &'static Xsd {
    static XSD: OnceLock<Xsd> = OnceLock::new();
    XSD.get_or_init(|| Xsd {
        integer: Iri::new(ns::XSD_INTEGER),
        double: Iri::new(ns::XSD_DOUBLE),
        boolean: Iri::new(ns::XSD_BOOLEAN),
    })
}

/// The datatype of a bare number in Turtle or SPARQL: `xsd:double` if it
/// has a fraction or an exponent, else `xsd:integer`.
pub(crate) fn numeric_datatype(number: &str) -> &'static str {
    if number.contains(['.', 'e', 'E']) {
        ns::XSD_DOUBLE
    } else {
        ns::XSD_INTEGER
    }
}

/// `iri` as a datatype: the shared `Iri` when it is one the typed
/// constructors use, so a parsed numeric literal is one allocation, as a
/// captured one is.
pub(crate) fn datatype(iri: &str) -> Iri {
    let xsd = xsd();
    [&xsd.integer, &xsd.double, &xsd.boolean]
        .into_iter()
        .find(|shared| shared.as_str() == iri)
        .cloned()
        .unwrap_or_else(|| Iri::new(iri))
}

/// Decimal spelling of `v` (as `i64::to_string` writes it) in `buf`.
fn fmt_i64(v: i64, buf: &mut [u8; 20]) -> &str {
    let mut n = v.unsigned_abs();
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        write_escaped(f, &self.lexical)?;
        f.write_char('"')?;
        if let Some(dt) = &self.datatype {
            write!(f, "^^{}", dt)?;
        } else if let Some(lang) = &self.lang {
            write!(f, "@{}", lang)?;
        }
        Ok(())
    }
}

/// Escape a literal's lexical form for Turtle/N-Triples double-quoted strings.
pub fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

/// [`escape_literal`] appended to a caller's buffer.
fn push_escaped(out: &mut String, s: &str) {
    write_escaped(out, s).expect("writing to a String");
}

/// Append a term's spelling to a caller's buffer. Turtle and N-Triples
/// agree on everything but how an IRI (a datatype's included) is written,
/// which is `push_iri`'s job.
pub(crate) fn push_term(out: &mut String, t: &Term, push_iri: impl Fn(&mut String, &Iri)) {
    match t {
        Term::Iri(i) => push_iri(out, i),
        Term::Blank(b) => out.extend(["_:", b.label()]),
        Term::Literal(l) => {
            out.push('"');
            push_escaped(out, l.lexical());
            out.push('"');
            if let Some(dt) = l.datatype() {
                out.push_str("^^");
                push_iri(out, dt);
            } else if let Some(lang) = l.lang() {
                out.extend(["@", lang]);
            }
        }
    }
}

/// [`escape_literal`] into a writer: the stretches between escaped
/// characters go out whole.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut rest = s;
    while let Some(at) = rest.find(['"', '\\', '\n', '\r', '\t']) {
        out.write_str(&rest[..at])?;
        out.write_str(match rest.as_bytes()[at] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            _ => "\\t",
        })?;
        rest = &rest[at + 1..];
    }
    out.write_str(rest)
}

/// Unescape a double-quoted string body. Returns `None` on a malformed
/// escape sequence.
pub fn unescape_literal(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let v = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(v)?);
            }
            'U' => {
                let hex: String = chars.by_ref().take(8).collect();
                if hex.len() != 8 {
                    return None;
                }
                let v = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(v)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// A borrowed, allocation-free view of a [`Term`], used as a lookup key.
///
/// The graph's interner keys its id table on hashes of `TermView`s rather
/// than owned [`Term`]s, so hot-path lookups (`Graph::insert` on an
/// already-interned term, `Graph::contains`, pattern matching) never clone
/// an `Arc` chain just to build a key. A view can be taken from a `Term`, a
/// [`Subject`], or a bare [`Iri`] without touching any refcount — or read
/// straight off a document by [`crate::lex`], and interned by
/// `Graph::intern_view`, which builds the owned term only on first sight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermView<'a> {
    Iri(&'a str),
    Blank(&'a str),
    Literal {
        lexical: &'a str,
        datatype: Option<&'a str>,
        lang: Option<&'a str>,
    },
}

impl<'a> TermView<'a> {
    pub fn of(t: &'a Term) -> Self {
        match t {
            Term::Iri(i) => TermView::Iri(i.as_str()),
            Term::Blank(b) => TermView::Blank(b.label()),
            Term::Literal(l) => TermView::Literal {
                lexical: l.lexical(),
                datatype: l.datatype().map(Iri::as_str),
                lang: l.lang(),
            },
        }
    }

    pub fn of_subject(s: &'a Subject) -> Self {
        match s {
            Subject::Iri(i) => TermView::Iri(i.as_str()),
            Subject::Blank(b) => TermView::Blank(b.label()),
        }
    }

    pub fn of_iri(i: &'a Iri) -> Self {
        TermView::Iri(i.as_str())
    }

    /// Does this view denote the same RDF term as `t`?
    pub fn matches(self, t: &Term) -> bool {
        self == TermView::of(t)
    }

    /// The owned term. A datatype the typed constructors use is their
    /// shared `Iri`, so a numeric literal is one allocation.
    pub fn to_term(self) -> Term {
        match self {
            TermView::Iri(iri) => Term::iri(iri),
            TermView::Blank(label) => Term::Blank(BlankNode::new(label)),
            TermView::Literal {
                lexical,
                datatype: Some(dt),
                ..
            } => Literal::typed(lexical, datatype(dt)).into(),
            TermView::Literal {
                lexical,
                lang: Some(lang),
                ..
            } => Literal::lang_tagged(lexical, lang).into(),
            TermView::Literal { lexical, .. } => Term::plain(lexical),
        }
    }
}

impl std::hash::Hash for TermView<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            TermView::Iri(s) => {
                state.write_u8(0);
                state.write(s.as_bytes());
            }
            TermView::Blank(s) => {
                state.write_u8(1);
                state.write(s.as_bytes());
            }
            TermView::Literal {
                lexical,
                datatype,
                lang,
            } => {
                state.write_u8(2);
                state.write(lexical.as_bytes());
                state.write_u8(3);
                if let Some(dt) = datatype {
                    state.write(dt.as_bytes());
                }
                state.write_u8(4);
                if let Some(l) = lang {
                    state.write(l.as_bytes());
                }
            }
        }
    }
}

/// A triple subject: an IRI or a blank node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Subject {
    Iri(Iri),
    Blank(BlankNode),
}

impl Subject {
    pub fn iri(s: impl Into<Arc<str>>) -> Self {
        Subject::Iri(Iri::new(s))
    }

    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Subject::Iri(i) => Some(i),
            Subject::Blank(_) => None,
        }
    }
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::Iri(i) => i.fmt(f),
            Subject::Blank(b) => b.fmt(f),
        }
    }
}

impl From<Iri> for Subject {
    fn from(i: Iri) -> Self {
        Subject::Iri(i)
    }
}

impl From<BlankNode> for Subject {
    fn from(b: BlankNode) -> Self {
        Subject::Blank(b)
    }
}

/// Any RDF term (the object position admits all three kinds).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    Iri(Iri),
    Blank(BlankNode),
    Literal(Literal),
}

impl Term {
    pub fn iri(s: impl Into<Arc<str>>) -> Self {
        Term::Iri(Iri::new(s))
    }

    pub fn plain(s: impl Into<Arc<str>>) -> Self {
        Term::Literal(Literal::plain(s))
    }

    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    pub fn as_subject(&self) -> Option<Subject> {
        match self {
            Term::Iri(i) => Some(Subject::Iri(i.clone())),
            Term::Blank(b) => Some(Subject::Blank(b.clone())),
            Term::Literal(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => i.fmt(f),
            Term::Blank(b) => b.fmt(f),
            Term::Literal(l) => l.fmt(f),
        }
    }
}

impl From<Iri> for Term {
    fn from(i: Iri) -> Self {
        Term::Iri(i)
    }
}

impl From<BlankNode> for Term {
    fn from(b: BlankNode) -> Self {
        Term::Blank(b)
    }
}

impl From<Literal> for Term {
    fn from(l: Literal) -> Self {
        Term::Literal(l)
    }
}

impl From<Subject> for Term {
    fn from(s: Subject) -> Self {
        match s {
            Subject::Iri(i) => Term::Iri(i),
            Subject::Blank(b) => Term::Blank(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_display_wraps_in_angles() {
        assert_eq!(Iri::new("http://x/a").to_string(), "<http://x/a>");
    }

    #[test]
    fn blank_display() {
        assert_eq!(BlankNode::new("b1").to_string(), "_:b1");
    }

    #[test]
    fn plain_literal_display() {
        assert_eq!(Literal::plain("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn typed_literal_display() {
        assert_eq!(
            Literal::integer(42).to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }

    #[test]
    fn typed_constructors_pin_their_spellings() {
        for v in [0, 7, -7, 42, i64::MAX, i64::MIN] {
            assert_eq!(Literal::integer(v).lexical(), v.to_string());
        }
        assert_eq!(
            Literal::boolean(true).to_string(),
            "\"true\"^^<http://www.w3.org/2001/XMLSchema#boolean>"
        );
        assert_eq!(
            Literal::double(0.875).to_string(),
            "\"0.875\"^^<http://www.w3.org/2001/XMLSchema#double>"
        );
        // One shared datatype IRI, not a fresh one per literal.
        let (a, b) = (Literal::integer(1), Literal::integer(2));
        assert!(std::ptr::eq(
            a.datatype().unwrap().as_str(),
            b.datatype().unwrap().as_str()
        ));
    }

    #[test]
    fn lang_literal_display() {
        assert_eq!(
            Literal::lang_tagged("chat", "fr").to_string(),
            "\"chat\"@fr"
        );
    }

    #[test]
    fn escape_round_trip() {
        let nasty = "a\"b\\c\nd\te\rf";
        let escaped = escape_literal(nasty);
        assert!(!escaped.contains('\n'));
        assert_eq!(unescape_literal(&escaped).unwrap(), nasty);
    }

    #[test]
    fn unescape_unicode() {
        assert_eq!(unescape_literal("\\u0041").unwrap(), "A");
        assert_eq!(unescape_literal("\\U0001F600").unwrap(), "😀");
        assert!(unescape_literal("\\u00").is_none());
        assert!(unescape_literal("\\q").is_none());
    }

    #[test]
    fn literal_numeric_accessors() {
        assert_eq!(Literal::integer(-7).as_i64(), Some(-7));
        assert_eq!(Literal::double(1.5).as_f64(), Some(1.5));
        assert_eq!(Literal::plain("x").as_i64(), None);
    }

    #[test]
    fn term_subject_conversions() {
        let t = Term::iri("http://x/a");
        assert_eq!(t.as_subject(), Some(Subject::iri("http://x/a")));
        assert!(Term::plain("lit").as_subject().is_none());
    }

    #[test]
    fn double_formatting_preserves_value() {
        // `{:?}` on f64 prints enough digits to round-trip.
        let l = Literal::double(0.1 + 0.2);
        assert_eq!(l.as_f64().unwrap(), 0.1 + 0.2);
    }
}
