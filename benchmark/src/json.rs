//! JSON output. The vendored `serde_json` parses but has no serializer, so
//! results are built as a small value tree and rendered here; parsing (the
//! A/A run reading its children's result lines) uses `serde_json::from_str`.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered, so output files read in the order they were built.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn num(n: f64) -> Json {
        Json::Num(n)
    }

    pub fn obj<K: Into<String>>(fields: Vec<(K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// One line, no spaces after separators beyond `", "` / `": "`.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces per level.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&serde_json::escape_str(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() { "," } else { ", " });
                    }
                    newline(out, depth + 1);
                    let _ = write!(out, "\"{}\": ", serde_json::escape_str(k));
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Numbers print with all their digits (Rust's shortest round-trip form);
/// whole numbers print without a fraction; non-finite values become null.
fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_round_trips_through_the_parser() {
        let j = Json::obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", Json::num(1000.0)),
            (
                "m",
                Json::obj(vec![("x", Json::num(1.2034)), ("s", Json::str("a\"b"))]),
            ),
            ("a", Json::Arr(vec![Json::Null, Json::num(-2.5)])),
        ]);
        let line = j.line();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "m": {"x": 1.2034, "s": "a\"b"}, "a": [null, -2.5]}"#
        );
        assert!(!line.contains('\n'));
        for text in [line, j.pretty()] {
            let v = serde_json::from_str(&text).expect("parses");
            assert_eq!(v["attempted"], 1000);
            assert_eq!(v["m"]["s"], "a\"b");
            assert_eq!(v["a"][1], -2.5);
        }
    }
}
