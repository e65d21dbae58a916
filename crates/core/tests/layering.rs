//! Imports point down: every `crate::<module>` named by non-test code
//! under `src/` goes from a higher layer to a strictly lower one.

use std::fs;
use std::path::Path;

/// The layers, lowest first; modules on one line may not name each other.
/// `engine` works on a merged graph alone, so it sits where it can name
/// nothing.
const LAYERS: &[&[&str]] = &[
    &["config", "engine"],
    &["names"],
    &["frame", "fsio"],
    &["artifact"],
    &["store"],
    &["merge", "scrub"],
    &["verify"],
    &["collect"],
    &["tracker"],
    &["report"],
    &["recover"],
    &["connector", "wrapper"],
    &["api"],
];

fn rank(module: &str) -> Option<usize> {
    LAYERS.iter().position(|layer| layer.contains(&module))
}

fn sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The modules a line names through `crate::`, `crate::{a, b::c}` included.
fn named(line: &str) -> Vec<&str> {
    let ident = |s: &str| s.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(s.len());
    let mut out = Vec::new();
    for (at, _) in line.match_indices("crate::") {
        let rest = &line[at + "crate::".len()..];
        match rest.strip_prefix('{') {
            Some(group) => {
                let group = &group[..group.find('}').unwrap_or(group.len())];
                out.extend(group.split(',').map(str::trim).map(|item| &item[..ident(item)]));
            }
            None => out.push(&rest[..ident(rest)]),
        }
    }
    out.retain(|m| !m.is_empty());
    out
}

#[test]
fn imports_point_down() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = Vec::new();
    sources(&src, &mut files);
    files.sort();
    let mut edges = 0;
    let mut upward = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(&src).unwrap();
        // `store/parity.rs` and `store.rs` are both the module `store`;
        // `lib.rs` only re-exports.
        let from = rel.iter().next().unwrap().to_str().unwrap().trim_end_matches(".rs");
        if from == "lib" {
            continue;
        }
        let from_rank = rank(from).unwrap_or_else(|| panic!("{from}: add the module to LAYERS"));
        let text = fs::read_to_string(file).unwrap();
        let code = &text[..text.rfind("#[cfg(test)]").unwrap_or(text.len())];
        for (n, line) in code.lines().enumerate() {
            if line.trim_start().starts_with("//") {
                continue;
            }
            for to in named(line).into_iter().filter(|&to| to != from) {
                edges += 1;
                let to_rank = rank(to).unwrap_or_else(|| panic!("{to}: add the module to LAYERS"));
                if to_rank >= from_rank {
                    upward.push(format!("{}:{}: {from} -> {to}", rel.display(), n + 1));
                }
            }
        }
    }
    assert!(edges > 30, "the scan found only {edges} edges: it no longer reads the sources");
    assert!(upward.is_empty(), "imports that do not point down:\n{}", upward.join("\n"));
}

#[test]
fn the_scan_reads_both_import_spellings() {
    assert_eq!(named("use crate::frame::{self, FrameKind};"), ["frame"]);
    assert_eq!(named("    use crate::{scrub, verify::RootCache};"), ["scrub", "verify"]);
    assert_eq!(named("let x = crate::names::parse(p); crate::fsio::copies(fs, p)"), ["names", "fsio"]);
    assert!(named("use super::parity::ParityGroup;").is_empty());
}
