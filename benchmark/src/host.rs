//! Host facts recorded with every result file: timings from a 2-core shared
//! sandbox and from a workstation are not comparable, and the file should
//! say which it was.

use crate::json::Json;
use std::path::Path;
use std::process::{Command, Stdio};

/// First line a command prints, or "unknown". Run from the checkout root,
/// and git may not look for a repository above it.
fn command_line(program: &str, args: &[&str]) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    Command::new(program)
        .args(args)
        .current_dir(root)
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, CPU model, rustc, commit. The commit is "unknown" in a checkout
/// that is not a git repository.
pub fn facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::num(nproc as f64)),
        ("cpu", Json::str(cpu_model())),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}
