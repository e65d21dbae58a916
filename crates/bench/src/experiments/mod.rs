//! One runner per paper artifact. See DESIGN.md §5 for the experiment
//! index and EXPERIMENTS.md for recorded paper-vs-measured outcomes.

pub mod dags;
pub mod fig6a7a;
pub mod fig6b7b;
pub mod fig8;
pub mod fig9;
pub mod h5bench_figs;
pub mod tables;

use crate::report::Report;
use crate::scale::Scale;

/// All experiment ids, in paper order.
pub const ALL_IDS: [&str; 13] = [
    "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig7a", "fig7b", "fig7c", "fig7d", "fig7e",
    "fig8", "fig9", "tables",
];

/// The runner of one experiment id (figures 6/7 run in pairs because one
/// sweep yields both time and storage); it returns every report the id
/// produces. `None` for an id no experiment answers to, so a caller can
/// reject a typo before anything runs.
pub fn runner(id: &str) -> Option<fn(Scale) -> Vec<Report>> {
    use provio_workflows::h5bench::IoPattern;
    Some(match id {
        "fig6a" | "fig7a" => fig6a7a::run,
        "fig6b" | "fig7b" => fig6b7b::run,
        "fig6c" | "fig7c" => |scale| h5bench_figs::run_pattern(scale, IoPattern::WriteRead),
        "fig6d" | "fig7d" => {
            |scale| h5bench_figs::run_pattern(scale, IoPattern::WriteOverwriteRead)
        }
        "fig6e" | "fig7e" => |scale| h5bench_figs::run_pattern(scale, IoPattern::WriteAppendRead),
        "fig8" => fig8::run,
        "fig9" => fig9::run,
        "tables" | "tab3" | "tab4" | "tab5" => tables::run,
        "dags" | "fig1" | "fig3" => |_| dags::run(),
        _ => return None,
    })
}
