//! Common run description and result types.

use provio::ProvIoConfig;
use provio_simrt::SimDuration;
use std::sync::Arc;

/// How a workflow run is instrumented.
#[derive(Clone)]
pub enum ProvMode {
    /// No provenance (the grey baseline bars).
    Off,
    /// PROV-IO with the given configuration (selector preset etc.).
    ProvIo(Arc<ProvIoConfig>),
    /// The ProvLake baseline (Top Reco only — ProvLake has no C/C++
    /// support, paper §6.4).
    ProvLake,
}

impl ProvMode {
    pub fn provio(cfg: ProvIoConfig) -> Self {
        ProvMode::ProvIo(cfg.shared())
    }

    pub(crate) fn is_off(&self) -> bool {
        matches!(self, ProvMode::Off)
    }

    pub fn name(&self) -> &'static str {
        match self {
            ProvMode::Off => "baseline",
            ProvMode::ProvIo(_) => "prov-io",
            ProvMode::ProvLake => "provlake",
        }
    }
}

/// What every workflow run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMetrics {
    /// Virtual completion time (max over all participating ranks/nodes).
    pub completion: SimDuration,
    /// Total provenance bytes on the parallel file system.
    pub prov_bytes: u64,
    /// Number of per-process provenance files.
    pub prov_files: usize,
    /// Total tracked I/O events across processes.
    pub tracked_events: u64,
}

impl RunMetrics {
    /// Relative overhead of this run vs. `baseline` completion time.
    pub fn overhead_vs(&self, baseline: &RunMetrics) -> f64 {
        let b = baseline.completion.as_secs_f64();
        if b == 0.0 {
            return 0.0;
        }
        (self.completion.as_secs_f64() - b) / b
    }

    /// Normalized completion time (baseline = 1.0).
    pub fn normalized_vs(&self, baseline: &RunMetrics) -> f64 {
        1.0 + self.overhead_vs(baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        let base = RunMetrics {
            completion: SimDuration::from_secs(100),
            prov_bytes: 0,
            prov_files: 0,
            tracked_events: 0,
        };
        let tracked = RunMetrics {
            completion: SimDuration::from_secs(103),
            prov_bytes: 1024,
            prov_files: 4,
            tracked_events: 99,
        };
        assert!((tracked.overhead_vs(&base) - 0.03).abs() < 1e-9);
        assert!((tracked.normalized_vs(&base) - 1.03).abs() < 1e-9);
    }

    #[test]
    fn mode_names() {
        assert_eq!(ProvMode::Off.name(), "baseline");
        assert!(ProvMode::Off.is_off());
        assert_eq!(ProvMode::ProvLake.name(), "provlake");
        assert_eq!(
            ProvMode::provio(ProvIoConfig::default()).name(),
            "prov-io"
        );
    }
}
