//! Shared scaffolding of the benchmark harness: experiment scales and
//! factory helpers used by the Criterion benches and the `repro` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod service;

use compmem::experiment::{Experiment, ExperimentConfig, PaperFlowOutcome, RunOutcome};
use compmem::CoreError;
use compmem_cache::CacheConfig;
use compmem_workloads::apps::{
    jpeg_canny_app, mpeg2_app, Application, JpegCannyParams, Mpeg2Params,
};

/// How large an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale pictures on the paper's 512 KB L2 (used by `repro` to
    /// regenerate the paper's tables and figures; docs/ARCHITECTURE.md,
    /// "Paper figures/tables → code", maps each to its code).
    Paper,
    /// Reduced pictures on a 64 KB L2 (used by the Criterion benches and CI).
    Small,
    /// Miniature pictures on a 32 KB L2 (used by smoke tests and the CI run
    /// of the `compmem` record/replay CLI).
    Tiny,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "paper" => Some(Scale::Paper),
            "small" => Some(Scale::Small),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    /// The experiment configuration of this scale.
    pub fn config(self) -> ExperimentConfig {
        match self {
            Scale::Paper => ExperimentConfig::default(),
            Scale::Small => ExperimentConfig {
                l2: CacheConfig::with_size_bytes(64 * 1024, 4).expect("valid geometry"),
                sets_per_unit: 4,
                ..ExperimentConfig::default()
            },
            Scale::Tiny => ExperimentConfig {
                l2: CacheConfig::with_size_bytes(32 * 1024, 4).expect("valid geometry"),
                sets_per_unit: 2,
                ..ExperimentConfig::default()
            },
        }
    }

    /// Parameters of the "two JPEG decoders + Canny" application at this
    /// scale.
    pub fn jpeg_canny_params(self) -> JpegCannyParams {
        match self {
            Scale::Paper => JpegCannyParams::paper_scale(),
            Scale::Small => JpegCannyParams {
                jpeg1: (96, 64),
                jpeg2: (64, 48),
                canny: (80, 64),
                threshold: 60,
                seed: 2005,
            },
            Scale::Tiny => JpegCannyParams::tiny(),
        }
    }

    /// Parameters of the MPEG-2 application at this scale.
    pub fn mpeg2_params(self) -> Mpeg2Params {
        match self {
            Scale::Paper => Mpeg2Params::paper_scale(),
            Scale::Small => Mpeg2Params {
                width: 96,
                height: 64,
                pictures: 2,
                seed: 2005,
            },
            Scale::Tiny => Mpeg2Params::tiny(),
        }
    }

    /// The larger shared L2 used for the paper's extra MPEG-2 data point
    /// (1 MB at paper scale).
    pub fn large_l2(self) -> CacheConfig {
        match self {
            Scale::Paper => CacheConfig::paper_l2_1mb(),
            Scale::Small => CacheConfig::with_size_bytes(128 * 1024, 4).expect("valid geometry"),
            Scale::Tiny => CacheConfig::with_size_bytes(64 * 1024, 4).expect("valid geometry"),
        }
    }
}

/// Builds the experiment driver for the first application (2 JPEG + Canny).
pub fn jpeg_canny_experiment(scale: Scale) -> Experiment<impl Fn() -> Application> {
    let params = scale.jpeg_canny_params();
    Experiment::new(scale.config(), move || {
        jpeg_canny_app(&params).expect("application parameters are valid")
    })
}

/// Builds the experiment driver for the second application (MPEG-2).
pub fn mpeg2_experiment(scale: Scale) -> Experiment<impl Fn() -> Application> {
    let params = scale.mpeg2_params();
    Experiment::new(scale.config(), move || {
        mpeg2_app(&params).expect("application parameters are valid")
    })
}

/// Runs the full paper flow for the first application.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn run_jpeg_canny_flow(scale: Scale) -> Result<PaperFlowOutcome, CoreError> {
    jpeg_canny_experiment(scale).run_paper_flow()
}

/// Runs the full paper flow for the second application.
///
/// # Errors
///
/// Propagates experiment errors.
pub fn run_mpeg2_flow(scale: Scale) -> Result<PaperFlowOutcome, CoreError> {
    mpeg2_experiment(scale).run_paper_flow()
}

/// The three independent ablation runs of one application, executed in
/// parallel worker threads through the shared `Box<dyn CacheModel>` path.
#[derive(Debug, Clone)]
pub struct OrganizationSweep {
    /// Conventional shared cache at the scale's L2 size.
    pub shared: RunOutcome,
    /// Column-caching baseline (ways split evenly over all entities).
    pub way_partitioned: RunOutcome,
    /// Shared cache at the scale's larger comparison size.
    pub large_shared: RunOutcome,
}

/// Runs the shared, way-partitioned and larger-shared runs of the
/// "two JPEG decoders + Canny" application concurrently.
///
/// # Errors
///
/// Propagates the first error of any run.
pub fn jpeg_canny_organization_sweep(scale: Scale) -> Result<OrganizationSweep, CoreError> {
    let experiment = jpeg_canny_experiment(scale);
    let specs = vec![
        experiment.shared_spec(),
        experiment.way_partitioned_spec(),
        experiment.shared_spec_with_l2(scale.large_l2()),
    ];
    let mut results = experiment.run_all(&specs).into_iter();
    Ok(OrganizationSweep {
        shared: results.next().expect("three specs in")?,
        way_partitioned: results.next().expect("three specs in")?,
        large_shared: results.next().expect("three specs in")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_and_produce_configs() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("tiny"), Some(Scale::Tiny));
        assert_eq!(Scale::parse("huge"), None);
        assert_eq!(Scale::Paper.config().sets_per_unit, 16);
        assert_eq!(Scale::Small.config().sets_per_unit, 4);
        assert_eq!(Scale::Tiny.config().sets_per_unit, 2);
        assert!(Scale::Small.jpeg_canny_params().jpeg1.0 < JpegCannyParams::paper_scale().jpeg1.0);
        assert_eq!(Scale::Paper.large_l2().geometry().size_bytes(), 1024 * 1024);
    }
}
