//! Correctness gates, run after the load phase and never timed.

use crate::drive::Diagnosed;
use crate::inputs::{self, Inputs};
use crate::stats::median;
use medsen::cloud::service::Response;
use medsen::cloud::wire::response_to_bytes;
use medsen::cloud::{AnalysisServer, PeakReport};

/// Bit-identical comparison of two peak reports, through their canonical
/// binary encoding (every float compared by its bits).
pub fn same_report(a: &PeakReport, b: &PeakReport) -> bool {
    let bytes = |report: &PeakReport| {
        response_to_bytes(&Response::Analyzed {
            report: report.clone(),
            auth: None,
            stored_as: None,
        })
    };
    bytes(a) == bytes(b)
}

/// Recomputes every diagnosed trace with `AnalysisServer::analyze` and
/// returns the diagnoses whose reply differs from it.
pub fn oracle_mismatches(inputs: &Inputs, diagnosed: &[Diagnosed]) -> Vec<usize> {
    let server = AnalysisServer::paper_default();
    let half = diagnosed.len().div_ceil(2).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = diagnosed
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter(|d| {
                            let original = inputs.diagnoses[d.input].trace();
                            let expected = if d.reuse == 0 {
                                server.analyze(original)
                            } else {
                                server.analyze(&inputs::perturbed(original, d.reuse))
                            };
                            !same_report(&expected, &d.report)
                        })
                        .map(|d| d.input)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread"))
            .collect()
    })
}

/// Median |decoded − true| / true over diagnoses of at least one particle,
/// in percent.
pub fn count_error_pct(inputs: &Inputs, diagnosed: &[Diagnosed]) -> f64 {
    let errors: Vec<f64> = diagnosed
        .iter()
        .filter_map(|d| {
            let truth = inputs.diagnoses[d.input].true_total as f64;
            (truth > 0.0).then(|| (d.decoded as f64 - truth).abs() / truth * 100.0)
        })
        .collect();
    if errors.is_empty() {
        0.0
    } else {
        median(&errors)
    }
}
