//! The six trajectory similarity measures REPOSE supports (Sections II and
//! VI of the paper): Hausdorff, Frechet, DTW, LCSS, EDR, and ERP.
//!
//! Besides the plain pairwise distances, this crate exposes the *incremental
//! column kernels* that the RP-Trie search uses to evaluate lower bounds in
//! `O(m)` per trie node (Section IV-C, Algorithm 1): when a reference
//! trajectory grows by one point, only one new column of the distance matrix
//! has to be computed, given the parent node's intermediate results.
//!
//! ```
//! use repose_distance::{hausdorff, Measure, MeasureParams};
//! use repose_model::Point;
//!
//! let a = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
//! let b = vec![Point::new(0.0, 3.0), Point::new(1.0, 3.0)];
//! assert_eq!(hausdorff(&a, &b), 3.0);
//!
//! // The uniform entry point used by the index: measure + params.
//! let params = MeasureParams::with_eps(0.5);
//! assert_eq!(params.distance(Measure::Hausdorff, &a, &b), 3.0);
//! assert!(Measure::Hausdorff.is_metric());
//! assert!(!Measure::Dtw.is_metric());
//!
//! // Threshold-aware verification: the early-abandoning kernel returns the
//! // exact distance below the threshold and refutes the candidate (usually
//! // far cheaper than the full kernel) at or above it.
//! assert_eq!(params.distance_within(Measure::Hausdorff, &a, &b, 5.0), Some(3.0));
//! assert_eq!(params.distance_within(Measure::Hausdorff, &a, &b, 2.0), None);
//! ```

#![warn(missing_docs)]

pub mod backend;
mod dtw;
mod edr;
mod erp;
mod frechet;
mod hausdorff;
mod lcss;
mod measure;
pub mod reference;
mod scratch;
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd;
mod summary;
pub mod within;

pub use backend::{active_backend, available_backends, force_backend, Backend};
pub use dtw::{dtw, dtw_in, DtwColumn};
pub use edr::{edr, edr_in};
pub use erp::{erp, erp_in};
pub use frechet::{frechet, frechet_in, FrechetColumn};
pub use hausdorff::{directed_hausdorff, hausdorff, hausdorff_in, HausdorffState};
pub use lcss::{lcss_distance, lcss_distance_in, lcss_length, lcss_length_in};
pub use measure::{Measure, MeasureParams, RefineCand, RefineEvent, BATCH_LANES};
pub use scratch::DistScratch;
pub use summary::TrajSummary;
pub use within::{
    bound_exceeds, dtw_within, dtw_within_in, edr_within, edr_within_in, erp_within,
    erp_within_in, frechet_within, frechet_within_in, hausdorff_within, hausdorff_within_in,
    just_above, lcss_distance_within, lcss_distance_within_in, prefilter_rejects, RunningTopK,
    ThresholdSource,
};
