//! Workload generators for the Propeller evaluation.
//!
//! Everything the paper's experiments feed into the systems under test:
//!
//! * [`NamespaceSpec`] — synthetic namespaces built the paper's way
//!   (duplicate well-known application file-sets with a scaling factor,
//!   §V-B), with log-normal file sizes and spread modification times;
//!   presets for the paper's datasets (138 k macOS image, 487 k laptop
//!   dataset, 89 k Ubuntu snapshot),
//! * [`FpsCopier`] — the background file-copy process at a fixed
//!   files-per-second intensity (Figures 1 and 11),
//! * [`MixedWorkload`] — the Figure 10 stream: updates with a search every
//!   `r` updates and background commits every `c` updates,
//! * [`ZipfTerms`] — Zipf-skewed keyword vocabularies for the ranked
//!   content-search (top-k postings) experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fps;
mod mixed;
mod namespace;
mod terms;

pub use fps::FpsCopier;
pub use mixed::{MixedOp, MixedWorkload};
pub use namespace::NamespaceSpec;
pub use terms::ZipfTerms;
