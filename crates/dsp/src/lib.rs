//! # dsi-dsp — signal-processing substrate
//!
//! Everything the stream-summarization layer of the paper needs, built from
//! scratch:
//!
//! * [`complex::Complex64`] — complex arithmetic;
//! * [`dft`] — the unitary DFT / inverse DFT reference (paper Eq. 3/4) and
//!   prefix reconstruction (Eq. 7);
//! * [`sliding::SlidingDft`] — the O(1)-per-coefficient incremental update
//!   (Eq. 5) that makes per-item processing feasible;
//! * [`mod@normalize`] — z-normalization (Eq. 1) and unit-norm normalization
//!   (Eq. 2) plus incremental window statistics;
//! * [`features`] — truncated-DFT stream summaries with the lower-bounding
//!   distance (Eq. 9) that guarantees no false dismissals;
//! * [`window::SlidingWindow`] — the sliding-window data model (§III-A);
//! * [`mbr::Mbr`] — feature-space minimum bounding rectangles (§IV-G);
//! * [`wavelet`] — the Haar-wavelet alternative summarizer the paper cites
//!   (STARDUST, reference \[6\]).

#![warn(missing_docs)]

pub mod complex;
pub mod dft;
pub mod features;
pub mod kernel;
pub mod mbr;
pub mod normalize;
pub mod sliding;
pub mod wavelet;
pub mod window;

pub use complex::Complex64;
pub use features::{
    extract_features, normalized_distance, FeatureExtractor, FeatureVector, SummaryScratch,
};
pub use mbr::Mbr;
pub use normalize::{normalize, unit_normalize, z_normalize, Normalization, SlidingStats};
pub use sliding::SlidingDft;
pub use wavelet::{haar_forward, haar_inverse, HaarSynopsis};
pub use window::SlidingWindow;
