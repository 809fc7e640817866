//! # dsi-core — the paper's contribution
//!
//! An adaptive, scalable middleware for distributed data-stream indexing on
//! top of content-based routing (Bulut, Vitenberg & Singh, IPDPS 2005):
//!
//! * [`mapping`] — Eq. 6 feature→key scaling and the `h2` location hash;
//! * [`query`] — similarity and inner-product query types, Eq. 7
//!   reconstruction, the lower-bounding candidate test;
//! * [`batching`] — ζ-batching of summaries into MBRs (§IV-G);
//! * [`datacenter`] — per-node index shards, subscriptions, expiry;
//! * [`cluster`] — the full middleware over a Chord ring with message
//!   accounting;
//! * [`reliability`] — acked delivery with retry/backoff, duplicate
//!   suppression, parked late effects and coverage-tagged degradation (DESIGN.md §12);
//! * [`load`] — per-node load ledger and virtual-node re-weighting
//!   mitigation for Fourier-space hotspots (DESIGN.md §13);
//! * [`aggregate`] — sliding-window aggregate queries answered from
//!   per-node ECM-sketch replicas with coverage-tagged ε-δ contracts
//!   (DESIGN.md §15);
//! * [`api`] — the Fig. 5 application view (`update` / `subscribe` /
//!   periodic pushes);
//! * [`system`] — the §V experiment driver (periodic streams, Poisson
//!   queries, staggered NPER cycles);
//! * [`report`] — the exact series of Figures 6, 7 and 8.

#![warn(missing_docs)]

pub mod aggregate;
pub mod api;
pub mod batching;
pub mod cluster;
pub mod datacenter;
pub mod load;
pub mod mapping;
pub mod query;
pub mod reliability;
pub mod report;
pub mod sortable;
pub mod store;
pub mod system;

pub use aggregate::{
    quantize, AggregateKind, AggregateNotification, AggregateQuery, AggregateSpec, AggregateValue,
};
pub use api::{InnerProductPush, SimilarityPush, StreamIndex};
pub use batching::{batching_saving, MbrBatcher, HEADER_BYTES};
pub use cluster::{worker_count, Cluster, ClusterConfig, QualityStats, StreamRuntime};
pub use datacenter::{DataCenter, StoredMbr};
pub use dsi_sketch::{ErrorBound, SketchDims};
pub use load::{gini, LoadLedger, NodeLoad, ReweightAction, ReweightConfig, RoundLoad};
pub use mapping::{feature_to_key, interval_key_range, radius_key_range, stream_key, summary_key};
pub use query::{
    AlertCondition, InnerProductQuery, MatchNotification, QueryId, SimilarityKind, SimilarityQuery,
    StreamId,
};
pub use reliability::{
    DeliveryVerdict, PendingDelivery, PendingEffect, ReliabilityState, Resolution,
};
pub use report::{
    EventCounts, HopComponents, LoadBalanceReport, LoadComponents, OverheadComponents,
    ReliabilityReport, SystemReport,
};
pub use sortable::{decode_sortable_key, sortable_key, SortableSummaryIndex};
pub use store::{SummaryRef, SummaryStore};
pub use system::{
    run_experiment, run_experiment_on, run_experiment_traced, ExperimentConfig, TracedExperiment,
};
