//! # dsindex — distributed data-stream indexing over content-based routing
//!
//! A from-scratch Rust reproduction of *"Distributed Data Streams Indexing
//! using Content-Based Routing Paradigm"* (Bulut, Vitenberg & Singh,
//! IPDPS 2005): a middleware that turns a Chord-style DHT into a distributed
//! index over live data streams, answering continuous **similarity** and
//! **inner-product** queries without flooding.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dsp`] | `dsi-dsp` | unitary DFT, sliding DFT (Eq. 5), normalization, feature vectors, MBRs |
//! | [`chord`] | `dsi-chord` | SHA-1, identifier circle, finger tables, lookup, churn, range multicast |
//! | [`simnet`] | `dsi-simnet` | discrete-event engine, 50 ms/hop cost model, metrics |
//! | [`streamgen`] | `dsi-streamgen` | random walks, correlated/Zipf skew, synthetic stocks, host-load traces, query workloads |
//! | [`core`] | `dsi-core` | the middleware: key mapping (Eq. 6), MBR batching, query handling, the §V experiment driver |
//!
//! ## Quickstart
//!
//! ```
//! use dsindex::prelude::*;
//!
//! // A 16-data-center system, one stream, defaults from the paper.
//! let mut cfg = ClusterConfig::new(16);
//! cfg.workload.window_len = 16;
//! cfg.kind = SimilarityKind::Subsequence;
//! let mut cluster = Cluster::new(cfg);
//! let sid = cluster.register_stream("temperatures", 0);
//!
//! // Feed values; summaries are content-routed automatically.
//! for i in 0..48 {
//!     let v = 20.0 + (i as f64 * 0.4).sin();
//!     cluster.post_value(sid, v, SimTime::from_ms(i * 200));
//! }
//!
//! // Ask: which streams currently look like this pattern?
//! let pattern: Vec<f64> = (0..16).map(|i| 20.0 + ((i + 32) as f64 * 0.4).sin()).collect();
//! let qid = cluster.post_similarity_query(3, pattern, 0.2, 60_000, SimTime::from_secs(10));
//! cluster.notify_all(SimTime::from_secs(12));
//! assert!(cluster.notifications(qid).iter().any(|n| n.stream == sid));
//! ```

pub use dsi_chord as chord;
pub use dsi_core as core;
pub use dsi_dsp as dsp;
pub use dsi_simnet as simnet;
pub use dsi_streamgen as streamgen;
pub use dsi_trace as trace;

/// The most common imports for applications.
pub mod prelude {
    pub use dsi_chord::{
        BuildRouter, ChordId, ContentRouter, IdSpace, PastryNet, RangeStrategy, Ring,
    };
    pub use dsi_core::{
        gini, run_experiment, AggregateKind, AggregateNotification, AggregateSpec, AggregateValue,
        AlertCondition, Cluster, ClusterConfig, ErrorBound, ExperimentConfig, InnerProductPush,
        InnerProductQuery, LoadBalanceReport, MatchNotification, QueryId, ReweightConfig,
        SimilarityKind, SimilarityPush, SimilarityQuery, SketchDims, StreamId, StreamIndex,
        SystemReport,
    };
    pub use dsi_dsp::{FeatureExtractor, FeatureVector, Mbr, Normalization};
    pub use dsi_simnet::SimTime;
    pub use dsi_streamgen::{
        CorrelatedWalks, HostLoad, Market, MarketConfig, QueryWorkload, RandomWalk, TenantLedger,
        TenantPolicy, WorkloadConfig, ZipfSampler,
    };
}
