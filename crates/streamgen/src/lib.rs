//! # dsi-streamgen — workload substrate
//!
//! Every data source the paper's evaluation uses, synthesized
//! deterministically from a seed:
//!
//! * [`random_walk::RandomWalk`] — the §V synthetic stream model;
//! * [`stocks`] — S&P 500-style sector-correlated market data (substitute
//!   for the dead dataset link; see DESIGN.md §5);
//! * [`hostload`] — CMU Host Load-like AR(1)+burst traces (Fig. 3(b)
//!   substitute);
//! * [`queries`] — similarity / inner-product query workloads;
//! * [`skew`] — adversarial skew: latent-factor correlated streams,
//!   Zipfian query popularity, multi-tenant quotas;
//! * [`config::WorkloadConfig`] — the Table I parameters.

#![warn(missing_docs)]

pub mod config;
pub mod hostload;
pub mod queries;
pub mod random_walk;
pub mod skew;
pub mod stocks;

pub use config::WorkloadConfig;
pub use hostload::{lag1_autocorrelation, HostLoad, HostLoadConfig};
pub use queries::{InnerProductQuerySpec, QueryWorkload, SimilarityQuerySpec};
pub use random_walk::RandomWalk;
pub use skew::{CorrelatedWalks, TenantLedger, TenantPolicy, ZipfSampler};
pub use stocks::{pearson, Market, MarketConfig, StockRecord};
