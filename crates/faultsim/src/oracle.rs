//! The oracle registry: one typed identifier per invariant the harness
//! audits after every scheduled event.
//!
//! Before this module existed, oracle names lived as string literals
//! scattered through `check_oracles`, and the count ("nine oracles")
//! lived separately in prose — three copies of one fact with nothing
//! holding them together. The registry makes the enum the single source
//! of truth: one macro declares [`OracleId`], [`ORACLES`] and
//! [`NUM_ORACLES`] from one variant list, the [`OracleId::slug`] dispatch
//! match is exhaustive (clippy rejects wildcard arms), and a unit test
//! pins the oracle count DESIGN.md advertises via its machine-readable
//! `oracle-count` marker to [`NUM_ORACLES`].

/// Declares [`OracleId`], [`ORACLES`] and [`NUM_ORACLES`] from one variant
/// list, so an oracle cannot be added without entering both tables.
macro_rules! oracles {
    ($($(#[$doc:meta])* $oracle:ident,)+) => {
        /// Identifies one invariant oracle, in the order DESIGN.md §8
        /// numbers them. `Violation::oracle` and reproducer JSON carry the
        /// stable string [`slug`](OracleId::slug), so serialized artifacts
        /// are unaffected by variant renames.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum OracleId {
            $($(#[$doc])* $oracle,)+
        }

        /// Number of registered oracles.
        pub const NUM_ORACLES: usize = [$(stringify!($oracle)),+].len();

        /// Every oracle in design order. Audit code that wants "all of
        /// them" iterates this table instead of hand-listing variants.
        pub const ORACLES: [OracleId; NUM_ORACLES] = [$(OracleId::$oracle),+];
    };
}

oracles! {
    /// Oracle 1: the distributed index never misses a match the
    /// brute-force reference finds.
    NoFalseDismissal,
    /// Oracle 2: lookups and range multicasts from every live node
    /// terminate on live nodes over all-live paths.
    RoutingTermination,
    /// Oracle 3: replicas sit on exactly the covering set of their key
    /// range; queries are subscribed on exactly theirs.
    ReplicaPlacement,
    /// Oracle 4: message bookkeeping reconciles with recorded hop counts.
    MetricsConservation,
    /// Oracle 5: expired soft state is gone after each NPER round.
    Purge,
    /// Oracle 6: the causal trace is well-formed and accounts for every
    /// counter and every multicast delivery set.
    TraceConformance,
    /// Oracle 7: under armed per-class faults, coverage holes close
    /// within `K_REFRESH_ROUNDS` NPER rounds.
    EventualCompleteness,
    /// Oracle 8: per-host load stays inside the armed envelope, and
    /// re-weighting recovers within its budget.
    LoadBalance,
    /// Oracle 9: aggregate notifications honor their advertised ε-δ
    /// contract against the contributor-scoped exact reference.
    SketchAccuracy,
    /// Oracle 10: within `K_REFRESH_ROUNDS` NPER rounds after a network
    /// partition heals, successor/finger state matches the brute-force
    /// recomputation, covering-set placement is green again, no
    /// unexpired registration was lost, and fresh queries see full
    /// coverage.
    PostHealConvergence,
}

impl OracleId {
    /// Stable string slug used in `Violation::oracle`, reproducer JSON,
    /// soak logs and CI triage. Exhaustive by construction: adding a
    /// variant without extending this match is a compile error.
    pub fn slug(self) -> &'static str {
        match self {
            OracleId::NoFalseDismissal => "no-false-dismissal",
            OracleId::RoutingTermination => "routing-termination",
            OracleId::ReplicaPlacement => "replica-placement",
            OracleId::MetricsConservation => "metrics-conservation",
            OracleId::Purge => "purge",
            OracleId::TraceConformance => "trace-conformance",
            OracleId::EventualCompleteness => "eventual-completeness",
            OracleId::LoadBalance => "load-balance",
            OracleId::SketchAccuracy => "sketch-accuracy",
            OracleId::PostHealConvergence => "post-heal-convergence",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_slugs_unique() {
        assert_eq!(ORACLES.len(), NUM_ORACLES);
        let mut slugs: Vec<&str> = ORACLES.iter().map(|o| o.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), NUM_ORACLES, "duplicate oracle slug");
    }

    /// The count in DESIGN.md's `<!-- oracle-count = N -->` marker.
    fn design_oracle_count(design: &str) -> Option<usize> {
        let rest = design.split_once("<!-- oracle-count =")?.1;
        rest.split_once("-->")?.0.trim().parse().ok()
    }

    #[test]
    fn design_advertises_the_registered_oracle_count() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        let design = std::fs::read_to_string(path).expect("DESIGN.md");
        assert_eq!(
            design_oracle_count(&design),
            Some(NUM_ORACLES),
            "DESIGN.md oracle-count marker"
        );
        assert_eq!(design_oracle_count("<!-- oracle-count = 9 -->"), Some(9));
        assert_eq!(design_oracle_count("no marker"), None);
    }

    #[test]
    fn design_order_matches_doc_numbering() {
        assert_eq!(ORACLES[0], OracleId::NoFalseDismissal);
        assert_eq!(ORACLES[6], OracleId::EventualCompleteness);
        assert_eq!(ORACLES[8], OracleId::SketchAccuracy);
        assert_eq!(ORACLES[9], OracleId::PostHealConvergence);
    }
}
