//! Reliability layer: acked delivery with retry/backoff, duplicate
//! suppression, and parked late effects (§ DESIGN.md §12).
//!
//! The simulator charges every message **once, at send time**; this module
//! decides what happens to that message afterwards.  Each logical send is
//! resolved through the active [`FaultPlan`], one fault draw per attempt:
//!
//! * **Deliver** — the common case.
//! * **Duplicate** — a second copy of the message reaches the receiver,
//!   which recognises it and suppresses it (`dups_suppressed` counter);
//!   the receiver observes exactly one delivery.
//! * **Delay** — the message is in flight (charged and traced at send
//!   time) but its *state effect* on the receiver is parked as a
//!   [`PendingDelivery`] and drained at the receiver's next refresh tick,
//!   mirroring [`dsi_simnet::DelayQueue`] semantics.
//! * **Drop** — the sender retries with exponential backoff and
//!   deterministic, seed-driven jitter, up to [`MAX_RETRIES`]; a message
//!   that exhausts the budget is **Lost** and the caller degrades
//!   gracefully (partial results tagged with a coverage estimate).
//!
//! Backoff is *analytic*: the virtual clock is not shifted, the total
//! backoff spent is accumulated in [`ReliabilityState::backoff_ms_total`]
//! as a latency model the report layer can surface.  This keeps retries
//! from perturbing the deterministic NPER schedule.

// On the per-message hot path: every panic site names the invariant that
// makes it unreachable in an `expect` attribute (DESIGN.md §11).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use dsi_chord::ChordId;
use dsi_simnet::{FaultOutcome, FaultPlan, MsgClass, SimTime, HOP_DELAY_MS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::datacenter::StoredMbr;
use crate::query::{InnerProductQuery, QueryId, StreamId};

/// Retry budget per logical message; exhaustion makes the message `Lost`
/// and triggers graceful degradation at the call site.
pub const MAX_RETRIES: u32 = 5;

/// First backoff step in virtual milliseconds (one network hop); retry
/// `k` waits `BASE_BACKOFF_MS << (k - 1)` plus jitter in
/// `[0, BASE_BACKOFF_MS]`.
pub const BASE_BACKOFF_MS: u64 = HOP_DELAY_MS;

/// Terminal fate of one logical message after retries and dedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryVerdict {
    /// The receiver observes the message this tick.
    Deliver,
    /// The message is in flight but its effect lands one refresh period
    /// late (parked as a [`PendingDelivery`]).
    Late,
    /// The retry budget is exhausted; the caller must degrade.
    Lost,
}

/// Full accounting for one resolved send: verdict plus the counters the
/// metrics layer records ([`dsi_simnet::Metrics::record_retry`] et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolution {
    /// What the receiver ultimately observes.
    pub verdict: DeliveryVerdict,
    /// Retries consumed before the terminal outcome (0 on first-try
    /// success, [`MAX_RETRIES`] on a lost message).
    pub retries: u32,
    /// A duplicated copy arrived and was suppressed.
    pub dup_suppressed: bool,
    /// Analytic backoff latency accumulated by the retries, in virtual
    /// milliseconds (exponential steps plus seeded jitter).
    pub backoff_ms: u64,
}

/// Seeded, deterministic retry/backoff state machine.
///
/// Lives inside `Cluster` and is consulted once per logical message on
/// every faulted send path.  Holding its own `StdRng` keeps the fault
/// stream independent of workload randomness: a fault-free run consumes
/// no draws and stays byte-identical to the historical golden outputs.
#[derive(Debug)]
pub struct ReliabilityState {
    /// Per-class fault probabilities driving each delivery attempt.
    pub plan: FaultPlan,
    rng: StdRng,
    /// Total analytic backoff latency spent across all resolved sends.
    pub backoff_ms_total: u64,
}

impl ReliabilityState {
    /// Build the state machine for `plan`, seeding the fault RNG from
    /// `seed` (derive it from the scenario seed for reproducibility).
    ///
    /// # Panics
    /// Panics if the plan's probabilities are invalid.
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        plan.validate();
        ReliabilityState { plan, rng: StdRng::seed_from_u64(seed), backoff_ms_total: 0 }
    }

    /// Resolve the fate of one logical message of `class`.
    ///
    /// Each delivery attempt consumes exactly one fault draw; each retry
    /// additionally consumes one jitter draw.  The first non-`Drop`
    /// outcome within the budget wins.
    pub fn resolve(&mut self, class: MsgClass) -> Resolution {
        let spec = self.plan.spec_for(class);
        let mut retries = 0u32;
        let mut backoff_ms = 0u64;
        loop {
            let (verdict, dup_suppressed) = match spec.outcome(&mut self.rng) {
                FaultOutcome::Deliver => (DeliveryVerdict::Deliver, false),
                // The second copy of a duplicated message is the one the
                // receiver suppresses; the first is delivered.
                FaultOutcome::Duplicate => (DeliveryVerdict::Deliver, true),
                FaultOutcome::Delay => (DeliveryVerdict::Late, false),
                FaultOutcome::Drop if retries >= MAX_RETRIES => (DeliveryVerdict::Lost, false),
                FaultOutcome::Drop => {
                    retries += 1;
                    // Exponential step, capped so the shift cannot
                    // overflow, plus one seeded jitter draw.
                    let step = BASE_BACKOFF_MS << (retries - 1).min(16);
                    let jitter = self.rng.gen_range(0..=BASE_BACKOFF_MS);
                    backoff_ms += step + jitter;
                    continue;
                }
            };
            self.backoff_ms_total += backoff_ms;
            return Resolution { verdict, retries, dup_suppressed, backoff_ms };
        }
    }
}

/// Deferred receiver-side state change for a `Delay`ed message.
#[derive(Debug, Clone)]
pub enum PendingEffect {
    /// A late replica copy lands in the target's MBR index.
    StoreMbr(StoredMbr),
    /// A late similarity subscription activates on the target node. The
    /// query itself stays in the cluster's registry.
    SubscribeSimilarity {
        /// The similarity query being subscribed to.
        query: QueryId,
        /// When the subscription expires.
        expires: SimTime,
    },
    /// A late inner-product subscription activates on the source node.
    SubscribeInnerProduct(InnerProductQuery),
    /// A late location-service refresh lands on the `h2` owner.
    LocationPut {
        /// Stream whose home is being advertised.
        stream: StreamId,
        /// Data-center currently homing the stream.
        source: ChordId,
    },
    /// A late aggregated similarity response reaches the client.
    Notify {
        /// Query the response answers.
        query: QueryId,
        /// Matching streams confirmed by the aggregator.
        matches: Vec<StreamId>,
        /// Virtual time the aggregator emitted the response.
        at: SimTime,
    },
    /// A late aggregate-query subscription activates on the target node,
    /// which starts a fresh replica sketch counting from the drain time.
    SubscribeAggregate {
        /// The aggregate query being subscribed to.
        query: QueryId,
    },
    /// A late aggregate notification reaches the client.
    AggregateNotify(Box<crate::aggregate::AggregateNotification>),
    /// A late periodic inner-product push reaches the client.
    IpResult {
        /// Query the push answers.
        query: QueryId,
        /// Reconstructed inner-product value.
        value: f64,
        /// Whether the alert condition fired for this value.
        alert: bool,
        /// Virtual time the source emitted the push.
        at: SimTime,
    },
}

/// A parked effect waiting for the receiver's next refresh tick.
#[derive(Debug, Clone)]
pub struct PendingDelivery {
    /// Earliest virtual time the effect may apply.
    pub due: SimTime,
    /// Node whose refresh tick drains this effect.
    pub to: ChordId,
    /// The deferred state change.
    pub effect: PendingEffect,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsi_simnet::FaultSpec;

    fn drop_only(p: f64) -> FaultPlan {
        FaultPlan::uniform(FaultSpec { drop_prob: p, dup_prob: 0.0, delay_prob: 0.0 })
    }

    #[test]
    fn lossless_plan_always_delivers_without_retries() {
        let mut state = ReliabilityState::new(drop_only(0.0), 7);
        for class in MsgClass::ALL {
            let res = state.resolve(class);
            assert_eq!(res.verdict, DeliveryVerdict::Deliver);
            assert_eq!(res.retries, 0);
            assert_eq!(res.backoff_ms, 0);
            assert!(!res.dup_suppressed);
        }
        assert_eq!(state.backoff_ms_total, 0);
    }

    #[test]
    fn certain_drop_exhausts_budget_and_reports_lost() {
        let mut state = ReliabilityState::new(drop_only(1.0), 7);
        let res = state.resolve(MsgClass::MbrOriginated);
        assert_eq!(res.verdict, DeliveryVerdict::Lost);
        assert_eq!(res.retries, MAX_RETRIES);
        // Exponential schedule: base * (2^0 + ... + 2^(r-1)) plus jitter
        // in [0, base] per retry.
        let floor = BASE_BACKOFF_MS * ((1 << MAX_RETRIES) - 1);
        assert!(res.backoff_ms >= floor);
        assert!(res.backoff_ms <= floor + BASE_BACKOFF_MS * u64::from(MAX_RETRIES));
        assert_eq!(state.backoff_ms_total, res.backoff_ms);
    }

    #[test]
    fn duplicate_outcome_is_suppressed_exactly_once() {
        let mut state = ReliabilityState::new(
            FaultPlan::uniform(FaultSpec { drop_prob: 0.0, dup_prob: 1.0, delay_prob: 0.0 }),
            42,
        );
        let res = state.resolve(MsgClass::Query);
        assert_eq!(res.verdict, DeliveryVerdict::Deliver);
        assert!(res.dup_suppressed);
    }

    #[test]
    fn resolution_stream_is_deterministic_for_a_seed() {
        let plan = drop_only(0.4).with_class(
            MsgClass::Query,
            FaultSpec { drop_prob: 0.2, dup_prob: 0.2, delay_prob: 0.2 },
        );
        let run = |seed: u64| {
            let mut state = ReliabilityState::new(plan, seed);
            (0..256)
                .map(|i| state.resolve(MsgClass::ALL[i % MsgClass::ALL.len()]))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seeds diverge");
    }

    #[test]
    fn resolution_stream_for_seed_99_is_pinned() {
        // The draw sequence itself, not just its repeatability: verdict
        // counts, Σretries, Σbackoff_ms and duplicates over the first 256
        // resolutions of the mixed plan above.
        let plan = drop_only(0.4).with_class(
            MsgClass::Query,
            FaultSpec { drop_prob: 0.2, dup_prob: 0.2, delay_prob: 0.2 },
        );
        let mut state = ReliabilityState::new(plan, 99);
        let (mut deliver, mut late, mut lost) = (0u32, 0u32, 0u32);
        let (mut retries, mut backoff_ms, mut dups) = (0u32, 0u64, 0u32);
        for i in 0..256 {
            let res = state.resolve(MsgClass::ALL[i % MsgClass::ALL.len()]);
            match res.verdict {
                DeliveryVerdict::Deliver => deliver += 1,
                DeliveryVerdict::Late => late += 1,
                DeliveryVerdict::Lost => lost += 1,
            }
            retries += res.retries;
            backoff_ms += res.backoff_ms;
            dups += u32::from(res.dup_suppressed);
        }
        assert_eq!((deliver, late, lost), (250, 5, 1));
        assert_eq!((retries, backoff_ms, dups), (145, 16_686, 6));
        assert_eq!(state.backoff_ms_total, backoff_ms);
    }

    #[test]
    fn delay_outcome_reports_late() {
        let mut state = ReliabilityState::new(
            FaultPlan::uniform(FaultSpec { drop_prob: 0.0, dup_prob: 0.0, delay_prob: 1.0 }),
            3,
        );
        let res = state.resolve(MsgClass::Response);
        assert_eq!(res.verdict, DeliveryVerdict::Late);
        assert_eq!(res.retries, 0);
    }
}
