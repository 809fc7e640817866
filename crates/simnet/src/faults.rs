//! Message-level fault injection for simulation testing.
//!
//! The paper's middleware is built on soft state, so it must tolerate the
//! usual best-effort network pathologies: periodic (NPER) messages that are
//! lost, duplicated, or arrive a period late. [`FaultSpec`] describes the
//! probabilities of each pathology and draws per-delivery [`FaultOutcome`]s
//! from a caller-supplied RNG, keeping runs deterministic under a seed —
//! the fault-injection harness replays the exact same outcome sequence from
//! a recorded seed.
//!
//! [`FaultPlan`] extends a single spec to the whole message taxonomy: one
//! default [`FaultSpec`] plus optional per-[`MsgClass`] overrides, so a
//! scenario can (say) drop 30% of MBR replication traffic while leaving
//! query responses clean.

use crate::metrics::{MsgClass, NUM_CLASSES};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-delivery fault probabilities. The three probabilities partition the
/// unit interval together with normal delivery, so they must sum to at most
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Probability a delivery is dropped entirely.
    pub drop_prob: f64,
    /// Probability a delivery is duplicated (processed twice).
    pub dup_prob: f64,
    /// Probability a delivery is delayed to the next period.
    pub delay_prob: f64,
}

impl FaultSpec {
    /// A fault-free network: every delivery succeeds.
    pub const NONE: FaultSpec = FaultSpec { drop_prob: 0.0, dup_prob: 0.0, delay_prob: 0.0 };

    /// Validates the probabilities, returning a description of the first
    /// problem found instead of panicking.
    ///
    /// The sum check is **exact** (`> 1.0`): floating-point summation of
    /// three probabilities that are mathematically ≤ 1 can still land a few
    /// ULPs above `1.0` (e.g. `0.33 + 0.56 + 0.11`), and such a spec would
    /// make [`FaultSpec::outcome`]'s partition of the unit interval
    /// unreachable for `Deliver`. Callers should leave numeric headroom
    /// rather than rely on a hidden tolerance.
    pub fn try_validate(&self) -> Result<(), String> {
        for (name, p) in
            [("drop", self.drop_prob), ("dup", self.dup_prob), ("delay", self.delay_prob)]
        {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} probability {p} outside [0, 1]"));
            }
        }
        let sum = self.drop_prob + self.dup_prob + self.delay_prob;
        if sum > 1.0 {
            return Err(format!("fault probabilities sum to {sum} > 1"));
        }
        Ok(())
    }

    /// Validates the probabilities.
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]` or they sum past one
    /// (see [`FaultSpec::try_validate`] for the exact-sum semantics).
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            panic!("{msg}");
        }
    }

    /// Whether any fault can occur at all.
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0 && self.dup_prob == 0.0 && self.delay_prob == 0.0
    }

    /// Draws the outcome for one delivery. Consumes exactly one `f64` from
    /// the RNG (even for the fault-free spec), so schedules stay aligned
    /// when fault probabilities change between replays of the same seed.
    pub fn outcome<R: Rng + ?Sized>(&self, rng: &mut R) -> FaultOutcome {
        let u: f64 = rng.gen();
        if u < self.drop_prob {
            FaultOutcome::Drop
        } else if u < self.drop_prob + self.dup_prob {
            FaultOutcome::Duplicate
        } else if u < self.drop_prob + self.dup_prob + self.delay_prob {
            FaultOutcome::Delay
        } else {
            FaultOutcome::Deliver
        }
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::NONE
    }
}

/// What happens to one delivery under a [`FaultSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultOutcome {
    /// Delivered normally.
    Deliver,
    /// Lost; the receiver never processes it.
    Drop,
    /// Processed twice (e.g. a retransmission raced the original).
    Duplicate,
    /// Held in a delay queue and re-delivered one period late: the message
    /// is in flight (it is charged and traced at send time), but its effect
    /// on the receiver is parked until the receiver's next refresh tick
    /// drains the queue.
    Delay,
}

/// Fault probabilities for the whole message taxonomy: a default
/// [`FaultSpec`] applied to every [`MsgClass`], plus optional per-class
/// overrides.
///
/// `FaultPlan::NONE` (also the `Default`) is the lossless network; the
/// reliability layer treats it as "disabled" and takes the exact historical
/// code paths, consuming no extra RNG draws.
///
/// Serde is hand-written instead of derived: the message taxonomy grows
/// over time (new [`MsgClass`] variants are appended), and reproducers
/// recorded before a growth carry an `overrides` array shorter than the
/// current [`NUM_CLASSES`]. Deserialization pads missing trailing
/// overrides with `None` — new classes take the default spec — rather
/// than rejecting the file on an exact-length array match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Spec applied to any class without an override.
    pub default: FaultSpec,
    /// Per-class overrides, indexed by [`MsgClass::index`].
    pub overrides: [Option<FaultSpec>; NUM_CLASSES],
}

impl Serialize for FaultPlan {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("default".to_string(), self.default.to_value()),
            ("overrides".to_string(), self.overrides.to_value()),
        ])
    }
}

impl Deserialize for FaultPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let default = FaultSpec::from_value(serde::field(v, "default", "FaultPlan")?)?;
        let raw = serde::field(v, "overrides", "FaultPlan")?
            .as_array()
            .ok_or_else(|| serde::Error::expected("array", v))?;
        if raw.len() > NUM_CLASSES {
            return Err(serde::Error::msg(format!(
                "FaultPlan overrides has {} entries but only {NUM_CLASSES} classes exist",
                raw.len()
            )));
        }
        let mut overrides = [None; NUM_CLASSES];
        for (slot, val) in overrides.iter_mut().zip(raw.iter()) {
            *slot = <Option<FaultSpec>>::from_value(val)?;
        }
        Ok(FaultPlan { default, overrides })
    }
}

impl FaultPlan {
    /// The lossless network: no class experiences any fault.
    pub const NONE: FaultPlan =
        FaultPlan { default: FaultSpec::NONE, overrides: [None; NUM_CLASSES] };

    /// A plan applying the same spec to every message class.
    pub const fn uniform(spec: FaultSpec) -> FaultPlan {
        FaultPlan { default: spec, overrides: [None; NUM_CLASSES] }
    }

    /// Overrides the spec for one message class (builder-style).
    pub fn with_class(mut self, class: MsgClass, spec: FaultSpec) -> FaultPlan {
        self.overrides[class.index()] = Some(spec);
        self
    }

    /// The effective spec for `class`.
    pub fn spec_for(&self, class: MsgClass) -> FaultSpec {
        self.overrides[class.index()].unwrap_or(self.default)
    }

    /// Whether every class is fault-free (the plan is a no-op).
    pub fn is_none(&self) -> bool {
        self.default.is_none() && self.overrides.iter().all(|o| o.is_none_or(|s| s.is_none()))
    }

    /// Validates the default spec and every override.
    pub fn try_validate(&self) -> Result<(), String> {
        self.default.try_validate().map_err(|e| format!("default: {e}"))?;
        for class in MsgClass::ALL {
            if let Some(spec) = self.overrides[class.index()] {
                spec.try_validate().map_err(|e| format!("{}: {e}", class.name()))?;
            }
        }
        Ok(())
    }

    /// Panicking form of [`FaultPlan::try_validate`].
    ///
    /// # Panics
    /// Panics on the first invalid spec.
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            panic!("{msg}");
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fault_free_spec_always_delivers() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert_eq!(FaultSpec::NONE.outcome(&mut rng), FaultOutcome::Deliver);
        }
    }

    #[test]
    fn outcomes_follow_probabilities() {
        let spec = FaultSpec { drop_prob: 0.2, dup_prob: 0.1, delay_prob: 0.1 };
        spec.validate();
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 4];
        let n = 20_000;
        for _ in 0..n {
            match spec.outcome(&mut rng) {
                FaultOutcome::Drop => counts[0] += 1,
                FaultOutcome::Duplicate => counts[1] += 1,
                FaultOutcome::Delay => counts[2] += 1,
                FaultOutcome::Deliver => counts[3] += 1,
            }
        }
        let frac = |c: u32| c as f64 / n as f64;
        assert!((frac(counts[0]) - 0.2).abs() < 0.02, "drop {}", frac(counts[0]));
        assert!((frac(counts[1]) - 0.1).abs() < 0.02, "dup {}", frac(counts[1]));
        assert!((frac(counts[2]) - 0.1).abs() < 0.02, "delay {}", frac(counts[2]));
        assert!((frac(counts[3]) - 0.6).abs() < 0.02, "deliver {}", frac(counts[3]));
    }

    #[test]
    fn outcome_sequence_is_deterministic_under_seed() {
        let spec = FaultSpec { drop_prob: 0.3, dup_prob: 0.2, delay_prob: 0.2 };
        let draw = |seed| -> Vec<FaultOutcome> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64).map(|_| spec.outcome(&mut rng)).collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn every_spec_consumes_one_draw() {
        // Changing the spec must not shift downstream RNG consumption.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        FaultSpec::NONE.outcome(&mut a);
        FaultSpec { drop_prob: 0.5, dup_prob: 0.2, delay_prob: 0.1 }.outcome(&mut b);
        let next_a: f64 = a.gen();
        let next_b: f64 = b.gen();
        assert_eq!(next_a, next_b);
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn oversubscribed_probabilities_panic() {
        FaultSpec { drop_prob: 0.6, dup_prob: 0.3, delay_prob: 0.2 }.validate();
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn negative_probability_panics() {
        FaultSpec { drop_prob: -0.1, dup_prob: 0.0, delay_prob: 0.0 }.validate();
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        assert!(FaultSpec::NONE.try_validate().is_ok());
        let err = FaultSpec { drop_prob: 0.6, dup_prob: 0.3, delay_prob: 0.2 }
            .try_validate()
            .unwrap_err();
        assert!(err.contains("sum to"), "{err}");
        let err = FaultSpec { drop_prob: 1.5, dup_prob: 0.0, delay_prob: 0.0 }
            .try_validate()
            .unwrap_err();
        assert!(err.contains("outside [0, 1]"), "{err}");
    }

    #[test]
    fn sum_check_is_exact() {
        // 0.33 + 0.56 + 0.11 is mathematically 1 but sums a few ULPs above
        // 1.0 in f64: under the old 1e-12 tolerance it validated even
        // though `Deliver` was unreachable; now it is rejected.
        let spec = FaultSpec { drop_prob: 0.33, dup_prob: 0.56, delay_prob: 0.11 };
        assert!(spec.drop_prob + spec.dup_prob + spec.delay_prob > 1.0);
        assert!(spec.try_validate().is_err());
        // An exact partition built from dyadic fractions still validates.
        assert!(FaultSpec { drop_prob: 0.25, dup_prob: 0.25, delay_prob: 0.5 }
            .try_validate()
            .is_ok());
    }

    #[test]
    fn plan_resolves_overrides_and_validates() {
        let lossy = FaultSpec { drop_prob: 0.3, dup_prob: 0.1, delay_prob: 0.1 };
        let plan = FaultPlan::uniform(lossy).with_class(MsgClass::Response, FaultSpec::NONE);
        plan.validate();
        assert_eq!(plan.spec_for(MsgClass::MbrOriginated), lossy);
        assert_eq!(plan.spec_for(MsgClass::Response), FaultSpec::NONE);
        assert!(!plan.is_none());
        assert!(FaultPlan::NONE.is_none());
        assert!(FaultPlan::uniform(FaultSpec::NONE).is_none());

        let bad = FaultPlan::NONE.with_class(
            MsgClass::Query,
            FaultSpec { drop_prob: 2.0, dup_prob: 0.0, delay_prob: 0.0 },
        );
        let err = bad.try_validate().unwrap_err();
        assert!(err.contains("Queries"), "override errors name the class: {err}");
    }

    #[test]
    fn plan_round_trips_through_serde() {
        let plan =
            FaultPlan::uniform(FaultSpec { drop_prob: 0.2, dup_prob: 0.05, delay_prob: 0.05 })
                .with_class(MsgClass::MbrInternal, FaultSpec::NONE);
        let json = serde_json::to_string(&plan).expect("serialize");
        let back: FaultPlan = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, plan);
    }

    #[test]
    fn plan_accepts_reproducers_from_before_the_class_table_grew() {
        // A reproducer recorded at NUM_CLASSES == 9 carries a 9-slot
        // overrides array; the trailing (newer) classes must pad to None
        // and fall back to the default spec.
        let json = r#"{
            "default": {"drop_prob": 0.2, "dup_prob": 0.0, "delay_prob": 0.0},
            "overrides": [
                null, null, null,
                {"drop_prob": 1.0, "dup_prob": 0.0, "delay_prob": 0.0},
                null, null, null, null, null
            ]
        }"#;
        let plan: FaultPlan = serde_json::from_str(json).expect("legacy plan must parse");
        assert_eq!(plan.spec_for(MsgClass::Query).drop_prob, 1.0);
        assert_eq!(plan.spec_for(MsgClass::AggPush), plan.default);
        assert_eq!(plan.spec_for(MsgClass::AggNotify), plan.default);

        // An array longer than the taxonomy is a real error, not padding.
        let overlong = format!(
            r#"{{"default": {{"drop_prob": 0.0, "dup_prob": 0.0, "delay_prob": 0.0}},
                "overrides": [{}]}}"#,
            ["null"; NUM_CLASSES + 1].join(", ")
        );
        assert!(serde_json::from_str::<FaultPlan>(&overlong).is_err());
    }

    proptest! {
        /// `outcome()` consumes exactly one RNG draw per delivery no matter
        /// what the spec is, so replay schedules stay aligned when fault
        /// probabilities change between runs of the same seed.
        #[test]
        fn outcome_consumes_exactly_one_draw(
            seed in any::<u64>(),
            a in 0.0f64..0.5,
            b in 0.0f64..0.25,
            c in 0.0f64..0.25,
        ) {
            let spec = FaultSpec { drop_prob: a, dup_prob: b, delay_prob: c };
            spec.validate();
            let mut faulted = StdRng::seed_from_u64(seed);
            let mut control = StdRng::seed_from_u64(seed);
            spec.outcome(&mut faulted);
            let _skip: f64 = control.gen();
            prop_assert_eq!(faulted.gen::<u64>(), control.gen::<u64>());
        }
    }
}
