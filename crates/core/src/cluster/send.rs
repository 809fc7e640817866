//! The one send seam of [`Cluster`]: every overlay message is judged,
//! ledgered, charged, traced and applied (or parked) here and nowhere else
//! in `crates/core`. The "nowhere else" is rustc privacy: [`Metrics`] and
//! the [`Tracer`] live in this module's [`Ledger`], whose fields no other
//! module can reach.
//!
//! The paper's middleware sends through three content-routing shapes, and
//! the seam has one entry point per shape:
//!
//! * [`Cluster::send_hop`] — a one-hop neighbour message (repair copies,
//!   the NPER neighbour exchange, `AggPush` / `AggNotify`);
//! * [`Cluster::send_routed`] — a routed point message (put / locate /
//!   response, §IV-D/§IV-F);
//! * [`Cluster::send_range`] — a range multicast built on
//!   send-to-successor (§IV-C/§IV-G).
//!
//! Each checks the partition cut, resolves the armed fault plan (disarmed,
//! nothing is resolved and no fault randomness exists to draw), writes the
//! retry / dup / redelivery / conservation ledger, charges [`Metrics`],
//! emits the paired trace record and reports a [`Delivery`];
//! [`Cluster::deliver`] then applies the message's effect or parks it, and
//! [`Cluster::drain_pending`] re-enters the same [`Cluster::apply`] when a
//! parked effect comes due. A real transport would plug in at this boundary.
//!
//! Behaviours the senders differ in, kept exactly as they were found:
//!
//! 1. *Coverage samples.* An MBR send samples `Metrics::record_coverage`
//!    only when a plan is armed ([`RangeDelivery::coverage`] is `Some`); a
//!    similarity post also when disarmed but partitioned (its
//!    `reachable_fraction`); an aggregate post only when armed.
//! 2. *Member sets.* The disarmed range send takes the side-aware member
//!    set of `multicast`; the armed one walks the global covering set and
//!    judges reachability per hop, so severed hops land on the partition
//!    ledger (and draw no fault randomness).
//! 3. *Degraded traces.* A plan that skipped members traces with
//!    `trace_tree_into` (no multicast meta, so the delivery-set audit only
//!    vets complete multicasts); a complete one with `trace_into`.
//! 4. *Events.* `InputEvent::Mbr` / `Query` is charged even when a range
//!    send is lost entirely; `InputEvent::Response` only when the response
//!    actually leaves.
//! 5. *Unjudged puts.* `register_stream` / `rehome_stream` location puts
//!    are driver-side control operations: charged and traced
//!    ([`Cluster::put_location_unjudged`]), never judged.
//! 6. *Late.* Only senders that [`Cluster::deliver`] park a late message;
//!    repair copies, the location get / reply, the neighbour exchange and
//!    `AggPush` treat it as arrived.
//! 7. *Response tags.* A similarity response delivered now is clamped to
//!    what its aggregator reaches under a partition; a parked one keeps the
//!    query's dissemination-time coverage (see `notify_cycle`).

use super::Cluster;
use crate::aggregate::AggregateNotification;
use crate::query::{QueryId, StreamId};
use crate::reliability::{DeliveryVerdict, PendingDelivery, PendingEffect, ReliabilityState};
use dsi_chord::{
    multicast, multicast_with_failover, ChordId, ContentRouter, HopKind, HopOutcome, MulticastPlan,
};
use dsi_simnet::{InputEvent, Metrics, MsgClass, SimTime};
use dsi_trace::Tracer;

/// The cluster's message ledger: [`Metrics`] and the causal [`Tracer`].
/// Its fields are private to the send seam, so only this module can charge
/// or trace a message; the rest of [`Cluster`] reads both and calls the
/// narrow methods below.
pub(super) struct Ledger {
    metrics: Metrics,
    /// Disabled by default (see `dsi-trace`). Records exactly the overlay
    /// messages `metrics` counts, as parent-linked chains, whenever both
    /// measurement and tracing are on.
    tracer: Tracer,
}

impl Ledger {
    pub(super) fn new() -> Self {
        Ledger { metrics: Metrics::new(), tracer: Tracer::disabled() }
    }

    pub(super) fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub(super) fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Opens a new measurement window: clears the counters and the trace.
    pub(super) fn reset(&mut self) {
        self.metrics.reset();
        self.tracer.clear();
    }

    pub(super) fn enable_tracing(&mut self, capacity: usize) {
        self.tracer.enable(capacity);
    }

    pub(super) fn set_trace_time(&mut self, now: SimTime) {
        self.tracer.set_now_ms(now.as_ms());
    }

    /// Sets the trace clock to `now` if tracing is on.
    pub(super) fn stamp(&mut self, now: SimTime) {
        if self.tracer.is_enabled() {
            self.set_trace_time(now);
        }
    }

    /// Records one achieved-coverage sample.
    pub(super) fn record_coverage(&mut self, coverage: f64) {
        self.metrics.record_coverage(coverage);
    }
}

/// What became of one logical message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Delivery {
    /// The receiver observes it this tick.
    Now,
    /// In flight (charged and traced), but its effect lands one refresh
    /// period late.
    Late,
    /// Severed by a partition or lost after retries: nothing was charged
    /// and nothing may take effect.
    Dropped,
}

impl Delivery {
    /// Whether the message reached its receiver, on time or late.
    pub(super) fn arrived(self) -> bool {
        self != Delivery::Dropped
    }
}

/// Where a routed point message is addressed.
pub(super) enum Dest {
    /// A key: the route ends at whichever node owns it on the sender's side
    /// of a partition, so no cut can sever it.
    Key(ChordId),
    /// A specific node, which a partition can cut off from the sender.
    Node(ChordId),
}

/// The classes of a routed message: its first hop, and every relay hop.
#[derive(Clone, Copy)]
pub(super) struct RouteClasses {
    base: MsgClass,
    transit: MsgClass,
}

/// A query-side point message (location put / get, inner-product post).
pub(super) const QUERY_ROUTE: RouteClasses =
    RouteClasses { base: MsgClass::Query, transit: MsgClass::QueryTransit };

/// A response-side point message (location reply, periodic pushes).
pub(super) const RESPONSE_ROUTE: RouteClasses =
    RouteClasses { base: MsgClass::Response, transit: MsgClass::ResponseTransit };

/// The message classes and input event of one kind of range multicast.
pub(super) struct RangeClasses {
    route: RouteClasses,
    forward: MsgClass,
    event: InputEvent,
}

/// An MBR replicated over its Eq. 10 key range.
pub(super) const MBR_RANGE: RangeClasses = RangeClasses {
    route: RouteClasses { base: MsgClass::MbrOriginated, transit: MsgClass::MbrTransit },
    forward: MsgClass::MbrInternal,
    event: InputEvent::Mbr,
};

/// A query disseminated over its key range.
pub(super) const QUERY_RANGE: RangeClasses =
    RangeClasses { route: QUERY_ROUTE, forward: MsgClass::QueryInternal, event: InputEvent::Query };

/// Outcome of a range send.
pub(super) struct RangeDelivery {
    /// The achieved plan; `None` when every entry attempt was lost or cut.
    pub(super) plan: Option<MulticastPlan>,
    /// Reached members whose effect lands a period late.
    late: Vec<ChordId>,
    /// Fraction of the key range confirmed reached, when a plan was armed;
    /// `None` when disarmed (every reachable member is then reached).
    pub(super) coverage: Option<f64>,
}

/// The state one delivery decision reads and ledgers, borrowed field by
/// field so a range send can judge hops while the ring plans the multicast.
struct Wire<'a, R> {
    ring: &'a R,
    rel: Option<&'a mut ReliabilityState>,
    ledger: &'a mut Ledger,
    measuring: bool,
}

impl<R: ContentRouter> Wire<'_, R> {
    /// Decides one logical message of `class` and writes its ledger lines.
    /// A `link` whose endpoints a partition separates is dropped before the
    /// fault plan is consulted: topology cuts are deterministic, consume no
    /// fault randomness and are tallied apart from random loss. With no
    /// plan armed everything else is delivered, unledgered.
    fn judge(&mut self, class: MsgClass, link: Option<(ChordId, ChordId)>) -> Delivery {
        if link.is_some_and(|(from, to)| !self.ring.reachable(from, to)) {
            if self.measuring {
                self.ledger.metrics.record_partition_suppressed(class);
                self.ledger.tracer.note_suppressed(class.index() as u8);
            }
            return Delivery::Dropped;
        }
        let Some(rel) = self.rel.as_deref_mut() else { return Delivery::Now };
        let res = rel.resolve(class);
        if self.measuring {
            for _ in 0..res.retries {
                self.ledger.metrics.record_retry(class);
            }
            if res.dup_suppressed {
                self.ledger.metrics.record_dup_suppressed(class);
            }
            // Send-conservation ledger: every decided send is either
            // delivered (late counts — the payload arrives) or lost.
            match res.verdict {
                DeliveryVerdict::Deliver => self.ledger.metrics.record_send_delivered(class),
                DeliveryVerdict::Late => {
                    self.ledger.metrics.record_redelivery(class);
                    self.ledger.metrics.record_send_delivered(class);
                }
                DeliveryVerdict::Lost => self.ledger.metrics.record_send_lost(class),
            }
        }
        match res.verdict {
            DeliveryVerdict::Deliver => Delivery::Now,
            DeliveryVerdict::Late => Delivery::Late,
            DeliveryVerdict::Lost => Delivery::Dropped,
        }
    }
}

impl<R: ContentRouter> Cluster<R> {
    fn wire(&mut self) -> Wire<'_, R> {
        Wire {
            ring: &self.ring,
            rel: self.reliability.as_mut(),
            ledger: &mut self.ledger,
            measuring: self.measuring,
        }
    }

    /// Sends one one-hop message `from -> to`.
    pub(super) fn send_hop(&mut self, class: MsgClass, from: ChordId, to: ChordId) -> Delivery {
        let how = self.wire().judge(class, Some((from, to)));
        if how.arrived() && self.measuring {
            self.ledger.metrics.record_message(class, from, to);
            self.ledger.metrics.record_hops(class, 1);
            self.ledger.tracer.single(class.index() as u8, from, to);
        }
        how
    }

    /// Routes one point message from `from` to `dest`. A message that
    /// answers to an input `event` charges it and logs its hop count.
    /// Returns the delivery and the node the route ends at.
    pub(super) fn send_routed(
        &mut self,
        classes: RouteClasses,
        from: ChordId,
        dest: Dest,
        event: Option<InputEvent>,
    ) -> (Delivery, ChordId) {
        let (key, link) = match dest {
            Dest::Key(key) => (key, None),
            Dest::Node(to) => (to, Some((from, to))),
        };
        let how = self.wire().judge(classes.base, link);
        let route = self.ring.route(from, key);
        if how.arrived() {
            self.charge_route(classes, &route.path, event);
        }
        (how, route.owner)
    }

    /// A driver-side location put for `stream` (registration, re-homing): a
    /// control operation, so only the charge half of [`Cluster::send_routed`]
    /// runs — the route is billed and traced, never judged.
    pub(super) fn put_location_unjudged(&mut self, stream: StreamId) {
        let s = &self.streams[stream as usize];
        let (home, key) = (s.home, s.key);
        let lookup = self.ring.route(home, key);
        self.charge_route(QUERY_ROUTE, &lookup.path, None);
        self.node_mut(lookup.owner).location_put(stream, home);
    }

    /// The charge half of [`Cluster::send_routed`]: bills `path` to
    /// `Metrics` and records it as one causal chain, marking the tail as
    /// the hop-log point exactly when the hop count is logged.
    fn charge_route(
        &mut self,
        RouteClasses { base, transit }: RouteClasses,
        path: &[ChordId],
        event: Option<InputEvent>,
    ) {
        if !self.measuring {
            return;
        }
        if let Some(event) = event {
            self.ledger.metrics.record_event(event);
            self.ledger.metrics.record_hops(base, path.len().saturating_sub(1) as u32);
        }
        self.ledger.metrics.record_route(base, transit, path);
        self.ledger.tracer.route(path, base.index() as u8, transit.index() as u8, event.is_some());
    }

    /// Multicasts one message from `origin` to every node covering a key in
    /// `[lo, hi]`. Disarmed this is plain `multicast`; armed, the multicast
    /// fails over dropped hops via the ring's successor lists and the
    /// *achieved* plan is what gets charged (dropped attempts only count
    /// retries). [`Cluster::deliver_range`] applies its effect.
    pub(super) fn send_range(
        &mut self,
        classes: &RangeClasses,
        origin: ChordId,
        lo: ChordId,
        hi: ChordId,
        now: SimTime,
    ) -> RangeDelivery {
        if self.measuring {
            self.ledger.metrics.record_event(classes.event);
        }
        let strategy = self.cfg.strategy;
        if self.reliability.is_none() {
            let plan = multicast(&self.ring, origin, lo, hi, strategy);
            self.charge_plan(classes, &plan, Some((lo, hi)), now);
            return RangeDelivery { plan: Some(plan), late: Vec::new(), coverage: None };
        }
        let mut wire = self.wire();
        let ring = wire.ring;
        let out = multicast_with_failover(ring, origin, lo, hi, strategy, &mut |from, to, kind| {
            let class = match kind {
                HopKind::Route => classes.route.base,
                HopKind::Forward => classes.forward,
            };
            match wire.judge(class, Some((from, to))) {
                Delivery::Now => HopOutcome::Deliver,
                Delivery::Late => HopOutcome::DeliverLate,
                Delivery::Dropped => HopOutcome::Fail,
            }
        });
        if let Some(plan) = &out.plan {
            self.charge_plan(classes, plan, out.skipped.is_empty().then_some((lo, hi)), now);
        }
        RangeDelivery { plan: out.plan, late: out.late, coverage: Some(out.coverage) }
    }

    /// Bills one achieved multicast plan and records it as one causal
    /// tree; `complete` carries the targeted key range of a plan that
    /// reached every covering member.
    fn charge_plan(
        &mut self,
        classes: &RangeClasses,
        plan: &MulticastPlan,
        complete: Option<(ChordId, ChordId)>,
        now: SimTime,
    ) {
        if !self.measuring {
            return;
        }
        let RangeClasses { route: RouteClasses { base, transit }, forward, .. } = *classes;
        self.ledger.metrics.record_route(base, transit, &plan.route_path);
        self.ledger.metrics.record_hops(base, plan.route_hops);
        for (from, to) in plan.iter_forward_edges() {
            self.ledger.metrics.record_message(forward, from, to);
        }
        for d in plan.deliveries.iter().filter(|d| d.node != plan.entry) {
            self.ledger.metrics.record_hops(forward, d.hops);
        }
        if self.ledger.tracer.is_enabled() {
            self.ledger.set_trace_time(now);
            let (base, transit, forward) =
                (base.index() as u8, transit.index() as u8, forward.index() as u8);
            match complete {
                Some((lo, hi)) => {
                    plan.trace_into(&mut self.ledger.tracer, base, transit, forward, lo, hi)
                }
                None => plan.trace_tree_into(&mut self.ledger.tracer, base, transit, forward),
            };
        }
    }

    /// Applies (or parks) `effect` at every member a range send reached.
    pub(super) fn deliver_range(
        &mut self,
        sent: &RangeDelivery,
        now: SimTime,
        effect: &PendingEffect,
    ) {
        let Some(plan) = &sent.plan else { return };
        for d in &plan.deliveries {
            let how = if sent.late.contains(&d.node) { Delivery::Late } else { Delivery::Now };
            self.deliver(d.node, effect, how, now);
        }
    }

    /// Applies `effect` at `to` if the message carrying it arrived now, or
    /// parks a copy for `to`'s next notify cycle if it arrived late — the
    /// only place an effect is cloned.
    #[inline]
    pub(super) fn deliver(
        &mut self,
        to: ChordId,
        effect: &PendingEffect,
        how: Delivery,
        now: SimTime,
    ) {
        match how {
            Delivery::Now => self.apply(to, effect, now),
            Delivery::Late => {
                let due = now + self.cfg.workload.nper_ms;
                self.pending.push(PendingDelivery { due, to, effect: effect.clone() });
            }
            Delivery::Dropped => {}
        }
    }

    /// The receiver-side state change of one delivered message. The effect
    /// is borrowed: one message fans out to many receivers, and each copies
    /// out only what it keeps (inlined, so a sender's freshly built effect
    /// is matched away at compile time).
    #[inline]
    pub(super) fn apply(&mut self, to: ChordId, effect: &PendingEffect, now: SimTime) {
        match effect {
            PendingEffect::StoreMbr(rec) => self.node_mut(to).store_mbr_ref(rec),
            &PendingEffect::SubscribeSimilarity { query, expires } => {
                self.node_mut(to).subscribe_similarity(query, expires);
            }
            PendingEffect::SubscribeInnerProduct(q) => {
                self.node_mut(to).subscribe_inner_product(q.clone());
            }
            &PendingEffect::LocationPut { stream, source } => {
                self.node_mut(to).location_put(stream, source);
            }
            &PendingEffect::SubscribeAggregate { query } => {
                // A replica starts counting when it is installed (it missed
                // everything before); one the node already holds is a dedup.
                if let Some(a) = self.aggregates.iter_mut().find(|a| a.query.id == query) {
                    if let Err(pos) = a.slot(to) {
                        let sketch = a.query.fresh_sketch();
                        a.replicas.insert(pos, (to, now, sketch));
                    }
                }
            }
            PendingEffect::AggregateNotify(note) => {
                self.aggregate_notifications
                    .entry(note.query)
                    .or_default()
                    .push(AggregateNotification::clone(note));
            }
            PendingEffect::Notify { query, matches, at } => {
                let coverage = self.query_coverage.get(query).copied().unwrap_or(1.0);
                self.push_matches(*query, matches, *at, coverage);
            }
            &PendingEffect::IpResult { query, value, alert, at } => {
                self.ip_results.entry(query).or_default().push((at, value));
                if alert {
                    self.ip_alerts.entry(query).or_default().push((at, value));
                }
            }
        }
    }

    /// Applies parked late effects addressed to `node` that have come due
    /// (the receiver's first refresh tick after the delayed delivery).
    /// Effects are only parked while a plan is armed, but drain whether or
    /// not it still is.
    pub(super) fn drain_pending(&mut self, node: ChordId, now: SimTime) {
        if self.pending.is_empty() {
            return;
        }
        let (due, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending)
            .into_iter()
            .partition(|p| p.to == node && p.due <= now);
        self.pending = rest;
        for p in due {
            if self.still_wanted(node, &p.effect, now) {
                self.apply(node, &p.effect, now);
            }
        }
    }

    /// The drain's expiry / dedup guards: a late copy of state that would
    /// be purged on arrival is dropped, and a replica the node re-acquired
    /// meanwhile is a dedup.
    fn still_wanted(&self, node: ChordId, effect: &PendingEffect, now: SimTime) -> bool {
        match effect {
            PendingEffect::StoreMbr(rec) => {
                rec.expires > now && !self.nodes[&node].summaries().any(|s| s.matches(rec))
            }
            PendingEffect::SubscribeSimilarity { expires, .. } => now < *expires,
            PendingEffect::SubscribeInnerProduct(q) => !q.expired(now),
            PendingEffect::SubscribeAggregate { query } => {
                self.aggregates.iter().any(|a| a.query.id == *query && !a.query.expired(now))
            }
            PendingEffect::LocationPut { .. }
            | PendingEffect::AggregateNotify(_)
            | PendingEffect::Notify { .. }
            | PendingEffect::IpResult { .. } => true,
        }
    }

    /// The coverage ledger: stores a query's achieved dissemination
    /// coverage and records the metrics sample. No-op while no fault plan
    /// is armed *and* the network is whole (a partition degrades coverage
    /// even without random loss).
    pub(super) fn record_query_coverage(&mut self, id: QueryId, coverage: f64) {
        if self.reliability.is_none() && !self.ring.partitioned() {
            return;
        }
        self.query_coverage.insert(id, coverage);
        if self.measuring {
            self.ledger.record_coverage(coverage);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{feed_stream, small_cluster, spec, wave};
    use super::*;
    use dsi_simnet::{FaultPlan, NUM_CLASSES};

    #[test]
    fn none_plan_leaves_reliability_disarmed() {
        let mut c = small_cluster(8);
        c.set_fault_plan(FaultPlan::NONE, 1);
        assert!(!c.fault_plan_active());
        let sid = c.register_stream("s0", 0);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        let qid = c.post_similarity_query(1, wave(16, 0.4, 0.0), 0.3, 60_000, SimTime::ZERO);
        assert_eq!(c.query_coverage(qid), None, "no coverage tracking while disarmed");
        assert_eq!(c.pending_effects(), 0);
        assert_eq!(c.metrics().reliability_totals(), (0, 0, 0));
    }

    #[test]
    fn certain_delay_parks_effects_until_the_next_cycle() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        c.set_fault_plan(FaultPlan::uniform(spec(0.0, 0.0, 1.0)), 5);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        let qid = c.post_similarity_query(1, wave(16, 0.4, 0.0), 0.3, 60_000, SimTime::ZERO);
        assert!(c.pending_effects() > 0, "delayed deliveries must be parked");
        assert_eq!(c.query_coverage(qid), Some(1.0), "late deliveries still cover the range");
        // One NPER period later every receiver drains its parked effects.
        let later = SimTime::from_ms(c.config().workload.nper_ms);
        c.notify_all(later);
        assert_eq!(
            c.pending.iter().filter(|p| p.due <= later).count(),
            0,
            "all due effects drained"
        );
    }

    #[test]
    fn disarming_still_drains_effects_parked_while_armed() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        c.set_fault_plan(FaultPlan::uniform(spec(0.0, 0.0, 1.0)), 5);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        c.post_similarity_query(1, wave(16, 0.4, 0.0), 0.3, 60_000, SimTime::ZERO);
        assert!(c.pending_effects() > 0, "delayed deliveries must be parked");
        c.set_fault_plan(FaultPlan::NONE, 0);
        // Disarming stops new parking, not the delivery of what is in flight.
        c.notify_all(SimTime::from_ms(c.config().workload.nper_ms));
        assert_eq!(c.pending_effects(), 0, "effects parked while armed must drain after a disarm");
    }

    #[test]
    fn certain_drop_degrades_to_local_store_with_zero_coverage() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        c.set_fault_plan(FaultPlan::uniform(spec(1.0, 0.0, 0.0)), 9);
        c.start_measurement();
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        // Every multicast totally lost: only the home holds replicas.
        let home = c.streams()[sid as usize].home;
        for &n in c.node_ids() {
            if n != home {
                assert_eq!(c.node(n).mbr_count(), 0, "node {n} got a replica through a dead net");
            }
        }
        assert!(c.node(home).mbr_count() > 0, "§IV-A local store survives total loss");
        let (retries, _, _) = c.metrics().reliability_totals();
        assert!(retries > 0, "drops must burn the retry budget");
        assert_eq!(c.metrics().avg_coverage(), Some(0.0), "total loss is coverage 0");
    }

    #[test]
    fn similarity_matches_survive_a_lossy_network_via_failover() {
        let mut c = small_cluster(8);
        let sid = c.register_stream("s0", 0);
        c.set_fault_plan(FaultPlan::uniform(spec(0.3, 0.1, 0.1)), 77);
        c.start_measurement();
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
        let target = c.streams()[sid as usize].extractor.window_snapshot();
        let qid = c.post_similarity_query(1, target, 0.05, 60_000, SimTime::ZERO);
        // Two NPER rounds: late effects drain, responses go out.
        c.notify_all(SimTime::from_ms(1000));
        c.notify_all(SimTime::from_ms(2000));
        for n in c.notifications(qid) {
            assert!((0.0..=1.0).contains(&n.coverage), "coverage {} out of range", n.coverage);
        }
        let cov = c.query_coverage(qid).expect("armed plan tracks coverage");
        assert!((0.0..=1.0).contains(&cov));
        assert!(c.metrics().coverage_count() > 0);
    }

    #[test]
    fn reliable_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut c = small_cluster(8);
            let sid = c.register_stream("s0", 0);
            c.set_fault_plan(FaultPlan::uniform(spec(0.25, 0.15, 0.15)), seed);
            c.start_measurement();
            feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);
            let target = c.streams()[sid as usize].extractor.window_snapshot();
            let qid = c.post_similarity_query(1, target, 0.05, 60_000, SimTime::ZERO);
            c.notify_all(SimTime::from_ms(1000));
            let per_class: Vec<u64> = MsgClass::ALL.iter().map(|&m| c.metrics().total(m)).collect();
            (
                c.metrics().reliability_totals(),
                per_class,
                c.notifications(qid).to_vec(),
                c.query_coverage(qid),
                c.backoff_ms_total(),
            )
        };
        assert_eq!(run(42), run(42), "same seed, same run");
        assert_ne!(run(42).0, run(43).0, "different fault seeds diverge");
    }

    #[test]
    fn partition_suppression_is_ledgered_separately_from_random_loss() {
        let mut c = small_cluster(10);
        let sid = c.register_stream("s0", 0);
        c.start_measurement();
        c.set_fault_plan(FaultPlan::uniform(spec(0.2, 0.0, 0.1)), 7);
        feed_stream(&mut c, sid, &wave(40, 0.4, 0.0), SimTime::ZERO);

        c.split_partition(&[vec![5, 6, 7, 8, 9]]);
        // Shipments and repair rounds now hit the cut: suppressed copies
        // land on the partition ledger, not the random-loss one.
        feed_stream(&mut c, sid, &wave(16, 0.4, 1.0), SimTime::from_ms(100));
        c.repair_coverage(SimTime::from_ms(200));
        c.notify_all(SimTime::from_ms(300));

        let m = c.metrics();
        let mut suppressed_total = 0;
        for class in MsgClass::ALL {
            let (decisions, delivered, lost, partitioned) = m.send_accounting(class);
            assert_eq!(
                decisions,
                delivered + lost + partitioned,
                "send conservation must hold for {class:?}"
            );
            suppressed_total += partitioned;
        }
        assert!(suppressed_total > 0, "cross-cut sends must appear on the partition ledger");

        // Same run without the split: zero partition suppressions.
        let mut d = small_cluster(10);
        let sid2 = d.register_stream("s0", 0);
        d.start_measurement();
        d.set_fault_plan(FaultPlan::uniform(spec(0.2, 0.0, 0.1)), 7);
        feed_stream(&mut d, sid2, &wave(40, 0.4, 0.0), SimTime::ZERO);
        feed_stream(&mut d, sid2, &wave(16, 0.4, 1.0), SimTime::from_ms(100));
        d.repair_coverage(SimTime::from_ms(200));
        d.notify_all(SimTime::from_ms(300));
        for class in MsgClass::ALL {
            let (_, _, _, partitioned) = d.metrics().send_accounting(class);
            assert_eq!(partitioned, 0, "whole networks never suppress {class:?}");
        }
    }

    #[test]
    fn charge_plan_bills_exactly_the_plans_forward_edges() {
        use dsi_chord::RangeStrategy::{Bidirectional, Sequential};
        for strategy in [Sequential, Bidirectional] {
            for degraded in [false, true] {
                let cell = format!("{strategy:?}, degraded: {degraded}");
                let mut c = small_cluster(12);
                c.cfg.strategy = strategy;
                if degraded {
                    // Only forwards can fail, and most do: the plan routes
                    // around the members it could not reach.
                    let lossy =
                        FaultPlan::NONE.with_class(MsgClass::MbrInternal, spec(0.8, 0.0, 0.0));
                    c.set_fault_plan(lossy, 11);
                }
                c.start_measurement();
                let a = c.node_id(0);
                let sent = c.send_range(&MBR_RANGE, a, c.space.add(a, 1), a, SimTime::ZERO);
                let plan = sent.plan.expect("the entry route cannot fail");
                assert_eq!(plan.deliveries.len() < 12, degraded, "{cell}: {plan:?}");
                assert!(plan.deliveries.len() > 2, "{cell}: {plan:?}");

                let edges = plan.forward_edges();
                assert_eq!(c.metrics().total(MsgClass::MbrInternal), edges.len() as u64, "{cell}");
                // Per node: one count per route hop and per forward edge it
                // sends or receives, and nothing else.
                let hops = plan.route_path.windows(2).map(|w| (w[0], w[1]));
                let billed: Vec<(ChordId, ChordId)> = hops.chain(edges).collect();
                for &n in c.node_ids() {
                    let expect = billed.iter().filter(|&&(from, _)| from == n).count()
                        + billed.iter().filter(|&&(_, to)| to == n).count();
                    assert_eq!(
                        c.metrics().node_message_count(n),
                        expect as u64,
                        "{cell}: node {n}"
                    );
                }
            }
        }
    }

    /// The five ways a message can fare, crossed with the three send shapes
    /// below: the seam's whole contract in one table.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Arm {
        Disarmed,
        Deliver,
        Late,
        Lost,
        Severed,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Shape {
        Hop,
        Routed,
        Range,
    }

    #[test]
    fn every_arm_of_every_shape_conserves_charges_once_and_parks_or_applies() {
        // Armed, but transit classes are never judged: no send ever faults.
        let never_fires = FaultPlan::NONE.with_class(MsgClass::MbrTransit, spec(0.5, 0.0, 0.0));
        let now = SimTime::from_ms(700);
        for arm in [Arm::Disarmed, Arm::Deliver, Arm::Late, Arm::Lost, Arm::Severed] {
            for shape in [Shape::Hop, Shape::Routed, Shape::Range] {
                let cell = format!("{arm:?} x {shape:?}");
                let mut c = small_cluster(12);
                match arm {
                    Arm::Disarmed => {}
                    Arm::Deliver => c.set_fault_plan(never_fires, 3),
                    Arm::Late => c.set_fault_plan(FaultPlan::uniform(spec(0.0, 0.0, 1.0)), 3),
                    Arm::Lost => c.set_fault_plan(FaultPlan::uniform(spec(1.0, 0.0, 0.0)), 3),
                    Arm::Severed => {
                        // Armed: only the armed range send judges hops, so
                        // only it can see (and ledger) a severed one.
                        c.set_fault_plan(never_fires, 3);
                        c.split_partition(&[vec![6, 7, 8, 9, 10, 11]]);
                    }
                }
                let (a, b) = (c.node_id(0), c.node_id(11));
                c.enable_tracing(4096);
                c.start_measurement();

                // The message's effect is a location record for stream 0.
                let put = PendingEffect::LocationPut { stream: 0, source: a };
                let sent_to: Vec<ChordId> = match shape {
                    Shape::Hop => {
                        let how = c.send_hop(MsgClass::AggNotify, a, b);
                        c.deliver(b, &put, how, now);
                        vec![b]
                    }
                    Shape::Routed => {
                        let (how, _) = c.send_routed(
                            RESPONSE_ROUTE,
                            a,
                            Dest::Node(b),
                            Some(InputEvent::Response),
                        );
                        c.deliver(b, &put, how, now);
                        vec![b]
                    }
                    Shape::Range => {
                        // The full circle: every node covers part of it.
                        let sent = c.send_range(&QUERY_RANGE, a, c.space.add(a, 1), a, now);
                        c.deliver_range(&sent, now, &put);
                        let to = sent.plan.as_ref().map_or(Vec::new(), |plan| plan.nodes());
                        assert_eq!(sent.coverage.is_some(), arm != Arm::Disarmed, "{cell}");
                        to
                    }
                };
                let applied: Vec<ChordId> = c
                    .node_ids()
                    .iter()
                    .copied()
                    .filter(|&n| c.node(n).location_get(0) == Some(a))
                    .collect();

                // Conservation, and exactly one trace record per charged
                // message: audit(trace) == Metrics.
                let m = c.metrics();
                let audit = dsi_trace::audit(c.tracer().iter(), NUM_CLASSES);
                let mut charged = 0;
                let (mut decided, mut lost, mut cut) = (0, 0, 0);
                for class in MsgClass::ALL {
                    let (decisions, delivered, l, p) = m.send_accounting(class);
                    assert_eq!(decisions, delivered + l + p, "{cell}: conservation, {class:?}");
                    decided += decisions;
                    lost += l;
                    cut += p;
                    let i = class.index();
                    assert_eq!(audit.messages[i], m.total(class), "{cell}: messages, {class:?}");
                    assert_eq!(audit.hop_count[i], m.hop_count(class), "{cell}: hops, {class:?}");
                    assert_eq!(audit.hop_sum[i], m.hop_sum(class), "{cell}: hop sum, {class:?}");
                    charged += m.total(class);
                }

                match arm {
                    Arm::Disarmed | Arm::Deliver => {
                        assert_eq!(applied.len(), sent_to.len(), "{cell}: applied now");
                        assert_eq!(c.pending_effects(), 0, "{cell}");
                        assert!(charged > 0, "{cell}");
                    }
                    Arm::Late => {
                        assert!(applied.is_empty(), "{cell}: a late effect must wait");
                        assert_eq!(c.pending_effects(), sent_to.len(), "{cell}: one park per send");
                        let due = now + c.config().workload.nper_ms;
                        assert!(c.pending.iter().all(|p| p.due == due), "{cell}");
                        assert!(c.pending.iter().all(|p| sent_to.contains(&p.to)), "{cell}");
                        assert!(charged > 0, "{cell}: late messages are charged at send time");
                    }
                    Arm::Lost => {
                        assert!(applied.is_empty() && c.pending.is_empty(), "{cell}");
                        assert_eq!(charged, 0, "{cell}: a lost message is never charged");
                        assert!(lost > 0 && cut == 0, "{cell}");
                    }
                    Arm::Severed => {
                        assert!(c.pending.is_empty(), "{cell}");
                        assert!(applied.iter().all(|&n| c.ring.reachable(a, n)), "{cell}");
                        assert!(cut > 0 && lost == 0, "{cell}: cuts are not random loss");
                        assert_eq!(c.tracer().suppressed_total(), cut, "{cell}");
                        if shape != Shape::Range {
                            assert!(applied.is_empty(), "{cell}");
                            assert_eq!(charged, 0, "{cell}");
                        }
                    }
                }
                if arm == Arm::Disarmed {
                    // Nothing to judge with: no decision, no fault draw.
                    assert!(c.reliability.is_none(), "{cell}");
                    assert_eq!(decided, 0, "{cell}");
                    assert_eq!(m.reliability_totals(), (0, 0, 0), "{cell}");
                }
            }
        }
    }
}
