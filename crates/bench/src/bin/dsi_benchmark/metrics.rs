//! The metric registry: every name `dsi_benchmark` prints, with its unit,
//! direction, regression bound and whether it is a timing or an exact
//! count. `BENCHMARK.json` lists the same names; the tests in this
//! directory keep the two in step.

/// Whether a metric is wall-clock derived or an exact count of the
/// simulated system (bit-equal across same-seed runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Derived from `Instant` or the OS: varies run to run.
    Time,
    /// Derived from simulated state only: repeats exactly for a seed.
    Count,
}

/// One registered metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; per-layer metrics carry 0).
    pub bound: f64,
    pub kind: Kind,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    kind: Kind,
) -> MetricDef {
    MetricDef { name, unit, higher_is_better, bound, kind }
}

const fn layer(name: &'static str, unit: &'static str, kind: Kind) -> MetricDef {
    MetricDef { name, unit, higher_is_better: false, bound: 0.0, kind }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: [MetricDef; 11] = [
    e2e("setup_s", "s", false, 0.25, Kind::Time),
    e2e("wall_s", "s", false, 0.25, Kind::Time),
    e2e("ingest_items_per_s", "items/s", true, 0.25, Kind::Time),
    e2e("nper_round_p50_ms", "ms", false, 0.25, Kind::Time),
    e2e("query_post_p50_us", "us", false, 0.25, Kind::Time),
    e2e("peak_rss_mb", "MB", false, 0.15, Kind::Time),
    e2e("msgs_per_event", "msgs/event", false, 0.02, Kind::Count),
    e2e("replicas_per_mbr", "copies/mbr", false, 0.02, Kind::Count),
    e2e("stored_mbr_gini", "gini", false, 0.08, Kind::Count),
    e2e("candidates_per_match", "cand/match", false, 0.12, Kind::Count),
    e2e("realtime_factor", "x", true, 0.25, Kind::Time),
];

/// Per-layer metrics, printed by every traced run of every workload. The
/// prefix is the layer (module) the number belongs to.
pub const PER_LAYER: [MetricDef; 37] = [
    layer("cluster.ingest.ns_per_item", "ns", Kind::Time),
    layer("cluster.ingest.tick_p50_us", "us", Kind::Time),
    layer("cluster.ingest.tick_p95_us", "us", Kind::Time),
    layer("cluster.ingest.unattributed_share", "share", Kind::Time),
    layer("cluster.notify_cycle.p50_us", "us", Kind::Time),
    layer("cluster.notify_cycle.p99_us", "us", Kind::Time),
    layer("cluster.purge_queries.us_per_round", "us", Kind::Time),
    layer("cluster.round.unattributed_share", "share", Kind::Time),
    layer("cluster.post_query.p50_us", "us", Kind::Time),
    layer("cluster.post_query.p95_us", "us", Kind::Time),
    layer("cluster.register_stream.ns_per_stream", "ns", Kind::Time),
    layer("dsp.update.ns_per_item", "ns", Kind::Time),
    layer("dsp.verify.ns_per_candidate", "ns", Kind::Time),
    layer("batching.push.ns_per_item", "ns", Kind::Time),
    layer("batching.items_per_mbr", "items/mbr", Kind::Count),
    layer("batching.early_ship_share", "share", Kind::Count),
    layer("mapping.key_range.ns_per_mbr", "ns", Kind::Time),
    layer("chord.multicast.ns_per_mbr", "ns", Kind::Time),
    layer("chord.multicast.deliveries_per_mbr", "nodes/mbr", Kind::Count),
    layer("chord.route.hops_mean", "hops", Kind::Count),
    layer("chord.lookup.ns_per_lookup", "ns", Kind::Time),
    layer("chord.covering_nodes.ns_per_query", "ns", Kind::Time),
    layer("datacenter.store_mbr.ns_per_replica", "ns", Kind::Time),
    layer("datacenter.purge.ms_per_round", "ms", Kind::Time),
    layer("datacenter.stored_mbrs_peak", "count", Kind::Count),
    layer("datacenter.collect_candidates.ns_per_probe", "ns", Kind::Time),
    layer("datacenter.collect_candidates.ns_per_candidate", "ns", Kind::Time),
    layer("datacenter.candidates_per_probe", "cand/probe", Kind::Count),
    layer("sortable.insert.ns_per_key", "ns", Kind::Time),
    layer("sortable.scan.ns_per_probe", "ns", Kind::Time),
    layer("reliability.resolve.ns_per_send", "ns", Kind::Time),
    layer("reliability.retries_per_send", "retries/send", Kind::Count),
    layer("sketch.update.ns_per_item", "ns", Kind::Time),
    layer("sketch.merge.us_per_merge", "us", Kind::Time),
    layer("simnet.engine.ns_per_event", "ns", Kind::Time),
    layer("streamgen.next_value.ns_per_item", "ns", Kind::Time),
    layer("trace.overhead_share", "share", Kind::Time),
];

/// Metrics only `faulty_mix` exercises. They are printed by its runs but
/// kept out of `BENCHMARK.json`, whose contract wants every listed metric
/// measured on every workload.
pub const FAULTY_ONLY: [MetricDef; 5] = [
    layer("cluster.repair_coverage.ms_per_round", "ms", Kind::Time),
    layer("cluster.churn.ms_per_event", "ms", Kind::Time),
    layer("reliability.lost_share", "share", Kind::Count),
    layer("reliability.backoff_ms_per_send", "ms", Kind::Count),
    layer("checks.nfd_miss_share", "share", Kind::Count),
];

/// Looks a metric up by name across all three tables.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER.iter()).chain(FAULTY_ONLY.iter()).find(|m| m.name == name)
}

/// Measured values of one run, in print order.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records one metric.
    ///
    /// # Panics
    /// Panics if the name is not registered or was already recorded: both
    /// are bugs in the benchmark itself.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "unregistered metric {name}");
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Human-readable listing, one `name value unit` line per metric.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for &(name, value) in &self.values {
            let Some(m) = find(name) else { continue };
            out.push_str(&format!("{name:<48} {value:>18.6} {}", m.unit));
            if m.bound > 0.0 {
                let better = if m.higher_is_better { "higher" } else { "lower" };
                out.push_str(&format!("  ({better} is better, bound {:.0}%)", m.bound * 100.0));
            }
            out.push('\n');
        }
        out
    }

    /// The `"metrics"` object of the result line, restricted to `table`
    /// (the contract wants exactly the end-to-end or exactly the per-layer
    /// names). Returns `None` when a listed metric is missing or not
    /// finite.
    pub fn render_json(&self, table: &[MetricDef]) -> Option<String> {
        let mut parts = Vec::with_capacity(table.len());
        for m in table {
            let v = self.get(m.name)?;
            if !v.is_finite() {
                return None;
            }
            parts.push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit));
        }
        Some(format!("{{{}}}", parts.join(", ")))
    }
}

/// Median of a sample (mean of the two middle values for even sizes);
/// 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `p` in `[0, 1]`; 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// `a / b`, or 0 when the denominator is 0 (an absent layer).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
