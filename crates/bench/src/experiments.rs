//! One function per table/figure of the paper. Each returns the raw data
//! plus a formatted text block printing the same rows/series the paper
//! plots.

use crate::parallel_reports;
use dsi_chord::{IdSpace, Ring};
use dsi_core::{ExperimentConfig, SystemReport};
use dsi_dsp::{FeatureExtractor, Normalization, SummaryScratch};
use dsi_simnet::Histogram;
use dsi_streamgen::{HostLoad, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::fmt::Write as _;

/// Node counts of the paper's sweeps.
pub const FULL_NODE_COUNTS: [usize; 5] = [50, 100, 200, 300, 500];
/// Node counts of the Fig. 7 sweeps (the paper stops at 300 there).
pub const FIG7_NODE_COUNTS: [usize; 4] = [50, 100, 200, 300];

/// Shared sweep settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Warm-up before measurement (ms).
    pub warmup_ms: u64,
    /// Measured window (ms).
    pub measure_ms: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Default settings; `quick` shortens the simulated horizon for smoke runs.
pub fn settings(quick: bool) -> Settings {
    if quick {
        Settings { warmup_ms: 15_000, measure_ms: 20_000, seed: 42 }
    } else {
        Settings { warmup_ms: 30_000, measure_ms: 60_000, seed: 42 }
    }
}

fn base_config(n: usize, s: Settings) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::with_nodes(n);
    cfg.seed = s.seed;
    cfg.warmup_ms = s.warmup_ms;
    cfg.measure_ms = s.measure_ms;
    cfg
}

// ----------------------------------------------------------------------
// Table I
// ----------------------------------------------------------------------

/// Renders Table I: the workload and runtime parameters.
pub fn table1() -> String {
    let c = WorkloadConfig::default();
    let mut out = String::new();
    writeln!(out, "Table I — parameters used in different experiments").unwrap();
    writeln!(out, "  {:<6} {:>10}   (paper: 150ms)", "PMIN", format!("{}ms", c.pmin_ms)).unwrap();
    writeln!(out, "  {:<6} {:>10}   (paper: 250ms)", "PMAX", format!("{}ms", c.pmax_ms)).unwrap();
    writeln!(out, "  {:<6} {:>10}   (paper: 5000ms)", "BSPAN", format!("{}ms", c.bspan_ms))
        .unwrap();
    writeln!(out, "  {:<6} {:>10}   (paper: 2q/sec)", "QRATE", format!("{}q/sec", c.qrate_per_sec))
        .unwrap();
    writeln!(out, "  {:<6} {:>10}   (paper: 20sec)", "QMIN", format!("{}sec", c.qmin_ms / 1000))
        .unwrap();
    writeln!(out, "  {:<6} {:>10}   (paper: 100sec)", "QMAX", format!("{}sec", c.qmax_ms / 1000))
        .unwrap();
    writeln!(out, "  {:<6} {:>10}   (paper: 2sec)", "NPER", format!("{}sec", c.nper_ms / 1000))
        .unwrap();
    writeln!(
        out,
        "  summarization: w = {}, k = {}, zeta = {}",
        c.window_len, c.num_coeffs, c.mbr_batch
    )
    .unwrap();
    out
}

// ----------------------------------------------------------------------
// Fig. 1 — the Chord running example
// ----------------------------------------------------------------------

/// Reproduces the paper's Fig. 1 scenario: the m = 5 ring with nodes
/// {1, 8, 11, 14, 20, 23}, N8's finger table, key assignment, and the
/// lookup of key 26 from N8.
pub fn fig1() -> String {
    let space = IdSpace::new(5);
    let ring = Ring::with_nodes(space, [1, 8, 11, 14, 20, 23]);
    let mut out = String::new();
    writeln!(out, "Fig. 1 — Chord ring, m = 5, nodes {{1, 8, 11, 14, 20, 23}}").unwrap();
    let n8 = ring.node(8).expect("N8 exists");
    writeln!(out, "  finger table of N8 (paper: N11 N11 N14 N20 N1):").unwrap();
    for (i, f) in n8.fingers.iter().enumerate() {
        writeln!(out, "    N8+{:<2} -> N{}", 1u64 << i, f).unwrap();
    }
    for key in [13u64, 17, 26] {
        writeln!(out, "  key K{key} stored at N{}", ring.ideal_successor(key).unwrap()).unwrap();
    }
    let l = ring.lookup(8, 26);
    writeln!(
        out,
        "  lookup(26) from N8: path {} ({} hops; paper: N8 -> N20 -> N23 -> N1)",
        l.path.iter().map(|n| format!("N{n}")).collect::<Vec<_>>().join(" -> "),
        l.hops()
    )
    .unwrap();
    out
}

// ----------------------------------------------------------------------
// Fig. 3(b) — Fourier locality
// ----------------------------------------------------------------------

/// One scatter point of Fig. 3(b).
#[derive(Debug, Clone, Serialize)]
pub struct Fig3bPoint {
    /// Real part of the first retained coefficient ("1st coeff").
    pub c1: f64,
    /// Real part of the second coefficient.
    pub c2_re: f64,
    /// Imaginary part of the second coefficient.
    pub c2_im: f64,
}

/// Fig. 3(b) data plus locality statistics.
#[derive(Debug, Clone, Serialize)]
pub struct Fig3bData {
    /// Consecutive summary points (the scatter).
    pub points: Vec<Fig3bPoint>,
    /// Mean feature-space distance between *consecutive* summaries.
    pub mean_consecutive_dist: f64,
    /// Mean feature-space distance between *random* summary pairs.
    pub mean_random_dist: f64,
}

/// Computes consecutive summaries on a synthetic host-load trace and
/// quantifies their locality (the justification for MBR batching, §IV-G).
pub fn fig3b() -> (Fig3bData, String) {
    let mut rng = StdRng::seed_from_u64(1997);
    let mut load = HostLoad::standard();
    let mut extractor = FeatureExtractor::new(64, 2, Normalization::UnitNorm);
    let mut scratch = SummaryScratch::default();
    let mut points = Vec::new();
    for _ in 0..2000 {
        if extractor.update_scratch(load.next_value(&mut rng), &mut scratch) {
            let r = &scratch.reals;
            points.push(Fig3bPoint { c1: r[0], c2_re: r[2], c2_im: r[3] });
        }
    }
    let dist = |a: &Fig3bPoint, b: &Fig3bPoint| {
        ((a.c1 - b.c1).powi(2) + (a.c2_re - b.c2_re).powi(2) + (a.c2_im - b.c2_im).powi(2)).sqrt()
    };
    let consecutive: f64 =
        points.windows(2).map(|w| dist(&w[0], &w[1])).sum::<f64>() / (points.len() - 1) as f64;
    let stride = points.len() / 2 + 7; // pseudo-random pairing
    let random: f64 = (0..points.len())
        .map(|i| dist(&points[i], &points[(i + stride) % points.len()]))
        .sum::<f64>()
        / points.len() as f64;

    let mut out = String::new();
    writeln!(out, "Fig. 3(b) — locality of summaries on (synthetic) host-load trace").unwrap();
    writeln!(out, "  {} consecutive summaries (w = 64, k = 2, unit-norm)", points.len()).unwrap();
    let c1_min = points.iter().map(|p| p.c1).fold(f64::INFINITY, f64::min);
    let c1_max = points.iter().map(|p| p.c1).fold(f64::NEG_INFINITY, f64::max);
    writeln!(out, "  1st coeff range: [{c1_min:.3}, {c1_max:.3}]  (paper plot: ~[0, 0.1] band)")
        .unwrap();
    writeln!(out, "  mean consecutive distance: {consecutive:.5}").unwrap();
    writeln!(out, "  mean random-pair distance: {random:.5}").unwrap();
    writeln!(
        out,
        "  locality ratio: {:.1}x tighter than random (>1 justifies MBR batching)",
        random / consecutive
    )
    .unwrap();
    (Fig3bData { points, mean_consecutive_dist: consecutive, mean_random_dist: random }, out)
}

// ----------------------------------------------------------------------
// Fig. 6(a) — average per-node load
// ----------------------------------------------------------------------

/// Runs the Fig. 6(a) sweep and renders the component table.
pub fn fig6a(quick: bool) -> (Vec<SystemReport>, String) {
    let s = settings(quick);
    let counts: Vec<usize> = if quick { vec![50, 100, 200] } else { FULL_NODE_COUNTS.to_vec() };
    let reports = parallel_reports(&counts, |n| base_config(n, s));
    let mut out = String::new();
    writeln!(out, "Fig. 6(a) — average load of messages on a node (per second)").unwrap();
    writeln!(
        out,
        "  {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "N", "MBRs", "MBRint", "MBRtra", "Queries", "Resp", "RespInt", "RespTra", "total"
    )
    .unwrap();
    for r in &reports {
        let l = &r.load;
        writeln!(
            out,
            "  {:>5} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            r.num_nodes,
            l.mbrs,
            l.mbrs_internal,
            l.mbrs_in_transit,
            l.queries,
            l.responses,
            l.responses_internal,
            l.responses_in_transit,
            l.total()
        )
        .unwrap();
    }
    writeln!(out, "  expected shapes: MBRs/RespInt ~ constant, MBRtra ~ log N,").unwrap();
    writeln!(out, "                   Resp/RespTra ~ 1/N, Queries small").unwrap();
    (reports, out)
}

// ----------------------------------------------------------------------
// Fig. 6(b) — load distribution
// ----------------------------------------------------------------------

/// Fig. 6(b) output: per-node load histogram at N = 200.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6bData {
    /// (bucket midpoint, node count) pairs.
    pub buckets: Vec<(f64, u64)>,
    /// Fraction of nodes with load above 3x the mean (heavy-tail check).
    pub tail_fraction: f64,
    /// The raw per-node loads.
    pub per_node_load: Vec<f64>,
}

/// Runs the N = 200 experiment and histograms per-node load.
pub fn fig6b(quick: bool) -> (Fig6bData, String) {
    let s = settings(quick);
    let reports = parallel_reports(&[200], |n| base_config(n, s));
    let report = &reports[0];
    let hist = Histogram::build(&report.per_node_load, 2.0);
    let tail = hist.tail_fraction(3.0);
    let mut out = String::new();
    writeln!(out, "Fig. 6(b) — distribution of load across nodes (N = 200)").unwrap();
    writeln!(out, "  {:>10} {:>6}  histogram", "load", "nodes").unwrap();
    for (mid, count) in hist.buckets() {
        if count > 0 {
            writeln!(out, "  {:>10.1} {:>6}  {}", mid, count, "#".repeat(count as usize)).unwrap();
        }
    }
    writeln!(out, "  tail fraction (> 3x mean): {tail:.3} (paper: not heavy-tailed)").unwrap();
    (
        Fig6bData {
            buckets: hist.buckets(),
            tail_fraction: tail,
            per_node_load: report.per_node_load.clone(),
        },
        out,
    )
}

// ----------------------------------------------------------------------
// Fig. 7 — message overhead, radius 0.1 and 0.2
// ----------------------------------------------------------------------

/// Runs the Fig. 7(a)/(b) sweeps (query radius 0.1 and 0.2).
pub fn fig7(quick: bool) -> (Vec<SystemReport>, Vec<SystemReport>, String) {
    let s = settings(quick);
    let counts: Vec<usize> = if quick { vec![50, 100, 200] } else { FIG7_NODE_COUNTS.to_vec() };
    let narrow = parallel_reports(&counts, |n| base_config(n, s));
    let wide = parallel_reports(&counts, |n| {
        let mut cfg = base_config(n, s);
        cfg.workload.query_radius = 0.2;
        cfg
    });
    let mut out = String::new();
    for (tag, radius, reports) in [("(a)", 0.1, &narrow), ("(b)", 0.2, &wide)] {
        writeln!(out, "Fig. 7{tag} — message overhead per input event, query radius = {radius}")
            .unwrap();
        writeln!(
            out,
            "  {:>5} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            "N", "MBR", "MBRtra", "Query", "Qtra", "Resp", "Rtra"
        )
        .unwrap();
        for r in reports.iter() {
            let o = &r.overhead;
            writeln!(
                out,
                "  {:>5} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                r.num_nodes,
                o.mbr,
                o.mbr_in_transit,
                o.query,
                o.query_in_transit,
                o.response,
                o.response_in_transit
            )
            .unwrap();
        }
    }
    writeln!(out, "  expected shapes: Query (internal copies) ~ linear in N and ~2x larger")
        .unwrap();
    writeln!(out, "                   at radius 0.2; transit components ~ log N").unwrap();
    (narrow, wide, out)
}

// ----------------------------------------------------------------------
// Fig. 8 — hops per message
// ----------------------------------------------------------------------

/// Runs the Fig. 8 sweep (average hops per message type).
pub fn fig8(quick: bool) -> (Vec<SystemReport>, String) {
    let s = settings(quick);
    let counts: Vec<usize> = if quick { vec![50, 100, 200] } else { FULL_NODE_COUNTS.to_vec() };
    let reports = parallel_reports(&counts, |n| base_config(n, s));
    let mut out = String::new();
    writeln!(out, "Fig. 8 — average number of hops traversed by a request").unwrap();
    writeln!(
        out,
        "  {:>5} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "N", "MBR", "MBRint", "Query", "Qint", "Resp"
    )
    .unwrap();
    for r in &reports {
        let h = &r.hops;
        writeln!(
            out,
            "  {:>5} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            r.num_nodes, h.mbr, h.mbr_internal, h.query, h.query_internal, h.response
        )
        .unwrap();
    }
    writeln!(out, "  expected shapes: point-routed messages ~ (1/2) log2 N;").unwrap();
    writeln!(out, "                   internal query messages grow linearly (range walk)").unwrap();
    writeln!(out, "  responsiveness at 50 ms/hop (largest N):").unwrap();
    if let Some(r) = reports.last() {
        writeln!(
            out,
            "    response latency {:.0} ms, query range propagation {:.0} ms",
            r.response_latency_ms(),
            r.query_propagation_ms()
        )
        .unwrap();
    }
    (reports, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_every_parameter() {
        let t = table1();
        for key in ["PMIN", "PMAX", "BSPAN", "QRATE", "QMIN", "QMAX", "NPER"] {
            assert!(t.contains(key), "missing {key}");
        }
    }

    #[test]
    fn fig1_reproduces_paper_lookup() {
        let t = fig1();
        assert!(t.contains("N8 -> N20 -> N23 -> N1"));
        assert!(t.contains("key K26 stored at N1"));
    }

    #[test]
    fn fig3b_shows_locality() {
        let (data, _) = fig3b();
        assert!(data.points.len() > 1000);
        assert!(
            data.mean_consecutive_dist * 3.0 < data.mean_random_dist,
            "consecutive summaries must be much closer than random pairs: {} vs {}",
            data.mean_consecutive_dist,
            data.mean_random_dist
        );
    }
}
