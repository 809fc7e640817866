//! `expt ablations`: message-count ablations over the design choices
//! DESIGN.md calls out.
//!
//! * ζ (MBR batching factor): update traffic vs candidate precision (§IV-G);
//! * MBR routing-width bound on/off;
//! * sequential vs bidirectional range multicast: propagation depth (§VI-B);
//! * similarity flavor: rotation-prone z-norm routing vs stable unit-norm
//!   routing (the DESIGN.md §5 substitution);
//! * retained coefficients k: candidate precision vs summary size.

use dsi_bench::write_json;
use dsi_chord::RangeStrategy;
use dsi_core::{run_experiment, ExperimentConfig, SimilarityKind, SystemReport};

fn base(n: usize, quick: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::with_nodes(n);
    cfg.warmup_ms = if quick { 12_000 } else { 30_000 };
    cfg.measure_ms = if quick { 15_000 } else { 45_000 };
    cfg
}

fn precision(r: &SystemReport) -> f64 {
    if r.candidates == 0 {
        1.0
    } else {
        r.matches_delivered as f64 / r.candidates as f64
    }
}

pub fn run(quick: bool) {
    let n = 200;
    let mut results: Vec<(String, SystemReport)> = Vec::new();

    println!("== Ablation: MBR batching factor zeta (N = {n}) ==");
    println!(
        "  {:>5} {:>12} {:>12} {:>12} {:>12}",
        "zeta", "MBR events/s", "MBR load", "candidates", "precision"
    );
    for zeta in [1usize, 5, 10, 20] {
        let mut cfg = base(n, quick);
        cfg.workload.mbr_batch = zeta;
        let r = run_experiment(&cfg);
        println!(
            "  {:>5} {:>12.1} {:>12.2} {:>12} {:>12.3}",
            zeta,
            r.events.mbrs as f64 / r.duration_s,
            r.load.mbrs + r.load.mbrs_internal + r.load.mbrs_in_transit,
            r.candidates,
            precision(&r)
        );
        results.push((format!("zeta-{zeta}"), r));
    }

    println!("\n== Ablation: MBR routing-width bound (N = {n}, zeta = 10) ==");
    println!("  {:>10} {:>14} {:>14}", "bound", "MBRint load", "MBRint hops");
    for (name, bound) in [("none", None), ("0.05", Some(0.05)), ("0.02", Some(0.02))] {
        let mut cfg = base(n, quick);
        cfg.workload.mbr_max_width = bound;
        let r = run_experiment(&cfg);
        println!("  {:>10} {:>14.3} {:>14.2}", name, r.load.mbrs_internal, r.hops.mbr_internal);
        results.push((format!("width-{name}"), r));
    }

    println!("\n== Ablation: range multicast strategy (N = {n}) ==");
    println!(
        "  {:>14} {:>16} {:>16} {:>12}",
        "strategy", "q-internal hops", "mbr-internal hops", "total load"
    );
    for (name, strat) in
        [("sequential", RangeStrategy::Sequential), ("bidirectional", RangeStrategy::Bidirectional)]
    {
        let mut cfg = base(n, quick);
        cfg.strategy = strat;
        let r = run_experiment(&cfg);
        println!(
            "  {:>14} {:>16.2} {:>16.2} {:>12.2}",
            name,
            r.hops.query_internal,
            r.hops.mbr_internal,
            r.load.total()
        );
        results.push((format!("strategy-{name}"), r));
    }

    println!("\n== Ablation: similarity flavor / routing coefficient (N = {n}) ==");
    println!("  {:>14} {:>14} {:>14}", "flavor", "MBRint/MBR", "total load");
    for (name, kind) in
        [("subsequence", SimilarityKind::Subsequence), ("correlation", SimilarityKind::Correlation)]
    {
        let mut cfg = base(n, quick);
        cfg.kind = kind;
        let r = run_experiment(&cfg);
        println!("  {:>14} {:>14.2} {:>14.2}", name, r.overhead.mbr, r.load.total());
        results.push((format!("flavor-{name}"), r));
    }

    println!("\n== Ablation: retained coefficients k (N = {n}) ==");
    println!("  {:>5} {:>12} {:>12} {:>12}", "k", "candidates", "matches", "precision");
    for k in [1usize, 2, 4, 8] {
        let mut cfg = base(n, quick);
        cfg.workload.num_coeffs = k;
        let r = run_experiment(&cfg);
        println!(
            "  {:>5} {:>12} {:>12} {:>12.3}",
            k,
            r.candidates,
            r.matches_delivered,
            precision(&r)
        );
        results.push((format!("k-{k}"), r));
    }

    println!("\n== Ablation: summarizer — truncated DFT vs top-k Haar wavelets ==");
    summarizer_ablation();

    println!("\n== Ablation: update bandwidth — individual summaries vs one MBR per batch ==");
    println!(
        "  {:>3} {:>5} {:>14} {:>12} {:>8}",
        "k", "zeta", "individual (B)", "batched (B)", "saving"
    );
    for k in [2usize, 4] {
        for zeta in [5usize, 10, 20] {
            let (individual, batched) = dsi_core::batching_saving(k, zeta);
            println!(
                "  {:>3} {:>5} {:>14} {:>12} {:>7.1}x",
                k,
                zeta,
                individual,
                batched,
                individual as f64 / batched as f64
            );
        }
    }

    write_json("ablations.json", &results);
}

/// Energy captured by k-coefficient summaries of the two transforms the
/// paper discusses (DFT here; wavelets in its STARDUST sibling) on the
/// evaluation's stream families. Higher = tighter candidate filtering.
fn summarizer_ablation() {
    use dsi_dsp::dft::{dft, energy};
    use dsi_dsp::{z_normalize, HaarSynopsis};
    use dsi_streamgen::{HostLoad, RandomWalk};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(7);
    let w = 64usize;
    let mut walk_src = RandomWalk::standard();
    let mut load_src = HostLoad::standard();
    let walks: Vec<Vec<f64>> = (0..50).map(|_| walk_src.take_values(&mut rng, w)).collect();
    let loads: Vec<Vec<f64>> = (0..50).map(|_| load_src.take_values(&mut rng, w)).collect();

    println!("  {:>12} {:>3} {:>12} {:>12}", "family", "k", "DFT energy", "Haar energy");
    for (name, family) in [("random walk", &walks), ("host load", &loads)] {
        for k in [2usize, 4, 8] {
            let mut dft_frac = 0.0;
            let mut haar_frac = 0.0;
            for win in family.iter() {
                let z = z_normalize(win);
                let total = energy(&z).max(1e-12);
                // DFT prefix: bins 1..=k plus mirrors (z-norm kills DC).
                let spec = dft(&z);
                let pref: f64 = (1..=k).map(|f| 2.0 * spec[f].norm_sqr()).sum();
                dft_frac += (pref / total).min(1.0);
                haar_frac += HaarSynopsis::build(&z, 2 * k).energy() / total;
            }
            let n = family.len() as f64;
            println!(
                "  {:>12} {:>3} {:>11.1}% {:>11.1}%",
                name,
                k,
                100.0 * dft_frac / n,
                100.0 * haar_frac / n
            );
        }
    }
    println!("  (top-k Haar is given 2k real coefficients = the DFT's 2k real dims)");
}
