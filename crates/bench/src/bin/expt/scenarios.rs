//! `expt scenarios`: walks through the paper's illustrative scenarios —
//! Fig. 2 (content-based routing of a summary), Fig. 3(a) (similarity-query
//! range lookup) and Fig. 4 (content-based routing of an MBR) — on the exact
//! m = 5 example ring, printing each step next to the paper's values.

use dsi_chord::{multicast, IdSpace, RangeStrategy, Ring};
use dsi_core::{feature_to_key, interval_key_range, radius_key_range};

pub fn run() {
    let space = IdSpace::new(5);
    let ring = Ring::with_nodes(space, [1, 8, 11, 14, 20, 23]);
    println!("example ring: m = 5, nodes {{N1, N8, N11, N14, N20, N23}}\n");

    // ---------------- Fig. 2 ----------------
    println!("Fig. 2 — content-based routing of stream summaries");
    let x = [0.40, 0.09];
    let kx = feature_to_key(space, x[0]);
    let route = ring.lookup(1, kx);
    println!("  X = [{:.2} {:.2}] computed at N1 hashes to K{kx} (paper: K22)", x[0], x[1]);
    println!(
        "  routed {} -> stored at N{} (paper: via N20 to N23)",
        route.path.iter().map(|n| format!("N{n}")).collect::<Vec<_>>().join(" -> "),
        route.owner
    );
    let y = [0.42, 0.11];
    let ky = feature_to_key(space, y[0]);
    println!(
        "  Y = [{:.2} {:.2}] computed at N8 hashes to K{ky} -> N{} — same neighborhood,",
        y[0],
        y[1],
        ring.ideal_successor(ky).unwrap()
    );
    println!("  which is what makes summary-based routing a similarity index.\n");

    // ---------------- Fig. 3(a) ----------------
    println!("Fig. 3(a) — scalable lookup of similarity queries");
    let (center, radius) = (-0.08, 0.29);
    let (lo, hi) = radius_key_range(space, center, radius);
    println!(
        "  query X = [-0.08 0.12], radius {radius}: boundaries {:.2} -> K{lo}, {:.2} -> K{hi}",
        center - radius,
        center + radius
    );
    println!("  (paper: low -0.37 -> K10, high 0.21 -> K19)");
    let plan = multicast(&ring, 8, lo, hi, RangeStrategy::Sequential);
    println!(
        "  replicated at {} (paper: N11, N14 and N20)",
        plan.nodes().iter().map(|n| format!("N{n}")).collect::<Vec<_>>().join(", ")
    );
    let mid = space.midpoint(lo, hi);
    let aggregator = ring.ideal_successor(mid).unwrap();
    println!("  middle node N{aggregator} aggregates answers (paper: N14 aggregates for N8)\n");

    // ---------------- Fig. 4 ----------------
    println!("Fig. 4 — content-based routing of MBRs");
    let (l1, h1) = (0.21, 0.40);
    let (klo, khi) = interval_key_range(space, l1, h1);
    println!("  MBR first interval [{l1}, {h1}] maps to keys [K{klo}, K{khi}] (paper: K19..K22)");
    let plan = multicast(&ring, 1, klo, khi, RangeStrategy::Sequential);
    println!(
        "  replicated at {} (paper: N20 and N23, \"the only successor nodes",
        plan.nodes().iter().map(|n| format!("N{n}")).collect::<Vec<_>>().join(" and ")
    );
    println!("  for keys in the range\")");
    println!(
        "  messages: {} routed + {} forwards = {} total",
        plan.route_hops,
        plan.forward_messages,
        plan.total_messages()
    );
}
