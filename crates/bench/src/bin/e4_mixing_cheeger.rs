//! E4 — Lemma 2.3: `τ̄_mix ≤ 8·Δ²/h(G)² · ln n`, plus calibration of the
//! spectral mixing-time estimate against the exact Definition 2.1 value.

use amt_bench::Report;
use amt_core::graphs::expansion;
use amt_core::prelude::*;
use amt_core::walks::mixing::{mixing_time_exact, mixing_time_spectral};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut report = Report::new("e4_mixing_cheeger");
    println!("# E4 — Lemma 2.3 Cheeger bound (2Δ-regular walk, exact h by enumeration)\n");
    report.header(&[
        "graph",
        "n",
        "Δ",
        "h(G)",
        "exact τ̄_mix",
        "Cheeger bound",
        "bound/exact",
    ]);
    let mut rng = StdRng::seed_from_u64(5);
    let cases: Vec<(&str, Graph)> = vec![
        ("complete K12", generators::complete(12)),
        ("hypercube d=4", generators::hypercube(4)),
        ("ring n=16", generators::ring(16)),
        ("torus 4×4", generators::torus_2d(4, 4)),
        (
            "random 4-regular",
            generators::random_regular(16, 4, &mut rng).unwrap(),
        ),
        ("barbell 2×K6", generators::barbell(6, 0).unwrap()),
        ("lollipop K8+tail8", generators::lollipop(8, 8).unwrap()),
    ];
    for (name, g) in &cases {
        let h = expansion::edge_expansion_exact(g).expect("n ≤ 24");
        let exact = mixing_time_exact(g, WalkKind::DeltaRegular, 200_000).expect("connected");
        let bound = expansion::cheeger_mixing_bound(g, h);
        assert!(
            f64::from(exact) <= bound,
            "{name}: Lemma 2.3 violated ({exact} > {bound:.0})"
        );
        report.row(&[
            name.to_string(),
            g.len().to_string(),
            g.max_degree().to_string(),
            format!("{h:.3}"),
            exact.to_string(),
            format!("{bound:.0}"),
            format!("{:.1}", bound / f64::from(exact)),
        ]);
    }
    println!("\n(Lemma 2.3 holds on every row: exact ≤ bound; the bound is loose by");
    println!(" the usual Cheeger quadratic slack, worst on high-conductance graphs)\n");

    println!("## spectral estimate vs exact τ_mix (lazy walk, Definition 2.1)\n");
    report.header(&["graph", "exact τ_mix", "spectral est.", "est./exact"]);
    let mut rng = StdRng::seed_from_u64(6);
    let cases: Vec<(&str, Graph)> = vec![
        (
            "random 4-regular n=64",
            generators::random_regular(64, 4, &mut rng).unwrap(),
        ),
        (
            "random 6-regular n=128",
            generators::random_regular(128, 6, &mut rng).unwrap(),
        ),
        ("hypercube d=6", generators::hypercube(6)),
        ("ring n=64", generators::ring(64)),
        ("torus 8×8", generators::torus_2d(8, 8)),
    ];
    for (name, g) in &cases {
        let exact = mixing_time_exact(g, WalkKind::Lazy, 200_000).expect("connected");
        let est = mixing_time_spectral(g, WalkKind::Lazy, 800).expect("connected");
        assert!(
            est >= exact,
            "{name}: spectral estimate must upper-bound exact"
        );
        report.row(&[
            name.to_string(),
            exact.to_string(),
            est.to_string(),
            format!("{:.2}", f64::from(est) / f64::from(exact)),
        ]);
    }
    println!("\n(the spectral estimate — used to size the level-0 walks on large");
    println!(" graphs — upper-bounds the exact value within a small constant)");
    report.finish();
}
