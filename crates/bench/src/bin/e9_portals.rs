//! E9 — Lemma 3.3: portals.
//!
//! Reports portal coverage (every node knows a portal towards every
//! non-empty sibling part), the measured construction rounds per depth,
//! and the *uniformity property*: the portals assigned to the members of a
//! part are spread (near-)uniformly over its boundary nodes.

use amt_bench::{expander, Report};
use amt_core::embedding::VirtualId;
use amt_core::prelude::*;
use std::collections::HashMap;

fn main() {
    let mut report = Report::new("e9_portals");
    let n = 128usize;
    let g = expander(n, 6, 1);
    let sys = System::builder(&g)
        .seed(1)
        .beta(4)
        .levels(2)
        .build()
        .expect("expander");
    let h = sys.hierarchy();
    let beta = h.cfg().beta;

    println!(
        "# E9 — portals on n = {n}, β = {beta}, depth = {}\n",
        h.depth()
    );
    println!("## coverage and construction cost\n");
    report.header(&[
        "depth",
        "entries needed",
        "filled",
        "fill %",
        "construction base rounds",
    ]);
    for p in 1..=h.depth() {
        let mut needed = 0u64;
        let mut filled = 0u64;
        for vid in 0..h.vnodes() as u32 {
            let my = h.part_of(VirtualId(vid), p);
            let parent = my / u64::from(beta);
            for j in 0..beta {
                let target = parent * u64::from(beta) + u64::from(j);
                if target == my || h.members(p, target).is_empty() {
                    continue;
                }
                needed += 1;
                if h.portal(p, VirtualId(vid), j).is_some() {
                    filled += 1;
                }
            }
        }
        report.row(&[
            p.to_string(),
            needed.to_string(),
            filled.to_string(),
            format!("{:.2}", 100.0 * filled as f64 / needed.max(1) as f64),
            h.stats.portal_base_rounds[(p - 1) as usize].to_string(),
        ]);
    }
    println!(
        "\nuniform-boundary fallbacks used during construction: {}",
        h.stats.portal_fallbacks
    );
    println!("(paper: every node learns a portal towards every sibling — fill %");
    println!(" must be ~100; walk discovery covers most entries, the rest fall back");
    println!(" to a uniform boundary sample with identical distribution)\n");

    println!("## uniformity of portal choice (depth 1, largest sibling pair)\n");
    // For each (part, sibling label), gather the multiset of assigned
    // portals; uniformity means max frequency close to count/boundary size.
    let p = 1u32;
    let mut by_pair: HashMap<(u64, u32), Vec<u32>> = HashMap::new();
    for vid in 0..h.vnodes() as u32 {
        let my = h.part_of(VirtualId(vid), p);
        for j in 0..beta {
            if let Some(e) = h.portal(p, VirtualId(vid), j) {
                by_pair.entry((my, j)).or_default().push(e.portal.0);
            }
        }
    }
    report.header(&[
        "part→label",
        "sources",
        "distinct portals",
        "max share",
        "uniform share",
    ]);
    let mut pairs: Vec<_> = by_pair.iter().collect();
    // Ties broken by (part, label): the map's iteration order is random.
    pairs.sort_by_key(|&(&pair, v)| (std::cmp::Reverse(v.len()), pair));
    for (&(part, j), portals) in pairs.into_iter().take(6) {
        let mut freq: HashMap<u32, usize> = HashMap::new();
        for &t in portals {
            *freq.entry(t).or_insert(0) += 1;
        }
        let distinct = freq.len();
        let max_share = *freq.values().max().unwrap() as f64 / portals.len() as f64;
        report.row(&[
            format!("{part}→{j}"),
            portals.len().to_string(),
            distinct.to_string(),
            format!("{max_share:.3}"),
            format!("{:.3}", 1.0 / distinct as f64),
        ]);
    }
    println!("\n(paper's uniformity property: each source's portal is an independent");
    println!(" ~uniform boundary node — max share should sit near the uniform share,");
    println!(" never concentrate on one portal)");
    report.finish();
}
