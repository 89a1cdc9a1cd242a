//! Golden pin of the hierarchy build: every level's edge list, stored path
//! keys, `LevelStats` and full-round cost, every portal table and the build
//! totals, folded into one FNV-1a hash per configuration. A change to the
//! builder that moves any of them, or the RNG draw order behind them, fails
//! here; a change meant to move the build updates the constants.

use amt_core::embedding::{Hierarchy, HierarchyConfig, VirtualId};
use amt_core::graphs::generators;
use rand::rngs::StdRng;
use rand::SeedableRng;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// Builds `levels` levels at β = 4 on `random_regular(n, degree)` drawn
/// from `seed`, and returns the build's `total_base_rounds`, its fingerprint
/// and the fallback edges of its walk levels (levels `1..depth`). `starved`
/// gives the walk levels fewer, shorter walks (`overlay_degree` 3,
/// `walk_surplus` 1, `level_walk_factor` 1), so some virtual nodes find no
/// same-part end and take the BFS fallback.
fn build(n: usize, degree: usize, levels: u32, seed: u64, starved: bool) -> (u64, u64, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = generators::random_regular(n, degree, &mut rng).unwrap();
    let mut cfg = HierarchyConfig::auto(&g, 20, seed);
    cfg.beta = 4;
    cfg.levels = levels;
    if starved {
        cfg.overlay_degree = 3;
        cfg.walk_surplus = 1.0;
        cfg.level_walk_factor = 1;
    }
    let h = Hierarchy::build(&g, cfg).unwrap();
    let walk_fallbacks = h.stats.levels[1..h.depth() as usize]
        .iter()
        .map(|l| l.fallback_edges)
        .sum();
    (h.stats.total_base_rounds, fingerprint(&h), walk_fallbacks)
}

fn fingerprint(h: &Hierarchy<'_>) -> u64 {
    let mut f = Fnv(FNV_OFFSET);
    for level in 0..=h.depth() {
        let ov = h.overlay(level);
        f.word(u64::from(level));
        f.word(ov.graph().edge_count() as u64);
        for (e, a, b) in ov.graph().edges() {
            f.word(u64::from(a.0));
            f.word(u64::from(b.0));
            let path = ov.key_path(e, true);
            f.word(path.len() as u64);
            for key in path {
                f.word(key);
            }
        }
        let st = &h.stats.levels[level as usize];
        for x in [
            u64::from(st.level),
            st.edges as u64,
            st.fallback_edges as u64,
            st.avg_path_len.to_bits(),
            st.max_path_len as u64,
            st.walk_rounds_lower,
            st.full_round_base_cost,
            st.build_base_rounds,
            st.min_degree as u64,
            st.max_degree as u64,
            h.full_round_cost(level),
        ] {
            f.word(x);
        }
    }
    for p in 1..=h.depth() {
        for vid in 0..h.vnodes() as u32 {
            for j in 0..h.cfg().beta {
                match h.portal(p, VirtualId(vid), j) {
                    None => f.word(u64::MAX),
                    Some(e) => {
                        f.word(u64::from(e.portal.0));
                        f.word(u64::from(e.edge.0));
                        f.word(u64::from(e.forward));
                        f.word(u64::from(e.target.0));
                    }
                }
            }
        }
    }
    for &r in &h.stats.portal_base_rounds {
        f.word(r);
    }
    f.word(h.stats.portal_fallbacks);
    f.word(h.stats.seed_broadcast_rounds);
    f.word(h.stats.total_base_rounds);
    f.0
}

/// `(n, degree, levels, seed, starved, total_base_rounds, fingerprint)`.
#[rustfmt::skip]
const GOLDEN: &[(usize, usize, u32, u64, bool, u64, u64)] = &[
    (32, 4, 2, 1, false, 3_533_056, 0x95de_163c_40a0_80ac),
    (32, 4, 2, 2, false, 3_579_370, 0xde90_03c4_235e_4086),
    (32, 4, 2, 3, false, 3_012_531, 0x4117_de9b_7caf_839b),
    (32, 4, 3, 1, false, 28_871_116, 0xabcb_64bb_ae18_6faa),
    (32, 4, 3, 2, false, 20_998_885, 0xc235_c418_c291_5ecb),
    (32, 4, 3, 3, false, 25_154_238, 0x52dc_adbd_107d_d7aa),
    (64, 6, 2, 1, false, 11_273_316, 0xd427_df3b_e3fd_aacf),
    (64, 6, 2, 2, false, 12_497_084, 0xf850_5f5d_baa0_d448),
    (64, 6, 2, 3, false, 12_259_778, 0x336b_945a_063f_a3b9),
    (64, 6, 3, 1, false, 90_368_712, 0x813b_c4a1_fc8e_fc1a),
    (64, 6, 3, 2, false, 124_195_538, 0x74e3_6632_d909_785d),
    (64, 6, 3, 3, false, 101_991_574, 0xde48_a222_bf01_222b),
    (32, 4, 2, 1, true, 1_093_004, 0xd96e_4f76_e495_299f),
    (32, 4, 2, 2, true, 1_117_912, 0x933f_fab7_200f_5a94),
    (32, 4, 2, 3, true, 1_512_842, 0x278b_00a6_450c_99f7),
];

#[test]
fn hierarchy_builds_match_their_golden_fingerprints() {
    for &(n, degree, levels, seed, starved, want_total, want_hash) in GOLDEN {
        let ctx =
            format!("n {n}, degree {degree}, levels {levels}, seed {seed}, starved {starved}");
        let (total, hash, walk_fallbacks) = build(n, degree, levels, seed, starved);
        assert_eq!(total, want_total, "{ctx}");
        assert_eq!(hash, want_hash, "{ctx}: fingerprint {hash:#018x}");
        assert!(
            !starved || walk_fallbacks > 0,
            "{ctx}: no walk-level fallback"
        );
    }
}
