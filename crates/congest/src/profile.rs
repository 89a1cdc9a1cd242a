//! Traffic-class congestion profiling with hot-edge attribution.
//!
//! [`crate::Metrics`] and [`crate::trace::RunTrace`] record *undifferentiated*
//! totals; this module attributes every delivered message to a
//! [`TrafficClass`] — a small open registry of `&'static str` tags (walk
//! tokens vs. custody acks, Borůvka candidate floods vs. label floods,
//! bit-fix payload hops vs. portal hops, ARQ payload vs. ack vs.
//! retransmit) — so runs can answer *what* congests a hot edge and how big
//! the reliability tax is, not just how much traffic flowed.
//!
//! # Contract
//!
//! * **Off by default, zero cost.** Profiling is enabled through
//!   [`crate::Observe::profile`]; a run without it takes the exact
//!   same code path — `Metrics`, `RunTrace`, protocol state, and RNG
//!   streams are byte-identical to a build without this module.
//! * **Exact attribution.** The profiler records at the engine's delivery
//!   points, the same events that drive `Metrics.messages`/`bits` and the
//!   per-edge loads, so per-class totals sum *exactly* (`assert_eq`, not
//!   approximately) to the run's `Metrics` totals and per-edge `edge_load`
//!   counts — on the clean, faulty, and churned paths alike.
//! * **Deterministic.** Classes appear in first-delivery order, which the
//!   engine's ordered `(sender, port)` merge makes independent of the
//!   node-visit order.

/// A traffic-class tag: a small open registry of `&'static str` names.
///
/// Protocols default every [`crate::Ctx::send`] to their
/// [`crate::Protocol::TRAFFIC_CLASS`] and refine individual sends with
/// [`crate::Ctx::send_classed`]. Well-known tags live in [`class`]; any
/// other `&'static str` works — the registry is open by design.
pub type TrafficClass = &'static str;

/// Well-known traffic-class tags used by the protocol crates.
pub mod class {
    use super::TrafficClass;

    /// Catch-all for protocols that never pick a class.
    pub const DEFAULT: TrafficClass = "default";
    /// Random-walk token moves (the useful payload of a walk step).
    pub const WALK_TOKEN: TrafficClass = "walk/token";
    /// Healing-walk custody acknowledgements.
    pub const WALK_CUSTODY: TrafficClass = "walk/custody";
    /// Healing-walk token retransmissions (ARQ overhead).
    pub const WALK_RETRANSMIT: TrafficClass = "walk/retransmit";
    /// Borůvka minimum-outgoing-edge candidate floods.
    pub const MST_FLOOD: TrafficClass = "mst/candidate";
    /// Borůvka fragment-label (leader id) floods.
    pub const MST_LABEL: TrafficClass = "mst/label";
    /// Routing payload hops (bit-fixing toward the destination).
    pub const ROUTE_PAYLOAD: TrafficClass = "route/payload";
    /// Routing detour hops toward a portal/intermediate node.
    pub const ROUTE_PORTAL: TrafficClass = "route/portal";
    /// Reliable-link data frames carrying fresh payload.
    pub const REL_PAYLOAD: TrafficClass = "reliable/payload";
    /// Reliable-link bare acknowledgement frames.
    pub const REL_ACK: TrafficClass = "reliable/ack";
    /// Reliable-link data-frame retransmissions.
    pub const REL_RETRANSMIT: TrafficClass = "reliable/retransmit";
}

/// What the profiler should record ([`crate::Observe::profile`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileConfig {
    /// How many hot edges [`TrafficProfile::analyze`] ranks by default.
    pub top_k: usize,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig { top_k: 10 }
    }
}

/// Per-class deliveries of one executed round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassRoundSample {
    /// The round number (0 is the `init` round).
    pub round: u64,
    /// Messages of this class delivered during the round.
    pub messages: u64,
    /// Bits of this class delivered during the round.
    pub bits: u64,
}

/// Everything recorded for one traffic class during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassStats {
    /// The class tag.
    pub class: TrafficClass,
    /// Total messages delivered under this class.
    pub messages: u64,
    /// Total bits delivered under this class.
    pub bits: u64,
    /// Per-round deliveries, one entry per round the class was active in
    /// (round order; silent rounds are omitted).
    pub timeline: Vec<ClassRoundSample>,
    /// Messages delivered per (undirected) edge id under this class.
    pub edge_messages: Vec<u64>,
    /// Bits delivered per (undirected) edge id under this class.
    pub edge_bits: Vec<u64>,
}

/// Per-`(class, round)` and per-`(class, edge)` delivery counts of one run.
///
/// Recorded by the round engine when profiling is enabled; retrieve it with
/// [`crate::Simulator::take_observed`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficProfile {
    edge_count: usize,
    /// Per-class statistics, in first-delivery order (deterministic: the
    /// engine merges deliveries in `(sender, port)` order).
    pub per_class: Vec<ClassStats>,
}

impl TrafficProfile {
    pub(crate) fn new(edge_count: usize) -> Self {
        TrafficProfile {
            edge_count,
            per_class: Vec::new(),
        }
    }

    /// An empty profile over `edge_count` edges — a seed for
    /// [`TrafficProfile::absorb`]-based accumulation in multi-stage drivers
    /// whose first stage does not start at round 0.
    pub fn empty(edge_count: usize) -> Self {
        TrafficProfile::new(edge_count)
    }

    /// Records one delivery. `bits` must be the delivered frame width — the
    /// exact amount the engine adds to `Metrics.bits` for the same event.
    pub(crate) fn record(&mut self, class: TrafficClass, round: u64, edge: usize, bits: u64) {
        let edge_count = self.edge_count;
        let idx = match self.per_class.iter().position(|s| s.class == class) {
            Some(i) => i,
            None => {
                self.per_class.push(ClassStats {
                    class,
                    messages: 0,
                    bits: 0,
                    timeline: Vec::new(),
                    edge_messages: vec![0; edge_count],
                    edge_bits: vec![0; edge_count],
                });
                self.per_class.len() - 1
            }
        };
        let s = &mut self.per_class[idx];
        s.messages += 1;
        s.bits += bits;
        s.edge_messages[edge] += 1;
        s.edge_bits[edge] += bits;
        match s.timeline.last_mut() {
            Some(last) if last.round == round => {
                last.messages += 1;
                last.bits += bits;
            }
            _ => s.timeline.push(ClassRoundSample {
                round,
                messages: 1,
                bits,
            }),
        }
    }

    /// Folds `other` into `self`, shifting its timeline rounds forward by
    /// `round_offset`.
    ///
    /// Multi-epoch / multi-phase drivers (healing walks, healing Borůvka)
    /// run a fresh simulator per stage; absorbing each stage's profile with
    /// `round_offset` set to the rounds elapsed so far yields one
    /// cumulative profile whose totals still match the accumulated
    /// [`Metrics`](crate::Metrics).
    ///
    /// # Panics
    ///
    /// Panics if the two profiles index different edge spaces.
    pub fn absorb(&mut self, other: &TrafficProfile, round_offset: u64) {
        assert_eq!(
            self.edge_count, other.edge_count,
            "profiles must cover the same graph"
        );
        for o in &other.per_class {
            let idx = match self.per_class.iter().position(|s| s.class == o.class) {
                Some(i) => i,
                None => {
                    self.per_class.push(ClassStats {
                        class: o.class,
                        messages: 0,
                        bits: 0,
                        timeline: Vec::new(),
                        edge_messages: vec![0; self.edge_count],
                        edge_bits: vec![0; self.edge_count],
                    });
                    self.per_class.len() - 1
                }
            };
            let s = &mut self.per_class[idx];
            s.messages += o.messages;
            s.bits += o.bits;
            for (t, &m) in s.edge_messages.iter_mut().zip(&o.edge_messages) {
                *t += m;
            }
            for (t, &b) in s.edge_bits.iter_mut().zip(&o.edge_bits) {
                *t += b;
            }
            for sample in &o.timeline {
                let round = sample.round + round_offset;
                match s.timeline.last_mut() {
                    Some(last) if last.round == round => {
                        last.messages += sample.messages;
                        last.bits += sample.bits;
                    }
                    _ => s.timeline.push(ClassRoundSample {
                        round,
                        messages: sample.messages,
                        bits: sample.bits,
                    }),
                }
            }
        }
    }

    /// Number of (undirected) edges the per-edge vectors are indexed by.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Total messages across all classes — equals `Metrics.messages` of the
    /// profiled run.
    pub fn total_messages(&self) -> u64 {
        self.per_class.iter().map(|s| s.messages).sum()
    }

    /// Total bits across all classes — equals `Metrics.bits` of the
    /// profiled run.
    pub fn total_bits(&self) -> u64 {
        self.per_class.iter().map(|s| s.bits).sum()
    }

    /// Statistics recorded under `class`, if any delivery carried it.
    pub fn stats(&self, class: &str) -> Option<&ClassStats> {
        self.per_class.iter().find(|s| s.class == class)
    }

    /// Messages delivered per edge, summed over every class — equals the
    /// run's `Simulator::edge_load`.
    pub fn edge_messages_total(&self) -> Vec<u64> {
        let mut total = vec![0u64; self.edge_count];
        for s in &self.per_class {
            for (t, &m) in total.iter_mut().zip(&s.edge_messages) {
                *t += m;
            }
        }
        total
    }

    /// Ranks the `top_k` hottest edges (by messages, ties to the lower edge
    /// id) with per-class breakdowns and computes per-class totals/shares.
    pub fn analyze(&self, top_k: usize) -> CongestionProfile {
        let totals = self.edge_messages_total();
        let mut order: Vec<usize> = (0..self.edge_count).filter(|&e| totals[e] > 0).collect();
        order.sort_by_key(|&e| (std::cmp::Reverse(totals[e]), e));
        order.truncate(top_k);
        let top_edges: Vec<HotEdge> = order
            .into_iter()
            .map(|e| HotEdge {
                edge: e,
                messages: totals[e],
                bits: self.per_class.iter().map(|s| s.edge_bits[e]).sum(),
                per_class: self
                    .per_class
                    .iter()
                    .filter(|s| s.edge_messages[e] > 0)
                    .map(|s| (s.class, s.edge_messages[e]))
                    .collect(),
            })
            .collect();
        let rounds = self
            .per_class
            .iter()
            .filter_map(|s| s.timeline.last().map(|t| t.round))
            .max()
            .unwrap_or(0);
        CongestionProfile {
            class_totals: self
                .per_class
                .iter()
                .map(|s| ClassTotal {
                    class: s.class,
                    messages: s.messages,
                    bits: s.bits,
                })
                .collect(),
            max_edge: top_edges.first().map(|h| h.edge),
            max_edge_congestion: top_edges.first().map_or(0, |h| h.messages),
            top_edges,
            rounds,
        }
    }

    /// Renders an ASCII heatmap: one row per class, `buckets` columns over
    /// the edge-id space, cell intensity proportional to the bits delivered
    /// in that bucket (scaled to the global maximum bucket).
    pub fn heatmap(&self, buckets: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let buckets = buckets.clamp(1, self.edge_count.max(1));
        let per_bucket = self.edge_count.div_ceil(buckets).max(1);
        let rows: Vec<(TrafficClass, Vec<u64>)> = self
            .per_class
            .iter()
            .map(|s| {
                let mut row = vec![0u64; buckets];
                for (e, &b) in s.edge_bits.iter().enumerate() {
                    row[(e / per_bucket).min(buckets - 1)] += b;
                }
                (s.class, row)
            })
            .collect();
        let peak = rows
            .iter()
            .flat_map(|(_, row)| row.iter().copied())
            .max()
            .unwrap_or(0);
        let name_width = rows.iter().map(|(c, _)| c.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (class, row) in &rows {
            out.push_str(&format!("{class:>name_width$} |"));
            for &b in row {
                let i = if peak == 0 {
                    0
                } else {
                    ((b as u128 * (RAMP.len() as u128 - 1)).div_ceil(peak as u128)) as usize
                };
                out.push(RAMP[i.min(RAMP.len() - 1)] as char);
            }
            out.push_str("|\n");
        }
        out
    }
}

/// One class's totals inside a [`CongestionProfile`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassTotal {
    /// The class tag.
    pub class: TrafficClass,
    /// Total messages delivered under this class.
    pub messages: u64,
    /// Total bits delivered under this class.
    pub bits: u64,
}

/// One ranked hot edge with its per-class breakdown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotEdge {
    /// The (undirected) edge id.
    pub edge: usize,
    /// Total messages delivered across the edge.
    pub messages: u64,
    /// Total bits delivered across the edge.
    pub bits: u64,
    /// `(class, messages)` pairs of the classes active on the edge, in
    /// first-delivery order.
    pub per_class: Vec<(TrafficClass, u64)>,
}

/// The analysis of a [`TrafficProfile`]: top-K hot edges with per-class
/// breakdowns, per-class totals, and the per-class share of the maximum
/// edge congestion.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CongestionProfile {
    /// The hottest edges, by messages (descending; ties to lower edge id).
    pub top_edges: Vec<HotEdge>,
    /// Per-class message/bit totals, in first-delivery order.
    pub class_totals: Vec<ClassTotal>,
    /// Edge id with the highest message count, if any traffic flowed.
    pub max_edge: Option<usize>,
    /// Messages on that edge — equals `Metrics.max_edge_congestion`.
    pub max_edge_congestion: u64,
    /// Last round with any delivery.
    pub rounds: u64,
}

impl CongestionProfile {
    /// The share (0..=1) of the maximum-congestion edge's messages carried
    /// by `class` (0 if no traffic flowed).
    pub fn class_share_of_max(&self, class: &str) -> f64 {
        let Some(top) = self.top_edges.first() else {
            return 0.0;
        };
        if top.messages == 0 {
            return 0.0;
        }
        let m = top
            .per_class
            .iter()
            .find(|(c, _)| *c == class)
            .map_or(0, |&(_, m)| m);
        m as f64 / top.messages as f64
    }

    /// Renders the analysis as a plain-text report (class totals, then the
    /// ranked hot edges with per-class breakdowns).
    pub fn render(&self) -> String {
        let total_msgs: u64 = self.class_totals.iter().map(|t| t.messages).sum();
        let mut out = String::new();
        out.push_str("class totals:\n");
        for t in &self.class_totals {
            let share = if total_msgs == 0 {
                0.0
            } else {
                100.0 * t.messages as f64 / total_msgs as f64
            };
            out.push_str(&format!(
                "  {:<22} {:>10} msgs {:>12} bits ({share:5.1}%)\n",
                t.class, t.messages, t.bits
            ));
        }
        out.push_str(&format!(
            "hot edges (top {}), max congestion {}:\n",
            self.top_edges.len(),
            self.max_edge_congestion
        ));
        for h in &self.top_edges {
            let breakdown = h
                .per_class
                .iter()
                .map(|(c, m)| format!("{c}={m}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "  edge {:>6}: {:>8} msgs {:>10} bits  [{breakdown}]\n",
                h.edge, h.messages, h.bits
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_merges_totals_edges_and_offset_timelines() {
        let mut a = TrafficProfile::new(2);
        a.record(class::WALK_TOKEN, 0, 0, 10);
        a.record(class::WALK_TOKEN, 3, 1, 10);
        let mut b = TrafficProfile::new(2);
        b.record(class::WALK_TOKEN, 0, 1, 10);
        b.record(class::REL_ACK, 2, 0, 17);
        a.absorb(&b, 4);
        assert_eq!(a.total_messages(), 4);
        assert_eq!(a.total_bits(), 47);
        assert_eq!(a.edge_messages_total(), vec![2, 2]);
        let w = a.stats(class::WALK_TOKEN).unwrap();
        assert_eq!(w.messages, 3);
        assert_eq!(w.edge_messages, vec![1, 2]);
        assert_eq!(
            w.timeline.iter().map(|s| s.round).collect::<Vec<_>>(),
            vec![0, 3, 4],
            "absorbed rounds are shifted by the offset"
        );
        assert_eq!(a.stats(class::REL_ACK).unwrap().timeline[0].round, 6);
    }

    #[test]
    fn record_accumulates_per_class_round_and_edge() {
        let mut p = TrafficProfile::new(3);
        p.record(class::WALK_TOKEN, 0, 0, 10);
        p.record(class::WALK_TOKEN, 0, 1, 10);
        p.record(class::REL_ACK, 1, 0, 17);
        p.record(class::WALK_TOKEN, 1, 0, 10);
        assert_eq!(p.total_messages(), 4);
        assert_eq!(p.total_bits(), 47);
        let walk = p.stats(class::WALK_TOKEN).unwrap();
        assert_eq!(walk.messages, 3);
        assert_eq!(walk.bits, 30);
        assert_eq!(walk.edge_messages, vec![2, 1, 0]);
        assert_eq!(walk.edge_bits, vec![20, 10, 0]);
        assert_eq!(
            walk.timeline,
            vec![
                ClassRoundSample {
                    round: 0,
                    messages: 2,
                    bits: 20
                },
                ClassRoundSample {
                    round: 1,
                    messages: 1,
                    bits: 10
                },
            ]
        );
        assert_eq!(p.edge_messages_total(), vec![3, 1, 0]);
        // First-delivery order is preserved.
        assert_eq!(p.per_class[0].class, class::WALK_TOKEN);
        assert_eq!(p.per_class[1].class, class::REL_ACK);
    }

    #[test]
    fn analyze_ranks_edges_and_attributes_classes() {
        let mut p = TrafficProfile::new(4);
        for _ in 0..5 {
            p.record(class::MST_FLOOD, 0, 2, 8);
        }
        for _ in 0..3 {
            p.record(class::MST_LABEL, 1, 2, 6);
        }
        p.record(class::MST_FLOOD, 1, 0, 8);
        let a = p.analyze(2);
        assert_eq!(a.max_edge, Some(2));
        assert_eq!(a.max_edge_congestion, 8);
        assert_eq!(a.rounds, 1);
        assert_eq!(a.top_edges.len(), 2);
        assert_eq!(a.top_edges[0].edge, 2);
        assert_eq!(a.top_edges[0].messages, 8);
        assert_eq!(a.top_edges[0].bits, 5 * 8 + 3 * 6);
        assert_eq!(
            a.top_edges[0].per_class,
            vec![(class::MST_FLOOD, 5), (class::MST_LABEL, 3)]
        );
        assert_eq!(a.top_edges[1].edge, 0);
        assert!((a.class_share_of_max(class::MST_FLOOD) - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(a.class_share_of_max("route/payload"), 0.0);
        let text = a.render();
        assert!(text.contains("mst/candidate"));
        assert!(text.contains("edge"));
    }

    #[test]
    fn analyze_breaks_ties_toward_lower_edge_ids() {
        let mut p = TrafficProfile::new(3);
        p.record(class::DEFAULT, 0, 2, 4);
        p.record(class::DEFAULT, 0, 1, 4);
        let a = p.analyze(10);
        assert_eq!(
            a.top_edges.iter().map(|h| h.edge).collect::<Vec<_>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn heatmap_scales_to_the_peak_bucket() {
        let mut p = TrafficProfile::new(4);
        for _ in 0..9 {
            p.record(class::WALK_TOKEN, 0, 0, 10);
        }
        p.record(class::REL_ACK, 0, 3, 10);
        let map = p.heatmap(2);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("walk/token"));
        assert!(lines[0].contains('@'), "peak bucket renders at full ramp");
        assert!(lines[1].contains("reliable/ack"));
        // Empty profile renders without panicking.
        assert_eq!(TrafficProfile::new(0).heatmap(3), "");
    }
}
