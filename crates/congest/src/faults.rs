//! Deterministic, seed-driven fault injection for the simulator.
//!
//! A [`FaultPlan`] declares *what can go wrong* in one execution: per-message
//! drop/corruption/delay probabilities and a schedule of crash-stop node
//! failures. All randomness comes from a counter-based PRF (a splitmix64
//! finalizer chain, the same family as the per-node protocol streams) keyed
//! on **message identity** `(fault seed, round, sender, sender port)` —
//! **independent of the protocol RNG** — so
//!
//! * a zero-fault plan leaves every run bit-for-bit identical to a run with
//!   no plan at all (the protocol RNG stream is untouched),
//! * the same `(graph, protocol seed, fault seed)` triple replays the same
//!   faulty execution, message for message, and
//! * the verdict for a message does not depend on how many *other* messages
//!   were sampled before it, so the executor may visit senders in any order
//!   without changing a single fault decision; see the determinism contract
//!   in the [crate-level docs](crate).
//!
//! Fault semantics (applied between staging and delivery, per message):
//!
//! * **drop** — the message silently vanishes;
//! * **corrupt** — exactly one bit of the message's canonical encoding
//!   ([`crate::CongestMessage::encode_bits`]) is flipped; messages without a
//!   canonical encoding, or whose corrupted bits no longer decode, are
//!   dropped instead (a garbled frame the receiver cannot parse);
//! * **delay** — delivery is postponed by a bounded number of extra rounds
//!   drawn uniformly from `1..=max_delay` (adversarial but bounded
//!   asynchrony);
//! * **crash** — from its scheduled round on, the node executes no protocol
//!   steps; messages to and from it are discarded.
//!
//! The paper assumes none of these (pristine synchronous CONGEST); the
//! experiment harness uses this module to measure how far each protocol's
//! guarantees degrade once the assumption is dropped.

use amt_graphs::NodeId;

use crate::{ChurnPlan, CongestError, Metrics, Result};

/// One scheduled crash-stop failure: `node` stops participating at the
/// start of `round` (it executes no step in that round or later).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The node that fails.
    pub node: NodeId,
    /// The first round in which the node no longer participates.
    pub round: u64,
}

/// Declarative fault configuration for one simulator run.
///
/// Constructed with [`FaultPlan::none`] plus the `with_*` builders; an
/// all-zero plan is treated exactly like no plan at all. The builders
/// normalize zero-effect knobs (e.g. a delay probability with a zero delay
/// budget) so that equivalent plans compare equal and pick the same
/// executor path.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault PRF (independent of the protocol RNG).
    pub seed: u64,
    /// Per-message probability of a silent drop.
    pub drop_prob: f64,
    /// Per-message probability of a single-bit corruption.
    pub corrupt_prob: f64,
    /// Per-message probability of a bounded delivery delay.
    pub delay_prob: f64,
    /// Maximum extra rounds a delayed message may wait (delay is uniform in
    /// `1..=max_delay`).
    pub max_delay: u64,
    /// Scheduled crash-stop failures.
    pub crashes: Vec<CrashEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults, costs nothing observable.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
            crashes: Vec::new(),
        }
    }

    /// Sets the fault PRF seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-message drop probability.
    pub fn with_drops(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// Sets the per-message single-bit-corruption probability.
    pub fn with_corruption(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    /// Sets the per-message delay probability and the delay bound.
    ///
    /// A combination that can never fire (`p == 0` or `max_delay == 0`) is
    /// normalized to `(0.0, 0)`, so e.g. `with_delays(0.5, 0)` builds the
    /// same plan as no delay setting at all.
    pub fn with_delays(mut self, p: f64, max_delay: u64) -> Self {
        if p == 0.0 || max_delay == 0 {
            self.delay_prob = 0.0;
            self.max_delay = 0;
        } else {
            self.delay_prob = p;
            self.max_delay = max_delay;
        }
        self
    }

    /// Schedules a crash-stop failure of `node` at `round`.
    pub fn with_crash(mut self, node: NodeId, round: u64) -> Self {
        self.crashes.push(CrashEvent { node, round });
        self
    }

    /// `true` when the plan can never produce a fault (treated as no plan).
    ///
    /// The `max_delay` guard covers plans whose fields were set directly,
    /// bypassing the normalizing [`FaultPlan::with_delays`] builder.
    pub fn is_trivial(&self) -> bool {
        self.drop_prob == 0.0
            && self.corrupt_prob == 0.0
            && (self.delay_prob == 0.0 || self.max_delay == 0)
            && self.crashes.is_empty()
    }

    /// Checks probabilities and crash targets against an `n`-node graph.
    ///
    /// # Errors
    ///
    /// [`CongestError::FaultPlanInvalid`] naming the offending field.
    pub fn validate(&self, n: usize) -> Result<()> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("corrupt_prob", self.corrupt_prob),
            ("delay_prob", self.delay_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(CongestError::FaultPlanInvalid {
                    reason: format!("{name} = {p} is not a probability"),
                });
            }
        }
        if self.delay_prob > 0.0 && self.max_delay == 0 {
            return Err(CongestError::FaultPlanInvalid {
                reason: "delay_prob > 0 requires max_delay >= 1".into(),
            });
        }
        if let Some(c) = self.crashes.iter().find(|c| c.node.index() >= n) {
            return Err(CongestError::FaultPlanInvalid {
                reason: format!("crash target {} out of range for {n} nodes", c.node),
            });
        }
        Ok(())
    }
}

/// What a single injected fault did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The message was silently discarded.
    Dropped,
    /// One bit of the message's encoding was flipped; `delivered` records
    /// whether the corrupted bits still decoded (and were delivered) or the
    /// frame was unparseable (and was discarded).
    Corrupted {
        /// Whether the corrupted message was still delivered.
        delivered: bool,
    },
    /// Delivery was postponed by `by` extra rounds.
    Delayed {
        /// Extra rounds waited beyond the normal one-round latency.
        by: u64,
    },
    /// A previously delayed message was lost because its destination
    /// crash-stopped before the delay elapsed (the matching `Delayed` event
    /// precedes this one; the node/port identify the original sender).
    LostToCrash,
    /// The node crash-stopped.
    Crashed,
}

/// One injected fault, for the experiment harness's degradation curves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Round in which the fault was injected.
    pub round: u64,
    /// For message faults, the *sender*; for crashes, the crashed node.
    pub node: NodeId,
    /// Sending port for message faults (0 for crashes).
    pub port: usize,
    /// What happened.
    pub kind: FaultKind,
}

/// Fate of one staged message after fault sampling.
pub(crate) enum Fate {
    Deliver,
    Drop,
    Corrupt,
    Delay(u64),
}

/// SplitMix64 finalizer: the bijective avalanche at the heart of the fault
/// PRF (and of [`keyed_splitmix`], and of the churn PRF in
/// [`crate::churn`]).
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One SplitMix64 step keyed by `(seed, key)`: the finalizer of
/// `seed ^ key · 0x9E37_79B9_7F4A_7C15`. It derives the per-node protocol
/// stream seeds from `(run seed, node id)` and the healing protocols'
/// backoff jitter from `(seed, restart count)`.
pub fn keyed_splitmix(seed: u64, key: u64) -> u64 {
    splitmix(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The healing drivers' ARQ timeout after `k` consecutive restarts (phase
/// restarts of the healing MST, re-issue epochs of the healing walks):
/// `base` at `k = 0`, else `base` doubled `min(k, 4)` times plus a jitter
/// below `base` drawn by [`keyed_splitmix`] from `k` and the plan seeds.
/// Sustained flapping is thus ridden out instead of retried into, and the
/// replay stays exact. A trivial churn plan's seed drops out of the jitter
/// key, so such a run is byte-identical to the churn-free one whatever its
/// seed.
pub fn backoff_timeout(base: u64, k: u32, plan: &FaultPlan, churn: &ChurnPlan) -> u64 {
    if k == 0 {
        return base;
    }
    let jitter_seed = if churn.is_trivial() {
        plan.seed
    } else {
        plan.seed ^ churn.seed
    };
    (base << k.min(4)) + keyed_splitmix(jitter_seed, u64::from(k)) % base.max(1)
}

/// Domain tags keeping the per-purpose draws of one message independent.
mod draw {
    pub(super) const DROP: u64 = 0;
    pub(super) const CORRUPT: u64 = 1;
    pub(super) const DELAY: u64 = 2;
    pub(super) const DELAY_BY: u64 = 3;
    pub(super) const FLIP: u64 = 4;
}

/// One 64-bit PRF word as a pure function of
/// `(fault seed, round, sender, sender port, purpose)`.
///
/// Each field is absorbed through the finalizer with its own odd multiplier
/// so that nearby keys (adjacent rounds, ports, purposes) land in unrelated
/// parts of the output space. This is the whole fault stream: no draw ever
/// depends on any other message's draws.
fn message_draw(seed: u64, round: u64, src: u64, port: u64, purpose: u64) -> u64 {
    let mut z = splitmix(seed ^ 0x9E37_79B9_7F4A_7C15);
    z = splitmix(z ^ round.wrapping_mul(0xA076_1D64_78BD_642F));
    z = splitmix(z ^ src.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    z = splitmix(z ^ port.wrapping_mul(0x8EBC_6AF0_9C88_C6E3));
    splitmix(z ^ purpose.wrapping_mul(0x5899_65CC_7537_4CC3))
}

/// Maps a PRF word to a uniform `f64` in `[0, 1)` (top 53 bits, the same
/// construction every mainstream generator uses).
pub(crate) fn unit(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The node transitions the damage hooks report as they begin a round
/// ([`FaultHook::begin_round`], [`crate::churn::ChurnHook::begin_round`]),
/// into a buffer the round engine owns and clears every round. They are the
/// engine's only source of node liveness events: `left` retires nodes from
/// its AllDone counter, `rejoined` wakes them on the active-set engine.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Transitions {
    /// Nodes that crash-stopped or went offline this round.
    pub(crate) left: Vec<u32>,
    /// Nodes that rejoin this round after an outage.
    pub(crate) rejoined: Vec<u32>,
}

impl Transitions {
    pub(crate) fn clear(&mut self) {
        self.left.clear();
        self.rejoined.clear();
    }
}

/// How the executor consults fault injection, round by round and message by
/// message. The clean path uses the inert [`NoFaults`] implementation, which
/// monomorphizes every hook call away; the faulty path uses [`FaultState`].
///
/// The sampling methods take `&self`: a verdict is a pure function of the
/// message's identity, never of sampling order.
pub(crate) trait FaultHook {
    /// Applies start-of-round effects (crash-stops) to `metrics` and
    /// reports the nodes that crash-stop this round in `moved.left`.
    fn begin_round(&mut self, round: u64, metrics: &mut Metrics, moved: &mut Transitions);

    /// Whether `v` has crash-stopped at or before the current round.
    fn is_crashed(&self, v: usize) -> bool;

    /// The verdict for the message staged by `src` on `port` this `round`.
    fn fate(&self, round: u64, src: usize, port: usize) -> Fate;

    /// A single-bit flip mask within `width` encoded bits, for the same
    /// message identity that was sentenced to `Fate::Corrupt`.
    fn flip_mask(&self, round: u64, src: usize, port: usize, width: usize) -> u64;

    /// Appends a fault event to the run's log.
    fn record(&mut self, round: u64, node: usize, port: usize, kind: FaultKind);
}

/// The fault hook of the pristine path: nothing ever goes wrong. All methods
/// are trivially inlinable, so the unified engine compiled against `NoFaults`
/// is the exact fault-free executor.
pub(crate) struct NoFaults;

impl FaultHook for NoFaults {
    fn begin_round(&mut self, _round: u64, _metrics: &mut Metrics, _moved: &mut Transitions) {}

    fn is_crashed(&self, _v: usize) -> bool {
        false
    }

    fn fate(&self, _round: u64, _src: usize, _port: usize) -> Fate {
        Fate::Deliver
    }

    fn flip_mask(&self, _round: u64, _src: usize, _port: usize, _width: usize) -> u64 {
        unreachable!("NoFaults never corrupts")
    }

    fn record(&mut self, _round: u64, _node: usize, _port: usize, _kind: FaultKind) {
        unreachable!("NoFaults never records an event")
    }
}

/// Runtime fault state borrowed by one `Simulator::run` invocation.
///
/// Holds only what sampling cannot derive: the borrowed plan, which nodes
/// have crashed so far, and the event log. The message verdicts themselves
/// are stateless PRF evaluations. The crashed map is the engine's one record
/// of crash-stops: the stepper and the merge ask [`FaultHook::is_crashed`],
/// and the AllDone counter reads the [`Transitions`] each round reports.
pub(crate) struct FaultState<'p> {
    plan: &'p FaultPlan,
    pub(crate) crashed: Vec<bool>,
    pub(crate) events: Vec<FaultEvent>,
}

impl<'p> FaultState<'p> {
    pub(crate) fn new(plan: &'p FaultPlan, n: usize) -> Result<Self> {
        plan.validate(n)?;
        Ok(FaultState {
            plan,
            crashed: vec![false; n],
            events: Vec::new(),
        })
    }
}

impl FaultHook for FaultState<'_> {
    /// Marks nodes whose crash round has arrived (a node scheduled twice
    /// crashes at its earliest entry); updates `metrics.crashed`.
    fn begin_round(&mut self, round: u64, metrics: &mut Metrics, moved: &mut Transitions) {
        for i in 0..self.plan.crashes.len() {
            let c = self.plan.crashes[i];
            if c.round == round && !self.crashed[c.node.index()] {
                self.crashed[c.node.index()] = true;
                metrics.crashed += 1;
                moved.left.push(c.node.0);
                self.events.push(FaultEvent {
                    round,
                    node: c.node,
                    port: 0,
                    kind: FaultKind::Crashed,
                });
            }
        }
    }

    fn is_crashed(&self, v: usize) -> bool {
        self.crashed[v]
    }

    /// Samples the fate of one staged message (drop, then corrupt, then
    /// delay, in that fixed order), keyed purely on the message's identity.
    fn fate(&self, round: u64, src: usize, port: usize) -> Fate {
        let (src, port) = (src as u64, port as u64);
        let p = self.plan;
        if p.drop_prob > 0.0
            && unit(message_draw(p.seed, round, src, port, draw::DROP)) < p.drop_prob
        {
            return Fate::Drop;
        }
        if p.corrupt_prob > 0.0
            && unit(message_draw(p.seed, round, src, port, draw::CORRUPT)) < p.corrupt_prob
        {
            return Fate::Corrupt;
        }
        if p.delay_prob > 0.0
            && p.max_delay > 0
            && unit(message_draw(p.seed, round, src, port, draw::DELAY)) < p.delay_prob
        {
            let by = 1 + message_draw(p.seed, round, src, port, draw::DELAY_BY) % p.max_delay;
            return Fate::Delay(by);
        }
        Fate::Deliver
    }

    /// A single-bit flip mask within `width` encoded bits.
    fn flip_mask(&self, round: u64, src: usize, port: usize, width: usize) -> u64 {
        let w = width.clamp(1, 64) as u64;
        let bit = message_draw(self.plan.seed, round, src as u64, port as u64, draw::FLIP) % w;
        1u64 << bit
    }

    fn record(&mut self, round: u64, node: usize, port: usize, kind: FaultKind) {
        self.events.push(FaultEvent {
            round,
            node: NodeId::from(node),
            port,
            kind,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_plan_detection() {
        assert!(FaultPlan::none().is_trivial());
        assert!(FaultPlan::none().seeded(42).is_trivial());
        // A delay probability without a delay budget cannot fire.
        assert!(FaultPlan::none().with_delays(0.5, 0).is_trivial());
        assert!(!FaultPlan::none().with_drops(0.1).is_trivial());
        assert!(!FaultPlan::none().with_corruption(0.1).is_trivial());
        assert!(!FaultPlan::none().with_delays(0.1, 3).is_trivial());
        assert!(!FaultPlan::none().with_crash(NodeId(0), 5).is_trivial());
    }

    #[test]
    fn backoff_doubles_at_most_four_times_and_jitters_below_base() {
        let plan = FaultPlan::none().seeded(7);
        let base = 6;
        let quiet = ChurnPlan::none().seeded(99);
        let flapping = ChurnPlan::none().seeded(99).with_flaps(0.1, 4);
        for churn in [&quiet, &flapping] {
            assert_eq!(backoff_timeout(base, 0, &plan, churn), base);
        }
        for k in 1..12u32 {
            let calm = backoff_timeout(base, k, &plan, &ChurnPlan::none());
            let doubled = base << k.min(4);
            assert!((doubled..doubled + base).contains(&calm), "k = {k}: {calm}");
            assert_eq!(calm, doubled + keyed_splitmix(7, u64::from(k)) % base);
            // A trivial churn plan's seed drops out of the jitter key; a
            // live plan's seed enters it.
            assert_eq!(backoff_timeout(base, k, &plan, &quiet), calm);
            assert_eq!(
                backoff_timeout(base, k, &plan, &flapping),
                doubled + keyed_splitmix(7 ^ 99, u64::from(k)) % base
            );
        }
    }

    #[test]
    fn builders_normalize_zero_effect_knobs() {
        // Zero-effect delay settings build the *same* plan, not merely an
        // equally trivial one — equivalent plans must compare equal so they
        // pick the same executor path.
        assert_eq!(FaultPlan::none().with_delays(0.5, 0), FaultPlan::none());
        assert_eq!(FaultPlan::none().with_delays(0.0, 7), FaultPlan::none());
        assert_eq!(
            FaultPlan::none().with_drops(0.2).with_delays(0.9, 0),
            FaultPlan::none().with_drops(0.2),
        );
        // A live setting is preserved as-is.
        let live = FaultPlan::none().with_delays(0.25, 3);
        assert_eq!((live.delay_prob, live.max_delay), (0.25, 3));
    }

    #[test]
    fn validation_rejects_bad_plans() {
        let e = FaultPlan::none().with_drops(1.5).validate(4).unwrap_err();
        assert!(e.to_string().contains("drop_prob"));
        let e = FaultPlan::none()
            .with_crash(NodeId(9), 0)
            .validate(4)
            .unwrap_err();
        assert!(e.to_string().contains("out of range"));
        // Direct field assignment bypasses the normalizing builder; the
        // validator still rejects the inconsistent combination.
        let mut p = FaultPlan::none();
        p.delay_prob = 0.5;
        assert!(p.validate(4).is_err());
        assert!(FaultPlan::none().with_delays(0.5, 2).validate(4).is_ok());
    }

    fn fate_key(f: &Fate) -> u64 {
        match f {
            Fate::Deliver => 0,
            Fate::Drop => 1,
            Fate::Corrupt => 2,
            Fate::Delay(d) => 3 + d,
        }
    }

    /// The tentpole property: a message's verdict is a pure function of its
    /// identity, so sampling the same messages in any order — or more than
    /// once — yields the same verdicts.
    #[test]
    fn fate_is_a_pure_function_of_message_identity() {
        let plan = FaultPlan::none()
            .seeded(7)
            .with_drops(0.3)
            .with_corruption(0.1)
            .with_delays(0.3, 4);
        let fs = FaultState::new(&plan, 8).unwrap();
        let keys: Vec<(u64, usize, usize)> = (0..6)
            .flat_map(|r| (0..8).flat_map(move |s| (0..4).map(move |p| (r, s, p))))
            .collect();
        let forward: Vec<u64> = keys
            .iter()
            .map(|&(r, s, p)| fate_key(&fs.fate(r, s, p)))
            .collect();
        let reversed: Vec<u64> = keys
            .iter()
            .rev()
            .map(|&(r, s, p)| fate_key(&fs.fate(r, s, p)))
            .collect();
        assert_eq!(
            forward,
            reversed.into_iter().rev().collect::<Vec<_>>(),
            "verdicts must not depend on sampling order"
        );
        // And the stream is non-degenerate: the probabilities above must
        // produce both deliveries and faults over 192 messages.
        assert!(forward.contains(&0));
        assert!(forward.iter().any(|&k| k != 0));
    }

    #[test]
    fn fate_sampling_is_deterministic_in_the_seed() {
        let plan = FaultPlan::none()
            .seeded(7)
            .with_drops(0.3)
            .with_delays(0.3, 4);
        let a = FaultState::new(&plan, 8).unwrap();
        let b = FaultState::new(&plan, 8).unwrap();
        let other = plan.clone().seeded(8);
        let c = FaultState::new(&other, 8).unwrap();
        let mut diverged = false;
        for r in 0..50 {
            for s in 0..8 {
                let (fa, fb, fc) = (a.fate(r, s, 0), b.fate(r, s, 0), c.fate(r, s, 0));
                assert_eq!(fate_key(&fa), fate_key(&fb));
                diverged |= fate_key(&fa) != fate_key(&fc);
            }
        }
        assert!(diverged, "distinct seeds must give distinct fault streams");
    }

    #[test]
    fn flip_masks_stay_in_width() {
        let plan = FaultPlan::none().with_corruption(1.0);
        let fs = FaultState::new(&plan, 2).unwrap();
        for w in 1..=64 {
            for r in 0..20 {
                let m = fs.flip_mask(r, 0, 0, w);
                assert_eq!(m.count_ones(), 1);
                assert!(m.trailing_zeros() < w as u32);
            }
        }
    }

    #[test]
    fn delays_stay_in_bounds() {
        let plan = FaultPlan::none().with_delays(1.0, 5);
        let fs = FaultState::new(&plan, 4).unwrap();
        let mut seen = [false; 6];
        for r in 0..100 {
            for s in 0..4 {
                match fs.fate(r, s, 0) {
                    Fate::Delay(by) => {
                        assert!((1..=5).contains(&by));
                        seen[by as usize] = true;
                    }
                    _ => panic!("delay_prob = 1.0 must always delay"),
                }
            }
        }
        assert!(seen[1..].iter().all(|&s| s), "all delay values must occur");
    }

    #[test]
    fn crashes_fire_once_at_their_round() {
        let plan = FaultPlan::none()
            .with_crash(NodeId(2), 3)
            .with_crash(NodeId(2), 3);
        let mut fs = FaultState::new(&plan, 4).unwrap();
        let mut m = Metrics::default();
        let mut moved = Transitions::default();
        for r in 0..6 {
            fs.begin_round(r, &mut m, &mut moved);
        }
        assert_eq!(m.crashed, 1, "duplicate schedule entries fire once");
        assert_eq!(moved.left, vec![2]);
        assert!(fs.is_crashed(2));
        assert!(!fs.is_crashed(0));
    }

    /// A node scheduled twice is reported once, at its earliest entry,
    /// whatever the plan's order; nothing ever rejoins.
    #[test]
    fn crashes_are_reported_once_at_the_earliest_schedule_entry() {
        let plan = FaultPlan::none()
            .with_crash(NodeId(1), 9)
            .with_crash(NodeId(1), 4)
            .with_crash(NodeId(3), 0);
        let mut fs = FaultState::new(&plan, 4).unwrap();
        let mut m = Metrics::default();
        let mut reported = Vec::new();
        for r in 0..12 {
            let mut moved = Transitions::default();
            fs.begin_round(r, &mut m, &mut moved);
            assert!(moved.rejoined.is_empty());
            reported.extend(moved.left.iter().map(|&v| (r, v)));
            assert_eq!(fs.is_crashed(1), r >= 4, "node 1 in round {r}");
        }
        assert_eq!(reported, vec![(0, 3), (4, 1)]);
        assert_eq!(m.crashed, 2);
    }
}
