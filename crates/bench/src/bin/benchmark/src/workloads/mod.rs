//! The five workloads and the closed-loop harness they share.
//!
//! Every workload is one caller issuing its next operation only after the
//! previous one returned (a closed loop with one client). A run first
//! performs the workload's *base set* of operations — fixed inputs derived
//! from the seed, which define the digest and every per-layer count — and,
//! untraced, repeats the base set as a whole while less than `--seconds` of
//! wall time have passed. Operation `i` uses base input `i % base`, so every
//! run of a seed times the same inputs in the same proportions however fast
//! the host or the code is.
//!
//! Operations are short (milliseconds to a few hundred) and the base set
//! holds dozens to hundreds of distinct inputs, so one run averages the
//! per-input cost variation — 2–4x between the weights of one MST network —
//! instead of sampling it. Every set-up and operation time is scaled to the
//! host's nominal speed by the [`Reference`] samples taken around it; the
//! end-to-end latency is the mean scaled operation time over whole passes,
//! and the set-up time the median scaled set-up.

mod congest;
mod paper;

use crate::json::Json;
use crate::meta;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::reference::{self, Reference};
use crate::stats;
use crate::trace::Tracer;
use amt_core::graphs::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Set-ups timed in a row where set-up is cheap (the simulator workloads'
/// networks, a millisecond or less): one group before the first operation
/// and [`SETUP_GROUPS`] more spread over the base set. The reported set-up
/// time is the median of all of them, so it samples the whole run instead
/// of one burst of host contention.
pub const SETUP_GROUP: usize = 4;
const SETUP_GROUPS: usize = 4;

pub const NAMES: [&str; 5] = [
    "paper_mst",
    "paper_build_route",
    "congest_sim",
    "congest_sim_t1",
    "congest_faulty",
];

#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one workload run reports to the parent process.
#[derive(Clone, Debug, PartialEq)]
pub struct Output {
    pub workload: String,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Values,
    pub attempted: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// FNV-1a hash over the base set's simulated statistics, and how many
    /// values it covers; equal across runs of one seed unless behaviour
    /// changed.
    pub digest: String,
    pub digest_values: u64,
    /// Measured set-up and operation seconds.
    pub setup_s: Vec<f64>,
    pub op_s: Vec<f64>,
    /// Host-speed reference samples, seconds.
    pub ref_s: Vec<f64>,
    /// The same set-up and operation times scaled to nominal host speed.
    pub setup_norm_s: Vec<f64>,
    pub op_norm_s: Vec<f64>,
}

/// Runs workload `name` in this process. The tracer is returned so the
/// caller can write the spans out.
pub fn run(name: &str, cfg: Config) -> Result<(Output, Tracer), String> {
    let (workload, threads): (fn(&mut Harness), usize) = match name {
        "paper_mst" => (paper::paper_mst, 1),
        "paper_build_route" => (paper::paper_build_route, 1),
        "congest_sim" => (congest::congest_sim, 2),
        "congest_sim_t1" => (congest::congest_sim, 1),
        "congest_faulty" => (congest::congest_faulty, 1),
        other => return Err(format!("unknown workload {other:?} (known: {NAMES:?})")),
    };
    let mut h = Harness::new(cfg, threads);
    workload(&mut h);
    Ok(h.finish(name))
}

/// State shared by a workload's set-ups, operations and probes.
pub struct Harness {
    pub cfg: Config,
    /// Simulator threads the workload runs on.
    pub threads: usize,
    pub tr: Tracer,
    attempted: u64,
    failures: Vec<String>,
    digest: u64,
    digest_values: u64,
    /// Simulated statistics of each base operation, which its repeats must
    /// reproduce.
    outcomes: Vec<Option<Vec<u64>>>,
    /// Set-up and operation seconds, each with the index of the reference
    /// sample taken before it.
    setups: Vec<(f64, usize)>,
    ops: Vec<(f64, usize)>,
    reference: Reference,
    loop_started: Option<Instant>,
    /// Peak RSS when the base set completed. At two simulator threads the
    /// allocator's per-thread arenas let the peak creep up by about 3 MiB
    /// in some longer runs and not others, so the peak over the whole run
    /// would depend on how many passes the host's speed allowed.
    base_rss_mb: Option<f64>,
    pub layer: Values,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl Harness {
    /// The reference sorts on as many threads as the workload simulates
    /// on, so contention on either core shows in it.
    fn new(cfg: Config, threads: usize) -> Self {
        Harness {
            cfg,
            threads,
            tr: Tracer::new(cfg.trace),
            attempted: 0,
            failures: Vec::new(),
            digest: FNV_OFFSET,
            digest_values: 0,
            outcomes: Vec::new(),
            setups: Vec::new(),
            ops: Vec::new(),
            reference: Reference::new(threads),
            loop_started: None,
            base_rss_mb: None,
            layer: Values::default(),
        }
    }

    /// A deterministic RNG for stream `salt`, item `i` of this run's seed.
    pub fn rng(&self, salt: u64, i: u64) -> StdRng {
        StdRng::seed_from_u64(self.sub_seed(salt, i))
    }

    /// A seed for stream `salt`, item `i` (splitmix64 of the mix).
    pub fn sub_seed(&self, salt: u64, i: u64) -> u64 {
        let mut z = self.cfg.seed
            ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Counts one checked outcome; a violation is recorded by message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let msg = what();
            eprintln!("benchmark: check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Folds simulated statistics into the digest.
    pub fn digest(&mut self, values: &[u64]) {
        for &v in values {
            for b in v.to_le_bytes() {
                self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        self.digest_values += values.len() as u64;
    }

    /// Records a set-up time; the reference is sampled after it when due.
    pub fn setup_done(&mut self, took: Duration) {
        self.setups
            .push((took.as_secs_f64(), self.reference.latest()));
        self.reference.tick();
    }

    /// Whether a group of set-ups is timed after base operation `i`.
    pub fn setup_due(&self, i: usize, base: usize) -> bool {
        i < base && i.is_multiple_of(base.div_ceil(SETUP_GROUPS))
    }

    /// Whether operation `i` should run: always inside the base set. After
    /// it (untraced, outside smoke mode) a new pass over the base inputs
    /// starts only while less than `--seconds` of wall time have passed
    /// since the first operation, and a started pass always completes.
    pub fn more(&mut self, i: usize, base: usize) -> bool {
        let started = *self.loop_started.get_or_insert_with(Instant::now);
        if i == base {
            self.base_rss_mb.get_or_insert_with(meta::peak_rss_mb);
        }
        i < base
            || !i.is_multiple_of(base)
            || (!self.cfg.trace
                && !self.cfg.smoke
                && started.elapsed().as_secs_f64() < self.cfg.seconds)
    }

    /// Records operation `i`'s simulated statistics. A base operation folds
    /// them into the digest; a repeat must reproduce its base operation's.
    pub fn outcome(&mut self, i: usize, base: usize, values: Vec<u64>) {
        if i < base {
            self.digest(&values);
            self.outcomes.resize(base, None);
            self.outcomes[i] = Some(values);
        } else if let Some(Some(first)) = self.outcomes.get(i % base) {
            let same = *first == values;
            self.check(same, || format!("op {i} did not reproduce op {}", i % base));
        }
    }

    /// Records an operation's latency; the reference is sampled after it
    /// when due.
    pub fn op_done(&mut self, took: Duration) {
        self.ops.push((took.as_secs_f64(), self.reference.latest()));
        self.reference.tick();
    }

    /// Calls `f` inside span `name`, returning its result and duration.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let span = self.tr.enter(name, op);
        let started = Instant::now();
        let out = std::hint::black_box(f());
        let took = started.elapsed();
        self.tr.exit(span);
        (out, took)
    }

    fn finish(mut self, name: &str) -> (Output, Tracer) {
        // Closes the interval of the last timings.
        self.reference.sample();
        let ref_s = self.reference.samples().to_vec();
        let setup_norm_s = reference::normalize(&self.setups, &ref_s);
        let op_norm_s = reference::normalize(&self.ops, &ref_s);
        let metrics = if self.cfg.trace {
            self.layer.complete(PER_LAYER)
        } else {
            let mut m = Values::default();
            if !op_norm_s.is_empty() && !setup_norm_s.is_empty() {
                m.set("setup_s", stats::median(&setup_norm_s));
                m.set("op_ms", 1e3 * stats::mean(&op_norm_s));
            }
            let rss = self.base_rss_mb.unwrap_or_else(meta::peak_rss_mb);
            m.set("peak_rss_mb", rss);
            m.complete(END_TO_END)
        };
        let output = Output {
            workload: name.to_string(),
            metrics,
            attempted: self.attempted,
            failures: self.failures,
            digest: format!("{:016x}", self.digest),
            digest_values: self.digest_values,
            setup_s: self.setups.iter().map(|&(s, _)| s).collect(),
            op_s: self.ops.iter().map(|&(s, _)| s).collect(),
            ref_s,
            setup_norm_s,
            op_norm_s,
        };
        (output, self.tr)
    }
}

/// A uniformly random permutation request set on `n` nodes.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
    let mut dest: Vec<u32> = (0..n as u32).collect();
    dest.shuffle(rng);
    dest.into_iter()
        .enumerate()
        .map(|(s, t)| (NodeId(s as u32), NodeId(t)))
        .collect()
}

impl Output {
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .0
            .iter()
            .fold(Json::obj(), |o, (k, v)| o.with(k, *v));
        Json::obj()
            .with("workload", self.workload.as_str())
            .with("metrics", metrics)
            .with("attempted", self.attempted)
            .with(
                "failures",
                self.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("digest", self.digest.as_str())
            .with("digest_values", self.digest_values)
            .with("setup_s", &self.setup_s[..])
            .with("op_s", &self.op_s[..])
            .with("ref_s", &self.ref_s[..])
            .with("setup_norm_s", &self.setup_norm_s[..])
            .with("op_norm_s", &self.op_norm_s[..])
    }

    pub fn from_json(j: &Json) -> Result<Output, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("missing {k:?}"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("{k:?} not a number"))
        };
        let nums = |k: &str| -> Result<Vec<f64>, String> {
            field(k)?
                .as_arr()
                .ok_or_else(|| format!("{k:?} not an array"))?
                .iter()
                .map(|x| {
                    x.as_f64()
                        .ok_or_else(|| format!("{k:?} holds a non-number"))
                })
                .collect()
        };
        let text = |k: &str| -> Result<String, String> {
            Ok(field(k)?
                .as_str()
                .ok_or_else(|| format!("{k:?} not a string"))?
                .to_string())
        };
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("\"metrics\" not an object")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("metric not a number")?)))
            .collect::<Result<Vec<_>, String>>()?;
        let failures = field("failures")?
            .as_arr()
            .ok_or("\"failures\" not an array")?
            .iter()
            .map(|f| f.as_str().map(str::to_string).ok_or("failure not a string"))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Output {
            workload: text("workload")?,
            metrics: Values(metrics),
            attempted: num("attempted")? as u64,
            failures,
            digest: text("digest")?,
            digest_values: num("digest_values")? as u64,
            setup_s: nums("setup_s")?,
            op_s: nums("op_s")?,
            ref_s: nums("ref_s")?,
            setup_norm_s: nums("setup_norm_s")?,
            op_norm_s: nums("op_norm_s")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(seconds: f64) -> Harness {
        let cfg = Config {
            seed: 1,
            seconds,
            trace: false,
            smoke: false,
        };
        Harness::new(cfg, 1)
    }

    /// After the base set, passes over the base inputs start only while
    /// time remains, and a started pass completes.
    #[test]
    fn repeats_whole_passes_of_the_base_set() {
        let mut h = harness(0.0);
        let ran = (0..10).take_while(|&i| h.more(i, 3)).count();
        assert_eq!(ran, 3);
        assert!(h.base_rss_mb.is_some(), "peak RSS read after the base set");
        let mut h = harness(3600.0);
        assert!((0..3).all(|i| h.more(i, 3)));
        assert!(h.base_rss_mb.is_none());
        assert!((3..7).all(|i| h.more(i, 3)));
        h.cfg.seconds = 0.0;
        assert!(h.more(7, 3) && h.more(8, 3) && !h.more(9, 3));
    }

    /// The latency is the mean scaled operation time and the set-up time
    /// the median scaled set-up; the raw times are kept beside them.
    #[test]
    fn end_to_end_times_are_scaled_by_the_reference() {
        let mut h = harness(0.0);
        for ms in [5, 9, 7] {
            h.setup_done(Duration::from_millis(ms));
        }
        for ms in [3000, 1000, 2000, 5000] {
            h.op_done(Duration::from_millis(ms));
        }
        let (out, _) = h.finish("paper_mst");
        assert_eq!(out.op_s, [3.0, 1.0, 2.0, 5.0]);
        assert_eq!(out.setup_s, [0.005, 0.009, 0.007]);
        assert!(out.ref_s.len() >= 2);
        let op_ms = 1e3 * stats::mean(&out.op_norm_s);
        assert_eq!(out.metrics.get("op_ms"), Some(op_ms));
        assert_eq!(
            out.metrics.get("setup_s"),
            Some(stats::median(&out.setup_norm_s))
        );
    }

    /// A repeat must reproduce its base operation; only base operations
    /// enter the digest.
    #[test]
    fn repeats_are_checked_against_their_base_operation() {
        let mut h = harness(0.0);
        h.outcome(0, 2, vec![7, 8]);
        h.outcome(1, 2, vec![9]);
        let digest = (h.digest, h.digest_values);
        h.outcome(2, 2, vec![7, 8]);
        h.outcome(3, 2, vec![10]);
        assert_eq!((h.digest, h.digest_values), digest);
        assert_eq!((h.attempted, h.failures.len()), (2, 1));
        assert!(h.failures[0].contains("op 3"));
    }
}
