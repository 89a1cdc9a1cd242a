//! Store-and-forward path routing: the single primitive behind all honest
//! round accounting for overlay emulation.
//!
//! A *token* is a message with a fixed path, given as a sequence of
//! **capacity keys**. A key abstracts "one directed edge of some graph":
//! per round, at most `capacity` tokens may cross each key, and a token
//! crosses at most one key per round (store-and-forward). Keys are opaque
//! `u64`s, so the same router prices base-graph edges, overlay edges of any
//! hierarchy level, or virtual-tree edges.
//!
//! The computed schedule is FIFO per key (ties broken by token id), which is
//! within a constant factor of the optimal makespan for store-and-forward
//! routing and is exactly what a distributed execution with per-edge queues
//! would do. Each round serves the keys with waiting tokens in ascending key
//! order; a token that crosses a key joins its next key's queue for the
//! following round.
//!
//! [`PathScheduler`] keeps every piece of state in flat arenas it reuses
//! across calls (DESIGN.md §2d): keys are remapped to dense ids, per-key
//! FIFO queues are intrusive lists over token ids, and the schedule is one
//! [`KeySlab`] with one entry per round.
//!
//! A path set in which no path crosses more than one key (the router's hop
//! and bottom deliveries, direct clique routing) needs no queues: no token
//! ever joins a second queue, so a key crossed by `m` tokens is crossed
//! `min(c, m − (r − 1)·c)` times in round `r` at capacity `c`, and the
//! makespan is `⌈max m / c⌉`. The scheduler detects that shape while it
//! collects the keys and then sorts them once and writes this schedule
//! directly; stats and schedule are the same as the queues would give.

/// Empty-queue / end-of-list sentinel for the intrusive token lists.
const NONE: u32 = u32::MAX;

/// Measured statistics of one [`route_paths`] schedule.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathRouteStats {
    /// Makespan in rounds (0 when every path is empty).
    pub rounds: u64,
    /// Total key crossings performed (the sum of path lengths: every token
    /// is delivered).
    pub traversals: u64,
    /// Maximum number of tokens that crossed any single key in total
    /// (the congestion of the path system).
    pub max_key_congestion: u64,
}

/// A set of token paths the scheduler can route: token `i` crosses the
/// keys of `path(i)` in order.
///
/// Implemented for slices, arrays and `Vec`s of anything that is a
/// `[u64]` (so `&Vec<Vec<u64>>` routes as before), and for [`KeySlab`].
/// Callers with paths stored elsewhere implement it to route borrowed
/// views without copying them.
pub trait KeyPaths {
    /// Number of tokens.
    fn count(&self) -> usize;
    /// The keys token `i` crosses, in crossing order.
    fn path(&self, i: usize) -> impl Iterator<Item = u64> + '_;
}

impl<T: AsRef<[u64]>> KeyPaths for [T] {
    fn count(&self) -> usize {
        self.len()
    }

    fn path(&self, i: usize) -> impl Iterator<Item = u64> + '_ {
        self[i].as_ref().iter().copied()
    }
}

impl<T: AsRef<[u64]>> KeyPaths for Vec<T> {
    fn count(&self) -> usize {
        self.len()
    }

    fn path(&self, i: usize) -> impl Iterator<Item = u64> + '_ {
        self[i].as_ref().iter().copied()
    }
}

impl<T: AsRef<[u64]>, const N: usize> KeyPaths for [T; N] {
    fn count(&self) -> usize {
        N
    }

    fn path(&self, i: usize) -> impl Iterator<Item = u64> + '_ {
        self[i].as_ref().iter().copied()
    }
}

/// Key sequences stored back to back in one slab: sequence `i` is
/// `keys[ends[i − 1] .. ends[i]]`.
///
/// Serves both as a path set (one sequence per token) and as a schedule
/// (one sequence per round: the keys crossed in that round).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeySlab {
    keys: Vec<u64>,
    ends: Vec<usize>,
}

impl KeySlab {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the slab holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Sequence `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> &[u64] {
        &self.keys[self.span(i)]
    }

    /// Where sequence `i` lies in [`KeySlab::keys`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn span(&self, i: usize) -> std::ops::Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }

    /// The sequences in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Every key of every sequence, back to back.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Appends one sequence.
    pub fn push(&mut self, seq: impl IntoIterator<Item = u64>) {
        self.keys.extend(seq);
        self.ends.push(self.keys.len());
    }

    /// A copy in fresh allocations of exactly the used size, for slabs kept
    /// for a long time.
    pub fn compacted(self) -> KeySlab {
        KeySlab {
            keys: self.keys.to_vec(),
            ends: self.ends.to_vec(),
        }
    }

    /// Removes every sequence, keeping the allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.ends.clear();
    }
}

impl KeyPaths for KeySlab {
    fn count(&self) -> usize {
        self.len()
    }

    fn path(&self, i: usize) -> impl Iterator<Item = u64> + '_ {
        self.get(i).iter().copied()
    }
}

/// A reusable store-and-forward scheduler.
///
/// [`PathScheduler::route`] computes the FIFO schedule of a path set and
/// keeps it in [`PathScheduler::schedule`] until the next call. All arenas
/// are kept across calls, so a caller that routes many small path sets
/// (recursive emulation pricing does) allocates only while the sets grow.
///
/// # Examples
///
/// ```
/// use amt_walks::PathScheduler;
/// let mut sched = PathScheduler::new();
/// let stats = sched.route(&[vec![7, 1], vec![7, 2]], 1);
/// assert_eq!(stats.rounds, 3);
/// let rounds: Vec<&[u64]> = sched.schedule().iter().collect();
/// assert_eq!(rounds, [&[7][..], &[1, 7], &[2]]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PathScheduler {
    /// The distinct keys in ascending order: dense id `d` is key
    /// `distinct[d]`.
    distinct: Vec<u64>,
    /// Dense key id of every occurrence, token paths back to back.
    occ: Vec<u32>,
    /// Per dense key: tokens crossing it in total (its congestion).
    load: Vec<u64>,
    /// Per token: its next occurrence to cross, and one past its last.
    at: Vec<u32>,
    end: Vec<u32>,
    /// Per dense key: first and last token of its FIFO queue.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Per token: the token behind it in its current key's queue.
    next: Vec<u32>,
    /// Dense ids of the keys with waiting tokens, ascending (which is
    /// ascending key order).
    active: Vec<u32>,
    next_active: Vec<u32>,
    /// `(dense key, token)` crossings of this round, joining queues at its
    /// end (store-and-forward).
    arrivals: Vec<(u32, u32)>,
    schedule: KeySlab,
}

impl PathScheduler {
    /// A scheduler with empty arenas.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes every token along its path under per-key `capacity` and
    /// records the schedule (see [`PathScheduler::schedule`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, or if there are `u32::MAX` or more tokens
    /// or key occurrences in total.
    pub fn route<P: KeyPaths + ?Sized>(&mut self, paths: &P, capacity: u32) -> PathRouteStats {
        self.run::<true, P>(paths, capacity)
    }

    /// [`PathScheduler::route`] without recording the schedule, for callers
    /// that need only the stats: the schedule holds one key per traversal,
    /// which for a full round of an overlay is the largest arena by far.
    /// [`PathScheduler::schedule`] is empty afterwards.
    ///
    /// # Panics
    ///
    /// As [`PathScheduler::route`].
    pub fn measure<P: KeyPaths + ?Sized>(&mut self, paths: &P, capacity: u32) -> PathRouteStats {
        self.run::<false, P>(paths, capacity)
    }

    fn run<const RECORD: bool, P: KeyPaths + ?Sized>(
        &mut self,
        paths: &P,
        capacity: u32,
    ) -> PathRouteStats {
        assert!(capacity > 0, "capacity must be positive");
        let PathScheduler {
            distinct,
            occ,
            load,
            at,
            end,
            head,
            tail,
            next,
            active,
            next_active,
            arrivals,
            schedule,
        } = self;
        let tokens = paths.count();

        // Dense remap: a key's id is its rank among the distinct keys, found
        // by bisection, so ids follow key order and no array is sized by the
        // key values themselves. The keys are collected in a buffer that is
        // sorted and deduplicated whenever it doubles, so it holds
        // O(distinct keys), not one entry per occurrence: full-round path
        // sets cross each key many times. While every path so far has at
        // most one key the buffer is not compacted: it then holds every
        // occurrence, which is what the closed form counts.
        distinct.clear();
        let (mut traversals, mut settled, mut single) = (0usize, 0usize, true);
        for i in 0..tokens {
            let before = distinct.len();
            distinct.extend(paths.path(i));
            let len = distinct.len() - before;
            traversals += len;
            single &= len <= 1;
            if !single && distinct.len() >= 2 * settled + 1024 {
                distinct.sort_unstable();
                distinct.dedup();
                settled = distinct.len();
            }
        }
        assert!(
            tokens.max(traversals) < NONE as usize,
            "path system exceeds u32::MAX tokens or key occurrences"
        );
        schedule.clear();
        if single {
            let (rounds, max_key_congestion) =
                single_crossings::<RECORD>(distinct, load, active, next_active, schedule, capacity);
            return PathRouteStats {
                rounds,
                traversals: traversals as u64,
                max_key_congestion,
            };
        }
        distinct.sort_unstable();
        distinct.dedup();
        load.clear();
        load.resize(distinct.len(), 0);
        occ.clear();
        occ.reserve(traversals);
        at.clear();
        at.reserve(tokens);
        end.clear();
        end.reserve(tokens);
        for i in 0..tokens {
            at.push(occ.len() as u32);
            for key in paths.path(i) {
                let id = distinct.partition_point(|&k| k < key);
                load[id] += 1;
                occ.push(id as u32);
            }
            end.push(occ.len() as u32);
        }
        let max_key_congestion = load.iter().copied().max().unwrap_or(0);

        head.clear();
        head.resize(distinct.len(), NONE);
        tail.clear();
        tail.resize(distinct.len(), NONE);
        next.clear();
        next.resize(tokens, NONE);
        active.clear();
        let mut remaining = 0usize;
        for tok in 0..tokens {
            if at[tok] < end[tok] {
                let key = occ[at[tok] as usize] as usize;
                enqueue(head, tail, next, key, tok as u32, active);
                remaining += 1;
            }
        }
        active.sort_unstable();

        if RECORD {
            schedule.keys.reserve_exact(traversals);
        }
        let mut rounds = 0u64;
        while remaining > 0 {
            rounds += 1;
            arrivals.clear();
            next_active.clear();
            for &key in active.iter() {
                let key = key as usize;
                for _ in 0..capacity {
                    let tok = head[key];
                    if tok == NONE {
                        break;
                    }
                    head[key] = next[tok as usize];
                    if RECORD {
                        schedule.keys.push(distinct[key]);
                    }
                    let t = tok as usize;
                    at[t] += 1;
                    if at[t] == end[t] {
                        remaining -= 1;
                    } else {
                        arrivals.push((occ[at[t] as usize], tok));
                    }
                }
                if head[key] != NONE {
                    next_active.push(key as u32);
                }
            }
            // A key gains a queue entry here only if it had none, so it
            // cannot already be in `next_active`.
            for &(key, tok) in arrivals.iter() {
                enqueue(head, tail, next, key as usize, tok, next_active);
            }
            next_active.sort_unstable();
            std::mem::swap(active, next_active);
            if RECORD {
                schedule.ends.push(schedule.keys.len());
            }
        }
        PathRouteStats {
            rounds,
            traversals: traversals as u64,
            max_key_congestion,
        }
    }

    /// The schedule of the last [`PathScheduler::route`] call: entry `r` is
    /// the multiset of keys crossed in round `r + 1`, in service order.
    pub fn schedule(&self) -> &KeySlab {
        &self.schedule
    }
}

/// The FIFO schedule of a path set whose paths cross at most one key each,
/// in closed form; `keys` holds every key occurrence, in any order.
/// Returns the makespan and the largest key congestion, and writes the
/// schedule if `RECORD`.
///
/// Each round serves the keys with tokens left in ascending order, `c`
/// tokens of each (fewer in a key's last round), exactly as the queues
/// would: a crossing delivers its token, so no key gains a token after
/// round 1.
fn single_crossings<const RECORD: bool>(
    keys: &mut Vec<u64>,
    load: &mut Vec<u64>,
    live: &mut Vec<u32>,
    next_live: &mut Vec<u32>,
    schedule: &mut KeySlab,
    capacity: u32,
) -> (u64, u64) {
    // `keys[d]` becomes the `d`-th distinct key and `load[d]` the number of
    // tokens crossing it.
    keys.sort_unstable();
    let occurrences = keys.len();
    load.clear();
    load.extend(keys.chunk_by(|a, b| a == b).map(|run| run.len() as u64));
    keys.dedup();
    let distinct = keys.len();
    let max_key_congestion = load.iter().copied().max().unwrap_or(0);
    let cap = u64::from(capacity);
    let rounds = max_key_congestion.div_ceil(cap);
    if RECORD {
        schedule.keys.reserve_exact(occurrences);
        live.clear();
        live.extend(0..distinct as u32);
        while !live.is_empty() {
            next_live.clear();
            for &d in live.iter() {
                let d = d as usize;
                let take = load[d].min(cap);
                load[d] -= take;
                schedule
                    .keys
                    .extend(std::iter::repeat_n(keys[d], take as usize));
                if load[d] > 0 {
                    next_live.push(d as u32);
                }
            }
            std::mem::swap(live, next_live);
            schedule.ends.push(schedule.keys.len());
        }
        debug_assert_eq!(schedule.len() as u64, rounds);
    }
    (rounds, max_key_congestion)
}

/// Appends `tok` to `key`'s queue, listing `key` in `active` if its queue
/// was empty.
fn enqueue(
    head: &mut [u32],
    tail: &mut [u32],
    next: &mut [u32],
    key: usize,
    tok: u32,
    active: &mut Vec<u32>,
) {
    if head[key] == NONE {
        head[key] = tok;
        active.push(key as u32);
    } else {
        next[tail[key] as usize] = tok;
    }
    tail[key] = tok;
    next[tok as usize] = NONE;
}

/// Routes every token along its fixed path under per-key capacity, returning
/// the measured makespan.
///
/// `paths[i]` is token `i`'s key sequence; empty paths finish at round 0.
/// `capacity` is the number of tokens that may cross one key per round
/// (1 for CONGEST edges).
///
/// # Panics
///
/// Panics if `capacity == 0`.
///
/// # Examples
///
/// ```
/// use amt_walks::route_paths;
/// // Three tokens contending for key 7, then fanning out.
/// let paths = vec![vec![7, 1], vec![7, 2], vec![7, 3]];
/// let stats = route_paths(&paths, 1);
/// // Key 7 serializes the three tokens: 3 rounds, plus 1 for the last hop.
/// assert_eq!(stats.rounds, 4);
/// assert_eq!(stats.max_key_congestion, 3);
/// ```
pub fn route_paths<P: KeyPaths + ?Sized>(paths: &P, capacity: u32) -> PathRouteStats {
    PathScheduler::new().measure(paths, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_PATHS: [Vec<u64>; 0] = [];

    #[test]
    fn empty_input_is_free() {
        let stats = route_paths(&NO_PATHS, 1);
        assert_eq!(stats.rounds, 0);
        let stats = route_paths(&[vec![], vec![]], 1);
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.traversals, 0);
    }

    #[test]
    fn single_token_takes_path_length() {
        let stats = route_paths(&[vec![1, 2, 3, 4]], 1);
        assert_eq!(stats.rounds, 4);
        assert_eq!(stats.traversals, 4);
    }

    #[test]
    fn contention_serializes() {
        // k tokens all needing the same single key: k rounds at capacity 1.
        let paths: Vec<Vec<u64>> = (0..5).map(|_| vec![42]).collect();
        assert_eq!(route_paths(&paths, 1).rounds, 5);
        assert_eq!(route_paths(&paths, 5).rounds, 1);
        assert_eq!(route_paths(&paths, 2).rounds, 3);
    }

    #[test]
    fn disjoint_paths_parallelize() {
        let paths: Vec<Vec<u64>> = (0..10).map(|i| vec![i * 3, i * 3 + 1, i * 3 + 2]).collect();
        let stats = route_paths(&paths, 1);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.max_key_congestion, 1);
    }

    #[test]
    fn makespan_at_least_congestion_and_dilation() {
        // Classic lower bound: rounds ≥ max(max congestion / capacity, max path len).
        let paths = vec![vec![9, 1, 2], vec![9, 3], vec![9, 4], vec![5, 9, 6]];
        let stats = route_paths(&paths, 1);
        assert!(stats.rounds >= 4); // congestion on key 9 is 4
        assert!(stats.rounds >= 3); // dilation is 3
        assert!(stats.rounds <= 4 + 3);
    }

    #[test]
    fn pipeline_through_shared_path() {
        // k tokens through the same length-L path: L + k − 1 rounds.
        let k = 6;
        let l = 4;
        let paths: Vec<Vec<u64>> = (0..k).map(|_| (0..l).collect()).collect();
        let stats = route_paths(&paths, 1);
        assert_eq!(stats.rounds, l + k - 1);
    }

    #[test]
    fn repeated_key_within_one_path() {
        let stats = route_paths(&[vec![7, 7, 7]], 1);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.max_key_congestion, 3);
    }

    #[test]
    fn huge_sparse_keys_are_remapped() {
        let top = u64::MAX;
        let paths = vec![vec![top, 0], vec![top, top - 1], vec![0]];
        let mut sched = PathScheduler::new();
        let stats = sched.route(&paths, 1);
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.max_key_congestion, 2);
        let rounds: Vec<&[u64]> = sched.schedule().iter().collect();
        assert_eq!(rounds, [&[0, top][..], &[0, top], &[top - 1]]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = route_paths(&[vec![1]], 0);
    }

    #[test]
    fn schedule_batches_match_stats() {
        let paths = vec![vec![9, 1, 2], vec![9, 3], vec![5, 9, 6]];
        let mut scheduler = PathScheduler::new();
        let stats = scheduler.route(&paths, 1);
        let sched = scheduler.schedule();
        assert_eq!(sched.len() as u64, stats.rounds);
        assert_eq!(sched.keys().len() as u64, stats.traversals);
        // No key crossed more than capacity times per round.
        for round in sched.iter() {
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), round.len(), "capacity violated in {round:?}");
        }
    }

    #[test]
    fn scheduler_reuse_matches_fresh_runs() {
        let big: Vec<Vec<u64>> = (0..40).map(|i| vec![i % 5, 100 + i % 3, i]).collect();
        let small = vec![vec![3, 4], vec![3]];
        let mut sched = PathScheduler::new();
        for paths in [&big, &small, &big] {
            let stats = sched.route(paths, 2);
            let mut fresh = PathScheduler::new();
            assert_eq!(stats, fresh.route(paths, 2));
            assert_eq!(sched.schedule(), fresh.schedule());
        }
    }

    #[test]
    fn key_slab_round_trips_sequences() {
        let mut slab = KeySlab::new();
        slab.push([1, 2, 3]);
        slab.push([]);
        slab.push([u64::MAX]);
        assert_eq!(slab.len(), 3);
        assert_eq!(slab.get(0), &[1, 2, 3]);
        assert!(slab.get(1).is_empty());
        assert_eq!(slab.get(2), &[u64::MAX]);
        assert_eq!(slab.span(1), 3..3);
        assert_eq!(slab.span(2), 3..4);
        assert_eq!(slab.keys(), &[1, 2, 3, u64::MAX]);
        let as_vecs: Vec<Vec<u64>> = slab.iter().map(<[u64]>::to_vec).collect();
        assert_eq!(route_paths(&slab, 1), route_paths(&as_vecs, 1));
        slab.clear();
        assert!(slab.is_empty());
    }

    #[test]
    fn fifo_is_deterministic() {
        let paths: Vec<Vec<u64>> = (0..50).map(|i| vec![i % 7, (i + 1) % 7, 100 + i]).collect();
        assert_eq!(route_paths(&paths, 1), route_paths(&paths, 1));
    }
}
