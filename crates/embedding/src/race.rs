//! The batch race: exact capacity-1 pricing of one emulation batch by
//! stepping its tokens directly over the stored overlay paths
//! (DESIGN.md §2d, *Batch race*).
//!
//! A batch is a handful of directed overlay keys; token `i` follows the
//! lower-level path behind `batch[i]`. Every round, each live token claims
//! its next key in a table indexed by that key, and the claimant with the
//! least `(arrival round, tie)` crosses. The tie is the batch index at
//! round 0 and the key last crossed afterwards. That is exactly the FIFO
//! order of [`amt_walks::PathScheduler`] at capacity 1: its queues are
//! filled in arrival order, the round-0 tokens in batch order, and the
//! tokens arriving in one round in the ascending order of the keys they
//! crossed (it serves keys in ascending order, one token each). The race
//! therefore gives the same makespan and, when it records, the same
//! schedule.

use crate::{key_edge, key_is_forward};
use amt_walks::KeySlab;

/// One entry of the claim table: the least priority claiming the key in
/// round `epoch`. An entry from an earlier round reads as unclaimed.
#[derive(Clone, Copy, Debug, Default)]
struct Claim {
    epoch: u32,
    prio: u64,
}

/// A token still on its way.
#[derive(Clone, Copy, Debug)]
struct Token {
    /// Slab index of the next key to cross.
    at: usize,
    /// Keys left to cross, the next one included.
    left: u32,
    /// Whether the token walks its stored path backwards, flipping each
    /// key's direction bit.
    rev: bool,
    /// The next key to cross.
    key: u32,
    /// `arrival round << 32 | tie`: the token's place in its next key's
    /// queue. Unique among live tokens, so it also names the winner.
    prio: u64,
}

impl Token {
    fn step(&mut self, keys: &[u64]) {
        self.at = if self.rev { self.at - 1 } else { self.at + 1 };
        self.key = (keys[self.at] ^ u64::from(self.rev)) as u32;
    }
}

/// Reusable state of the race: the claim table, the live tokens and the
/// recorded schedule. One per hierarchy level ([`crate::EmulationScratch`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct BatchRace {
    claims: Vec<Claim>,
    /// Stamp of the current round; bumped once per round, across calls.
    epoch: u32,
    live: Vec<Token>,
    /// The keys crossed in the current round.
    crossed: Vec<u64>,
    schedule: KeySlab,
}

impl BatchRace {
    /// The makespan of `batch`, where token `i` follows the path behind
    /// directed key `batch[i]` in `paths` (`paths.get(e)` is edge `e`'s
    /// forward path) and every path key is below `key_space`.
    ///
    /// # Panics
    ///
    /// Panics if `key_space` exceeds `u32::MAX`, or if the batch has
    /// `u32::MAX` or more tokens or key crossings in total.
    pub(crate) fn measure(&mut self, paths: &KeySlab, batch: &[u64], key_space: usize) -> u64 {
        self.run::<false>(paths, batch, key_space)
    }

    /// [`BatchRace::measure`] that also records the schedule: round `r` of
    /// [`BatchRace::schedule`] holds the keys crossed in round `r + 1` in
    /// ascending order, as [`amt_walks::PathScheduler::route`] records it.
    pub(crate) fn route(&mut self, paths: &KeySlab, batch: &[u64], key_space: usize) -> u64 {
        self.run::<true>(paths, batch, key_space)
    }

    /// The schedule of the last [`BatchRace::route`] call.
    pub(crate) fn schedule(&self) -> &KeySlab {
        &self.schedule
    }

    fn run<const RECORD: bool>(&mut self, paths: &KeySlab, batch: &[u64], key_space: usize) -> u64 {
        assert!(
            key_space <= u32::MAX as usize,
            "key space exceeds u32::MAX keys"
        );
        if self.claims.len() < key_space {
            self.claims.resize(key_space, Claim::default());
        }
        let keys = paths.keys();
        let BatchRace {
            claims,
            epoch,
            live,
            crossed,
            schedule,
        } = self;
        live.clear();
        schedule.clear();
        let mut traversals = 0usize;
        for (i, &dir) in batch.iter().enumerate() {
            let span = paths.span(key_edge(dir).index());
            if span.is_empty() {
                continue;
            }
            traversals += span.len();
            let rev = !key_is_forward(dir);
            let at = if rev { span.end - 1 } else { span.start };
            live.push(Token {
                at,
                left: span.len() as u32,
                rev,
                key: (keys[at] ^ u64::from(rev)) as u32,
                prio: i as u64,
            });
        }
        assert!(
            batch.len().max(traversals) < u32::MAX as usize,
            "batch exceeds u32::MAX tokens or key crossings"
        );
        debug_assert!(live.iter().all(|t| (t.key as usize) < key_space));

        let mut rounds = 0u64;
        while live.len() > 1 {
            rounds += 1;
            if *epoch == u32::MAX {
                claims.iter_mut().for_each(|c| c.epoch = 0);
                *epoch = 0;
            }
            *epoch += 1;
            for t in live.iter() {
                let c = &mut claims[t.key as usize];
                if c.epoch != *epoch || t.prio < c.prio {
                    *c = Claim {
                        epoch: *epoch,
                        prio: t.prio,
                    };
                }
            }
            let mut i = 0;
            while i < live.len() {
                let t = &mut live[i];
                if claims[t.key as usize].prio != t.prio {
                    i += 1;
                    continue;
                }
                if RECORD {
                    crossed.push(u64::from(t.key));
                }
                t.prio = rounds << 32 | u64::from(t.key);
                t.left -= 1;
                if t.left == 0 {
                    live.swap_remove(i);
                } else {
                    t.step(keys);
                    i += 1;
                }
            }
            if RECORD {
                crossed.sort_unstable();
                schedule.push(crossed.drain(..));
            }
        }
        // A lone token meets no contention: it crosses one key per round.
        if let Some(mut t) = live.pop() {
            rounds += u64::from(t.left);
            if RECORD {
                loop {
                    schedule.push([u64::from(t.key)]);
                    t.left -= 1;
                    if t.left == 0 {
                        break;
                    }
                    t.step(keys);
                }
            }
        }
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amt_walks::PathScheduler;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// `edges` stored forward paths of length 0–`max_len` over a pool of
    /// `keys` directed keys (even, so a reversed key stays in the pool).
    fn random_paths(rng: &mut StdRng, edges: usize, keys: u64, max_len: usize) -> KeySlab {
        let mut slab = KeySlab::new();
        for _ in 0..edges {
            let len = rng.random_range(0..=max_len);
            slab.push((0..len).map(|_| rng.random_range(0..keys)));
        }
        slab
    }

    /// The directed paths of `batch`, copied, for the general scheduler.
    fn directed(paths: &KeySlab, batch: &[u64]) -> Vec<Vec<u64>> {
        batch
            .iter()
            .map(|&dir| {
                let stored = paths.get(key_edge(dir).index());
                if key_is_forward(dir) {
                    stored.to_vec()
                } else {
                    stored.iter().rev().map(|k| k ^ 1).collect()
                }
            })
            .collect()
    }

    /// The race's rounds and schedule equal `PathScheduler`'s.
    fn assert_matches(race: &mut BatchRace, paths: &KeySlab, batch: &[u64], keys: u64) {
        let mut sched = PathScheduler::new();
        let want = sched.route(&directed(paths, batch), 1).rounds;
        let ctx = format!("batch {batch:?}");
        assert_eq!(race.measure(paths, batch, keys as usize), want, "{ctx}");
        assert_eq!(race.route(paths, batch, keys as usize), want, "{ctx}");
        assert_eq!(race.schedule(), sched.schedule(), "{ctx}");
    }

    #[test]
    fn recorded_schedule_equals_the_general_scheduler() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut race = BatchRace::default();
        for (edges, keys, max_len) in [(4usize, 6u64, 5usize), (30, 40, 12), (200, 600, 30)] {
            let paths = random_paths(&mut rng, edges, keys, max_len);
            for _ in 0..200 {
                let tokens = rng.random_range(0..40usize);
                let batch: Vec<u64> = (0..tokens)
                    .map(|_| rng.random_range(0..2 * edges as u64))
                    .collect();
                assert_matches(&mut race, &paths, &batch, keys);
            }
        }
    }

    #[test]
    fn epoch_wrap_gives_the_rounds_of_a_fresh_race() {
        let mut rng = StdRng::seed_from_u64(5);
        let paths = random_paths(&mut rng, 12, 10, 8);
        let batches: Vec<Vec<u64>> = (0..20)
            .map(|_| (0..6).map(|_| rng.random_range(0..24u64)).collect())
            .collect();
        let mut wrapping = BatchRace {
            epoch: u32::MAX - 2,
            ..BatchRace::default()
        };
        for batch in &batches {
            let mut fresh = BatchRace::default();
            let want = fresh.route(&paths, batch, 10);
            assert_eq!(wrapping.route(&paths, batch, 10), want, "{batch:?}");
            assert_eq!(wrapping.schedule(), fresh.schedule(), "{batch:?}");
        }
        assert!(wrapping.epoch < u32::MAX - 2, "the epoch never wrapped");
    }

    #[test]
    fn empty_paths_and_a_late_long_token_match_the_general_scheduler() {
        // Edge 0 is empty, edges 1–3 are short and share key 4, edge 4 is
        // long and crosses key 4 last.
        let mut paths = KeySlab::new();
        paths.push([]);
        paths.push([4]);
        paths.push([4, 2]);
        paths.push([5, 4]);
        paths.push([0, 1, 2, 3, 6, 7, 8, 4]);
        for batch in [
            vec![],
            vec![0],
            vec![0, 1],
            vec![1, 0, 0],
            vec![2, 4, 6, 8],
            vec![2, 2, 2, 8],
            vec![0, 2, 4, 6, 9],
            vec![3, 5, 7, 8],
        ] {
            assert_matches(&mut BatchRace::default(), &paths, &batch, 10);
        }
    }

    #[test]
    #[should_panic(expected = "key space exceeds u32::MAX")]
    fn oversized_key_space_panics() {
        BatchRace::default().measure(&KeySlab::new(), &[], u32::MAX as usize + 1);
    }
}
