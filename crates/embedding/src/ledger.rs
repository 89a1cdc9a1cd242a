//! The price ledger (DESIGN.md §2d): path sets that routing recorded
//! instead of pricing on the spot, priced afterwards in one pass that may
//! span several threads.

use crate::{EmulationMode, EmulationScratch, Hierarchy, PricingCounts};
use amt_walks::KeySlab;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One deferred [`Hierarchy::emulate_paths`] call: multi-hop paths of
/// directed level-`level` keys. A ledger is a list of entries.
#[derive(Clone, Debug, Default)]
pub struct LedgerEntry {
    /// Overlay level whose keys the paths cross.
    pub level: u32,
    /// The paths, one sequence of directed keys each.
    pub paths: KeySlab,
}

/// The price of one [`LedgerEntry`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Price {
    /// Measured base rounds ([`Hierarchy::emulate_paths`]).
    pub rounds: u64,
    /// Batches priced in closed form and by the race.
    pub counts: PricingCounts,
    /// Host wall-clock nanoseconds spent pricing the entry.
    pub nanos: u64,
}

impl Hierarchy<'_> {
    /// Prices every entry of `ledger` under `mode`, on the calling thread
    /// plus up to `workers − 1` scoped helpers, and returns the prices in
    /// entry order.
    ///
    /// Workers take entries through one shared cursor, each with its own
    /// [`EmulationScratch`]. A price is a pure function of the hierarchy,
    /// the level, the paths and `mode`, so every price but
    /// [`Price::nanos`] is the same for any worker count and any order in
    /// which the entries are taken. A helper the host refuses to start is
    /// skipped; the threads that did start price its share.
    pub fn price_ledger(
        &self,
        ledger: &[LedgerEntry],
        mode: EmulationMode,
        workers: usize,
    ) -> Vec<Price> {
        let cursor = AtomicUsize::new(0);
        let work = || {
            let mut scratch = EmulationScratch::new();
            let mut priced = Vec::new();
            loop {
                // Relaxed: the cursor publishes no data; the prices come
                // back through `join`.
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(entry) = ledger.get(i) else {
                    return priced;
                };
                let started = Instant::now();
                let rounds = self.emulate_paths(entry.level, &entry.paths, mode, &mut scratch);
                priced.push((
                    i,
                    Price {
                        rounds,
                        counts: scratch.take_counts(),
                        nanos: started.elapsed().as_nanos() as u64,
                    },
                ));
            }
        };
        let helpers = workers.clamp(1, ledger.len().max(1)) - 1;
        let priced = std::thread::scope(|s| {
            let handles: Vec<_> = (0..helpers)
                .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, work).ok())
                .collect();
            let mut priced = work();
            for h in handles {
                priced.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            priced
        });
        let mut prices = vec![Price::default(); ledger.len()];
        for (i, price) in priced {
            prices[i] = price;
        }
        prices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dir_key, HierarchyConfig};
    use amt_graphs::{generators, EdgeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn prices_do_not_depend_on_the_worker_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::random_regular(48, 6, &mut rng).unwrap();
        let mut cfg = HierarchyConfig::auto(&g, 30, 5);
        cfg.beta = 4;
        cfg.levels = 2;
        let h = Hierarchy::build(&g, cfg).unwrap();
        // Entries over every level, with one to ten paths each.
        let ledger: Vec<LedgerEntry> = (0..10u32)
            .map(|i| {
                let level = i % (h.depth() + 1);
                let edges = h.overlay(level).graph().edge_count() as u32;
                let mut paths = KeySlab::new();
                for p in 0..=i {
                    let e = (7 * p + i) % edges;
                    paths.push([dir_key(EdgeId(e), p % 2 == 0)]);
                }
                LedgerEntry { level, paths }
            })
            .collect();
        for mode in [EmulationMode::Factored, EmulationMode::Exact] {
            let key = |ledger: &[LedgerEntry], workers| -> Vec<(u64, PricingCounts)> {
                h.price_ledger(ledger, mode, workers)
                    .iter()
                    .map(|p| (p.rounds, p.counts))
                    .collect()
            };
            let one = key(&ledger, 1);
            assert_eq!(one.len(), ledger.len());
            assert!(one.iter().all(|&(rounds, _)| rounds > 0));
            for workers in [0, 2, 3, 64] {
                assert_eq!(key(&ledger, workers), one, "{mode:?}, {workers} workers");
                assert!(key(&[], workers).is_empty());
            }
        }
    }
}
