//! The price ledger (DESIGN.md §2d): path sets that routing recorded
//! instead of pricing on the spot, priced on several threads, either after
//! the fact ([`Hierarchy::price_ledger`]) or while the producer is still
//! recording them ([`Hierarchy::price_stream`]).
//!
//! There is one worker loop. A producer pushes entries through a
//! [`LedgerFeed`] into a queue behind a `Mutex` and a `Condvar`; scoped
//! helpers block on the condvar while it is empty and price entries as
//! they arrive. When the producer returns, the calling thread helps drain
//! the queue. A drop guard closes the queue on every exit path (success,
//! error or panic), so no helper is left waiting for an entry that never
//! comes.

use crate::{EmulationMode, EmulationScratch, Hierarchy, PricingCounts};
use amt_walks::KeySlab;
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
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

/// Entries pushed and not yet taken by a worker.
struct Pending<L> {
    entries: VecDeque<L>,
    /// Entries taken so far: the index of `entries[0]` in push order.
    taken: usize,
    /// Workers blocked on the condvar, so a push wakes nobody when none is.
    idle: usize,
    /// No entry will be pushed any more.
    closed: bool,
}

/// The queue between a producer and the pricing workers.
struct Queue<L> {
    pending: Mutex<Pending<L>>,
    ready: Condvar,
}

impl<L> Queue<L> {
    /// Every update of `Pending` leaves it valid at each step, so a lock
    /// poisoned by a panicking thread is still safe to use.
    fn lock(&self) -> MutexGuard<'_, Pending<L>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next entry with its index in push order; blocks while the queue
    /// is empty and open, and returns `None` once it is empty and closed.
    fn next(&self) -> Option<(usize, L)> {
        let mut pending = self.lock();
        loop {
            if let Some(entry) = pending.entries.pop_front() {
                pending.taken += 1;
                return Some((pending.taken - 1, entry));
            }
            if pending.closed {
                return None;
            }
            pending.idle += 1;
            pending = self
                .ready
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
            pending.idle -= 1;
        }
    }

    /// Closes the queue and wakes every waiting worker; `discard` also
    /// drops the entries no worker has taken yet.
    fn close(&self, discard: bool) {
        let mut pending = self.lock();
        pending.closed = true;
        if discard {
            pending.entries.clear();
        }
        drop(pending);
        self.ready.notify_all();
    }
}

/// Closes its queue, discarding what is left, when dropped: on an error
/// return or a panic of the producer or of the calling thread's share of
/// the pricing. Without it the helpers would wait forever and the scope
/// that joins them would never return.
struct CloseOnDrop<'q, L>(&'q Queue<L>);

impl<L> Drop for CloseOnDrop<'_, L> {
    fn drop(&mut self) {
        self.0.close(true);
    }
}

/// The producer's end of [`Hierarchy::price_stream`]: entries pushed here
/// are priced by the helper workers while the producer keeps running.
pub struct LedgerFeed<'q, L> {
    queue: &'q Queue<L>,
    pushed: usize,
}

impl<L> LedgerFeed<'_, L> {
    /// Queues `entries` for pricing, after every entry pushed before them.
    pub fn extend(&mut self, entries: impl IntoIterator<Item = L>) {
        let mut pending = self.queue.lock();
        let before = pending.entries.len();
        pending.entries.extend(entries);
        let added = pending.entries.len() - before;
        let wake = pending.idle > 0 && added > 0;
        drop(pending);
        self.pushed += added;
        if wake {
            self.queue.ready.notify_all();
        }
    }

    /// Entries pushed so far; the next entry pushed gets this index.
    pub fn pushed(&self) -> usize {
        self.pushed
    }
}

impl Hierarchy<'_> {
    /// Runs `produce`, pricing under `mode` every entry it pushes into its
    /// [`LedgerFeed`] while it runs, and returns its result with the prices
    /// in push order.
    ///
    /// Up to `workers − 1` scoped helpers price entries as they arrive;
    /// when `produce` returns, the calling thread helps finish the queue.
    /// Each worker has its own [`EmulationScratch`]. A price is a pure
    /// function of the hierarchy, the level, the paths and `mode`, so every
    /// price but [`Price::nanos`] is the same for any worker count and any
    /// order in which the entries are taken. A helper the host refuses to
    /// start is skipped; the threads that did start price its share. With
    /// one worker no thread is started.
    ///
    /// # Errors
    ///
    /// The error of `produce`, returned once the helpers have stopped;
    /// entries not yet taken by a worker are then dropped unpriced. A panic
    /// of `produce` or of a worker propagates the same way.
    pub fn price_stream<L, T, E>(
        &self,
        mode: EmulationMode,
        workers: usize,
        produce: impl FnOnce(&mut LedgerFeed<'_, L>) -> Result<T, E>,
    ) -> Result<(T, Vec<Price>), E>
    where
        L: Borrow<LedgerEntry> + Send,
    {
        let queue: Queue<L> = Queue {
            pending: Mutex::new(Pending {
                entries: VecDeque::new(),
                taken: 0,
                idle: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        };
        let work = || {
            let mut scratch = EmulationScratch::new();
            let mut priced = Vec::new();
            while let Some((i, entry)) = queue.next() {
                let entry = entry.borrow();
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
            priced
        };
        std::thread::scope(|s| {
            let _close_on_exit = CloseOnDrop(&queue);
            let helpers: Vec<_> = (1..workers.max(1))
                .filter_map(|_| std::thread::Builder::new().spawn_scoped(s, work).ok())
                .collect();
            let mut feed = LedgerFeed {
                queue: &queue,
                pushed: 0,
            };
            let made = produce(&mut feed)?;
            queue.close(false);
            let mut priced = work();
            for h in helpers {
                priced.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
            }
            let mut prices = vec![Price::default(); feed.pushed];
            for (i, price) in priced {
                prices[i] = price;
            }
            Ok((made, prices))
        })
    }

    /// Prices every entry of a recorded `ledger` under `mode` on up to
    /// `workers` threads ([`Hierarchy::price_stream`] with a producer that
    /// pushes the whole ledger at once) and returns the prices in entry
    /// order.
    pub fn price_ledger(
        &self,
        ledger: &[LedgerEntry],
        mode: EmulationMode,
        workers: usize,
    ) -> Vec<Price> {
        let workers = workers.clamp(1, ledger.len().max(1));
        let Ok(((), prices)) = self.price_stream(mode, workers, |feed| {
            feed.extend(ledger);
            Ok::<_, Infallible>(())
        });
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
