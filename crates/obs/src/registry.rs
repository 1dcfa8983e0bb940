//! Process-wide metric registry: counters, gauges and fixed-bucket
//! histograms, aggregated from lock-free per-thread shards.
//!
//! Each thread owns a private shard per metric (an `Arc`'d atomic cell or
//! bucket array) found through a thread-local map, so the hot update path
//! is one hash lookup plus one uncontended relaxed `fetch_add` — no lock is
//! taken after the first touch of a metric on a thread. The global side
//! keeps a second `Arc` to every shard, so counts survive thread exit and
//! [`counter_value`]/[`snapshot`] can sum shards at any time without
//! stopping writers. The registry never loses an update: merging is a sum
//! of relaxed atomic loads over cells that are only ever incremented.
//!
//! Callers are expected to gate updates on [`crate::enabled`]; the registry
//! itself does not check, which keeps it usable from tests that force
//! collection on.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: one per power of two of the recorded value,
/// so bucket `i` counts values in `[2^i, 2^{i+1})` (bucket 0 is `[0, 2)`).
/// 64 buckets cover the whole `u64` range — durations in nanoseconds from
/// sub-microsecond kernels to multi-hour runs land in distinct buckets.
pub const HIST_BUCKETS: usize = 64;

/// Maps a value to its power-of-two bucket: `floor(log2(max(v, 1)))`.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

#[derive(Default)]
struct Global {
    counters: Mutex<HashMap<&'static str, Vec<Arc<AtomicU64>>>>,
    hists: Mutex<HashMap<&'static str, Vec<Arc<HistCell>>>>,
    // Gauges are last-write-wins process globals (no sharding to merge).
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
}

fn global() -> &'static Global {
    static G: OnceLock<Global> = OnceLock::new();
    G.get_or_init(Global::default)
}

thread_local! {
    static LOCAL_COUNTERS: RefCell<HashMap<&'static str, Arc<AtomicU64>>> =
        RefCell::new(HashMap::new());
    static LOCAL_HISTS: RefCell<HashMap<&'static str, Arc<HistCell>>> =
        RefCell::new(HashMap::new());
}

/// Adds `delta` to this thread's shard of counter `name`. Lock-free after
/// the first touch of `name` on the calling thread.
pub fn counter_add(name: &'static str, delta: u64) {
    LOCAL_COUNTERS.with(|m| {
        let mut m = m.borrow_mut();
        let cell = m.entry(name).or_insert_with(|| {
            let cell = Arc::new(AtomicU64::new(0));
            let mut g = global().counters.lock().expect("counter registry");
            g.entry(name).or_default().push(Arc::clone(&cell));
            cell
        });
        cell.fetch_add(delta, Relaxed);
    });
}

/// Sum of counter `name` over every thread shard ever created (including
/// shards of threads that have exited).
pub fn counter_value(name: &str) -> u64 {
    let g = global().counters.lock().expect("counter registry");
    g.get(name)
        .map(|cells| cells.iter().map(|c| c.load(Relaxed)).sum())
        .unwrap_or(0)
}

/// This thread's shard of counter `name` only. Exact for work performed on
/// the calling thread — the reading behind `StepOutput`'s wall-time fields,
/// where each data-parallel rank steps its model on its own thread.
pub fn thread_counter_value(name: &str) -> u64 {
    LOCAL_COUNTERS.with(|m| m.borrow().get(name).map(|c| c.load(Relaxed)).unwrap_or(0))
}

/// Records `value` into histogram `name` on this thread's shard.
pub fn hist_record(name: &'static str, value: u64) {
    LOCAL_HISTS.with(|m| {
        let mut m = m.borrow_mut();
        let cell = m.entry(name).or_insert_with(|| {
            let cell = Arc::new(HistCell::new());
            let mut g = global().hists.lock().expect("histogram registry");
            g.entry(name).or_default().push(Arc::clone(&cell));
            cell
        });
        cell.count.fetch_add(1, Relaxed);
        cell.sum.fetch_add(value, Relaxed);
        cell.buckets[bucket_index(value)].fetch_add(1, Relaxed);
    });
}

/// Sets gauge `name` to `v` (last write wins across threads).
pub fn gauge_set(name: &'static str, v: f64) {
    let cell = {
        let mut g = global().gauges.lock().expect("gauge registry");
        Arc::clone(
            g.entry(name)
                .or_insert_with(|| Arc::new(AtomicU64::new(0.0f64.to_bits()))),
        )
    };
    cell.store(v.to_bits(), Relaxed);
}

/// A merged view of one histogram.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded values (wraps on overflow, like the cells).
    pub sum: u64,
    /// Per-bucket counts; bucket `i` holds values in `[2^i, 2^{i+1})`.
    pub buckets: Vec<u64>,
}

/// Merges histogram `name` across all thread shards, or `None` if it was
/// never recorded.
pub fn hist_snapshot(name: &str) -> Option<HistSnapshot> {
    let g = global().hists.lock().expect("histogram registry");
    let cells = g.get(name)?;
    let mut snap = HistSnapshot {
        count: 0,
        sum: 0,
        buckets: vec![0; HIST_BUCKETS],
    };
    for c in cells.iter() {
        snap.count += c.count.load(Relaxed);
        snap.sum += c.sum.load(Relaxed);
        for (b, cell) in snap.buckets.iter_mut().zip(c.buckets.iter()) {
            *b += cell.load(Relaxed);
        }
    }
    Some(snap)
}

/// A point-in-time merge of every metric in the registry.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All counters, merged across thread shards.
    pub counters: BTreeMap<String, u64>,
    /// All gauges.
    pub gauges: BTreeMap<String, f64>,
    /// All histograms, merged across thread shards.
    pub hists: BTreeMap<String, HistSnapshot>,
}

/// Merges every registered metric. Writers are not paused, so values from
/// in-flight updates may or may not be included — each cell is still read
/// atomically, so no individual update is ever torn or double-counted.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    {
        let g = global().counters.lock().expect("counter registry");
        for (name, cells) in g.iter() {
            let total: u64 = cells.iter().map(|c| c.load(Relaxed)).sum();
            snap.counters.insert((*name).to_string(), total);
        }
    }
    {
        let g = global().gauges.lock().expect("gauge registry");
        for (name, cell) in g.iter() {
            snap.gauges
                .insert((*name).to_string(), f64::from_bits(cell.load(Relaxed)));
        }
    }
    let names: Vec<String> = {
        let g = global().hists.lock().expect("histogram registry");
        g.keys().map(|k| (*k).to_string()).collect()
    };
    for name in names {
        if let Some(h) = hist_snapshot(&name) {
            snap.hists.insert(name, h);
        }
    }
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inclusive lower edge of bucket `i` (`0` for bucket 0, else `2^i`).
    fn bucket_lower_edge(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    #[test]
    fn bucket_edges_are_powers_of_two() {
        // Bucket 0 is [0, 2): both 0 and 1 land there.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        // Each exact power of two opens its own bucket...
        for i in 1..64 {
            assert_eq!(bucket_index(1u64 << i), i as usize, "edge 2^{i}");
        }
        // ...and the value just below it still belongs to the previous one.
        for i in 2..64 {
            assert_eq!(bucket_index((1u64 << i) - 1), i as usize - 1, "below 2^{i}");
        }
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_lower_edge(0), 0);
        assert_eq!(bucket_lower_edge(1), 2);
        assert_eq!(bucket_lower_edge(10), 1024);
    }

    #[test]
    fn hist_records_land_in_documented_buckets() {
        const NAME: &str = "test.registry.bucket_landing";
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, 1025] {
            hist_record(NAME, v);
        }
        let h = hist_snapshot(NAME).expect("recorded");
        assert_eq!(h.count, 8);
        assert_eq!(h.sum, 1 + 2 + 3 + 4 + 1023 + 1024 + 1025);
        assert_eq!(h.buckets[0], 2); // 0, 1
        assert_eq!(h.buckets[1], 2); // 2, 3
        assert_eq!(h.buckets[2], 1); // 4
        assert_eq!(h.buckets[9], 1); // 1023
        assert_eq!(h.buckets[10], 2); // 1024, 1025
    }

    #[test]
    fn thread_local_view_is_distinct_from_merged_view() {
        const NAME: &str = "test.registry.thread_view";
        counter_add(NAME, 5);
        std::thread::spawn(|| counter_add(NAME, 7))
            .join()
            .expect("counter thread");
        assert_eq!(thread_counter_value(NAME), 5);
        assert_eq!(counter_value(NAME), 12);
    }
}
