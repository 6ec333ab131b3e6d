//! Wall-clock thread-pool telemetry.
//!
//! The shim's pool is where the workspace's fork-join parallelism
//! actually executes, so this is the one place that can answer "what did
//! the threads *really* do": per-thread busy/idle timelines, fork/join
//! and steal counters, and the imbalance between the busiest and the
//! average worker. The data feeds `pmcf-obs`'s Chrome trace-event
//! exporter (a `PMCF_REPORT=<path>` run writes the Perfetto-loadable
//! timeline to `<path>.trace.json`).
//!
//! Two cost tiers:
//!
//! * **Counters** (joins, batches, jobs, steals) are relaxed atomics and
//!   always on — one `fetch_add` per fork-join operation is noise next
//!   to the queue mutex the operation already takes.
//! * **Timelines** (busy slices with start/end timestamps) require two
//!   `Instant` reads and a mutex push per job, so they are recorded only
//!   while [`set_recording`]`(true)` is active. The slice buffer is
//!   bounded ([`SLICE_CAP`]); overflow increments a drop counter instead
//!   of growing without bound.
//!
//! Thread identities are small dense integers handed out on first use
//! (the submitting thread usually gets 0), with the `std::thread` name
//! captured for trace metadata. All timestamps are nanoseconds since a
//! process-global epoch, so slices recorded by different threads — and
//! annotations recorded by higher layers through [`now_ns`] — share one
//! timeline.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum busy slices retained per recording (overflow is counted, not
/// stored).
pub const SLICE_CAP: usize = 1 << 16;

static JOINS: AtomicU64 = AtomicU64::new(0);
static BATCHES: AtomicU64 = AtomicU64::new(0);
static JOBS_QUEUED: AtomicU64 = AtomicU64::new(0);
static JOBS_INLINE: AtomicU64 = AtomicU64::new(0);
static STEALS: AtomicU64 = AtomicU64::new(0);
static RECORDING: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static TID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// What a busy slice was doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SliceKind {
    /// A pool worker ran a queued job from its main loop.
    Worker,
    /// A blocked thread helped by stealing a queued job while waiting.
    Steal,
    /// The submitting thread ran the first job of a batch inline.
    Inline,
}

impl SliceKind {
    /// Stable lowercase label (used as the trace-event name).
    pub fn label(self) -> &'static str {
        match self {
            SliceKind::Worker => "worker",
            SliceKind::Steal => "steal",
            SliceKind::Inline => "inline",
        }
    }
}

/// One busy interval of one thread.
#[derive(Clone, Debug)]
pub struct Slice {
    /// Dense thread id (see module docs).
    pub tid: usize,
    /// What the thread was doing.
    pub kind: SliceKind,
    /// Start, nanoseconds since the telemetry epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the telemetry epoch.
    pub end_ns: u64,
}

#[derive(Default)]
struct Store {
    slices: Vec<Slice>,
    dropped: u64,
    /// Busy nanoseconds per tid (kept even past `SLICE_CAP`).
    busy_ns: Vec<u64>,
    /// `std::thread` name per tid, captured at first use.
    names: Vec<Option<String>>,
}

static STORE: Mutex<Store> = Mutex::new(Store {
    slices: Vec::new(),
    dropped: 0,
    busy_ns: Vec::new(),
    names: Vec::new(),
});

fn store() -> std::sync::MutexGuard<'static, Store> {
    STORE.lock().unwrap_or_else(|e| e.into_inner())
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-global telemetry epoch. Public so
/// higher layers (span slices in `pmcf-pram`) can timestamp onto the
/// same timeline as the pool's busy slices.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// This thread's dense telemetry id, assigned (and its name registered)
/// on first call.
pub fn current_tid() -> usize {
    TID.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            return v;
        }
        let id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        c.set(id);
        let name = std::thread::current().name().map(str::to_string);
        let mut st = store();
        if st.names.len() <= id {
            st.names.resize(id + 1, None);
            st.busy_ns.resize(id + 1, 0);
        }
        st.names[id] = name;
        id
    })
}

/// Switch busy-slice recording on or off (counters run regardless).
/// Turning it on also pins the epoch, so the first recorded slice has a
/// small, positive timestamp.
pub fn set_recording(on: bool) {
    if on {
        epoch();
    }
    RECORDING.store(on, Ordering::Relaxed);
}

/// Whether busy slices are currently being recorded.
#[inline]
pub fn is_recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Zero all counters and forget recorded slices/busy time (thread ids
/// and names persist — they identify live threads).
pub fn reset() {
    JOINS.store(0, Ordering::Relaxed);
    BATCHES.store(0, Ordering::Relaxed);
    JOBS_QUEUED.store(0, Ordering::Relaxed);
    JOBS_INLINE.store(0, Ordering::Relaxed);
    STEALS.store(0, Ordering::Relaxed);
    let mut st = store();
    st.slices.clear();
    st.dropped = 0;
    for b in &mut st.busy_ns {
        *b = 0;
    }
}

pub(crate) fn count_join() {
    JOINS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_batch(queued: u64) {
    BATCHES.fetch_add(1, Ordering::Relaxed);
    JOBS_QUEUED.fetch_add(queued, Ordering::Relaxed);
    JOBS_INLINE.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_steal() {
    STEALS.fetch_add(1, Ordering::Relaxed);
}

/// Run `job`, recording a busy slice when recording is on.
pub(crate) fn timed(kind: SliceKind, job: impl FnOnce()) {
    if !is_recording() {
        job();
        return;
    }
    let start_ns = now_ns();
    job();
    let end_ns = now_ns();
    let tid = current_tid();
    let mut st = store();
    if st.busy_ns.len() <= tid {
        st.busy_ns.resize(tid + 1, 0);
        st.names.resize(tid + 1, None);
    }
    st.busy_ns[tid] += end_ns.saturating_sub(start_ns);
    if st.slices.len() < SLICE_CAP {
        st.slices.push(Slice {
            tid,
            kind,
            start_ns,
            end_ns,
        });
    } else {
        st.dropped += 1;
    }
}

/// A snapshot of everything the pool knows about its own execution.
#[derive(Clone, Debug, Default)]
pub struct PoolTelemetry {
    /// Worker threads in the pool (1 = sequential execution).
    pub threads: usize,
    /// [`crate::join`] calls (both the pooled and the sequential path —
    /// a fork-join point is a fork-join point).
    pub joins: u64,
    /// Batches actually split across the pool by `run_batch`.
    pub batches: u64,
    /// Jobs pushed onto the shared queue.
    pub jobs_queued: u64,
    /// First-of-batch jobs run inline on the submitting thread.
    pub jobs_inline: u64,
    /// Queued jobs executed by a *blocked* thread while it waited on a
    /// latch (help-first scheduling, the shim's analogue of a steal).
    pub steals: u64,
    /// Busy slices recorded since the last [`reset`], oldest first.
    pub slices: Vec<Slice>,
    /// Slices dropped past [`SLICE_CAP`].
    pub dropped_slices: u64,
    /// Busy nanoseconds per thread id (index = tid).
    pub busy_ns: Vec<u64>,
    /// `std::thread` name per thread id (index = tid).
    pub thread_names: Vec<Option<String>>,
}

impl PoolTelemetry {
    /// Max-over-mean busy time across threads that did any work: 1.0 is
    /// perfectly balanced, `k` means the busiest thread carried `k`× the
    /// average load. 0.0 when nothing was recorded.
    pub fn imbalance_ratio(&self) -> f64 {
        let busy: Vec<u64> = self.busy_ns.iter().copied().filter(|&b| b > 0).collect();
        if busy.is_empty() {
            return 0.0;
        }
        let max = *busy.iter().max().unwrap() as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }

    /// Total busy nanoseconds across all threads.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

/// Snapshot the current telemetry (cheap when nothing was recorded).
pub fn snapshot() -> PoolTelemetry {
    let st = store();
    PoolTelemetry {
        threads: crate::current_num_threads(),
        joins: JOINS.load(Ordering::Relaxed),
        batches: BATCHES.load(Ordering::Relaxed),
        jobs_queued: JOBS_QUEUED.load(Ordering::Relaxed),
        jobs_inline: JOBS_INLINE.load(Ordering::Relaxed),
        steals: STEALS.load(Ordering::Relaxed),
        slices: st.slices.clone(),
        dropped_slices: st.dropped,
        busy_ns: st.busy_ns.clone(),
        thread_names: st.names.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    /// Recording state is process-global; serialize the tests that flip it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counters_and_slices_capture_pool_activity() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_recording(true);
        let xs: Vec<u64> = (0..4_096).collect();
        let s: u64 = xs.par_iter().with_min_len(8).map(|&x| x * 2).sum();
        let (_, _) = crate::join(|| 1, || 2);
        set_recording(false);
        assert_eq!(s, 4_095 * 4_096);
        let t = snapshot();
        assert!(t.joins >= 1);
        if t.threads > 1 {
            assert!(t.batches >= 1, "pooled run must batch: {t:?}");
            assert!(t.jobs_queued >= 1);
            assert!(!t.slices.is_empty(), "recording must capture slices");
            assert!(t.total_busy_ns() > 0);
            assert!(t.imbalance_ratio() >= 1.0);
        }
        for s in &t.slices {
            assert!(s.end_ns >= s.start_ns);
            assert!(s.tid < t.busy_ns.len().max(NEXT_TID.load(Ordering::Relaxed)));
        }
    }

    #[test]
    fn recording_off_records_no_slices() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_recording(false);
        let before = snapshot().slices.len();
        let xs: Vec<u64> = (0..1_024).collect();
        let _: u64 = xs.par_iter().with_min_len(8).map(|&x| x).sum();
        assert_eq!(snapshot().slices.len(), before);
    }

    #[test]
    fn tids_are_stable_per_thread() {
        let a = current_tid();
        let b = current_tid();
        assert_eq!(a, b);
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
