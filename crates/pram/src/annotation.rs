//! Wall-clock slices of named spans for a trace session.
//!
//! While a session is open ([`start`] … [`finish`]), every
//! [`SpanGuard`](crate::SpanGuard) records one [`Annotation`] when it
//! closes: the span name, the dense pool thread id, and its start and
//! end on the [`rayon::telemetry::now_ns`] timeline the pool's busy
//! slices use. Profiled and unprofiled trackers record alike. Outside a
//! session a span pays one relaxed atomic load.
//!
//! The session flag is separate from the pool's slice recording
//! (`rayon::telemetry::set_recording`): recording pool slices alone
//! records no annotations.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Maximum annotations retained per session (overflow is counted).
pub const ANNOTATION_CAP: usize = 1 << 16;

/// One closed span recorded during a trace session.
#[derive(Clone, Debug)]
pub struct Annotation {
    /// Span name, e.g. `"ipm/newton"`.
    pub name: String,
    /// Dense thread id from [`rayon::telemetry::current_tid`].
    pub tid: usize,
    /// Start, nanoseconds since the shared telemetry epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the shared telemetry epoch.
    pub end_ns: u64,
}

struct Store {
    spans: Vec<Annotation>,
    dropped: u64,
}

static ANNOTATING: AtomicBool = AtomicBool::new(false);

static STORE: Mutex<Store> = Mutex::new(Store {
    spans: Vec::new(),
    dropped: 0,
});

/// Poison-tolerant: a panic while the lock is held leaves the store
/// valid (every update is a single push or counter bump), and span
/// guards lock it from `Drop`, which must not panic.
fn store() -> MutexGuard<'static, Store> {
    STORE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether a trace session is open.
#[inline]
pub fn annotating() -> bool {
    ANNOTATING.load(Ordering::Relaxed)
}

/// Open a session, discarding annotations from any earlier one.
pub fn start() {
    let mut st = store();
    st.spans.clear();
    st.dropped = 0;
    drop(st);
    ANNOTATING.store(true, Ordering::Relaxed);
}

/// Close the session; returns its annotations in closing order and the
/// number dropped beyond [`ANNOTATION_CAP`].
pub fn finish() -> (Vec<Annotation>, u64) {
    ANNOTATING.store(false, Ordering::Relaxed);
    let mut st = store();
    let dropped = std::mem::take(&mut st.dropped);
    (std::mem::take(&mut st.spans), dropped)
}

/// Record a span that opened at `start_ns` and closes now, on this
/// thread.
pub(crate) fn record(name: String, start_ns: u64) {
    let end_ns = rayon::telemetry::now_ns();
    let tid = rayon::telemetry::current_tid();
    let mut st = store();
    if st.spans.len() < ANNOTATION_CAP {
        st.spans.push(Annotation {
            name,
            tid,
            start_ns,
            end_ns,
        });
    } else {
        st.dropped += 1;
    }
}
