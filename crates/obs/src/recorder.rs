//! The flight recorder: a bounded in-memory event log with JSONL dump.
//!
//! The recorder is installed per thread (the solver stack is
//! single-threaded control flow; rayon leaf parallelism never emits).
//! Emitting is a no-op unless a recorder is installed, gated first on a
//! process-global counter so the common disabled path costs one relaxed
//! atomic load.
//!
//! The buffer is a ring: when more than `capacity` events are emitted the
//! *oldest* are evicted — the latest events (the ones that explain a
//! failure) are always retained, and the header of the dump records how
//! many were dropped. A `PMCF_REPORT` session ([`crate::init_from_env`])
//! installs a [`DEFAULT_CAPACITY`] ring and registers a panic hook, so a
//! crashing run still leaves its `<path>.events.jsonl` recording behind.

use crate::event::{Event, SCHEMA};
use crate::json::{self, JsonValue};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

/// Default ring capacity (events retained).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Bounded event log.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
    /// Where `dump` / the panic hook writes, when set.
    pub output: Option<std::path::PathBuf>,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
            output: None,
        }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, mut e: Event) {
        e.seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever emitted (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Clone out the retained events (for in-process monitoring).
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// Serialize as JSONL: a schema header line, then one line per event
    /// (lines are newline-separated; no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let header = JsonValue::obj([
            ("schema", SCHEMA.into()),
            ("events", self.events.len().into()),
            ("dropped", self.dropped.into()),
        ]);
        let mut out = header.to_string();
        for e in &self.events {
            out.push('\n');
            out.push_str(&e.to_json().to_string());
        }
        out
    }

    /// Write the JSONL recording to `path` (creating parent directories).
    pub fn dump_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        json::write_file(path, &self.to_jsonl())
    }

    /// Write to the configured output path, if any. Returns whether a
    /// file was written.
    pub fn dump(&self) -> bool {
        match &self.output {
            Some(p) => self.dump_to(p).is_ok(),
            None => false,
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<FlightRecorder>> = const { RefCell::new(None) };
}

/// Count of threads with an installed recorder (fast disabled-path gate).
static ACTIVE: AtomicUsize = AtomicUsize::new(0);
static PANIC_HOOK: Once = Once::new();

/// Install a recorder on this thread (replacing any previous one, which
/// is returned).
pub fn install(rec: FlightRecorder) -> Option<FlightRecorder> {
    RECORDER.with(|r| {
        let prev = r.borrow_mut().replace(rec);
        if prev.is_none() {
            ACTIVE.fetch_add(1, Ordering::Relaxed);
        }
        prev
    })
}

/// Remove and return this thread's recorder.
pub fn uninstall() -> Option<FlightRecorder> {
    RECORDER.with(|r| {
        let prev = r.borrow_mut().take();
        if prev.is_some() {
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
        prev
    })
}

/// Whether this thread is recording (cheap when no thread records).
#[inline]
pub fn recording() -> bool {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    RECORDER.with(|r| r.borrow().is_some())
}

/// Emit an event (no-op when not recording). `f` builds the fields and
/// runs only when recording, so hot paths pay nothing for field
/// assembly when disabled.
#[inline]
pub fn emit_with(kind: &str, f: impl FnOnce() -> Vec<(&'static str, JsonValue)>) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.push(Event::new(kind, f()));
        }
    });
}

/// Run `f` with mutable access to this thread's recorder, if installed.
pub fn with_recorder<T>(f: impl FnOnce(&mut FlightRecorder) -> T) -> Option<T> {
    RECORDER.with(|r| r.borrow_mut().as_mut().map(f))
}

/// Install a [`DEFAULT_CAPACITY`] recorder on this thread that dumps
/// to `path` — on [`FlightRecorder::dump`] and, via a process-wide panic
/// hook, when the thread panics.
pub(crate) fn install_dumping(path: std::path::PathBuf) {
    let mut rec = FlightRecorder::new(DEFAULT_CAPACITY);
    rec.output = Some(path);
    install(rec);
    PANIC_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // dump the panicking thread's recording before unwinding
            let _ = with_recorder(|rec| {
                rec.push(Event::new(
                    "panic",
                    vec![("message", info.to_string().into())],
                ));
                rec.dump();
            });
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_latest_events() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..7u64 {
            rec.push(Event::new("e", vec![("i", i.into())]));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.dropped(), 4);
        assert_eq!(rec.emitted(), 7);
        let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_event() {
        let mut rec = FlightRecorder::new(8);
        rec.push(Event::new("a", vec![]));
        rec.push(Event::new("b", vec![("x", 1.5.into())]));
        let out = rec.to_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"schema\":\"pmcf.events/v1\""));
        assert!(lines[0].contains("\"dropped\":0"));
        assert!(lines[1].contains("\"kind\":\"a\""));
        assert!(lines[2].contains("\"x\":1.5e0"));
    }

    #[test]
    fn thread_local_install_emit_finish() {
        assert!(!recording());
        emit_with("ignored", || panic!("no recorder is installed"));
        install(FlightRecorder::new(16));
        assert!(recording());
        emit_with("hello", || vec![("n", 1u64.into())]);
        emit_with("deferred", || vec![("n", 2u64.into())]);
        let rec = uninstall().unwrap();
        assert!(!recording());
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.events().next().unwrap().kind, "hello");
    }

    #[test]
    fn dump_writes_file() {
        let dir = std::env::temp_dir().join("pmcf_obs_recorder_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.jsonl");
        let mut rec = FlightRecorder::new(4);
        rec.push(Event::new("x", vec![]));
        rec.dump_to(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.starts_with("{\"schema\":\"pmcf.events/v1\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
