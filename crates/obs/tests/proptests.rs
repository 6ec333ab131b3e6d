//! Property tests for the flight recorder, invariant monitors, and the
//! run-report diff engine.
//!
//! Pinned properties:
//! - the ring buffer never drops the *latest* events (only the oldest);
//! - monitor verdicts are deterministic under replay of the same seed;
//! - span-tree diff alignment is *total* (every span path in either run
//!   appears exactly once, as kept/added/removed) and delta-exact;
//! - every JSON value without a non-finite float renders and parses back
//!   to itself.

use pmcf_obs::event::Event;
use pmcf_obs::json::{parse, parse_recording, JsonValue};
use pmcf_obs::monitor::run_monitors;
use pmcf_obs::{diff_reports, DiffStatus, FlightRecorder, RunReport};
use pmcf_pram::profile::{ProfileReport, SpanReport};
use pmcf_pram::{Cost, ParMode, Tracker};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn push_n(rec: &mut FlightRecorder, n: u64) {
    for i in 0..n {
        rec.push(Event::new("e", vec![("i", JsonValue::from(i))]));
    }
}

/// Build a synthetic recording from a seed: a solve with a decreasing
/// (or occasionally violated) μ-schedule plus expander maintenance.
fn synthetic_events(seed: u64, violate_mu: bool) -> Vec<Event> {
    let mut events = Vec::new();
    let n = 16 + seed % 64;
    events.push(Event::new(
        "solve.start",
        vec![
            ("engine", "reference".into()),
            ("n", JsonValue::from(n)),
            ("m", JsonValue::from(n * n)),
            ("mu0", JsonValue::from(100.0)),
            ("mu_end", JsonValue::from(1e-3)),
            ("step_r", JsonValue::from(0.5)),
            ("gamma", JsonValue::from(0.25)),
            ("envelope_c", JsonValue::from(3.0)),
        ],
    ));
    let mut mu = 100.0f64;
    let mut work = 0.0f64;
    let iters = 5 + (seed % 20);
    for it in 0..iters {
        mu *= 0.8;
        if violate_mu && it == iters / 2 {
            mu *= 2.0; // inject a μ rise mid-solve
        }
        work += 100.0 + (seed.wrapping_mul(it + 1) % 50) as f64;
        events.push(Event::new(
            "ipm.iter",
            vec![
                ("iteration", JsonValue::from(it)),
                ("mu", JsonValue::from(mu)),
                ("work", JsonValue::from(work)),
                ("depth", JsonValue::from(work / 10.0)),
            ],
        ));
    }
    events.push(Event::new(
        "expander.rebuild",
        vec![
            ("edges", JsonValue::from(n)),
            ("phi", JsonValue::from(0.1)),
            ("certified", true.into()),
        ],
    ));
    events.push(Event::new(
        "solve.end",
        vec![
            ("iterations", JsonValue::from(iters)),
            ("work", JsonValue::from(work + 1.0)),
            ("depth", JsonValue::from(work / 10.0 + 1.0)),
            ("final_mu", JsonValue::from(mu)),
        ],
    ));
    events
}

/// A profiled solve-shaped run whose branches execute through the thread
/// pool (`ParMode::Forked` exercises the merge path even on one core).
fn forked_profile(seed: u64, branches: usize) -> ProfileReport {
    let mut t = Tracker::profiled();
    t.span("solve", |t| {
        t.counter("solver.solves", 1);
        t.parallel_in(ParMode::Forked, branches, |i, t| {
            t.span("cg", |t| {
                let iters = 1 + (seed.wrapping_add(i as u64 * 7)) % 23;
                t.charge(Cost::par_for(iters, Cost::par_flat(64)));
                t.counter("solver.cg_iterations_total", iters);
                t.observe("solver.cg_iterations", iters);
            });
        });
    });
    t.profile_report().expect("profiled tracker reports")
}

/// Span-tree equality ignoring wall time (the only nondeterministic field).
fn assert_spans_replay_eq(a: &[SpanReport], b: &[SpanReport]) {
    assert_eq!(a.len(), b.len(), "span count differs under replay");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.work, y.work, "span {}: work differs", x.name);
        assert_eq!(x.depth, y.depth, "span {}: depth differs", x.name);
        assert_eq!(x.count, y.count, "span {}: count differs", x.name);
        assert_spans_replay_eq(&x.children, &y.children);
    }
}

/// Small name alphabet so randomly generated base/candidate trees share,
/// add, and remove paths with high probability.
const SPAN_NAMES: [&str; 5] = ["ipm", "cg", "expander", "solve", "trim"];

/// xorshift step for the seed-driven tree generator below.
fn next(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *rng = x;
    x
}

/// Random span tree with *consistent inclusive costs* (parent ≥ sum of
/// children), matching what the profiler produces. Seed-driven because
/// the in-tree proptest shim has no recursive strategy combinator.
fn gen_span(rng: &mut u64, depth: usize) -> SpanReport {
    let kids = if depth == 0 {
        0
    } else {
        (next(rng) % 4) as usize
    };
    let children: Vec<SpanReport> = (0..kids).map(|_| gen_span(rng, depth - 1)).collect();
    let cw: u64 = children.iter().map(|c| c.work).sum();
    let cd: u64 = children.iter().map(|c| c.depth).sum();
    let cn: u64 = children.iter().map(SpanReport::wall_ns).sum();
    SpanReport {
        name: SPAN_NAMES[(next(rng) % SPAN_NAMES.len() as u64) as usize].to_string(),
        work: next(rng) % 1_000 + cw,
        depth: next(rng) % 100 + cd,
        wall: std::time::Duration::from_nanos(next(rng) % 10_000 + cn),
        count: 1 + next(rng) % 3,
        children,
    }
}

fn gen_spans(seed: u64) -> Vec<SpanReport> {
    let mut rng = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..(next(&mut rng) % 4) as usize)
        .map(|_| gen_span(&mut rng, 3))
        .collect()
}

fn report_with(spans: Vec<SpanReport>) -> RunReport {
    let mut r = RunReport::new("prop");
    r.work = spans.iter().map(|s| s.work).sum();
    r.depth = spans.iter().map(|s| s.depth).sum();
    r.spans = spans;
    r
}

/// Independent re-implementation of path flattening used as the oracle:
/// `(inclusive work, inclusive depth, self work)` per ` > `-joined path,
/// aggregating duplicate paths.
fn flat_oracle(spans: &[SpanReport], prefix: &str, out: &mut BTreeMap<String, [u64; 3]>) {
    for s in spans {
        let path = if prefix.is_empty() {
            s.name.clone()
        } else {
            format!("{prefix} > {}", s.name)
        };
        let e = out.entry(path.clone()).or_insert([0; 3]);
        e[0] += s.work;
        e[1] += s.depth;
        e[2] += s.self_work();
        flat_oracle(&s.children, &path, out);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ring_never_drops_latest(cap in 1usize..40, n in 0u64..200) {
        let mut rec = FlightRecorder::new(cap);
        push_n(&mut rec, n);
        // retained = the suffix of the emitted sequence
        let retained: Vec<u64> = rec.events().map(|e| e.seq).collect();
        let expect_len = (n as usize).min(cap);
        prop_assert_eq!(retained.len(), expect_len);
        prop_assert_eq!(rec.dropped(), n - expect_len as u64);
        if expect_len > 0 {
            // the newest event is always present, and seqs are the
            // contiguous tail [n - len, n)
            prop_assert_eq!(*retained.last().unwrap(), n - 1);
            let tail: Vec<u64> = (n - expect_len as u64..n).collect();
            prop_assert_eq!(retained, tail);
        }
    }

    #[test]
    fn ring_survives_jsonl_round_trip(cap in 1usize..20, n in 1u64..60) {
        let mut rec = FlightRecorder::new(cap);
        push_n(&mut rec, n);
        let (events, dropped) = parse_recording(&rec.to_jsonl()).unwrap();
        prop_assert_eq!(dropped, rec.dropped());
        prop_assert_eq!(events.len(), rec.len());
        prop_assert_eq!(events.last().map(|e| e.seq), Some(n - 1));
    }

    #[test]
    fn monitor_verdicts_deterministic_under_replay(seed in 0u64..10_000, violate in any::<bool>()) {
        let events = synthetic_events(seed, violate);
        let first = run_monitors(&events);
        // replay 1: same seed, fresh events
        let second = run_monitors(&synthetic_events(seed, violate));
        prop_assert_eq!(&first, &second);
        // replay 2: through the JSONL serialization
        let mut rec = FlightRecorder::new(4096);
        for e in &events {
            rec.push(e.clone());
        }
        let (parsed, _) = parse_recording(&rec.to_jsonl()).unwrap();
        let third = run_monitors(&parsed);
        for (a, b) in first.iter().zip(third.iter()) {
            prop_assert_eq!(&a.monitor, &b.monitor);
            prop_assert_eq!(a.ok, b.ok);
            prop_assert_eq!(a.checked, b.checked);
        }
        // and the verdict matches the injected fault
        let mu = first.iter().find(|v| v.monitor == "mu-monotone").unwrap();
        prop_assert_eq!(mu.ok, !violate);
    }

    #[test]
    fn span_diff_alignment_is_total_and_delta_exact(
        base_seed in 0u64..1_000_000,
        cand_seed in 0u64..1_000_000,
    ) {
        let base = report_with(gen_spans(base_seed));
        let cand = report_with(gen_spans(cand_seed));
        let mut base_flat = BTreeMap::new();
        let mut cand_flat = BTreeMap::new();
        flat_oracle(&base.spans, "", &mut base_flat);
        flat_oracle(&cand.spans, "", &mut cand_flat);

        let diff = diff_reports(&base, &cand);

        // totality: every path from either run appears exactly once
        let mut seen = std::collections::BTreeSet::new();
        for d in &diff.spans {
            prop_assert!(seen.insert(d.path.clone()), "duplicate path {}", d.path);
        }
        let union: std::collections::BTreeSet<String> =
            base_flat.keys().chain(cand_flat.keys()).cloned().collect();
        prop_assert_eq!(&seen, &union);

        for d in &diff.spans {
            let b = base_flat.get(&d.path);
            let c = cand_flat.get(&d.path);
            // status matches which side(s) hold the path
            let want = match (b.is_some(), c.is_some()) {
                (true, true) => DiffStatus::Kept,
                (false, true) => DiffStatus::Added,
                (true, false) => DiffStatus::Removed,
                (false, false) => unreachable!("path {} in neither run", d.path),
            };
            prop_assert_eq!(d.status, want, "path {}", d.path);
            // deltas are exact: candidate minus baseline, missing side = 0
            let bv = b.copied().unwrap_or([0; 3]);
            let cv = c.copied().unwrap_or([0; 3]);
            prop_assert_eq!(d.d_work(), cv[0] as i64 - bv[0] as i64, "path {}", d.path);
            prop_assert_eq!(d.d_depth(), cv[1] as i64 - bv[1] as i64, "path {}", d.path);
            prop_assert_eq!(d.d_self_work(), cv[2] as i64 - bv[2] as i64, "path {}", d.path);
        }

        // a self-diff reports identical charged costs
        let self_diff = diff_reports(&base, &base);
        prop_assert!(self_diff.charged_costs_identical());
    }

    #[test]
    fn span_trees_deterministic_under_forked_replay(seed in 0u64..10_000, branches in 0usize..6) {
        // Pool scheduling must not leak into the profile: replaying the
        // same program through Forked branches yields the same span tree,
        // counters, and histogram shape — wall time is the only field
        // allowed to differ between runs.
        let a = forked_profile(seed, branches);
        let b = forked_profile(seed, branches);
        prop_assert_eq!(a.work, b.work);
        prop_assert_eq!(a.depth, b.depth);
        assert_spans_replay_eq(&a.spans, &b.spans);
        prop_assert_eq!(&a.counters, &b.counters);
        prop_assert_eq!(
            a.histograms.keys().collect::<Vec<_>>(),
            b.histograms.keys().collect::<Vec<_>>()
        );
        for (name, h) in &a.histograms {
            let o = &b.histograms[name];
            prop_assert_eq!(h.count, o.count, "histogram {}: count", name);
            prop_assert_eq!(h.sum, o.sum, "histogram {}: sum", name);
            prop_assert_eq!(&h.buckets, &o.buckets, "histogram {}: buckets", name);
        }
    }
}

/// String pieces the writer must get right: quotes, backslashes, control
/// characters, multi-byte UTF-8 and text that looks like an escape.
const STR_PIECES: &[&str] = &[
    "", "a", "\"", "\\", "\n", "\r\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "λx", "𝄞", "/", "\\u0041",
];

/// Random JSON tree of at most `depth` levels (seed-driven, like
/// [`gen_span`]): every scalar form, integers at the `i64`/`u64`
/// boundaries, and finite floats drawn from raw bit patterns.
fn gen_json(rng: &mut u64, depth: usize) -> JsonValue {
    let string = |rng: &mut u64| -> String {
        (0..next(rng) % 5)
            .map(|_| STR_PIECES[(next(rng) % STR_PIECES.len() as u64) as usize])
            .collect()
    };
    match next(rng) % if depth == 0 { 6 } else { 8 } {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(next(rng).is_multiple_of(2)),
        2 => {
            let edge = [i64::MIN, i64::MAX, -1, 0, next(rng) as i64];
            JsonValue::from(edge[(next(rng) % 5) as usize])
        }
        3 => {
            let edge = [u64::MAX, i64::MAX as u64, i64::MAX as u64 + 1, next(rng)];
            JsonValue::from(edge[(next(rng) % 4) as usize])
        }
        4 => {
            let x = f64::from_bits(next(rng));
            let edge = [x, 0.1, -0.0, 5e-324, f64::MAX, 1e21];
            let x = edge[(next(rng) % 6) as usize];
            JsonValue::from(if x.is_finite() { x } else { 1.5 })
        }
        5 => JsonValue::from(string(rng)),
        6 => (0..next(rng) % 4)
            .map(|_| gen_json(rng, depth - 1))
            .collect(),
        _ => JsonValue::Obj(
            (0..next(rng) % 4)
                .map(|_| (string(rng), gen_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_render_parse_round_trips(seed in any::<u64>()) {
        let mut rng = seed | 1;
        let v = gen_json(&mut rng, 5);
        let text = v.to_string();
        prop_assert_eq!(parse(&text), Ok(v), "rendered as {}", text);
    }
}
