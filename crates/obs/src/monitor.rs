//! Invariant monitors: stream over a flight recording and flag
//! violations of the paper's guarantees.
//!
//! Each monitor is a pure fold over the event sequence, so verdicts are
//! deterministic functions of the recording — replaying the same JSONL
//! (or the same in-memory snapshot) always yields the same verdicts.
//! A monitor that saw no relevant events passes vacuously with
//! `checked = 0`; a violation carries the offending event's `seq` in its
//! detail string so the recording can be cross-examined.
//!
//! The five monitors and the claims they watch:
//!
//! | monitor | claim |
//! |---|---|
//! | `mu-monotone` | the μ-schedule never increases within a solve (central-path descent) |
//! | `centrality-bound` | `‖z‖_∞ ≤ γ` at every declared centering point (Definition F.1 cond. 1) |
//! | `conductance-certified` | every expander rebuild/prune leaves certified `φ`-expander parts (Lemma 3.1 / Lemma 3.9) |
//! | `tracker-reconciliation` | work/depth counters are monotone, `depth ≤ work`, and span trees never exceed tracker totals |
//! | `iteration-envelope` | outer iterations stay within the declared `c·√n·polylog` envelope (Theorem 1.2) |

use crate::event::Event;

/// Relative slack for floating-point comparisons (serialization rounds
/// through decimal).
const REL_EPS: f64 = 1e-9;

/// One monitor's verdict over a recording.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Monitor name (stable identifier).
    pub monitor: String,
    /// Whether every checked event satisfied the invariant.
    pub ok: bool,
    /// How many events/solves the monitor actually checked.
    pub checked: u64,
    /// Human-readable summary; names the first offending `seq` on
    /// failure.
    pub detail: String,
}

impl Verdict {
    fn pass(monitor: &str, checked: u64, detail: String) -> Self {
        Verdict {
            monitor: monitor.into(),
            ok: true,
            checked,
            detail,
        }
    }

    fn fail(monitor: &str, checked: u64, detail: String) -> Self {
        Verdict {
            monitor: monitor.into(),
            ok: false,
            checked,
            detail,
        }
    }
}

/// Run every monitor; returns one verdict per monitor (fixed order).
pub fn run_monitors(events: &[Event]) -> Vec<Verdict> {
    vec![
        mu_monotone(events),
        centrality_bound(events),
        conductance_certified(events),
        tracker_reconciliation(events),
        iteration_envelope(events),
    ]
}

/// Whether all verdicts are ok.
pub fn all_ok(verdicts: &[Verdict]) -> bool {
    verdicts.iter().all(|v| v.ok)
}

/// Render verdicts as a markdown table.
pub fn to_markdown(verdicts: &[Verdict]) -> String {
    let mut out = String::from("| monitor | verdict | checked | detail |\n|---|---|---|---|\n");
    for v in verdicts {
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            v.monitor,
            if v.ok { "ok" } else { "VIOLATED" },
            v.checked,
            v.detail
        ));
    }
    out
}

/// μ never increases within a solve (`solve.start` resets).
fn mu_monotone(events: &[Event]) -> Verdict {
    let name = "mu-monotone";
    let mut last: Option<f64> = None;
    let mut checked = 0u64;
    for e in events {
        if e.kind == "solve.start" {
            last = None;
            continue;
        }
        if e.kind != "ipm.iter" {
            continue;
        }
        let Some(mu) = e.num("mu") else { continue };
        checked += 1;
        if let Some(prev) = last {
            if mu > prev * (1.0 + REL_EPS) {
                return Verdict::fail(
                    name,
                    checked,
                    format!("μ rose {prev:.6e} → {mu:.6e} at seq {}", e.seq),
                );
            }
        }
        last = Some(mu);
    }
    Verdict::pass(name, checked, format!("{checked} μ samples non-increasing"))
}

/// Every declared centering point satisfies `‖z‖_∞ ≤ limit`, where the
/// emitting site declares its own limit (γ for in-path correctors, 1.0
/// for the ε-centered ball).
fn centrality_bound(events: &[Event]) -> Verdict {
    let name = "centrality-bound";
    let mut checked = 0u64;
    let mut worst = 0.0f64;
    for e in events {
        if e.kind != "ipm.centered" {
            continue;
        }
        let (Some(c), Some(limit)) = (e.num("centrality"), e.num("limit")) else {
            continue;
        };
        checked += 1;
        worst = worst.max(c / limit.max(1e-300));
        if c > limit * (1.0 + REL_EPS) {
            return Verdict::fail(
                name,
                checked,
                format!("‖z‖∞ = {c:.4} > limit {limit:.4} at seq {}", e.seq),
            );
        }
    }
    Verdict::pass(
        name,
        checked,
        format!("{checked} centering points; worst ‖z‖∞/limit = {worst:.3}"),
    )
}

/// Every expander rebuild/prune event carries a positive φ target and a
/// `certified` flag (the spot-check, when run, found no sparse cut).
fn conductance_certified(events: &[Event]) -> Verdict {
    let name = "conductance-certified";
    let mut checked = 0u64;
    for e in events {
        if e.kind != "expander.rebuild" && e.kind != "expander.prune" {
            continue;
        }
        checked += 1;
        let phi = e.num("phi").unwrap_or(0.0);
        if phi <= 0.0 {
            return Verdict::fail(
                name,
                checked,
                format!("{} without positive φ at seq {}", e.kind, e.seq),
            );
        }
        if let Some(false) = e.get("certified").and_then(|v| v.as_bool()) {
            let measured = e
                .num("measured_phi")
                .map(|p| format!(" (measured φ = {p:.4})"))
                .unwrap_or_default();
            return Verdict::fail(
                name,
                checked,
                format!("uncertified {} at seq {}{measured}", e.kind, e.seq),
            );
        }
    }
    Verdict::pass(
        name,
        checked,
        format!("{checked} rebuild/prune events certified"),
    )
}

/// Work/depth accounting is coherent: counters are monotone within a
/// solve, `depth ≤ work` pointwise, the final totals dominate every
/// in-flight sample, and a profiled run's span tree never accounts more
/// than its tracker (`span_work ≤ work`).
fn tracker_reconciliation(events: &[Event]) -> Verdict {
    let name = "tracker-reconciliation";
    let mut checked = 0u64;
    let mut last_work = 0.0f64;
    let mut last_depth = 0.0f64;
    for e in events {
        if e.kind == "solve.start" {
            last_work = 0.0;
            last_depth = 0.0;
            continue;
        }
        let is_end = e.kind == "solve.end";
        if e.kind != "ipm.iter" && !is_end {
            continue;
        }
        let (Some(work), Some(depth)) = (e.num("work"), e.num("depth")) else {
            continue;
        };
        checked += 1;
        if depth > work * (1.0 + REL_EPS) {
            return Verdict::fail(
                name,
                checked,
                format!("depth {depth} > work {work} at seq {}", e.seq),
            );
        }
        if work < last_work * (1.0 - REL_EPS) || depth < last_depth * (1.0 - REL_EPS) {
            return Verdict::fail(
                name,
                checked,
                format!(
                    "counters regressed (work {last_work}→{work}, depth {last_depth}→{depth}) at seq {}",
                    e.seq
                ),
            );
        }
        last_work = work;
        last_depth = depth;
        if is_end {
            if let (Some(span_work), Some(total)) = (e.num("span_work"), e.num("work")) {
                if span_work > total * (1.0 + REL_EPS) {
                    return Verdict::fail(
                        name,
                        checked,
                        format!(
                            "span tree work {span_work} exceeds tracker work {total} at seq {}",
                            e.seq
                        ),
                    );
                }
            }
            last_work = 0.0;
            last_depth = 0.0;
        }
    }
    Verdict::pass(name, checked, format!("{checked} samples reconciled"))
}

/// The declared iteration envelope of Theorem 1.2: with μ shrinking by
/// `1 − r/√Στ` per iteration and `Στ ≈ 2n`, a solve from `μ₀` to `μ_end`
/// takes ≈ `(√(2n)/r)·ln(μ₀/μ_end)` outer iterations. The emitting site
/// declares the safety factor `envelope_c`; the monitor checks
/// `iterations ≤ c·(√(2n)/r)·ln(μ₀/μ_end)`.
fn iteration_envelope(events: &[Event]) -> Verdict {
    let name = "iteration-envelope";
    let mut checked = 0u64;
    let mut worst_frac = 0.0f64;
    let mut start: Option<&Event> = None;
    for e in events {
        if e.kind == "solve.start" {
            start = Some(e);
            continue;
        }
        if e.kind != "solve.end" {
            continue;
        }
        let Some(s) = start.take() else { continue };
        let (Some(n), Some(mu0), Some(mu_end), Some(step_r), Some(c)) = (
            s.num("n"),
            s.num("mu0"),
            s.num("mu_end"),
            s.num("step_r"),
            s.num("envelope_c"),
        ) else {
            continue;
        };
        let Some(iters) = e.num("iterations") else {
            continue;
        };
        checked += 1;
        let polylog = (mu0 / mu_end.max(1e-300)).ln().max(1.0);
        let bound = c * ((2.0 * n).sqrt() / step_r.max(1e-9)) * polylog;
        worst_frac = worst_frac.max(iters / bound.max(1.0));
        if iters > bound {
            return Verdict::fail(
                name,
                checked,
                format!(
                    "{iters} iterations > envelope {bound:.0} (c={c}, n={n}) at seq {}",
                    e.seq
                ),
            );
        }
    }
    Verdict::pass(
        name,
        checked,
        format!(
            "{checked} solves; worst envelope use {:.0}%",
            worst_frac * 100.0
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::json::JsonValue;

    fn ev(kind: &str, fields: Vec<(&str, JsonValue)>) -> Event {
        Event::new(kind, fields)
    }

    fn solve_pair(n: u64, iters: u64) -> Vec<Event> {
        vec![
            ev(
                "solve.start",
                vec![
                    ("engine", "reference".into()),
                    ("n", n.into()),
                    ("m", (n * n).into()),
                    ("mu0", 1000.0.into()),
                    ("mu_end", 0.001.into()),
                    ("step_r", 0.5.into()),
                    ("gamma", 0.25.into()),
                    ("envelope_c", 3.0.into()),
                ],
            ),
            ev(
                "solve.end",
                vec![
                    ("engine", "reference".into()),
                    ("iterations", iters.into()),
                    ("work", 10_000u64.into()),
                    ("depth", 500u64.into()),
                    ("final_mu", 0.001.into()),
                    ("final_centrality", 0.2.into()),
                ],
            ),
        ]
    }

    #[test]
    fn empty_recording_passes_vacuously() {
        let verdicts = run_monitors(&[]);
        assert_eq!(verdicts.len(), 5);
        assert!(all_ok(&verdicts));
        assert!(verdicts.iter().all(|v| v.checked == 0));
    }

    #[test]
    fn monotone_mu_passes_and_rise_fails() {
        let mut events = vec![
            ev("ipm.iter", vec![("mu", 10.0.into())]),
            ev("ipm.iter", vec![("mu", 5.0.into())]),
        ];
        assert!(mu_monotone(&events).ok);
        events.push(ev("ipm.iter", vec![("mu", 7.0.into())]));
        let v = mu_monotone(&events);
        assert!(!v.ok);
        assert!(v.detail.contains("rose"));
    }

    #[test]
    fn mu_resets_between_solves() {
        let events = vec![
            ev("ipm.iter", vec![("mu", 1.0.into())]),
            ev("solve.start", vec![]),
            ev("ipm.iter", vec![("mu", 50.0.into())]), // fresh solve: fine
        ];
        assert!(mu_monotone(&events).ok);
    }

    #[test]
    fn centrality_limit_is_event_declared() {
        let ok = vec![ev(
            "ipm.centered",
            vec![("centrality", 0.9.into()), ("limit", 1.0.into())],
        )];
        assert!(centrality_bound(&ok).ok);
        let bad = vec![ev(
            "ipm.centered",
            vec![("centrality", 0.3.into()), ("limit", 0.25.into())],
        )];
        let v = centrality_bound(&bad);
        assert!(!v.ok);
        assert!(v.detail.contains("‖z‖∞"));
    }

    #[test]
    fn uncertified_rebuild_is_flagged() {
        let ok = vec![ev(
            "expander.rebuild",
            vec![("phi", 0.1.into()), ("certified", true.into())],
        )];
        assert!(conductance_certified(&ok).ok);
        let bad = vec![ev(
            "expander.prune",
            vec![
                ("phi", 0.1.into()),
                ("certified", false.into()),
                ("measured_phi", 0.01.into()),
            ],
        )];
        let v = conductance_certified(&bad);
        assert!(!v.ok);
        assert!(v.detail.contains("measured φ"));
    }

    #[test]
    fn counter_regression_is_flagged() {
        let good = vec![
            ev(
                "ipm.iter",
                vec![("work", 10u64.into()), ("depth", 4u64.into())],
            ),
            ev(
                "ipm.iter",
                vec![("work", 20u64.into()), ("depth", 8u64.into())],
            ),
        ];
        assert!(tracker_reconciliation(&good).ok);
        let bad = vec![
            ev(
                "ipm.iter",
                vec![("work", 20u64.into()), ("depth", 8u64.into())],
            ),
            ev(
                "ipm.iter",
                vec![("work", 10u64.into()), ("depth", 9u64.into())],
            ),
        ];
        assert!(!tracker_reconciliation(&bad).ok);
        let deep = vec![ev(
            "ipm.iter",
            vec![("work", 5u64.into()), ("depth", 50u64.into())],
        )];
        assert!(!tracker_reconciliation(&deep).ok);
    }

    #[test]
    fn span_work_above_tracker_work_fails() {
        let events = vec![ev(
            "solve.end",
            vec![
                ("work", 100u64.into()),
                ("depth", 10u64.into()),
                ("span_work", 150u64.into()),
            ],
        )];
        let v = tracker_reconciliation(&events);
        assert!(!v.ok);
        assert!(v.detail.contains("span tree"));
    }

    #[test]
    fn envelope_accepts_sqrt_n_and_rejects_blowup() {
        // n = 100: bound = 3·(√200/0.5)·ln(10^6) ≈ 3·28.3·13.8 ≈ 1172
        let ok = solve_pair(100, 900);
        assert!(iteration_envelope(&ok).ok);
        let bad = solve_pair(100, 5000);
        let v = iteration_envelope(&bad);
        assert!(!v.ok);
        assert!(v.detail.contains("envelope"));
    }

    #[test]
    fn full_run_returns_five_verdicts_in_stable_order() {
        let verdicts = run_monitors(&solve_pair(64, 500));
        let names: Vec<&str> = verdicts.iter().map(|v| v.monitor.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "mu-monotone",
                "centrality-bound",
                "conductance-certified",
                "tracker-reconciliation",
                "iteration-envelope"
            ]
        );
        assert!(all_ok(&verdicts));
        let md = to_markdown(&verdicts);
        assert!(md.contains("| mu-monotone | ok |"));
    }
}
