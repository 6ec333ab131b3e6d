//! Replayable case files: `pmcf.case/v1`.
//!
//! A case file captures one (usually shrunken) scenario that once made
//! the oracles disagree, plus enough metadata to understand why it was
//! interesting. Checked-in cases under `results/cases/` are replayed by
//! `cargo test` and by the CI fuzz-smoke leg, so a fixed bug stays
//! fixed.
//!
//! Format notes: scalars that count or index vertices and edges (`n`,
//! `s`, `t`, `nl`, edge endpoints, delta indices) and the seed are plain
//! JSON integers, read exactly (`n` at most 2^20); every
//! `i64` payload (capacities,
//! costs, demands, weights) is a JSON *string*, because the overflow
//! boundary cases carry values near `2^62` that a float-backed JSON
//! number cannot round-trip exactly.

use crate::families::{DeltaSpec, Scenario};
use pmcf_graph::{DiGraph, McfProblem};
use pmcf_obs::json::{self, JsonValue};
use std::path::Path;

/// The schema tag every case file starts with.
pub const SCHEMA: &str = "pmcf.case/v1";

/// Largest vertex count a case file may declare — far above anything a
/// family generates, and small enough that loading never allocates
/// absurd amounts.
const MAX_VERTICES: usize = 1 << 20;

/// A replayable differential-test case.
#[derive(Clone, Debug)]
pub struct CaseFile {
    /// Which family produced the original instance.
    pub family: String,
    /// The seed it was produced from.
    pub seed: u64,
    /// Why this case exists (the mismatch message at capture time).
    pub reason: String,
    /// The (shrunken) scenario to replay.
    pub scenario: Scenario,
}

/// `i64` payloads travel as JSON strings (see module docs).
fn i64_strings(xs: &[i64]) -> JsonValue {
    xs.iter().map(|x| x.to_string().into()).collect()
}

/// The scenario's `n` and `edges` keys followed by `rest`.
fn with_graph<const K: usize>(g: &DiGraph, rest: [(&'static str, JsonValue); K]) -> JsonValue {
    let edges = g
        .edges()
        .iter()
        .map(|&(u, v)| JsonValue::Arr(vec![u.into(), v.into()]))
        .collect();
    JsonValue::obj(
        [("n", g.n().into()), ("edges", edges)]
            .into_iter()
            .chain(rest),
    )
}

fn mcf_pairs(p: &McfProblem) -> [(&'static str, JsonValue); 3] {
    [
        ("cap", i64_strings(&p.cap)),
        ("cost", i64_strings(&p.cost)),
        ("demand", i64_strings(&p.demand)),
    ]
}

fn delta_json(d: &DeltaSpec) -> JsonValue {
    let edge_value = |&(e, x): &(usize, i64)| JsonValue::Arr(vec![e.into(), x.to_string().into()]);
    JsonValue::obj([
        (
            "insert",
            d.insert
                .iter()
                .map(|&(f, t, u, c)| {
                    JsonValue::Arr(vec![
                        f.into(),
                        t.into(),
                        u.to_string().into(),
                        c.to_string().into(),
                    ])
                })
                .collect(),
        ),
        ("delete", d.delete.iter().map(|&e| e.into()).collect()),
        ("set_cost", d.set_cost.iter().map(edge_value).collect()),
        ("set_cap", d.set_cap.iter().map(edge_value).collect()),
    ])
}

impl CaseFile {
    /// The `pmcf.case/v1` document.
    pub fn to_json(&self) -> JsonValue {
        let scenario = match &self.scenario {
            Scenario::Mcf(p) => with_graph(&p.graph, mcf_pairs(p)),
            Scenario::ResolveChurn { base, deltas } => {
                let [cap, cost, demand] = mcf_pairs(base);
                let deltas = ("deltas", deltas.iter().map(delta_json).collect());
                with_graph(&base.graph, [cap, cost, demand, deltas])
            }
            Scenario::MaxFlow { g, cap, s, t } => with_graph(
                g,
                [
                    ("cap", i64_strings(cap)),
                    ("s", (*s).into()),
                    ("t", (*t).into()),
                ],
            ),
            Scenario::Matching { g, nl } => with_graph(g, [("nl", (*nl).into())]),
            Scenario::Sssp { g, w, s } => {
                with_graph(g, [("w", i64_strings(w)), ("s", (*s).into())])
            }
            Scenario::Reach { g, s } => with_graph(g, [("s", (*s).into())]),
        };
        JsonValue::obj([
            ("schema", SCHEMA.into()),
            ("family", self.family.as_str().into()),
            ("seed", self.seed.into()),
            ("task", self.scenario.task().into()),
            ("reason", self.reason.as_str().into()),
            ("scenario", scenario),
        ])
    }

    /// Parse a case file.
    pub fn from_json(src: &str) -> Result<CaseFile, String> {
        let v = json::parse(src)?;
        let schema = v.field("schema", JsonValue::as_str)?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA})"));
        }
        let task = v.field("task", JsonValue::as_str)?;
        let sc = v.get("scenario").ok_or("missing scenario")?;
        Ok(CaseFile {
            family: v.field("family", JsonValue::as_str)?.to_string(),
            seed: v.field("seed", JsonValue::as_u64)?,
            reason: v
                .get("reason")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            scenario: parse_scenario(task, sc)?,
        })
    }

    /// Write to `path` (creating parent directories).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        json::write_file(path, &self.to_json())
    }

    /// Load from `path`.
    pub fn load(path: &Path) -> Result<CaseFile, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        CaseFile::from_json(&src).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// A vertex count, vertex or edge index: an exact non-negative integer.
fn as_index(v: &JsonValue) -> Option<usize> {
    v.as_u64().and_then(|x| usize::try_from(x).ok())
}

fn index(v: &JsonValue, what: &str) -> Result<usize, String> {
    as_index(v).ok_or_else(|| format!("{what} must be a non-negative integer"))
}

fn get_i64s(v: &JsonValue, key: &str) -> Result<Vec<i64>, String> {
    v.field(key, JsonValue::as_arr)?
        .iter()
        .map(|x| strnum(x, key))
        .collect()
}

fn get_graph(v: &JsonValue) -> Result<DiGraph, String> {
    let n = v.field("n", as_index)?;
    if n > MAX_VERTICES {
        return Err(format!("n = {n} exceeds the {MAX_VERTICES}-vertex limit"));
    }
    let arr = v.field("edges", JsonValue::as_arr)?;
    let mut edges = Vec::with_capacity(arr.len());
    for e in arr {
        let [a, b] = e.as_arr().ok_or("edge must be a [u, v] pair")? else {
            return Err("edge must be a [u, v] pair".into());
        };
        let (u, w) = (index(a, "edge endpoint")?, index(b, "edge endpoint")?);
        if u >= n || w >= n {
            return Err(format!("edge ({u}, {w}) out of range for n = {n}"));
        }
        edges.push((u, w));
    }
    Ok(DiGraph::from_edges(n, edges))
}

fn strnum(v: &JsonValue, what: &str) -> Result<i64, String> {
    v.as_str()
        .ok_or_else(|| format!("{what} must be an i64 string"))?
        .parse::<i64>()
        .map_err(|e| format!("{what}: {e}"))
}

fn parse_delta(v: &JsonValue) -> Result<DeltaSpec, String> {
    let mut d = DeltaSpec::default();
    for ins in v.field("insert", JsonValue::as_arr)? {
        let [from, to, cap, cost] = ins.as_arr().ok_or("insert entry must be an array")? else {
            return Err("insert entry must be [from, to, cap, cost]".into());
        };
        d.insert.push((
            index(from, "insert.from")?,
            index(to, "insert.to")?,
            strnum(cap, "insert.cap")?,
            strnum(cost, "insert.cost")?,
        ));
    }
    for del in v.field("delete", JsonValue::as_arr)? {
        d.delete.push(index(del, "delete entry")?);
    }
    for (key, out) in [("set_cost", &mut d.set_cost), ("set_cap", &mut d.set_cap)] {
        for entry in v.field(key, JsonValue::as_arr)? {
            let [e, x] = entry.as_arr().ok_or("set entry must be an array")? else {
                return Err(format!("{key} entry must be [edge, value]"));
            };
            out.push((index(e, "set edge")?, strnum(x, "set value")?));
        }
    }
    Ok(d)
}

fn parse_scenario(task: &str, v: &JsonValue) -> Result<Scenario, String> {
    let g = get_graph(v)?;
    match task {
        "mcf" => {
            let cap = get_i64s(v, "cap")?;
            let cost = get_i64s(v, "cost")?;
            let demand = get_i64s(v, "demand")?;
            if cap.len() != g.m() || cost.len() != g.m() || demand.len() != g.n() {
                return Err("cap/cost/demand lengths do not match the graph".into());
            }
            if demand.iter().try_fold(0i64, |a, &d| a.checked_add(d)) != Some(0) {
                return Err("demands must sum to zero".into());
            }
            if cap.iter().any(|&u| u < 0) {
                return Err("capacities must be ≥ 0".into());
            }
            Ok(Scenario::Mcf(McfProblem::new(g, cap, cost, demand)))
        }
        "resolve_churn" => {
            let cap = get_i64s(v, "cap")?;
            let cost = get_i64s(v, "cost")?;
            let demand = get_i64s(v, "demand")?;
            if cap.len() != g.m() || cost.len() != g.m() || demand.len() != g.n() {
                return Err("cap/cost/demand lengths do not match the graph".into());
            }
            if demand.iter().try_fold(0i64, |a, &d| a.checked_add(d)) != Some(0) {
                return Err("demands must sum to zero".into());
            }
            let deltas = v
                .field("deltas", JsonValue::as_arr)?
                .iter()
                .map(parse_delta)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Scenario::ResolveChurn {
                base: McfProblem::new(g, cap, cost, demand),
                deltas,
            })
        }
        "max_flow" => {
            let cap = get_i64s(v, "cap")?;
            if cap.len() != g.m() {
                return Err("cap length does not match the graph".into());
            }
            Ok(Scenario::MaxFlow {
                cap,
                s: v.field("s", as_index)?,
                t: v.field("t", as_index)?,
                g,
            })
        }
        "matching" => Ok(Scenario::Matching {
            nl: v.field("nl", as_index)?,
            g,
        }),
        "sssp" => {
            let w = get_i64s(v, "w")?;
            if w.len() != g.m() {
                return Err("w length does not match the graph".into());
            }
            Ok(Scenario::Sssp {
                w,
                s: v.field("s", as_index)?,
                g,
            })
        }
        "reachability" => Ok(Scenario::Reach {
            s: v.field("s", as_index)?,
            g,
        }),
        other => Err(format!("unknown task {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::families;

    #[test]
    fn every_family_round_trips_through_json() {
        for f in families() {
            for seed in 0..3u64 {
                let case = CaseFile {
                    family: f.name.to_string(),
                    seed,
                    reason: "round-trip \"test\"\n".to_string(),
                    scenario: (f.gen)(seed),
                };
                let back = CaseFile::from_json(&case.to_json().to_string())
                    .unwrap_or_else(|e| panic!("{}: {e}", f.name));
                assert_eq!(back.family, case.family);
                assert_eq!(back.seed, seed);
                assert_eq!(
                    format!("{:?}", back.scenario),
                    format!("{:?}", case.scenario),
                    "family {} seed {seed}",
                    f.name
                );
            }
        }
    }

    #[test]
    fn big_magnitudes_survive_exactly() {
        let g = DiGraph::from_edges(2, vec![(0, 1)]);
        let c = (1i64 << 62) / 9 + 3; // not representable as f64
        let case = CaseFile {
            family: "mcf-bigm-boundary".into(),
            seed: 0,
            reason: String::new(),
            scenario: Scenario::Mcf(McfProblem::new(g, vec![1], vec![c], vec![-1, 1])),
        };
        let back = CaseFile::from_json(&case.to_json().to_string()).unwrap();
        let Scenario::Mcf(p) = back.scenario else {
            panic!("wrong task");
        };
        assert_eq!(p.cost[0], c);
    }

    #[test]
    fn malformed_files_are_typed_errors() {
        assert!(CaseFile::from_json("{}").is_err());
        assert!(CaseFile::from_json("{\"schema\":\"pmcf.case/v2\"}").is_err());
        let bad_edge = format!(
            "{{\"schema\":\"{SCHEMA}\",\"family\":\"x\",\"seed\":0,\"task\":\"reachability\",\"scenario\":{{\"n\":2,\"edges\":[[0,5]],\"s\":0}}}}"
        );
        assert!(CaseFile::from_json(&bad_edge).is_err());
        // vertex counts and indices are exact integers within bounds
        for scenario in [
            r#"{"n":1e19,"edges":[],"s":0}"#,
            r#"{"n":3.9,"edges":[[0,-1]],"s":0}"#,
            r#"{"n":3,"edges":[[0,1.0]],"s":0}"#,
            r#"{"n":2000000,"edges":[],"s":0}"#,
        ] {
            let doc = format!(
                r#"{{"schema":"{SCHEMA}","family":"x","seed":0,"task":"reachability","scenario":{scenario}}}"#
            );
            assert!(CaseFile::from_json(&doc).is_err(), "{scenario}");
        }
        // demands whose sum overflows i64 are an error, not a panic
        let overflow = format!(
            r#"{{"schema":"{SCHEMA}","family":"x","seed":0,"task":"mcf","scenario":{{"n":2,"edges":[],"cap":[],"cost":[],"demand":["{}","1"]}}}}"#,
            i64::MAX
        );
        assert!(CaseFile::from_json(&overflow).is_err());
    }
}
