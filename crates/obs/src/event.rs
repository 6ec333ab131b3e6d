//! The `pmcf.events/v1` event model.
//!
//! One [`Event`] is one line of a flight recording: a monotone sequence
//! number, a dot-separated `kind` (`ipm.iter`, `expander.rebuild`, …),
//! and an ordered list of named [`Value`] fields. Events are
//! self-describing — a monitor never needs out-of-band context beyond
//! what the emitting site put into the event — which is what makes a
//! recording replayable from its JSONL serialization alone.

use pmcf_pram::profile::json_string;

/// Schema identifier stamped into the header line of every recording.
pub const SCHEMA: &str = "pmcf.events/v1";

/// A field value (the subset of JSON the event stream needs).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (non-finite serializes as `null`).
    F64(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Numeric view (integers widen losslessly enough for monitoring).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub(crate) fn render(&self, out: &mut String) {
        match self {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v:e}"));
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => out.push_str(&json_string(s)),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotone sequence number assigned at emit time (survives ring
    /// eviction, so gaps reveal dropped history).
    pub seq: u64,
    /// Dot-separated event kind, e.g. `ipm.iter`.
    pub kind: String,
    /// Ordered named fields.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// Build an event (the recorder assigns `seq`).
    pub fn new(kind: &str, fields: Vec<(&str, Value)>) -> Self {
        Event {
            seq: 0,
            kind: kind.to_string(),
            fields: fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Look up a field by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Numeric field by name.
    pub fn num(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Value::as_f64)
    }

    /// String field by name.
    pub fn str_field(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Render as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str(&format!(
            "{{\"seq\":{},\"kind\":{}",
            self.seq,
            json_string(&self.kind)
        ));
        for (k, v) in &self.fields {
            out.push(',');
            out.push_str(&json_string(k));
            out.push(':');
            v.render(&mut out);
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_renders_as_json_line() {
        let mut e = Event::new(
            "ipm.iter",
            vec![
                ("iteration", Value::from(3usize)),
                ("mu", Value::from(0.5f64)),
                ("engine", Value::from("robust")),
                ("ok", Value::from(true)),
            ],
        );
        e.seq = 7;
        let line = e.to_json_line();
        assert!(line.starts_with("{\"seq\":7,\"kind\":\"ipm.iter\""));
        assert!(line.contains("\"iteration\":3"));
        assert!(line.contains("\"mu\":5e-1"));
        assert!(line.contains("\"engine\":\"robust\""));
        assert!(line.contains("\"ok\":true"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn non_finite_floats_serialize_null() {
        let e = Event::new("x", vec![("v", Value::F64(f64::NAN))]);
        assert!(e.to_json_line().contains("\"v\":null"));
    }

    #[test]
    fn field_accessors() {
        let e = Event::new(
            "k",
            vec![("a", Value::U64(2)), ("b", Value::Str("s".into()))],
        );
        assert_eq!(e.num("a"), Some(2.0));
        assert_eq!(e.str_field("b"), Some("s"));
        assert!(e.get("c").is_none());
    }
}
