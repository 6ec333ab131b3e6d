//! The `pmcf.events/v1` event model.
//!
//! One [`Event`] is one line of a flight recording: a monotone sequence
//! number, a dot-separated `kind` (`ipm.iter`, `expander.rebuild`, …),
//! and an ordered list of named scalar [`JsonValue`] fields. Events are
//! self-describing — a monitor never needs out-of-band context beyond
//! what the emitting site put into the event — which is what makes a
//! recording replayable from its JSONL serialization alone.

use crate::json::JsonValue;

/// Schema identifier stamped into the header line of every recording.
pub const SCHEMA: &str = "pmcf.events/v1";

/// One recorded event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotone sequence number assigned at emit time (survives ring
    /// eviction, so gaps reveal dropped history).
    pub seq: u64,
    /// Dot-separated event kind, e.g. `ipm.iter`.
    pub kind: String,
    /// Ordered named scalar fields.
    pub fields: Vec<(String, JsonValue)>,
}

impl Event {
    /// Build an event (the recorder assigns `seq`).
    pub fn new(kind: &str, fields: Vec<(&str, JsonValue)>) -> Self {
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
    pub fn get(&self, name: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Numeric field by name.
    pub fn num(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(JsonValue::as_f64)
    }

    /// The event as one JSONL line's object: `seq`, `kind`, then the
    /// fields in order.
    pub fn to_json(&self) -> JsonValue {
        let mut pairs = vec![
            ("seq".to_string(), self.seq.into()),
            ("kind".to_string(), self.kind.as_str().into()),
        ];
        pairs.extend(self.fields.iter().cloned());
        JsonValue::Obj(pairs)
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
                ("iteration", 3usize.into()),
                ("mu", 0.5.into()),
                ("engine", "robust".into()),
                ("ok", true.into()),
            ],
        );
        e.seq = 7;
        assert_eq!(
            e.to_json().to_string(),
            r#"{"seq":7,"kind":"ipm.iter","iteration":3,"mu":5e-1,"engine":"robust","ok":true}"#
        );
    }

    #[test]
    fn non_finite_floats_serialize_null() {
        let e = Event::new("x", vec![("v", f64::NAN.into())]);
        assert!(e.to_json().to_string().contains("\"v\":null"));
    }

    #[test]
    fn field_accessors() {
        let e = Event::new("k", vec![("a", 2u64.into()), ("b", "s".into())]);
        assert_eq!(e.num("a"), Some(2.0));
        assert_eq!(e.get("b").and_then(JsonValue::as_str), Some("s"));
        assert!(e.get("c").is_none());
    }
}
