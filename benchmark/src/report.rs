//! What a run prints: one `<workload> <metric> <value> <unit>` line per
//! metric, then the result as one JSON object on the last line.

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` lists for this mode.
    pub metrics: Vec<Metric>,
    /// Context printed with them but left out of the JSON result.
    pub notes: Vec<Metric>,
}

impl Report {
    /// `{"name": {"value": v, "unit": "u"}, ...}`, values with every digit
    /// (a non-finite value, which no metric should produce, becomes
    /// `null`).
    pub fn metrics_json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() {
                    m.value.to_string()
                } else {
                    "null".to_string()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The run is correct when nothing failed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.notes) {
            println!("{} {} {} {}", self.workload, m.name, m.value, m.unit);
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        );
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
