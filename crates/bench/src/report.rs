//! The `bench/1` payload: flat benchmark records — one
//! `{name, value, unit}` triple per measured quantity — that trend
//! tooling can ingest without knowing the richer source schemas. The
//! layered benchmark under `perfbench/` writes its result files with
//! [`bench_json`].

use obs::Json;

/// Schema identifier emitted by [`bench_json`].
pub const BENCH_SCHEMA: &str = "bench/1";

/// One flat benchmark record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Dotted metric name, e.g. `acc16.cycles`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `cycles`, `ratio`, `us`.
    pub unit: &'static str,
}

/// Renders entries as the `bench/1` JSON payload.
#[must_use]
pub fn bench_json(entries: &[BenchEntry]) -> String {
    let arr: Vec<Json> = entries
        .iter()
        .map(|e| {
            Json::obj().with("name", e.name.as_str()).with("value", e.value).with("unit", e.unit)
        })
        .collect();
    Json::obj().with("schema", BENCH_SCHEMA).with("entries", Json::Arr(arr)).to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_parses_with_schema_and_entries() {
        let entry = BenchEntry { name: "acc16.cycles".to_owned(), value: 4.0, unit: "cycles" };
        let parsed = Json::parse(&bench_json(&[entry])).expect("bench payload parses");
        assert_eq!(parsed.get_str("schema"), Some(BENCH_SCHEMA));
        let entries = parsed.get("entries").and_then(Json::as_arr).expect("entries");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].get_str("name"), Some("acc16.cycles"));
        assert_eq!(entries[0].get_f64("value"), Some(4.0));
        assert_eq!(entries[0].get_str("unit"), Some("cycles"));
    }
}
