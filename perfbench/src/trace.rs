//! Reading the program's JSONL trace streams: training spans
//! (`TrainConfig.trace_out`) and `msgc serve --trace-out` request events.

use std::collections::BTreeMap;
use std::path::Path;

use meta_sgcl_repro::telemetry::json::{parse, Json};

/// One `span` event.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id.
    pub id: u64,
    /// Parent span id (0 = none).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Start, nanoseconds on the tracer's clock.
    pub start: u64,
    /// Duration in nanoseconds.
    pub dur: u64,
}

/// The events of one trace file the benchmark uses.
#[derive(Debug, Default)]
pub struct TraceFile {
    /// Every `span` event.
    pub spans: Vec<Span>,
    /// Final `metric` values of kind `counter`, by name.
    pub counters: BTreeMap<String, f64>,
    /// Every `req` event (serve traces).
    pub reqs: Vec<Json>,
}

fn field(obj: &Json, key: &str) -> u64 {
    obj.get(key).and_then(Json::as_num).unwrap_or(0.0) as u64
}

/// Numeric field of an event, 0 when absent.
pub fn num(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

/// Reads a trace file. A line that does not parse is skipped: the serve
/// trace is cut wherever its writer's buffer stood when the server was
/// stopped.
pub fn read(path: &Path) -> std::io::Result<TraceFile> {
    let text = std::fs::read_to_string(path)?;
    let mut out = TraceFile::default();
    for line in text.lines() {
        let Ok(ev) = parse(line) else { continue };
        match ev.get("ev").and_then(Json::as_str) {
            Some("span") => out.spans.push(Span {
                id: field(&ev, "id"),
                parent: field(&ev, "parent"),
                name: ev
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                start: field(&ev, "start_ns"),
                dur: field(&ev, "dur_ns"),
            }),
            Some("metric") if ev.get("kind").and_then(Json::as_str) == Some("counter") => {
                if let Some(name) = ev.get("name").and_then(Json::as_str) {
                    out.counters.insert(name.to_string(), num(&ev, "value"));
                }
            }
            Some("req") => out.reqs.push(ev),
            _ => {}
        }
    }
    Ok(out)
}
