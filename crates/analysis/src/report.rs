//! Machine-readable audit output: serialises [`AuditReport`]s into the
//! JSON document `msgc check --audit-json` writes and CI uploads as an
//! artifact.
//!
//! The workspace has no serde; this is a small hand-rolled writer over
//! the report types (mirroring `telemetry::json` on the parse side).
//! Findings are serialised through their `Display` forms — the JSON is a
//! record of what the auditor said, not a second schema to keep in sync
//! with every pass's internals.

use crate::registry::AuditReport;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn string_array<T: std::fmt::Display>(items: &[T]) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|i| format!("\"{}\"", escape(&i.to_string())))
        .collect();
    format!("[{}]", parts.join(","))
}

/// Serialises audit reports as a JSON document:
///
/// ```json
/// {"models": [{"model": "...", "clean": true,
///              "stages": [{"stage": "full", "nodes": 123, ...}]}]}
/// ```
pub fn to_json(reports: &[AuditReport]) -> String {
    let mut models = Vec::new();
    for r in reports {
        let mut stages = Vec::new();
        for s in &r.stages {
            let pool: Vec<String> = s
                .cost
                .pool_classes
                .iter()
                .map(|c| {
                    format!(
                        "{{\"numel\":{},\"allocations\":{},\"overflow\":{}}}",
                        c.numel,
                        c.allocations,
                        c.overflow()
                    )
                })
                .collect();
            stages.push(format!(
                concat!(
                    "{{\"stage\":\"{stage}\",\"nodes\":{nodes},\"clean\":{clean},",
                    "\"flow_reached\":{reached},\"flow_frozen\":{frozen},",
                    "\"flops\":{flops},\"tape_bytes\":{tape},",
                    "\"closure_bytes\":{clo},",
                    "\"backward_peak_bytes\":{bwd},\"param_grad_bytes\":{pg},",
                    "\"transient_bytes\":{tr},\"predicted_peak_bytes\":{peak},",
                    "\"pool_classes\":[{pool}],\"pool_retained_bytes\":{pool_kept},",
                    "\"fixed_order_nodes\":{fo},\"reassoc_safe_nodes\":{rs},",
                    "\"shape\":{shape},\"flow\":{flow},\"numeric\":{numeric},",
                    "\"cost\":{cost},\"determinism\":{det}}}"
                ),
                stage = escape(&s.stage),
                nodes = s.nodes,
                clean = s.is_clean(),
                reached = s.flow_summary.reached,
                frozen = s.flow_summary.frozen,
                flops = s.cost.flops,
                tape = s.cost.tape_bytes,
                clo = s.cost.closure_bytes,
                bwd = s.cost.backward_peak_bytes,
                pg = s.cost.param_grad_bytes,
                tr = s.cost.transient_bytes,
                peak = s.cost.predicted_peak_bytes,
                pool = pool.join(","),
                pool_kept = s.cost.pool_retained_bytes,
                fo = s.determinism_summary.fixed_order,
                rs = s.determinism_summary.reassoc_safe,
                shape = string_array(&s.shape),
                flow = string_array(&s.flow),
                numeric = string_array(&s.numeric),
                cost = string_array(&s.cost.diagnostics),
                det = string_array(&s.determinism),
            ));
        }
        models.push(format!(
            "{{\"model\":\"{}\",\"clean\":{},\"stages\":[{}]}}",
            escape(&r.model),
            r.is_clean(),
            stages.join(","),
        ));
    }
    format!("{{\"models\":[{}]}}\n", models.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{audit_model, audit_model_with_fault, Fault};
    use telemetry::json::{self, Json};

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn clean_report_round_trips_through_the_telemetry_parser() {
        let report = audit_model("GRU4Rec").expect("registered");
        let doc = json::parse(to_json(&[report]).trim()).expect("valid JSON");
        let models = doc.get("models").and_then(Json::as_arr).expect("models");
        assert_eq!(models.len(), 1);
        let m = &models[0];
        assert_eq!(m.get("model").and_then(Json::as_str), Some("GRU4Rec"));
        assert_eq!(m.get("clean").and_then(Json::as_bool), Some(true));
        let stages = m.get("stages").and_then(Json::as_arr).expect("stages");
        assert!(stages[0].get("flops").and_then(Json::as_num).unwrap() > 0.0);
        assert!(
            stages[0]
                .get("predicted_peak_bytes")
                .and_then(Json::as_num)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn faulty_report_serialises_its_findings() {
        let report = audit_model_with_fault("SASRec", Fault::Shape).expect("registered");
        let text = to_json(&[report]);
        let doc = json::parse(text.trim()).expect("valid JSON");
        let m = &doc.get("models").and_then(Json::as_arr).expect("models")[0];
        assert_eq!(m.get("clean").and_then(Json::as_bool), Some(false));
        let stage = &m.get("stages").and_then(Json::as_arr).expect("stages")[0];
        let shapes = stage.get("shape").and_then(Json::as_arr).expect("shape");
        assert!(!shapes.is_empty());
    }
}
