//! Schema validation for the telemetry JSONL streams.
//!
//! Every line the training loop emits — to `--metrics-out` or
//! `--trace-out` — is a flat JSON object with an `ev` discriminator. This
//! module validates a line against the documented schema (`DESIGN.md` §10)
//! and is what the `telemetry_check` bin and the CI `telemetry-smoke` job
//! run over entire files. Unknown *fields* are allowed (forward
//! compatibility); unknown *event kinds* are rejected.

use crate::json::{parse, Json};

/// A required field and its expected shape.
enum Ty {
    /// JSON number.
    Num,
    /// JSON number or `null` (non-finite floats serialize as null).
    NumOrNull,
    /// JSON string.
    Str,
    /// JSON bool.
    Bool,
}

fn check_field(obj: &Json, name: &str, ty: &Ty) -> Result<(), String> {
    let v = obj
        .get(name)
        .ok_or_else(|| format!("missing required field `{name}`"))?;
    let ok = match ty {
        Ty::Num => v.as_num().is_some(),
        Ty::NumOrNull => v.as_num().is_some() || *v == Json::Null,
        Ty::Str => v.as_str().is_some(),
        Ty::Bool => v.as_bool().is_some(),
    };
    if ok {
        Ok(())
    } else {
        Err(format!("field `{name}` has the wrong type"))
    }
}

fn check_all(obj: &Json, fields: &[(&str, Ty)]) -> Result<(), String> {
    for (name, ty) in fields {
        check_field(obj, name, ty)?;
    }
    Ok(())
}

/// Validates one JSONL line; returns the event kind on success.
pub fn validate_line(line: &str) -> Result<String, String> {
    let obj = parse(line).map_err(|e| e.to_string())?;
    validate_event(&obj)
}

/// Validates one already-parsed event object; returns the event kind.
/// (The admin snapshot embeds metric event objects, so validation is
/// shared between the line-oriented streams and the snapshot document.)
pub fn validate_event(obj: &Json) -> Result<String, String> {
    if !matches!(obj, Json::Obj(_)) {
        return Err("line is not a JSON object".into());
    }
    let ev = obj
        .get("ev")
        .and_then(Json::as_str)
        .ok_or("missing string field `ev`")?
        .to_string();
    match ev.as_str() {
        "run" => check_all(
            obj,
            &[
                ("schema", Ty::Num),
                ("strategy", Ty::Str),
                ("threads", Ty::Num),
                ("shard_size", Ty::Num),
                ("seed", Ty::Num),
            ],
        )?,
        "batch" => check_all(
            obj,
            &[
                ("epoch", Ty::Num),
                ("batch", Ty::Num),
                ("step", Ty::Num),
                ("beta", Ty::NumOrNull),
                ("recon", Ty::NumOrNull),
                ("kl_a", Ty::NumOrNull),
                ("kl_b", Ty::NumOrNull),
                ("info_nce", Ty::NumOrNull),
                ("total", Ty::NumOrNull),
                ("grad_norm", Ty::NumOrNull),
            ],
        )?,
        "epoch" => check_all(
            obj,
            &[
                ("epoch", Ty::Num),
                ("batches", Ty::Num),
                ("recon", Ty::NumOrNull),
                ("kl_a", Ty::NumOrNull),
                ("kl_b", Ty::NumOrNull),
                ("info_nce", Ty::NumOrNull),
                ("total", Ty::NumOrNull),
            ],
        )?,
        "metric" => {
            check_all(
                obj,
                &[("name", Ty::Str), ("kind", Ty::Str), ("det", Ty::Bool)],
            )?;
            match obj.get("kind").and_then(Json::as_str) {
                Some("counter") => check_all(obj, &[("value", Ty::Num)])?,
                Some("gauge") => check_all(obj, &[("value", Ty::NumOrNull)])?,
                Some("histogram") => {
                    check_all(
                        obj,
                        &[("count", Ty::Num), ("sum", Ty::Num), ("invalid", Ty::Num)],
                    )?;
                    let buckets = obj
                        .get("buckets")
                        .and_then(Json::as_arr)
                        .ok_or("histogram missing `buckets` array")?;
                    for b in buckets {
                        let pair = b.as_arr().ok_or("bucket entry is not an array")?;
                        if pair.len() != 2 || pair.iter().any(|x| x.as_num().is_none()) {
                            return Err("bucket entry is not a [index, count] pair".into());
                        }
                    }
                }
                Some("sketch") => check_all(
                    obj,
                    &[
                        ("count", Ty::Num),
                        ("sum", Ty::Num),
                        ("p50", Ty::NumOrNull),
                        ("p90", Ty::NumOrNull),
                        ("p99", Ty::NumOrNull),
                        ("p999", Ty::NumOrNull),
                    ],
                )?,
                other => return Err(format!("unknown metric kind {other:?}")),
            }
        }
        // One flat event per *sampled* serve request: phase breakdown plus
        // outcome flags (DESIGN.md §15).
        "req" => check_all(
            obj,
            &[
                ("id", Ty::Num),
                ("op", Ty::Str),
                ("enqueue_ns", Ty::Num),
                ("assemble_ns", Ty::Num),
                ("forward_ns", Ty::Num),
                ("retrieve_ns", Ty::Num),
                ("serialize_ns", Ty::Num),
                ("total_ns", Ty::Num),
                ("cold_start", Ty::Bool),
                ("cache_hit", Ty::Bool),
                ("ann", Ty::Bool),
                ("ann_fallback", Ty::Bool),
            ],
        )?,
        "span" => check_all(
            obj,
            &[
                ("id", Ty::Num),
                ("parent", Ty::Num),
                ("name", Ty::Str),
                ("start_ns", Ty::Num),
                ("dur_ns", Ty::Num),
            ],
        )?,
        "health" => check_all(
            obj,
            &[
                ("detector", Ty::Str),
                ("epoch", Ty::Num),
                ("batch", Ty::Num),
                ("step", Ty::Num),
                ("value", Ty::NumOrNull),
                ("message", Ty::Str),
            ],
        )?,
        "checkpoint" => check_all(obj, &[("step", Ty::Num), ("path", Ty::Str)])?,
        "resume" => check_all(
            obj,
            &[
                ("epoch", Ty::Num),
                ("batch", Ty::Num),
                ("step", Ty::Num),
                ("path", Ty::Str),
            ],
        )?,
        other => return Err(format!("unknown event kind `{other}`")),
    }
    Ok(ev)
}

/// Validates a serve admin `snapshot` response document.
///
/// Shape (DESIGN.md §15): `{"ok":true,"kind":"snapshot","metrics":[...],
/// "slos":[...]}` where each metric entry is a full `metric` event object
/// (validated by [`validate_event`], names must be sorted) and each SLO
/// state carries `name`/`status`/`value`/`threshold`/`breached_ever`/
/// `reason`. Returns `(metric count, slo count)`.
pub fn validate_admin_snapshot(text: &str) -> Result<(usize, usize), String> {
    let obj = parse(text).map_err(|e| e.to_string())?;
    check_all(&obj, &[("ok", Ty::Bool), ("kind", Ty::Str)])?;
    if obj.get("kind").and_then(Json::as_str) != Some("snapshot") {
        return Err("`kind` is not \"snapshot\"".into());
    }
    let metrics = obj
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or("missing `metrics` array")?;
    let mut prev: Option<&str> = None;
    for (i, m) in metrics.iter().enumerate() {
        let kind = validate_event(m).map_err(|e| format!("metrics[{i}]: {e}"))?;
        if kind != "metric" {
            return Err(format!("metrics[{i}]: event kind `{kind}` is not `metric`"));
        }
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("metrics[{i}]: missing name"))?;
        if prev.is_some_and(|p| p >= name) {
            return Err(format!("metrics[{i}]: `{name}` breaks name-sorted order"));
        }
        prev = Some(name);
    }
    let slos = obj
        .get("slos")
        .and_then(Json::as_arr)
        .ok_or("missing `slos` array")?;
    for (i, s) in slos.iter().enumerate() {
        check_all(
            s,
            &[
                ("name", Ty::Str),
                ("status", Ty::Str),
                ("value", Ty::NumOrNull),
                ("threshold", Ty::Num),
                ("breached_ever", Ty::Bool),
                ("reason", Ty::Str),
            ],
        )
        .map_err(|e| format!("slos[{i}]: {e}"))?;
        let status = s.get("status").and_then(Json::as_str).unwrap_or("");
        if !matches!(status, "ok" | "degraded" | "no_data") {
            return Err(format!("slos[{i}]: unknown status `{status}`"));
        }
    }
    Ok((metrics.len(), slos.len()))
}

/// Validates a whole JSONL document (one event per non-empty line).
/// Returns per-kind counts, or the first error with its line number.
pub fn validate_stream(text: &str) -> Result<Vec<(String, usize)>, String> {
    let mut counts: std::collections::BTreeMap<String, usize> = Default::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let kind = validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        *counts.entry(kind).or_insert(0) += 1;
    }
    Ok(counts.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_documented_events() {
        let lines = [
            r#"{"ev":"run","schema":1,"strategy":"meta-two-step","threads":4,"shard_size":16,"seed":42}"#,
            r#"{"ev":"batch","epoch":0,"batch":3,"step":3,"beta":0.05,"recon":4.1,"kl_a":0.9,"kl_b":1.2,"info_nce":2.1,"total":4.3,"grad_norm":1.25,"meta_update_norm":0.004}"#,
            r#"{"ev":"epoch","epoch":0,"batches":12,"recon":4.0,"kl_a":0.9,"kl_b":1.1,"info_nce":2.0,"total":4.2}"#,
            r#"{"ev":"metric","name":"tensor.gemm.calls","kind":"counter","det":true,"value":1024}"#,
            r#"{"ev":"metric","name":"optim.grad_norm","kind":"gauge","det":true,"value":0.5}"#,
            r#"{"ev":"metric","name":"autograd.backward.wall_ns","kind":"histogram","det":false,"count":3,"sum":900,"invalid":0,"buckets":[[8,2],[9,1]]}"#,
            r#"{"ev":"span","id":2,"parent":1,"name":"batch","start_ns":10,"dur_ns":90,"epoch":0}"#,
            r#"{"ev":"health","t_ns":5,"detector":"kl_collapse_a","epoch":1,"batch":2,"step":14,"value":1e-9,"message":"collapse"}"#,
            r#"{"ev":"checkpoint","t_ns":9,"step":40,"path":"ckpts/ckpt-000000000040.msgc2"}"#,
            r#"{"ev":"resume","t_ns":1,"epoch":2,"batch":1,"step":21,"path":"ckpts"}"#,
        ];
        for line in lines {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn null_stands_in_for_nonfinite_floats() {
        let line = r#"{"ev":"batch","epoch":0,"batch":0,"step":0,"beta":0.0,"recon":null,"kl_a":null,"kl_b":0.1,"info_nce":0.2,"total":null,"grad_norm":null}"#;
        assert_eq!(validate_line(line).unwrap(), "batch");
    }

    #[test]
    fn rejects_unknown_kind_missing_field_wrong_type() {
        assert!(validate_line(r#"{"ev":"mystery"}"#).is_err());
        assert!(validate_line(r#"{"ev":"batch","epoch":0}"#).is_err());
        assert!(validate_line(
            r#"{"ev":"span","id":"x","parent":0,"name":"n","start_ns":0,"dur_ns":0}"#
        )
        .is_err());
        assert!(validate_line("not json").is_err());
        assert!(validate_line("[1,2]").is_err());
        let bad_bucket = r#"{"ev":"metric","name":"h","kind":"histogram","det":true,"count":1,"sum":1,"invalid":0,"buckets":[[1]]}"#;
        assert!(validate_line(bad_bucket).is_err());
    }

    #[test]
    fn accepts_serve_events() {
        let lines = [
            r#"{"ev":"metric","name":"serve.latency_us","kind":"sketch","det":false,"count":10,"sum":1000,"p50":90.0,"p90":180.0,"p99":200.0,"p999":null}"#,
            r#"{"ev":"req","id":17,"t_ns":5,"op":"score","user":3,"enqueue_ns":100,"assemble_ns":50,"forward_ns":900,"retrieve_ns":200,"serialize_ns":30,"total_ns":1280,"cold_start":false,"cache_hit":true,"ann":true,"ann_fallback":false}"#,
        ];
        for line in lines {
            validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        // Missing a phase field or a flag is an error.
        assert!(validate_line(r#"{"ev":"req","id":1,"op":"score"}"#).is_err());
        assert!(validate_line(
            r#"{"ev":"metric","name":"s","kind":"sketch","det":false,"count":1,"sum":1}"#
        )
        .is_err());
    }

    #[test]
    fn admin_snapshot_validates_shape_and_order() {
        let good = r#"{"ok":true,"kind":"snapshot","metrics":[
            {"ev":"metric","name":"serve.cache.hit","kind":"counter","det":true,"value":5},
            {"ev":"metric","name":"serve.latency_us","kind":"sketch","det":false,"count":2,"sum":20,"p50":9.0,"p90":11.0,"p99":11.0,"p999":11.0}
        ],"slos":[
            {"name":"p99_latency_ms","status":"ok","value":1.5,"threshold":50.0,"breached_ever":false,"reason":"1.5 within budget 50"},
            {"name":"recall_at_10","status":"no_data","value":null,"threshold":0.8,"breached_ever":false,"reason":"no observations in window"}
        ]}"#;
        assert_eq!(validate_admin_snapshot(good), Ok((2, 2)));
        // Unsorted metric names are rejected (determinism contract).
        let unsorted = good.replace("serve.cache.hit", "zzz.last");
        assert!(validate_admin_snapshot(&unsorted)
            .unwrap_err()
            .contains("name-sorted"));
        let bad_status = good.replace("\"no_data\"", "\"meh\"");
        assert!(validate_admin_snapshot(&bad_status).is_err());
        assert!(validate_admin_snapshot(r#"{"ok":true,"kind":"health"}"#).is_err());
    }

    #[test]
    fn stream_counts_by_kind_and_reports_line_numbers() {
        let text = "\n{\"ev\":\"checkpoint\",\"step\":1,\"path\":\"a\"}\n{\"ev\":\"checkpoint\",\"step\":2,\"path\":\"b\"}\n";
        assert_eq!(
            validate_stream(text).unwrap(),
            vec![("checkpoint".to_string(), 2)]
        );
        let broken = "{\"ev\":\"checkpoint\",\"step\":1,\"path\":\"a\"}\nnope\n";
        let err = validate_stream(broken).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
