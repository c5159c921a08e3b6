//! Audit report rendering: a terminal report for humans and a stable
//! JSON document for tooling (`zr audit --json`).

use zr_store::json::escape;

use crate::harness::AuditOutcome;

/// Render an audit outcome for a terminal.
pub fn render_human(outcome: &AuditOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!("audit: {}\n", outcome.summary_a.ref_name));
    out.push_str(&format!(
        "arm A: manifest sha256:{} ({} layers)\n",
        outcome.summary_a.manifest_digest,
        outcome.summary_a.layer_digests.len()
    ));
    out.push_str(&format!(
        "arm B: manifest sha256:{} ({} layers)\n",
        outcome.summary_b.manifest_digest,
        outcome.summary_b.layer_digests.len()
    ));
    if outcome.clean() {
        out.push_str("verdict: CLEAN — config and layer blobs are byte-for-byte identical\n");
    } else {
        out.push_str(&format!(
            "verdict: DIVERGENT — {} divergence(s)\n",
            outcome.divergences.len()
        ));
        for d in &outcome.divergences {
            out.push_str(&format!("  {d}\n"));
        }
    }
    out
}

/// Render an audit outcome as a JSON document (fixed member order, so
/// the report itself is reproducible).
pub fn render_json(outcome: &AuditOutcome) -> String {
    let divergences: Vec<String> = outcome
        .divergences
        .iter()
        .map(|d| {
            let path = match &d.path {
                Some(p) => format!("\"{}\"", escape(p)),
                None => "null".to_string(),
            };
            format!(
                "{{\"blob\":\"{}\",\"class\":\"{}\",\"detail\":\"{}\",\"path\":{}}}",
                escape(&d.blob),
                d.class.name(),
                escape(&d.detail),
                path,
            )
        })
        .collect();
    format!(
        "{{\"clean\":{},\"divergences\":[{}],\"manifest_a\":\"sha256:{}\",\
         \"manifest_b\":\"sha256:{}\",\"ref\":\"{}\"}}",
        outcome.clean(),
        divergences.join(","),
        escape(&outcome.summary_a.manifest_digest),
        escape(&outcome.summary_b.manifest_digest),
        escape(&outcome.summary_a.ref_name),
    )
}
