//! The versioned JSON report envelope — one renderer shared by the CLI
//! (`--report-json` reports) and the HTTP query endpoint, so the two
//! surfaces cannot drift: for the same report they are byte-identical.

use serde::Serialize;

/// The version of the JSON report envelope shared by every subcommand
/// and by the HTTP API. Bump when the envelope or any embedded report
/// shape changes; consumers should refuse versions they don't
/// understand.
///
/// Version history: 1 = the original `run` report (flat, `schema` field
/// inline); 2 = the `chaos` report with the durability counters; 3 = one
/// envelope for all subcommands — `{schema, command, report}` with the
/// per-command payload under `report`; 4 = the `chaos` report gains the
/// storage-fault `degradation` section; 5 = the `store query` report
/// gains the pagination `next_cursor` field and the envelope is also
/// served over HTTP (`/api/v1/query`); 6 = the `sim` and `run` reports
/// gain an `engine` section with the sharded engine's execution counters
/// (epochs, merges, lane swaps, arena reuses — the deterministic subset
/// of `EngineStats`); 7 = the `run`, `chaos` (all three modes) and
/// `coordinator` reports are the runtime's `RuntimeReport` — every one
/// of its fields — plus the command's own keys (`monitors`, `cost_ratio`,
/// `net`, …), `chaos --multitask`'s `tasks_detail` entries likewise per
/// task (the gate counters under each entry's `multitask`), and alert
/// events on `/api/v1/alerts/stream` carry the `task` they fired in.
pub const REPORT_SCHEMA_VERSION: u32 = 7;

/// Renders `report` wrapped in the versioned envelope —
/// `{"schema": N, "command": "<subcommand>", "report": {…}}` — as
/// 2-space-indented JSON with a trailing newline, exactly as the CLI
/// prints it.
pub fn envelope<T: Serialize + ?Sized>(command: &str, report: &T) -> String {
    let envelope = serde::Value::Object(vec![
        ("schema".to_string(), REPORT_SCHEMA_VERSION.to_value()),
        ("command".to_string(), command.to_value()),
        ("report".to_string(), report.to_value()),
    ]);
    let mut out = serde_json::to_string_pretty(&envelope).expect("serializable");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Sample {
        matched: u64,
    }

    #[test]
    fn envelope_is_pretty_with_trailing_newline() {
        let text = envelope("store", &Sample { matched: 3 });
        assert!(text.starts_with("{\n  \"schema\": 7,\n  \"command\": \"store\",\n"));
        assert!(text.ends_with("}\n"));
        assert!(text.contains("\"matched\": 3"));
    }
}
