//! Shared range resolution, pagination and rendering for store
//! queries — one module used by both `volley store query` and the HTTP
//! `GET /api/v1/query` endpoint, so the two surfaces produce
//! byte-identical output for the same range and cannot drift.

use std::io::{self, Write};

use serde::Serialize;
use volley_core::Tick;

use crate::record::{RecordKind, TASK_WIDE};
use crate::store::{ScanRange, Store};

/// Filter and pagination parameters of one query. Field defaults match
/// [`ScanRange::all`]: everything matches, no limit, cursor at 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryParams {
    /// Restrict to one task.
    pub task: Option<u32>,
    /// Restrict to one monitor (or metric-name id for obs kinds).
    pub monitor: Option<u32>,
    /// Restrict to one record kind.
    pub kind: Option<RecordKind>,
    /// First tick (inclusive).
    pub from: Tick,
    /// Last tick (inclusive).
    pub to: Tick,
    /// Most records to return in this page (`None` = unbounded).
    pub limit: Option<usize>,
    /// Matching records to skip — the `next_cursor` of the previous
    /// page. Scans are deterministic, so offset pagination is stable.
    pub cursor: u64,
}

impl Default for QueryParams {
    fn default() -> Self {
        QueryParams {
            task: None,
            monitor: None,
            kind: None,
            from: 0,
            to: Tick::MAX,
            limit: None,
            cursor: 0,
        }
    }
}

impl QueryParams {
    /// The scan range these parameters describe.
    pub fn range(&self) -> ScanRange {
        let mut range = ScanRange::all().from(self.from).to(self.to);
        if let Some(task) = self.task {
            range = range.task(task);
        }
        if let Some(monitor) = self.monitor {
            range = range.monitor(monitor);
        }
        if let Some(kind) = self.kind {
            range = range.kind(kind);
        }
        range
    }
}

/// One rendered record row.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RecordRow {
    /// Owning task index.
    pub task: u32,
    /// Monitor index (or [`TASK_WIDE`] / metric-name id).
    pub monitor: u32,
    /// The record kind's CLI spelling.
    pub kind: &'static str,
    /// When it happened.
    pub tick: Tick,
    /// The payload.
    pub value: f64,
}

/// The report of one query page — the `report` payload of the
/// versioned envelope on both the CLI and HTTP surfaces.
#[derive(Debug, Serialize)]
pub struct QueryReport {
    /// The store directory, as the caller named it.
    pub dir: String,
    /// Records matching the range, across all pages.
    pub matched: u64,
    /// Records in this page.
    pub shown: usize,
    /// Cursor of the next page, when the range has more records past
    /// this page; `null` on the last page.
    pub next_cursor: Option<u64>,
    /// This page's rows, in deterministic scan order.
    pub records: Vec<RecordRow>,
}

/// Runs one query page against `store`. `dir_label` is echoed in the
/// report verbatim so CLI and HTTP surfaces agree byte-for-byte when
/// given the same store path spelling.
///
/// # Errors
///
/// Propagates scan I/O errors.
pub fn run_query(store: &Store, dir_label: &str, params: &QueryParams) -> io::Result<QueryReport> {
    let limit = params.limit.unwrap_or(usize::MAX);
    let mut matched = 0u64;
    let mut records = Vec::new();
    for record in store.scan(&params.range())? {
        matched += 1;
        if matched <= params.cursor || records.len() >= limit {
            continue;
        }
        records.push(RecordRow {
            task: record.task,
            monitor: record.monitor,
            kind: record.kind.as_str(),
            tick: record.tick,
            value: record.value,
        });
    }
    let consumed = params.cursor + records.len() as u64;
    let next_cursor = (matched > consumed).then_some(consumed);
    Ok(QueryReport {
        dir: dir_label.to_string(),
        matched,
        shown: records.len(),
        next_cursor,
        records,
    })
}

/// Renders the human-readable table — the CLI's non-`--report-json` output.
///
/// # Errors
///
/// Propagates writer errors.
pub fn render_text<W: Write>(out: &mut W, report: &QueryReport) -> io::Result<()> {
    writeln!(out, "store:            {}", report.dir)?;
    writeln!(
        out,
        "matched:          {} records (showing {})",
        report.matched, report.shown
    )?;
    if let Some(cursor) = report.next_cursor {
        writeln!(out, "next cursor:      {cursor}")?;
    }
    if !report.records.is_empty() {
        writeln!(
            out,
            "{:>6} {:>8} {:>9} {:>8} value",
            "task", "monitor", "kind", "tick"
        )?;
        for row in &report.records {
            // Task-wide records (alerts) have no single monitor.
            let monitor = if row.monitor == TASK_WIDE {
                "-".to_string()
            } else {
                row.monitor.to_string()
            };
            writeln!(
                out,
                "{:>6} {monitor:>8} {:>9} {:>8} {}",
                row.task, row.kind, row.tick, row.value
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Record;

    fn sample_store(dir: &std::path::Path) -> Store {
        let mut store = Store::open(dir).expect("open");
        for tick in 0..10u64 {
            store
                .append(Record {
                    task: 0,
                    monitor: (tick % 2) as u32,
                    kind: RecordKind::Sample,
                    tick,
                    value: tick as f64,
                })
                .expect("append");
        }
        store.flush().expect("flush");
        store
    }

    #[test]
    fn pagination_walks_the_full_range() {
        let dir = std::env::temp_dir().join(format!("volley-query-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = sample_store(&dir);
        let mut params = QueryParams {
            limit: Some(4),
            ..QueryParams::default()
        };
        let mut seen = Vec::new();
        loop {
            let page = run_query(&store, "label", &params).expect("query");
            assert_eq!(page.matched, 10);
            assert!(page.shown <= 4);
            seen.extend(page.records.iter().map(|r| (r.monitor, r.tick)));
            match page.next_cursor {
                Some(cursor) => params.cursor = cursor,
                None => break,
            }
        }
        // Every record exactly once, in deterministic scan order.
        assert_eq!(seen.len(), 10);
        let full = run_query(&store, "label", &QueryParams::default()).expect("query");
        assert_eq!(
            full.records
                .iter()
                .map(|r| (r.monitor, r.tick))
                .collect::<Vec<_>>(),
            seen
        );
        assert_eq!(full.next_cursor, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn text_rendering_is_stable() {
        let dir = std::env::temp_dir().join(format!("volley-query-text-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = sample_store(&dir);
        let params = QueryParams {
            limit: Some(2),
            ..QueryParams::default()
        };
        let report = run_query(&store, "the-store", &params).expect("query");
        let mut out = Vec::new();
        render_text(&mut out, &report).expect("render");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("store:            the-store\n"));
        assert!(text.contains("matched:          10 records (showing 2)\n"));
        assert!(text.contains("next cursor:      2\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
