//! The three user-visible operations replayed in-process through the
//! crates' public functions, with a span around each call into a layer.
//!
//! Each replay follows its command step for step — `cliffguard design`,
//! `cliffguard ingest`, and one serve `design` frame through intake,
//! persistence, the runner and the response — and returns the bytes the
//! command prints. The benchmark compares those bytes with the program's
//! own output, so a replay that drifts from the program fails the run.

use crate::trace::{rename_last_closed, span};
use cliffguard::core::gamma::{consecutive_deltas, GammaPolicy};
use cliffguard::core::{
    CliffGuardConfig, CliffGuardTrace, DesignSession, OnlineAdvisor, OnlineAdvisorConfig,
    SessionOptions, WindowAudit, WindowPolicy, DEFAULT_INTERN_CAPACITY,
};
use cliffguard::designer::{ColumnarCandidates, GreedyDesigner, Reliable};
use cliffguard::distance::DeltaEuclidean;
use cliffguard::resilience::SessionClock;
use cliffguard::serve::{
    parse_request, run_design, CheckpointStore, DesignStatus, Request, Response, RunOutcome,
    RunnerOptions,
};
use cliffguard::sim::{ddl, ColumnarEngine, Engine, PhysicalDesign};
use cliffguard::storage::Catalog;
use cliffguard::workload::parser::parse_query;
use cliffguard::workload::{LogEntry, LogStream, Query, QueryId, QueryLog, Workload};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// `cliffguard design`'s default window length.
pub const WINDOW_DAYS: u64 = 28;
/// `cliffguard ingest`'s default read size.
pub const INGEST_CHUNK_BYTES: usize = 64 << 10;

/// Catalog JSON text → `Catalog` with its name index built.
pub fn load_catalog(text: &str) -> Result<Catalog, String> {
    let mut catalog: Catalog = serde_json::from_str(text).map_err(|e| format!("catalog: {e}"))?;
    catalog.rebuild_index();
    Ok(catalog)
}

/// Parses every `epoch_seconds<TAB>SQL` line of `text` with the uncached
/// SQL parser, as the batch importer does.
pub fn parse_log(text: &str, catalog: &Catalog) -> QueryLog {
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((ts, sql)) = line.split_once('\t') else {
            continue;
        };
        let Ok(timestamp) = ts.trim().parse::<u64>() else {
            continue;
        };
        if let Ok(q) = parse_query(sql, catalog) {
            entries.push(LogEntry {
                timestamp,
                query: Arc::new(q),
            });
        }
    }
    QueryLog::from_entries(entries)
}

/// The CLI's automatic budget: 30% of the catalog's data bytes.
pub fn auto_budget(engine: &ColumnarEngine) -> u64 {
    let catalog = engine.catalog();
    let data: u64 = catalog
        .tables()
        .map(|t| catalog.table(t).rows * catalog.table(t).row_width())
        .sum();
    (data as f64 * 0.3) as u64
}

/// What one `cliffguard design` op printed, plus its session trace.
pub struct DesignOut {
    /// Standard output: the DDL script.
    pub ddl: String,
    /// The session's audit line on standard error (`cliffguard: …`).
    pub audit: String,
    pub trace: CliffGuardTrace,
}

/// Replays `cliffguard design --catalog C --log L` (all flags default).
pub fn design_op(catalog_text: &str, log_text: &str) -> Result<DesignOut, String> {
    let catalog = span("storage.catalog_load", || load_catalog(catalog_text))?;
    let log = span("workload.parser", || parse_log(log_text, &catalog));
    if log.is_empty() {
        return Err("no parseable queries in the log".into());
    }
    let windows = span("workload.log.window", || log.windows_days(WINDOW_DAYS));
    let (w0, history) = windows.split_last().ok_or("log has no windows")?;
    let engine = ColumnarEngine::new(catalog);
    let budget = auto_budget(&engine);
    let metric = DeltaEuclidean::new(engine.catalog().column_count());
    let nominal = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    let gamma = span("distance.gamma", || {
        GammaPolicy::KMaxPastDeltas(1.5).resolve(&consecutive_deltas(&metric, &windows))
    });
    let mut pool: Vec<Arc<Query>> = Vec::new();
    let mut seen = HashSet::new();
    for w in history.iter().rev().take(4) {
        for q in w.queries() {
            if seen.insert(q.signature()) {
                pool.push(Arc::clone(q));
            }
        }
    }
    let (design, trace) = span("core.session.run", || {
        let options = SessionOptions {
            clock: SessionClock::system(),
            ..SessionOptions::default()
        };
        DesignSession::new(
            &engine,
            Reliable(&nominal),
            metric,
            CliffGuardConfig::new(gamma),
            options,
        )
        .map(|s| s.run(w0, budget, &pool).into_design())
    })
    .map_err(|e| format!("bad configuration: {e}"))?;
    let audit = format!(
        "cliffguard: {} designer calls, {} samples, {} retries, {} faults, worst-case trace {:?}",
        trace.designer_calls,
        trace.samples,
        trace.retries,
        trace.faults,
        trace
            .worst_case_per_iter
            .iter()
            .map(|x| x.round())
            .collect::<Vec<_>>()
    );
    let ddl = span("sim.ddl.render", || {
        ddl::columnar_script(&design, engine.catalog())
    });
    Ok(DesignOut { ddl, audit, trace })
}

/// What one `cliffguard ingest` op printed, plus its redesign traces.
pub struct IngestOut {
    pub stdout: String,
    pub traces: Vec<CliffGuardTrace>,
    /// Statements the stream kept in its parse cache at the end.
    pub cached_statements: usize,
    /// Records the stream parsed.
    pub parsed: u64,
}

type PendingAudit = (WindowAudit, Option<(Workload, Vec<Arc<Query>>)>);

fn observe_into(
    advisor: &mut OnlineAdvisor,
    pending: &mut Vec<PendingAudit>,
    ts: u64,
    q: &Arc<Query>,
) {
    let audits = span("core.online.observe", || advisor.observe(ts, q));
    if !audits.is_empty() {
        rename_last_closed("core.online.close");
    }
    for audit in audits {
        push_audit(advisor, pending, audit);
    }
}

fn push_audit(advisor: &OnlineAdvisor, pending: &mut Vec<PendingAudit>, audit: WindowAudit) {
    let action = audit.triggered.then(|| {
        (
            advisor.last_window().cloned().unwrap_or_default(),
            advisor.design_pool(),
        )
    });
    pending.push((audit, action));
}

fn flush_audits(
    out: &mut String,
    pending: &mut Vec<PendingAudit>,
    engine: &ColumnarEngine,
    budget: u64,
    traces: &mut Vec<CliffGuardTrace>,
) -> Result<(), String> {
    for (audit, action) in pending.drain(..) {
        let _ = writeln!(out, "{}", audit.line());
        let Some((w0, pool)) = action else {
            continue;
        };
        if w0.is_empty() {
            continue;
        }
        let metric = DeltaEuclidean::new(engine.catalog().column_count());
        let nominal = GreedyDesigner::new(engine, ColumnarCandidates, "DBD");
        let options = SessionOptions {
            clock: SessionClock::system(),
            ..SessionOptions::default()
        };
        let config = CliffGuardConfig::new(audit.gamma.max(0.0));
        let (design, trace) = span("core.session.run", || {
            DesignSession::new(engine, Reliable(&nominal), metric, config, options)
                .map(|s| s.run(&w0, budget, &pool).into_design())
        })
        .map_err(|e| format!("bad configuration: {e}"))?;
        let _ = writeln!(
            out,
            "T{} projections={} bytes={} designer_calls={} retries={} faults={} degraded={}",
            audit.index,
            design.len(),
            design.price_bytes(engine.catalog()),
            trace.designer_calls,
            trace.retries,
            trace.faults,
            u8::from(trace.degraded.is_some()),
        );
        traces.push(trace);
    }
    Ok(())
}

/// Replays `cliffguard ingest --catalog C --log L --window N --gamma G`.
pub fn ingest_op(
    catalog_text: &str,
    log: &[u8],
    window: usize,
    gamma: f64,
) -> Result<IngestOut, String> {
    let catalog = span("storage.catalog_load", || load_catalog(catalog_text))?;
    let mut config = OnlineAdvisorConfig::new(catalog.column_count());
    config.window = WindowPolicy::Count(window);
    config.gamma = GammaPolicy::Fixed(gamma);
    let engine = ColumnarEngine::new(catalog);
    let budget = auto_budget(&engine);
    let mut advisor = OnlineAdvisor::new(config, SessionClock::system());
    let mut stream = LogStream::new();
    let mut pending: Vec<PendingAudit> = Vec::new();
    let mut out = String::new();
    let mut traces = Vec::new();
    for chunk in log.chunks(INGEST_CHUNK_BYTES) {
        {
            let (advisor, pending) = (&mut advisor, &mut pending);
            let mut sink = |ts: u64, _id: QueryId, q: &Arc<Query>| {
                observe_into(advisor, pending, ts, q);
            };
            span("workload.stream", || {
                stream.feed(chunk, engine.catalog(), &mut sink)
            });
        }
        span("core.online.compact", || {
            advisor.compact_stream(&mut stream, DEFAULT_INTERN_CAPACITY)
        });
        flush_audits(&mut out, &mut pending, &engine, budget, &mut traces)?;
    }
    {
        let (advisor, pending) = (&mut advisor, &mut pending);
        let mut sink = |ts: u64, _id: QueryId, q: &Arc<Query>| {
            observe_into(advisor, pending, ts, q);
        };
        span("workload.stream", || {
            stream.finish(engine.catalog(), &mut sink)
        });
    }
    if let Some(audit) = span("core.online.close", || advisor.finish()) {
        push_audit(&advisor, &mut pending, audit);
    }
    flush_audits(&mut out, &mut pending, &engine, budget, &mut traces)?;
    let stats = stream.stats();
    let _ = writeln!(
        out,
        "ingest: lines={} parsed={} skipped_sql={} skipped_malformed={} bytes={} windows={} triggers={}",
        stats.lines,
        stats.parsed,
        stats.skipped_sql,
        stats.skipped_malformed,
        stats.bytes,
        advisor.windows_closed(),
        advisor.triggers().len(),
    );
    Ok(IngestOut {
        stdout: out,
        traces,
        cached_statements: stream.cached_statements(),
        parsed: stats.parsed,
    })
}

/// Replays the daemon's handling of one `design` frame that was given
/// sequence number `seq`: parse, persist the request, run the session
/// with durable checkpoints, render and persist the response. Returns the
/// response line the daemon writes.
pub fn serve_op(
    frame: &str,
    seq: u64,
    store: &CheckpointStore,
    opts: &RunnerOptions,
) -> Result<String, String> {
    let request = span("serve.protocol.parse", || parse_request(frame))
        .map_err(|e| format!("parse: {}", e.0))?;
    let Request::Design(req) = request else {
        return Err("frame is not a design request".into());
    };
    span("serve.store.save", || store.record_seq(seq)).map_err(|e| e.to_string())?;
    let request_line = span("serve.protocol.render", || {
        Request::Design(req.clone()).to_line()
    });
    span("serve.store.save", || {
        store.save_request(&req.tenant, seq, &request_line)
    })
    .map_err(|e| e.to_string())?;
    let outcome = span("serve.runner.run_design", || {
        run_design(&req, opts, None, &mut |ckpt| {
            let _ = span("serve.store.save", || {
                store.save_checkpoint(&req.tenant, seq, ckpt)
            });
        })
    });
    if let RunOutcome::Interrupted(_) = outcome {
        return Err("session interrupted".into());
    }
    let line = span("serve.protocol.render", || {
        expected_response(seq, &req.tenant, &outcome)
    });
    span("serve.store.save", || {
        store.save_result(&req.tenant, seq, &line)
    })
    .map_err(|e| e.to_string())?;
    Ok(line)
}

/// The response line the daemon owes a frame whose session produced
/// `outcome` (the 1-thread reference the benchmark checks against).
pub fn expected_response(seq: u64, tenant: &str, outcome: &RunOutcome) -> String {
    let (status, reason, report) = match outcome {
        RunOutcome::Done(report) => match &report.degraded {
            Some(r) => (
                DesignStatus::Degraded,
                Some(r.clone()),
                Some((**report).clone()),
            ),
            None => (DesignStatus::Done, None, Some((**report).clone())),
        },
        RunOutcome::Rejected(reason) => (DesignStatus::Rejected, Some(reason.clone()), None),
        RunOutcome::Interrupted(_) => (DesignStatus::Rejected, Some("interrupted".into()), None),
    };
    Response::Design {
        seq,
        tenant: tenant.to_string(),
        status,
        reason,
        report,
        resumed: false,
    }
    .to_line()
}
