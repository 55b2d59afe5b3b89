//! The traced run: each workload's ops replayed in-process with a span
//! around every call into a layer, checked byte for byte against the
//! program's own output, plus scaling rows for the input stages. Spans
//! are written as JSONL and summarised in a per-layer table.

use crate::drive::CliRun;
use crate::drive::Program;
use crate::inputs;
use crate::measure::{self, cli_output, design_cli, ingest_cli, triggers, CliOp, Measured};
use crate::ops::{self, WINDOW_DAYS};
use crate::trace::{self, span, Span};
use crate::{median, metric, Metric, Outcome, Workload, OUT_DIR};
use cliffguard::core::CliffGuardTrace;
use cliffguard::designer::{ColumnarCandidates, GreedyDesigner, NominalDesigner};
use cliffguard::serve::{
    design_line, parse_request, CheckpointStore, DesignRequest, RunOutcome, RunnerOptions,
};
use cliffguard::sim::{ColumnarEngine, Engine};
use cliffguard::storage::CatalogGenerator;
use cliffguard::workload::generator::SchemaShape;
use cliffguard::workload::{LogStream, Workload as Window};
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Untraced subprocess ops timed for `probe.overhead_frac`.
const UNTRACED_OPS: usize = 12;
/// Fewest traced ops per run, rounded up to whole passes over the
/// inputs (spans of every op stay in memory).
const TRACED_OPS: usize = 8;
/// Input size `n` of the scaling rows; each stage is also timed at `4n`.
const SCALE_BYTES: usize = 48 << 10;

/// Last worst-case value of the `cliffguard:` audit line's trace.
fn audit_worst_case(audit: &str) -> f64 {
    audit
        .rsplit_once('[')
        .and_then(|(_, t)| t.trim_end_matches(']').rsplit(", ").next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// `text` cut or repeated to about `bytes`, at a line boundary.
fn sized(text: &str, bytes: usize) -> String {
    let mut out = String::with_capacity(bytes + 256);
    while out.len() < bytes {
        for line in text.lines() {
            out.push_str(line);
            out.push('\n');
            if out.len() >= bytes {
                break;
            }
        }
    }
    out
}

fn exponent(t_n: f64, t_4n: f64, b_n: usize, b_4n: usize) -> f64 {
    (t_4n / t_n).ln() / (b_4n as f64 / b_n as f64).ln()
}

/// Fitted exponents of the four input stages between `n` and `4n` input
/// bytes: time ∝ bytes^exponent (1 = linear, 2 = quadratic).
fn scaling_rows(catalog_seed: u64, shape: &SchemaShape, log: &str) -> Vec<Metric> {
    let cols: Vec<u32> = shape.tables().map(|t| shape.columns_of(t)).collect();
    let catalog = |copies: usize| {
        CatalogGenerator {
            seed: catalog_seed,
            ..CatalogGenerator::default()
        }
        .generate(&SchemaShape::new(cols.repeat(copies)))
    };
    let (cat_1, cat_4) = (catalog(1), catalog(4));
    let (text_1, text_4) = (inputs::catalog_json(&cat_1), inputs::catalog_json(&cat_4));
    let load = |t: &str| {
        time_ms(7, || {
            drop(ops::load_catalog(t).expect("generated catalog loads"))
        })
    };
    let catalog_exp = exponent(load(&text_1), load(&text_4), text_1.len(), text_4.len());

    let (log_1, log_4) = (sized(log, SCALE_BYTES), sized(log, 4 * SCALE_BYTES));
    let frame = |l: &str| design_line(&DesignRequest::new("scaling", cat_1.to_value(), l));
    let (frame_1, frame_4) = (frame(&log_1), frame(&log_4));
    let parse = |f: &str| {
        time_ms(3, || {
            drop(parse_request(f).expect("generated frame parses"))
        })
    };
    let parse_exp = exponent(
        parse(&frame_1),
        parse(&frame_4),
        frame_1.len(),
        frame_4.len(),
    );

    let parser = |l: &str| time_ms(3, || drop(ops::parse_log(l, &cat_1)));
    let parser_exp = exponent(parser(&log_1), parser(&log_4), log_1.len(), log_4.len());

    let stream = |l: &str| {
        time_ms(5, || {
            let mut s = LogStream::new();
            s.feed(l.as_bytes(), &cat_1, &mut |_, _, _| {});
            s.finish(&cat_1, &mut |_, _, _| {});
        })
    };
    let stream_exp = exponent(stream(&log_1), stream(&log_4), log_1.len(), log_4.len());
    vec![
        metric("serve.protocol.parse_exponent", parse_exp, "exponent"),
        metric("storage.catalog_load_exponent", catalog_exp, "exponent"),
        metric("workload.parser_exponent", parser_exp, "exponent"),
        metric("workload.stream_exponent", stream_exp, "exponent"),
    ]
}

/// Standalone probes of the input layers a workload's op does not expose
/// itself, run on the workload's own input: the uncached parser, the
/// streaming reader and one nominal greedy design of the last window.
fn probe_parser(catalog_text: &str, log: &str) {
    let catalog = ops::load_catalog(catalog_text).expect("generated catalog loads");
    trace::op("probe.parser", || {
        span("workload.parser", || drop(ops::parse_log(log, &catalog)))
    });
}

fn probe_catalog(catalog_text: &str) {
    trace::op("probe.catalog", || {
        span("storage.catalog_load", || {
            drop(ops::load_catalog(catalog_text))
        })
    });
}

/// Returns (cached statements, parsed records) of the stream.
fn probe_stream(catalog_text: &str, log: &str) -> (usize, u64) {
    let catalog = ops::load_catalog(catalog_text).expect("generated catalog loads");
    let mut stream = LogStream::new();
    trace::op("probe.stream", || {
        span("workload.stream", || {
            stream.feed(log.as_bytes(), &catalog, &mut |_, _, _| {});
            stream.finish(&catalog, &mut |_, _, _| {});
        })
    });
    (stream.cached_statements(), stream.stats().parsed)
}

fn probe_greedy(catalog_text: &str, w0: impl FnOnce(&ColumnarEngine) -> Window) {
    let catalog = ops::load_catalog(catalog_text).expect("generated catalog loads");
    let engine = ColumnarEngine::new(catalog);
    let w0 = w0(&engine);
    let budget = ops::auto_budget(&engine);
    let designer = GreedyDesigner::new(&engine, ColumnarCandidates, "DBD");
    trace::op("probe.greedy", || {
        span("designer.greedy.design", || {
            drop(designer.design(&w0, budget))
        })
    });
}

fn last_day_window(log: &str, engine: &ColumnarEngine) -> Window {
    let log = ops::parse_log(log, engine.catalog());
    log.windows_days(WINDOW_DAYS).pop().unwrap_or_default()
}

/// Span durations grouped by layer name, over the workload's ops and
/// probes.
struct Layers {
    /// Per name: (duration, self time) of every span, in nanoseconds.
    by_name: BTreeMap<&'static str, Vec<(u64, u64)>>,
    /// Per op: (wall, root self time) in nanoseconds.
    ops: Vec<(u64, u64)>,
}

impl Layers {
    fn of(spans: &[Span]) -> Self {
        let own = trace::self_times(spans);
        let mut by_name: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
        let mut ops = Vec::new();
        for (s, &self_ns) in spans.iter().zip(&own) {
            if s.parent == 0 {
                if s.name.starts_with("op.") {
                    ops.push((s.dur_ns(), self_ns));
                }
            } else {
                by_name
                    .entry(s.name)
                    .or_default()
                    .push((s.dur_ns(), self_ns));
            }
        }
        Self { by_name, ops }
    }

    fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.by_name.get(name).map_or_else(Vec::new, |v| {
            v.iter().map(|&(d, _)| d as f64 / 1e6).collect()
        })
    }

    fn median_ms(&self, name: &str) -> f64 {
        median(&self.durations_ms(name))
    }

    fn total_self_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| v.iter().map(|&(_, s)| s as f64 / 1e9).sum())
    }

    fn total_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| v.iter().map(|&(d, _)| d as f64 / 1e9).sum())
    }

    fn unattributed_frac(&self) -> f64 {
        let wall: u64 = self.ops.iter().map(|o| o.0).sum();
        let own: u64 = self.ops.iter().map(|o| o.1).sum();
        own as f64 / wall.max(1) as f64
    }

    fn op_wall_ms(&self) -> f64 {
        median(
            &self
                .ops
                .iter()
                .map(|o| o.0 as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }
}

/// The per-layer table: each layer's self time inside the workload's
/// ops, its share of op wall, and the unattributed remainder.
fn report(workload: Workload, seed: u64, spans: &[Span]) -> String {
    let own = trace::self_times(spans);
    let mut in_op = vec![false; spans.len()];
    let mut wall = 0u64;
    let mut n_ops = 0u64;
    let mut root_self = 0u64;
    let mut rows: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        in_op[i] = if s.parent == 0 {
            s.name.starts_with("op.")
        } else {
            in_op[s.parent as usize - 1]
        };
        if !in_op[i] {
            continue;
        }
        if s.parent == 0 {
            wall += s.dur_ns();
            root_self += own[i];
            n_ops += 1;
        } else {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += own[i];
        }
    }
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1 .1));
    let mut out = String::new();
    let per_op = |ns: u64| ns as f64 / 1e6 / n_ops.max(1) as f64;
    let share = |ns: u64| 100.0 * ns as f64 / wall.max(1) as f64;
    let _ = writeln!(
        out,
        "{} seed {seed}: {n_ops} traced ops, median op wall {:.3} ms",
        workload.name(),
        Layers::of(spans).op_wall_ms()
    );
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>14} {:>9}",
        "layer", "calls/op", "self ms/op", "share"
    );
    for (name, (calls, self_ns)) in &rows {
        let _ = writeln!(
            out,
            "{name:<28} {:>9.1} {:>14.3} {:>8.2}%",
            *calls as f64 / n_ops.max(1) as f64,
            per_op(*self_ns),
            share(*self_ns)
        );
    }
    let _ = writeln!(
        out,
        "{:<28} {:>9} {:>14.3} {:>8.2}%",
        "(unattributed)",
        "",
        per_op(root_self),
        share(root_self)
    );
    out
}

/// Per-layer metrics that every workload reports; a layer the workload's
/// op does not call reads 0.
struct LayerValues {
    values: BTreeMap<&'static str, f64>,
}

impl LayerValues {
    fn new() -> Self {
        Self {
            values: BTreeMap::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| metric(name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Every per-layer metric with its unit, in report order.
const PER_LAYER: [(&str, &str); 28] = [
    ("serve.protocol.parse_ms", "ms"),
    ("serve.protocol.parse_mb_per_s", "MB/s"),
    ("serve.protocol.parse_exponent", "exponent"),
    ("storage.catalog_load_ms", "ms"),
    ("storage.catalog_load_exponent", "exponent"),
    ("workload.parser.us_per_stmt", "us"),
    ("workload.parser_exponent", "exponent"),
    ("workload.stream.mb_per_s", "MB/s"),
    ("workload.stream.distinct_per_arrival", "ratio"),
    ("workload.stream_exponent", "exponent"),
    ("workload.log.window_ms", "ms"),
    ("distance.gamma_ms", "ms"),
    ("core.session.run_ms", "ms"),
    ("core.session.designer_calls", "count"),
    ("core.session.samples", "count"),
    ("core.session.iterations", "count"),
    ("designer.greedy.design_ms", "ms"),
    ("sim.ddl.render_ms", "ms"),
    ("core.online.observe_us_p50", "us"),
    ("core.online.close_us_max", "us"),
    ("core.online.trigger_precision", "ratio"),
    ("serve.runner.run_design_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.store.bytes_per_input_byte", "ratio"),
    ("serve.store.files_per_frame", "count"),
    ("probe.unattributed_frac", "ratio"),
    ("probe.overhead_frac", "ratio"),
    ("design_worst_case_ms", "model_ms"),
];

/// Counts op results: every op checked, mismatches failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, m: &Measured) {
        self.attempted += m.attempted;
        self.failed += m.failed;
    }
}

/// Untraced subprocess ops: their outputs and op latencies.
fn untraced_cli(
    program: &Program,
    ops: &[CliOp],
    check: impl Fn(&CliRun) -> bool,
    tally: &mut Tally,
) -> Result<(Measured, Vec<CliRun>), String> {
    // Whole passes, so the untraced and traced ops mix the same inputs.
    let min_ops = ops.len() * UNTRACED_OPS.div_ceil(ops.len());
    let (m, references) = measure::cli_loop(program, ops, 0.0, min_ops, check)?;
    tally.add(&m);
    Ok((m, references))
}

/// Records handed to the parser: the log's timestamped lines.
fn statements(log: &str) -> usize {
    log.lines().filter(|l| l.contains('\t')).count()
}

/// Runs `op` over whole passes of `inputs` ops, at least [`TRACED_OPS`]
/// ops in all.
fn repeat_traced(inputs: usize, op: impl FnMut(usize)) {
    (0..TRACED_OPS.next_multiple_of(inputs)).for_each(op);
}

pub fn run(
    workload: Workload,
    seed: u64,
    program: &Program,
    work: &Path,
) -> Result<Outcome, String> {
    let threads = cliffguard::parallel::current_threads();
    let mut tally = Tally::default();
    let mut v = LayerValues::new();
    let mut checks_passed = true;
    let untraced_p50;
    match workload {
        Workload::DesignBatch => {
            let logs = inputs::design_batch(seed, work)?;
            let cli_ops: Vec<CliOp> = logs.iter().map(design_cli).collect();
            let (m, references) = untraced_cli(program, &cli_ops, |_| true, &mut tally)?;
            checks_passed &= m.checks_passed;
            untraced_p50 = median(&m.latencies_ms());
            let expected: Vec<String> = references.iter().map(cli_output).collect();
            let mut sessions = Vec::new();
            let mut parsed_statements = 0usize;
            repeat_traced(logs.len(), |i| {
                let k = i % logs.len();
                let log = &logs[k];
                let out = trace::op("op.design", || {
                    ops::design_op(&log.catalog_text, &log.log_text)
                });
                parsed_statements += statements(&log.log_text);
                let ok = out
                    .as_ref()
                    .is_ok_and(|o| format!("{}\n--audit--\n{}", o.ddl, o.audit) == expected[k]);
                tally.check(ok);
                if let (Ok(o), true) = (out, i < logs.len()) {
                    sessions.push(o.trace);
                }
            });
            let (cached, parsed) = probe_stream(&logs[0].catalog_text, &logs[0].log_text);
            probe_greedy(&logs[0].catalog_text, |e| {
                last_day_window(&logs[0].log_text, e)
            });
            let layers = Layers::of(&trace::snapshot());
            v.set(
                "storage.catalog_load_ms",
                layers.median_ms("storage.catalog_load"),
            );
            v.set(
                "workload.parser.us_per_stmt",
                layers.total_s("workload.parser") * 1e6 / parsed_statements.max(1) as f64,
            );
            v.set(
                "workload.stream.mb_per_s",
                logs[0].log_text.len() as f64 / 1e6 / layers.total_self_s("workload.stream"),
            );
            v.set(
                "workload.stream.distinct_per_arrival",
                cached as f64 / parsed.max(1) as f64,
            );
            v.set(
                "workload.log.window_ms",
                layers.median_ms("workload.log.window"),
            );
            v.set("distance.gamma_ms", layers.median_ms("distance.gamma"));
            v.set("core.session.run_ms", layers.median_ms("core.session.run"));
            set_session_means(&mut v, &sessions);
            v.set("sim.ddl.render_ms", layers.median_ms("sim.ddl.render"));
            let worst: Vec<f64> = expected
                .iter()
                .map(|e| audit_worst_case(e.rsplit('\n').next().unwrap_or("")))
                .collect();
            v.set("design_worst_case_ms", mean(&worst));
            for m in scaling_rows(seed, &logs[0].shape, &logs[0].log_text) {
                v.set(m.name, m.value);
            }
        }
        Workload::IngestStream => {
            let tapes = inputs::ingest_stream(seed, work)?;
            let cli_ops: Vec<CliOp> = tapes.iter().map(ingest_cli).collect();
            let episodes = tapes[0].episodes.clone();
            let (m, references) = untraced_cli(
                program,
                &cli_ops,
                |r| triggers(&r.stdout) == episodes,
                &mut tally,
            )?;
            checks_passed &= m.checks_passed;
            untraced_p50 = median(&m.latencies_ms());
            let mut firsts = Vec::new();
            let mut streamed_bytes = 0usize;
            // The replay runs at the untraced op's thread count.
            cliffguard::parallel::set_threads(measure::INGEST_THREADS);
            repeat_traced(tapes.len(), |i| {
                let k = i % tapes.len();
                let tape = &tapes[k];
                let out = trace::op("op.ingest", || {
                    ops::ingest_op(
                        &tape.log.catalog_text,
                        tape.log.log_text.as_bytes(),
                        tape.window,
                        tape.gamma,
                    )
                });
                streamed_bytes += tape.log.log_text.len();
                tally.check(out.as_ref().is_ok_and(|o| o.stdout == references[k].stdout));
                if let (Ok(o), true) = (out, i < tapes.len()) {
                    firsts.push(o);
                }
            });
            cliffguard::parallel::set_threads(threads);
            let tape = &tapes[0];
            probe_parser(&tape.log.catalog_text, &tape.log.log_text);
            probe_greedy(&tape.log.catalog_text, |e| {
                let log = ops::parse_log(&tape.log.log_text, e.catalog());
                log.windows(tape.window_secs).pop().unwrap_or_default()
            });
            let layers = Layers::of(&trace::snapshot());
            v.set(
                "storage.catalog_load_ms",
                layers.median_ms("storage.catalog_load"),
            );
            v.set(
                "workload.parser.us_per_stmt",
                layers.total_s("workload.parser") * 1e6
                    / statements(&tape.log.log_text).max(1) as f64,
            );
            v.set(
                "workload.stream.mb_per_s",
                streamed_bytes as f64 / 1e6 / layers.total_self_s("workload.stream"),
            );
            v.set("core.session.run_ms", layers.median_ms("core.session.run"));
            let distinct: Vec<f64> = firsts
                .iter()
                .map(|o| o.cached_statements as f64 / o.parsed.max(1) as f64)
                .collect();
            v.set("workload.stream.distinct_per_arrival", mean(&distinct));
            let traces: Vec<CliffGuardTrace> = firsts
                .iter()
                .flat_map(|o| o.traces.iter().cloned())
                .collect();
            set_session_means(&mut v, &traces);
            let worst: Vec<f64> = traces
                .iter()
                .map(|t| t.worst_case_per_iter.last().copied().unwrap_or(0.0))
                .collect();
            v.set("design_worst_case_ms", mean(&worst));
            let fired: Vec<u64> = firsts.iter().flat_map(|o| triggers(&o.stdout)).collect();
            let hits = fired.iter().filter(|w| episodes.contains(w)).count();
            v.set(
                "core.online.trigger_precision",
                hits as f64 / fired.len().max(1) as f64,
            );
            v.set(
                "core.online.observe_us_p50",
                layers.median_ms("core.online.observe") * 1e3,
            );
            let closes = layers.durations_ms("core.online.close");
            v.set(
                "core.online.close_us_max",
                closes.iter().fold(0.0, |a: f64, &b| a.max(b)) * 1e3,
            );
            for m in scaling_rows(seed, &tape.log.shape, &tape.log.log_text) {
                v.set(m.name, m.value);
            }
        }
        Workload::ServeDesign => {
            let frames = inputs::serve_frames(seed);
            let reference = measure::serve_reference(&frames, threads);
            // One daemon pass over every frame, untraced.
            let served = measure::serve_loop(program, &frames, &reference, threads, 0.0, work)?;
            checks_passed &= served.measured.checks_passed;
            tally.add(&served.measured);
            untraced_p50 = median(&served.measured.latencies_ms());
            let frame_bytes: u64 = served
                .responses
                .iter()
                .map(|(k, _)| frames[*k].line.len() as u64 + 1)
                .sum();
            v.set(
                "serve.store.bytes_per_input_byte",
                served.state_bytes as f64 / frame_bytes.max(1) as f64,
            );
            v.set(
                "serve.store.files_per_frame",
                served.state_files as f64 / served.responses.len().max(1) as f64,
            );

            let store_dir = work.join("traced-state");
            let store = CheckpointStore::open(&store_dir).map_err(|e| format!("state dir: {e}"))?;
            let opts = RunnerOptions {
                virtual_time: true,
                checkpoint_every: 1,
                ..RunnerOptions::default()
            };
            let mut parsed_bytes = 0u64;
            repeat_traced(frames.len(), |i| {
                let k = i % frames.len();
                let seq = i as u64 + 1;
                let line = trace::op("op.serve", || {
                    ops::serve_op(&frames[k].line, seq, &store, &opts)
                });
                parsed_bytes += frames[k].line.len() as u64;
                tally.check(line.is_ok_and(|l| {
                    l == crate::ops::expected_response(seq, &frames[k].tenant, &reference[k])
                }));
            });
            let _ = std::fs::remove_dir_all(&store_dir);
            let largest = frames
                .iter()
                .max_by_key(|f| f.line.len())
                .expect("the ladder has frames");
            for f in &frames {
                probe_catalog(&f.catalog_text);
                probe_parser(&f.catalog_text, &f.request.log);
            }
            let (cached, parsed) = probe_stream(&largest.catalog_text, &largest.request.log);
            probe_greedy(&largest.catalog_text, |e| {
                last_day_window(&largest.request.log, e)
            });
            let layers = Layers::of(&trace::snapshot());
            let parse_ms = layers.median_ms("serve.protocol.parse");
            let run_ms = layers.median_ms("serve.runner.run_design");
            v.set("serve.protocol.parse_ms", parse_ms);
            v.set(
                "serve.protocol.parse_mb_per_s",
                parsed_bytes as f64 / 1e6 / layers.total_s("serve.protocol.parse"),
            );
            v.set("serve.runner.run_design_ms", run_ms);
            v.set("serve.queue_wait_ms", untraced_p50 - parse_ms - run_ms);
            v.set(
                "storage.catalog_load_ms",
                layers.median_ms("storage.catalog_load"),
            );
            let parsed_statements: usize = frames.iter().map(|f| statements(&f.request.log)).sum();
            v.set(
                "workload.parser.us_per_stmt",
                layers.total_s("workload.parser") * 1e6 / parsed_statements.max(1) as f64,
            );
            v.set(
                "workload.stream.mb_per_s",
                largest.request.log.len() as f64 / 1e6 / layers.total_self_s("workload.stream"),
            );
            v.set(
                "workload.stream.distinct_per_arrival",
                cached as f64 / parsed.max(1) as f64,
            );
            let worst: Vec<f64> = reference
                .iter()
                .filter_map(|o| match o {
                    RunOutcome::Done(r) => r.worst_case_bits.last().map(|&b| f64::from_bits(b)),
                    _ => None,
                })
                .collect();
            v.set("design_worst_case_ms", mean(&worst));
            for m in scaling_rows(seed, &largest.shape, &largest.request.log) {
                v.set(m.name, m.value);
            }
        }
    }
    let spans = trace::take();
    let layers = Layers::of(&spans);
    v.set(
        "designer.greedy.design_ms",
        layers.median_ms("designer.greedy.design"),
    );
    v.set("probe.unattributed_frac", layers.unattributed_frac());
    v.set(
        "probe.overhead_frac",
        layers.op_wall_ms() / untraced_p50 - 1.0,
    );
    write_outputs(workload, seed, &spans)?;
    Ok(Outcome {
        correct: checks_passed && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: v.into_metrics(),
    })
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Mean designer calls, samples and iterations over `traces`.
fn set_session_means(v: &mut LayerValues, traces: &[CliffGuardTrace]) {
    let of = |f: fn(&CliffGuardTrace) -> f64| mean(&traces.iter().map(f).collect::<Vec<_>>());
    v.set(
        "core.session.designer_calls",
        of(|t| t.designer_calls as f64),
    );
    v.set("core.session.samples", of(|t| t.samples as f64));
    v.set(
        "core.session.iterations",
        of(|t| t.worst_case_per_iter.len() as f64),
    );
}

fn write_outputs(workload: Workload, seed: u64, spans: &[Span]) -> Result<(), String> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let stem = format!("{}-seed{seed}", workload.name());
    let spans_path = dir.join(format!("{stem}-spans.jsonl"));
    std::fs::write(&spans_path, trace::to_jsonl(spans, workload.name()))
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    let table = report(workload, seed, spans);
    let report_path = dir.join(format!("{stem}-report.txt"));
    std::fs::write(&report_path, &table)
        .map_err(|e| format!("write {}: {e}", report_path.display()))?;
    eprint!("{table}");
    eprintln!(
        "perfbench: spans in {}, table in {}",
        spans_path.display(),
        report_path.display()
    );
    Ok(())
}
