//! Seeded workload inputs. The program only ever sees these bytes: files
//! for the CLI workloads, NDJSON frames for the daemon.

use cliffguard::serve::testdata::ingest_fixture;
use cliffguard::serve::{design_line, DesignRequest};
use cliffguard::storage::CatalogGenerator;
use cliffguard::workload::generator::{DriftingGenerator, SchemaShape, WorkloadProfile};
use cliffguard::workload::LogTapeConfig;
use serde::Serialize;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Windows in every generated R1 log (ROADMAP's reference shape).
pub const R1_WINDOWS: usize = 8;
/// R1 scale of the `design-batch` logs: ~2,560 lines, ~260 KB each.
pub const DESIGN_SCALE: f64 = 1.0;
/// Distinct seeded logs per `design-batch` run. Design cost depends on
/// the log's content as well as its size (one seed's log can take 1.5x
/// another's), so a run cycles through several to measure the
/// generator's typical log rather than one draw.
pub const DESIGN_LOGS: u64 = 32;
/// Log bytes of the serve frames, smallest first; with its catalog each
/// frame is ~50 to ~290 KB. Every seed sends frames of exactly these
/// sizes: the frame parse is superlinear in frame size, so size
/// differences between seeds would swamp everything else.
pub const FRAME_LOG_BYTES: [usize; 6] = [25_000, 73_000, 121_000, 169_000, 217_000, 265_000];
/// Submission order of the frames: each pair of neighbours costs about the
/// same, so every round of two concurrent frames carries a similar load.
pub const FRAME_ORDER: [usize; 6] = [0, 5, 1, 4, 2, 3];

/// A catalog and a log, in memory and as the files the CLI reads.
pub struct LogInput {
    pub catalog_text: String,
    pub log_text: String,
    pub catalog_path: PathBuf,
    pub log_path: PathBuf,
    /// Shape of the catalog's schema (for the catalog scaling row).
    pub shape: SchemaShape,
}

impl LogInput {
    fn write(
        dir: &Path,
        name: &str,
        catalog_text: String,
        log_text: String,
        shape: SchemaShape,
    ) -> Result<Self, String> {
        let catalog_path = dir.join(format!("{name}-catalog.json"));
        let log_path = dir.join(format!("{name}-log.tsv"));
        write_synced(&catalog_path, &catalog_text)?;
        write_synced(&log_path, &log_text)?;
        Ok(Self {
            catalog_text,
            log_text,
            catalog_path,
            log_path,
            shape,
        })
    }
}

/// Writes `text` to `path` and flushes it to disk, so that the kernel's
/// write-back of the inputs does not overlap the timed set-ups and ops.
fn write_synced(path: &Path, text: &str) -> Result<(), String> {
    let mut file = File::create(path).map_err(|e| format!("write input: {e}"))?;
    file.write_all(text.as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("write input: {e}"))
}

/// The catalog's pretty JSON, as `cliffguard generate` writes it.
pub fn catalog_json(catalog: &impl Serialize) -> String {
    serde_json::to_string_pretty(catalog).expect("a catalog serializes")
}

/// An R1 drifting log at `scale` with its catalog, both from `seed`.
fn r1(seed: u64, scale: f64) -> (cliffguard::storage::Catalog, String, SchemaShape) {
    let mut config = WorkloadProfile::R1.config(seed).scaled(scale);
    config.n_windows = R1_WINDOWS;
    let mut generator = DriftingGenerator::new(config);
    let shape = generator.shape().clone();
    let log = generator.generate();
    let catalog = CatalogGenerator {
        seed,
        ..CatalogGenerator::default()
    }
    .generate(&shape);
    let text = catalog.export_log(&log);
    (catalog, text, shape)
}

/// An R1 log of `log_bytes` bytes (cut at a line boundary) with its
/// catalog. The log is generated at the scale that yields a little more
/// than `log_bytes`, so the cut drops only the tail of the last window.
pub fn r1_sized(
    seed: u64,
    log_bytes: usize,
) -> (cliffguard::storage::Catalog, String, SchemaShape) {
    let probe = r1(seed, 0.1).1.len() as f64 / 0.1;
    let mut scale = 1.05 * log_bytes as f64 / probe;
    loop {
        let (catalog, mut log, shape) = r1(seed, scale);
        if log.len() >= log_bytes {
            let cut = log[..log_bytes].rfind('\n').map_or(0, |i| i + 1);
            log.truncate(cut);
            return (catalog, log, shape);
        }
        scale *= 1.1 * log_bytes as f64 / log.len() as f64;
    }
}

/// The `design-batch` input: [`DESIGN_LOGS`] R1 logs.
pub fn design_batch(seed: u64, dir: &Path) -> Result<Vec<LogInput>, String> {
    (0..DESIGN_LOGS)
        .map(|i| {
            let (catalog, log, shape) =
                r1(seed.wrapping_mul(DESIGN_LOGS).wrapping_add(i), DESIGN_SCALE);
            LogInput::write(
                dir,
                &format!("design{i}"),
                catalog_json(&catalog),
                log,
                shape,
            )
        })
        .collect()
}

/// One serve `design` frame.
pub struct Frame {
    pub tenant: String,
    pub request: DesignRequest,
    /// The NDJSON line (without its newline).
    pub line: String,
    /// The same catalog as pretty JSON, for the catalog probes.
    pub catalog_text: String,
    pub shape: SchemaShape,
}

/// The `serve-design` input: one frame per entry of [`FRAME_LOG_BYTES`],
/// each for its own tenant, listed in submission order.
pub fn serve_frames(seed: u64) -> Vec<Frame> {
    FRAME_ORDER
        .iter()
        .map(|&k| {
            frame(
                seed.wrapping_mul(FRAME_LOG_BYTES.len() as u64)
                    .wrapping_add(k as u64),
                k,
            )
        })
        .collect()
}

/// The frame every `serve-design` set-up sends: the smallest frame size,
/// from a fixed seed. A design's cost moves with the log's content, so a
/// seeded frame would make set-up time differ between seeds by more than
/// it differs between programs.
pub fn warmup_frame() -> Frame {
    frame(0, 0)
}

/// The frame of size [`FRAME_LOG_BYTES`]`[k]` for tenant `k`.
fn frame(frame_seed: u64, k: usize) -> Frame {
    let (catalog, log, shape) = r1_sized(frame_seed, FRAME_LOG_BYTES[k]);
    let tenant = format!("tenant{k}");
    let request = DesignRequest::new(tenant.clone(), catalog.to_value(), log);
    Frame {
        line: design_line(&request),
        tenant,
        request,
        catalog_text: catalog_json(&catalog),
        shape,
    }
}

/// Distinct seeded tapes per `ingest-stream` run (as for
/// [`DESIGN_LOGS`], so a run measures more than one draw).
pub const INGEST_TAPES: u64 = 32;

/// One `ingest-stream` input: a drift-scripted log tape.
pub struct TapeInput {
    pub log: LogInput,
    /// `--window`: the tape's window length in arrivals.
    pub window: usize,
    /// Log seconds per window (windows are count- and time-aligned).
    pub window_secs: u64,
    /// `--gamma`: the tape's suggested Γ.
    pub gamma: f64,
    /// Windows at which the tape switches regime; a trigger must fire at
    /// exactly these.
    pub episodes: Vec<u64>,
}

/// Tape shape: 40 windows of 512 arrivals over 48 statements per regime,
/// and six scripted drift episodes. One op streams ~1.4 MB and runs six
/// redesigns, ~90 ms in all: long enough that a scheduling stall of a few
/// milliseconds does not decide its latency.
fn tape_config(seed: u64) -> LogTapeConfig {
    LogTapeConfig {
        seed,
        tables: 7,
        cols_per_table: 8,
        windows: 40,
        window_len: 512,
        window_secs: 3_600,
        episodes: vec![4, 10, 16, 22, 28, 34],
        statements_per_regime: 48,
        header_noise: true,
    }
}

/// The `ingest-stream` input: [`INGEST_TAPES`] tapes.
pub fn ingest_stream(seed: u64, dir: &Path) -> Result<Vec<TapeInput>, String> {
    (0..INGEST_TAPES)
        .map(|i| {
            let config = tape_config(seed.wrapping_mul(INGEST_TAPES).wrapping_add(i));
            let (catalog, tape) = ingest_fixture(config.clone());
            let shape = SchemaShape::new(vec![config.cols_per_table as u32; config.tables]);
            let text = tape.text().to_string();
            let log = LogInput::write(
                dir,
                &format!("ingest{i}"),
                catalog_json(&catalog),
                text,
                shape,
            )?;
            Ok(TapeInput {
                log,
                window: config.window_len,
                window_secs: config.window_secs,
                gamma: tape.suggested_gamma(),
                episodes: tape.episodes().iter().map(|&e| e as u64).collect(),
            })
        })
        .collect()
}
