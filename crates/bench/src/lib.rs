//! Shared harness for the paper-reproduction benches.
//!
//! Every table and figure of the paper's evaluation (§V) has a `harness =
//! false` bench target in `benches/` that prints the same rows or series the
//! paper reports. This library provides the pieces they share: scaled model
//! construction, the per-dataset MAXIMUS blocking factor, wall-clock timing,
//! and plain-text table printing.
//!
//! ## Scale
//!
//! Models are generated at roughly 1/100 of Table I's sizes so the whole
//! suite runs in minutes; set `MIPS_SCALE` to grow or shrink everything
//! (e.g. `MIPS_SCALE=2 cargo bench -p mips-bench`). Absolute seconds shift
//! with scale and host, but the comparisons the paper draws — who wins,
//! by roughly what factor, where the crossovers sit — are scale-stable;
//! `EXPERIMENTS.md` records a paper-vs-measured digest for each experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use mips_core::bmm::BmmSolver;
use mips_core::engine::{
    BmmFactory, Engine, EngineBuilder, FexiproFactory, LempFactory, MaximusFactory, QueryRequest,
    SolverFactory, SparseFactory,
};
use mips_core::maximus::MaximusConfig;
use mips_core::precision::{Precision, ScanTier};
use mips_core::serve::JsonWriter;
use mips_core::solver::MipsSolver;
use mips_data::catalog::ModelSpec;
use mips_data::{MfModel, ModelView};
use mips_lemp::LempConfig;
use mips_linalg::simd::Kernel;
use mips_linalg::{gemm_nt_blocked_with, BlockSizes, CacheConfig};
use mips_sparse::SparseConfig;
use mips_topk::rows_topk;
use std::sync::Arc;
use std::time::Instant;

/// The `K` values the paper evaluates throughout (Fig. 2, Fig. 5, Table II).
pub const PAPER_KS: [usize; 4] = [1, 5, 10, 50];

/// The benchmark scale factor from `MIPS_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("MIPS_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v > 0.0)
        .unwrap_or(1.0)
}

/// Builds a catalog model at the configured scale.
pub fn build_model(spec: &ModelSpec) -> Arc<MfModel> {
    Arc::new(spec.build(scale()))
}

/// The MAXIMUS configuration for a model: the paper's defaults with the
/// blocking factor scaled to the stand-in's catalog size (see
/// [`ModelSpec::scaled_block_size`]).
pub fn maximus_config(spec: &ModelSpec, model: &MfModel) -> MaximusConfig {
    MaximusConfig {
        block_size: spec.scaled_block_size(model.num_items()),
        ..MaximusConfig::default()
    }
}

/// A backend the figure benches time: the display name the paper's legends
/// use, the engine's registry key, and the factory that builds it.
#[derive(Clone)]
pub struct BenchBackend {
    /// Display name (`"Blocked MM"`, `"Maximus"`, `"LEMP"`, …).
    pub name: &'static str,
    /// Registry key (`"bmm"`, `"maximus"`, `"lemp"`, …).
    pub key: &'static str,
    /// The factory registered under [`BenchBackend::key`].
    pub factory: Arc<dyn SolverFactory>,
}

impl std::fmt::Debug for BenchBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenchBackend")
            .field("name", &self.name)
            .field("key", &self.key)
            .finish()
    }
}

/// The brute-force baseline as a bench backend.
pub fn bmm_backend() -> BenchBackend {
    BenchBackend {
        name: "Blocked MM",
        key: "bmm",
        factory: Arc::new(BmmFactory),
    }
}

/// The inverted-index sparse backend as a bench backend (the sparse bench
/// family rows).
pub fn sparse_backend(config: SparseConfig) -> BenchBackend {
    BenchBackend {
        name: "Sparse-II",
        key: "sparse",
        factory: Arc::new(SparseFactory::new(config)),
    }
}

/// The five backends of Fig. 5, in its legend order.
pub fn figure5_backends(spec: &ModelSpec, model: &MfModel) -> Vec<BenchBackend> {
    vec![
        bmm_backend(),
        BenchBackend {
            name: "Maximus",
            key: "maximus",
            factory: Arc::new(MaximusFactory::new(maximus_config(spec, model))),
        },
        BenchBackend {
            name: "LEMP",
            key: "lemp",
            factory: Arc::new(LempFactory::new(LempConfig::default())),
        },
        BenchBackend {
            name: "FEXIPRO-SIR",
            key: "fexipro-sir",
            factory: Arc::new(FexiproFactory::sir()),
        },
        BenchBackend {
            name: "FEXIPRO-SI",
            key: "fexipro-si",
            factory: Arc::new(FexiproFactory::si()),
        },
    ]
}

/// Wall-clock seconds of one invocation.
pub fn time_seconds<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let value = f();
    (start.elapsed().as_secs_f64(), value)
}

/// An engine serving exactly one backend (the unit the figure benches
/// time): the backend's factory registered under its key, threads = 1.
pub fn single_backend_engine(backend: &BenchBackend, model: &Arc<MfModel>) -> Engine {
    single_backend_engine_at(backend, model, Precision::F64)
}

/// [`single_backend_engine`] with an explicit numeric-path mode — the unit
/// the mixed-precision bench rows time. Results are bit-identical across
/// modes; only the serve seconds may move.
pub fn single_backend_engine_at(
    backend: &BenchBackend,
    model: &Arc<MfModel>,
    precision: Precision,
) -> Engine {
    EngineBuilder::new()
        .model(Arc::clone(model))
        .register_arc(Arc::clone(&backend.factory))
        .precision(precision)
        .build()
        .expect("bench engine assembles")
}

/// The numeric-path modes a backend gets bench rows for: the scan
/// backends (BMM, MAXIMUS, LEMP) carry an int8 screen and compete under
/// `Auto`; FEXIPRO's integer pipeline and the sparse inverted index
/// are f64-direct only, so extra modes would just duplicate their rows.
pub fn backend_precisions(backend: &BenchBackend) -> Vec<Precision> {
    match backend.key {
        "bmm" | "maximus" | "lemp" => {
            vec![Precision::F64, Precision::I8Rescore, Precision::Auto]
        }
        _ => vec![Precision::F64],
    }
}

/// End-to-end seconds (build + serve-all) for one backend, as Fig. 5
/// measures it. Serving is dispatched through the engine facade.
pub fn end_to_end_seconds(backend: &BenchBackend, model: &Arc<MfModel>, k: usize) -> f64 {
    let engine = single_backend_engine(backend, model);
    let response = engine
        .execute_with(backend.key, &QueryRequest::top_k(k))
        .expect("valid bench request");
    assert_eq!(response.results.len(), model.num_users());
    let build_seconds = engine
        .solver(backend.key)
        .expect("solver was built")
        .build_seconds();
    build_seconds + response.serve_seconds
}

/// One engine-overhead measurement: serve-all seconds through the
/// [`Engine`] facade vs. the same solver called directly.
#[derive(Debug, Clone, Copy)]
pub struct OverheadSample {
    /// Seconds through `Engine::execute_with` (request validation +
    /// dispatch + response assembly included).
    pub engine_seconds: f64,
    /// Seconds calling `MipsSolver::query_all` on the identical solver.
    pub direct_seconds: f64,
}

impl OverheadSample {
    /// Engine seconds over direct seconds (1.0 = free facade).
    pub fn ratio(&self) -> f64 {
        if self.direct_seconds > 0.0 {
            self.engine_seconds / self.direct_seconds
        } else {
            1.0
        }
    }
}

/// Times `Engine` dispatch against direct `MipsSolver` calls on the same
/// built solver, taking the median of `runs` serve-all passes for each
/// path. The facade's per-batch cost (validation, lock on the solver
/// cache, response assembly) should vanish next to the multiply itself.
pub fn engine_overhead(
    backend: &BenchBackend,
    model: &Arc<MfModel>,
    k: usize,
    runs: usize,
) -> OverheadSample {
    assert!(runs >= 1, "engine_overhead: runs must be >= 1");
    let engine = single_backend_engine(backend, model);
    let request = QueryRequest::top_k(k);
    // Build once up front so neither path pays construction.
    let solver = engine.solver(backend.key).expect("solver builds");

    let median = |samples: &mut Vec<f64>| -> f64 {
        samples.sort_by(|a, b| a.total_cmp(b));
        samples[samples.len() / 2]
    };

    let mut engine_runs: Vec<f64> = (0..runs)
        .map(|_| {
            let (t, response) = time_seconds(|| {
                engine
                    .execute_with(backend.key, &request)
                    .expect("valid bench request")
            });
            assert_eq!(response.results.len(), model.num_users());
            t
        })
        .collect();
    let mut direct_runs: Vec<f64> = (0..runs)
        .map(|_| {
            let (t, results) = time_seconds(|| solver.query_all(k));
            assert_eq!(results.len(), model.num_users());
            t
        })
        .collect();
    OverheadSample {
        engine_seconds: median(&mut engine_runs),
        direct_seconds: median(&mut direct_runs),
    }
}

/// The name of the process-wide active SIMD kernel set
/// (`"avx2-fma"`, `"neon"`, or `"scalar"`); recorded in every machine-
/// readable bench row so perf trajectories across PRs compare like with
/// like.
pub fn kernel_name() -> &'static str {
    mips_linalg::simd::active().name()
}

/// One fused-vs-seed BMM measurement (the ISSUE-2 acceptance quantity).
#[derive(Debug, Clone, Copy)]
pub struct FusionSample {
    /// Serve-all seconds on the fused GEMM→top-k path under the active
    /// (dispatched) kernel set.
    pub fused_seconds: f64,
    /// Serve-all seconds replaying the seed pipeline: full `batch × n`
    /// score buffer through the **scalar** micro-kernels, then a separate
    /// `rows_topk` pass — byte-for-byte the pre-SIMD serve loop.
    pub seed_scalar_seconds: f64,
}

impl FusionSample {
    /// Seed seconds over fused seconds (> 1 means the fused path wins).
    pub fn speedup(&self) -> f64 {
        if self.fused_seconds > 0.0 {
            self.seed_scalar_seconds / self.fused_seconds
        } else {
            f64::INFINITY
        }
    }
}

/// Times the fused SIMD BMM path against the seed scalar path on one model,
/// taking the best of `runs` serve-all passes for each (best-of tames
/// scheduler noise on shared hosts; both paths get identical treatment).
///
/// Both paths use the same batch geometry, so the ratio isolates
/// fusion + SIMD dispatch — exactly the constant factor this PR claims.
pub fn bmm_fusion_sample(model: &Arc<MfModel>, k: usize, runs: usize) -> FusionSample {
    assert!(runs >= 1, "bmm_fusion_sample: runs must be >= 1");
    let solver = BmmSolver::build(&ModelView::full(model), ScanTier::F64);
    let batch = solver.batch_rows();
    let n = model.num_items();
    let scalar = Kernel::scalar();
    let blocks = BlockSizes::for_scalar::<f64>(&CacheConfig::default());

    let best = |mut f: Box<dyn FnMut() -> usize>| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let t = Instant::now();
            let lists = f();
            best = best.min(t.elapsed().as_secs_f64());
            assert_eq!(lists, model.num_users());
        }
        best
    };

    let fused_seconds = best(Box::new(|| solver.query_all(k).len()));

    let users = model.users();
    let items = model.items();
    let seed_scalar_seconds = best(Box::new(move || {
        // The seed serve loop: fresh score buffer per batch, scalar GEMM,
        // separate top-k scan.
        let mut served = 0usize;
        let mut start = 0usize;
        while start < users.rows() {
            let end = (start + batch).min(users.rows());
            let rows = end - start;
            let mut scores = vec![0.0f64; rows * n];
            gemm_nt_blocked_with(
                &scalar,
                users.row_block(start, end),
                items.into(),
                &mut scores,
                &blocks,
            );
            served += rows_topk(&scores, rows, n, k).len();
            start = end;
        }
        served
    }));

    FusionSample {
        fused_seconds,
        seed_scalar_seconds,
    }
}

/// One machine-readable bench row: a strategy served end to end on a
/// dataset stand-in at one `k`.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Dataset family (`"Netflix"`, `"KDD"`, `"R2"`, `"GloVe"`).
    pub dataset: String,
    /// Strategy display name.
    pub strategy: String,
    /// Numeric-path mode (`"f64"`, `"i8-rescore"`, `"auto"`) — part of the
    /// row's gate identity, so a precision mode cannot regress behind
    /// another mode's back.
    pub precision: String,
    /// Top-k size.
    pub k: usize,
    /// Index construction seconds (once per strategy, repeated per row).
    pub build_seconds: f64,
    /// Serve-all seconds at this `k`.
    pub serve_seconds: f64,
}

/// One fusion-speedup row for the JSON digest.
#[derive(Debug, Clone)]
pub struct FusionRecord {
    /// Dataset family.
    pub dataset: String,
    /// Top-k size.
    pub k: usize,
    /// The measurement.
    pub sample: FusionSample,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Run metadata stamped into every machine-readable bench digest, so
/// BENCH_* files are comparable across PRs: which bench produced it, at
/// what scale, under which kernel, from which commit, on how many cores.
#[derive(Debug, Clone)]
pub struct BenchMeta {
    /// The digest's name (`"BENCH_2"`, `"BENCH_3"`, …) — also the default
    /// output file stem, so benches never hardcode each other's paths.
    pub bench: String,
    /// The `MIPS_SCALE` the models were built at.
    pub scale: f64,
    /// Active SIMD kernel set name.
    pub kernel: String,
    /// `git rev-parse --short HEAD` at run time (`"unknown"` outside a
    /// checkout).
    pub git_sha: String,
    /// `std::thread::available_parallelism()` on the host.
    pub host_threads: usize,
}

impl BenchMeta {
    /// Collects the metadata for the named bench at the current scale.
    pub fn collect(bench: &str) -> BenchMeta {
        BenchMeta {
            bench: bench.to_string(),
            scale: scale(),
            kernel: kernel_name().to_string(),
            git_sha: git_short_sha(),
            host_threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }

    fn render_header(&self, out: &mut String) {
        out.push_str(&format!("  \"bench\": \"{}\",\n", json_escape(&self.bench)));
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!(
            "  \"kernel\": \"{}\",\n",
            json_escape(&self.kernel)
        ));
        out.push_str(&format!(
            "  \"git_sha\": \"{}\",\n",
            json_escape(&self.git_sha)
        ));
        out.push_str(&format!("  \"host_threads\": {},\n", self.host_threads));
    }
}

/// The short git sha of the working tree, `"unknown"` when unavailable.
pub fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders a figure-bench digest (the `BENCH_2.json` shape): run metadata,
/// the per-strategy/per-k end-to-end rows, and the fused-vs-seed BMM
/// speedups. Hand-rolled JSON keeps the harness dependency-free.
pub fn render_bench_json(
    meta: &BenchMeta,
    records: &[BenchRecord],
    fusion: &[FusionRecord],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    meta.render_header(&mut out);
    out.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"strategy\": \"{}\", \"precision\": \"{}\", \"k\": {}, \
             \"build_seconds\": {:.6}, \"serve_seconds\": {:.6}, \"kernel\": \"{}\"}}{}\n",
            json_escape(&r.dataset),
            json_escape(&r.strategy),
            json_escape(&r.precision),
            r.k,
            r.build_seconds,
            r.serve_seconds,
            json_escape(&meta.kernel),
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"bmm_fusion_vs_seed_scalar\": [\n");
    for (i, f) in fusion.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"dataset\": \"{}\", \"k\": {}, \"fused_seconds\": {:.6}, \
             \"seed_scalar_seconds\": {:.6}, \"speedup\": {:.3}}}{}\n",
            json_escape(&f.dataset),
            f.k,
            f.sample.fused_seconds,
            f.sample.seed_scalar_seconds,
            f.sample.speedup(),
            if i + 1 < fusion.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// Where a digest bench writes its output: `MIPS_BENCH_OUT` if set, else
/// `<bench>.json` at the workspace root — the name is derived from the
/// bench's own [`BenchMeta`], never hardcoded (benches run with the package
/// as cwd, so the default is anchored to the manifest).
pub fn bench_out_path(meta: &BenchMeta) -> std::path::PathBuf {
    match std::env::var("MIPS_BENCH_OUT") {
        Ok(p) if !p.is_empty() => std::path::PathBuf::from(p),
        _ => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("{}.json", meta.bench)),
    }
}

/// One serving-runtime measurement: a traffic workload pushed through a
/// [`mips_core::serve::MipsServer`] configuration.
#[derive(Debug, Clone)]
pub struct ServeRecord {
    /// Dataset family the model stands in for.
    pub dataset: String,
    /// Workload label (`"single-user"`, `"mixed"`, …).
    pub workload: String,
    /// Index scope label (`"global"`, `"per-shard"`, `"auto"`): the
    /// granularity of derived-state construction the server ran with.
    pub index_scope: String,
    /// Numeric-path mode the fronted engine ran with (`"f64"`,
    /// `"i8-rescore"`, `"auto"`); part of the row's gate identity.
    pub precision: String,
    /// Worker threads in the pool.
    pub workers: usize,
    /// User shards.
    pub shards: usize,
    /// Whether micro-batching was enabled.
    pub batching: bool,
    /// Micro-batch size cap.
    pub max_batch: usize,
    /// Deadline-flush window in microseconds (0 = adaptive only).
    pub batch_window_us: u64,
    /// Requests served.
    pub requests: u64,
    /// Model swaps the serving runtime picked up during the run (0 for
    /// steady-state workloads).
    pub swaps: u64,
    /// Mean sub-requests per solver call (1.0 = no coalescing happened).
    pub mean_batch: f64,
    /// Throughput in requests per second.
    pub requests_per_sec: f64,
    /// The gate metric: wall seconds per request (1 / throughput).
    pub seconds_per_request: f64,
    /// Median request latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency in microseconds.
    pub p99_us: f64,
}

/// Renders the serving-runtime digest (the `BENCH_3.json` shape): run
/// metadata plus one row per (dataset, workload, server config).
///
/// Rows go through the same [`JsonWriter`] the serving runtime uses for
/// its `/metrics` endpoint — one serializer, one escaping policy, one
/// number format across the wire and the digests. The digest keeps its
/// one-row-object-per-line layout, which the regression gate's minimal
/// parser depends on.
pub fn render_serve_json(meta: &BenchMeta, records: &[ServeRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    meta.render_header(&mut out);
    out.push_str("  \"serve\": [\n");
    for (i, r) in records.iter().enumerate() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("dataset", &r.dataset);
        w.field_str("workload", &r.workload);
        w.field_str("index_scope", &r.index_scope);
        w.field_str("precision", &r.precision);
        w.field_u64("workers", r.workers as u64);
        w.field_u64("shards", r.shards as u64);
        w.field_bool("batching", r.batching);
        w.field_u64("max_batch", r.max_batch as u64);
        w.field_u64("batch_window_us", r.batch_window_us);
        w.field_u64("requests", r.requests);
        w.field_u64("swaps", r.swaps);
        w.field_f64("mean_batch", r.mean_batch, 2);
        w.field_f64("requests_per_sec", r.requests_per_sec, 2);
        w.field_f64("seconds_per_request", r.seconds_per_request, 8);
        w.field_f64("p50_us", r.p50_us, 1);
        w.field_f64("p99_us", r.p99_us, 1);
        w.end_obj();
        out.push_str("    ");
        out.push_str(&w.finish());
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// A minimal fixed-width table printer for bench output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "Table: column mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}", w = w))
                .collect();
            padded.join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats seconds with three significant digits.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Mean of a slice (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0 with fewer than two values).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Geometric mean (the paper's "average speedup" aggregation).
pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mips_data::catalog::reference_models;

    #[test]
    fn scale_defaults_to_one() {
        // Cannot safely mutate the environment in tests; just check parsing
        // behaviour through the default path.
        assert!(scale() > 0.0);
    }

    #[test]
    fn maximus_config_scales_block_by_dataset() {
        let netflix = reference_models()
            .into_iter()
            .find(|s| s.dataset == "Netflix" && s.training == "DSGD" && s.f == 50)
            .unwrap();
        let kdd = reference_models()
            .into_iter()
            .find(|s| s.dataset == "KDD" && s.training == "REF")
            .unwrap();
        let nm = netflix.build(0.2);
        let km = kdd.build(0.2);
        let nb = maximus_config(&netflix, &nm).block_size;
        let kb = maximus_config(&kdd, &km).block_size;
        // Netflix's B is ~23% of its catalog, KDD's ~0.65%.
        assert!(nb as f64 / nm.num_items() as f64 > 0.15);
        assert!((kb as f64 / km.num_items() as f64) < 0.02);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].starts_with("xxxx"));
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!(
            (std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - (32.0f64 / 7.0).sqrt()).abs()
                < 1e-12
        );
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn engine_overhead_measures_both_paths() {
        use mips_data::synth::{synth_model, SynthConfig};
        let model = Arc::new(synth_model(&SynthConfig {
            num_users: 60,
            num_items: 80,
            num_factors: 8,
            ..SynthConfig::default()
        }));
        let sample = engine_overhead(&bmm_backend(), &model, 3, 3);
        assert!(sample.engine_seconds > 0.0 && sample.engine_seconds.is_finite());
        assert!(sample.direct_seconds > 0.0 && sample.direct_seconds.is_finite());
        assert!(sample.ratio() > 0.0);
    }

    #[test]
    fn end_to_end_uses_the_engine_and_stays_positive() {
        use mips_data::synth::{synth_model, SynthConfig};
        let model = Arc::new(synth_model(&SynthConfig {
            num_users: 30,
            num_items: 40,
            num_factors: 6,
            ..SynthConfig::default()
        }));
        let t = end_to_end_seconds(&bmm_backend(), &model, 2);
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.0123), "12.3ms");
        assert_eq!(fmt_secs(1.5), "1.50s");
        assert_eq!(fmt_secs(250.0), "250s");
    }
}
