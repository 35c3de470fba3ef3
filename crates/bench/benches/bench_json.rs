//! Machine-readable perf digest: writes `<bench>.json` (BENCH_2) at the
//! workspace root so future PRs have a trajectory to diff against; the
//! header records scale, kernel, git sha, and host threads so digests are
//! comparable across PRs and machines.
//!
//! Two sections:
//!
//! * `results` — end-to-end serve seconds for every Fig. 5 strategy at every
//!   paper `k`, per Table I dataset stand-in, with the active SIMD kernel
//!   name on every row. The scan strategies (BMM, MAXIMUS, LEMP) get one
//!   row per numeric-path mode — `f64`, `i8-rescore` (int8 screen + exact
//!   f64 rescore), and `auto` (OPTIMUS prices the two modes against each
//!   other) — and
//!   `precision` is part of every row's gate identity, so a mode cannot
//!   regress behind another mode's back and `auto` rows guard the
//!   planner's choice staying no worse than `f64`.
//! * `bmm_fusion_vs_seed_scalar` — the ISSUE-2 acceptance measurement: the
//!   fused SIMD BMM path against a faithful replay of the seed pipeline
//!   (fresh `batch × n` score buffer, scalar micro-kernels, separate top-k
//!   pass), per dataset and `k`, with the speedup ratio.
//!
//! A fifth "dataset" — `SparseSynth`, a ≥99%-sparse synthetic catalog — adds
//! the sparse bench family: the inverted-index backend against brute force
//! on the workload it exists for, with the same gate identity as every other
//! row.
//!
//! `MIPS_SCALE` scales the models (CI smoke uses 0.05); `MIPS_BENCH_OUT`
//! overrides the output path.

use mips_bench::{
    backend_precisions, bench_out_path, bmm_backend, bmm_fusion_sample, build_model,
    figure5_backends, fmt_secs, geo_mean, render_bench_json, scale, single_backend_engine_at,
    sparse_backend, BenchBackend, BenchMeta, BenchRecord, FusionRecord, Table, PAPER_KS,
};
use mips_core::engine::QueryRequest;
use mips_data::catalog::reference_models;
use mips_data::sparse::{synth_sparse_model, SparseSynthConfig};
use mips_data::MfModel;
use mips_sparse::SparseConfig;
use std::sync::Arc;

/// End-to-end rows for one backend on one dataset stand-in: one row per
/// numeric-path mode per k. All of one backend's mode engines are built up
/// front and their repeats interleaved per k, so the modes share process
/// state — scheduler noise bursts and allocator layout hit every mode's
/// measurement alike instead of biasing whichever block they land in, which
/// is what makes the f32-vs-f64 and auto-vs-f64 ratios meaningful at
/// sub-millisecond row durations.
fn backend_rows(
    dataset: &str,
    backend: &BenchBackend,
    model: &Arc<MfModel>,
    ks: &[usize],
    table: &mut Table,
    records: &mut Vec<BenchRecord>,
) {
    let engines: Vec<_> = backend_precisions(backend)
        .into_iter()
        .map(|precision| {
            (
                precision,
                single_backend_engine_at(backend, model, precision),
            )
        })
        .collect();
    for &k in ks {
        // Adaptive best-of: sub-millisecond rows (tiny CI scale) repeat up
        // to 201 times inside a 0.25s-per-mode budget so the digest is
        // stable enough for the 1.5x regression gate even on a
        // single-threaded noisy host — the min only escapes a scheduler
        // noise burst when the repeat window outlasts the burst.
        // Seconds-scale rows (full scale) run once.
        let request = QueryRequest::top_k(k);
        let mut best = vec![f64::INFINITY; engines.len()];
        let mut spent = vec![0.0; engines.len()];
        let mut runs = 0;
        while runs == 0 || (runs < 201 && spent.iter().all(|&s| s < 0.25)) {
            for (slot, (precision, engine)) in engines.iter().enumerate() {
                // Named dispatch under f64/i8-rescore pins the row to this
                // backend's direct/screened solver; under auto the
                // precision decision belongs to the planner, so the row
                // goes through planned dispatch (the engine holds only
                // this backend, so the plan chooses between its f64 build
                // and its +i8 screen variant — exactly the choice the row
                // guards).
                let response = if *precision == mips_core::precision::Precision::Auto {
                    engine.execute(&request).expect("valid bench request")
                } else {
                    engine
                        .execute_with(backend.key, &request)
                        .expect("valid bench request")
                };
                assert_eq!(response.results.len(), model.num_users());
                best[slot] = best[slot].min(response.serve_seconds);
                spent[slot] += response.serve_seconds;
            }
            runs += 1;
        }
        for (slot, (precision, engine)) in engines.iter().enumerate() {
            table.row(vec![
                dataset.to_string(),
                backend.name.to_string(),
                precision.as_str().to_string(),
                k.to_string(),
                fmt_secs(best[slot]),
                String::new(),
            ]);
            records.push(BenchRecord {
                dataset: dataset.to_string(),
                strategy: backend.name.to_string(),
                precision: precision.as_str().to_string(),
                k,
                build_seconds: engine
                    .solver(backend.key)
                    .expect("solver builds")
                    .build_seconds(),
                serve_seconds: best[slot],
            });
        }
    }
}

fn main() {
    let meta = BenchMeta::collect("BENCH_2");
    println!(
        "== {}.json digest (scale {}, kernel {}, sha {}, {} host threads) ==\n",
        meta.bench, meta.scale, meta.kernel, meta.git_sha, meta.host_threads
    );

    let mut records: Vec<BenchRecord> = Vec::new();
    let mut fusion: Vec<FusionRecord> = Vec::new();
    let mut table = Table::new(&["dataset", "strategy", "precision", "k", "serve", "note"]);

    for dataset in ["Netflix", "KDD", "R2", "GloVe"] {
        let spec = reference_models()
            .into_iter()
            .find(|s| s.dataset == dataset)
            .expect("family present");
        let model = build_model(&spec);
        // At tiny MIPS_SCALE a stand-in can hold fewer items than the
        // largest paper k; skip those rows rather than crash the smoke run.
        let ks: Vec<usize> = PAPER_KS
            .iter()
            .copied()
            .filter(|&k| k <= model.num_items())
            .collect();

        // End-to-end rows: build each backend once per numeric-path mode,
        // serve at every k. The scan backends get f64, i8-rescore, and
        // auto rows; FEXIPRO stays f64-direct (see
        // `backend_precisions`).
        for backend in figure5_backends(&spec, &model) {
            backend_rows(dataset, &backend, &model, &ks, &mut table, &mut records);
        }

        // Fusion acceptance rows: fused SIMD vs seed scalar; more repeats
        // at tiny scale where a single pass is noise-dominated.
        let fusion_runs = if scale() < 0.5 { 4 } else { 2 };
        for &k in &ks {
            let sample = bmm_fusion_sample(&model, k, fusion_runs);
            table.row(vec![
                dataset.to_string(),
                "BMM fused vs seed".to_string(),
                "f64".to_string(),
                k.to_string(),
                fmt_secs(sample.fused_seconds),
                format!(
                    "seed {} ({:.2}x)",
                    fmt_secs(sample.seed_scalar_seconds),
                    sample.speedup()
                ),
            ]);
            fusion.push(FusionRecord {
                dataset: dataset.to_string(),
                k,
                sample,
            });
        }
    }

    // Sparse bench family: the inverted-index backend vs brute force on a
    // ≥99%-sparse synthetic catalog (the workload OPTIMUS's sparse prior
    // routes to the index). Sizes scale with MIPS_SCALE like every other
    // stand-in; rows share the gate identity scheme, so the sparse path
    // cannot regress behind the dense rows' back.
    {
        let s = scale();
        let model = Arc::new(synth_sparse_model(&SparseSynthConfig {
            num_users: ((800.0 * s) as usize).max(16),
            num_items: ((2000.0 * s) as usize).max(32),
            ..SparseSynthConfig::default()
        }));
        let ks: Vec<usize> = PAPER_KS
            .iter()
            .copied()
            .filter(|&k| k <= model.num_items())
            .collect();
        for backend in [bmm_backend(), sparse_backend(SparseConfig::default())] {
            backend_rows(
                "SparseSynth",
                &backend,
                &model,
                &ks,
                &mut table,
                &mut records,
            );
        }
    }

    table.print();

    let json = render_bench_json(&meta, &records, &fusion);
    let path = bench_out_path(&meta);
    std::fs::write(&path, json).expect("write bench digest");
    let worst = fusion
        .iter()
        .map(|f| f.sample.speedup())
        .fold(f64::INFINITY, f64::min);
    let geo = mips_bench::geo_mean(
        &fusion
            .iter()
            .map(|f| f.sample.speedup())
            .collect::<Vec<_>>(),
    );
    println!(
        "\nwrote {} — fused-vs-seed speedup: min {:.2}x, geo-mean {:.2}x",
        path.display(),
        worst,
        geo
    );

    // Mixed-precision roll-up: per scan strategy, how the i8 screen and
    // the auto planner compare against f64-direct across datasets and ks
    // (read at scale 1; no auto row should be slower than its f64 twin
    // beyond noise).
    let at = |strategy: &str, precision: &str, dataset: &str, k: usize| -> Option<f64> {
        records
            .iter()
            .find(|r| {
                r.strategy == strategy
                    && r.precision == precision
                    && r.dataset == dataset
                    && r.k == k
            })
            .map(|r| r.serve_seconds)
    };
    for strategy in ["Blocked MM", "Maximus", "LEMP"] {
        let mut i8_ratios = Vec::new();
        let mut auto_worst = f64::INFINITY;
        for r in records
            .iter()
            .filter(|r| r.strategy == strategy && r.precision == "f64")
        {
            if let Some(i8_secs) = at(strategy, "i8-rescore", &r.dataset, r.k) {
                i8_ratios.push(r.serve_seconds / i8_secs);
            }
            if let Some(auto_secs) = at(strategy, "auto", &r.dataset, r.k) {
                auto_worst = auto_worst.min(r.serve_seconds / auto_secs);
            }
        }
        if !i8_ratios.is_empty() {
            let best = i8_ratios.iter().cloned().fold(0.0f64, f64::max);
            println!(
                "{strategy}: i8 screen vs f64 — best {:.2}x, geo-mean {:.2}x; auto vs f64 worst {:.2}x",
                best,
                geo_mean(&i8_ratios),
                auto_worst
            );
        }
    }
}
