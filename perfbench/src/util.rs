//! Seeded inputs and small statistics shared by every workload.

use mips_data::synth::{synth_model, SynthConfig};
use mips_data::MfModel;
use std::sync::Arc;

/// SplitMix64: a tiny deterministic generator, so the same `--seed` gives
/// the same inputs on every host.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn gaussian(&mut self) -> f64 {
        let u1 = self.unit().max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }

    /// `n` distinct values from `0..range`, sorted.
    pub fn sample(&mut self, range: usize, n: usize) -> Vec<usize> {
        let mut p = self.permutation(range);
        p.truncate(n.min(range));
        p.sort_unstable();
        p
    }
}

/// Derives an independent stream from the run seed and a label.
pub fn sub_seed(seed: u64, label: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ seed;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// Zipf(s) over ranks `0..n`, sampled by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn rank(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A model family of the catalog: its Table-I base shape and the synthetic
/// knobs `mips_data::catalog` gives it (copied here because the catalog
/// keeps them private and fixes the seed per family; the benchmark needs
/// the seed to come from `--seed`).
#[derive(Clone, Copy)]
pub struct Family {
    pub name: &'static str,
    pub base_users: usize,
    pub base_items: usize,
    pub f: usize,
    pub user_clusters: usize,
    pub user_spread: f64,
    pub item_norm_skew: f64,
    pub spectral_decay: f64,
}

pub const NETFLIX_BPR: Family = Family {
    name: "Netflix-BPR",
    base_users: 3600,
    base_items: 1300,
    f: 50,
    user_clusters: 6,
    user_spread: 1.30,
    item_norm_skew: 0.08,
    spectral_decay: 1.00,
};

pub const R2_NOMAD: Family = Family {
    name: "R2-NOMAD",
    base_users: 5200,
    base_items: 1500,
    f: 50,
    user_clusters: 12,
    user_spread: 0.22,
    item_norm_skew: 1.05,
    spectral_decay: 0.94,
};

pub const NETFLIX_DSGD: Family = Family {
    name: "Netflix-DSGD",
    base_users: 3600,
    base_items: 1300,
    f: 50,
    user_clusters: 10,
    user_spread: 0.65,
    item_norm_skew: 0.30,
    spectral_decay: 0.97,
};

impl Family {
    /// The stand-in model for `seed`, as a retrained model arriving in
    /// memory would be.
    pub fn model(&self, scale: usize, seed: u64) -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: self.base_users * scale,
            num_items: self.base_items * scale,
            num_factors: self.f,
            seed: sub_seed(seed, self.name),
            user_clusters: self.user_clusters,
            user_spread: self.user_spread,
            item_norm_skew: self.item_norm_skew,
            spectral_decay: self.spectral_decay,
        }))
    }
}

/// Linear-interpolated quantile of unsorted samples (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Resets the process's peak resident set (`VmHWM`) to its current size,
/// so the next [`peak_rss_mb`] reads the peak of one round or epoch; false
/// where the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn schedstat_seconds(task: &std::path::Path) -> f64 {
    std::fs::read_to_string(task.join("schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// CPU seconds used so far by this process's live threads whose name
/// starts with `prefix` (from `/proc/self/task/*/schedstat`); 0 where that
/// is unavailable.
pub fn thread_cpu_seconds(prefix: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .map(|task| task.path())
        .filter(|path| {
            std::fs::read_to_string(path.join("comm"))
                .is_ok_and(|comm| comm.trim_end().starts_with(prefix))
        })
        .map(|path| schedstat_seconds(&path))
        .sum()
}

/// A factor row nudged by seeded noise: a fresh embedding near a known user.
pub fn perturbed_row(model: &MfModel, user: usize, rng: &mut Rng) -> Vec<f64> {
    model
        .users()
        .row(user)
        .iter()
        .map(|&x| x * (1.0 + 0.05 * rng.gaussian()) + 0.01 * rng.gaussian())
        .collect()
}
