//! Lock-free serving counters: per-shard throughput and latency.
//!
//! Workers record into atomics on every completed sub-request, so metrics
//! collection never contends with serving. Latencies go into a logarithmic
//! histogram (one power-of-two bucket per nanosecond magnitude), which is
//! enough resolution for the p50/p99 figures the bench reports while
//! keeping `record` to two atomic adds.

use crate::engine::IndexScope;
use crate::sync::atomic::{AtomicU64, Ordering};
use std::fmt::Write as _;
use std::ops::Range;

/// A minimal hand-rolled JSON writer: compact output, comma bookkeeping,
/// string escaping — nothing else. Shared by everything in this workspace
/// that emits JSON (the `/metrics` endpoint of `mips-net`, the bench
/// digests) so the wire format and the committed BENCH_* files come from
/// one serializer, dependency-free.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: whether it already has an element
    /// (the next one needs a comma).
    comma: Vec<bool>,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn elem(&mut self) {
        if let Some(last) = self.comma.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
        }
    }

    fn key(&mut self, key: &str) {
        self.elem();
        self.out.push('"');
        self.out.push_str(&escape_json(key));
        self.out.push_str("\":");
    }

    /// Opens an object (the root value, or an array element).
    pub fn begin_obj(&mut self) {
        self.elem();
        self.out.push('{');
        self.comma.push(false);
    }

    /// Opens an object-valued field inside the current object.
    pub fn begin_obj_field(&mut self, key: &str) {
        self.key(key);
        self.out.push('{');
        self.comma.push(false);
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        self.comma.pop();
        self.out.push('}');
    }

    /// Opens an array-valued field inside the current object.
    pub fn begin_arr_field(&mut self, key: &str) {
        self.key(key);
        self.out.push('[');
        self.comma.push(false);
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.comma.pop();
        self.out.push(']');
    }

    /// Writes a string field (escaped).
    pub fn field_str(&mut self, key: &str, value: &str) {
        self.key(key);
        self.out.push('"');
        self.out.push_str(&escape_json(value));
        self.out.push('"');
    }

    /// Writes an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) {
        self.key(key);
        let _ = write!(self.out, "{value}");
    }

    /// Writes a boolean field.
    pub fn field_bool(&mut self, key: &str, value: bool) {
        self.key(key);
        let _ = write!(self.out, "{value}");
    }

    /// Writes a float field with a fixed number of decimals (the bench
    /// digest convention: stable, diffable output).
    pub fn field_f64(&mut self, key: &str, value: f64, decimals: usize) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.out, "{value:.decimals$}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a float field at full precision: Rust's shortest
    /// round-trippable decimal form, so `str::parse::<f64>` on the other
    /// end recovers the exact bits (the wire contract for scores).
    pub fn field_f64_shortest(&mut self, key: &str, value: f64) {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a field whose value is pre-rendered JSON (for composing
    /// sub-documents rendered elsewhere).
    pub fn field_raw(&mut self, key: &str, raw_json: &str) {
        self.key(key);
        self.out.push_str(raw_json);
    }

    /// Writes a bare float array element at full precision.
    pub fn push_f64_shortest(&mut self, value: f64) {
        self.elem();
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a bare unsigned-integer array element.
    pub fn push_u64(&mut self, value: u64) {
        self.elem();
        let _ = write!(self.out, "{value}");
    }

    /// The rendered JSON.
    pub fn finish(self) -> String {
        debug_assert!(self.comma.is_empty(), "unbalanced JSON containers");
        self.out
    }
}

/// Escapes a string for inclusion in a JSON string literal: quotes,
/// backslashes, and all control characters below 0x20.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Number of power-of-two latency buckets (2^0 ns .. 2^63 ns).
const BUCKETS: usize = 64;

/// A concurrent log2 latency histogram.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` nanoseconds; quantiles are
/// read back with geometric interpolation inside the winning bucket, so the
/// reported p50/p99 carry at most a factor-of-√2 bucketing error — plenty
/// for regression tracking across PRs.
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// A histogram with all buckets empty.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record_ns(&self, ns: u64) {
        let idx = (63 - ns.max(1).leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Snapshots the histogram into plain numbers.
    pub fn snapshot(&self) -> LatencySnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        LatencySnapshot {
            count,
            mean_us: if count == 0 {
                0.0
            } else {
                self.sum_ns.load(Ordering::Relaxed) as f64 / count as f64 / 1e3
            },
            p50_us: quantile_us(&counts, 0.50),
            p99_us: quantile_us(&counts, 0.99),
            max_us: self.max_ns.load(Ordering::Relaxed) as f64 / 1e3,
        }
    }
}

/// The quantile `q` of a bucketed sample, in microseconds.
///
/// The total is derived from the bucket counts themselves (not the
/// histogram's separate `count` atomic): a concurrent `record_ns` between
/// the two loads could otherwise make the rank exceed the bucket sum and
/// the scan walk off the end.
fn quantile_us(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Rank of the sample we are after (1-based, clamped into range).
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= rank {
            // Interpolate geometrically inside bucket [2^i, 2^(i+1)):
            // rank fraction `within` maps to `low * 2^within`, so the
            // reported quantile moves multiplicatively through the bucket,
            // matching the histogram's own logarithmic spacing (linear
            // interpolation would bias the low half of every bucket).
            let within = (rank - seen) as f64 / c as f64;
            let low = (1u64 << i) as f64;
            return low * within.exp2() / 1e3;
        }
        seen += c;
    }
    unreachable!("rank is clamped to the bucket sum")
}

/// Plain-number view of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency in microseconds.
    pub mean_us: f64,
    /// Median latency in microseconds (log-bucket resolution).
    pub p50_us: f64,
    /// 99th-percentile latency in microseconds (log-bucket resolution).
    pub p99_us: f64,
    /// Largest single latency in microseconds.
    pub max_us: f64,
}

impl LatencySnapshot {
    /// Writes this snapshot as a JSON object field into `w`.
    pub fn write_json(&self, w: &mut JsonWriter, key: &str) {
        w.begin_obj_field(key);
        w.field_u64("count", self.count);
        w.field_f64("mean_us", self.mean_us, 3);
        w.field_f64("p50_us", self.p50_us, 3);
        w.field_f64("p99_us", self.p99_us, 3);
        w.field_f64("max_us", self.max_us, 3);
        w.end_obj();
    }
}

/// One shard's serving counters, updated lock-free by the worker pool.
#[derive(Default)]
pub struct ShardCounters {
    /// Sub-requests routed to this shard.
    pub(crate) submitted: AtomicU64,
    /// Sub-requests completed (success or failure).
    pub(crate) completed: AtomicU64,
    /// Solver invocations (a micro-batch counts once).
    pub(crate) batches: AtomicU64,
    /// Solver invocations served through an int8-screen plan —
    /// `batches - i8_batches` ran f64-direct.
    pub(crate) i8_batches: AtomicU64,
    /// Scores the int8 screen evaluated across this shard's batches.
    pub(crate) screen_candidates_i8: AtomicU64,
    /// Of those, candidates surviving to the exact f64 rescore.
    pub(crate) screen_survivors_i8: AtomicU64,
    /// Sub-requests that shared their solver invocation with at least one
    /// other sub-request (i.e. were actually coalesced).
    pub(crate) coalesced: AtomicU64,
    /// Individual user top-k lists produced.
    pub(crate) users_served: AtomicU64,
    /// Nanoseconds spent inside solver calls for this shard.
    pub(crate) busy_ns: AtomicU64,
    /// Shard-local index builds this shard's planning performed
    /// (`PerShard`/`Auto` scopes; 0 under `Global`).
    pub(crate) local_index_builds: AtomicU64,
    /// Nanoseconds spent inside those shard-local builds.
    pub(crate) local_build_ns: AtomicU64,
    /// Sub-request latency, submission to completion.
    pub(crate) latency: LatencyHistogram,
}

impl ShardCounters {
    pub fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Snapshots the counters for shard `shard` covering `users`, serving
    /// under `index_scope`.
    pub(crate) fn snapshot(
        &self,
        shard: usize,
        users: Range<usize>,
        index_scope: IndexScope,
    ) -> ShardMetrics {
        ShardMetrics {
            shard,
            users,
            index_scope,
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            i8_batches: self.i8_batches.load(Ordering::Relaxed),
            screen_candidates_i8: self.screen_candidates_i8.load(Ordering::Relaxed),
            screen_survivors_i8: self.screen_survivors_i8.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            users_served: self.users_served.load(Ordering::Relaxed),
            busy_seconds: self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9,
            local_index_builds: self.local_index_builds.load(Ordering::Relaxed),
            local_build_us: self.local_build_ns.load(Ordering::Relaxed) / 1_000,
            latency: self.latency.snapshot(),
        }
    }
}

/// Point-in-time view of one shard's counters.
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Shard index.
    pub shard: usize,
    /// The contiguous user range this shard owns.
    pub users: Range<usize>,
    /// The index scope this shard serves under (which tier of derived
    /// state its plans come from).
    pub index_scope: IndexScope,
    /// Sub-requests routed to this shard so far.
    pub submitted: u64,
    /// Sub-requests completed so far.
    pub completed: u64,
    /// Solver invocations (one per micro-batch).
    pub batches: u64,
    /// Of those, how many ran through an int8 screen + exact f64 rescore
    /// plan (`batches - i8_batches` ran f64-direct). Results are
    /// bit-identical either way; under
    /// [`crate::precision::Precision::Auto`] this shows the per-shard
    /// planner decisions in effect.
    pub i8_batches: u64,
    /// Scores the int8 screen evaluated (candidates it could have pruned)
    /// across this shard's batches.
    pub screen_candidates_i8: u64,
    /// int8-screen candidates that survived the envelope test and were
    /// rescored with an exact f64 dot; `candidates - survivors` exact dots
    /// were proven unnecessary. The survivor rate is the screen's
    /// selectivity in production traffic.
    pub screen_survivors_i8: u64,
    /// Sub-requests that were coalesced into a shared batch.
    pub coalesced: u64,
    /// User top-k lists produced.
    pub users_served: u64,
    /// Wall-clock seconds spent inside solver calls.
    pub busy_seconds: f64,
    /// Shard-local index builds performed by this shard's planning (0
    /// under [`IndexScope::Global`]; under `Auto` local candidates are
    /// built to be timed, so this also counts shards that ended up staying
    /// on the global plan).
    pub local_index_builds: u64,
    /// Microseconds of wall clock spent inside those builds.
    pub local_build_us: u64,
    /// Sub-request latency distribution (submission → completion).
    pub latency: LatencySnapshot,
}

impl ShardMetrics {
    /// Writes this shard's counters as one JSON object element into `w`
    /// (call between `begin_arr_field`/`end_arr`).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.field_u64("shard", self.shard as u64);
        w.field_raw(
            "users",
            &format!("[{},{}]", self.users.start, self.users.end),
        );
        w.field_str("index_scope", self.index_scope.as_str());
        w.field_u64("submitted", self.submitted);
        w.field_u64("completed", self.completed);
        w.field_u64("batches", self.batches);
        w.field_u64("i8_batches", self.i8_batches);
        w.field_u64("screen_candidates_i8", self.screen_candidates_i8);
        w.field_u64("screen_survivors_i8", self.screen_survivors_i8);
        w.field_u64("coalesced", self.coalesced);
        w.field_u64("users_served", self.users_served);
        w.field_f64("busy_seconds", self.busy_seconds, 6);
        w.field_u64("local_index_builds", self.local_index_builds);
        w.field_u64("local_build_us", self.local_build_us);
        self.latency.write_json(w, "latency");
        w.end_obj();
    }
}

/// Server-wide counters (request granularity, across all shards).
#[derive(Default)]
pub struct ServerCounters {
    pub(crate) submitted: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) failed: AtomicU64,
    /// Topology installs beyond the initial one: how many model swaps the
    /// serving runtime has picked up (re-sharding included).
    pub(crate) swaps: AtomicU64,
    pub(crate) latency: LatencyHistogram,
}

/// Point-in-time view of a whole [`super::MipsServer`].
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    /// Requests accepted by `submit`/`try_submit`.
    pub submitted: u64,
    /// Requests fully served (all shards reassembled).
    pub completed: u64,
    /// Requests bounced by backpressure (`try_submit` on a full queue).
    pub rejected: u64,
    /// Requests that completed with an error (worker panic, plan failure).
    pub failed: u64,
    /// The model epoch the server is currently admitting requests onto.
    /// In-flight requests may still be finishing on older epochs.
    pub epoch: u64,
    /// The configured index scope (granularity of derived-state
    /// construction; every shard of this server serves under it).
    pub index_scope: IndexScope,
    /// The engine's configured numeric mode
    /// ([`crate::precision::Precision`]). Per-plan decisions under `Auto`
    /// surface as each shard's `i8_batches` share.
    pub precision: crate::precision::Precision,
    /// Model swaps the runtime has picked up (topology rebuilds — the
    /// count of `swap_model` calls whose new epoch reached the server).
    pub swaps: u64,
    /// End-to-end request latency (submission → reassembled response).
    pub latency: LatencySnapshot,
    /// Per-shard counters, in shard order. Counters accumulate across
    /// swaps while the shard bounds are unchanged; a swap that re-shards
    /// (the user count changed) starts the per-shard counters afresh.
    pub shards: Vec<ShardMetrics>,
}

impl ServerMetrics {
    /// Total micro-batches executed across shards.
    pub fn batches(&self) -> u64 {
        self.shards.iter().map(|s| s.batches).sum()
    }

    /// Total micro-batches served through int8-screen plans.
    pub fn i8_batches(&self) -> u64 {
        self.shards.iter().map(|s| s.i8_batches).sum()
    }

    /// Always `(0, 0)`: the f32 screen tier is gone. Kept only because
    /// the `perfbench` benchmark still reads it.
    pub fn screen_f32(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Total int8-screen (candidates, survivors) across shards.
    pub fn screen_i8(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(c, s), m| {
            (c + m.screen_candidates_i8, s + m.screen_survivors_i8)
        })
    }

    /// Total sub-requests that shared a batch, across shards.
    pub fn coalesced(&self) -> u64 {
        self.shards.iter().map(|s| s.coalesced).sum()
    }

    /// Total shard-local index builds across shards (0 under
    /// [`IndexScope::Global`]).
    pub fn local_index_builds(&self) -> u64 {
        self.shards.iter().map(|s| s.local_index_builds).sum()
    }

    /// Total microseconds spent building shard-local indexes, across
    /// shards.
    pub fn local_build_us(&self) -> u64 {
        self.shards.iter().map(|s| s.local_build_us).sum()
    }

    /// Renders the whole snapshot — server counters, latency, per-shard
    /// breakdown — as one compact JSON document. This is the body of the
    /// `mips-net` `GET /metrics` endpoint and the shape bench digests
    /// embed, produced by the shared [`JsonWriter`].
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// [`ServerMetrics::to_json`], but composing into an existing writer.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.field_u64("submitted", self.submitted);
        w.field_u64("completed", self.completed);
        w.field_u64("rejected", self.rejected);
        w.field_u64("failed", self.failed);
        w.field_u64("epoch", self.epoch);
        w.field_str("index_scope", self.index_scope.as_str());
        w.field_str("precision", self.precision.as_str());
        w.field_u64("swaps", self.swaps);
        w.field_u64("batches", self.batches());
        w.field_u64("i8_batches", self.i8_batches());
        let (cand_i8, surv_i8) = self.screen_i8();
        w.field_u64("screen_candidates_i8", cand_i8);
        w.field_u64("screen_survivors_i8", surv_i8);
        w.field_u64("coalesced", self.coalesced());
        w.field_f64("mean_batch", self.mean_batch_size(), 2);
        w.field_u64("local_index_builds", self.local_index_builds());
        w.field_u64("local_build_us", self.local_build_us());
        self.latency.write_json(w, "latency");
        w.begin_arr_field("shards");
        for shard in &self.shards {
            shard.write_json(w);
        }
        w.end_arr();
        w.end_obj();
    }

    /// Mean sub-requests per solver invocation (1.0 = no coalescing).
    pub fn mean_batch_size(&self) -> f64 {
        let (sub, batches) = self
            .shards
            .iter()
            .fold((0u64, 0u64), |(s, b), m| (s + m.completed, b + m.batches));
        if batches == 0 {
            0.0
        } else {
            sub as f64 / batches as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record_ns(1_000); // ~1us
        }
        h.record_ns(1_000_000); // 1ms outlier
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        // p50 sits in the 1us bucket (512..1024ns → ~0.5-1.0us reported).
        assert!(snap.p50_us >= 0.5 && snap.p50_us <= 2.1, "{snap:?}");
        // p99 still below the outlier bucket, max catches it exactly.
        assert!(snap.p99_us <= 2.1, "{snap:?}");
        assert!((snap.max_us - 1_000.0).abs() < 1e-9);
        assert!(snap.mean_us > 1.0 && snap.mean_us < 20.0);
    }

    #[test]
    fn quantiles_interpolate_geometrically_within_a_bucket() {
        // 100 identical samples land in bucket 10 ([1024ns, 2048ns)); the
        // quantile at rank r must be exactly 1024 * 2^(r/100).
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record_ns(1_500);
        }
        let snap = h.snapshot();
        let expect = |q: f64| 1024.0 * (q).exp2() / 1e3;
        assert!((snap.p50_us - expect(0.50)).abs() < 1e-9, "{snap:?}");
        assert!((snap.p99_us - expect(0.99)).abs() < 1e-9, "{snap:?}");
        // Geometric interpolation never leaves the bucket.
        assert!(snap.p50_us >= 1.024 && snap.p50_us < 2.048);
        assert!(snap.p99_us >= 1.024 && snap.p99_us < 2.048);
    }

    #[test]
    fn quantiles_walk_to_the_correct_bucket_for_known_contents() {
        // 90 samples in bucket 9 ([512, 1024)), 10 in bucket 19
        // ([524288, 1048576)).
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record_ns(1_000);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let snap = h.snapshot();
        // p50: rank 50 of 100 sits in the first bucket, 50/90 deep.
        let p50 = 512.0 * (50.0f64 / 90.0).exp2() / 1e3;
        // p99: rank 99, 9/10 into the outlier bucket.
        let p99 = 524_288.0 * (9.0f64 / 10.0).exp2() / 1e3;
        assert!((snap.p50_us - p50).abs() < 1e-9, "{snap:?}");
        assert!((snap.p99_us - p99).abs() < 1e-6, "{snap:?}");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let snap = LatencyHistogram::new().snapshot();
        assert_eq!(snap, LatencySnapshot::default());
    }

    #[test]
    fn zero_latency_lands_in_the_first_bucket() {
        let h = LatencyHistogram::new();
        h.record_ns(0);
        assert_eq!(h.snapshot().count, 1);
        assert!(h.snapshot().p50_us <= 0.01);
    }

    #[test]
    fn json_writer_commas_nesting_and_escapes() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("name", "a\"b\\c\nd");
        w.field_u64("n", 7);
        w.field_bool("ok", true);
        w.field_f64("t", 1.25, 2);
        w.field_f64_shortest("x", 0.1);
        w.begin_arr_field("xs");
        w.push_u64(1);
        w.push_u64(2);
        w.begin_obj();
        w.field_u64("inner", 3);
        w.end_obj();
        w.end_arr();
        w.field_f64("nan", f64::NAN, 3);
        w.end_obj();
        assert_eq!(
            w.finish(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"n\":7,\"ok\":true,\"t\":1.25,\"x\":0.1,\
             \"xs\":[1,2,{\"inner\":3}],\"nan\":null}"
        );
    }

    #[test]
    fn shortest_f64_roundtrips_bits() {
        for v in [0.1, 1.0 / 3.0, 1e-300, -2.5e17, f64::MIN_POSITIVE, 123.456] {
            let mut w = JsonWriter::new();
            w.begin_obj();
            w.field_f64_shortest("v", v);
            w.end_obj();
            let s = w.finish();
            let rendered = &s["{\"v\":".len()..s.len() - 1];
            let parsed: f64 = rendered.parse().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn escape_json_covers_control_characters() {
        assert_eq!(escape_json("a\u{1}b"), "a\\u0001b");
        assert_eq!(escape_json("tab\there"), "tab\\there");
        assert_eq!(escape_json("plain"), "plain");
    }

    #[test]
    fn server_metrics_render_as_json() {
        let shard_counters = ShardCounters::default();
        shard_counters.add(&shard_counters.submitted, 3);
        shard_counters.add(&shard_counters.completed, 3);
        shard_counters.add(&shard_counters.i8_batches, 2);
        shard_counters.add(&shard_counters.screen_candidates_i8, 120);
        shard_counters.add(&shard_counters.screen_survivors_i8, 7);
        shard_counters.latency.record_ns(1_000);
        let shard = shard_counters.snapshot(0, 0..25, IndexScope::PerShard);
        let metrics = ServerMetrics {
            submitted: 3,
            completed: 3,
            rejected: 1,
            failed: 0,
            epoch: 2,
            index_scope: IndexScope::PerShard,
            precision: crate::precision::Precision::Auto,
            swaps: 2,
            latency: LatencySnapshot::default(),
            shards: vec![shard],
        };
        let json = metrics.to_json();
        for needle in [
            "\"submitted\":3",
            "\"rejected\":1",
            "\"epoch\":2",
            "\"index_scope\":\"per-shard\"",
            "\"precision\":\"auto\"",
            "\"i8_batches\":2",
            "\"screen_candidates_i8\":120",
            "\"screen_survivors_i8\":7",
            "\"shards\":[{\"shard\":0,\"users\":[0,25]",
            "\"latency\":{\"count\":",
        ] {
            assert!(json.contains(needle), "{json} missing {needle}");
        }
        // Balanced and compact: one line, equal brace/bracket counts.
        assert!(!json.contains('\n'));
        let count = |c: char| json.chars().filter(|&x| x == c).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
    }
}
