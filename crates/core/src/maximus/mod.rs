//! MAXIMUS: the paper's hardware-friendly exact MIPS index (§III).
//!
//! Construction (Algorithm 1, `ConstructIndex`):
//! 1. cluster users with a few iterations of k-means (§III-A; defaults
//!    `|C| = 8`, `i = 3`),
//! 2. compute each cluster's worst user–centroid angle `θ_b`,
//! 3. for every cluster, sort all items descending by the Koenigstein bound
//!    `CBound(c, i, θ_b)` ([`bound`]).
//!
//! Querying (Algorithm 1, `QueryIndex`, plus the §III-D blocking
//! optimization): users of a cluster share one blocked matrix multiply over
//! the first `B` items of the cluster's list, then walk the remainder
//! individually, stopping at the first position whose bound (scaled by
//! `‖u‖`) falls below their heap threshold.

pub mod bound;

use crate::maximus::bound::stored_bound;
use crate::precision::{Precision, ScanTier};
use crate::solver::{MipsSolver, ScreenTally, ScreenTallyCells};
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Arc;
use mips_clustering::{kmeans, max_angles_per_cluster, KMeansConfig};
use mips_data::MfModel;
use mips_linalg::kernels::{angle, dot, dot_gemm_ordered_x4, norm2};
use mips_linalg::{dot_i8, i8_screen_envelope_parts, quantize_row_i8, GemmScratch, Matrix};
use mips_topk::{stream_topk_into_heaps, ColumnIds, TopKHeap, TopKList};
use std::ops::Range;
use std::time::Instant;

/// Which clustering algorithm groups the users (§III-A).
///
/// The ideal objective is angular (spherical clustering, as in Koenigstein
/// et al. \[18\]); the paper measures plain Euclidean k-means within ~7 % of
/// spherical's θ_b quality at 2–3× less cost and ships it as the default.
/// Both remain available so the trade-off can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusteringAlgo {
    /// Euclidean k-means with k-means++ seeding (the paper's choice).
    #[default]
    KMeans,
    /// Spherical k-means (unit centroids, cosine objective).
    Spherical,
}

/// MAXIMUS parameters (§III-D: "B = 4096, |C| = 8, and i = 3 is effective
/// for many inputs").
#[derive(Debug, Clone, Copy)]
pub struct MaximusConfig {
    /// Number of user clusters `|C|`.
    pub num_clusters: usize,
    /// k-means iterations `i`.
    pub kmeans_iters: usize,
    /// Item blocking factor `B`: list prefix scored with a shared GEMM.
    pub block_size: usize,
    /// Lesion switch for the §III-D item-blocking optimization (Fig. 8).
    pub item_blocking: bool,
    /// User clustering algorithm (§III-A lesion).
    pub clustering: ClusteringAlgo,
    /// Seed for clustering.
    pub seed: u64,
}

impl Default for MaximusConfig {
    fn default() -> Self {
        MaximusConfig {
            num_clusters: 8,
            kmeans_iters: 3,
            block_size: 4096,
            item_blocking: true,
            clustering: ClusteringAlgo::KMeans,
            seed: 0x0A_11_05,
        }
    }
}

/// Build-stage wall-clock breakdown (Fig. 8's first two bars).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaximusBuildStats {
    /// k-means time.
    pub clustering_seconds: f64,
    /// Bound computation + sorting + list gathering time.
    pub construction_seconds: f64,
}

/// Cumulative query work counters (w̄ of Eqn. 4 is
/// `items_blocked + items_walked` per served user).
#[derive(Debug, Default)]
pub struct MaximusQueryStats {
    /// Users served.
    pub users_served: AtomicU64,
    /// Items scored through the shared blocked multiply.
    pub items_blocked: AtomicU64,
    /// Items scored individually during the list walk.
    pub items_walked: AtomicU64,
    /// Items skipped by early termination.
    pub items_pruned: AtomicU64,
    /// Walked items whose exact dot (and guaranteed-rejected push) the
    /// int8 screen skipped; counted neither as walked nor pruned.
    pub items_screen_pruned: AtomicU64,
}

impl MaximusQueryStats {
    /// Average items visited per user (the paper's w̄).
    pub fn avg_items_visited(&self) -> f64 {
        let users = self.users_served.load(Ordering::Relaxed);
        if users == 0 {
            return 0.0;
        }
        (self.items_blocked.load(Ordering::Relaxed) + self.items_walked.load(Ordering::Relaxed))
            as f64
            / users as f64
    }
}

/// One cluster's sorted item list.
struct ClusterIndex {
    /// Worst member angle θ_b (inflated by the construction slack).
    theta_b: f64,
    /// Item ids sorted descending by stored bound.
    list_ids: Vec<u32>,
    /// Inflated `CBound` per list position, descending.
    bounds: Vec<f64>,
    /// Per-position angle θ_ic (needed to re-derive bounds for new users,
    /// §III-E).
    theta_ic: Vec<f64>,
    /// Item norms per list position.
    norms: Vec<f64>,
    /// Item vectors gathered in list order (the `O(|C||I|f)` storage of
    /// §III-D; sequential walks instead of random model access).
    items: Matrix<f64>,
    /// Symmetric int8 mirror of `items` in list order, present only when
    /// the int8 screen is enabled ([`ScanTier::I8`]).
    items_i8: Option<ClusterI8>,
    /// Members (user ids) of this cluster.
    members: Vec<u32>,
}

/// One cluster's int8 walk-screen data, gathered in list order from the
/// model's shared [`mips_data::MirrorI8`] so sibling structures reuse one
/// quantization pass and the walk streams codes sequentially like the f64
/// item matrix.
struct ClusterI8 {
    /// Item codes per list position, row-major (`n × f`).
    codes: Vec<i8>,
    /// `1 / s_i` per list position (reconstruction multipliers).
    inv_scales: Vec<f64>,
    /// Exact L1 norm per list position (envelope input).
    l1: Vec<f64>,
}

/// Per-user int8 screen state for the list walk, set up once per user.
struct UserScreen<'a> {
    ci: &'a ClusterI8,
    codes: Vec<i8>,
    inv_su: f64,
    env_a: f64,
    env_b: f64,
}

/// The built MAXIMUS index.
pub struct MaximusIndex {
    model: Arc<MfModel>,
    config: MaximusConfig,
    assignments: Vec<u32>,
    clusters: Vec<ClusterIndex>,
    centroids: Matrix<f64>,
    build_stats: MaximusBuildStats,
    build_seconds: f64,
    query_stats: MaximusQueryStats,
    /// Cumulative screen candidate/survivor counts, drained by the serving
    /// layer ([`MipsSolver::take_screen_stats`]); separate from
    /// [`MaximusQueryStats`], whose counters benches read cumulatively.
    screen_tally: ScreenTallyCells,
    screening_i8: bool,
}

impl MaximusIndex {
    /// Builds the index: cluster users, compute θ_b, sort item lists.
    ///
    /// [`ScanTier::I8`] also arms the int8 screen on the **list walk**:
    /// each cluster gathers symmetric int8 codes (plus reconstruction
    /// scales and L1 norms) from the model's shared [`mips_data::MirrorI8`]
    /// in list order, and walked items are pre-scored with exact integer
    /// dots — the exact f64 dot and its push are skipped only when the
    /// quantization-envelope-widened estimate proves the push would be
    /// rejected, so results stay bit-identical. The §III-D blocked prefix
    /// stays f64 (it is GEMM-bound; the `bmm` screen variant covers that
    /// regime), as does the §III-E new-vector path. A model whose
    /// quantization is degenerate — subnormal rows or factor counts past
    /// the i32-overflow cap — builds the plain f64 index. The gather pass
    /// is timed into `build_seconds`.
    ///
    /// # Panics
    /// Panics on a degenerate configuration.
    pub fn build(model: Arc<MfModel>, config: &MaximusConfig, tier: ScanTier) -> MaximusIndex {
        assert!(
            config.num_clusters > 0,
            "MaximusConfig: num_clusters must be > 0"
        );
        assert!(
            config.kmeans_iters > 0,
            "MaximusConfig: kmeans_iters must be > 0"
        );
        assert!(
            config.block_size > 0,
            "MaximusConfig: block_size must be > 0"
        );

        let t0 = Instant::now();
        let kconfig = KMeansConfig {
            k: config.num_clusters,
            max_iters: config.kmeans_iters,
            seed: config.seed,
        };
        let clustering = match config.clustering {
            ClusteringAlgo::KMeans => kmeans(model.users(), &kconfig),
            ClusteringAlgo::Spherical => mips_clustering::spherical_kmeans(model.users(), &kconfig),
        };
        let thetas = max_angles_per_cluster(model.users(), &clustering);
        let clustering_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let item_norms: Vec<f64> = model.items().row_norms();
        let clusters: Vec<ClusterIndex> = (0..clustering.k())
            .map(|c| {
                let centroid = clustering.centroids.row(c);
                // A zero centroid leaves every member angle undefined: fall
                // back to the fully conservative θ_b = π (bound = ‖i‖).
                let theta_b = if norm2(centroid) == 0.0 {
                    std::f64::consts::PI
                } else {
                    thetas[c]
                };
                build_cluster_list(
                    model.items(),
                    &item_norms,
                    centroid,
                    theta_b,
                    clustering.members[c].clone(),
                )
            })
            .collect();
        let construction_seconds = t1.elapsed().as_secs_f64();

        let mut index = MaximusIndex {
            assignments: clustering.assignments,
            centroids: clustering.centroids,
            clusters,
            config: *config,
            build_stats: MaximusBuildStats {
                clustering_seconds,
                construction_seconds,
            },
            build_seconds: clustering_seconds + construction_seconds,
            query_stats: MaximusQueryStats::default(),
            screen_tally: ScreenTallyCells::default(),
            model,
            screening_i8: false,
        };
        if tier == ScanTier::I8 {
            index.enable_screen_i8();
        }
        index
    }

    /// Arms the int8 walk screen (see [`MaximusIndex::build`]); a no-op on
    /// models whose quantization is degenerate.
    fn enable_screen_i8(&mut self) {
        let t = Instant::now();
        let mirror = self.model.mirror_i8();
        if !mirror.is_usable() {
            return;
        }
        let f = self.model.num_factors();
        for c in &mut self.clusters {
            let n = c.list_ids.len();
            let mut codes = vec![0i8; n * f];
            let mut inv_scales = Vec::with_capacity(n);
            let mut l1 = Vec::with_capacity(n);
            for (pos, &id) in c.list_ids.iter().enumerate() {
                codes[pos * f..(pos + 1) * f].copy_from_slice(mirror.item_row(id as usize));
                inv_scales.push(mirror.item_inv_scales()[id as usize]);
                l1.push(mirror.item_l1()[id as usize]);
            }
            c.items_i8 = Some(ClusterI8 {
                codes,
                inv_scales,
                l1,
            });
        }
        self.screening_i8 = true;
        self.build_seconds += t.elapsed().as_secs_f64();
    }

    /// `true` when the index was built with [`ScanTier::I8`] and armed the
    /// int8 screen (never on models whose quantization is degenerate).
    pub fn is_screening_i8(&self) -> bool {
        self.screening_i8
    }

    /// Build-stage breakdown (Fig. 8).
    pub fn build_stats(&self) -> MaximusBuildStats {
        self.build_stats
    }

    /// Cumulative query work counters.
    pub fn query_stats(&self) -> &MaximusQueryStats {
        &self.query_stats
    }

    /// The cluster each user is assigned to.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// θ_b per cluster (diagnostics / ablations).
    pub fn cluster_thetas(&self) -> Vec<f64> {
        self.clusters.iter().map(|c| c.theta_b).collect()
    }

    /// Serves one cluster's user group: shared **fused** GEMM→heap streaming
    /// over the list prefix, then individual walks. `group` carries
    /// `(output position, user id)`.
    ///
    /// The §III-D blocked multiply no longer materializes its
    /// `group × block` score buffer: panels stream straight into the same
    /// per-user heaps the list walk continues with, translated from list
    /// positions to item ids by [`ColumnIds::Mapped`].
    fn serve_cluster(
        &self,
        cluster: &ClusterIndex,
        group: &[(usize, usize)],
        k: usize,
        scratch: &mut GemmScratch<f64>,
        out: &mut [TopKList],
    ) {
        let n_items = cluster.list_ids.len();
        let block = if self.config.item_blocking {
            self.config.block_size.min(n_items)
        } else {
            0
        };

        let mut heaps: Vec<TopKHeap> = group.iter().map(|_| TopKHeap::new(k)).collect();
        if block > 0 {
            let users: Vec<usize> = group.iter().map(|&(_, u)| u).collect();
            let gathered = self.model.users().gather_rows(&users);
            stream_topk_into_heaps(
                (&gathered).into(),
                cluster.items.row_block(0, block),
                &mut heaps,
                ColumnIds::Mapped(&cluster.list_ids[..block]),
                scratch,
            );
            self.query_stats
                .items_blocked
                .fetch_add((group.len() * block) as u64, Ordering::Relaxed);
        }

        for (mut heap, &(pos, u)) in heaps.into_iter().zip(group) {
            let user = self.model.users().row(u);
            let unorm = norm2(user);
            // Walk-phase screen state: the quantized user row plus the
            // envelope coefficients (per-item envelope is
            // `env_a·(1/s_i) + env_b·‖i‖₁`). Absent unless the screen is
            // armed; a user row whose quantization degenerates (non-finite
            // scale or L1) walks unscreened — still exact, just
            // unaccelerated.
            let screen: Option<UserScreen<'_>> = if self.screening_i8 {
                cluster.items_i8.as_ref().and_then(|ci| {
                    let mut codes = vec![0i8; user.len()];
                    let (su, ul1) = quantize_row_i8(user, &mut codes);
                    if !(su.is_finite() && ul1.is_finite()) {
                        return None;
                    }
                    let (env_a, env_b) = i8_screen_envelope_parts(user.len(), su, ul1);
                    Some(UserScreen {
                        ci,
                        codes,
                        inv_su: 1.0 / su,
                        env_a,
                        env_b,
                    })
                })
            } else {
                None
            };
            let mut walked = 0u64;
            let mut screen_evaluated = 0u64;
            let mut screened_out = 0u64;
            let mut walk_admitted = false;
            let mut list_pos = block;
            while list_pos < n_items {
                // Early termination: bounds descend, so the first failure
                // covers the whole tail.
                if heap.is_full() && unorm * cluster.bounds[list_pos] < heap.threshold() {
                    break;
                }
                // Int8 screen: when even the envelope-widened estimate sits
                // strictly below the threshold, the exact score does too and
                // its push would be rejected — skipping dot and push leaves
                // the heap trajectory bit-identical. The integer estimate is
                // always finite by construction.
                if let (true, Some(sc)) = (heap.is_full(), &screen) {
                    let f = sc.codes.len();
                    let d = dot_i8(&sc.codes, &sc.ci.codes[list_pos * f..(list_pos + 1) * f]);
                    let inv_si = sc.ci.inv_scales[list_pos];
                    let est = d as f64 * (sc.inv_su * inv_si);
                    let env = sc.env_a * inv_si + sc.env_b * sc.ci.l1[list_pos];
                    screen_evaluated += 1;
                    if est + env < heap.threshold() {
                        screened_out += 1;
                        list_pos += 1;
                        continue;
                    }
                }
                let score = dot(user, cluster.items.row(list_pos));
                walk_admitted |= heap.push(score, cluster.list_ids[list_pos]);
                walked += 1;
                list_pos += 1;
            }
            self.query_stats
                .items_walked
                .fetch_add(walked, Ordering::Relaxed);
            self.query_stats
                .items_screen_pruned
                .fetch_add(screened_out, Ordering::Relaxed);
            self.screen_tally
                .record(screen_evaluated, screen_evaluated - screened_out);
            self.query_stats
                .items_pruned
                .fetch_add((n_items - list_pos) as u64, Ordering::Relaxed);
            self.query_stats
                .users_served
                .fetch_add(1, Ordering::Relaxed);
            // Heaps fed only by the blocked prefix already hold canonical
            // (GEMM-kernel) scores; only a heap a walk-scored (`dot`) item
            // made it into needs the canonicalizing pass.
            out[pos] = if walk_admitted {
                canonical_list(user, self.model.items(), heap)
            } else {
                heap.into_sorted()
            };
        }
    }

    /// Serves an ad-hoc user vector that was *not* part of the clustered set
    /// (§III-E dynamic users): assigns it to the nearest centroid and walks
    /// that cluster's list with a per-item bound widened to the user's own
    /// angle when it exceeds θ_b.
    ///
    /// List order no longer matches the widened bound, so pruning skips
    /// items without early exit — still exact, usually still far fewer dots
    /// than brute force.
    pub fn query_new_vector(&self, user: &[f64], k: usize) -> TopKList {
        assert_eq!(
            user.len(),
            self.model.num_factors(),
            "MaximusIndex: user dimensionality mismatch"
        );
        // Assignment step of k-means only.
        let assigned = mips_clustering::assign_to_nearest(
            &Matrix::from_vec(1, user.len(), user.to_vec()).expect("1 x f"),
            &self.centroids,
        )[0] as usize;
        let cluster = &self.clusters[assigned];
        let unorm = norm2(user);
        let centroid = self.centroids.row(assigned);
        let theta_uc = if unorm == 0.0 || norm2(centroid) == 0.0 {
            std::f64::consts::PI
        } else {
            angle(user, centroid)
        };

        let mut heap = TopKHeap::new(k);
        if theta_uc <= cluster.theta_b {
            // Covered by the stored bounds: normal walk with early exit.
            for (pos, &id) in cluster.list_ids.iter().enumerate() {
                if heap.is_full() && unorm * cluster.bounds[pos] < heap.threshold() {
                    break;
                }
                heap.push(dot(user, cluster.items.row(pos)), id);
            }
        } else {
            for (pos, &id) in cluster.list_ids.iter().enumerate() {
                if heap.is_full() {
                    let b = stored_bound(cluster.norms[pos], cluster.theta_ic[pos], theta_uc);
                    if unorm * b < heap.threshold() {
                        continue; // no early exit: order is stale for θ_uc
                    }
                }
                heap.push(dot(user, cluster.items.row(pos)), id);
            }
        }
        canonical_list(user, self.model.items(), heap)
    }
}

/// Finalizes one user's heap into its **canonical** top-k list: the
/// returned scores are re-derived with
/// [`dot_gemm_ordered`] — the GEMM micro-kernel's per-element reduction —
/// over the model's own item rows, and the list re-sorted by (score
/// descending, item id ascending).
///
/// Selection and pruning still run on whatever the serve path streamed —
/// the §III-D blocked prefix scores items through GEMM, the list walk
/// through `dot`, and the two can disagree in the last ulp; where the
/// boundary falls depends on the cluster structure. Canonicalizing the
/// *reported* values makes the returned scores and ordering a pure
/// function of (user row, item matrix, k), so two indexes over the same
/// users — e.g. the global index and a shard-local one built over a
/// user-range view — return bit-identical lists, the exactness contract
/// the serving runtime's `IndexScope` relies on. The GEMM per-element
/// reduction is shape-independent, so the canonical scores also coincide
/// bit-for-bit with the blocked-MM brute force. Cost is `k`
/// sequential-FMA dots per user — a few hundred flops, noise against the
/// thousands of streamed scores behind them.
///
/// One caveat survives: *membership* is still decided by the streamed
/// scores, so a pair whose true scores differ only in the path ulp and
/// sit exactly at the k-th place could in principle resolve differently
/// under two index shapes. Exact-arithmetic ties are immune (both paths
/// are exact there, and ids break the tie identically), which is why the
/// tie-heavy property corpora and the serve stress corpus both observe
/// full bit-identity; on continuous data the coincidence has measure
/// zero. Scoring the walk with the sequential-FMA kernel would close even
/// that, at ~4x the walk's dot cost — not worth the hot-loop tax.
fn canonical_list(user: &[f64], items: &Matrix<f64>, heap: TopKHeap) -> TopKList {
    let mut list = heap.into_sorted();
    if list.items.is_empty() {
        return list;
    }
    // Four items per call ([`dot_gemm_ordered_x4`]): each item keeps the
    // GEMM per-element FMA chain while the chains pipeline, and the
    // dispatched kernel keeps the fused multiply-adds inline hardware
    // instructions. The ragged tail pads with the last item (extra lanes
    // discarded).
    let n = list.items.len();
    let mut pos = 0;
    while pos < n {
        let row = |offset: usize| items.row(list.items[(pos + offset).min(n - 1)] as usize);
        let scores = dot_gemm_ordered_x4(user, [row(0), row(1), row(2), row(3)]);
        let lanes = 4.min(n - pos);
        list.scores[pos..pos + lanes].copy_from_slice(&scores[..lanes]);
        pos += 4;
    }
    // Re-sort only if recomputation reordered an ulp-close pair; the
    // common case (still sorted) allocates nothing.
    let still_sorted = (1..n).all(|i| {
        list.scores[i - 1]
            .total_cmp(&list.scores[i])
            .then(list.items[i].cmp(&list.items[i - 1]))
            .is_ge()
    });
    if !still_sorted {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            list.scores[b]
                .total_cmp(&list.scores[a])
                .then(list.items[a].cmp(&list.items[b]))
        });
        list = TopKList {
            items: order.iter().map(|&i| list.items[i]).collect(),
            scores: order.iter().map(|&i| list.scores[i]).collect(),
        };
    }
    list
}

/// Builds one cluster's sorted list.
fn build_cluster_list(
    items: &Matrix<f64>,
    item_norms: &[f64],
    centroid: &[f64],
    theta_b: f64,
    members: Vec<u32>,
) -> ClusterIndex {
    let n = items.rows();
    let cnorm = norm2(centroid);
    let mut entries: Vec<(f64, f64, u32)> = (0..n)
        .map(|i| {
            let theta_ic = if cnorm == 0.0 || item_norms[i] == 0.0 {
                std::f64::consts::FRAC_PI_2
            } else {
                angle(centroid, items.row(i))
            };
            (
                stored_bound(item_norms[i], theta_ic, theta_b),
                theta_ic,
                i as u32,
            )
        })
        .collect();
    // `total_cmp`: same panic-free hardening as the LEMP/FEXIPRO
    // norm-sorts — bounds are finite for validated models, but an index
    // build must not be able to panic on a stray NaN.
    entries.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));

    let list_ids: Vec<u32> = entries.iter().map(|e| e.2).collect();
    let bounds: Vec<f64> = entries.iter().map(|e| e.0).collect();
    let theta_ic: Vec<f64> = entries.iter().map(|e| e.1).collect();
    let norms: Vec<f64> = entries.iter().map(|e| item_norms[e.2 as usize]).collect();
    let idx: Vec<usize> = list_ids.iter().map(|&i| i as usize).collect();
    let gathered = items.gather_rows(&idx);

    ClusterIndex {
        theta_b,
        list_ids,
        bounds,
        theta_ic,
        norms,
        items: gathered,
        items_i8: None,
        members,
    }
}

impl MipsSolver for MaximusIndex {
    fn name(&self) -> &str {
        if self.screening_i8 {
            "Maximus+i8"
        } else {
            "Maximus"
        }
    }

    fn build_seconds(&self) -> f64 {
        self.build_seconds
    }

    fn batches_users(&self) -> bool {
        true // the shared prefix GEMM batches cluster members
    }

    fn precision(&self) -> Precision {
        if self.screening_i8 {
            Precision::I8Rescore
        } else {
            Precision::F64
        }
    }

    fn num_users(&self) -> usize {
        self.model.num_users()
    }

    fn take_screen_stats(&self) -> Option<ScreenTally> {
        self.screening_i8.then(|| self.screen_tally.drain())
    }

    fn query_range(&self, k: usize, users: Range<usize>) -> Vec<TopKList> {
        assert!(users.end <= self.num_users(), "user range out of bounds");
        let ids: Vec<usize> = users.collect();
        self.query_subset(k, &ids)
    }

    fn query_subset(&self, k: usize, users: &[usize]) -> Vec<TopKList> {
        crate::solver::dedup_query_subset(users, |distinct| {
            let mut groups: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.clusters.len()];
            for (pos, &u) in distinct.iter().enumerate() {
                assert!(u < self.num_users(), "user id {u} out of bounds");
                groups[self.assignments[u] as usize].push((pos, u));
            }
            let mut out = vec![TopKList::empty(); distinct.len()];
            let mut scratch = GemmScratch::new();
            for (c, group) in groups.iter().enumerate() {
                if !group.is_empty() {
                    self.serve_cluster(&self.clusters[c], group, k, &mut scratch, &mut out);
                }
            }
            out
        })
    }

    fn query_all(&self, k: usize) -> Vec<TopKList> {
        // Serve whole clusters in membership order: maximal work sharing.
        // One scratch outlives every per-cluster fused multiply.
        let mut out = vec![TopKList::empty(); self.num_users()];
        let mut scratch = GemmScratch::new();
        for cluster in &self.clusters {
            let group: Vec<(usize, usize)> = cluster
                .members
                .iter()
                .map(|&u| (u as usize, u as usize))
                .collect();
            if !group.is_empty() {
                self.serve_cluster(cluster, &group, k, &mut scratch, &mut out);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bmm::BmmSolver;
    use mips_data::synth::{synth_model, SynthConfig};
    use mips_data::ModelView;

    fn model(users: usize, items: usize, f: usize, spread: f64) -> Arc<MfModel> {
        Arc::new(synth_model(&SynthConfig {
            num_users: users,
            num_items: items,
            num_factors: f,
            user_spread: spread,
            item_norm_skew: 0.7,
            ..SynthConfig::default()
        }))
    }

    fn small_config() -> MaximusConfig {
        MaximusConfig {
            num_clusters: 4,
            kmeans_iters: 3,
            block_size: 16,
            item_blocking: true,
            clustering: ClusteringAlgo::KMeans,
            seed: 7,
        }
    }

    #[test]
    fn spherical_clustering_variant_is_exact_and_at_least_as_tight() {
        let m = model(60, 200, 10, 0.3);
        let bmm = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let want = bmm.query_all(5);
        let euclid = MaximusIndex::build(Arc::clone(&m), &small_config(), ScanTier::F64);
        let sphere = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                clustering: ClusteringAlgo::Spherical,
                ..small_config()
            },
            ScanTier::F64,
        );
        let got = sphere.query_all(5);
        for u in 0..m.num_users() {
            assert_eq!(got[u].items, want[u].items, "user {u}");
        }
        // §III-A: the angular objective should give θ_b no worse on average
        // (clusterings differ, so compare means, with slack for seeding).
        let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
        let te = mean(euclid.cluster_thetas());
        let ts = mean(sphere.cluster_thetas());
        assert!(
            ts <= te * 1.25,
            "spherical θ_b {ts} much worse than k-means {te}"
        );
    }

    #[test]
    fn exact_against_bmm() {
        let m = model(50, 200, 12, 0.4);
        let bmm = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let maximus = MaximusIndex::build(Arc::clone(&m), &small_config(), ScanTier::F64);
        for k in [1usize, 5, 20] {
            let want = bmm.query_all(k);
            let got = maximus.query_all(k);
            for u in 0..m.num_users() {
                assert_eq!(got[u].items, want[u].items, "k={k} user {u}");
                for (a, b) in got[u].scores.iter().zip(&want[u].scores) {
                    assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
                }
            }
        }
    }

    #[test]
    fn exact_without_item_blocking() {
        let m = model(40, 150, 8, 0.3);
        let bmm = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let maximus = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                item_blocking: false,
                ..small_config()
            },
            ScanTier::F64,
        );
        let want = bmm.query_all(5);
        let got = maximus.query_all(5);
        for u in 0..m.num_users() {
            assert_eq!(got[u].items, want[u].items, "user {u}");
        }
    }

    #[test]
    fn tight_clusters_prune() {
        let m = model(60, 500, 16, 0.1); // tight bundles → small θ_b
        let maximus = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                block_size: 8,
                ..small_config()
            },
            ScanTier::F64,
        );
        let _ = maximus.query_all(1);
        let stats = maximus.query_stats();
        assert!(
            stats.items_pruned.load(Ordering::Relaxed) > 0,
            "no pruning on tightly clustered users"
        );
        let avg = stats.avg_items_visited();
        assert!(
            avg < m.num_items() as f64 * 0.9,
            "w̄ = {avg} — index visited nearly everything"
        );
    }

    #[test]
    fn screened_i8_walk_is_bit_identical_and_prunes() {
        // Small block size pushes most of the work into the walk phase,
        // where the screen operates.
        let m = model(60, 500, 16, 0.4);
        let config = MaximusConfig {
            block_size: 8,
            ..small_config()
        };
        let plain = MaximusIndex::build(Arc::clone(&m), &config, ScanTier::F64);
        let screened = MaximusIndex::build(Arc::clone(&m), &config, ScanTier::I8);
        assert!(!plain.is_screening_i8());
        assert!(screened.is_screening_i8());
        assert_eq!(screened.name(), "Maximus+i8");
        assert_eq!(screened.precision(), Precision::I8Rescore);
        for k in [1usize, 5, 20] {
            let want = plain.query_all(k);
            let got = screened.query_all(k);
            for u in 0..m.num_users() {
                assert_eq!(got[u].items, want[u].items, "k={k} user {u}");
                for (a, b) in got[u].scores.iter().zip(&want[u].scores) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} user {u}");
                }
            }
        }
        let stats = screened.query_stats();
        assert!(
            stats.items_screen_pruned.load(Ordering::Relaxed) > 0,
            "i8 screen never engaged on a walk-dominated configuration"
        );
        // Screened items reduce walked dots relative to the plain index.
        assert!(
            stats.items_walked.load(Ordering::Relaxed)
                < plain.query_stats().items_walked.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn subset_order_and_range_agree() {
        let m = model(30, 60, 6, 0.5);
        let maximus = MaximusIndex::build(Arc::clone(&m), &small_config(), ScanTier::F64);
        let range = maximus.query_range(4, 5..25);
        let subset = maximus.query_subset(4, &(5..25).collect::<Vec<_>>());
        assert_eq!(range, subset);
        // Shuffled subset returns results in request order.
        let shuffled = maximus.query_subset(4, &[25, 5, 14]);
        assert_eq!(shuffled[1], range[0]);
    }

    #[test]
    fn block_larger_than_item_count_degenerates_to_bmm() {
        let m = model(20, 30, 5, 0.6);
        let bmm = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let maximus = MaximusIndex::build(
            Arc::clone(&m),
            &MaximusConfig {
                block_size: 10_000,
                ..small_config()
            },
            ScanTier::F64,
        );
        let want = bmm.query_all(3);
        let got = maximus.query_all(3);
        for u in 0..20 {
            assert_eq!(got[u].items, want[u].items);
        }
        // Everything was scored in the blocked phase.
        assert_eq!(
            maximus.query_stats().items_walked.load(Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn new_vector_queries_are_exact() {
        let m = model(40, 120, 8, 0.4);
        let bmm = BmmSolver::build(&ModelView::full(&m), ScanTier::F64);
        let maximus = MaximusIndex::build(Arc::clone(&m), &small_config(), ScanTier::F64);
        // Existing user vector served through the §III-E path.
        for u in [0usize, 17, 39] {
            let got = maximus.query_new_vector(m.users().row(u), 5);
            assert_eq!(got.items, bmm.query_range(5, u..u + 1)[0].items, "user {u}");
        }
        // A genuinely new direction, far from every centroid.
        let novel: Vec<f64> = (0..8).map(|j| if j == 7 { -3.0 } else { 0.01 }).collect();
        let got = maximus.query_new_vector(&novel, 4);
        let mut heap = TopKHeap::new(4);
        for i in 0..m.num_items() {
            heap.push(dot(&novel, m.items().row(i)), i as u32);
        }
        assert_eq!(got.items, heap.into_sorted().items);
    }

    #[test]
    fn build_stats_are_populated() {
        let m = model(30, 50, 6, 0.5);
        let maximus = MaximusIndex::build(m, &small_config(), ScanTier::F64);
        let stats = maximus.build_stats();
        assert!(stats.clustering_seconds >= 0.0);
        assert!(stats.construction_seconds > 0.0);
        assert!(maximus.build_seconds() >= stats.construction_seconds);
        assert_eq!(maximus.cluster_thetas().len(), 4);
    }

    #[test]
    fn k_edge_cases() {
        let m = model(10, 15, 4, 0.5);
        let maximus = MaximusIndex::build(m, &small_config(), ScanTier::F64);
        assert!(maximus.query_all(0).iter().all(|l| l.is_empty()));
        assert!(maximus.query_all(100).iter().all(|l| l.len() == 15));
    }

    #[test]
    #[should_panic(expected = "num_clusters")]
    fn rejects_zero_clusters() {
        let m = model(5, 5, 3, 0.5);
        let _ = MaximusIndex::build(
            m,
            &MaximusConfig {
                num_clusters: 0,
                ..MaximusConfig::default()
            },
            ScanTier::F64,
        );
    }
}
