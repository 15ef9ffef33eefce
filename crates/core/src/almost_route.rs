//! Sherman's `AlmostRoute` gradient descent (paper §9.1, Algorithm 2).
//!
//! Given a demand vector `b` and a congestion approximator `R`, the routine
//! minimizes the smoothed potential
//!
//! ```text
//! φ(f) = smax(C⁻¹ f) + smax(2α · R(b − Bf))
//! ```
//!
//! where `smax(y) = ln Σ_i (e^{y_i} + e^{-y_i})` is the soft-max. The first
//! term penalizes edge congestion, the second penalizes unrouted demand as
//! seen through the cuts of the approximator. Each iteration takes a signed
//! step proportional to the edge capacity, exactly as in Algorithm 2; the
//! result is a flow that approximately routes `b` with near-optimal
//! congestion, leaving a small residual that the caller repairs over a
//! spanning tree (Algorithm 1).

use capprox::{CongestionApproximator, OperatorScratch};
use flowgraph::{Demand, FlowVec, Graph};
use parallel::Parallelism;

/// Configuration of the gradient descent.
#[derive(Debug, Clone)]
pub struct AlmostRouteConfig {
    /// Target accuracy ε of the routing step.
    pub epsilon: f64,
    /// The approximation quality α assumed for the congestion approximator.
    /// `None` uses the approximator's provable bound.
    pub alpha: Option<f64>,
    /// Hard cap on the number of gradient iterations.
    pub max_iterations: usize,
    /// Adaptive step-size scaling: grow the step while the potential keeps
    /// decreasing, backtrack (restore the flow and halve the scale) when a
    /// step overshoots. Off by default — the fixed `δ/(1+4α²)` schedule of
    /// Algorithm 2 is byte-for-byte preserved when this is `false`.
    pub adaptive_steps: bool,
    /// Worker pool for the per-iteration operator evaluations (`R·b`, `Rᵀ·y`
    /// fan per-tree aggregations across threads). Purely a performance knob:
    /// results are byte-identical to sequential for any thread count.
    pub parallelism: Parallelism,
}

impl Default for AlmostRouteConfig {
    fn default() -> Self {
        AlmostRouteConfig {
            epsilon: 0.5,
            alpha: None,
            max_iterations: 20_000,
            adaptive_steps: false,
            parallelism: Parallelism::sequential(),
        }
    }
}

impl AlmostRouteConfig {
    /// Replaces the target accuracy ε.
    #[must_use]
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Overrides the approximator quality α assumed by the descent
    /// (`None` restores the provable bound).
    #[must_use]
    pub fn with_alpha(mut self, alpha: Option<f64>) -> Self {
        self.alpha = alpha;
        self
    }

    /// Replaces the hard cap on gradient iterations.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Enables or disables adaptive step-size scaling (see
    /// [`AlmostRouteConfig::adaptive_steps`]).
    #[must_use]
    pub fn with_adaptive_steps(mut self, adaptive_steps: bool) -> Self {
        self.adaptive_steps = adaptive_steps;
        self
    }

    /// Replaces the worker pool used for the operator evaluations.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }
}

/// Dispatches a lane-blocked kernel to a monomorphized instantiation for the
/// session block widths (`K = 1..=8`) and to the dynamic fallback (`K = 0`,
/// meaning "read the runtime lane count") otherwise — the lane-inner loops
/// only vectorize with a compile-time trip count. Same operations in the
/// same order for every instantiation, so byte-identity is unaffected.
macro_rules! lane_dispatch {
    ($k:expr, $f:ident($($args:expr),* $(,)?)) => {
        match $k {
            1 => $f::<1>($($args),*),
            2 => $f::<2>($($args),*),
            3 => $f::<3>($($args),*),
            4 => $f::<4>($($args),*),
            5 => $f::<5>($($args),*),
            6 => $f::<6>($($args),*),
            7 => $f::<7>($($args),*),
            8 => $f::<8>($($args),*),
            _ => $f::<0>($($args),*),
        }
    };
}

/// Reusable lane-major buffers for the gradient descent: one set of
/// edge/node/row buffers with `k` contiguous lanes per element (lane `l` of
/// element `i` lives at `i*k + l`; a single demand is a block of one lane).
/// The buffers grow to the widest block seen and are then reused, so the
/// gradient loop allocates nothing on the heap in the steady state.
///
/// A [`crate::PreparedMaxFlow`] session owns one of these across queries;
/// the free-function wrappers allocate a fresh one per call.
#[derive(Debug, Clone, Default)]
pub struct AlmostRouteScratch {
    /// Working flows, `m × k` lane-major.
    f: Vec<f64>,
    /// Working demands `k_B · b` per lane, `n × k`.
    b_work: Vec<f64>,
    /// Pre-step flow snapshots for adaptive backtracking, `m × k`.
    flow_backup: Vec<f64>,
    /// `C⁻¹ f` lanes, `m × k`.
    scaled_flow: Vec<f64>,
    /// Congestion-term soft-max weights, `m × k`.
    w1: Vec<f64>,
    /// Residual demands `b − Bf`, `n × k`.
    residual: Vec<f64>,
    /// `2α · R(b − Bf)` lanes, `rows × k`; doubles as the price input.
    rows: Vec<f64>,
    /// Demand-term soft-max weights / prices, `rows × k`.
    prices: Vec<f64>,
    /// Node potentials `Rᵀ prices`, `n × k`.
    potentials: Vec<f64>,
    /// Gradient lanes, `m × k`.
    grad: Vec<f64>,
    /// Per-lane `max |y|` (and, transiently, exponential sums), `k`.
    maxes: Vec<f64>,
    /// Per-lane split accumulators and their lane maxes, `4k` each.
    acc: Vec<f64>,
    /// Per-lane potentials φ = φ₁ + φ₂, `k`.
    phis: Vec<f64>,
    /// Per-lane φ₁ staging, `k`.
    phi1: Vec<f64>,
    /// Lane-major demand packing area for norm evaluations, `n × k`.
    pack: Vec<f64>,
    /// Per-lane `‖R·b‖_∞` results, `k`.
    norms: Vec<f64>,
    /// Node-sized scratch borrowed by the blocked operator evaluations.
    op: OperatorScratch,
}

impl AlmostRouteScratch {
    /// Scratch pre-sized for one lane of `g` and `r`; wider blocks grow it
    /// lazily on first use.
    pub fn for_instance(g: &Graph, r: &CongestionApproximator) -> Self {
        let mut scratch = AlmostRouteScratch::default();
        scratch.ensure(g, r, 1);
        scratch
    }

    fn ensure(&mut self, g: &Graph, r: &CongestionApproximator, k: usize) {
        let (n, m, rows) = (g.num_nodes(), g.num_edges(), r.num_rows());
        fn fit(buf: &mut Vec<f64>, len: usize) {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
        }
        fit(&mut self.f, m * k);
        fit(&mut self.b_work, n * k);
        fit(&mut self.flow_backup, m * k);
        fit(&mut self.scaled_flow, m * k);
        fit(&mut self.w1, m * k);
        fit(&mut self.residual, n * k);
        fit(&mut self.rows, rows * k);
        fit(&mut self.prices, rows * k);
        fit(&mut self.potentials, n * k);
        fit(&mut self.grad, m * k);
        fit(&mut self.maxes, k);
        fit(&mut self.acc, 8 * k);
        fit(&mut self.phis, k);
        fit(&mut self.phi1, k);
        fit(&mut self.pack, n * k);
        fit(&mut self.norms, k);
        self.op.ensure_nodes(n * k);
    }

    /// `‖R·b‖_∞` for every demand in one blocked sweep: packs the demands
    /// lane-major, applies `R` once, and takes each lane's largest `|row|`,
    /// leaving the per-lane norms in the returned slice. Bit-identical per
    /// lane to [`CongestionApproximator::congestion_lower_bound`] on that
    /// demand.
    ///
    /// # Panics
    ///
    /// Panics if any demand's length does not match the approximator's node
    /// count.
    pub(crate) fn congestion_lower_bounds(
        &mut self,
        g: &Graph,
        r: &CongestionApproximator,
        demands: &[&Demand],
        par: &Parallelism,
    ) -> &[f64] {
        let k = demands.len();
        if k == 0 {
            return &[];
        }
        let n = r.num_nodes();
        self.ensure(g, r, k);
        for (l, b) in demands.iter().enumerate() {
            assert_eq!(b.len(), n, "demand length mismatch");
            for (v, &x) in b.values().iter().enumerate() {
                self.pack[v * k + l] = x;
            }
        }
        let rows_len = r.num_rows() * k;
        r.apply_block_into_par(
            &self.pack[..n * k],
            k,
            &mut self.rows[..rows_len],
            &mut self.op,
            par,
        )
        .expect("packed demands match the approximator");
        lane_dispatch!(
            k,
            lane_abs_max_impl(
                &self.rows[..rows_len],
                k,
                1.0,
                &mut self.acc[..4 * k],
                &mut self.norms[..k]
            )
        );
        &self.norms[..k]
    }
}

/// Outcome of one `AlmostRoute` call.
#[derive(Debug, Clone)]
pub struct AlmostRouteResult {
    /// The computed flow (in the *original* demand scale).
    pub flow: FlowVec,
    /// Number of gradient iterations performed.
    pub iterations: usize,
    /// Number of potential-rescaling steps (the `17/16` loop of Algorithm 2).
    pub scaling_steps: usize,
    /// Final value of the potential (in the working scale).
    pub final_potential: f64,
    /// Whether the iteration cap was hit before `δ < ε/4`.
    pub hit_iteration_cap: bool,
}

/// [`exp_nonpos`] returns exactly `+0.0` for arguments at or below this
/// (and for NaN), and a normal number above it: `e^-708 ≈ 3.3·10⁻³⁰⁸`
/// exceeds `f64::MIN_POSITIVE = 2⁻¹⁰²²`.
const EXP_DEAD_AT: f64 = -708.0;

/// Branch-free `e^x` for `x ≤ 0`, accurate to ~1 ulp, written so the
/// autovectorizer can chew on whole slices of arguments (no libm call, no
/// data-dependent branches).
///
/// Standard Cody–Waite argument reduction `x = n·ln2 + r` with `|r| ≤ ln2/2`,
/// a degree-13 Taylor polynomial for `e^r` (truncation error < 5e-18 on that
/// interval), and a branch-free reconstruction of `2^n` as one power built
/// from its exponent bits. Every live `n` is at least `-1021`, so the power
/// and the product are normal and the scaling is exact.
///
/// Arguments at or below `-708` (and NaN) return exactly `+0.0` by mask:
/// the polynomial runs on `0.0` for those lanes and the result is selected
/// away. Their exponentials would be subnormal or zero, and on common x86
/// cores every multiply or divide a subnormal operand enters takes a
/// microcode assist of tens of nanoseconds. In the soft-max a term below
/// `e^-708` of the peak term cannot change a sum that is at least 1; it
/// decides only whether a weight is a subnormal or exactly zero, a cutoff
/// that f64 itself applies at 2⁻¹⁰⁷⁴.
#[inline(always)]
fn exp_nonpos(x: f64) -> f64 {
    const LOG2_E: f64 = std::f64::consts::LOG2_E;
    // The canonical Cody–Waite split of ln 2; the full published digits are
    // kept even where they exceed f64 precision so the pair is recognizably
    // the standard one.
    #[allow(clippy::excessive_precision)]
    const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
    #[allow(clippy::excessive_precision)]
    const LN2_LO: f64 = 1.908_214_929_270_587_70e-10;
    // 1.5·2^52: adding it forces `x·log2(e)` to round to the nearest integer
    // in the low mantissa bits (round-to-nearest-even, same as `round_ties_even`),
    // without the data-dependent branch sequence `f64::round` lowers to.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    // All-ones for a live lane, all-zeros at or below -708 and for NaN. A dead
    // lane evaluates e^0 (no underflowing multiply, shifted exponent in range)
    // and its result is masked to +0.0 below.
    let live = u64::from(x > EXP_DEAD_AT).wrapping_neg();
    let x = f64::from_bits(x.to_bits() & live);
    let t = x * LOG2_E + SHIFT;
    let n = t - SHIFT;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // e^r via Horner on the degree-13 Taylor expansion.
    let mut p = 1.0 / 6_227_020_800.0; // 1/13!
    p = p * r + 1.0 / 479_001_600.0; // 1/12!
    p = p * r + 1.0 / 39_916_800.0; // 1/11!
    p = p * r + 1.0 / 3_628_800.0; // 1/10!
    p = p * r + 1.0 / 362_880.0; // 1/9!
    p = p * r + 1.0 / 40_320.0; // 1/8!
    p = p * r + 1.0 / 5_040.0; // 1/7!
    p = p * r + 1.0 / 720.0; // 1/6!
    p = p * r + 1.0 / 120.0; // 1/5!
    p = p * r + 1.0 / 24.0; // 1/4!
    p = p * r + 1.0 / 6.0; // 1/3!
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // `t` lives in [2^52, 2^53), so its mantissa field is exactly `2^51 + n`;
    // extract n without a float→int conversion instruction.
    let n = (t.to_bits() & 0x000F_FFFF_FFFF_FFFF) as i64 - (1i64 << 51);
    // A live x > -708 rounds to n ≥ -1021, so 2^n has a biased exponent of
    // at least 2 and p · 2^n ≥ 2^-1022 stays normal.
    let pow2 = f64::from_bits(((n + 1023) as u64) << 52);
    f64::from_bits((p * pow2).to_bits() & live)
}

/// Fused soft-max + gradient weights: computes
/// `smax(values) = ln Σ_i (e^{y_i} + e^{-y_i})` and writes the normalized
/// weights `(e^{y_i} − e^{-y_i}) / Σ_j (e^{y_j} + e^{-y_j})` — the gradient of
/// the soft-max — into `out`, in a single pass over the exponentials.
///
/// With `m = max_i |y_i|`, each `e^{±y_i - m}` is computed once, the weight
/// is the scaled difference `(e1 − e2) / sum`, and the soft-max is
/// `m + ln(sum)`, which keeps the evaluation stable for large `|y_i|`. This
/// is the one-lane call of the kernel the gradient descent runs on every
/// potential evaluation, where the row vector has `trees × nodes` entries.
///
/// # Empty input
///
/// An empty `values` returns `0.0` as a sentinel. The paper's potential is
/// **undefined** over an empty vector (the sum is empty, so the logarithm
/// diverges); an empty row or edge vector can only arise from a graph with
/// no edges, which every solver entry point rejects with
/// [`flowgraph::GraphError::NoEdges`] before the potential is ever
/// evaluated. The sentinel keeps this low-level helper total; do not build
/// new callers that rely on it.
///
/// # Panics
///
/// Panics if `out.len() != values.len()`.
pub fn smax_and_weights_into(values: &[f64], out: &mut [f64]) -> f64 {
    let (mut max, mut acc, mut phi) = ([0.0], [0.0; 8], [0.0]);
    smax_and_weights_block_into(values, 1, 1.0, 1.0, out, &mut max, &mut acc, &mut phi);
    phi[0]
}

/// Runs Algorithm 2 for the demand `b` on graph `g` with congestion
/// approximator `r`.
///
/// The returned flow is expressed in the scale of the input demand; it
/// approximately satisfies `Bf ≈ b` with near-optimal congestion. The
/// residual `b − Bf` is small relative to `‖b‖` and is intended to be routed
/// over a spanning tree by the caller (Algorithm 1, steps 5–6).
///
/// # Panics
///
/// Panics if `b` does not match the graph's node count.
pub fn almost_route(
    g: &Graph,
    r: &CongestionApproximator,
    b: &Demand,
    config: &AlmostRouteConfig,
) -> AlmostRouteResult {
    let mut scratch = AlmostRouteScratch::default();
    almost_route_with(g, r, b, config, &mut scratch)
}

/// [`almost_route`] with caller-owned scratch buffers: a one-lane call of
/// the blocked driver [`almost_route_block`]. After the buffers are warm
/// (first call per instance shape), the gradient loop performs zero heap
/// allocations per iteration.
///
/// # Panics
///
/// Panics if `b` does not match the graph's node count.
pub fn almost_route_with(
    g: &Graph,
    r: &CongestionApproximator,
    b: &Demand,
    config: &AlmostRouteConfig,
    scratch: &mut AlmostRouteScratch,
) -> AlmostRouteResult {
    almost_route_block(g, r, std::slice::from_ref(b), config, scratch)
        .pop()
        .expect("one lane in, one result out")
}

/// Fused soft-max + gradient weights over `k` lane-major vectors (see
/// [`smax_and_weights_into`], its one-lane call). `values[i*k + l]` is
/// element `i` of lane `l`; the soft-max of lane `l` lands in `phis[l]` and
/// its normalized weights in `out[i*k + l]`.
///
/// Byte-identity: every lane keeps four split accumulators, element `i`
/// folds into accumulator `i % 4` (the trailing `len % 4` elements into
/// accumulator 0), and the sum is reduced as `(a0 + a1) + (a2 + a3)`. The
/// assignment depends only on `i`, so each lane performs the same additions
/// in the same order whatever the block width: lane `l` of a `k`-lane call
/// is bit-identical to a one-lane call on that lane's values.
///
/// `in_scale`/`out_scale` fuse an element-wise pre-multiply of the input and
/// post-multiply of the weights into the soft-max sweeps. The products are
/// the exact multiplications the caller would otherwise issue in separate
/// passes over the block (`t = in_scale·y` before the max/exp folds,
/// `w = (w / sum)·out_scale` after the divide), so fusing them saves two
/// full memory round-trips over the block without changing a single bit of
/// the result. Pass `1.0` for a plain soft-max: IEEE multiplication by one
/// is an exact identity.
///
/// # Panics
///
/// Panics if the buffer lengths disagree with `k` (`out` must match
/// `values`, `maxes`/`phis` must hold `k` entries, `acc` must hold `8k`).
#[allow(clippy::too_many_arguments)]
fn smax_and_weights_block_into(
    values: &[f64],
    k: usize,
    in_scale: f64,
    out_scale: f64,
    out: &mut [f64],
    maxes: &mut [f64],
    acc: &mut [f64],
    phis: &mut [f64],
) {
    assert_eq!(out.len(), values.len(), "weight block length mismatch");
    assert!(values.len().is_multiple_of(k), "value block not lane-major");
    assert_eq!(maxes.len(), k, "max buffer length mismatch");
    assert_eq!(acc.len(), 8 * k, "accumulator buffer length mismatch");
    assert_eq!(phis.len(), k, "soft-max buffer length mismatch");
    lane_dispatch!(
        k,
        smax_and_weights_block_impl(values, k, in_scale, out_scale, out, maxes, acc, phis)
    );
}

/// Monomorphized body of [`smax_and_weights_block_into`]: `K > 0` pins the
/// lane count at compile time so the lane-inner loops vectorize; `K = 0`
/// reads the runtime `k_dyn`. Identical operations in identical order for
/// either path.
///
/// Dead groups: when some lane peaks at `m ≥ 708`, each flat group of `4k`
/// values is first tested with the comparisons [`exp_nonpos`]'s mask makes,
/// `y − m > −708` and `−y − m > −708` for `y = in_scale·x`. A group where
/// none holds writes `+0.0` weights and leaves its accumulators alone, and
/// only groups with a live argument evaluate the exponentials. Both
/// exponentials of a dead value are masked to `+0.0`, so its weight is
/// `+0.0 − +0.0 = +0.0`, and the accumulators, sums of non-negative terms
/// that start at `+0.0`, satisfy `s + (+0.0 + +0.0) = s`: skipping changes no
/// bit of any weight or soft-max. Below a peak of 708 no value is dead
/// (`|y| − m ≥ −m > −708`), so those blocks run the loop without the test.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn smax_and_weights_block_impl<const K: usize>(
    values: &[f64],
    k_dyn: usize,
    in_scale: f64,
    out_scale: f64,
    out: &mut [f64],
    maxes: &mut [f64],
    acc: &mut [f64],
    phis: &mut [f64],
) {
    let k = if K > 0 { K } else { k_dyn };
    let len = values.len() / k;
    if len == 0 {
        phis.fill(0.0);
        return;
    }
    let maxes = &mut maxes[..k];
    let (sums, group_max) = acc[..8 * k].split_at_mut(4 * k);
    // `group_max` holds the partial peaks first, each value's lane peak after.
    lane_abs_max_impl::<K>(values, k, in_scale, group_max, maxes);
    // Element `i` of every lane folds into accumulator `i % 4`, and the
    // trailing `len % 4` elements into accumulator 0. In a group of four
    // elements, value `j` of the flat `4k`-wide window is element `j / k` of
    // lane `j % k`, so it folds into accumulator `sums[j]` (slot-major,
    // `sums[slot*k + l]`) against the lane max `group_max[j]`: one flat,
    // contiguous loop whose add chains stay independent at every lane
    // count, one lane included.
    sums.fill(0.0);
    for (j, m) in group_max.iter_mut().enumerate() {
        *m = maxes[j % k];
    }
    let saturated = maxes.iter().any(|&m| m >= -EXP_DEAD_AT);
    let main = (len / 4) * 4 * k;
    let (body, tail) = values.split_at(main);
    let (out_body, out_tail) = out.split_at_mut(main);
    for (src, dst) in body
        .chunks_exact(4 * k)
        .zip(out_body.chunks_exact_mut(4 * k))
    {
        if saturated && !group_has_live_argument(src, group_max, in_scale) {
            dst.fill(0.0);
            continue;
        }
        for (((&x, w), s), &m) in src.iter().zip(dst).zip(sums.iter_mut()).zip(&*group_max) {
            let y = in_scale * x;
            let e1 = exp_nonpos(y - m);
            let e2 = exp_nonpos(-y - m);
            *s += e1 + e2;
            *w = e1 - e2;
        }
    }
    for (src, dst) in tail.chunks_exact(k).zip(out_tail.chunks_exact_mut(k)) {
        for l in 0..k {
            let y = in_scale * src[l];
            let m = maxes[l];
            let e1 = exp_nonpos(y - m);
            let e2 = exp_nonpos(-y - m);
            sums[l] += e1 + e2;
            dst[l] = e1 - e2;
        }
    }
    for l in 0..k {
        let sum = (sums[l] + sums[k + l]) + (sums[2 * k + l] + sums[3 * k + l]);
        phis[l] = maxes[l] + sum.ln();
        // Carry the sum for the divide pass in the freed max slot.
        maxes[l] = sum;
    }
    for chunk in out.chunks_exact_mut(k) {
        for (w, &s) in chunk.iter_mut().zip(&*maxes) {
            *w = *w / s * out_scale;
        }
    }
}

/// Whether any value of a flat group has an argument `±in_scale·x − m` that
/// [`exp_nonpos`] keeps: the same expressions and comparisons as its mask,
/// folded without branches so the test vectorizes.
#[inline(always)]
fn group_has_live_argument(src: &[f64], group_max: &[f64], in_scale: f64) -> bool {
    src.iter().zip(group_max).fold(false, |live, (&x, &m)| {
        let y = in_scale * x;
        live | (y - m > EXP_DEAD_AT) | (-y - m > EXP_DEAD_AT)
    })
}

/// Per-lane control state of the blocked driver: everything Algorithm 2
/// tracks between iterations for one demand.
struct LaneState {
    /// Index into the caller's demand slice.
    idx: usize,
    total_scale: f64,
    iterations: usize,
    scaling_steps: usize,
    step_scale: f64,
    last_accepted: Option<f64>,
    potential: f64,
    hit_cap: bool,
    done: bool,
}

/// Runs Algorithm 2 for `k` demands in lockstep through one set of blocked
/// operator sweeps; [`almost_route_with`] is its one-lane call.
///
/// Every gradient iteration evaluates the potential and gradient of **all
/// still-active lanes** with a single walk over the tree slots, edge list and
/// soft-max buffers ([`CongestionApproximator::apply_block_into`] and
/// friends), then advances each lane's own 17/16 scaling schedule, step size
/// and termination test independently. Lanes that converge are compacted out,
/// so finished demands stop paying for sweeps.
///
/// Every sweep is element-outer / lane-inner, so a lane's floating-point
/// sequence does not depend on its neighbours: `results[l]` is
/// **byte-for-byte identical** to `almost_route_with(g, r, &demands[l],
/// config, ..)`, the same demand alone as one lane, for every batch size and
/// every thread count of `config.parallelism`.
///
/// # Panics
///
/// Panics if any demand does not match the graph's node count.
pub fn almost_route_block(
    g: &Graph,
    r: &CongestionApproximator,
    demands: &[Demand],
    config: &AlmostRouteConfig,
    scratch: &mut AlmostRouteScratch,
) -> Vec<AlmostRouteResult> {
    let refs: Vec<&Demand> = demands.iter().collect();
    let base_norms: Vec<f64> = scratch
        .congestion_lower_bounds(g, r, &refs, &config.parallelism)
        .to_vec();
    almost_route_block_with_norms(g, r, &refs, &base_norms, config, scratch)
}

/// [`almost_route_block`] with the per-lane `‖R·b‖_∞` already in hand
/// (the routing engine computes it for its own stopping rule; recomputing it
/// here would repeat a full blocked operator sweep for bit-identical values).
pub(crate) fn almost_route_block_with_norms(
    g: &Graph,
    r: &CongestionApproximator,
    demands: &[&Demand],
    base_norms: &[f64],
    config: &AlmostRouteConfig,
    scratch: &mut AlmostRouteScratch,
) -> Vec<AlmostRouteResult> {
    assert_eq!(demands.len(), base_norms.len(), "one base norm per demand");
    let k_total = demands.len();
    let mut results: Vec<Option<AlmostRouteResult>> = (0..k_total).map(|_| None).collect();
    if k_total == 0 {
        return Vec::new();
    }
    for b in demands {
        assert_eq!(b.len(), g.num_nodes(), "demand length mismatch");
    }
    let n = g.num_nodes().max(2) as f64;
    let m = g.num_edges();
    let eps = config.epsilon.clamp(1e-3, 1.0);
    // Practical default: the provable bound clamped to a small constant.
    // Sherman's analysis wants a valid upper bound on the approximator
    // quality, but large α values slow the descent quadratically; the
    // top-level solver certifies the final quality independently (the
    // value/upper-bound bracket), so a smaller working α is safe and the
    // experiments report the measured quality. Pass `alpha` explicitly to
    // use the theoretical schedule.
    let alpha = config
        .alpha
        .unwrap_or_else(|| r.provable_alpha().clamp(1.0, 6.0))
        .max(1.0);
    let par = &config.parallelism;
    // Adaptive step-size state. A lane's `step_scale` stays exactly 1.0 when
    // the knob is off, and `x * 1.0` is an IEEE-754 identity, so the disabled
    // path is the fixed `δ/(1+4α²)` schedule of Algorithm 2.
    let adaptive = config.adaptive_steps;
    // Line 1 of Algorithm 2: scale each demand so that the congestion term
    // of the potential starts at Θ(ε⁻¹ log n).
    let target = 16.0 * n.ln() / eps;

    // Degenerate lanes (zero demand or edgeless graph) return the zero flow
    // immediately.
    let mut lanes: Vec<LaneState> = Vec::with_capacity(k_total);
    for (idx, &base_norm) in base_norms.iter().enumerate() {
        if base_norm <= 0.0 || m == 0 {
            results[idx] = Some(AlmostRouteResult {
                flow: FlowVec::zeros(m),
                iterations: 0,
                scaling_steps: 0,
                final_potential: 0.0,
                hit_iteration_cap: false,
            });
        } else {
            lanes.push(LaneState {
                idx,
                total_scale: target / (2.0 * alpha * base_norm),
                iterations: 0,
                scaling_steps: 0,
                step_scale: 1.0,
                last_accepted: None,
                potential: 0.0,
                hit_cap: false,
                done: false,
            });
        }
    }

    let mut k = lanes.len();
    scratch.ensure(g, r, k.max(1));
    // Lines 1–2 per lane: working demand `k_B · b` and the zero starting
    // flow.
    for (j, lane) in lanes.iter().enumerate() {
        let kb = lane.total_scale;
        for (v, &x) in demands[lane.idx].values().iter().enumerate() {
            scratch.b_work[v * k + j] = x * kb;
        }
    }
    scratch.f[..m * k].fill(0.0);

    // What one round does to one lane's edge- and node-indexed arrays. The
    // decision is made from per-lane state (potential, δ, iteration counts)
    // first, so the array updates can run as single fused element-outer
    // passes below — a per-lane strided pass would touch every cache line of
    // the k-wide buffers to update one lane, paying k× the bandwidth and
    // forfeiting the blocked win.
    #[derive(Clone, Copy)]
    enum LaneAction {
        /// Adaptive backtrack: restore the lane's flow from its snapshot.
        Restore,
        /// One 17/16 scaling round.
        Scale,
        /// Gradient step of this magnitude (snapshotting first when adaptive).
        Step { step: f64 },
        /// Terminated or undecided: leave the lane's arrays alone.
        Hold,
    }

    let capacities = g.capacity_slice();
    let mut actions: Vec<LaneAction> = Vec::with_capacity(k);
    let mut deltas: Vec<f64> = vec![0.0; k];
    while k > 0 {
        potential_and_gradient_block(g, r, k, alpha, scratch, par);
        let mut finished = false;
        actions.clear();
        actions.resize(k, LaneAction::Hold);

        // Backtracking and the scaling schedule need only the potentials;
        // lanes that fall through to the termination test need δ, computed
        // in one fused walk afterwards.
        let mut needs_delta = false;
        for j in 0..k {
            let phi = scratch.phis[j];
            let lane = &mut lanes[j];

            // Backtracking: if the lane's last adaptive step overshot (the
            // potential went up), undo it and retry from the snapshot with
            // half the scale.
            if adaptive {
                if let Some(prev) = lane.last_accepted {
                    if phi > prev {
                        actions[j] = LaneAction::Restore;
                        lane.step_scale = (lane.step_scale * 0.5).max(1.0 / 1024.0);
                        lane.last_accepted = None;
                        lane.iterations += 1;
                        if lane.iterations >= config.max_iterations {
                            lane.potential = prev;
                            lane.hit_cap = true;
                            lane.done = true;
                            finished = true;
                        }
                        continue;
                    }
                }
            }
            lane.potential = phi;

            // Lines 4–5: while φ(f) < 16 ε⁻¹ log n, scale f and b up by
            // 17/16.
            if phi < target && lane.scaling_steps < 10_000 {
                actions[j] = LaneAction::Scale;
                lane.total_scale *= 17.0 / 16.0;
                lane.scaling_steps += 1;
                // Rescaling moves the potential; the acceptance reference
                // with it.
                lane.last_accepted = None;
                continue;
            }
            needs_delta = true;
        }

        // Line 6: δ = Σ_e |cap(e) · ∂φ/∂f_e| over each undecided lane's
        // gradient — one walk over the gradient block, each lane
        // accumulating in edge order.
        if needs_delta {
            for d in deltas[..k].iter_mut() {
                *d = 0.0;
            }
            for (chunk, &cap) in scratch.grad[..m * k].chunks_exact(k).zip(capacities) {
                for (d, &gd) in deltas[..k].iter_mut().zip(chunk) {
                    *d += (cap * gd).abs();
                }
            }
        }
        for j in 0..k {
            if !matches!(actions[j], LaneAction::Hold) || lanes[j].done {
                continue;
            }
            let lane = &mut lanes[j];
            let delta = deltas[j];

            if delta < eps / 4.0 {
                lane.done = true;
                finished = true;
                continue;
            }
            if lane.iterations >= config.max_iterations {
                lane.hit_cap = true;
                lane.done = true;
                finished = true;
                continue;
            }

            // Line 8: f_e ← f_e − sgn(∂φ/∂f_e) · cap(e) · δ / (1 + 4α²),
            // stretched by the adaptive scale when enabled.
            let step = delta / (1.0 + 4.0 * alpha * alpha) * lane.step_scale;
            if adaptive {
                lane.last_accepted = Some(lane.potential);
                lane.step_scale = (lane.step_scale * 1.25).min(8.0);
            }
            actions[j] = LaneAction::Step { step };
            lane.iterations += 1;
        }

        // One fused pass over the edge-indexed buffers applies every lane's
        // action; lanes own disjoint strides, so per lane the writes happen
        // in edge order whatever the block width.
        let any_edge_work = actions[..k].iter().any(|a| !matches!(a, LaneAction::Hold));
        if any_edge_work {
            for (e, &cap) in capacities.iter().enumerate() {
                let base = e * k;
                for (j, action) in actions[..k].iter().enumerate() {
                    match *action {
                        LaneAction::Restore => {
                            scratch.f[base + j] = scratch.flow_backup[base + j];
                        }
                        LaneAction::Scale => {
                            scratch.f[base + j] *= 17.0 / 16.0;
                        }
                        LaneAction::Step { step } => {
                            if adaptive {
                                scratch.flow_backup[base + j] = scratch.f[base + j];
                            }
                            let gd = scratch.grad[base + j];
                            if gd != 0.0 {
                                scratch.f[base + j] += -gd.signum() * cap * step;
                            }
                        }
                        LaneAction::Hold => {}
                    }
                }
            }
        }
        // The scaling lanes' working demands, fused the same way.
        let any_scale = actions[..k].iter().any(|a| matches!(a, LaneAction::Scale));
        if any_scale {
            for v in 0..g.num_nodes() {
                let base = v * k;
                for (j, action) in actions[..k].iter().enumerate() {
                    if let LaneAction::Scale = *action {
                        scratch.b_work[base + j] *= 17.0 / 16.0;
                    }
                }
            }
        }

        if finished {
            // Extract finished lanes (lines 10–11: unscale the flow), then
            // compact the surviving lanes so converged demands stop paying
            // for sweeps.
            let keep: Vec<usize> = (0..k).filter(|&j| !lanes[j].done).collect();
            for (j, lane) in lanes.iter().enumerate() {
                if !lane.done {
                    continue;
                }
                let mut flow = FlowVec::zeros(m);
                for (e, x) in flow.values_mut().iter_mut().enumerate() {
                    *x = scratch.f[e * k + j];
                }
                flow.scale(1.0 / lane.total_scale);
                results[lane.idx] = Some(AlmostRouteResult {
                    flow,
                    iterations: lane.iterations,
                    scaling_steps: lane.scaling_steps,
                    final_potential: lane.potential,
                    hit_iteration_cap: lane.hit_cap,
                });
            }
            let new_k = keep.len();
            if new_k > 0 && new_k < k {
                compact_lanes(&mut scratch.f, m, k, &keep);
                compact_lanes(&mut scratch.b_work, g.num_nodes(), k, &keep);
                compact_lanes(&mut scratch.flow_backup, m, k, &keep);
            }
            let mut write = 0;
            for j in 0..k {
                if !lanes[j].done {
                    lanes.swap(write, j);
                    write += 1;
                }
            }
            lanes.truncate(write);
            k = new_k;
        }
    }

    results
        .into_iter()
        .map(|r| r.expect("every lane terminated"))
        .collect()
}

/// In-place lane compaction from `old_k` to `keep.len()` lanes over `elems`
/// elements. `keep` must be ascending; every write position `e*new_k + j`
/// is then ≤ its read position `e*old_k + keep[j]`, and writes advance
/// monotonically, so the forward pass never clobbers an unread value.
fn compact_lanes(buf: &mut [f64], elems: usize, old_k: usize, keep: &[usize]) {
    let new_k = keep.len();
    for e in 0..elems {
        for (j, &old_j) in keep.iter().enumerate() {
            buf[e * new_k + j] = buf[e * old_k + old_j];
        }
    }
}

/// Evaluates `φ(f)` of every lane into `scratch.phis[..k]` and `∂φ/∂f` into
/// `scratch.grad` (lane-major) for the working demands `scratch.b_work` and
/// flows `scratch.f`, walking the edge list, tree slots and soft-max buffers
/// once for all `k` lanes. Element-outer / lane-inner throughout, so each
/// lane's floating-point sequence is independent of the block width.
///
/// The second term's gradient is computed through node potentials, exactly
/// as in §9.1: prices on the tree cuts (one per row of `R`) are pushed down
/// the trees by `Rᵀ`, and `∂φ₂/∂f_e = π_u − π_v` for the edge `e = (u, v)`.
fn potential_and_gradient_block(
    g: &Graph,
    r: &CongestionApproximator,
    k: usize,
    alpha: f64,
    scratch: &mut AlmostRouteScratch,
    par: &Parallelism,
) {
    let m = g.num_edges();
    let n = g.num_nodes();
    let rows_len = r.num_rows() * k;

    // φ1 = smax(C⁻¹ f) per lane.
    lane_dispatch!(
        k,
        scaled_flow_block_impl(g, &scratch.f, k, &mut scratch.scaled_flow)
    );
    smax_and_weights_block_into(
        &scratch.scaled_flow[..m * k],
        k,
        1.0,
        1.0,
        &mut scratch.w1[..m * k],
        &mut scratch.maxes[..k],
        &mut scratch.acc[..8 * k],
        &mut scratch.phi1[..k],
    );

    // φ2 = smax(2α R (b − Bf)) per lane.
    flowgraph::residual_block_into(
        g,
        &scratch.b_work[..n * k],
        &scratch.f[..m * k],
        k,
        &mut scratch.residual[..n * k],
    );
    r.apply_block_into_par(
        &scratch.residual[..n * k],
        k,
        &mut scratch.rows[..rows_len],
        &mut scratch.op,
        par,
    )
    .expect("scratch residual matches the approximator");
    // The 2α pre-scale of the rows and the 2α post-scale of the prices are
    // fused into the soft-max sweeps: same multiplications in the same
    // order, two fewer full passes over the `rows × k` block.
    smax_and_weights_block_into(
        &scratch.rows[..rows_len],
        k,
        2.0 * alpha,
        2.0 * alpha,
        &mut scratch.prices[..rows_len],
        &mut scratch.maxes[..k],
        &mut scratch.acc[..8 * k],
        &mut scratch.phis[..k],
    );
    r.apply_transpose_block_into_par(
        &scratch.prices[..rows_len],
        k,
        &mut scratch.potentials[..n * k],
        &mut scratch.op,
        par,
    )
    .expect("scratch prices match the approximator rows");

    lane_dispatch!(
        k,
        gradient_block_impl(g, &scratch.w1, &scratch.potentials, k, &mut scratch.grad)
    );
    for l in 0..k {
        scratch.phis[l] += scratch.phi1[l];
    }
}

/// Per-lane peaks `maxes[l] = max_i |in_scale·values[i*k + l]|` (`+0.0` for
/// an empty or all-NaN lane), with a monomorphized lane count (see
/// [`lane_dispatch!`]). Value `j` of each flat `4k`-wide window folds into
/// its own partial maximum `partial[j]`, the `len % 4` tail into the first
/// `k`, and each lane reduces its four partials at the end: four
/// independent chains per lane instead of one serial one. A partial starts
/// at `+0.0` and takes `a = |in_scale·x|` only when `a` is larger, which a
/// NaN never is, so it equals `f64::max` folded over the same values. A
/// maximum does not depend on the order it is taken in, so the peaks are
/// bit-identical to one fold in element order.
#[inline(always)]
fn lane_abs_max_impl<const K: usize>(
    values: &[f64],
    k_dyn: usize,
    in_scale: f64,
    partial: &mut [f64],
    maxes: &mut [f64],
) {
    let k = if K > 0 { K } else { k_dyn };
    // A compare and select lowers to one `maxpd`, where `f64::max` adds a
    // NaN fix-up to every step of the chain.
    let fold = |m: &mut f64, x: f64| {
        let a = (in_scale * x).abs();
        if a > *m {
            *m = a;
        }
    };
    let partial = &mut partial[..4 * k];
    partial.fill(0.0);
    let mut windows = values.chunks_exact(4 * k);
    for window in &mut windows {
        for (m, &x) in partial.iter_mut().zip(window) {
            fold(m, x);
        }
    }
    for (m, &x) in partial.iter_mut().zip(windows.remainder()) {
        fold(m, x);
    }
    for (l, m) in maxes[..k].iter_mut().enumerate() {
        *m = partial[l]
            .max(partial[k + l])
            .max(partial[2 * k + l].max(partial[3 * k + l]));
    }
}

/// `scaled_flow[e*k + l] = f[e*k + l] / cap(e)` with a monomorphized lane
/// count (see [`lane_dispatch!`]).
#[inline(always)]
fn scaled_flow_block_impl<const K: usize>(g: &Graph, f: &[f64], k_dyn: usize, out: &mut [f64]) {
    let k = if K > 0 { K } else { k_dyn };
    for ((out_chunk, f_chunk), &cap) in out
        .chunks_exact_mut(k)
        .zip(f.chunks_exact(k))
        .zip(g.capacity_slice())
    {
        for (o, &x) in out_chunk.iter_mut().zip(f_chunk) {
            *o = x / cap;
        }
    }
}

/// `grad[e*k + l] = w1[e*k + l]/cap(e) + π[tail] − π[head]` with a
/// monomorphized lane count (see [`lane_dispatch!`]). Increasing `f_e` moves
/// one unit of excess from tail to head, so the residual `b − Bf` decreases
/// at the head and increases at the tail; differentiating the second
/// soft-max yields `π_tail − π_head`.
#[inline(always)]
fn gradient_block_impl<const K: usize>(
    g: &Graph,
    w1: &[f64],
    potentials: &[f64],
    k_dyn: usize,
    grad: &mut [f64],
) {
    let k = if K > 0 { K } else { k_dyn };
    for (id, e) in g.edges() {
        let cap = g.capacity(id);
        let base = id.index() * k;
        let w = &w1[base..base + k];
        let gr = &mut grad[base..base + k];
        let pt = &potentials[e.tail.index() * k..][..k];
        let ph = &potentials[e.head.index() * k..][..k];
        for l in 0..k {
            let g1 = w[l] / cap;
            let g2 = pt[l] - ph[l];
            gr[l] = g1 + g2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capprox::RackeConfig;
    use flowgraph::{gen, NodeId};

    fn approximator(g: &Graph, trees: usize) -> CongestionApproximator {
        CongestionApproximator::build(g, &RackeConfig::default().with_num_trees(trees)).unwrap()
    }

    /// `smax(values)` through the fused kernel, weights discarded.
    fn smax(values: &[f64]) -> f64 {
        smax_and_weights_into(values, &mut vec![0.0; values.len()])
    }

    #[test]
    fn smax_matches_direct_computation() {
        let y = [0.5, -1.0, 2.0];
        let direct: f64 = y
            .iter()
            .map(|&v: &f64| v.exp() + (-v).exp())
            .sum::<f64>()
            .ln();
        assert!((smax(&y) - direct).abs() < 1e-12);
        assert_eq!(smax(&[]), 0.0);
        // Stability for large values.
        let big = [500.0, -600.0];
        assert!(smax(&big).is_finite());
        assert!((smax(&big) - 600.0).abs() < 1.0);
        // The weights are the normalized gradient (e^y − e^-y) / Σ(e^y + e^-y).
        let mut w = [0.0; 3];
        smax_and_weights_into(&y, &mut w);
        let sum: f64 = y.iter().map(|&v: &f64| v.exp() + (-v).exp()).sum();
        for (&wi, &v) in w.iter().zip(&y) {
            assert!((wi - (v.exp() - (-v).exp()) / sum).abs() < 1e-12);
        }
        // A start-of-descent vector at the default ε: the peak sits near
        // 16·ln n/ε ≈ 1,100 and nine entries in ten are exactly 0, so most
        // arguments are at or below -708.
        let mut y = vec![0.0; 1000];
        for (i, v) in y.iter_mut().enumerate().step_by(10) {
            *v = 1100.0 * (2.0 * (i as f64 * 0.618_034).fract() - 1.0);
        }
        y[0] = 1100.0;
        // Two arguments whose exponentials would be subnormal, -720 and -744:
        // they are dead, so their weights are exactly zero.
        y[10] = 380.0;
        y[20] = -356.0;
        let m = 1100.0;
        let sum: f64 = y.iter().map(|&v| (v - m).exp() + (-v - m).exp()).sum();
        let mut w = vec![0.0; y.len()];
        let phi = smax_and_weights_into(&y, &mut w);
        assert!((phi - (m + sum.ln())).abs() < 1e-12 * m, "{phi}");
        for (&wi, &v) in w.iter().zip(&y) {
            let direct = ((v - m).exp() - (-v - m).exp()) / sum;
            assert!((wi - direct).abs() < 1e-12, "y = {v}: {wi} vs {direct}");
        }
        assert_eq!(w[10].to_bits(), 0, "{:e}", w[10]);
        assert_eq!(w[20].to_bits(), 0, "{:e}", w[20]);
    }

    /// The kernel's formula without its mask: clamp to the threshold, so
    /// that `2^n` stays one normal power, and scale once.
    fn exp_nonpos_clamped(x: f64) -> f64 {
        const SHIFT: f64 = 6_755_399_441_055_744.0;
        #[allow(clippy::excessive_precision)]
        const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
        #[allow(clippy::excessive_precision)]
        const LN2_LO: f64 = 1.908_214_929_270_587_70e-10;
        let x = x.max(-708.0);
        let t = x * std::f64::consts::LOG2_E + SHIFT;
        let n = t - SHIFT;
        let r = (x - n * LN2_HI) - n * LN2_LO;
        let factorials = [
            6_227_020_800.0,
            479_001_600.0,
            39_916_800.0,
            3_628_800.0,
            362_880.0,
            40_320.0,
            5_040.0,
            720.0,
            120.0,
            24.0,
            6.0,
            2.0,
            1.0,
        ];
        let mut p = 1.0 / factorials[0];
        for f in &factorials[1..] {
            p = p * r + 1.0 / f;
        }
        p = p * r + 1.0;
        let n = (t.to_bits() & 0x000F_FFFF_FFFF_FFFF) as i64 - (1i64 << 51);
        p * f64::from_bits(((n + 1023) as u64) << 52)
    }

    #[test]
    fn exp_nonpos_masks_at_the_underflow_threshold() {
        let zero = 0.0f64.to_bits();
        let threshold = -708.0f64;
        // Exactly +0.0 at and below -708, at -∞ and for NaN of either sign.
        let below = (0..100_000u64).map(|u| f64::from_bits(threshold.to_bits() + u));
        let far = [-708.5, -746.0, -1000.0, -1e300, f64::MIN, f64::NEG_INFINITY];
        for x in below.chain(far).chain([f64::NAN, -f64::NAN]) {
            assert_eq!(exp_nonpos(x).to_bits(), zero, "x = {x:e}");
        }
        // Above -708, on every f64 within 10⁵ ulps of it and on a grid over
        // (-708, 0]: a normal number, bit-identical to the clamp-and-scale
        // formula, and within two ulps of libm's e^x.
        let above = (1..=100_000u64).map(|u| f64::from_bits(threshold.to_bits() - u));
        let grid = (0..2_000_000u32).map(|i| -708.0 * f64::from(i) / 2e6);
        for x in above.chain(grid) {
            let e = exp_nonpos(x);
            assert!(
                e >= f64::MIN_POSITIVE,
                "x = {x:e}: e^x = {e:e} is not normal"
            );
            assert_eq!(e.to_bits(), exp_nonpos_clamped(x).to_bits(), "x = {x:e}");
            let ulps = e.to_bits().abs_diff(x.exp().to_bits());
            assert!(ulps <= 2, "x = {x:e}: {ulps} ulps from f64::exp");
        }
    }

    /// The soft-max kernel before dead groups were skipped, one lane at a
    /// time: the same max fold, accumulator slot `i % 4` (slot 0 for the
    /// `len % 4` tail), reduction `(a0 + a1) + (a2 + a3)` and divide pass.
    /// Returns the weights and the per-lane soft-max.
    fn smax_and_weights_unskipped(
        values: &[f64],
        k: usize,
        in_scale: f64,
        out_scale: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let len = values.len() / k;
        let (mut out, mut phis) = (vec![0.0; values.len()], vec![0.0; k]);
        if len == 0 {
            return (out, phis);
        }
        for (l, phi) in phis.iter_mut().enumerate() {
            let lane = |i: usize| in_scale * values[i * k + l];
            let m = (0..len).fold(0.0f64, |m, i| m.max(lane(i).abs()));
            let mut sums = [0.0; 4];
            for i in 0..len {
                let (e1, e2) = (exp_nonpos(lane(i) - m), exp_nonpos(-lane(i) - m));
                let slot = if i < len / 4 * 4 { i % 4 } else { 0 };
                sums[slot] += e1 + e2;
                out[i * k + l] = e1 - e2;
            }
            let sum = (sums[0] + sums[1]) + (sums[2] + sums[3]);
            *phi = m + sum.ln();
            for i in 0..len {
                out[i * k + l] = out[i * k + l] / sum * out_scale;
            }
        }
        (out, phis)
    }

    /// Runs the kernel on `lanes` (one element vector per lane, interleaved
    /// lane-major) and asserts every weight and soft-max bit equals
    /// [`smax_and_weights_unskipped`]'s.
    fn assert_skip_is_invisible(lanes: &[Vec<f64>], in_scale: f64, case: &str) {
        let k = lanes.len();
        let len = lanes[0].len();
        let values: Vec<f64> = (0..len * k).map(|j| lanes[j % k][j / k]).collect();
        let (want_w, want_phi) = smax_and_weights_unskipped(&values, k, in_scale, in_scale);
        // Stale weights: a skipped group must overwrite them with +0.0.
        let mut out = vec![f64::NAN; values.len()];
        let (mut maxes, mut acc, mut phis) = (vec![0.0; k], vec![0.0; 8 * k], vec![0.0; k]);
        smax_and_weights_block_into(
            &values, k, in_scale, in_scale, &mut out, &mut maxes, &mut acc, &mut phis,
        );
        for (j, (w, want)) in out.iter().zip(&want_w).enumerate() {
            assert_eq!(
                w.to_bits(),
                want.to_bits(),
                "{case}, k = {k}: weight of element {} in lane {}: {w:e} vs {want:e}",
                j / k,
                j % k
            );
        }
        for (l, (phi, want)) in phis.iter().zip(&want_phi).enumerate() {
            assert_eq!(
                phi.to_bits(),
                want.to_bits(),
                "{case}, k = {k}: soft-max of lane {l}: {phi:e} vs {want:e}"
            );
        }
    }

    #[test]
    fn skipping_dead_groups_matches_the_unskipped_loop_bit_for_bit() {
        let below_708 = 708.0f64.next_down();
        // One live value, of either sign, at each position of a flat group
        // (group 1) whose other values are dead; groups 2.. are entirely
        // dead. Lanes peak at element 0, in group 0. At a peak below 708 no
        // value is dead and the unskipped loop runs.
        for k in 1..=9 {
            for peak in [708.0, below_708, 1100.0] {
                for pos in 0..4 * k {
                    for live in [peak - 100.0, 100.0 - peak] {
                        let mut lanes = vec![vec![0.0; 24]; k];
                        for lane in &mut lanes {
                            lane[0] = peak;
                        }
                        lanes[pos % k][4 + pos / k] = live;
                        assert_skip_is_invisible(
                            &lanes,
                            1.0,
                            &format!("peak {peak}, live {live} at {pos}"),
                        );
                    }
                }
            }
        }
        // Live values only in the `len % 4` tail: every main group is dead.
        for k in 1..=9 {
            for tail in 1..4 {
                let mut lanes = vec![vec![0.0; 20 + tail]; k];
                for (l, lane) in lanes.iter_mut().enumerate() {
                    lane[19 + tail] = -1100.0;
                    lane[20] = 900.0 - 50.0 * l as f64;
                }
                assert_skip_is_invisible(&lanes, 1.0, &format!("tail of {tail}"));
            }
        }
        // Blocks that mix saturated and unsaturated lanes, at a non-trivial
        // input scale (the rows' 2α), over scattered values and zeros.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut uniform = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        // Lengths 1, 7, 9, 17 and 33 end in a tail of 1 to 3 elements, which
        // the lanes' partial peaks fold apart from the main groups; odd lanes
        // peak at their last element.
        for k in 1..=9 {
            for len in [1, 7, 9, 17, 33, 40] {
                let lanes: Vec<Vec<f64>> = (0..k)
                    .map(|l| {
                        let peak = [1100.0, 221.0, 708.0, below_708][l % 4];
                        let mut lane: Vec<f64> = (0..len)
                            .map(|_| {
                                let u = uniform();
                                if u < 0.7 {
                                    0.0
                                } else {
                                    peak * (2.0 * uniform() - 1.0)
                                }
                            })
                            .collect();
                        lane[if l % 2 == 0 { len / 2 } else { len - 1 }] = -peak;
                        lane
                    })
                    .collect();
                assert_skip_is_invisible(&lanes, 1.0, "mixed lanes");
                let scaled: Vec<Vec<f64>> = lanes
                    .iter()
                    .map(|lane| lane.iter().map(|v| v / 3.4).collect())
                    .collect();
                assert_skip_is_invisible(&scaled, 3.4, "mixed lanes, in_scale 3.4");
            }
        }
        // ±0.0, ±∞ and NaN entries, in saturated and unsaturated lanes.
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for k in 1..=9 {
            for (i, &special) in specials.iter().enumerate() {
                let lanes: Vec<Vec<f64>> = (0..k)
                    .map(|l| {
                        let mut lane = vec![special; 12];
                        lane[(i + l) % 12] = [1100.0, 0.0, 500.0][l % 3];
                        lane[11 - l % 4] = 0.0;
                        lane
                    })
                    .collect();
                assert_skip_is_invisible(&lanes, 1.0, &format!("special {special:e}"));
            }
        }
    }

    #[test]
    fn smax_upper_bounds_max() {
        let y: [f64; 4] = [0.3, -2.5, 1.1, 0.0];
        let max_abs = y.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        let s = smax(&y);
        assert!(s >= max_abs);
        assert!(s <= max_abs + (2.0 * y.len() as f64).ln());
    }

    /// `φ(f)` and `∂φ/∂f` of one lane, through the blocked evaluation.
    fn potential_and_gradient(
        g: &Graph,
        r: &CongestionApproximator,
        b: &Demand,
        f: &FlowVec,
        alpha: f64,
    ) -> (f64, Vec<f64>) {
        let mut scratch = AlmostRouteScratch::for_instance(g, r);
        scratch.b_work[..b.len()].copy_from_slice(b.values());
        scratch.f[..f.len()].copy_from_slice(f.values());
        potential_and_gradient_block(g, r, 1, alpha, &mut scratch, &Parallelism::sequential());
        (scratch.phis[0], scratch.grad[..f.len()].to_vec())
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let g = gen::grid(3, 3, 1.0);
        let r = approximator(&g, 3);
        let b = Demand::st(&g, NodeId(0), NodeId(8), 1.0);
        let mut f = FlowVec::zeros(g.num_edges());
        // A non-trivial starting point.
        for e in g.edge_ids() {
            f.set(e, 0.1 * (e.index() as f64 % 3.0) - 0.1);
        }
        let alpha = 4.0;
        let (phi, grad) = potential_and_gradient(&g, &r, &b, &f, alpha);
        let h = 1e-6;
        for e in g.edge_ids() {
            let mut f2 = f.clone();
            f2.add(e, h);
            let (phi2, _) = potential_and_gradient(&g, &r, &b, &f2, alpha);
            let numeric = (phi2 - phi) / h;
            assert!(
                (numeric - grad[e.index()]).abs() < 1e-3 * (1.0 + numeric.abs()),
                "gradient mismatch at edge {e}: analytic {} vs numeric {numeric}",
                grad[e.index()]
            );
        }
    }

    #[test]
    fn almost_route_reduces_residual() {
        let g = gen::grid(4, 4, 1.0);
        let r = approximator(&g, 6);
        let b = Demand::st(&g, NodeId(0), NodeId(15), 1.0);
        let result = almost_route(&g, &r, &b, &AlmostRouteConfig::default());
        assert!(result.iterations > 0);
        // The residual demand (measured through the approximator) must be
        // substantially smaller than the original demand.
        let residual = b.residual(&g, &result.flow);
        let before = r.congestion_lower_bound(&b);
        let after = r.congestion_lower_bound(&residual);
        assert!(
            after < 0.7 * before,
            "residual congestion {after} not sufficiently below {before}"
        );
    }

    #[test]
    fn almost_route_zero_demand_is_zero_flow() {
        let g = gen::path(5, 1.0);
        let r = approximator(&g, 2);
        let b = Demand::zeros(5);
        let result = almost_route(&g, &r, &b, &AlmostRouteConfig::default());
        assert_eq!(result.iterations, 0);
        assert!(result.flow.values().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn tighter_epsilon_needs_more_iterations() {
        let g = gen::grid(4, 4, 1.0);
        let r = approximator(&g, 6);
        let b = Demand::st(&g, NodeId(0), NodeId(15), 1.0);
        let loose = almost_route(
            &g,
            &r,
            &b,
            &AlmostRouteConfig {
                epsilon: 0.8,
                ..Default::default()
            },
        );
        let tight = almost_route(
            &g,
            &r,
            &b,
            &AlmostRouteConfig {
                epsilon: 0.2,
                ..Default::default()
            },
        );
        assert!(
            tight.iterations >= loose.iterations,
            "tight ε should need at least as many iterations ({} vs {})",
            tight.iterations,
            loose.iterations
        );
    }

    #[test]
    fn iteration_cap_is_respected() {
        let g = gen::grid(5, 5, 1.0);
        let r = approximator(&g, 4);
        let b = Demand::st(&g, NodeId(0), NodeId(24), 1.0);
        let result = almost_route(
            &g,
            &r,
            &b,
            &AlmostRouteConfig {
                epsilon: 0.05,
                alpha: Some(8.0),
                max_iterations: 3,
                ..Default::default()
            },
        );
        assert!(result.iterations <= 3);
        assert!(result.hit_iteration_cap);
    }

    fn assert_results_bit_identical(a: &AlmostRouteResult, b: &AlmostRouteResult) {
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(a.scaling_steps, b.scaling_steps);
        assert_eq!(a.hit_iteration_cap, b.hit_iteration_cap);
        assert_eq!(
            a.final_potential.to_bits(),
            b.final_potential.to_bits(),
            "final potential differs"
        );
        for (e, (x, y)) in a.flow.values().iter().zip(b.flow.values()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "flow differs at edge {e}");
        }
    }

    #[test]
    fn blocked_driver_lanes_match_one_lane_runs_byte_for_byte() {
        let g = gen::grid(4, 4, 1.0);
        let r = approximator(&g, 4);
        // Demands with different convergence speeds (exercises compaction)
        // plus a zero demand (exercises the degenerate lane path).
        // Ten demands also cover block widths past the monomorphized ones.
        let pairs = [
            (0, 15),
            (3, 12),
            (5, 10),
            (1, 1),
            (0, 15),
            (2, 13),
            (4, 11),
            (6, 9),
            (7, 8),
            (12, 3),
        ];
        let demands: Vec<Demand> = pairs
            .iter()
            .map(|&(s, t)| {
                let amount = if s == t { 0.0 } else { 1.0 + 0.25 * s as f64 };
                Demand::st(&g, NodeId(s), NodeId(t), amount)
            })
            .collect();
        let mut lane_scratch = AlmostRouteScratch::for_instance(&g, &r);
        let mut block_scratch = AlmostRouteScratch::default();
        for adaptive in [false, true] {
            let config = AlmostRouteConfig::default()
                .with_epsilon(0.4)
                .with_max_iterations(300)
                .with_adaptive_steps(adaptive);
            for k in [1usize, 2, 7, 10] {
                let blocked =
                    almost_route_block(&g, &r, &demands[..k], &config, &mut block_scratch);
                assert_eq!(blocked.len(), k);
                // Lane `l` of the block equals demand `l` alone as one lane.
                for (b, blocked_result) in demands.iter().zip(&blocked) {
                    let alone = almost_route_with(&g, &r, b, &config, &mut lane_scratch);
                    assert_results_bit_identical(blocked_result, &alone);
                }
            }
        }
    }

    #[test]
    fn blocked_driver_is_thread_count_invariant() {
        let g = gen::grid(5, 5, 1.0);
        let r = approximator(&g, 4);
        let demands: Vec<Demand> = [(0, 24), (4, 20), (2, 22)]
            .iter()
            .map(|&(s, t)| Demand::st(&g, NodeId(s), NodeId(t), 1.5))
            .collect();
        let seq_config = AlmostRouteConfig::default()
            .with_epsilon(0.4)
            .with_max_iterations(200);
        let mut scratch = AlmostRouteScratch::default();
        let baseline = almost_route_block(&g, &r, &demands, &seq_config, &mut scratch);
        for threads in [2, 4] {
            let par_config = seq_config
                .clone()
                .with_parallelism(Parallelism::with_threads(threads));
            let mut par_scratch = AlmostRouteScratch::default();
            let par_results = almost_route_block(&g, &r, &demands, &par_config, &mut par_scratch);
            for (b, s) in par_results.iter().zip(&baseline) {
                assert_results_bit_identical(b, s);
            }
        }
    }

    #[test]
    fn blocked_driver_handles_empty_and_degenerate_batches() {
        let g = gen::grid(3, 3, 1.0);
        let r = approximator(&g, 3);
        let empty: Vec<Demand> = Vec::new();
        let mut scratch = AlmostRouteScratch::for_instance(&g, &r);
        assert!(
            almost_route_block(&g, &r, &empty, &AlmostRouteConfig::default(), &mut scratch)
                .is_empty()
        );
        // An all-zero batch: every lane takes the degenerate path.
        let zeros = vec![Demand::st(&g, NodeId(0), NodeId(8), 0.0); 3];
        let results =
            almost_route_block(&g, &r, &zeros, &AlmostRouteConfig::default(), &mut scratch);
        for result in &results {
            assert_eq!(result.iterations, 0);
            assert!(result.flow.values().iter().all(|&x| x == 0.0));
        }
    }
}
