"""Hot numeric kernels, numpy only.

  * primitive_directions enumerates the gcd-1 integer directions;
  * extremal_ratios is the sup/inf ratio reduction behind variational
    spectra. In two dimensions, with many weight rows, it scans for each row
    only the blocks of entries whose upper bound can reach the extremum;
    values and indices are bitwise those of a full scan;
  * bisect_generic is a vectorized monotone bisection.

Gauss-map inversion is closed form for the builtin families (pnorm, the
harmonic facet and the disk's boundary curve, see LevelSurface.normal_map),
and curves parametrized by polar angle meet each ray at the ray's own angle.
bisect_generic serves only what has no closed form: the Gauss-map inversion
of spline and table curves, and the point on a ray of the disk's boundary
curve and of transform duals (LevelSurface.ray_parameter).
"""
from __future__ import annotations

import numpy as np

# Bisection runs a fixed schedule: the parameter interval halves each step,
# so 80 steps push the interval to ~1e-24 of its span, far below float
# resolution; the residual check happens at the call site. Every target
# takes every step, so its result does not depend on the other targets of
# the call (the action table inverts its directions in chunks).
BISECT_ITERS = 80

# Pruned ratio reduction: entries sorted by angle, cut into blocks of
# RATIO_BLOCK; bounds are evaluated RATIO_CHUNK weight rows at a time, and
# fewer than RATIO_MIN_ROWS rows are not worth the bounds.
RATIO_BLOCK = 256
RATIO_CHUNK = 32
RATIO_MIN_ROWS = 32
BOUND_SLACK = 1e-9     # relative to |x|_1 |w|_1; covers rounding of the scan
BOUND_FLOOR = 1e-290   # absolute; covers underflow
SCALE_CAP = 1e290      # |K| |w| and |K / a| |w| below this cannot overflow


# --- primitive integer directions ---

def primitive_directions(dimension: int, k_max: int) -> np.ndarray:
    """All gcd-1 nonnegative integer vectors with ||k||_inf <= k_max,
    lexicographically sorted. Shape (N, dimension), dtype int64,
    C-contiguous.

    A prime sieve on the (k_max + 1)^dimension cube: a vector is not
    primitive exactly when some prime p <= k_max divides every component,
    so clearing the sub-lattice p Z^dimension for each such p (and the
    origin) leaves the primitive ones, read out in C (= lex) order.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    composite = np.zeros(k_max + 1, dtype=bool)
    keep = np.ones((k_max + 1,) * dimension, dtype=bool)
    for p in range(2, k_max + 1):
        if not composite[p]:
            composite[p * p::p] = True
            keep[(slice(None, None, p),) * dimension] = False
    keep[(0,) * dimension] = False
    # stacking the index columns keeps the rows C-contiguous (argwhere
    # would not), which the row-wise action sums rely on
    return np.stack(np.nonzero(keep), axis=1)


def bisect_generic(angle_fn, lo: float, hi: float, targets: np.ndarray,
                   increasing: bool = True) -> np.ndarray:
    """Parameters t in [lo, hi] with angle_fn(t) = target, for a vectorized
    angle_fn monotone in the given sense. Targets outside the attained range
    clamp to the endpoints; the caller is responsible for the residual
    check. A decreasing angle_fn is bisected as the increasing -angle_fn
    against -targets (negation is exact)."""
    sign = 1.0 if increasing else -1.0
    targets = sign * np.asarray(targets, dtype=float)
    a = np.full(targets.shape, float(lo))
    b = np.full(targets.shape, float(hi))
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (a + b)
        right = sign * angle_fn(mid) < targets
        a = np.where(right, mid, a)
        b = np.where(right, b, mid)
    return 0.5 * (a + b)


# --- extremal ratio reduction ---

def _scan(cols, a, w, use_max, tie_tol, order):
    """Extremum of (cols . w) / a and the smallest original index within the
    tie window; order maps scan positions to original indices (None: the
    scan is in original order)."""
    num = cols[0] * w[0]
    for j in range(1, len(cols)):
        num += cols[j] * w[j]
    r = num / a
    best = r.max() if use_max else r.min()
    tol = tie_tol * max(1.0, abs(best))
    mask = (r >= best - tol) if use_max else (r <= best + tol)
    if order is None:
        return best, int(np.argmax(mask))
    return best, int(order[mask].min())


def _blocks(K, a, wl1):
    """Sort the entries by the angle of x = K / a and cut them into blocks.

    Returns the order (padded to whole blocks), the entries' columns and
    actions in that order, the block starts, one oriented box per block and
    one representative entry per block; None when |x| |w| could overflow.
    """
    N = len(a)
    l1 = K[:, 0] / a
    np.abs(l1, out=l1)
    key = K[:, 1] / a
    l1 += np.abs(key)
    if not float(l1.max()) * wl1 < SCALE_CAP:
        return None
    np.divide(key, l1, out=key, where=l1 > 0)   # x2 / |x|_1, monotone in angle
    del l1
    order = np.argsort(key, kind="stable")
    del key
    B = -(-N // RATIO_BLOCK)
    order = np.concatenate([order, np.full(B * RATIO_BLOCK - N, order[-1])])
    cols = [K[order, 0], K[order, 1]]
    a_sorted = a[order]
    k0, k1, ab = (c.reshape(B, RATIO_BLOCK) for c in (*cols, a_sorted))
    # frame: the chord from the first to the last point, and its normal
    c0 = k0[:, -1] / ab[:, -1] - k0[:, 0] / ab[:, 0]
    c1 = k1[:, -1] / ab[:, -1] - k1[:, 0] / ab[:, 0]
    length = np.hypot(c0, c1)
    flat = length == 0
    length[flat] = 1.0
    u0 = np.where(flat, 1.0, c0 / length)[:, None]
    u1 = np.where(flat, 0.0, c1 / length)[:, None]
    proj = k0 * u0
    proj += k1 * u1
    proj /= ab
    smin, smax = proj.min(axis=1), proj.max(axis=1)
    np.multiply(k1, u0, out=proj)
    proj -= k0 * u1
    proj /= ab
    tmin, tmax = proj.min(axis=1), proj.max(axis=1)
    # |x|_1 <= sqrt(2) |x|_2 <= sqrt(2) (|s| + |t|) in the frame
    radius = 2.0 * (np.maximum(-smin, smax) + np.maximum(-tmin, tmax)) + BOUND_FLOOR
    box = (u0[:, 0], u1[:, 0], smin, smax, tmin, tmax, radius)
    starts = np.minimum(np.arange(B + 1) * RATIO_BLOCK, N)
    reps = order[(starts[:-1] + starts[1:]) // 2]
    return order, cols, a_sorted, starts, box, reps


def _candidate_ranges(K, a, Wc, sgn, tie_tol, box, reps, floor):
    """Per weight row, the first and last block whose upper bound on
    sgn * ratio reaches the best attained representative minus the tie
    window."""
    u0, u1, smin, smax, tmin, tmax, radius = box
    w0 = sgn * Wc[:, :1]
    w1 = sgn * Wc[:, 1:]
    wu = w0 * u0 + w1 * u1
    wv = w1 * u0 - w0 * u1
    upper = np.maximum(smin * wu, smax * wu)
    upper += np.maximum(tmin * wv, tmax * wv)
    upper += BOUND_SLACK * np.abs(Wc).sum(axis=1, keepdims=True) * radius + floor
    # representatives use the scan's own arithmetic: attained values
    num = K[reps, 0] * Wc[:, :1]
    num += K[reps, 1] * Wc[:, 1:]
    lower = (sgn * (num / a[reps])).max(axis=1)
    threshold = lower - 2.0 * tie_tol * np.maximum(1.0, np.abs(lower))
    hit = upper >= threshold[:, None]
    first = hit.argmax(axis=1)
    last = hit.shape[1] - 1 - hit[:, ::-1].argmax(axis=1)
    return first, last + 1


def _check_ratio_inputs(K, a, W, tie_tol):
    if K.ndim != 2 or a.shape != (K.shape[0],) or W.ndim != 2 \
            or W.shape[1] != K.shape[1]:
        raise ValueError("extremal_ratios needs K (N, n), a (N,), W (G, n)")
    if K.shape[0] == 0:
        raise ValueError("empty entry list")
    if not (np.isfinite(K).all() and np.isfinite(a).all() and np.isfinite(W).all()):
        raise ValueError("extremal_ratios needs finite K, a and W")
    if np.any(a == 0):
        raise ValueError("extremal_ratios needs nonzero actions")
    if not 0.0 <= tie_tol < 1.0:
        raise ValueError("tie_tol must lie in [0, 1)")


# overflowing products and ratios are left to the caller's finiteness check
@np.errstate(over="ignore", invalid="ignore")
def extremal_ratios(K: np.ndarray, a: np.ndarray, W: np.ndarray, use_max: bool,
                    tie_tol: float = 1e-12):
    """For each weight row w in W: extremum over entries of (K @ w) / a and
    the first (lexicographically smallest) entry index achieving it within
    tie_tol relative.

    In two dimensions, with at least RATIO_MIN_ROWS rows and more than one
    block of entries, each row scans only the blocks whose bound can reach
    the extremum; otherwise every row scans every entry. Either way the
    values and indices are bitwise those of the full scan.
    """
    K = np.asarray(K)
    if K.dtype != np.int64:   # int64 directions enter the products exactly
        K = np.ascontiguousarray(K, dtype=float)
    a = np.ascontiguousarray(a, dtype=float)
    W = np.ascontiguousarray(W, dtype=float)
    _check_ratio_inputs(K, a, W, tie_tol)
    (N, n), G = K.shape, W.shape[0]
    vals = np.empty(G, dtype=float)
    idxs = np.empty(G, dtype=np.int64)
    cols = [K[:, j] for j in range(n)]
    wl1 = float(np.abs(W).sum(axis=1).max(initial=0.0))
    plan = None
    if n == 2 and G >= RATIO_MIN_ROWS and N > RATIO_BLOCK \
            and max(float(K.max()), -float(K.min())) * wl1 < SCALE_CAP:
        plan = _blocks(K, a, wl1)
    if plan is None:
        for g in range(G):
            vals[g], idxs[g] = _scan(cols, a, W[g], use_max, tie_tol, None)
        return vals, idxs

    order, sorted_cols, a_sorted, starts, box, reps = plan
    sgn = 1.0 if use_max else -1.0
    floor = BOUND_FLOOR / min(1.0, float(np.abs(a).min()))
    for c0 in range(0, G, RATIO_CHUNK):
        Wc = W[c0:c0 + RATIO_CHUNK]
        first, stop = _candidate_ranges(K, a, Wc, sgn, tie_tol, box, reps, floor)
        for g, lo, hi in zip(range(c0, c0 + len(Wc)), starts[first], starts[stop]):
            vals[g], idxs[g] = _scan([c[lo:hi] for c in sorted_cols], a_sorted[lo:hi],
                                     W[g], use_max, tie_tol, order[lo:hi])
            if vals[g] == 0:
                # the sign of a zero extremum depends on the scan order
                vals[g], idxs[g] = _scan(cols, a, W[g], use_max, tie_tol, None)
    return vals, idxs
