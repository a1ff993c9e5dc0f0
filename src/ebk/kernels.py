"""Hot numeric kernels, numpy only.

  * primitive_directions enumerates the gcd-1 integer directions; the
    action table and the disk crosscheck read the same sieve as a stream
    of lex-ordered chunks of index columns (_slabs), which their column
    arithmetic takes without a stack;
  * extremal_ratios is the sup/inf ratio reduction behind variational
    spectra, its ties relative to the extremum. In two dimensions, with many
    weight rows, it scans for each row only the blocks of entries whose upper
    bound can reach the extremum; values and indices are bitwise those of a
    full scan;
  * lattice_search gives extremal_ratios' result on the action table of a
    strictly convex or concave planar curve truncated to a box, for most
    rows without building the table: one batched Stern-Brocot descent on
    the sign of p(k) x w finds the Farey neighbours of each row's peak, and
    a walk over the box's consecutive Farey terms covers the tie window;
  * chord_gauge bounds the continuous extremum from the other side: the
    chord between two curve points whose cone holds w lies inside a convex
    level set (outside a concave one), so its gauge at w is an upper (lower)
    bound on the curve's. lattice_search takes the two points from the
    descent's final Farey pair, table_chords from an angle-sorted table;
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
# resolution; the residual check happens at the call site. A target whose
# step leaves both ends unchanged has reached a fixed point and drops out,
# so its result is that of all 80 steps and does not depend on the other
# targets of the call (the action table inverts its directions in chunks).
BISECT_ITERS = 80

# Pruned ratio reduction: entries sorted by angle, cut into blocks of
# RATIO_BLOCK; bounds are evaluated RATIO_CHUNK weight rows at a time, and
# fewer than RATIO_MIN_ROWS rows are not worth the bounds.
RATIO_BLOCK = 256
RATIO_CHUNK = 32
RATIO_MIN_ROWS = 32
TIE_TOL = 1e-12   # entries within TIE_TOL |best| of the extremum tie with it
BOUND_SLACK = 1e-9     # relative to |x|_1 |w|_1; covers rounding of the scan
BOUND_FLOOR = 1e-290   # absolute; covers underflow
SCALE_CAP = 1e290      # |K| |w| and |K / a| |w| below this cannot overflow


# --- primitive integer directions ---

def _sieve(dimension: int, k_max: int) -> np.ndarray:
    """The (k_max + 1)^dimension boolean cube, true at the primitive
    directions.

    A vector is not primitive exactly when some prime p <= k_max divides
    every component, so clearing the sub-lattice p Z^dimension for each such
    p (and the origin) leaves the primitive ones.
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
    return keep


def _slabs(mask: np.ndarray, rows: int, lo: int = 0, hi: int | None = None):
    """The true cells of mask's first-coordinate slabs lo to hi as absolute
    index columns in C (= lex) order, one int64 array per coordinate, in
    chunks of whole slabs: as many as hold at most `rows` cells, at least one."""
    part = mask[lo:hi]
    ends = np.cumsum(part.reshape(len(part), -1).sum(axis=1))
    start = 0
    while start < len(part):
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + rows, side="right")))
        cols = np.nonzero(part[start:stop])
        cols[0][:] += lo + start
        yield cols
        start = stop


def primitive_directions(dimension: int, k_max: int) -> np.ndarray:
    """All gcd-1 nonnegative integer vectors with ||k||_inf <= k_max,
    lexicographically sorted. Shape (N, dimension), dtype int64,
    C-contiguous: a prime sieve on the (k_max + 1)^dimension cube, read out
    in C (= lex) order.
    """
    return np.stack(np.nonzero(_sieve(dimension, k_max)), axis=1)


def bisect_generic(angle_fn, lo: float, hi: float, targets: np.ndarray,
                   increasing: bool = True) -> np.ndarray:
    """Parameters t in [lo, hi] with angle_fn(t) = target, for a vectorized
    angle_fn monotone in the given sense. Targets outside the attained range
    clamp to the endpoints; the caller is responsible for the residual
    check. A decreasing angle_fn is bisected as the increasing -angle_fn
    against -targets (negation is exact)."""
    sign = 1.0 if increasing else -1.0
    targets = sign * np.asarray(targets, dtype=float)
    a = np.full(targets.size, float(lo))
    b = np.full(targets.size, float(hi))
    at = np.arange(targets.size)   # the live targets' places in a and b
    t, a_l, b_l = targets.ravel(), a.copy(), b.copy()
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (a_l + b_l)
        right = sign * angle_fn(mid) < t
        a1 = np.where(right, mid, a_l)
        b1 = np.where(right, b_l, mid)
        moved = (a1 != a_l) | (b1 != b_l)
        a_l, b_l = a1, b1
        if not moved.all():   # the rest stay where they are
            a[at], b[at] = a_l, b_l
            at, t, a_l, b_l = at[moved], t[moved], a_l[moved], b_l[moved]
            if not at.size:
                break
    a[at], b[at] = a_l, b_l
    return (0.5 * (a + b)).reshape(targets.shape)


# --- extremal ratio reduction ---

def _ratio(cols, a, w):
    """(k . w) / a from the direction columns cols and one weight per column
    (a row's scalars, or arrays that broadcast against the columns): the
    products summed in coordinate order, then one division in place."""
    num = cols[0] * w[0]
    for j in range(1, len(cols)):
        num += cols[j] * w[j]
    return np.divide(num, a, out=num)


def _tied(r, best, use_max):
    """Where the ratios r lie within TIE_TOL |best| of the extremum best."""
    tol = TIE_TOL * np.abs(best)
    return (r >= best - tol) if use_max else (r <= best + tol)


def _past_window(x):
    """x less twice its tie window: below it, past the window of x twice over."""
    return x - 2.0 * TIE_TOL * np.abs(x)


def _scan(cols, a, w, use_max, order):
    """Extremum of (cols . w) / a and the smallest original index within the
    tie window; order maps scan positions to original indices (None: the
    scan is in original order)."""
    r = _ratio(cols, a, w)
    best = r.max() if use_max else r.min()
    mask = _tied(r, best, use_max)
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


def _candidate_ranges(K, a, Wc, sgn, box, reps, floor):
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
    lower = (sgn * _ratio(K[reps].T, a[reps], Wc.T[:, :, None])).max(axis=1)
    hit = upper >= _past_window(lower)[:, None]
    first = hit.argmax(axis=1)
    last = hit.shape[1] - 1 - hit[:, ::-1].argmax(axis=1)
    return first, last + 1


# overflowing products and ratios are left to the caller's finiteness check
@np.errstate(over="ignore", invalid="ignore")
def extremal_ratios(K: np.ndarray, a: np.ndarray, W: np.ndarray, use_max: bool):
    """For each weight row w in W: extremum over entries of (K @ w) / a and
    the first (lexicographically smallest) entry index achieving it within
    TIE_TOL relative.

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
    if K.ndim != 2 or a.shape != (K.shape[0],) or W.ndim != 2 \
            or W.shape[1] != K.shape[1]:
        raise ValueError("extremal_ratios needs K (N, n), a (N,), W (G, n)")
    if K.shape[0] == 0:
        raise ValueError("empty entry list")
    if not (np.isfinite(K).all() and np.isfinite(a).all() and np.isfinite(W).all()):
        raise ValueError("extremal_ratios needs finite K, a and W")
    if np.any(a == 0):
        raise ValueError("extremal_ratios needs nonzero actions")
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
            vals[g], idxs[g] = _scan(cols, a, W[g], use_max, None)
        return vals, idxs

    order, sorted_cols, a_sorted, starts, box, reps = plan
    sgn = 1.0 if use_max else -1.0
    floor = BOUND_FLOOR / min(1.0, float(np.abs(a).min()))
    for c0 in range(0, G, RATIO_CHUNK):
        Wc = W[c0:c0 + RATIO_CHUNK]
        first, stop = _candidate_ranges(K, a, Wc, sgn, box, reps, floor)
        for g, lo, hi in zip(range(c0, c0 + len(Wc)), starts[first], starts[stop]):
            vals[g], idxs[g] = _scan([c[lo:hi] for c in sorted_cols], a_sorted[lo:hi],
                                     W[g], use_max, order[lo:hi])
            if vals[g] == 0:
                # the sign of a zero extremum depends on the scan order
                vals[g], idxs[g] = _scan(cols, a, W[g], use_max, None)
    return vals, idxs


# --- the 2-D lattice extremum without the table ---

FAREY_WALK_CAP = 256   # Farey terms walked per side before a row takes the table
DESCENT_ROUNDS = 200   # runs per row; a continued fraction below 2**63 has < 95
COARSE_BOX = 64        # the descent starts from this box's Farey terms


def _run_length(A, B, k_max):
    """Per row, the largest t >= 0 with A + t B in the box [0, k_max]^2,
    for A in the box and B >= 0 nonzero."""
    return np.where(B > 0, (k_max - A) // np.maximum(B, 1), k_max).min(axis=1)


def _farey_next(near, far, k_max):
    """For consecutive Farey terms far, near of the box (|far x near| = 1),
    the term beyond near: t near - far with the largest t in the box, and
    whether there is one (near is not the last term of its side)."""
    t = np.where(near > 0, (k_max + far) // np.maximum(near, 1), 2 * k_max + 2)
    x = t.min(axis=1, keepdims=True) * near - far
    return x, (x >= 0).all(axis=1)


def _lex_first_kept(invert, k_max):
    """The lexicographically first kept direction of the box and its
    action, or None when the box keeps none; scans the box in lex order,
    in blocks of first components of doubling width."""
    lo, width = 0, 1
    while lo <= k_max:
        hi = min(lo + width, k_max + 1)
        k0, k1 = np.divmod(np.arange(lo * (k_max + 1), hi * (k_max + 1)), k_max + 1)
        K = np.stack([k0, k1], axis=1)[np.gcd(k0, k1) == 1]
        _, a, keep = invert(K)
        if keep.any():
            i = int(np.argmax(keep))
            return K[i], a[i]
        lo, width = hi, 2 * width
    return None


def _cross(p, W, sgn):
    """sgn * (p x w) row by row: positive where the peak lies beyond k."""
    return sgn * (p[:, 0] * W[:, 1] - p[:, 1] * W[:, 0])


def _bracket(invert, W, k_max, sgn):
    """Starting pairs for the descent: per row, the consecutive terms of
    the coarse box [0, COARSE_BOX]^2 between which the sign of sgn * (p x w)
    turns, located by the polar angle of p and confirmed by the sign
    itself. Rows it does not confirm start from the whole quadrant,
    L = (1, 0) and R = (0, 1)."""
    G = len(W)
    L = np.tile(np.array([1, 0], dtype=np.int64), (G, 1))
    R = np.tile(np.array([0, 1], dtype=np.int64), (G, 1))
    K = primitive_directions(2, min(k_max, COARSE_BOX))
    K = K[np.argsort(np.arctan2(K[:, 1], K[:, 0]))]    # (1, 0) first, (0, 1) last
    p = invert(K)[0]
    key = sgn * np.arctan2(p[:, 1], p[:, 0])   # the curve's angle runs with sgn
    if not (np.isfinite(key).all() and (np.diff(key) >= 0).all()):
        return L, R
    j = np.clip(np.searchsorted(key, sgn * np.arctan2(W[:, 1], W[:, 0])), 1, len(K) - 1)
    ok = (j == 1) | (_cross(p[j - 1], W, sgn) > 0)
    ok &= (j == len(K) - 1) | ~(_cross(p[j], W, sgn) > 0)
    L[ok], R[ok] = K[j[ok] - 1], K[j[ok]]
    return L, R


def _descend(invert, W, L, R, k_max, sgn):
    """Batched Stern-Brocot descent from consecutive Farey terms L < R
    around the peak, where sgn * (p(k) x w) turns from positive to not, to
    the consecutive terms of the box around it; also the rows that met an
    unattained direction (no sign to follow). L and R move in place.

    A round moves one end by a whole run, end + t * other, t the largest
    step whose direction stays on that end's side: probed at 1, 2, 4, ...
    then bisected, all rows in lockstep (most runs are short). The ends
    alternate, so after the first round the mediant is known to lie on the
    moving end's side, and a row is done when the mediant leaves the box.
    """
    lost = np.zeros(len(W), dtype=bool)
    live = np.arange(len(W))
    for rnd in range(DESCENT_ROUNDS):
        move_left = rnd % 2 == 0
        end, other = (L, R) if move_left else (R, L)
        tmax = _run_length(end[live], other[live], k_max)
        live, tmax = live[tmax >= 1], tmax[tmax >= 1]
        if not live.size:
            break
        lo = np.full_like(tmax, min(rnd, 1))   # a step known to stay on the side
        hi = tmax + 1                            # one known not to, or out of the box
        gallop = np.ones(live.size, dtype=bool)
        while True:
            sel = np.flatnonzero(hi - lo > 1)
            if not sel.size:
                break
            lo_s, hi_s = lo[sel], hi[sel]
            t = np.where(gallop[sel], np.minimum(np.maximum(2 * lo_s, 1), hi_s - 1),
                         (lo_s + hi_s) // 2)
            g = live[sel]
            cross = _cross(invert(end[g] + t[:, None] * other[g])[0], W[g], sgn)
            lost[g] |= np.isnan(cross)
            ahead = (cross > 0) == move_left
            lo[sel] = np.where(ahead, t, lo_s)
            hi[sel] = np.where(ahead, hi_s, t)
            gallop[sel] &= ahead
        end[live] += lo[:, None] * other[live]
        live = live[~lost[live]]
    else:
        lost[live] = True
    return lost


def _walk(invert, W, L, R, k_max, sgn):
    """Visit L and R, then the Farey terms beyond them outward, skipping
    dropped directions, until each side meets a kept entry below the tie
    window twice over (or runs out of terms).

    Returns the best sgn * ratio per row; the rows, directions and ratios
    of the kept entries visited; and the rows still walking after
    FAREY_WALK_CAP terms on a side.
    """
    near, far = [L, R], [R.copy(), L.copy()]   # side 0 walks left, side 1 right
    walking = [np.arange(len(W)), np.arange(len(W))]
    best = np.full(len(W), -np.inf)
    rows = [np.empty(0, dtype=np.int64)]
    dirs = [np.empty((0, 2), dtype=np.int64)]
    ratios = [np.empty(0)]
    for step in range(FAREY_WALK_CAP + 1):
        if step:   # step 0 visits L and R themselves
            for side in (0, 1):
                g = walking[side]
                nxt, has = _farey_next(near[side][g], far[side][g], k_max)
                g = walking[side] = g[has]
                far[side][g] = near[side][g]
                near[side][g] = nxt[has]
        g = np.concatenate(walking)
        if not g.size:
            break
        K = np.concatenate([near[0][walking[0]], near[1][walking[1]]])
        _, a, keep = invert(K)
        g, K = g[keep], K[keep]
        r = _ratio(K.T, a[keep], W[g].T)
        np.maximum.at(best, g, sgn * r)
        rows.append(g)
        dirs.append(K)
        ratios.append(r)
        below = np.zeros(len(keep), dtype=bool)
        below[keep] = sgn * r < _past_window(best[g])
        n0 = len(walking[0])
        walking = [walking[0][~below[:n0]], walking[1][~below[n0:]]]
    return best, *map(np.concatenate, (rows, dirs, ratios)), np.concatenate(walking)


def _settle(invert, W, rows, L, R, k_max, sgn):
    """Walk the rows from their box terms L, R; return the rows whose walk
    covered the tie window, their extremum and their first direction in
    lex order within the window."""
    best, seen, K, r, capped = _walk(invert, W[rows], L, R, k_max, sgn)
    best *= sgn
    window = _tied(r, best[seen], sgn > 0)
    seen, K = seen[window], K[window]
    order = np.lexsort((K[:, 1], K[:, 0], seen))
    hit, first_of_row = np.unique(seen[order], return_index=True)
    whole = ~np.isin(hit, capped)      # a capped walk may have missed entries
    hit, first_of_row = hit[whole], first_of_row[whole]
    return rows[hit], best[hit], K[order[first_of_row]]


def chord_gauge(P, Q, W):
    """Per row, the gauge at w of the line through the points p and q (rows
    of P, Q and W): <w, nu> / <p, nu> for nu normal to the chord q - p,
    written as (w x d) / (p x d) with d = q - p, which has no cancellation
    when p and q are close. nan where w is not in the closed cone of p and
    q, is zero, or the line passes through the origin.

    For p, q on the boundary of a convex level set N the chord lies in N,
    so the value is at least the gauge of N at w; for p, q on a concave
    curve the chord lies beyond it, and the value is at most the curve's.
    """
    d = Q - P
    den = P[:, 0] * d[:, 1] - P[:, 1] * d[:, 0]     # p x q
    gauge = (W[:, 0] * d[:, 1] - W[:, 1] * d[:, 0]) / den
    # w = alpha p + beta q with alpha, beta >= 0: p x w and w x q share
    # the sign of p x q (or vanish)
    inside = (P[:, 0] * W[:, 1] - P[:, 1] * W[:, 0]) * den >= 0
    inside &= (W[:, 0] * Q[:, 1] - W[:, 1] * Q[:, 0]) * den >= 0
    return np.where(inside & (gauge > 0) & np.isfinite(gauge), gauge, np.nan)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def table_chords(points, W, use_max):
    """chord_gauge per row of W over two table points consecutive in polar
    angle, the points sorted by angle once; nan everywhere for fewer than
    two points or outside the plane.

    The pair is the descent's: p(L), p(R) in Farey order, sgn (p(L) x w) > 0
    >= sgn (p(R) x w) (sgn -1 on the concave inf route, where the point's
    angle falls as the direction's rises), else the first whose closed cone
    holds w, as where w lies on the ray of an axis point. So a kept pair of
    a searched row gives its bound bitwise. The angles and the cross
    products may round apart where w lies on a point's ray, so the pairs
    beside the one the angles pick are tried too."""
    W = np.asarray(W, dtype=float)
    chord = np.full(len(W), np.nan)
    if points.ndim != 2 or points.shape[1] != 2 or len(points) < 2:
        return chord
    theta = np.arctan2(points[:, 1], points[:, 0])
    order = np.argsort(theta, kind="stable")
    j = np.searchsorted(theta[order], np.arctan2(W[:, 1], W[:, 0]))
    sgn = 1.0 if use_max else -1.0
    closed = np.full(len(W), np.nan)
    for i in (j, j - 1, j + 1):
        i = np.clip(i, 1, len(points) - 1)
        P, Q = points[order[i - 1]], points[order[i]]
        if not use_max:
            P, Q = Q, P
        found = chord_gauge(P, Q, W)
        strict = _cross(P, W, sgn) > 0
        chord = np.where(np.isnan(chord) & strict, found, chord)
        closed = np.where(np.isnan(closed), found, closed)
    return np.where(np.isnan(chord), closed, chord)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def farey_chords(invert, W, k_max, use_max):
    """The Stern-Brocot descent of the box [0, k_max]^2 for the nonzero
    rows of W whose products cannot overflow: the rows it settles, their
    final consecutive Farey terms L < R around the peak, and per row of W
    the chord_gauge of the kept points p(L), p(R), inverted in one call
    (nan where either is dropped, and on the other rows). invert is
    lattice_search's."""
    sgn = 1.0 if use_max else -1.0
    rows = np.flatnonzero(W.any(axis=1) & (k_max * W.sum(axis=1) < SCALE_CAP))
    L, R = _bracket(invert, W[rows], k_max, sgn)
    found = ~_descend(invert, W[rows], L, R, k_max, sgn)
    rows, L, R = rows[found], L[found], R[found]
    pts, _, keep = invert(np.concatenate([L, R]))
    n = len(rows)
    chord = np.full(len(W), np.nan)
    chord[rows] = np.where(keep[:n] & keep[n:], chord_gauge(pts[:n], pts[n:], W[rows]),
                           np.nan)
    return rows, L, R, chord


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def lattice_search(invert, W: np.ndarray, k_max: int, use_max: bool):
    """extremal_ratios over the action table of a strictly convex (sup) or
    concave (inf) planar curve truncated to the box [0, k_max]^2, for the
    rows the curve settles, without the table, with a bound from the other
    side.

    invert(K) maps an (M, 2) int64 array of primitive directions k >= 0 to
    (points, actions, keep) in the table's own arithmetic: the curve point
    whose normal is along k (nan where none is), the action <p, k> > 0, and
    whether the table keeps the row; it raises where the table would. The
    rows of W are nonnegative. Returns (vals, args, rest, chord): the
    extremum and the direction achieving it, shape (G, 2), bitwise what
    extremal_ratios gives on the lex-ordered table of every kept primitive
    k with ||k||_inf <= k_max, except on the rows listed in rest, which are
    left to that table and whose vals and args are unset; and per row the
    farey_chords value, nan where there is none. None when that table would
    be empty.

    The ratio is unimodal in the angle of k, and the sign of p(k) x w tells
    on which side of the peak k lies, so one Stern-Brocot descent finds the
    consecutive Farey terms of the box around the peak. A walk outward from
    them visits every entry of the tie window; it stops a side at a kept
    entry below the window twice over, past which the ratio only falls.
    Rows with w = 0 take the first kept direction, as the scan does. Rows
    whose products could overflow, that meet an unattained direction in the
    descent, are still walking after FAREY_WALK_CAP terms on a side, or
    find no kept entry, are left to the table.
    """
    W = np.ascontiguousarray(W, dtype=float)
    if W.ndim != 2 or W.shape[1] != 2 or not (np.isfinite(W).all() and (W >= 0).all()):
        raise ValueError("the lattice search needs finite nonnegative W (G, 2)")
    k_max = int(k_max)
    if k_max < 1:
        raise ValueError("the box needs k_max >= 1")
    first = _lex_first_kept(invert, k_max)
    if first is None:
        return None
    rows, L, R, chord = farey_chords(invert, W, k_max, use_max)
    vals = np.empty(len(W))
    args = np.empty((len(W), 2), dtype=np.int64)
    done = ~W.any(axis=1)
    vals[done] = _ratio(first[0], first[1], W[done].T)
    args[done] = first[0]
    hit, best, arg = _settle(invert, W, rows, L, R, k_max, 1.0 if use_max else -1.0)
    vals[hit], args[hit], done[hit] = best, arg, True
    return vals, args, np.flatnonzero(~done), chord
