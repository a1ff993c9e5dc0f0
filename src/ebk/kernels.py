"""Hot numeric kernels, numpy only.

  * primitive_directions enumerates the gcd-1 integer directions; the
    action table and the disk crosscheck read the same sieve as a stream
    of lex-ordered chunks of index columns (_slabs), which their column
    arithmetic takes without a stack;
  * extremal_ratios is the sup/inf ratio reduction behind variational
    spectra, its ties relative to the extremum. In two dimensions, with many
    weight rows, on a table within a few ulps of a convex (sup) or concave
    (inf) chain along the angle of k, the ratio is unimodal in that angle up
    to a margin: each row bisects for its peak and walks out from it over
    the tie window. Other tables and rows, and rows whose window is too
    wide, scan every entry; values and indices are bitwise a full scan's;
  * lattice_search gives extremal_ratios' result on the action table of a
    strictly convex or concave planar curve truncated to a box, for most
    rows without building the table: one batched Stern-Brocot descent on
    the sign of p(k) x w finds the Farey neighbours of each row's peak, and
    a walk over the box's consecutive Farey terms covers the tie window;
  * both walks are _walk_out: each row's two sides step out in lockstep to
    a kept entry below _past_window of the best, and the lex-first tie is
    the least lex key in the window (the table index, or k0 (k_max + 1) + k1);
  * chord_gauge bounds the continuous extremum from the other side: the
    chord between two curve points whose cone holds w lies inside a convex
    level set (outside a concave one), so its gauge at w is an upper (lower)
    bound on the curve's. lattice_search takes the two points from the
    descent's final Farey pair, table_chords from an angle-sorted table;
  * bisect_generic is the package's one root finder for real 1-D
    monotone equations, vectorized, each target bisected to its fixed point;
  * _dot is the package's one row inner product <x, y>, summed in
    coordinate order over columns, so no result depends on memory layout.

Gauss-map inversion is closed form for the builtin families (pnorm, the
harmonic facet and the disk's boundary curve, see LevelSurface.normal_map),
and curves parametrized by polar angle meet each ray at the ray's own angle.
bisect_generic serves what has no closed form: the Gauss-map inversion of
spline and table curves, the sign changes of a general arc's sampled normal
against a direction (LevelSurface.invert_normal), the point on a ray of the
disk's boundary curve and of transform duals (LevelSurface.ray_parameter),
and the billiard's radial phase equation (billiard.solve_momentum).
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

RATIO_MIN_ROWS = 32   # fewer weight rows scan: not worth sorting the entries
TIE_TOL = 1e-12   # entries within TIE_TOL |best| of the extremum tie with it
FAREY_WALK_CAP = 256   # lockstep steps a side; then a row takes the table, or the scan
# relative: outweighs a chord's rounding (4 ulps); the shape check keeps the
# actions within twice it of an exactly convex chain
SHAPE_SLACK = 8 * 2.0 ** -52
# products and ratios between 1 / SCALE_CAP and SCALE_CAP cannot overflow or
# leave the normal range
SCALE_CAP = 1e290


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


def bisect_generic(angle_fn, lo, hi, targets: np.ndarray,
                   increasing: bool = True) -> np.ndarray:
    """Parameters t in [lo, hi] with angle_fn(t) = target, for a vectorized
    angle_fn monotone in the given sense; lo and hi are scalars or one per
    target (they broadcast against targets). Targets outside the attained
    range clamp to the endpoints; the caller is responsible for the residual
    check. A decreasing angle_fn is bisected as the increasing -angle_fn
    against -targets (negation is exact)."""
    sign = 1.0 if increasing else -1.0
    targets = sign * np.asarray(targets, dtype=float)
    a = np.array(np.broadcast_to(lo, targets.shape), dtype=float).ravel()
    b = np.array(np.broadcast_to(hi, targets.shape), dtype=float).ravel()
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

def _dot(cols, w):
    """The package's one row inner product: sum_j cols[j] * w[j] in
    coordinate order, from the coordinate columns cols (or a row's scalars)
    and one weight per column (a row's scalars, or arrays that broadcast
    against the columns). The bits do not depend on the memory layout."""
    num = cols[0] * w[0]
    for j in range(1, len(cols)):
        num += cols[j] * w[j]
    return num


def _ratio(cols, a, w):
    """(k . w) / a: the _dot of the direction columns, divided in place."""
    num = _dot(cols, w)
    return np.divide(num, a, out=num)


def _tied(r, best, use_max):
    """Where the ratios r lie within TIE_TOL |best| of the extremum best."""
    tol = TIE_TOL * np.abs(best)
    return (r >= best - tol) if use_max else (r <= best + tol)


def _past_window(x):
    """x less twice its tie window and a margin for ratios unimodal only up
    to rounding (so also at TIE_TOL = 0): below it, past the window of x
    twice over. Actions within 2 SHAPE_SLACK of an exactly convex chain (the
    check rounds by 6 ulps more), each ratio rounding by 3 ulps, leave the
    ratio unimodal up to under 7 SHAPE_SLACK."""
    return x - (2.0 * TIE_TOL + 8.0 * SHAPE_SLACK) * np.abs(x)


def _scan(cols, a, w, use_max):
    """Extremum of (cols . w) / a, and the first index in its tie window."""
    r = _ratio(cols, a, w)
    best = r.max() if use_max else r.min()
    return best, int(np.argmax(_tied(r, best, use_max)))


def _chord(k0, k1, a, i, j, l):
    """The chord of the actions of entries i and l at the direction of j,
    for positions (or slices) i < j < l of the angle order: ((k_j x k_l) a_i
    + (k_i x k_j) a_l) / (k_i x k_l), the cross products exact, the whole
    within 4 ulps."""
    (x0, y0), (x1, y1), (x2, y2) = ((k0[p], k1[p]) for p in (i, j, l))
    return ((x1 * y2 - y1 * x2) * a[i] + (x0 * y1 - y0 * x1) * a[l]) / (x0 * y2 - y0 * x2)


def _angle_order(K, a, use_max, passes):
    """The entries' order by the angle of k, and their columns (as floats)
    and actions in that order, where the walk applies; None elsewhere.

    It applies to N >= 3 int64 0 <= k < 2**26 (the cross products are exact
    in floats), consecutive k strictly turning, whose actions lie within
    2 SHAPE_SLACK, relative, of a chain of entries, the first and the last
    among them, along which a is exactly convex (sup; concave, inf). The
    chain starts as every entry; a pass drops every other entry of each run
    of consecutive ones not at most (sup; at least, inf) the chord of their
    neighbours times 1 -+ SHAPE_SLACK, which outweighs the chord's rounding.
    After `passes` passes the check gives up."""
    if K.dtype != np.int64 or len(K) < 3 or K.min() < 0 or K.max() >= 2 ** 26 \
            or a.min() <= 0:
        return None
    order = np.argsort(K[:, 1] / (K[:, 0] + K[:, 1]))
    (k0, k1), a = K[order].T.astype(float), a[order]
    if not (k0[:-1] * k1[1:] - k1[:-1] * k0[1:] > 0).all():
        return None
    N, sgn = len(a), 1.0 if use_max else -1.0

    def bent(i, j, l):
        return sgn * a[j] > sgn * (1.0 - sgn * SHAPE_SLACK) * _chord(k0, k1, a, i, j, l)

    on = np.ones(N, dtype=bool)   # the chain, linked by prv and nxt
    prv, nxt = np.arange(-1, N - 1), np.arange(1, N + 1)
    off = np.flatnonzero(bent(slice(0, -2), slice(1, -1), slice(2, None))) + 1
    for _ in range(passes):
        if not off.size:
            break
        run = np.ones(off.size, dtype=bool)
        run[1:] = prv[off[1:]] != off[:-1]
        at = np.arange(off.size)
        j = off[(at - np.maximum.accumulate(np.where(run, at, 0))) % 2 == 0]
        p, n = prv[j], nxt[j]
        nxt[p], prv[n], on[j] = n, p, False
        off = np.stack([p, n], axis=1).ravel()   # sorted: no two j are neighbours
        off = off[(off > 0) & (off < N - 1) & (off != np.roll(off, 1))]
        off = off[bent(prv[off], off, nxt[off])]
    if off.size:
        return None
    chain, gone = np.flatnonzero(on), np.flatnonzero(~on)
    left = np.cumsum(on)[gone] - 1    # the chain's entries on either side
    E = _chord(k0, k1, a, chain[left], gone, chain[left + 1])
    if (np.abs(a[gone] - E) > 2.0 * SHAPE_SLACK * E).any():
        return None
    return order, (k0, k1), a


def _walk_out(visit, advance, at):
    """Both 2-D walks. From the places `at` (a tuple of arrays, one entry
    per side: the first sides of rows 0 to G - 1, then the second ones)
    every side steps out in lockstep, advance(at) giving the next places
    and whether there is one, until it meets an entry below _past_window of
    its row's running best. visit(rows, at) reads the entries: sgn * ratio,
    nan where the entry is not kept (it neither counts nor stops a side),
    and a lex key.

    Returns per row the best sgn * ratio (-inf where none is kept), the
    least lex key in its tie window (the int64 maximum where none), and
    whether it is still walking after FAREY_WALK_CAP steps (a mask, as
    np.unique imports numpy.ma: milliseconds on a cold run)."""
    G = len(at[0]) // 2
    rows = np.tile(np.arange(G), 2)
    best, seen = np.full(G, -np.inf), []
    for _ in range(FAREY_WALK_CAP + 1):
        s, key = visit(rows, at)
        np.fmax.at(best, rows, s)
        seen.append((rows, s, key))
        on = ~(s < _past_window(best[rows]))
        at, more = advance(tuple(x[on] for x in at))
        rows, at = rows[on][more], tuple(x[more] for x in at)
        if not rows.size:
            break
    g, s, key = map(np.concatenate, zip(*seen))
    first = np.full(G, np.iinfo(np.int64).max)
    tied = _tied(s, best[g], True)
    np.minimum.at(first, g[tied], key[tied])
    return best, first, np.bincount(rows, minlength=G) > 0


def _angle_walk(order, cols, a, W, use_max):
    """extremal_ratios on entries in an angle order along which every row's
    s = sgn * ratio is unimodal up to _past_window's margin (_tied(s, best,
    True) is the scan's window: negation is exact). Each row bisects for its
    peak on the sign of s[m + 1] - s[m], then walks out from it (_walk_out),
    a side a position at a time, its lex key the entry's table index. Also
    returns which rows are still walking after FAREY_WALK_CAP steps, whose
    values and indices are unset."""
    sgn, (G, N) = (1.0 if use_max else -1.0), (len(W), len(a))

    def ratios(at, rows):   # s at the positions `at` for the weight rows `rows`
        return sgn * _ratio([c[at] for c in cols], a[at], W[rows].T)

    lo, hi = np.zeros(G, dtype=np.int64), np.full(G, N - 1)
    live = np.flatnonzero(lo < hi)
    while live.size:
        m = (lo[live] + hi[live]) // 2
        rising = ratios(m + 1, live) > ratios(m, live)
        lo[live[rising]], hi[live[~rising]] = m[rising] + 1, m[~rising]
        live = live[lo[live] < hi[live]]

    def visit(rows, at):
        return ratios(at[0], rows), order[at[0]]

    def advance(at):
        pos, step = at[0] + at[1], at[1]
        return (pos, step), (pos >= 0) & (pos < N)

    best, idx, capped = _walk_out(visit, advance, (np.tile(lo, 2), np.repeat([-1, 1], G)))
    return sgn * best, idx, capped


# overflowing products and ratios are left to the caller's finiteness check
@np.errstate(over="ignore", invalid="ignore")
def extremal_ratios(K: np.ndarray, a: np.ndarray, W: np.ndarray, use_max: bool):
    """For each weight row w in W: extremum over entries of (K @ w) / a and
    the first (lexicographically smallest) entry index achieving it within
    TIE_TOL relative.

    In two dimensions, with at least RATIO_MIN_ROWS rows, on a table within
    a few ulps of convex (sup) or concave (inf) along the angle of k
    (_angle_order), the rows w >= 0, w != 0 whose products and ratios lie in
    [1 / SCALE_CAP, SCALE_CAP] walk out from their peak (_angle_walk); the
    other rows, and those still walking after FAREY_WALK_CAP steps, scan
    every entry. Either way the values and indices are bitwise the full
    scan's: the walk computes the same ratios and visits the tie window.
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
    vals, idxs = np.empty(G, dtype=float), np.empty(G, dtype=np.int64)
    shape = _angle_order(K, a, use_max, G) if n == 2 and G >= RATIO_MIN_ROWS else None
    walk = np.zeros(G, dtype=bool)
    if shape is not None:
        (k0, k1), a_sorted = shape[1:]
        big = max(k0.max(), k1.max(), ((k0 + k1) / a_sorted).max()) * W.sum(axis=1)
        least = np.where(W > 0, W, np.inf).min(axis=1) * min(1.0, 1.0 / a_sorted.max())
        walk = (W >= 0).all(axis=1) & W.any(axis=1) & (big < SCALE_CAP) \
            & (least > 1.0 / SCALE_CAP)
    if walk.any():
        rows = np.flatnonzero(walk)
        vals[rows], idxs[rows], capped = _angle_walk(*shape, W[rows], use_max)
        walk[rows[capped]] = False
    cols = [K[:, j] for j in range(n)]
    for g in np.flatnonzero(~walk):
        vals[g], idxs[g] = _scan(cols, a, W[g], use_max)
    return vals, idxs


# --- the 2-D lattice extremum without the table ---

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


def _settle(invert, W, rows, L, R, k_max, sgn):
    """Walk the rows out from their box terms L, R (_walk_out), a side a
    Farey term at a time, its lex key k0 (k_max + 1) + k1; return the rows
    whose walk covered the tie window, their extremum and their first
    direction in lex order within the window."""
    def visit(g, at):
        K = at[0]
        _, a, keep = invert(K)
        s = np.where(keep, sgn * _ratio(K.T, a, W[rows[g]].T), np.nan)
        return s, K[:, 0] * (k_max + 1) + K[:, 1]

    def advance(at):   # at = (near, far): consecutive terms, far behind
        beyond, has = _farey_next(*at, k_max)
        return (beyond, at[0]), has

    best, first, capped = _walk_out(visit, advance, (np.concatenate([L, R]),
                                                     np.concatenate([R, L])))
    found = first < np.iinfo(np.int64).max
    found[capped] = False   # a capped walk may have missed entries
    hit = np.flatnonzero(found)
    return rows[hit], sgn * best[hit], np.stack(np.divmod(first[hit], k_max + 1), axis=1)


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
