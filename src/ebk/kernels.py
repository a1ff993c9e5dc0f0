"""Hot numeric kernels.

  * primitive-direction enumeration and the sup/inf ratio reduction behind
    variational spectra each have a numba twin and a pure-numpy twin;
  * bisect_generic is a vectorized monotone bisection, numpy only.

Gauss-map inversion is closed form for the builtin families (pnorm and the
disk's boundary curve, see LevelSurface.normal_map). bisect_generic inverts
it only for curves without a closed form (spline and table curves); it also
evaluates a curve along a ray (LevelSurface.radial_value).

Backend selection: the numba path is used when numba imports cleanly and the
environment variable EBK_NO_NUMBA is unset (or "0"). Setting EBK_NO_NUMBA=1
forces the numpy path. EBK_THREADS, when set, caps the numba thread pool;
the numpy path is single-threaded either way. The twins agree to rounding,
and the ratio reduction bit for bit.
"""
from __future__ import annotations

import os

import numpy as np

_env_flag = os.environ.get("EBK_NO_NUMBA", "").strip()
_DISABLED = _env_flag not in ("", "0")

try:
    if _DISABLED:
        raise ImportError("numba disabled by EBK_NO_NUMBA")
    import numba as nb

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised via subprocess in tests
    nb = None
    HAS_NUMBA = False

if HAS_NUMBA:
    _threads = os.environ.get("EBK_THREADS", "").strip()
    if _threads:
        try:
            cap = max(1, int(_threads))
            nb.set_num_threads(min(cap, nb.config.NUMBA_NUM_THREADS))
        except (ValueError, RuntimeError):
            pass


def active_backend() -> str:
    return "numba" if HAS_NUMBA else "numpy"


def _resolve(force: str | None) -> str:
    if force is None:
        return active_backend()
    if force not in ("numba", "numpy"):
        raise ValueError("force must be 'numba', 'numpy', or None")
    if force == "numba" and not HAS_NUMBA:
        raise RuntimeError("numba backend requested but unavailable")
    return force


# Bisection runs a fixed schedule: the parameter interval halves each step,
# so 80 steps push the interval to ~1e-24 of its span, far below float
# resolution; the residual check happens at the call site.
BISECT_ITERS = 80
MAX_BISECT_ITERS = 200


# --- primitive integer directions ---

def primitive_directions_np(dimension: int, k_max: int) -> np.ndarray:
    """All gcd-1 nonnegative integer vectors with ||k||_inf <= k_max,
    lexicographically sorted. Shape (N, dimension), dtype int64."""
    axes = [np.arange(k_max + 1, dtype=np.int64)] * dimension
    grid = np.meshgrid(*axes, indexing="ij")
    K = np.stack([g.ravel() for g in grid], axis=1)
    g = K[:, 0]
    for j in range(1, dimension):
        g = np.gcd(g, K[:, j])
    return K[g == 1]


if HAS_NUMBA:

    @nb.njit(cache=True)
    def _gcd2(a, b):
        while b:
            a, b = b, a % b
        return a

    @nb.njit(cache=True, parallel=True)
    def _primitive_directions_2d_nb(k_max):
        counts = np.zeros(k_max + 1, dtype=np.int64)
        for i in nb.prange(k_max + 1):
            c = 0
            for j in range(k_max + 1):
                if _gcd2(i, j) == 1:
                    c += 1
            counts[i] = c
        offsets = np.zeros(k_max + 2, dtype=np.int64)
        for i in range(k_max + 1):
            offsets[i + 1] = offsets[i] + counts[i]
        out = np.empty((offsets[k_max + 1], 2), dtype=np.int64)
        # rows with first component i fill their own segment, so the result
        # stays lexicographically sorted whatever the thread schedule
        for i in nb.prange(k_max + 1):
            pos = offsets[i]
            for j in range(k_max + 1):
                if _gcd2(i, j) == 1:
                    out[pos, 0] = i
                    out[pos, 1] = j
                    pos += 1
        return out


def primitive_directions(dimension: int, k_max: int, force: str | None = None) -> np.ndarray:
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    backend = _resolve(force)
    if backend == "numba" and dimension == 2:
        return _primitive_directions_2d_nb(k_max)
    return primitive_directions_np(dimension, k_max)


def _bisect_vectorized(angle_of, lo, hi, targets, n_iter):
    a = np.full(targets.shape, lo, dtype=float)
    b = np.full(targets.shape, hi, dtype=float)
    span = hi - lo
    for _ in range(n_iter):
        mid = 0.5 * (a + b)
        right = angle_of(mid) < targets
        a = np.where(right, mid, a)
        b = np.where(right, b, mid)
        if float((b - a).max(initial=0.0)) <= 1e-17 * span:
            break
    return 0.5 * (a + b)


def bisect_generic(angle_fn, lo: float, hi: float, targets: np.ndarray,
                   n_iter: int = BISECT_ITERS, increasing: bool = True) -> np.ndarray:
    """Parameters t in [lo, hi] with angle_fn(t) = target, for a vectorized
    angle_fn monotone in the given sense. Targets outside the attained range
    clamp to the endpoints; the caller is responsible for the residual
    check."""
    targets = np.asarray(targets, dtype=float)
    n_iter = min(int(n_iter), MAX_BISECT_ITERS)
    if increasing:
        return _bisect_vectorized(angle_fn, float(lo), float(hi), targets, n_iter)
    return _bisect_vectorized(lambda t: -np.asarray(angle_fn(t)), float(lo), float(hi),
                              -targets, n_iter)


# --- extremal ratio reductions ---

def _extremal_ratios_np(K, a, W, use_max, tie_tol):
    G = W.shape[0]
    dim = K.shape[1]
    vals = np.empty(G, dtype=float)
    idxs = np.empty(G, dtype=np.int64)
    for g in range(G):
        # column-ordered accumulation, matching the numba twin bit for bit
        num = K[:, 0] * W[g, 0]
        for j in range(1, dim):
            num += K[:, j] * W[g, j]
        r = num / a
        best = r.max() if use_max else r.min()
        tol = tie_tol * max(1.0, abs(best))
        mask = (r >= best - tol) if use_max else (r <= best + tol)
        idx = int(np.argmax(mask))  # first hit in lexicographic entry order
        vals[g] = best
        idxs[g] = idx
    return vals, idxs


if HAS_NUMBA:

    @nb.njit(cache=True, parallel=True)
    def _extremal_ratios_nb(K, a, W, use_max, tie_tol):
        G = W.shape[0]
        N = K.shape[0]
        dim = K.shape[1]
        vals = np.empty(G, dtype=np.float64)
        idxs = np.empty(G, dtype=np.int64)
        for g in nb.prange(G):
            best = -np.inf if use_max else np.inf
            for i in range(N):
                num = 0.0
                for j in range(dim):
                    num += K[i, j] * W[g, j]
                r = num / a[i]
                if use_max:
                    if r > best:
                        best = r
                else:
                    if r < best:
                        best = r
            tol = tie_tol * max(1.0, abs(best))
            pick = -1
            for i in range(N):
                num = 0.0
                for j in range(dim):
                    num += K[i, j] * W[g, j]
                r = num / a[i]
                ok = (r >= best - tol) if use_max else (r <= best + tol)
                if ok:
                    pick = i
                    break
            vals[g] = best
            idxs[g] = pick
        return vals, idxs


def extremal_ratios(K: np.ndarray, a: np.ndarray, W: np.ndarray, use_max: bool,
                    tie_tol: float = 1e-12, force: str | None = None):
    """For each weight row w in W: extremum over entries of (K @ w) / a and
    the first (lexicographically smallest) entry index achieving it within
    tie_tol relative."""
    K = np.ascontiguousarray(K, dtype=float)
    a = np.ascontiguousarray(a, dtype=float)
    W = np.ascontiguousarray(W, dtype=float)
    if K.shape[0] == 0:
        raise ValueError("empty entry list")
    backend = _resolve(force)
    if backend == "numba":
        return _extremal_ratios_nb(K, a, W, use_max, tie_tol)
    return _extremal_ratios_np(K, a, W, use_max, tie_tol)


def warmup() -> None:
    """Compile (or load from cache) every numba kernel on tiny inputs."""
    if not HAS_NUMBA:
        return
    primitive_directions(2, 3)
    extremal_ratios(np.array([[1.0, 1.0]]), np.array([1.0]),
                    np.array([[1.0, 1.0]]), True)
