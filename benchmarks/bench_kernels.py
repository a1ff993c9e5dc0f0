"""Compare the numba and numpy twins of the hot kernels, and the closed-form
Gauss-map inversion against the generic bisection.

Run as:  python benchmarks/bench_kernels.py
The numba column reads n/a when the jit backend is unavailable (numba not
installed, or EBK_NO_NUMBA set).
"""
import time

import numpy as np

from ebk import LevelSurface, kernels, pnorm_profile

K_MAX_ENUM = 1500
K_MAX_INVERT = 1500
K_MAX_RATIOS = 300
REPEAT = 3


def best_of(fn):
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def cases():
    yield (f"primitive_directions(2, {K_MAX_ENUM})",
           lambda force: kernels.primitive_directions(2, K_MAX_ENUM,
                                                      force=force))

    K = kernels.primitive_directions(2, K_MAX_RATIOS)
    a = np.linalg.norm(K, axis=1)
    W = np.stack(np.meshgrid(np.arange(9.0), np.arange(9.0)),
                 axis=-1).reshape(-1, 2) + 0.5
    yield (f"extremal_ratios({len(K):,} entries x {len(W)} points)",
           lambda force: kernels.extremal_ratios(K, a, W, True, force=force))


def inversion_row() -> None:
    """invert_normal_many on pnorm:4, closed form against bisect_generic on
    the same curve without its normal map."""
    closed = LevelSurface.from_profile(pnorm_profile(4.0))
    bisected = LevelSurface.from_parametrization(
        closed.point, closed.param_lo, closed.param_hi, normal_fn=closed.normal,
        orientation=closed.orientation)
    K = kernels.primitive_directions(2, K_MAX_INVERT)
    t_closed = best_of(lambda: closed.invert_normal_many(K))
    t_bisect = best_of(lambda: bisected.invert_normal_many(K))
    name = f"inversion(pnorm:4, {len(K):,} directions)"
    print(f"{'':52s} {'closed':>10s} {'bisect':>10s}")
    print(f"{name:52s} {t_closed:9.4f}s {t_bisect:9.4f}s {t_bisect / t_closed:7.1f}x")


def main() -> None:
    kernels.warmup()
    print(f"backend: {kernels.active_backend()}")
    print(f"{'kernel':52s} {'numpy':>10s} {'numba':>10s} {'speedup':>8s}")
    for name, fn in cases():
        t_np = best_of(lambda: fn("numpy"))
        if kernels.HAS_NUMBA:
            t_nb = best_of(lambda: fn("numba"))
            print(f"{name:52s} {t_np:9.4f}s {t_nb:9.4f}s {t_np / t_nb:7.1f}x")
        else:
            print(f"{name:52s} {t_np:9.4f}s {'n/a':>10s} {'n/a':>8s}")
    inversion_row()


if __name__ == "__main__":
    main()
