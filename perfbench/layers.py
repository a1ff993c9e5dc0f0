"""Outside-in layer trace of one ebk CLI invocation.

`install` replaces each traced function at the name its caller looks up
(a module attribute or a class attribute) with a wrapper that records a
span. A layer's self time is the duration of its spans minus the part that
their child spans cover, so the self times of all layers plus the root's
self time add up to the root span, which is `ebk.cli.main`.

Nothing under `src/` changes. A name the program no longer has is skipped
and listed in `missing`; a hook that fails on a changed return value is
listed in `hook_errors` and never fails the invocation.
"""
from __future__ import annotations

import functools
import inspect
import resource
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self.ratio_calls: list[tuple[int, int]] = []  # (entries, pairs)
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self._child_s = [0.0]   # child time of each open span, root sentinel

    def wrap(self, layer, fn, hook=None, snapshot=False, allocations=None):
        """`fn` timed as a span of `layer`; `hook(tracer, call, result,
        before)` records counts after a normal return. With `allocations`,
        the peak of the memory allocated during the call, as tracemalloc
        sees it (numpy reports its buffers there), is kept as that maximum."""
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self._snapshot() if snapshot else None
            if allocations:
                tracemalloc.start()
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self.self_s[layer] += dur - self._child_s.pop()
                self._child_s[-1] += dur
                if allocations:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.maxima[allocations] = max(self.maxima[allocations], peak)
            if hook is not None:
                try:
                    hook(self, sig.bind(*args, **kwargs).arguments, result, before)
                except Exception as exc:   # the trace must not fail the program
                    self.hook_errors.add(f"{layer}: {exc!r}")
            return result

        return wrapper

    def run_root(self, fn, *args):
        """Run `fn(*args)` as the root span."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.root_s = time.perf_counter() - t0
            self.root_self_s = self.root_s - self._child_s[0]

    def _snapshot(self) -> dict:
        return {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "attained": self.counts["surfaces.attained"]}

    def patch(self, owners, name, layer, hook=None, snapshot=False, allocations=None):
        """Wrap the function bound to `name` in every module of `owners`."""
        wrapped = {}
        for owner in owners:
            fn = getattr(owner, name, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{name}")
                continue
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.wrap(layer, fn, hook, snapshot, allocations)
            setattr(owner, name, wrapped[id(fn)])

    def patch_method(self, cls, name, layer, hook=None):
        raw = cls.__dict__.get(name)
        if raw is None:
            self.missing.append(f"{cls.__name__}.{name}")
        elif isinstance(raw, classmethod):
            setattr(cls, name, classmethod(self.wrap(layer, raw.__func__, hook)))
        else:
            setattr(cls, name, self.wrap(layer, raw, hook))

    def summary(self) -> dict:
        return {"root_s": self.root_s, "root_self_s": self.root_self_s,
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "maxima": dict(self.maxima), "ratio_calls": self.ratio_calls,
                "missing": self.missing, "hook_errors": sorted(self.hook_errors)}


# -- hooks: counts recorded at the boundary where the work happens --

def _enumerated(tr, call, result, before):
    tr.counts["kernels.directions"] += len(result)
    grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before["maxrss_kb"]
    tr.maxima["kernels.enumerate_rss_mb"] = max(tr.maxima["kernels.enumerate_rss_mb"],
                                               grew / 1024.0)


def _bisected(tr, call, result, before):
    tr.counts["kernels.bisect_targets"] += len(result)


def _ratios(tr, call, result, before):
    rows = len(call["K"])
    tr.ratio_calls.append((rows, rows * len(call["W"])))


def _inverted(tr, call, result, before):
    _, _, residuals, attained = result
    tr.counts["surfaces.attained"] += int(attained.sum())
    tr.counts["surfaces.not_attained"] += int((~attained).sum())
    if attained.any():
        tr.maxima["surfaces.max_residual"] = max(tr.maxima["surfaces.max_residual"],
                                                 float(residuals[attained].max()))


def _counter(key, size=len):
    def hook(tr, call, result, before):
        tr.counts[key] += size(result)
    return hook


def _built(tr, call, result, before):
    tr.counts["actions.rows"] += len(result)
    attained = tr.counts["surfaces.attained"] - before["attained"]
    tr.counts["actions.zero_dropped"] += max(attained - len(result), 0)


def _arg_length(key, name):
    def hook(tr, call, result, before):
        tr.counts[key] += len(call[name])
    return hook


def _maximum(key, value):
    def hook(tr, call, result, before):
        tr.maxima[key] = max(tr.maxima[key], value(result))
    return hook


def install(tracer: Tracer) -> None:
    import ebk
    import ebk.cli as cli
    from ebk import actions, billiard, catalog, duality, kernels, quantize, surfaces

    p, m = tracer.patch, tracer.patch_method
    p([kernels], "primitive_directions", "kernels.enumerate", _enumerated, snapshot=True,
      allocations="kernels.enumerate_bytes")
    p([kernels], "bisect_family", "kernels.bisect", _bisected)
    p([kernels], "bisect_generic", "kernels.bisect", _bisected)
    p([kernels], "extremal_ratios", "kernels.ratios", _ratios)

    m(surfaces.LevelSurface, "invert_normal_many", "surfaces.invert", _inverted)
    m(surfaces.LevelSurface, "radial_value", "surfaces.radial",
      _counter("surfaces.radial_calls", size=lambda r: 1))
    m(surfaces.LevelSurface, "from_points", "surfaces.from_points")

    p([cli, actions, billiard, ebk], "marked_action_spectrum", "actions.build",
      _built, snapshot=True)
    for name in ("to_json", "to_csv"):
        m(actions.ActionSpectrum, name, "actions.write", _counter("actions.write_bytes"))
    for name in ("from_json", "from_csv"):
        m(actions.ActionSpectrum, name, "actions.read",
          _arg_length("actions.read_bytes", "text"))

    p([cli], "variational_spectrum", "quantize.variational",
      _counter("quantize.levels", size=lambda r: len(r.energies)))
    p([cli], "reconstruction_spectrum", "quantize.reconstruction",
      _counter("quantize.levels", size=lambda r: len(r[0].energies)))
    p([cli], "minmax_certificate", "quantize.certificate")
    for name in ("to_json", "to_csv"):
        m(quantize.EbkSpectrum, name, "quantize.format")

    m(duality.PointCloud, "from_actions", "duality.cloud",
      _counter("duality.cloud_points"))
    p([cli, duality], "hypersurface_transform", "duality.transform",
      _counter("duality.nice_points", size=lambda r: len(r.knots)))
    p([quantize], "reconstruct_surface", "duality.reconstruct")
    p([duality], "hausdorff_distance", "duality.hausdorff",
      _maximum("duality.hausdorff", float))

    p([cli], "crosscheck_disk", "billiard.crosscheck",
      _maximum("billiard.abs_difference", lambda r: abs(r.difference)))
    m(billiard.BilliardLevel, "solve", "billiard.solve")

    p([cli], "parse_domain_spec", "catalog.parse")
    m(catalog.DomainSpec, "make_surface", "catalog.parse")

    p([cli], "_write", "cli.write", _arg_length("cli.out_bytes", "text"))
