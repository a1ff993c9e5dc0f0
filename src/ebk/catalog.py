"""Profile and surface specs for the command line.

Builtin names: harmonic:w1,...,wn  pnorm:s  power:s,d  circle  ramos.
Anything else is read as a JSON file:

    { "kind": "linear"|"pnorm"|"superellipse"|"ramos"|"custom-table",
      "params": {...}, "degree": d, "dimension": n }

linear takes params.weights, pnorm/superellipse take params.s, custom-table
takes params.table as [t, x, y] rows (a sampled curve; no closed-form
profile, so only surface-based subcommands accept it). Every other kind
inverts its Gauss map in closed form and declares its orientation (linear
general, ramos concave, the others convex). "degree" sets the homogeneity
of pnorm and superellipse; the other kinds have degree 1 and take no other
value. "dimension": 3 takes linear,
pnorm or superellipse, the kinds whose Gauss-map inverse has a closed form
in any dimension.
A spec entry of the wrong type is a ConfigError.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .billiard import RamosCurve, disk_profile
from .errors import ConfigError, InsufficientResolution, NonGraphical
from .profiles import ToricProfile, linear_profile, pnorm_profile
from .surfaces import LevelSurface


@dataclass(frozen=True)
class DomainSpec:
    """A parsed --profile argument: closed-form profile, surface recipe, or both.

    surface_factory takes no arguments; make_surface calls it, so each call
    builds a fresh surface.
    """

    name: str
    profile: Optional[ToricProfile]
    surface_factory: Callable[[], LevelSurface]

    def make_surface(self) -> LevelSurface:
        return self.surface_factory()

    def require_profile(self) -> ToricProfile:
        if self.profile is None:
            raise ConfigError(
                f"profile '{self.name}' has no closed-form evaluation; "
                "only surface-based subcommands accept it")
        return self.profile


def _spec_from_profile(name: str, profile: ToricProfile) -> DomainSpec:
    return DomainSpec(name=name, profile=profile,
                      surface_factory=partial(LevelSurface.from_profile, profile))


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"could not parse {what} from {text!r}") from exc


def _spec_number(value, what: str, cast=float):
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} must be a number, got {value!r}") from exc


def _table_surface(pts: np.ndarray) -> LevelSurface:
    """The curve fitted through a custom table; a table the fit rejects is
    bad input."""
    try:
        return LevelSurface.from_points(pts)
    except (InsufficientResolution, NonGraphical) as exc:
        raise ConfigError(f"params.table: {exc}") from exc


def parse_domain_spec(spec: str) -> DomainSpec:
    """Resolve a --profile argument to a DomainSpec."""
    if not spec:
        raise ConfigError("empty profile spec")
    head, _, tail = spec.partition(":")
    if head == "harmonic" or head == "linear":
        weights = _parse_floats(tail, "harmonic weights")
        if len(weights) < 1:
            raise ConfigError("harmonic profile needs weights, e.g. harmonic:1,2")
        return _spec_from_profile(spec, linear_profile(weights))
    if head == "pnorm":
        vals = _parse_floats(tail, "pnorm exponent")
        if len(vals) != 1:
            raise ConfigError("pnorm takes one exponent, e.g. pnorm:4")
        return _spec_from_profile(spec, pnorm_profile(vals[0]))
    if head == "power":
        vals = _parse_floats(tail, "power parameters")
        if len(vals) != 2:
            raise ConfigError("power takes s,d — e.g. power:2,2")
        return _spec_from_profile(spec, pnorm_profile(vals[0], degree=vals[1]))
    if spec == "circle":
        return _spec_from_profile("circle", pnorm_profile(2.0))
    if spec == "ramos":
        return DomainSpec(name="ramos", profile=disk_profile(),
                          surface_factory=RamosCurve)
    if os.path.exists(spec) or spec.endswith(".json"):
        return load_domain_file(spec)
    raise ConfigError(
        f"unknown profile {spec!r}; builtins are harmonic:w1,...,wn, "
        "pnorm:s, power:s,d, circle, ramos, or a JSON spec file")


def load_domain_file(path: str) -> DomainSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read profile file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigError(f"{path!r} must be an object with a 'kind' field")
    kind = doc["kind"]
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    degree = _spec_number(doc.get("degree", 1.0), "degree")
    if degree != 1.0 and kind in ("linear", "ramos", "custom-table"):
        raise ConfigError(f"a {kind} spec has degree 1, got {degree!r}")
    dimension = _spec_number(doc.get("dimension", 2), "dimension")
    if not dimension.is_integer():
        raise ConfigError(f"dimension must be an integer, got {dimension!r}")
    dimension = int(dimension)
    name = f"{kind}@{os.path.basename(path)}"

    if kind == "linear":
        weights = params.get("weights")
        if not weights or not isinstance(weights, list):
            raise ConfigError("linear spec needs params.weights as a list")
        if len(weights) != dimension:
            raise ConfigError("params.weights length must match dimension")
        return _spec_from_profile(name, linear_profile(
            [_spec_number(w, "params.weights entries") for w in weights]))
    if kind in ("pnorm", "superellipse"):
        if "s" not in params:
            raise ConfigError(f"{kind} spec needs params.s")
        profile = pnorm_profile(_spec_number(params["s"], "params.s"),
                                dimension=dimension, degree=degree)
        return _spec_from_profile(name, profile)
    if kind == "ramos":
        return DomainSpec(name=name, profile=disk_profile(),
                          surface_factory=RamosCurve)
    if kind == "custom-table":
        table = params.get("table")
        if not table:
            raise ConfigError("custom-table spec needs params.table rows [t, x, y]")
        try:
            rows = np.asarray(table, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"params.table cells must be numbers: {exc}") from exc
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ConfigError("params.table rows must be [t, x, y]")
        pts = rows[np.argsort(rows[:, 0], kind="stable"), 1:]
        return DomainSpec(name=name, profile=None,
                          surface_factory=partial(_table_surface, pts))
    raise ConfigError(f"unknown profile kind {kind!r} in {path!r}")
