"""Command-line front end.

Subcommands: spectrum-direct, spectrum-variational, spectrum-reconstruct,
actions, legendre-dual, billiard-solve, billiard-crosscheck, minmax-certify.
Exit status 0 on success, 2 on validation errors, 3 on numerical failures.
Identical configurations produce byte-identical output files.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from .actions import ActionSpectrum, SurfaceActions, marked_action_spectrum
from .billiard import RADIAL_SHIFT, BilliardLevel, crosscheck_disk
from .catalog import parse_domain_spec
from .duality import hypersurface_transform
from .errors import ConfigError, EbkError
from .quantize import (
    direct_spectrum,
    minmax_certificate,
    reconstruction_spectrum,
    variational_spectrum,
)
from .surfaces import Orientation

DEFAULT_K_MAX = 100   # --k-max of a --profile surface's action spectrum


def _parse_shift(text: Optional[str]):
    if text is None:
        return None
    try:
        vals = [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"--shift expects comma separated numbers, got {text!r}") from exc
    if not vals:
        raise ConfigError("--shift needs comma separated numbers")
    return vals[0] if len(vals) == 1 else tuple(vals)


def _parse_lattice_point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--m expects comma separated integers, got {text!r}") from exc


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cell(value) -> str:
    """A CSV cell: None empty, a float as %.17g, a sequence joined by ";",
    else str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (list, tuple)):
        return ";".join(map(_cell, value))
    return str(value)


def _emit(args, doc, header, rows=None) -> None:
    """Write doc to --out as JSON under --format json, else the CSV of the
    header and the rows of cells (default: one row, doc's values under header)."""
    if args.format == "json":
        _write(args.out, _json_text(doc))
    else:
        rows = [[doc[key] for key in header]] if rows is None else rows
        _write(args.out, "".join(",".join(map(_cell, row)) + "\n"
                                 for row in [header, *rows]))


def _write(out: Optional[str], text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out!r}: {exc.strerror or exc}") from exc


def _read_text(path: str) -> str:
    """The file decoded as text mode would (the locale's encoding, CRLF and
    CR read as LF), from one bytes read: text mode holds a CRLF file's
    bytes, its decoded text and the translated text at once."""
    try:
        with open(path) as fh:   # for the encoding text mode would use
            data = fh.buffer.read()
        text = data.decode(fh.encoding)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read actions file {path!r}: {exc}") from exc
    del data
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_actions(args):
    """The --actions table or the --profile surface, under --orientation,
    and the degree: --degree, which defaults to a closed-form profile's own
    degree and may only repeat it; a table or a sampled curve takes 1."""
    degree = getattr(args, "degree", None)   # minmax-certify has none
    if args.actions:
        if args.profile is not None:
            raise ConfigError("give --profile or --actions, not both")
        if args.k_max is not None:
            raise ConfigError("--k-max does not apply to --actions: a table has its "
                              "own k_max")
        text = _read_text(args.actions)
        try:
            if args.actions.endswith(".json"):
                actions = ActionSpectrum.from_json(text)
            elif args.orientation is None:
                raise ConfigError("CSV action files need --orientation")
            else:
                actions = ActionSpectrum.from_csv(text, orientation=args.orientation)
            if len(actions) == 0:
                raise ConfigError("no entries")
        except ConfigError as exc:
            raise ConfigError(f"actions file {args.actions!r}: {exc}") from exc
    else:
        spec = parse_domain_spec(args.profile)
        actions = SurfaceActions(spec.make_surface(),
                                 DEFAULT_K_MAX if args.k_max is None else args.k_max)
        own = spec.profile.degree if spec.profile is not None else degree
        if degree not in (None, own):
            raise ConfigError(f"--degree {degree:g} contradicts the profile's own "
                              f"degree, {own:g}")
        degree = own
    return _oriented(actions, args.orientation), 1.0 if degree is None else degree


def _oriented(actions, orientation: Optional[str]):
    """The input under --orientation, which may repeat the input's own
    orientation and relabels a general one; contradicting a convex or
    concave input is a ConfigError."""
    own = (actions.surface if isinstance(actions, SurfaceActions) else actions).orientation
    if orientation is None or orientation == own.value:
        return actions
    if own is not Orientation.GENERAL:
        raise ConfigError(f"--orientation {orientation} contradicts the input's "
                          f"own orientation, {own.value}")
    table = actions.table() if isinstance(actions, SurfaceActions) else actions
    return ActionSpectrum(table.directions, table.actions, table.points, orientation,
                          table.k_max)


def _formatted(table, fmt: str) -> str:   # a spectrum or an action table
    return table.to_json() if fmt == "json" else table.to_csv()


def cmd_spectrum_direct(args) -> int:
    spec = parse_domain_spec(args.profile)
    spectrum = direct_spectrum(spec.require_profile(), args.m_max,
                               hbar=args.hbar, shift=_parse_shift(args.shift))
    _write(args.out, _formatted(spectrum, args.format))
    return 0


def cmd_spectrum_variational(args) -> int:
    actions, degree = _load_actions(args)
    spectrum = variational_spectrum(actions, args.m_max, degree=degree, hbar=args.hbar,
                                    shift=_parse_shift(args.shift))
    _write(args.out, _formatted(spectrum, args.format))
    return 0


def cmd_spectrum_reconstruct(args) -> int:
    actions, degree = _load_actions(args)
    # a surface's cloud is checked against the surface itself
    reference = actions.surface if isinstance(actions, SurfaceActions) else None
    spectrum, recon = reconstruction_spectrum(actions, args.m_max, degree=degree,
                                              hbar=args.hbar, shift=_parse_shift(args.shift),
                                              reference=reference)
    _write(args.out, _formatted(spectrum, args.format))
    if args.report:
        _write(args.report, _json_text(recon.report.to_json_dict()))
    return 0


def cmd_actions(args) -> int:
    surface = parse_domain_spec(args.profile).make_surface()
    _write(args.out, _formatted(marked_action_spectrum(surface, args.k_max), args.format))
    return 0


def cmd_legendre_dual(args) -> int:
    if args.samples < 1:
        raise ConfigError("--samples must be >= 1")
    spec = parse_domain_spec(args.profile)
    dual = hypersurface_transform(spec.make_surface())
    params = np.linspace(dual.param_lo, dual.param_hi, args.samples)
    points = dual.point(params)
    _emit(args, {"profile": spec.name, "params": params.tolist(), "points": points.tolist()},
          ["param", "x_1", "x_2"], np.column_stack([params, points]).tolist())
    return 0


def cmd_billiard_solve(args) -> int:
    n = args.n + (RADIAL_SHIFT if args.maslov else 0.0)
    level = BilliardLevel.solve(args.m, n, radius=args.radius, hbar=args.hbar)
    doc = {"m": level.m, "n": level.n, "F": level.momentum, "E": level.energy,
           "residual": level.residual, "radius": level.radius, "hbar": level.hbar}
    _emit(args, doc, ["m", "n", "F", "E", "residual"])
    return 0


def cmd_billiard_crosscheck(args) -> int:
    report = crosscheck_disk(args.m1, args.m2, k_max=args.k_max,
                             shift=_parse_shift(args.shift), hbar=args.hbar)
    doc = report.to_json_dict()
    _emit(args, doc, sorted(doc))
    return 0


def cmd_minmax_certify(args) -> int:
    actions, _ = _load_actions(args)
    cert = minmax_certificate(actions, args.energy, _parse_lattice_point(args.m),
                              shift=_parse_shift(args.shift), hbar=args.hbar,
                              ells=range(1, args.ell_max + 1))
    header = ["ell", "value", "direction", "multiple"]
    records = [dict(zip(header, (r.ell, r.value, list(r.direction), r.multiple)))
               for r in cert.records]
    doc = {"energy": cert.energy, "m": list(cert.m), "shift": list(cert.shift.values),
           "hbar": cert.hbar, "direction_constant": cert.direction_constant,
           "sign": cert.sign, "records": records}
    _emit(args, doc, header, [[record[key] for key in header] for record in records])
    return 0


def _add_common(p, *, hbar=True) -> None:
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if hbar:
        p.add_argument("--hbar", type=float, default=1.0)


def _add_profile(p, *, k_max=False, actions=False) -> None:
    p.add_argument("--profile", help="builtin name or JSON spec file")
    if k_max:
        # beside --actions, None tells an explicit --k-max from the default
        p.add_argument("--k-max", type=int, dest="k_max",
                       default=None if actions else DEFAULT_K_MAX,
                       help=f"default {DEFAULT_K_MAX}")
    if actions:
        p.add_argument("--actions", help="precomputed actions file (CSV or JSON)")
        p.add_argument("--orientation", choices=("convex", "concave", "general"),
                       help="orientation of a CSV actions file; elsewhere it may "
                            "repeat the input's own, or relabel a general one")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ConfigErrors, so main prints them
    as the one `error: ...` line of every other bad input and returns 2;
    the subcommands' parsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


def _direct(p) -> None:
    _add_profile(p)
    p.add_argument("--m-max", type=int, required=True, dest="m_max")
    p.add_argument("--shift")
    _add_common(p)
    p.set_defaults(fn=cmd_spectrum_direct)


def _variational(p) -> None:
    _add_profile(p, k_max=True, actions=True)
    p.add_argument("--m-max", type=int, required=True, dest="m_max")
    p.add_argument("--degree", type=float, help="default: the profile's own, else 1")
    p.add_argument("--shift")
    _add_common(p)
    p.set_defaults(fn=cmd_spectrum_variational)


def _reconstruct(p) -> None:
    _add_profile(p, k_max=True, actions=True)
    p.add_argument("--m-max", type=int, required=True, dest="m_max")
    p.add_argument("--degree", type=float, help="default: the profile's own, else 1")
    p.add_argument("--shift")
    p.add_argument("--report", help="write the reconstruction report JSON here")
    _add_common(p)
    p.set_defaults(fn=cmd_spectrum_reconstruct)


def _actions(p) -> None:
    _add_profile(p, k_max=True)
    _add_common(p, hbar=False)
    p.set_defaults(fn=cmd_actions)


def _legendre(p) -> None:
    _add_profile(p)
    p.add_argument("--samples", type=int, default=256)
    _add_common(p, hbar=False)
    p.set_defaults(fn=cmd_legendre_dual)


def _solve(p) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=float, required=True)
    p.add_argument("--maslov", action="store_true",
                   help=f"add the radial shift {RADIAL_SHIFT} to n")
    p.add_argument("--radius", type=float, default=1.0)
    _add_common(p)
    p.set_defaults(fn=cmd_billiard_solve)


def _crosscheck(p) -> None:
    p.add_argument("--m1", type=int, required=True)
    p.add_argument("--m2", type=int, required=True)
    p.add_argument("--k-max", type=int, default=2000, dest="k_max")
    p.add_argument("--shift")
    _add_common(p)
    # the report is a JSON document; CSV is the opt-in flattened form
    p.set_defaults(fn=cmd_billiard_crosscheck, format="json")


def _certify(p) -> None:
    _add_profile(p, k_max=True, actions=True)
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--m", required=True, help="lattice point, e.g. 1,1")
    p.add_argument("--ell-max", type=int, default=20, dest="ell_max")
    p.add_argument("--shift")
    _add_common(p)
    p.set_defaults(fn=cmd_minmax_certify)


# every subcommand once, in help order: name -> (help, adds its arguments)
COMMANDS = {
    "spectrum-direct": ("E_m = f(hbar(m+mu)) per lattice point", _direct),
    "spectrum-variational": ("extremal-ratio spectrum over marked actions", _variational),
    "spectrum-reconstruct": ("spectrum read off a surface rebuilt from k/a", _reconstruct),
    "actions": ("enumerate the marked action spectrum", _actions),
    "legendre-dual": ("sample the dual surface L(N)", _legendre),
    "billiard-solve": ("solve the radial phase equation", _solve),
    "billiard-crosscheck": ("toric route vs phase equation for the disk", _crosscheck),
    "minmax-certify": ("finite minmax certificate for the sign of E - E_m", _certify),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the named one alone: its
    --help, usage and errors read as in the whole parser, and it parses
    any argument list that starts with its name as the whole parser does."""
    ap = _Parser(
        prog="ebk",
        description="EBK spectra of toric domains: direct, variational, "
                    "and reconstruction routes, plus the disk billiard.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (text, add) in COMMANDS.items():
        if command in (None, name):
            add(sub.add_parser(name, help=text))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # only an unknown command, or none, needs every subcommand's parser
        args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None
                            ).parse_args(argv)
        # every subcommand with --profile needs it, or --actions where it has one
        if "profile" in vars(args) and args.profile is None \
                and getattr(args, "actions", None) is None:
            raise ConfigError("--profile (or --actions) is required")
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EbkError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
