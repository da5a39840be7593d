"""Command-line frontend; every capability as a reproducible file emitter.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 numerical or any other internal failure.  Each emitted file is accompanied
by a ``<file>.manifest.json`` recording the subcommand, parameters, tool
version and a sha256 checksum of the payload bytes.  All output is deterministic:
numbers are formatted with 17 significant digits and no RNG runs anywhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, beams, quantum, verify, vortex
from .beams import BeamGeometry
from .errors import EllipticOamError, GridError, InvalidModeError, UnnormalizedStateError
from .ince import ModeIndex, Parity, ince_ode_residual, solve_ince

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit(payload: bytes, args, parameters: dict) -> None:
    """Write payload (or print it) plus the run manifest."""
    output = getattr(args, "output", None)
    if output:
        with open(output, "wb") as handle:
            handle.write(payload)
        manifest = {
            "subcommand": args.command,
            "parameters": parameters,
            "tool_version": __version__,
            "checksum": hashlib.sha256(payload).hexdigest(),
        }
        with open(f"{output}.manifest.json", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        sys.stdout.write(payload.decode("utf-8", errors="replace"))


def _json_bytes(document: dict) -> bytes:
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")


def _mode_from(args) -> ModeIndex:
    return ModeIndex(args.p, args.m, Parity(args.parity))


def _geometry_from(args, z: float = 0.0) -> BeamGeometry:
    return BeamGeometry(waist=args.waist, wavenumber=args.wavenumber, z=z)


def cmd_solve_ince(args) -> int:
    mode = _mode_from(args)
    poly = solve_ince(mode, args.epsilon)
    document = {
        "p": mode.p,
        "m": mode.m,
        "parity": mode.parity.value,
        "epsilon": args.epsilon,
        "eigenvalue": poly.eigenvalue,
        "fourier": poly.fourier.tolist(),
        "harmonics": poly.harmonics.tolist(),
        "residual": ince_ode_residual(poly),
    }
    _emit(_json_bytes(document), args, _params(args, "p", "m", "parity", "epsilon"))
    return EXIT_OK


def cmd_decompose(args) -> int:
    mode = _mode_from(args)
    result = quantum.decompose(mode, args.epsilon)
    terms = [{"n": i.n, "l": i.l, "D": d} for i, d in result.terms]
    document = {
        "p": mode.p,
        "m": mode.m,
        "parity": mode.parity.value,
        "epsilon": args.epsilon,
        "terms": terms,
        "sum_sq": float(sum(t["D"] ** 2 for t in terms)),
    }
    _emit(_json_bytes(document), args, _params(args, "p", "m", "parity", "epsilon"))
    return EXIT_OK


def cmd_oam_curve(args) -> int:
    if args.eps_min <= 0.0:
        raise InvalidModeError(f"eps-min must be positive, got {args.eps_min}")
    if args.eps_max <= args.eps_min:
        raise InvalidModeError("eps-max must exceed eps-min")
    if args.steps < 2:
        raise InvalidModeError("need at least 2 steps")
    mode = ModeIndex(args.p, args.m, Parity.EVEN)
    if mode.m < 1:
        raise InvalidModeError("OAM curves need m >= 1")
    if args.log_spacing:
        grid = np.geomspace(args.eps_min, args.eps_max, args.steps)
    else:
        grid = np.linspace(args.eps_min, args.eps_max, args.steps)
    curve = quantum.oam_curve(mode, args.sign, grid)
    lines = ["epsilon,oam"]
    lines += [f"{_fmt(e)},{_fmt(v)}" for e, v in zip(curve.epsilons, curve.oam)]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    parameters = _params(args, "p", "m", "sign", "eps_min", "eps_max", "steps", "log_spacing")

    sidecar = {"turning_points": quantum.find_turning_points(curve)}
    if args.cross:
        other = ModeIndex(args.cross[0], args.cross[1], Parity.EVEN)
        if other.m < 1:
            raise InvalidModeError("crossing partner needs m >= 1")
        partner = quantum.oam_curve(other, args.sign, grid)
        sidecar["crossings"] = {
            "partner": {"p": other.p, "m": other.m},
            "epsilons": quantum.find_crossings(curve, partner),
        }
    _emit(payload, args, parameters)
    if args.output:
        with open(f"{args.output}.analysis.json", "w", encoding="utf-8") as handle:
            json.dump(sidecar, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        sys.stdout.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _field_callable(args, geometry):
    mode_kwargs = dict(p=args.p, m=args.m)
    if args.kind in ("even", "odd"):
        mode = ModeIndex(parity=Parity(args.kind), **mode_kwargs)
        return lambda x, y: beams.eval_ig(mode, args.epsilon, geometry, x, y)
    sign = "plus" if args.kind == "helical_plus" else "minus"
    mode = ModeIndex(parity=Parity.EVEN, **mode_kwargs)
    return lambda x, y: beams.eval_hig(mode, sign, args.epsilon, geometry, x, y)


def cmd_field(args) -> int:
    geometry = _geometry_from(args, z=args.z)
    field = beams.sample_grid(_field_callable(args, geometry), args.window, args.resolution)
    parameters = _params(
        args, "p", "m", "kind", "epsilon", "window", "resolution", "z", "format", "waist", "wavenumber"
    )
    if args.format == "csv":
        xs = field.x_coords()
        ys = field.y_coords()
        lines = ["x,y,re,im"]
        for iy in range(field.ny):
            for ix in range(field.nx):
                value = field.values[iy, ix]
                lines.append(f"{_fmt(xs[ix])},{_fmt(ys[iy])},{_fmt(value.real)},{_fmt(value.imag)}")
        payload = ("\n".join(lines) + "\n").encode("utf-8")
    else:
        intensity = np.abs(field.values) ** 2
        peak = intensity.max()
        levels = np.zeros_like(intensity, dtype=np.uint16)
        if peak > 0.0:
            levels = np.rint(65535.0 * intensity / peak).astype(np.uint16)
        header = f"P5\n{field.nx} {field.ny}\n65535\n".encode("ascii")
        payload = header + levels.astype(">u2").tobytes()
    _emit(payload, args, parameters)
    return EXIT_OK


def cmd_vortices(args) -> int:
    mode = ModeIndex(args.p, args.m, Parity.EVEN)
    if mode.m < 1:
        raise InvalidModeError("vortex detection needs a helical mode (m >= 1)")
    census = vortex.vortex_census(
        mode,
        args.sign,
        [args.epsilon],
        args.resolution,
        waist=args.waist,
        wavenumber=args.wavenumber,
    )
    _, detections = census[0]
    semifocal = args.waist * math.sqrt(args.epsilon / 2.0)
    document = {
        "p": mode.p,
        "m": mode.m,
        "sign": args.sign,
        "epsilon": args.epsilon,
        "resolution": args.resolution,
        "foci": [[semifocal, 0.0], [-semifocal, 0.0]],
        "vortices": [{"x": v.x, "y": v.y, "charge": v.charge} for v in detections],
    }
    _emit(
        _json_bytes(document),
        args,
        _params(args, "p", "m", "sign", "epsilon", "resolution", "waist", "wavenumber"),
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify.run_checks(args.level)
    payload = report.render().encode("utf-8")
    _emit(payload, args, _params(args, "level"))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _params(args, *names) -> dict:
    out = {}
    for name in names:
        value = getattr(args, name)
        if isinstance(value, (list, tuple)):
            value = list(value)
        out[name] = value
    return out


def _add_mode_arguments(parser, with_parity: bool = True):
    parser.add_argument("-p", type=int, required=True, help="mode order")
    parser.add_argument("-m", type=int, required=True, help="mode degree")
    if with_parity:
        parser.add_argument("--parity", choices=["even", "odd"], required=True)


def _add_geometry_arguments(parser):
    parser.add_argument("--waist", type=float, default=1.0, help="beam waist w(0)")
    parser.add_argument("--wavenumber", type=float, default=2.0 * math.pi, help="wavenumber k")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elliptic-oam",
        description="Ince-Gauss modes, LG decompositions, and photon OAM curves",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("solve-ince", help="eigenvalue and Fourier coefficients")
    _add_mode_arguments(sub)
    sub.add_argument("-e", "--epsilon", type=float, required=True)
    sub.add_argument("-o", "--output")
    sub.set_defaults(func=cmd_solve_ince)

    sub = commands.add_parser("decompose", help="Laguerre-Gauss expansion weights")
    _add_mode_arguments(sub)
    sub.add_argument("-e", "--epsilon", type=float, required=True)
    sub.add_argument("-o", "--output")
    sub.set_defaults(func=cmd_decompose)

    sub = commands.add_parser("oam-curve", help="OAM expectation over an ellipticity sweep")
    _add_mode_arguments(sub, with_parity=False)
    sub.add_argument("--sign", choices=["plus", "minus"], default="plus")
    sub.add_argument("--eps-min", type=float, required=True)
    sub.add_argument("--eps-max", type=float, required=True)
    sub.add_argument("--steps", type=int, default=512)
    sub.add_argument("--log-spacing", action="store_true")
    sub.add_argument("--cross", type=int, nargs=2, metavar=("P2", "M2"))
    sub.add_argument("-o", "--output")
    sub.set_defaults(func=cmd_oam_curve)

    sub = commands.add_parser("field", help="sampled transverse field")
    _add_mode_arguments(sub, with_parity=False)
    sub.add_argument("--kind", choices=["even", "odd", "helical_plus", "helical_minus"], required=True)
    sub.add_argument("-e", "--epsilon", type=float, required=True)
    sub.add_argument("--window", type=float, default=6.0, help="half-width of the sampling window")
    sub.add_argument("--resolution", type=int, default=256)
    sub.add_argument("--z", type=float, default=0.0)
    sub.add_argument("--format", choices=["csv", "pgm"], default="csv")
    _add_geometry_arguments(sub)
    sub.add_argument("-o", "--output")
    sub.set_defaults(func=cmd_field)

    sub = commands.add_parser("vortices", help="phase singularities of a helical mode")
    _add_mode_arguments(sub, with_parity=False)
    sub.add_argument("--sign", choices=["plus", "minus"], default="plus")
    sub.add_argument("-e", "--epsilon", type=float, required=True)
    sub.add_argument("--resolution", type=int, default=512)
    _add_geometry_arguments(sub)
    sub.add_argument("-o", "--output")
    sub.set_defaults(func=cmd_vortices)

    sub = commands.add_parser("verify", help="run the correctness battery")
    sub.add_argument("--level", choices=["fast", "full"], default="fast")
    sub.add_argument("-o", "--output")
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidModeError, UnnormalizedStateError, GridError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EllipticOamError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # exit 1 is reserved for a failed verification
        print(f"internal failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
