"""Command-line frontend; every capability as a reproducible file emitter.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 numerical or any other internal failure.  Each emitted file is accompanied
by a ``<file>.manifest.json`` recording the subcommand, parameters, tool
version and a sha256 checksum of the payload bytes.  All output is deterministic:
numbers are formatted with 17 significant digits and no RNG runs anywhere.

Every payload streams through ``_emit`` as byte blocks (a field's text row by
row), hashed as it is written, and the manifest follows the complete payload;
so a subcommand's memory scales with its field, not with the field's text.
Everything that can refuse a run (sampling, finiteness, the domain checks)
runs before ``_emit``, which only formats and writes: a refused run leaves
neither a payload nor a manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, beams, quantum, vortex
from .beams import BeamGeometry
from .errors import EllipticOamError, GridError, InvalidModeError, UnnormalizedStateError
from .ince import ModeIndex, Parity, ince_ode_residual, solve_ince

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _emit(blocks, args, parameters: dict) -> None:
    """Write the payload's byte blocks in order to ``-o`` (or stdout), then the run manifest.

    Each block is written and fed to one sha256 as it comes, so no block
    outlives its write; the manifest is written once the payload is
    complete.
    """
    output = getattr(args, "output", None)
    if output:
        digest = hashlib.sha256()
        with open(output, "wb") as handle:
            for block in blocks:
                handle.write(block)
                digest.update(block)
        manifest = {
            "subcommand": args.command,
            "parameters": parameters,
            "tool_version": __version__,
            "checksum": digest.hexdigest(),
        }
        with open(f"{output}.manifest.json", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        sys.stdout.flush()  # raw bytes (a PGM is not text), in order with the text around them
        for block in blocks:
            sys.stdout.buffer.write(block)
        sys.stdout.buffer.flush()


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
    _emit([_json_bytes(document)], args, _params(args))
    return EXIT_OK


def cmd_decompose(args) -> int:
    mode = _mode_from(args)
    result = quantum.decompose(mode, args.epsilon)
    terms = [{"n": (mode.p - l) // 2, "l": l, "D": d} for l, d in result.terms]
    document = {
        "p": mode.p,
        "m": mode.m,
        "parity": mode.parity.value,
        "epsilon": args.epsilon,
        "terms": terms,
        "sum_sq": float(sum(t["D"] ** 2 for t in terms)),
    }
    _emit([_json_bytes(document)], args, _params(args))
    return EXIT_OK


def cmd_oam_curve(args) -> int:
    if not 0.0 < args.eps_min < math.inf:
        raise InvalidModeError(f"eps-min must be positive and finite, got {args.eps_min}")
    if not args.eps_min < args.eps_max < math.inf:
        raise InvalidModeError(f"eps-max must be finite and exceed eps-min, got {args.eps_max}")
    if args.steps < 3:
        raise InvalidModeError("need at least 3 steps")
    mode = ModeIndex(args.p, args.m, Parity.EVEN)
    other = ModeIndex(args.cross[0], args.cross[1], Parity.EVEN) if args.cross else None
    if args.log_spacing:
        grid = np.geomspace(args.eps_min, args.eps_max, args.steps)
    else:
        grid = np.linspace(args.eps_min, args.eps_max, args.steps)
    curve = quantum.oam_curve(mode, args.sign, grid)
    lines = ["epsilon,oam"]
    lines += [f"{_fmt(e)},{_fmt(v)}" for e, v in zip(curve.epsilons, curve.oam)]
    payload = ("\n".join(lines) + "\n").encode("utf-8")

    sidecar = {"turning_points": quantum.find_turning_points(curve)}
    if other is not None:
        partner = quantum.oam_curve(other, args.sign, grid)
        sidecar["crossings"] = {
            "partner": {"p": other.p, "m": other.m},
            "epsilons": quantum.find_crossings(curve, partner),
        }
    _emit([payload], args, _params(args))
    if args.output:
        with open(f"{args.output}.analysis.json", "w", encoding="utf-8") as handle:
            json.dump(sidecar, handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        sys.stdout.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _field_csv(field):
    """Yield the ``x,y,re,im`` header, then one block per grid row: a line per sample, as ``_fmt`` writes it.

    The axis values are formatted once, into one row template whose y
    placeholder (a letter no formatted float contains) each row replaces;
    the row's real and imaginary parts, interleaved in the field's float64
    view, fill it, and '%.17g' formats a float exactly as
    format(value, '.17g') does.  Only one row's text is alive at a time.
    """
    template = "".join(f"{_fmt(x)},y,%.17g,%.17g\n" for x in field.x_coords())
    yield b"x,y,re,im\n"
    for y, parts in zip(field.y_coords(), field.values.view(np.float64)):
        yield (template.replace("y", _fmt(y)) % tuple(parts.tolist())).encode("utf-8")


def _field_pgm(field):
    """Yield the 16-bit PGM header, then one big-endian row of intensity levels per grid row.

    The levels are rint(65535 |u|^2 / max |u|^2), built in place in one
    float64 plane.  The moduli are first scaled by the power of two that
    brings the largest |Re| or |Im| into [0.5, 1), so the peak square stays
    in range at any field scale (a waist of 1e-155 gives amplitudes near
    1e155); a power of two commutes with rounding, so wherever the unscaled
    squares were in range the levels are the same.
    """
    plane = np.abs(field.values)
    if field.max_part > 0.0:
        np.ldexp(plane, -math.frexp(field.max_part)[1], out=plane)
        np.square(plane, out=plane)
        peak = plane.max()
        np.multiply(plane, 65535.0, out=plane)
        np.divide(plane, peak, out=plane)
        np.rint(plane, out=plane)
    yield f"P5\n{field.nx} {field.ny}\n65535\n".encode("ascii")
    for row in plane:
        yield row.astype(">u2").tobytes()


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
    _emit(_field_csv(field) if args.format == "csv" else _field_pgm(field), args, _params(args))
    return EXIT_OK


def cmd_vortices(args) -> int:
    mode = ModeIndex(args.p, args.m, Parity.EVEN)
    census = vortex.vortex_census(
        mode,
        args.sign,
        [args.epsilon],
        args.resolution,
        waist=args.waist,
        wavenumber=args.wavenumber,
    )
    _, detections = census[0]
    semifocal = _geometry_from(args).semifocal(args.epsilon)
    document = {
        "p": mode.p,
        "m": mode.m,
        "sign": args.sign,
        "epsilon": args.epsilon,
        "resolution": args.resolution,
        "foci": [[semifocal, 0.0], [-semifocal, 0.0]],
        "vortices": [{"x": v.x, "y": v.y, "charge": v.charge} for v in detections],
    }
    _emit([_json_bytes(document)], args, _params(args))
    return EXIT_OK


def cmd_verify(args) -> int:
    # imported here: no other subcommand needs the battery, and every CLI
    # process pays to load what it imports (12 ms of a 0.25 s start, measured
    # on 2 CPUs with bytecode caching off)
    from . import verify

    report = verify.run_checks(args.level)
    _emit([report.render().encode("utf-8")], args, _params(args))
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _params(args) -> dict:
    """Every parsed option of the subcommand, as recorded in its manifest."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "output")}


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
