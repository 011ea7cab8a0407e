"""Command-line front end: bounds, constructions, certificates, search.

Every output file embeds a run manifest (command, argv, tolerance,
seed, version, timestamp); numeric payloads are functions of the
manifest minus its timestamp, so reruns reproduce them bit for bit.
JSON is written on one line by ``json.dumps``: each float appears as its
shortest round-trip repr and reads back as the same double, still a
float.  Exit codes: 0 success, 1 violated precondition
(machine-readable error object on stdout), 2 broken input files or I/O.
"""

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from lp_extremal import __version__
from lp_extremal.bounds import PROVEN_EXPONENTS, BoundRow, bound_sweep, epsilon_threshold
from lp_extremal.construct import build_configuration
from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import DEFAULT_TOL, Configuration, is_equilateral, ratio_report
from lp_extremal.radon import audit_chain, certificate_bound, radon_partition
from lp_extremal.search import minimize_ratio

__all__ = ["main"]

SCHEMA_VERSION = 1

# configurations above this dimension skip the O(m^2 n) achieved-ratio
# cross-check in `construct` output; the closed form is still reported
ACHIEVED_RATIO_DIM_CAP = 1024


class _InputError(Exception):
    """Unreadable or structurally invalid input file (exit code 2)."""


def _manifest(args, argv) -> dict:
    """Provenance block embedded in every CLI output."""
    return {
        "command": args.command,
        "argv": list(argv),
        "tol": getattr(args, "tol", None),
        "rng_seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _dumps(value) -> str:
    """One line of JSON; a non-finite float is a ValueError."""
    return json.dumps(value, allow_nan=False) + "\n"


def _emit(args, result: dict, text: str) -> None:
    if args.json or args.out is not None:
        envelope = {"schema": SCHEMA_VERSION, "manifest": args.manifest, "result": result}
        payload = _dumps(envelope)
    else:
        payload = text if text.endswith("\n") else text + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise _InputError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(payload)


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, or nested too deep
        raise _InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise _InputError(f"{path}: expected a JSON object at top level")
    return data


def _load_configuration(path: str, p_override=None) -> Configuration:
    """Read {p, points} bare, from a CLI envelope's result or from its best_config."""
    data = _load_json_file(path)
    if "points" not in data and isinstance(data.get("result"), dict):
        data = data["result"]
        if isinstance(data.get("best_config"), dict):
            data = data["best_config"]
    if "points" not in data or ("p" not in data and p_override is None):
        raise _InputError(f"{path}: configuration JSON needs 'p' and 'points' fields")
    p = p_override if p_override is not None else data["p"]
    try:
        return Configuration(data["points"], p)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_sweep(text: str):
    lo, sep, hi = text.partition("..")
    if not sep or not lo or not hi:
        raise ValueError(f"sweep range must look like N1..N2, got {text!r}")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"sweep endpoints must be integers, got {text!r}") from None


def _cmd_bound(args):
    p = args.p
    if (args.n is None) == (args.sweep is None):
        raise ValueError("bound needs exactly one of --n or --sweep")
    if args.sweep is not None:
        lo, hi = _parse_sweep(args.sweep)
        table = bound_sweep(lo, hi, p)
        return table.to_dict(), table.to_csv()
    row = BoundRow(args.n, p)
    return row.to_dict(), repr(row.bound)


def _cmd_construct(args):
    built = build_configuration(args.n)
    result = built.to_dict()
    diagnostics = result["diagnostics"]
    achieved = None
    if args.n <= ACHIEVED_RATIO_DIM_CAP:
        achieved = ratio_report(built.config).ratio
    diagnostics["achieved_ratio"] = achieved
    diagnostics["ratio_agreement"] = (
        None if achieved is None else abs(achieved - built.expected_ratio)
    )
    text = (
        f"n = {args.n}: {built.config.size} points, expected ratio "
        f"{built.expected_ratio!r}"
    )
    if achieved is not None:
        text += f", achieved {achieved!r}"
    return result, text


def _certificate(config):
    """The Radon certificate of config and the result fields certify and audit share."""
    cert = radon_partition(config.points)
    return cert, {"certificate": cert.to_dict(), "certificate_bound": certificate_bound(cert)}


def _cmd_certify(args):
    cert, result = _certificate(_load_configuration(args.file))
    result["interpretation"] = "lower bound on (max dist / min dist)^4 in the 4-norm"
    text = (
        f"certificate = {cert.certificate!r} "
        f"(sides {sorted(cert.side_a)} / {sorted(cert.side_b)}, "
        f"residual {cert.residual:.3e})"
    )
    return result, text


def _cmd_audit(args):
    config = _load_configuration(args.file)
    cert, result = _certificate(config)
    audit = audit_chain(config, cert)
    result["audit"] = audit.to_dict()
    result["all_hold"] = audit.all_hold()
    lines = [
        f"{rec.name:<9} lhs = {rec.lhs!r:<24} rhs = {rec.rhs!r:<24} margin = {rec.margin:.3e}"
        for rec in audit.records()
    ]
    lines.append(f"square_slack = {audit.square_slack!r}")
    # audit_chain raises NumericalBreakdown on any violation, so a returned audit holds
    lines.append("all inequalities hold")
    return result, "\n".join(lines)


def _cmd_search(args):
    if args.from_file is not None:
        seeds = [_load_configuration(args.from_file)]
    else:
        seeds = "auto"
    res = minimize_ratio(args.n, args.budget, seeds, args.seed)
    result = res.to_dict()
    text = (
        f"best ratio {res.best_ratio!r} after {res.evaluations} evaluations "
        f"({res.restarts} restarts); bound {res.bound!r}, gap {res.gap:.3e}"
    )
    return result, text


def _cmd_check_equilateral(args):
    config = _load_configuration(args.file, p_override=args.p)
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    flag, lam = is_equilateral(config, tol)
    m, n = config.points.shape
    result = {
        "p": config.p,
        "m": m,
        "n": n,
        "equilateral": flag,
        "lambda": lam,
        "cardinality_cap": None,
        "note": None,
    }
    text = f"equilateral: {'yes' if flag else 'no'}"
    if flag:
        text += f" (common distance {lam!r})"
    if m > n + 1:
        for center in PROVEN_EXPONENTS:
            eps = epsilon_threshold(n, center)
            if abs(config.p - center) < eps:
                note = (
                    f"{m} points exceed the maximum equilateral size n+1 = {n + 1} "
                    f"in dimension {n}: for every p within {eps!r} of {center:g} "
                    f"no equilateral set of more than {n + 1} points exists"
                )
                result["cardinality_cap"] = n + 1
                result["threshold_center"] = center
                result["threshold"] = eps
                result["note"] = note
                text += "\n" + note
                break
    return result, text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lp-extremal",
        description=(
            "Distance-ratio bounds, explicit two-distance constructions, "
            "Radon certificates and sharpness search for finite point sets "
            "in l_p spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, handler):
        sp.add_argument("--json", action="store_true", help="emit a JSON envelope")
        sp.add_argument("--out", default=None, help="write output to this file")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("bound", help="closed-form ratio bound and threshold")
    sp.add_argument("--n", type=int, default=None, help="dimension")
    sp.add_argument("--p", type=float, default=4.0, choices=PROVEN_EXPONENTS, help="exponent")
    sp.add_argument("--sweep", default=None, metavar="N1..N2", help="dimension range")
    add_common(sp, _cmd_bound)

    sp = sub.add_parser("construct", help="build the explicit n+2 point configuration")
    sp.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
    add_common(sp, _cmd_construct)

    sp = sub.add_parser("certify", help="Radon partition certificate for a configuration file")
    sp.add_argument("file", help="configuration JSON with p and points")
    add_common(sp, _cmd_certify)

    sp = sub.add_parser("audit", help="certificate plus full inequality-chain audit")
    sp.add_argument("file", help="configuration JSON with p and points")
    add_common(sp, _cmd_audit)

    sp = sub.add_parser("search", help="anneal for low-ratio configurations")
    sp.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
    sp.add_argument("--budget", type=int, required=True, help="evaluation budget")
    sp.add_argument("--seed", type=int, default=0, help="rng seed")
    sp.add_argument(
        "--from",
        dest="from_file",
        default=None,
        metavar="FILE.json",
        help="seed the search from this configuration file",
    )
    add_common(sp, _cmd_search)

    sp = sub.add_parser("check-equilateral", help="equilateral test with cardinality context")
    sp.add_argument("file", help="configuration JSON with points")
    sp.add_argument("--p", type=float, default=None, help="exponent override")
    sp.add_argument("--tol", type=float, default=None, help="relative tolerance of the test")
    add_common(sp, _cmd_check_equilateral)

    return parser


def _diagnostic(value):
    """A diagnostics value for JSON: numpy values as Python ones, a non-finite float as text."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_diagnostic(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def _error_object(exc, code: int) -> str:
    body = {
        "schema": SCHEMA_VERSION,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc.args[0]) if len(exc.args) == 1 else str(exc),
            "exit_code": code,
        },
    }
    if isinstance(exc, NumericalBreakdown):
        body["error"]["diagnostics"] = {k: _diagnostic(v) for k, v in exc.diagnostics.items()}
    return _dumps(body)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the manifest travels with the parsed arguments to every writer
    args.manifest = _manifest(args, argv)
    try:
        result, text = args.handler(args)
        _emit(args, result, text)
    except _InputError as exc:
        sys.stdout.write(_error_object(exc, 2))
        return 2
    except (ValueError, OverflowError, MemoryError, NumericalBreakdown) as exc:
        sys.stdout.write(_error_object(exc, 1))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
