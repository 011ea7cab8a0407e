"""Command-line front end: bounds, constructions, certificates, search.

Every output file embeds a run manifest (command, argv, tolerance,
seed, version, timestamp); numeric payloads are functions of the
manifest minus its timestamp, so reruns reproduce them bit for bit.
Floats are serialized with 17 significant digits, which round-trips
IEEE doubles losslessly.  Exit codes: 0 success, 1 violated
precondition (machine-readable error object on stdout), 2 broken
input files or I/O.
"""

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from itertools import repeat

import numpy as np

from lp_extremal import __version__
from lp_extremal.bounds import bound_sweep, epsilon_threshold, schuette_bound
from lp_extremal.construct import build_configuration, solve_beta
from lp_extremal.errors import NumericalBreakdown
from lp_extremal.lpgeom import DEFAULT_TOL, Configuration, is_equilateral, ratio_report
from lp_extremal.radon import (
    CHAIN_TOL,
    WEIGHT_RESIDUAL_TOL,
    audit_chain,
    certificate_bound,
    radon_partition,
)
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


def _format_json(value, indent=0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_format_json(v, indent + 1)}'
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is float for v in value):
            # a coordinate row: one finiteness pass, one join
            if not all(map(math.isfinite, value)):
                bad = next(v for v in value if not math.isfinite(v))
                raise ValueError(f"refusing to serialize non-finite float {bad!r}")
            items = (",\n" + pad + "  ").join(map(format, value, repeat(".17g")))
            return "[\n" + pad + "  " + items + "\n" + pad + "]"
        items = ",\n".join(f"{pad}  {_format_json(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"refusing to serialize non-finite float {value!r}")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value).__name__} to JSON")


def _write(path: str, payload: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from None


def _emit(args, result: dict, text: str) -> None:
    if getattr(args, "csv", False):
        compact = json.dumps(args.manifest, separators=(",", ":"))
        payload = f"# manifest: {compact}\n{text}"
    elif args.json or args.out is not None:
        envelope = {"schema": SCHEMA_VERSION, "manifest": args.manifest, "result": result}
        payload = _format_json(envelope) + "\n"
    else:
        payload = text if text.endswith("\n") else text + "\n"
    if args.out is not None:
        _write(args.out, payload)
    else:
        sys.stdout.write(payload)


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise _InputError(f"{path}: expected a JSON object at top level")
    return data


def _load_configuration(path: str, p_override=None) -> Configuration:
    """Read a configuration from bare {p, points} JSON or a CLI envelope."""
    data = _load_json_file(path)
    if "points" not in data and isinstance(data.get("result"), dict):
        data = data["result"]
    if "points" not in data or ("p" not in data and p_override is None):
        raise _InputError(f"{path}: configuration JSON needs 'p' and 'points' fields")
    p = p_override if p_override is not None else data["p"]
    try:
        return Configuration(np.asarray(data["points"], dtype=float), p)
    except (TypeError, ValueError, OverflowError) as exc:
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
    if args.sweep is not None:
        lo, hi = _parse_sweep(args.sweep)
        table = bound_sweep(lo, hi, p)
        return table.to_dict(), table.to_csv()
    if args.n is None:
        raise ValueError("bound needs either --n or --sweep")
    if args.csv:
        raise ValueError("CSV output is only available for 'bound --sweep'")
    row = {
        "n": args.n,
        "p": float(p),
        "bound": schuette_bound(args.n, p),
        "epsilon": epsilon_threshold(args.n, p),
    }
    return row, repr(row["bound"])


def _cmd_construct(args):
    built = build_configuration(args.n)
    diagnostics = {
        "expected_ratio": built.expected_ratio,
        "solution_even_part": built.solution_even_part.to_dict(),
        "solution_odd_part": (
            None if built.solution_odd_part is None else built.solution_odd_part.to_dict()
        ),
    }
    if args.both_branches:
        ks = [built.solution_even_part.k]
        if built.solution_odd_part is not None:
            ks.append(built.solution_odd_part.k)
        diagnostics["rejected_branch_beta"] = {str(k): solve_beta(k) for k in ks}
    if args.n <= ACHIEVED_RATIO_DIM_CAP:
        achieved = ratio_report(built.config).ratio
        diagnostics["achieved_ratio"] = achieved
        diagnostics["ratio_agreement"] = abs(achieved - built.expected_ratio)
    else:
        diagnostics["achieved_ratio"] = None
        diagnostics["ratio_agreement"] = None
    result = {**built.config.to_dict(), "diagnostics": diagnostics}
    text = (
        f"n = {args.n}: {built.config.size} points, expected ratio "
        f"{built.expected_ratio!r}"
    )
    if diagnostics["achieved_ratio"] is not None:
        text += f", achieved {diagnostics['achieved_ratio']!r}"
    return result, text


def _certificate(args, config):
    """The Radon certificate of config and the result fields certify and audit share."""
    tol = args.tol if args.tol is not None else WEIGHT_RESIDUAL_TOL
    cert = radon_partition(config.points, tol=tol)
    return cert, {"certificate": cert.to_dict(), "certificate_bound": certificate_bound(cert)}


def _cmd_certify(args):
    cert, result = _certificate(args, _load_configuration(args.file))
    result["interpretation"] = "lower bound on (max dist / min dist)^4 in the 4-norm"
    text = (
        f"certificate = {cert.certificate!r} "
        f"(sides {sorted(cert.side_a)} / {sorted(cert.side_b)}, "
        f"residual {cert.residual:.3e})"
    )
    return result, text


def _cmd_audit(args):
    config = _load_configuration(args.file)
    cert, result = _certificate(args, config)
    chain_tol = args.tol if args.tol is not None else CHAIN_TOL
    audit = audit_chain(config, cert, tol=chain_tol)
    result["audit"] = audit.to_dict()
    result["all_hold"] = audit.all_hold()
    lines = [
        f"{rec.name:<9} lhs = {rec.lhs!r:<24} rhs = {rec.rhs!r:<24} margin = {rec.margin:.3e}"
        for rec in audit.records()
    ]
    lines.append(f"square_slack = {audit.square_slack!r}")
    lines.append("all inequalities hold" if audit.all_hold() else "violations present")
    return result, "\n".join(lines)


def _cmd_search(args):
    if args.from_file is not None:
        seeds = [_load_configuration(args.from_file)]
    else:
        seeds = "auto"
    res = minimize_ratio(args.n, args.budget, seeds, args.seed)
    if args.best_out is not None:
        body = {
            "schema": SCHEMA_VERSION,
            "manifest": args.manifest,
            **res.best_config.to_dict(),
            "best_ratio": res.best_ratio,
        }
        _write(args.best_out, _format_json(body) + "\n")
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
        for center in (4.0, 2.0):
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

    def add_common(sp, handler, tol=False):
        sp.add_argument("--json", action="store_true", help="emit a JSON envelope")
        if tol:
            sp.add_argument("--tol", type=float, default=None, help="override module tolerances")
        sp.add_argument("--out", default=None, help="write output to this file")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("bound", help="closed-form ratio bound and threshold")
    sp.add_argument("--n", type=int, default=None, help="dimension")
    sp.add_argument("--p", type=float, default=4.0, choices=[2.0, 4.0], help="exponent")
    sp.add_argument("--sweep", default=None, metavar="N1..N2", help="dimension range")
    sp.add_argument("--csv", action="store_true", help="emit CSV (with --sweep only)")
    add_common(sp, _cmd_bound)

    sp = sub.add_parser("construct", help="build the explicit n+2 point configuration")
    sp.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
    sp.add_argument(
        "--both-branches",
        action="store_true",
        help="also report the rejected y < 0 branch root",
    )
    add_common(sp, _cmd_construct)

    sp = sub.add_parser("certify", help="Radon partition certificate for a configuration file")
    sp.add_argument("file", help="configuration JSON with p and points")
    add_common(sp, _cmd_certify, tol=True)

    sp = sub.add_parser("audit", help="certificate plus full inequality-chain audit")
    sp.add_argument("file", help="configuration JSON with p and points")
    add_common(sp, _cmd_audit, tol=True)

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
    sp.add_argument(
        "--best-out",
        default=None,
        metavar="FILE.json",
        help="also write the best configuration as standalone JSON",
    )
    add_common(sp, _cmd_search)

    sp = sub.add_parser("check-equilateral", help="equilateral test with cardinality context")
    sp.add_argument("file", help="configuration JSON with points")
    sp.add_argument("--p", type=float, default=None, help="exponent override")
    add_common(sp, _cmd_check_equilateral, tol=True)

    return parser


def _diagnostic(value):
    """A diagnostics value for JSON: arrays as lists, a non-finite float as its repr."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_diagnostic(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return repr(float(value))
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
    return _format_json(body) + "\n"


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
    except (ValueError, OverflowError, NumericalBreakdown) as exc:
        sys.stdout.write(_error_object(exc, 1))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
