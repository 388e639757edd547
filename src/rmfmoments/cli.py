"""Command-line front end.

Every subcommand emits one JSON object {command, params, results,
manifest} (or CSV for tabular results) so runs are machine-readable and
reproducible: the manifest embeds the seed, version, and the full
parameter set.  Floats print as their shortest round-trip repr, so a float
stays a float and ``json.dumps(doc, indent=2)`` of parsed output is
byte-identical.  A --format is checked before any work.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .acceptance import run_all
from .analytic import (
    agm,
    conjectured_coefficient,
    conjectured_moment,
    cs_bound_minimize,
    hyper_2F1_series,
)
from .arith import a_constant, b_constant
from .errors import ResourceLimitError
from .estimates import DEFAULT_SEED
from .exact_counts import (
    char_moment_average,
    rademacher_moment_sign_enum,
    rademacher_moment_tuple_count,
    steinhaus_energy,
)
from .polytopes import (
    alpha_box,
    alpha_constant,
    beta_constant,
    beta_mixed,
    birkhoff,
    ehrhart_polynomial,
    gamma_constant,
    gamma_sym,
)
from .rmt import (
    mc_truncated_moment,
    so_asymptotic_rhs,
    so_truncated_moment_exact,
    unitary_asymptotic_rhs,
    unitary_truncated_moment_exact,
)
from .simulate import estimate_abs_moment, helson_table

__all__ = ["main"]


# ---------------------------------------------------------------------------
# output


def _fraction(obj) -> str:
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"unserializable value of type {type(obj).__name__}")


def _csv_rows(rows: list[dict]) -> str:
    if not all(math.isfinite(v) for row in rows for v in row.values() if isinstance(v, float)):
        raise ValueError("refusing to serialize a non-finite float")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_payload(command, params, results, seed, t0, args) -> None:
    # main admits --format csv only for the commands whose results are rows
    if args.format == "csv":
        return _emit(_csv_rows(results["rows"]), args.out)
    payload = {
        "command": command,
        "params": dict(params),
        "results": results,
        "manifest": {
            "command": command,
            "params": dict(params),
            "seed": seed,
            "version": __version__,
            "duration_seconds": time.perf_counter() - t0,
        },
    }
    text = json.dumps(payload, indent=2, allow_nan=False, default=_fraction)
    _emit(text + "\n", args.out)


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_count(args, seed, t0) -> int:
    params = {"model": args.model, "k": args.k, "x": args.x, "sigma": args.sigma, "q": args.q}
    if args.model == "steinhaus":
        res = steinhaus_energy(args.k, args.x, args.sigma)
        results = {
            "value": res.value,
            "tuple_space_size": res.tuple_space_size,
            "sigma": res.sigma,
        }
    elif args.model == "rademacher":
        if args.sigma != 0.0:
            raise ValueError("the Rademacher count is defined at sigma = 0 only")
        tup = rademacher_moment_tuple_count(args.k, int(args.x))
        results = {"value": tup}
        try:
            enum = rademacher_moment_sign_enum(args.k, int(args.x))
        except ResourceLimitError:
            # the sign enumeration's Walsh table is capped at 2^24 cells, the
            # primes <= x/2 (x <= 193); beyond that the tuple route stands alone
            results["routes_agree"] = None
        else:
            results["sign_enum_route"] = enum
            results["routes_agree"] = enum == tup
    else:
        if args.q is None:
            raise ValueError("count --model char requires --q")
        res = char_moment_average(args.k, args.q, int(args.x))
        results = {
            "value": res.avg_all,
            "avg_nonprincipal": res.avg_nonprincipal,
            "congruence_count": res.congruence_count,
            "float_error": res.float_error,
        }
    _emit_payload("count", params, results, seed, t0, args)
    return 0


def _cmd_constants(args, seed, t0) -> int:
    params = {"name": args.name, "k": args.k}
    if args.name in ("a", "b"):
        if args.name == "a":
            results = asdict(a_constant(args.k))
        else:
            if args.k != int(args.k):
                raise ValueError("b is defined for integer k")
            results = asdict(b_constant(int(args.k)))
    else:
        if args.k != int(args.k):
            raise ValueError(f"{args.name} is defined for integer k")
        k = int(args.k)
        if args.name == "beta":
            value = beta_constant(k)
            pa = ehrhart_polynomial(birkhoff(k))
            pb = ehrhart_polynomial(beta_mixed(k))
            results = {
                "value": value,
                "routes_agree": pa.coefficients == pb.coefficients,
                "dimension": pa.degree,
                "ehrhart_coefficients": list(pa.coefficients),
            }
        elif args.name == "alpha":
            value = alpha_constant(k)
            poly = ehrhart_polynomial(alpha_box(k))
            results = {
                "value": value,
                "dimension": poly.degree,
                "ehrhart_coefficients": list(poly.coefficients),
            }
        else:
            value = gamma_constant(k)
            poly = ehrhart_polynomial(gamma_sym(k))
            results = {
                "value": value,
                "count_leading_coefficient": poly.leading_coefficient,
                "dimension": poly.degree,
            }
    _emit_payload("constants", params, results, seed, t0, args)
    return 0


def _cmd_rmt(args, seed, t0) -> int:
    params = {
        "mode": args.mode,
        "group": args.group,
        "k": args.k,
        "L": args.L,
        "z": args.z,
        "N": args.N,
        "samples": args.samples,
    }
    exact = (
        unitary_truncated_moment_exact
        if args.group == "unitary"
        else so_truncated_moment_exact
    )
    rhs = unitary_asymptotic_rhs if args.group == "unitary" else so_asymptotic_rhs
    if args.mode == "exact":
        results = {"value": exact(args.k, args.L, args.z)}
    elif args.mode == "rhs":
        results = {"value": rhs(args.k, args.L, args.z)}
    elif args.mode == "mc":
        n = args.N if args.N else args.k * args.L
        est = mc_truncated_moment(
            args.group, args.k, args.L, args.z, n, args.samples, seed, threads=args.threads
        )
        results = asdict(est)
    else:  # ratio-table
        l_values = _parse_int_list(args.L_list) if args.L_list is not None else [args.L]
        if args.k >= 2 and 0 in l_values:
            # both asymptotic curves vanish at L = 0 for k >= 2: no ratio to take
            raise ValueError("ratio-table needs every L >= 1 when k >= 2")
        rows = []
        for ell in l_values:
            ex = exact(args.k, ell, args.z)
            rh = rhs(args.k, ell, args.z)
            rows.append({"L": ell, "exact": ex, "rhs": rh, "ratio": ex / rh})
        results = {"rows": rows}
    _emit_payload("rmt", params, results, seed, t0, args)
    return 0


def _cmd_simulate(args, seed, t0) -> int:
    if args.helson:
        x_list = _parse_int_list(args.x_list)
        rows = helson_table(x_list, args.trials, seed, threads=args.threads)
        params = {"x_list": x_list, "trials": args.trials}
        _emit_payload("simulate", params, {"rows": rows}, seed, t0, args)
        return 0
    params = {
        "model": args.model,
        "x": args.x,
        "sigma": args.sigma,
        "two_k": args.two_k,
        "trials": args.trials,
    }
    est = estimate_abs_moment(
        args.model, int(args.x), args.sigma, args.two_k, args.trials, seed, threads=args.threads
    )
    results = asdict(est)
    _emit_payload("simulate", params, results, seed, t0, args)
    return 0


def _cmd_conjecture(args, seed, t0) -> int:
    params = {"k": args.k, "sigma": args.sigma, "x": args.x}
    coeff = conjectured_coefficient(args.k, args.sigma)
    wt = 1.0 - math.exp(2.0 * args.sigma - 1.0)
    results = {
        "coefficient": coeff,
        "a_k": a_constant(args.k).value if args.k > 0 else 1.0,
        "hypergeometric_factor": hyper_2F1_series(1 - args.k, 1 - args.k, 2 - 2 * args.k, wt)
        if args.k > 0
        else 1.0,
        "x_exponent": args.k * (1.0 - 2.0 * args.sigma),
    }
    if args.k == 0.5 and args.sigma == 0.0:
        s = math.sqrt(1.0 - 1.0 / math.e)
        results["agm_value"] = agm(1.0 - s, 1.0 + s)
        results["quarter_power"] = (math.e / (math.e - 1.0)) ** 0.25
    if args.x is not None:
        results["moment"] = conjectured_moment(args.k, args.sigma, args.x)
    if args.sigma == 0.0 and 0.0 < args.k < 1.0:
        results["note"] = (
            "at sigma = 0 the conjecture is refuted and the coefficient is no limit: "
            "E|S_x|^(2k) / x^k -> 0 for fixed 0 < k < 1 (Harper, Forum Math. Pi 8, 2020)"
        )
    _emit_payload("conjecture", params, results, seed, t0, args)
    return 0


def _cmd_bound(args, seed, t0) -> int:
    res = cs_bound_minimize()
    results = {
        "f_min": res.f_min,
        "amplitude_bound": res.amplitude_bound,
        "u_star": res.u_star,
        "v_star": res.v_star,
    }
    _emit_payload("bound", {}, results, seed, t0, args)
    return 0


def _cmd_verify(args, seed, t0) -> int:
    numbers = _parse_int_list(args.only) if args.only is not None else None
    results = run_all(numbers, seed=seed)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"criterion {r.number:02d} {status} ({r.seconds:6.2f}s) {r.title}: {r.detail}")
        for flag in r.flags:
            lines.append(f"  flag: {flag}")
    failed = [r.number for r in results if not r.passed]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        + (f"; failed: {failed}" if failed else "")
    )
    if args.format == "json":
        rows = [asdict(r) for r in results]
        _emit_payload("verify", {"only": numbers}, {"criteria": rows}, seed, t0, args)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# plumbing


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"expected a comma-separated integer list, got {text!r}") from exc
    if not values:
        raise ValueError(f"expected at least one integer, got {text!r}")
    return values


def _env_threads() -> int:
    env = os.environ.get("RMFMOMENTS_THREADS")
    try:
        return int(env) if env else 1
    except ValueError as exc:
        raise ValueError(f"RMFMOMENTS_THREADS must be an integer, got {env!r}") from exc


def _check_format(args) -> None:
    # decided from the arguments alone, so a request is refused before any work
    if args.command == "verify":
        allowed = ("json", "text")
    elif getattr(args, "mode", None) == "ratio-table" or getattr(args, "helson", False):
        allowed = ("json", "csv")
    else:
        allowed = ("json",)
    if args.format not in (None, *allowed):
        raise ValueError(f"{args.command} cannot emit --format {args.format} here")


def _add_global_flags(target: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # post-subcommand copies use SUPPRESS defaults so they only override
    # when actually present
    default = argparse.SUPPRESS if suppress else None
    target.add_argument(
        "--seed", type=int, default=default, help=f"RNG seed (default {DEFAULT_SEED})"
    )
    target.add_argument(
        "--threads",
        type=int,
        default=default,
        help="worker threads for compute modules; 0 = auto (default 1 or $RMFMOMENTS_THREADS)",
    )
    target.add_argument(
        "--out", default=default, help="write output to this file instead of stdout"
    )
    target.add_argument("--format", choices=("json", "csv", "text"), default=default)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmfmoments",
        description="exact counts, constants, and simulations for multiplicative moments",
    )
    _add_global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact moment counts", parents=[common])
    p.add_argument("--model", choices=("steinhaus", "rademacher", "char"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--q", type=int, default=None, help="prime modulus for --model char")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("constants", help="arithmetic and polytope constants", parents=[common])
    p.add_argument("--name", choices=("a", "b", "alpha", "beta", "gamma"), required=True)
    p.add_argument("--k", type=float, required=True)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("rmt", help="matrix-moment DP, Monte Carlo, and asymptotics", parents=[common])
    p.add_argument("--mode", choices=("exact", "mc", "rhs", "ratio-table"), default="exact")
    p.add_argument("--group", choices=("unitary", "special_orthogonal"), default="unitary")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--L-list", dest="L_list", default=None, help="comma list for ratio-table")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--N", type=int, default=None, help="matrix size for MC (default kL)")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=_cmd_rmt)

    p = sub.add_parser("simulate", help="Monte Carlo moments of random multiplicative sums", parents=[common])
    p.add_argument("--model", choices=("steinhaus", "rademacher"), default="steinhaus")
    p.add_argument("--x", type=float, default=1000)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--two-k", dest="two_k", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--helson", action="store_true", help="emit the first-moment table")
    p.add_argument("--x-list", dest="x_list", default="100,1000,10000")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("conjecture", help="fractional-moment coefficients", parents=[common])
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--x", type=float, default=None)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("bound", help="two-parameter amplitude bound (closed form)", parents=[common])
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("verify", help="run the acceptance suite", parents=[common])
    p.add_argument("--only", default=None, help="comma list of criterion numbers")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly on usage errors and --help; fold that
        # back into the documented return-code contract
        return int(exc.code or 0)
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.seed < 0 or args.seed > 2**64 - 1:
        print("seed must be a decimal 64-bit value", file=sys.stderr)
        return 2
    if args.command == "rmt" and args.L is None and args.L_list is None:
        print("rmt requires --L (or --L-list for ratio-table)", file=sys.stderr)
        return 2
    if args.command == "rmt" and args.L is None:
        args.L = 0
    t0 = time.perf_counter()
    try:
        _check_format(args)
        if args.threads is None:
            args.threads = _env_threads()
        return args.func(args, args.seed, t0)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource guard: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
