"""Command line front end with machine-readable output and run manifests.

Every subcommand prints a JSON document to stdout (or CSV to --out) whose
"manifest" block records the argv, library version, precision, wall time,
and a checksum of the payload, so any reported number can be re-derived.
Exit codes: 0 success, 2 usage error (a malformed argument, or a file that
cannot be read or written), 3 budget or size error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .groups import GroupTooLargeError, parse_group_literal
from .invariants import GaloisActionSpec, WeightFn, invariant_summary
from .numerics import precision_digits
from .oracle import BudgetExceededError, count_surjections
from .series import (
    euler_product_truncated,
    nonvanishing_limit,
    series_coefficients,
    sieve_to_surjective,
    zeta_factorization,
)
from .tauberian import SavingExponents, TauberianParams, fit_exponent, saving_exponent
from .theta import SubconvexityModel, scan_cyclic, theta_best


class UsageError(ValueError):
    pass


def _parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in {text!r}")


def _emit(payload: dict, started: float, argv: list[str]) -> None:
    body = json.dumps(payload, sort_keys=True)
    manifest = {
        "command": argv[0] if argv else "",
        "argv": argv,
        "version": __version__,
        "precision": precision_digits(),
        "wall_time_s": round(time.monotonic() - started, 3),
        "output_sha256": hashlib.sha256(body.encode()).hexdigest(),
    }
    document = dict(payload)
    document["manifest"] = manifest
    print(json.dumps(document, sort_keys=True, indent=2))


def _check_writable(path: str | None) -> None:
    """Fail at once, before the work, if ``path`` cannot be written; a file already there is kept."""
    if path:
        open(path, "a").close()


def _write_csv(path: str | None, header: list[str], rows) -> None:
    """Write the rows to ``path``, or to stdout without one."""
    with open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_invariants(args, argv, started) -> int:
    G = parse_group_literal(args.group)
    if G.order <= 1:
        raise UsageError("the trivial group has no counting invariants")
    units = None
    if args.action != "full":
        if not args.action.startswith("units="):
            raise UsageError(f"malformed action spec {args.action!r}")
        units = [int(tok) for tok in args.action[len("units="):].split(",") if tok]
    payload = invariant_summary(G, ordering=args.ordering, units=units)
    _emit(payload, started, argv)
    return 0


def _cmd_theta(args, argv, started) -> int:
    G = parse_group_literal(args.group)
    model = SubconvexityModel(args.model, args.degK)
    wt = WeightFn.disc() if args.ordering == "disc" else WeightFn.ram()
    result = theta_best(G, GaloisActionSpec.cyclotomic(G), wt, model)
    payload = {"group": str(G), "ordering": args.ordering, "degK": args.degK}
    payload.update(result.as_dict())
    _emit(payload, started, argv)
    return 0


def _cmd_scan(args, argv, started) -> int:
    model = SubconvexityModel(args.model)
    jobs = (os.cpu_count() or 1) if args.jobs is None else args.jobs
    _check_writable(args.out)
    report = scan_cyclic(args.max, model, jobs=jobs)
    if args.out:
        _write_csv(
            args.out,
            ["n", "a", "d2", "theta", "flag_i", "flag_ii", "case"],
            (
                [r.n, r.a, r.d2, str(r.theta), int(r.flag_i), int(r.flag_ii), r.case]
                for r in report.rows
            ),
        )
    payload = report.summary()
    if args.out:
        payload["csv"] = args.out
    _emit(payload, started, argv)
    return 0


def _cmd_series(args, argv, started) -> int:
    G = parse_group_literal(args.group)
    s = _parse_fraction(args.s)
    if args.surjective and args.mode == "residual":
        raise UsageError("--surjective sums full-mode products; --mode residual does not apply")
    payload: dict = {"group": str(G), "s": str(s), "p_max": args.pmax}
    fact = zeta_factorization(G)
    payload["factorization"] = [[m, a] for m, a in fact.entries]
    if args.surjective:
        value, terms = sieve_to_surjective(G, s, args.pmax)
        from mpmath import mp

        payload["value"] = mp.nstr(value, 30)
        payload["terms"] = [[label, mu, mp.nstr(v, 30)] for label, mu, v in terms]
    else:
        state = euler_product_truncated(G, s, args.pmax, mode=args.mode)
        payload.update(state.as_dict())
    _emit(payload, started, argv)
    return 0


def _cmd_coeffs(args, argv, started) -> int:
    G = parse_group_literal(args.group)
    _check_writable(args.out)
    coeffs = series_coefficients(G, args.max, surjective=args.surjective)
    rows = sorted(coeffs.items())
    _write_csv(args.out, ["n", "count"], rows)
    if args.out:
        _emit({"group": str(G), "max": args.max, "rows": len(rows), "csv": args.out}, started, argv)
    return 0


def _cmd_count(args, argv, started) -> int:
    G = parse_group_literal(args.group)
    _check_writable(args.histogram)
    report = count_surjections(
        G, args.X, ordering=args.ordering, histogram=bool(args.histogram)
    )
    if args.histogram:
        _write_csv(args.histogram, ["invariant", "surjections"], report.histogram or [])
    payload = report.as_dict()
    if args.histogram:
        payload["histogram_csv"] = args.histogram
    _emit(payload, started, argv)
    return 0


def _cmd_sieve_check(args, argv, started) -> int:
    G = parse_group_literal(args.group)
    report = nonvanishing_limit(G, args.d, args.pmax)
    _emit(report.as_dict(), started, argv)
    return 0


def _cmd_tauberian(args, argv, started) -> int:
    if args.mode == "exponent":
        params = TauberianParams(
            sigma_a=_parse_fraction(args.sigma),
            delta=_parse_fraction(args.delta),
            xi=_parse_fraction(args.xi),
            k=args.k,
        )
        result: SavingExponents = saving_exponent(params)
        payload = {
            "error_exponent": str(result.error_exponent),
            "T_exponent": str(result.t_exponent),
            "y_exponent": str(result.y_exponent),
            "limit_exponent": str(result.limit_exponent),
        }
        _emit(payload, started, argv)
        return 0
    counts = _read_counts(args.counts)
    main = _parse_main_term(args.main)
    slope, ci = fit_exponent(counts, main)
    _emit({"fitted_exponent": slope, "ci95": ci, "samples": len(counts)}, started, argv)
    return 0


def _read_counts(path: str) -> list[tuple[float, float]]:
    """(X, N) samples from a two-column CSV; its first row may be a header.

    Blank rows are skipped; any other row that is not two finite numbers is
    a usage error naming its line.
    """
    counts = []
    with open(path, newline="") as handle:
        for line, row in enumerate(csv.reader(handle), 1):
            if not row:
                continue
            try:
                x, n = (float(field) for field in row)
                ok = math.isfinite(x) and math.isfinite(n)
            except ValueError:
                ok = False
            if ok:
                counts.append((x, n))
            elif line > 1:
                raise UsageError(f"{path} line {line}: expected two numbers X,N, got {row!r}")
    return counts


def _parse_main_term(spec: str):
    """Parse 'c*X^e' or 'c*X^e*logX^m' into a callable."""
    parts = spec.replace(" ", "").split("*")
    try:
        coeff = float(parts[0])
        exp = 0.0
        logpow = 0.0
        for part in parts[1:]:
            if part.lower().startswith("x^"):
                exp = float(part[2:])
            elif part.lower().startswith("logx^"):
                logpow = float(part[5:])
            elif part.lower() == "x":
                exp = 1.0
            elif part.lower() == "logx":
                logpow = 1.0
            else:
                raise ValueError
    except (ValueError, IndexError):
        raise UsageError(f"malformed main term {spec!r}")
    return lambda x: coeff * x**exp * math.log(x) ** logpow


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malle-lab",
        description="Counting invariants, power-saving bounds, Euler products, "
        "and brute-force oracles for abelian extensions of Q. "
        "Measured count capacities: C2 to X = 1e6 in 6.5 s, C2xC2 to 1e5 in 4.4 s, "
        "C4 to 1e10 in 8.3 s, C6 to 1e9 in 9.0 s, C3 to 1e12 in 7.7 s.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="index spectrum, a, b_d, cases")
    p.add_argument("group")
    p.add_argument("--ordering", choices=["disc", "ram"], default="disc")
    p.add_argument("--action", default="full", help="full or units=u1,u2,...")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("theta", help="power-saving bound for one group")
    p.add_argument("group")
    p.add_argument("--model", default="soehne")
    p.add_argument("--degK", type=int, default=1)
    p.add_argument("--ordering", choices=["disc", "ram"], default="disc")
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser(
        "scan-cyclic",
        help="scan composite n for lower order terms, --max up to 2e5 (2-4 s, 95-99 MiB there)",
    )
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--model", default="soehne")
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: every core)")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "series", help="truncated Euler product evaluation, --pmax up to 1e7 (4-9 s, 60 MiB there)"
    )
    p.add_argument("group")
    p.add_argument("--s", required=True, help="rational a/b")
    p.add_argument("--pmax", type=int, required=True)
    p.add_argument("--surjective", action="store_true")
    p.add_argument("--mode", choices=["full", "residual"], default="full")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser(
        "coeffs", help="exact Dirichlet coefficients, --max up to 2e5 (C2 there in 0.3 s)"
    )
    p.add_argument("group")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--surjective", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("count", help="oracle surjection count")
    p.add_argument("group")
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--ordering", choices=["disc", "ram"], default="disc")
    p.add_argument("--histogram", default=None, help="write histogram CSV here")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser(
        "sieve-check", help="non-vanishing sign check at s = 1/d, --pmax up to 1e7 (9 s, 60 MiB there)"
    )
    p.add_argument("group")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--pmax", type=int, required=True)
    p.set_defaults(func=_cmd_sieve_check)

    p = sub.add_parser("tauberian", help="exponent algebra and empirical fits")
    tsub = p.add_subparsers(dest="mode", required=True)
    pe = tsub.add_parser("exponent")
    pe.add_argument("--sigma", required=True)
    pe.add_argument("--delta", required=True)
    pe.add_argument("--xi", required=True)
    pe.add_argument("--k", type=int, required=True)
    pe.set_defaults(func=_cmd_tauberian)
    pf = tsub.add_parser("fit")
    pf.add_argument("--counts", required=True)
    pf.add_argument("--main", required=True)
    pf.set_defaults(func=_cmd_tauberian)

    return parser


def run(argv: list[str]) -> int:
    """Dispatch one CLI invocation; returns the exit code."""
    parser = build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, argv, started)
    except (GroupTooLargeError, BudgetExceededError, MemoryError) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # OSError: a file named on the command line
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
