"""Command-line front end.

Subcommands mirror the library layers: ``series``, ``pade``, ``factor``,
``newton``, ``galois``, ``schur``, and the table harness ``reproduce``.
Each subcommand takes only the options it reads: structured output with
``--json`` (all commands) or ``--csv`` (reproduce only), ``--prime-bound``
on ``galois``, ``schur`` and ``reproduce``, and the cache options
``--no-cache``, ``--verify-cache`` and ``--cache-dir`` on ``reproduce``
only.  Everything is deterministic, so identical invocations produce
identical bytes.

Exit codes: 0 on success (for ``reproduce``: every cell matched), 1 when
a reproduction cell mismatches, 2 on any pipeline error (bad input,
defective approximant, cache verification failure, ...).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .cache import (
    CacheMismatchError,
    ResultCache,
    default_cache_dir,
)
from .factor import FactorCutoffError, Factorization, factor_over_integers
from .galois import (
    DEFAULT_PRIME_BOUND,
    classify,
    classify_all_factors,
)
from .pade import PadeDefectError, divisibility_scan, pade_diagonal
from .padic import newton_polygon, qp_factor_shape
from .polynomials import (
    IntPoly,
    coeff_strings,
    format_poly,
    int_poly_from_strings,
    parse_int_poly,
)
from .primes import is_prime
from .reporting import emit
from .schur import (
    closed_form_disc,
    derivative_identity_check,
    eisenstein_certificate,
    full_factorization_certificate,
    generalized_eisenstein_scan,
    theorem_expectation,
)
from .series import SeriesId, scale_to_monic_integer, taylor
from .tables import (
    TableError,
    TABLES,
    _names_match,
    normalize_table_id,
    reproduce,
)


class CliError(Exception):
    """User-facing command-line failure (exit code 2)."""


# ---------------------------------------------------------------------------
# Input helpers
# ---------------------------------------------------------------------------


def _series_id(tag: str) -> SeriesId:
    try:
        return SeriesId(tag)
    except ValueError:
        names = ", ".join(s.value for s in SeriesId)
        raise CliError(f"unknown series tag {tag!r} (choose from {names})")


def _load_poly(arg: str) -> IntPoly:
    """Accept polynomial text, a JSON coefficient array, or a file path."""
    text = arg
    try:
        path = Path(arg)
        if path.is_file():
            text = path.read_text(encoding="utf-8")
    except OSError:
        pass
    text = text.strip()
    if not text:
        raise CliError("empty polynomial input")
    if text.startswith("["):
        try:
            return int_poly_from_strings(json.loads(text))
        except ValueError as exc:
            raise CliError(f"bad coefficient array: {exc}")
    try:
        return parse_int_poly(text)
    except ValueError as exc:
        raise CliError(f"bad polynomial {text!r}: {exc}")


def _print_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _factorization_dict(fac: Factorization) -> dict:
    return {
        "unit": fac.unit,
        "factors": [
            {"coefficients": coeff_strings(poly), "multiplicity": mult}
            for poly, mult in fac.factors
        ],
    }


def _factorization_text(fac: Factorization) -> str:
    parts = []
    if fac.unit != 1 or not fac.factors:
        parts.append(str(fac.unit))
    for poly, mult in fac.factors:
        body = f"({format_poly(poly)})"
        parts.append(body if mult == 1 else f"{body}^{mult}")
    return " * ".join(parts)


def _slope_str(slope) -> str:
    return f"{slope.numerator}/{slope.denominator}"


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_series(args) -> int:
    sid = _series_id(args.id)
    if args.order < 0:
        raise CliError("order must be non-negative")
    trunc = taylor(sid, args.order)
    denom, cleared = trunc.clear_denominators()
    if args.json:
        _print_json(
            {
                "schema": "padegalois-series/1",
                "series": sid.value,
                "order": args.order,
                "coefficients": coeff_strings(trunc),
                "common_denominator": str(denom),
                "integer_coefficients": coeff_strings(cleared),
            }
        )
    else:
        print(f"series: {sid.value}")
        print(f"order:  {args.order}")
        print(f"taylor: {format_poly(trunc)}")
        print(f"integer form (x {denom}): {format_poly(cleared)}")
    return 0


def _cmd_pade(args) -> int:
    if args.mode == "scan-divisibility":
        return _cmd_pade_scan(args)
    if args.series is None or args.order is None:
        raise CliError("pade requires --series and --order")
    sid = _series_id(args.series)
    pair = pade_diagonal(sid, args.order)
    if args.json:
        payload = {
            "schema": "padegalois-pade/1",
            "series": sid.value,
            "order": pair.order,
            "numerator": coeff_strings(pair.numerator),
            "denominator": coeff_strings(pair.denominator),
            "overall_sign": pair.overall_sign,
            "scale": str(pair.scale),
        }
        if args.factor:
            payload["numerator_factors"] = _factorization_dict(
                factor_over_integers(pair.numerator)
            )
            payload["denominator_factors"] = _factorization_dict(
                factor_over_integers(pair.denominator)
            )
        _print_json(payload)
        return 0
    print(f"series: {sid.value}, order {pair.order}")
    print(f"P = {format_poly(pair.numerator)}")
    print(f"Q = {format_poly(pair.denominator)}")
    print(f"overall sign {pair.overall_sign:+d}, scale {pair.scale}")
    if args.factor:
        print(
            "P factors: "
            + _factorization_text(factor_over_integers(pair.numerator))
        )
        print(
            "Q factors: "
            + _factorization_text(factor_over_integers(pair.denominator))
        )
    return 0


def _cmd_pade_scan(args) -> int:
    if args.order is not None or args.factor:
        raise CliError("scan-divisibility takes neither --order nor --factor")
    if args.series is None:
        raise CliError("scan-divisibility requires --series")
    sid = _series_id(args.series)
    if args.max is None or args.max < 1:
        raise CliError("scan-divisibility requires --max >= 1")
    report = divisibility_scan(sid, args.max)
    pairs = [
        {
            "divisor": d,
            "multiple": n,
            "numerator_divides": p_div,
            "denominator_divides": q_div,
        }
        for d, n, p_div, q_div in report.pairs
    ]
    violations = len(report.failures())
    if args.json:
        _print_json(
            {
                "schema": "padegalois-pade-scan/1",
                "series": sid.value,
                "max_order": report.max_order,
                "pairs": pairs,
                "violations": violations,
            }
        )
        return 0
    print(f"divisibility scan of {sid.value} up to order {report.max_order}")
    for p in pairs:
        mark_p = "yes" if p["numerator_divides"] else "NO"
        mark_q = "yes" if p["denominator_divides"] else "NO"
        print(
            f"  {p['divisor']:>3} | {p['multiple']:>3}:"
            f"  P {mark_p:<3}  Q {mark_q}"
        )
    print(
        f"{len(pairs)} divisor pairs, {violations} violation(s)"
        if violations
        else f"{len(pairs)} divisor pairs, all divide"
    )
    return 0


def _cmd_factor(args) -> int:
    f = _load_poly(args.poly)
    fac = factor_over_integers(f)
    if args.json:
        payload = {
            "schema": "padegalois-factor/1",
            "input": format_poly(f),
            **_factorization_dict(fac),
        }
        _print_json(payload)
    else:
        print(f"{format_poly(f)} = {_factorization_text(fac)}")
    return 0


def _cmd_newton(args) -> int:
    sid = _series_id(args.series)
    if args.n < 1:
        raise CliError("--n must be >= 1")
    if not is_prime(args.prime):
        raise CliError(f"{args.prime} is not prime")
    trunc = taylor(sid, args.n)
    polygon = newton_polygon(trunc, args.prime)
    shape = qp_factor_shape(trunc, args.prime)
    if args.json:
        _print_json(
            {
                "schema": "padegalois-newton/1",
                "series": sid.value,
                "n": args.n,
                "prime": args.prime,
                "points": [list(pt) for pt in polygon.points],
                "vertices": [list(pt) for pt in polygon.vertices],
                "segments": [
                    {"slope": _slope_str(s), "length": length}
                    for s, length in polygon.segments
                ],
                "factor_shape": [
                    {"degree": deg, "slope": _slope_str(s)}
                    for deg, s in shape
                ],
            }
        )
        return 0
    print(f"newton polygon of taylor({sid.value}, {args.n}) at p={args.prime}")
    print("points:   " + " ".join(f"({i},{v})" for i, v in polygon.points))
    print("vertices: " + " ".join(f"({i},{v})" for i, v in polygon.vertices))
    print(
        "segments: "
        + "; ".join(
            f"slope {_slope_str(s)} length {length}"
            for s, length in polygon.segments
        )
    )
    print(
        "factor shape: "
        + ", ".join(f"degree {deg} slope {_slope_str(s)}" for deg, s in shape)
    )
    return 0


def _ident_text(ident, indent: str = "") -> list[str]:
    lines = [
        f"{indent}group: {ident.group_name}"
        + (f" ({ident.t_notation})" if ident.t_notation else ""),
        f"{indent}degree: {ident.degree}",
        f"{indent}certainty: {ident.certainty.kind}",
    ]
    if ident.certainty.candidates:
        lines.append(
            f"{indent}candidates: "
            + ", ".join(ident.certainty.candidates)
        )
    if ident.certainty.sample_count:
        lines.append(
            f"{indent}samples: {ident.certainty.sample_count} usable primes"
            f" up to {ident.certainty.prime_bound}"
        )
    for item in ident.evidence:
        rest = {k: v for k, v in item.items() if k != "kind"}
        lines.append(
            f"{indent}  - {item['kind']}: "
            + json.dumps(rest, sort_keys=True)
        )
    return lines


def _cmd_galois(args) -> int:
    f = _load_poly(args.poly)
    if args.all_factors:
        results = classify_all_factors(f, args.prime_bound)
        if args.json:
            _print_json(
                {
                    "schema": "padegalois-galois/1",
                    "polynomial": format_poly(f),
                    "factors": [
                        {
                            "polynomial": format_poly(poly),
                            "verdict": ident.to_dict(),
                        }
                        for poly, ident in results
                    ],
                }
            )
            return 0
        print(f"input: {format_poly(f)}")
        for poly, ident in results:
            print(f"factor {format_poly(poly)}:")
            for line in _ident_text(ident, indent="  "):
                print(line)
        return 0
    ident = classify(f, args.prime_bound)
    if args.json:
        _print_json(
            {
                "schema": "padegalois-galois/1",
                "polynomial": format_poly(f),
                "verdict": ident.to_dict(),
            }
        )
        return 0
    print(f"input: {format_poly(f)}")
    for line in _ident_text(ident):
        print(line)
    return 0


def _cmd_schur(args) -> int:
    n = args.n
    if n < 1:
        raise CliError("--n must be >= 1")
    q = scale_to_monic_integer(n)
    certificates = []
    if is_prime(n):
        cert = eisenstein_certificate(q, n)
        if cert is not None:
            certificates.append(cert)
    if n >= 3:
        cert = generalized_eisenstein_scan(n)
        if cert is not None:
            certificates.append(cert)
    if not certificates:
        certificates.append(full_factorization_certificate(q))
    cert_payload = [
        {
            "kind": cert.kind,
            "prime": cert.prime,
            "root_witness": cert.root_witness,
            "details": cert.details,
            "validates": cert.validate(q),
        }
        for cert in certificates
    ]
    disc = closed_form_disc(n)
    payload = {
        "schema": "padegalois-schur/1",
        "n": n,
        "polynomial": format_poly(q),
        "certificates": cert_payload,
        "disc": {
            "magnitude": str(disc.magnitude),
            "claimed_sign": disc.claimed_sign,
            "oracle_sign": disc.oracle_sign,
            "agreement": disc.agreement,
        },
        "derivative_identity": derivative_identity_check(n),
        "expected_group": theorem_expectation(n),
    }
    if args.all_checks:
        ident = classify(q, args.prime_bound)
        matches = _names_match(payload["expected_group"], ident.group_name)
        payload["verdict"] = ident.to_dict()
        payload["matches_expectation"] = bool(
            matches and ident.certainty.is_proven
        )
    if args.json:
        _print_json(payload)
        return 0
    print(f"N = {n}: {payload['polynomial']}")
    for cert in cert_payload:
        extras = []
        if cert["prime"] is not None:
            extras.append(f"p={cert['prime']}")
        if cert["root_witness"] is not None:
            extras.append(f"witness={cert['root_witness']}")
        state = "validates" if cert["validates"] else "FAILS VALIDATION"
        suffix = f" ({', '.join(extras)})" if extras else ""
        print(f"certificate: {cert['kind']}{suffix} -> {state}")
        print(f"  {cert['details']}")
    print(
        "discriminant: magnitude (N!)^N = "
        f"{payload['disc']['magnitude']}, claimed sign "
        f"{payload['disc']['claimed_sign']:+d}, oracle sign "
        f"{payload['disc']['oracle_sign']:+d}"
        + (" (agree)" if payload["disc"]["agreement"] else " (DISAGREE)")
    )
    print(
        "derivative identity Q' = Q - x^N: "
        + ("holds" if payload["derivative_identity"] else "FAILS")
    )
    print(f"expected group: {payload['expected_group']}")
    if args.all_checks:
        verdict = payload["verdict"]
        print(
            f"engine verdict: {verdict['group_name']} "
            f"({verdict['certainty']['kind']})"
            + (
                " — matches expectation"
                if payload["matches_expectation"]
                else " — DOES NOT MATCH"
            )
        )
    return 0


def _cmd_reproduce(args) -> int:
    table_id = normalize_table_id(args.table)
    if args.no_cache:
        cache = None
    else:
        directory = args.cache_dir or default_cache_dir()
        cache = ResultCache(directory, verify=args.verify_cache)
    report = reproduce(
        table_id,
        prime_bound=args.prime_bound,
        cache=cache,
        verify=args.verify,
    )
    fmt = "json" if args.json else "csv" if args.csv else "text"
    sys.stdout.buffer.write(emit(report, fmt))
    sys.stdout.buffer.flush()
    return 0 if report["summary"]["status"] == "pass" else 1


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="structured JSON output"
    )
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument(
        "--prime-bound",
        type=int,
        default=DEFAULT_PRIME_BOUND,
        help="largest prime sampled by the identification tiers "
        f"(default {DEFAULT_PRIME_BOUND})",
    )

    parser = argparse.ArgumentParser(
        prog="padegalois",
        description="Exact truncations, diagonal approximants, integer "
        "factorization, Newton polygons, and Galois-group identification "
        "for classical power series.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser(
        "series", parents=[common], help="print an exact Taylor truncation"
    )
    p_series.add_argument("--id", required=True, help="series tag")
    p_series.add_argument("--order", type=int, required=True)
    p_series.set_defaults(handler=_cmd_series)

    p_pade = sub.add_parser(
        "pade", parents=[common], help="diagonal approximant of a series"
    )
    p_pade.add_argument("--series", help="series tag")
    p_pade.add_argument("--order", type=int, help="approximation order")
    p_pade.add_argument(
        "--factor",
        action="store_true",
        help="also factor numerator and denominator",
    )
    p_pade.set_defaults(handler=_cmd_pade, mode=None, max=None)
    pade_sub = p_pade.add_subparsers(dest="mode")
    p_scan = pade_sub.add_parser(
        "scan-divisibility",
        help="check the order-divisibility law on numerators/denominators",
    )
    # --json and --series may come before or after the leaf name: with
    # SUPPRESS, an option the leaf does not see keeps the value from `pade`
    p_scan.add_argument(
        "--json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="structured JSON output",
    )
    p_scan.add_argument("--series", default=argparse.SUPPRESS, help="series tag")
    p_scan.add_argument("--max", type=int, help="largest order to scan")
    p_scan.set_defaults(handler=_cmd_pade)

    p_factor = sub.add_parser(
        "factor", parents=[common], help="factor a polynomial over Z"
    )
    p_factor.add_argument(
        "--poly", required=True, help="polynomial text, JSON array, or file"
    )
    p_factor.set_defaults(handler=_cmd_factor)

    p_newton = sub.add_parser(
        "newton",
        parents=[common],
        help="Newton polygon of a series truncation",
    )
    p_newton.add_argument("--series", required=True, help="series tag")
    p_newton.add_argument("--n", type=int, required=True)
    p_newton.add_argument("--prime", type=int, required=True)
    p_newton.set_defaults(handler=_cmd_newton)

    p_galois = sub.add_parser(
        "galois", parents=[common, sampled], help="identify a Galois group"
    )
    p_galois.add_argument(
        "--poly", required=True, help="polynomial text, JSON array, or file"
    )
    p_galois.add_argument(
        "--all-factors",
        action="store_true",
        help="one verdict per irreducible factor",
    )
    p_galois.set_defaults(handler=_cmd_galois)

    p_schur = sub.add_parser(
        "schur",
        parents=[common, sampled],
        help="irreducibility certificates and identities for the scaled "
        "exponential truncation",
    )
    p_schur.add_argument("--n", type=int, required=True)
    p_schur.add_argument(
        "--all-checks",
        action="store_true",
        help="also run the group-identification engine",
    )
    p_schur.set_defaults(handler=_cmd_schur)

    p_repro = sub.add_parser(
        "reproduce",
        parents=[sampled],
        help="recompute one expected-values table and compare every cell",
    )
    p_repro.add_argument(
        "table",
        help="table id: " + ", ".join(sorted(TABLES)),
    )
    output = p_repro.add_mutually_exclusive_group()
    output.add_argument(
        "--json", action="store_true", help="structured JSON output"
    )
    output.add_argument("--csv", action="store_true", help="CSV output")
    p_repro.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )
    p_repro.add_argument(
        "--verify-cache",
        action="store_true",
        help="recompute every cache hit and require bit-identical results",
    )
    p_repro.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="cache directory (default: $PADEGALOIS_CACHE_DIR or "
        "~/.cache/padegalois)",
    )
    p_repro.add_argument(
        "--verify",
        action="store_true",
        help="replay the evidence of every proven verdict",
    )
    p_repro.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        CliError,
        TableError,
        PadeDefectError,
        CacheMismatchError,
        FactorCutoffError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
