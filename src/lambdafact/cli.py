"""Command-line front end: family tables, identity verification, series
transforms, and the colored-forest bijection demo.

Output is deterministic for fixed inputs.  JSON is the machine format, CSV
the tabular convenience, DOT the graph format.  A series is printed to
--order, 8 by default; requests beyond the safety cutoffs need --unsafe.
A rejected request, an option its mode does not read included, is reported
as `error: ...` on standard error with exit status 2.  If the reader closes
standard output early, the command stops quietly with exit status 141.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import identities, sequences, series
from .polynomial import Polynomial
from .symbols import LAM, T, lam as _lam

SERIES_ORDER_CAP = 12
TABLE_INDEX_CAP = 50
BIJECTION_DEFAULT_CAP = 10 ** 5
BROKEN_PIPE_EXIT = 128 + 13  # what a shell reports for a process ended by SIGPIPE

# The one-index families, each with the sequences function that computes it.
_ONE_INDEX = {
    "factorial": "factorial",
    "derangement": "derangement",
    "lambda-factorial": "lambda_factorial",
    "charlier": "charlier",
    "bell": "bell_poly",
    "hermite": "hermite_poly",
}
TABLE_FAMILIES = (*_ONE_INDEX, "stirling2", "q")


def _ints(what: str, parts: list[str], raw: str) -> tuple[int, ...]:
    """The parts as ints; the first that is not one is named, with the whole argument."""
    values = []
    for part in parts:
        try:
            values.append(int(part))
        except ValueError:
            raise ValueError(f"{what} must be integers, got {part!r} in {raw!r}") from None
    return tuple(values)


def _parse_range(spec: str) -> range:
    bounds = _ints("table indices", spec.split("..", 1), spec)
    lo, hi = bounds[0], bounds[-1]
    if lo < 0 or hi < lo:
        raise ValueError(f"bad range {spec!r}")
    return range(lo, hi + 1)


def _check_cap(what: str, value: int, cap: int, unsafe: bool) -> None:
    if value > cap and not unsafe:
        raise ValueError(
            f"{what} {value} beyond the default cap {cap}; pass --unsafe to override"
        )


def _reject_unread(mode: str, options: dict) -> None:
    """A request that sets an option its mode does not read drops part of itself."""
    unread = [name for name, value in options.items() if value is not None]
    if unread:
        raise ValueError(f"{mode} does not read {', '.join(unread)}")


def _table_rows(family: str, ns: range, ms: range | None):
    if family in _ONE_INDEX:
        if ms is not None:
            raise ValueError(f"family {family!r} takes one index, got a second")
        fn = getattr(sequences, _ONE_INDEX[family])
        return [(n, None, fn(n)) for n in ns]
    if family == "stirling2":
        rows = []
        for n in ns:
            for k in ms if ms is not None else range(0, n + 1):
                rows.append((n, k, sequences.stirling2(n, k)))
        return rows
    if ms is None:
        raise ValueError("family 'q' needs an m range")
    return [(n, m, sequences.q_poly(n, m)) for n in ns for m in ms]


def _cmd_table(args) -> int:
    ns = _parse_range(args.n)
    ms = _parse_range(args.m) if args.m is not None else None
    top = max(ns.stop - 1, (ms.stop - 1) if ms is not None else 0)
    _check_cap("index", top, TABLE_INDEX_CAP, args.unsafe)
    rows = _table_rows(args.family, ns, ms)
    if args.format == "json":
        payload = [
            {"family": args.family, "n": n, **({"m": m} if m is not None else {}),
             "value": str(v)}
            for n, m, v in rows
        ]
        print(json.dumps(payload, ensure_ascii=False))
    else:
        for n, m, v in rows:
            cells = [args.family, str(n)] + ([str(m)] if m is not None else []) + [str(v)]
            print(",".join(cells))
    return 0


def _cmd_verify(args) -> int:
    wanted = None if args.ids in ([], ["all"]) else args.ids
    failures = 0
    for report in identities.verify_many(
        wanted, n_max=args.n_max, m_max=args.m_max, order=args.order
    ):
        print(json.dumps(report.to_json(), ensure_ascii=False))
        if not report.verdict:
            failures += 1
    return 1 if failures else 0


def _series_payload(args) -> series.TruncatedSeries:
    _check_cap("order", args.order, SERIES_ORDER_CAP, args.unsafe)
    if args.what == "tree":
        _reject_unread("series tree", {"--lambda": args.lam, "--a": args.a})
        return series.tree_function(args.order)
    try:
        lam = _lam if args.lam in (None, "sym") else Polynomial.constant(int(args.lam))
    except ValueError:
        raise ValueError(f"--lambda must be an integer or 'sym', got {args.lam!r}") from None
    if args.what == "egf-f":
        _reject_unread("series egf-f", {"--a": args.a})
        return series.exp_series(lam - 1, T, args.order) * series.geometric(T, args.order)
    return series.abel_rhs(sequences.ABEL_FAMILIES[args.a or "ones"], lam, args.order)


def _cmd_series(args) -> int:
    ser = _series_payload(args)
    if args.format == "json":
        print(
            json.dumps(
                {"var": ser.var, "order": ser.order,
                 "coefficients": [str(c) for c in ser.coeffs]},
                ensure_ascii=False,
            )
        )
    else:
        print(str(ser))
    return 0


def _parse_sigma(raw: str, size: int) -> tuple[int, ...]:
    image = _ints("--sigma entries", raw.replace(" ", "").split(","), raw)
    if len(image) != size:
        raise ValueError(f"sigma must list {size} image values, got {len(image)}")
    return image


def _cmd_bijection(args) -> int:
    from . import enumeration  # only this command needs it, so no other compiles it

    n, lam = args.n, args.lam
    if n < 0 or lam < 0 or n + lam == 0:
        # n = lambda = 0 has no objects: a census of nothing is no pass.
        raise ValueError("need n >= 0, lambda >= 0 and n + lambda >= 1")

    if args.sigma is not None:
        # --unsafe only raises the census cutoff: one sigma has none.
        _reject_unread("bijection --sigma", {"--unsafe": args.unsafe or None})
        sigma = enumeration.Endofunction(_parse_sigma(args.sigma, n + lam + 1))
        pair = enumeration.sigma_to_pair(sigma, n, lam)
        back = enumeration.pair_to_sigma(pair, n, lam)
        pi = dict(pair.pi)  # tau sends a root to its pi image, any other vertex to its parent
        tau = [p or pi[v] for v, p in enumerate(pair.parent, start=1)]
        print(f"sigma: {list(sigma.image)}")
        print(f"tau:   {tau}  colors: {dict(pair.colors)}")
        print(f"forest parents: {list(pair.parent)} (0 marks roots)")
        print(f"root permutation: {pi}")
        print(f"colored fixed points: {dict(pair.colors)}")
        print(f"recovered sigma: {list(back.image)}")
        status = "OK" if back.image == sigma.image else "MISMATCH"
        print(f"round trip: {status}")
        if args.dot:
            print(enumeration.endofunction_to_dot(sigma))
            print(enumeration.pair_to_dot(pair))
        return 0 if status == "OK" else 1

    _reject_unread("bijection without --sigma", {"--dot": args.dot})
    # Under --unsafe the enumeration's own cutoff is the limit.
    if not args.unsafe and enumeration.census_exceeds(n, lam, BIJECTION_DEFAULT_CAP):
        raise ValueError(f"n={n}, lambda={lam}: more than {BIJECTION_DEFAULT_CAP} objects, "
                         "beyond the default cap; pass --unsafe to override")
    start = time.perf_counter()
    try:
        strata = enumeration.exhaustive_roundtrip(n, lam)
    except RuntimeError as exc:
        print(f"round trip: MISMATCH ({exc})", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    total = sum(strata.values())
    rate = total / elapsed if elapsed else float("inf")
    print(f"{total} objects, round-trip OK in {elapsed:.3f} s ({rate:,.0f} objects/s)")
    ok = total == (n + lam) ** (n + 1)
    for k in range(n + 1):
        observed = strata.get(k, 0)
        expected = sequences.binomial(n, k) * (n + 1) ** (n - k) * int(
            sequences.lambda_factorial(k + 1).evaluate({LAM: lam})
        )
        mark = "ok" if observed == expected else "MISMATCH"
        ok = ok and observed == expected
        print(f"  k={k}: {observed} (expected {expected}) {mark}")
    print(f"total {total} = ({n}+{lam})^{n + 1}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdafact",
        description="Exact tables, identity verification, series transforms and "
        "the colored-forest bijection demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print one family as CSV or JSON rows")
    p_table.add_argument("family", choices=TABLE_FAMILIES)
    p_table.add_argument("n", help="index or inclusive range, e.g. 3 or 0..5")
    p_table.add_argument("m", nargs="?", default=None,
                         help="second index range (q, stirling2)")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--unsafe", action="store_true",
                         help="allow indices beyond the default cap")
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="verify catalogued identities")
    p_verify.add_argument("ids", nargs="*", default=[],
                          help="identity ids, or 'all' (default)")
    p_verify.add_argument("--n-max", type=int, default=None)
    p_verify.add_argument("--m-max", type=int, default=None)
    p_verify.add_argument("--order", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_series = sub.add_parser("series", help="print a named series")
    p_series.add_argument("what", choices=("tree", "egf-f", "abel-rhs"))
    p_series.add_argument("--order", type=int, default=8)
    p_series.add_argument("--lambda", dest="lam", default=None,
                          help="integer value or 'sym' (default); egf-f and abel-rhs")
    p_series.add_argument("--a", choices=tuple(sequences.ABEL_FAMILIES), default=None,
                          help="sequence family for abel-rhs ('ones' by default)")
    p_series.add_argument("--format", choices=("text", "json"), default="text")
    p_series.add_argument("--unsafe", action="store_true",
                          help="allow orders beyond the default cap")
    p_series.set_defaults(func=_cmd_series)

    p_bij = sub.add_parser("bijection",
                           help="exhaustive round-trip census, or map one sigma")
    p_bij.add_argument("n", type=int)
    p_bij.add_argument("lam", type=int, metavar="lambda")
    p_bij.add_argument("--sigma", default=None,
                       help="comma-separated image of one endofunction")
    p_bij.add_argument("--dot", action="store_true", default=None,
                       help="also print DOT graphs of --sigma")
    p_bij.add_argument("--unsafe", action="store_true",
                       help="raise the exhaustive-run cutoff")
    p_bij.set_defaults(func=_cmd_bijection)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except ValueError as exc:
        # The one place a rejected request becomes exit status 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout.  Whatever is still buffered goes nowhere,
        # and the exit status says the stream did not complete.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    return code


if __name__ == "__main__":
    sys.exit(main())
