"""Command-line front end.

Subcommands:

* ``count``  -- class and (when finite) count of r-planes on a generic
  degree-d hypersurface in P^n;
* ``split``  -- the two-component degeneration split, with an optional
  cross-check of the two evaluation routes;
* ``class``  -- print Chern/Segre classes of a bundle expression in either
  the Schubert basis or the free Chern-monomial presentation;
* ``verify`` -- sweep a parameter grid and check the split identity at
  every point.

Exit codes: 0 success, 2 usage or parse error, 3 guardrail rejection
(a symmetric power above the rank cap, which ``bundles.sym_rank`` refuses
wherever a rank is formed), 4 verification failure.  ``--format json``
emits one canonical JSON object (integers as decimal strings) whose
parse/re-serialize round trip is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import bundles
from .chow import GrassCtx, integral, schubert_latex, schubert_string, serialize_class
from .errors import (
    ExprParseError,
    RankCapExceededError,
    RouteMismatchError,
    SchubfireError,
)
from .limiting import expected_dim, split, total_class, verify_identity

USAGE_EXIT = 2
GUARDRAIL_EXIT = 3
VERIFY_EXIT = 4


def _now_ms() -> int:
    return time.perf_counter_ns() // 1_000_000


def _dump_json(record) -> str:
    return json.dumps(record, separators=(", ", ": "))


def _emit(record, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(_dump_json(record))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Bundle-expression parsing for the `class` subcommand


def _tokenize(src: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isspace():
            i += 1
        elif ch in "(),":
            out.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            out.append(src[i:j])
            i = j
        else:
            raise ExprParseError(f"unexpected character {ch!r} in expression")
    return out


# Far beyond any real expression, and well inside Python's recursion limit
# for the parser and the recursive evaluation that follows it.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ExprParseError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ExprParseError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def int_arg(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ExprParseError(f"expected an integer, found {tok!r}")
        return int(tok)

    def bundle(self, depth: int = 1) -> bundles.BundleExpr:
        if depth > _MAX_NESTING:
            raise ExprParseError(f"expression nested deeper than {_MAX_NESTING} levels")
        tok = self.take()
        if tok == "Ustar":
            return bundles.ustar()
        if tok == "sym":
            self.take("(")
            d = self.int_arg()
            self.take(",")
            child = self.bundle(depth + 1)
            self.take(")")
            return bundles.sym(d, child)
        if tok == "dual":
            self.take("(")
            child = self.bundle(depth + 1)
            self.take(")")
            return bundles.dual(child)
        if tok == "sum":
            self.take("(")
            children = [self.bundle(depth + 1)]
            while self.peek() == ",":
                self.take(",")
                children.append(self.bundle(depth + 1))
            self.take(")")
            return bundles.direct_sum(*children)
        raise ExprParseError(f"unknown bundle constructor {tok!r}")

    def class_expr(self) -> tuple[str, int | None, bundles.BundleExpr]:
        tok = self.take()
        if tok == "ctop":
            self.take("(")
            child = self.bundle()
            self.take(")")
            return ("ctop", None, child)
        if tok in ("chern", "segre"):
            self.take("(")
            i = self.int_arg()
            self.take(",")
            child = self.bundle()
            self.take(")")
            return (tok, i, child)
        raise ExprParseError(
            f"expression must start with ctop/chern/segre, found {tok!r}"
        )


def parse_class_expr(src: str):
    parser = _Parser(_tokenize(src))
    result = parser.class_expr()
    if parser.peek() is not None:
        raise ExprParseError(f"trailing input after expression: {parser.peek()!r}")
    return result


# ---------------------------------------------------------------------------
# Subcommands


def cmd_count(args) -> int:
    started = _now_ms()
    total = total_class(args.r, args.n, args.d)  # guards the rank before any binomial
    m = expected_dim(args.r, args.n, args.d)
    computed = _now_ms()
    empty = not total
    record = {
        "params": {"r": args.r, "n": args.n, "d": args.d},
        "m": m,
        "generically_empty": empty,
        "total_class": serialize_class(total),
    }
    lines = [
        f"r={args.r} n={args.n} d={args.d}",
        f"expected dimension m = {m}",
        f"generically empty: {str(empty).lower()}",
        f"total class: {schubert_string(total)}",
    ]
    if m == 0:
        count = integral(total)
        record["total_count"] = str(count)
        lines.append(f"total count: {count}")
    record["timings"] = {"compute_ms": computed - started, "total_ms": _now_ms() - started}
    _emit(record, args.format, lines)
    return 0


def cmd_split(args) -> int:
    started = _now_ms()
    result = split(args.r, args.n, args.d, args.k, route=args.route)
    computed = _now_ms()
    record = {
        "params": {
            "r": args.r,
            "n": args.n,
            "d": args.d,
            "k": args.k,
            "l": result.l,
        },
        "m": result.m,
        "generically_empty": not result.total,
        "total_class": serialize_class(result.total),
        "sigma_k_class": serialize_class(result.sigma_k),
        "sigma_l_class": serialize_class(result.sigma_l),
        "identity_ok": result.identity_ok,
        "route": args.route,
        "status": result.status,
    }
    lines = [
        f"r={args.r} n={args.n} d={args.d} k={args.k} l={result.l}",
        f"expected dimension m = {result.m}",
        f"total class: {schubert_string(result.total)}",
        f"class in degree-{args.k} component: {schubert_string(result.sigma_k)}",
        f"class in degree-{result.l} component: {schubert_string(result.sigma_l)}",
        f"identity (sum equals total): {str(result.identity_ok).lower()}",
    ]
    if result.m == 0:
        record["total_count"] = str(result.count_total)
        record["count_k"] = str(result.count_k)
        record["count_l"] = str(result.count_l)
        lines.append(
            f"counts: total {result.count_total} = {result.count_k} + {result.count_l}"
        )
    if result.status != "ok":
        lines.append(f"status: {result.status}")
    record["timings"] = {"compute_ms": computed - started, "total_ms": _now_ms() - started}
    _emit(record, args.format, lines)
    return 0


def cmd_class(args) -> int:
    op, degree, expr = parse_class_expr(args.expr)
    grass = GrassCtx(args.r, args.n)  # validates the parameter range for both bases
    k = args.r + 1
    rank = bundles.bundle_rank(expr, k)  # applies the rank cap, inner powers first
    if op == "ctop":
        degree = rank
    # The parser builds only honest bundles, whose Chern classes vanish
    # above the rank, so chern(i, E) never needs a ring above it; the
    # series stops at the rank, so the guard below also keeps the read
    # inside the list.
    top = degree if op == "segre" else min(degree, rank)
    ring = grass if args.basis == "schubert" else bundles.ChernCtx(k, top)
    if degree > ring.top_degree or (op != "segre" and degree > rank):
        value = ring.zero()
    elif op == "segre":
        value = bundles.segre(expr, ring, max_degree=degree)[degree]
    elif op == "ctop":
        # The top class is the product of the roots, read at that one degree.
        value = bundles.ctop_quotient(expr, None, ring)
    else:
        value = bundles.total_chern(expr, ring)[degree]
    record = {
        "params": {"r": args.r, "n": args.n},
        "expr": args.expr,
        "basis": args.basis,
    }
    if args.basis == "schubert":
        record["class"] = serialize_class(value)
        rendered = schubert_latex(value) if args.latex else schubert_string(value)
    else:
        record["class"] = [
            {"monomial": list(exps), "coeff": str(c)}
            for exps, c in value.sorted_terms()
        ]
        rendered = bundles.chern_latex(value) if args.latex else bundles.chern_string(value)
    if args.format == "json":
        print(_dump_json(record))
    else:
        print(rendered)
    return 0


def cmd_verify(args) -> int:
    if args.r_max < 1 or args.n_max < 2 or args.d_max < 2:
        raise ValueError("empty grid: verify needs r-max >= 1, n-max >= 2 and d-max >= 2")
    started = _now_ms()
    grid = []
    failures = 0
    for r in range(1, args.r_max + 1):
        for n in range(r + 1, args.n_max + 1):
            for d in range(2, args.d_max + 1):
                for k in range(1, d):
                    entry = {"r": r, "n": n, "d": d, "k": k}
                    grid.append(entry)
                    try:
                        ok = verify_identity(r, n, d, k)
                    except RankCapExceededError:
                        entry["skipped"] = True
                        continue
                    entry["identity_ok"] = ok
                    if not ok:
                        failures += 1
    record = {
        "params": {"r_max": args.r_max, "n_max": args.n_max, "d_max": args.d_max},
        "grid": grid,
        "failures": failures,
        "timings": {"total_ms": _now_ms() - started},
    }
    lines = []
    for entry in grid:
        tag = (
            "skipped (rank cap)"
            if entry.get("skipped")
            else ("ok" if entry["identity_ok"] else "FAIL")
        )
        lines.append(
            f"r={entry['r']} n={entry['n']} d={entry['d']} k={entry['k']}: {tag}"
        )
    lines.append(f"failures: {failures}")
    _emit(record, args.format, lines)
    return VERIFY_EXIT if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schubfire",
        description="Exact Schubert-calculus counts and degeneration splits "
        "of linear subspaces on hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_count = sub.add_parser("count", help="count r-planes on a generic hypersurface")
    p_count.add_argument("--r", type=int, required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--d", type=int, required=True)
    common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_split = sub.add_parser("split", help="split the count under a degeneration")
    p_split.add_argument("--r", type=int, required=True)
    p_split.add_argument("--n", type=int, required=True)
    p_split.add_argument("--d", type=int, required=True)
    p_split.add_argument("--k", type=int, required=True)
    p_split.add_argument("--route", choices=("direct", "pb", "both"), default="direct")
    common(p_split)
    p_split.set_defaults(func=cmd_split)

    p_class = sub.add_parser("class", help="print a characteristic class")
    p_class.add_argument("--expr", required=True)
    p_class.add_argument("--r", type=int, required=True)
    p_class.add_argument("--n", type=int, required=True)
    p_class.add_argument("--basis", choices=("schubert", "chern"), default="schubert")
    p_class.add_argument("--latex", action="store_true")
    common(p_class)
    p_class.set_defaults(func=cmd_class)

    p_verify = sub.add_parser("verify", help="sweep the split identity over a grid")
    p_verify.add_argument("--r-max", type=int, required=True)
    p_verify.add_argument("--n-max", type=int, required=True)
    p_verify.add_argument("--d-max", type=int, required=True)
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RankCapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return GUARDRAIL_EXIT
    except RouteMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_EXIT
    except (SchubfireError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
