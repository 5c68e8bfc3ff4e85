"""Chern and Segre classes of formal bundle expressions.

Expressions are small trees of the nodes that the split formulas and the
CLI grammar build: the dual universal subbundle, symmetric powers, duals
and nonempty direct sums.  Total Chern classes follow the splitting
principle.  Every Chern root of an expression is an integer linear form in
the k roots of U* (``_forms``), so a symmetric power of any child goes
through one kind of table: the product of (1 + root t) over the roots of
the power, multiplied out in place on x-monomials packed into integers,
its Schur coefficients read off the packed keys by ``sympoly``: slot i,
worth base**i, holds the exponent of x_i plus k - 1 and the base leaves
2k - 2 above the top exponent, so no signed shift of the read-off borrows
(``sympoly.packing``).  The table is a Schur
expansion in the roots of U*, which ``schur_class`` reads straight into
the ring: on a Grassmannian s_lam is sigma_lam, so no product is made.
The table of Sym^d U* is memoized per (power, rank, degree cap) and shared
by every ring with that rank.

One loop (``_root_product``) multiplies a packed series by 1 + root t and
divides it by 1 + root t, so it builds Segre classes as well, and
``ctop_quotient`` reads c_top(F) c_R(E - F), R = rank E - rank F, off one
such product: E's roots multiply, F's divide up to degree R, and that one
degree is multiplied by F's roots with no shift in t.  This is the first
term of ``limiting.sigma_direct``; with no F it is c_top(E), the product
of E's roots, which ``class`` prints.  The expansion is memoized per
(E, F, k), and E = Sym^d U* starts from the packed product that the table
build of Sym^d U* has just left (``_HANDOFF``, two entries).

The Chern and Segre series of every expression are computed once per
ring, memoized by the expression's structure and the ring, and shared by
every caller, so the direct and projective-bundle routes of ``limiting``
draw on the same classes.  The Segre series is grown in place up to the
highest degree asked for so far, by inverting the Chern series in the
ring, one product per pair of degrees, except where no product is
needed: a dual flips the signs of its child's odd degrees, and the first
prefix asked of Sym^m U*, m >= 2, on a Grassmannian with k <= 3 is read
off the inverse table, the product of 1/(1 + root t) over the same roots,
as the Chern table is read.  On the free ring the read-off straightens
every degree, and with more base roots the table outgrows the products
in the box, so the inversion is faster there (``reads_roots``, which
``limiting`` asks before reading ``ctop_quotient``).

A ring context provides ``k`` (the rank of the universal subbundle),
``top_degree``, ``one()``, ``zero()``, ``universal_dual_chern()`` (c_0
up to c_min(k, top) of its dual) and ``schur_class(schur)`` (a Schur
expansion in the roots of that dual).  The two rings are the Schubert
basis of a Grassmannian (GrassCtx) and the free presentation in c1..ck
(ChernCtx below), used for printing and for regressions against known
expansions.

Every Chern series stops at c_min(rank, top): the classes above the rank
vanish and are never built, so the work grows with the rank, not with the
dimension of the ring.

The Segre series is the formal inverse of the Chern series, c(E).s(E) = 1,
so s1(E) = -c1(E); every downstream formula assumes exactly this
convention.

Every rank of a symmetric power is formed by ``sym_rank``, which refuses
one above the cap (``SCHUBFIRE_RANK_CAP``, default 64) before any table is
built, for the CLI, ``limiting`` and library callers alike.  ``total_chern``,
``segre`` and ``ctop_quotient`` check the cap on every call, before the
memo, so a class computed under a higher cap is refused once the cap is
lowered.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations_with_replacement

from . import sympoly
from .chow import GrassCtx, _Combination, _Record, _set_key, render
from .errors import RankCapExceededError
from .partitions import schur_to_elementary

USTAR = "ustar"
SYM = "sym"
DUAL = "dual"
SUM = "sum"

RANK_CAP_DEFAULT = 64
RANK_CAP_ENV = "SCHUBFIRE_RANK_CAP"


class BundleExpr(_Record):
    """A node of a formal bundle expression (compare by structure)."""

    _fields = ("kind", "children", "power")

    def __init__(self, kind: str, children: tuple = (), power: int = 0) -> None:
        attrs = self.__dict__
        attrs["kind"], attrs["children"], attrs["power"] = key = (kind, children, power)
        _set_key(self, key)

    def __repr__(self) -> str:
        if self.kind == USTAR:
            return "Ustar"
        if self.kind == SYM:
            return f"sym({self.power},{self.children[0]!r})"
        body = ",".join(repr(c) for c in self.children)
        return f"{self.kind}({body})"


def ustar() -> BundleExpr:
    """The dual of the universal subbundle."""
    return BundleExpr(USTAR)


def sym(d: int, child: BundleExpr) -> BundleExpr:
    if d < 1:
        raise ValueError("symmetric power degree must be >= 1")
    return BundleExpr(SYM, (child,), power=d)


def dual(child: BundleExpr) -> BundleExpr:
    return BundleExpr(DUAL, (child,))


def direct_sum(*children: BundleExpr) -> BundleExpr:
    if not children:
        raise ValueError("a direct sum needs at least one summand")
    return BundleExpr(SUM, tuple(children))


def rank_cap() -> int:
    """Current symmetric-power rank guardrail (env-overridable)."""
    raw = os.environ.get(RANK_CAP_ENV)
    if raw is None:
        return RANK_CAP_DEFAULT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{RANK_CAP_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{RANK_CAP_ENV} must be positive, got {value}")
    return value


def sym_rank(e: int, d: int) -> int:
    """Rank comb(e+d-1, d) of Sym^d of a rank-e bundle.

    Raises RankCapExceededError if it is above the cap, stopping the
    growing partial products comb(big + j, j) at the first one above it,
    so no rank with thousands of digits is ever formed.
    """
    if e < 1 or d < 1:
        raise ValueError(f"a symmetric power needs rank and degree >= 1, got {e} and {d}")
    cap = rank_cap()
    small, big = sorted((d, e - 1))
    rank = 1
    for j in range(1, small + 1):
        rank = rank * (big + j) // j
        if rank > cap:
            raise RankCapExceededError(
                f"rank of the degree-{d} symmetric power is above the cap {cap} "
                f"(override with {RANK_CAP_ENV})"
            )
    return rank


def bundle_rank(expr: BundleExpr, k: int) -> int:
    """Rank, with the universal subbundle resolved to rank k; each
    symmetric power goes through ``sym_rank``, inner powers first."""
    if expr.kind == USTAR:
        return k
    if expr.kind == SYM:
        return sym_rank(bundle_rank(expr.children[0], k), expr.power)
    if expr.kind == DUAL:
        return bundle_rank(expr.children[0], k)
    if expr.kind == SUM:
        return sum(bundle_rank(c, k) for c in expr.children)
    raise ValueError(f"unknown node kind {expr.kind!r}")


# ---------------------------------------------------------------------------
# Universal symmetric-power tables


def sym_chern(d: int, k: int, max_degree: int | None = None) -> tuple[dict, ...]:
    """Universal Chern classes of the d-th symmetric power of a rank-k bundle.

    Entry i is c_i(Sym^d E) as a Schur expansion in the Chern roots of E,
    {partition: coefficient} over shapes of weight i and at most k rows;
    ``partitions.schur_to_elementary(entry, k)`` turns an entry into a
    polynomial in c1..ck(E).  Tables are memoized per (d, k, cap), where
    cap is the requested degree clipped to the rank of the power; a power
    above the rank cap, or a negative degree, is refused before any table
    is built.
    """
    r_d = sym_rank(k, d)
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    cap = r_d if max_degree is None else min(max_degree, r_d)
    return _sym_table(d, k, cap)


# Root products are read into the ring in place of products in it only
# where that measured faster: on a Grassmannian, whose read-off keeps the
# shapes in the box and makes no product, with at most this many base roots.
# For the inverse table of a power of U*: cold, at cap = dim, it won at
# every G(k, n+1) tried with k <= 3; at k = 4 and 5 only on the wider boxes
# (G(4, 11), G(5, 11) and up), and at k = 6 it lost by up to 130x, its
# x-monomials and k! signed shifts per shape, one lookup each, outgrowing
# the products.  On ChernCtx the read-off straightens every degree, and the
# inversion was as fast or faster at every point tried.  For children other
# than U* the two have not been compared.  The first term of
# ``limiting.sigma_direct`` follows the same rule: read off ``ctop_quotient``
# at k = 4, a cold split (3, 8, 3, 1) was about 1.3x slower than by products.
_ROOT_READ_MAX_K = 3


def reads_roots(expr: BundleExpr, ring) -> bool:
    """True where classes of the expression, a power Sym^m U* with m >= 2,
    are read off root products rather than made by products in the ring;
    Sym^1 U* is U*, whose short Chern series inverts cheaply."""
    return (
        expr.kind == SYM
        and expr.power > 1
        and expr.children[0].kind == USTAR
        and isinstance(ring, GrassCtx)
        and ring.k <= _ROOT_READ_MAX_K
    )


# The packed root products of the last powers of U* that ``_sym_table``
# built, for ``_quotient_table`` to divide rather than multiply out again:
# (expression, k) -> (base, packed series).  In a split they are
# Sym^d and Sym^k U*; keeping every one would hold the product of every
# table built for as long as the process runs.
_HANDOFF: dict = {}
_HANDOFF_SIZE = 2


@lru_cache(maxsize=None)
def _sym_table(d: int, k: int, cap: int) -> tuple[dict, ...]:
    power = sym(d, ustar())
    base, unit = sympoly.packing(cap, k)
    series = _root_product(_unit_series(cap, unit), _forms(power, k), base)
    if k <= _ROOT_READ_MAX_K:  # the quotient is read only where reads_roots holds
        _HANDOFF.pop((power, k), None)
        _HANDOFF[power, k] = base, series
        if len(_HANDOFF) > _HANDOFF_SIZE:
            del _HANDOFF[next(iter(_HANDOFF))]
    return _read_off(series, base, k)


def _forms(expr: BundleExpr, k: int) -> tuple[tuple[int, ...], ...]:
    """The Chern roots of the expression as integer linear forms in the k
    roots of U*, one coefficient tuple per root."""
    if expr.kind == USTAR:
        return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
    inner = [_forms(child, k) for child in expr.children]
    if expr.kind == DUAL:
        return tuple(tuple(-a for a in form) for form in inner[0])
    if expr.kind == SUM:
        return tuple(form for forms in inner for form in forms)
    return tuple(  # SYM: a root of the power sums the roots of one multiset
        tuple(map(sum, zip(*multiset)))
        for multiset in combinations_with_replacement(inner[0], expr.power)
    )


def _unit_series(cap: int, unit: int) -> list[dict[int, int]]:
    return [{unit: 1}] + [{} for _ in range(cap)]


def _has_opposite_roots(forms: tuple) -> bool:
    """True if some nonzero root's negative is a root too, as in powers of
    E + E*: (1 + root t)(1 - root t) = 1 - root^2 t^2, and the products
    keep every monomial whose coefficient cancels this way, as a 0."""
    roots = set(forms)
    return any(any(form) and tuple(-m for m in form) in roots for form in roots)


def _root_product(series: list, forms: tuple, base: int, divide: bool = False) -> list:
    """Multiplies a packed series in place by 1 + root t for each of these
    Chern roots (``_forms``), or with ``divide`` by 1/(1 + root t), up to
    its last degree, and returns it.

    Multiplying, each degree takes the old degree below, so degrees run
    down; dividing, it takes the new one, s_t - root s_(t-1), so they run
    up.  Where some root's negative is a root too, the products keep many
    monomials whose coefficient has cancelled to 0, and these are dropped
    after each root so that later roots do not walk them; the division
    leaves few, and is left as it is.
    """
    # x-monomials are packed into one int (``sympoly.packing``), slot i
    # worth base**i: no slot reaches the base, so nothing carries and
    # multiplying by x_i adds base**i, m times for a coefficient m of x_i in
    # the root (negative in a dual, and in every root divided by).
    cap = len(series) - 1
    steps = [base**i for i in range(len(forms[0]))]
    filled = max(t for t, p in enumerate(series) if p)
    prune = not divide and _has_opposite_roots(forms)
    for form in forms:
        root = [(step, -m if divide else m) for step, m in zip(steps, form) if m]
        if divide:
            degrees = range(1, cap + 1)
        else:
            filled = min(cap, filled + 1)
            degrees = range(filled, 0, -1)
        for t_deg in degrees:
            target, lower = series[t_deg], series[t_deg - 1].items()
            get = target.get
            for step, m in root:
                if m == 1:
                    for key, c in lower:
                        key += step
                        target[key] = get(key, 0) + c
                elif m == -1:
                    for key, c in lower:
                        key += step
                        target[key] = get(key, 0) - c
                else:
                    for key, c in lower:
                        key += step
                        target[key] = get(key, 0) + c * m
        if prune:
            for t_deg in degrees:
                series[t_deg] = {key: c for key, c in series[t_deg].items() if c}
    return series


def _times_roots(poly: dict[int, int], forms: tuple, base: int) -> dict[int, int]:
    """A packed polynomial times the product of these roots, with no shift
    in t."""
    steps = [base**i for i in range(len(forms[0]))]
    for form in forms:
        out: dict[int, int] = {}
        get = out.get
        for step, m in zip(steps, form):
            if m:
                for key, c in poly.items():
                    key += step
                    out[key] = get(key, 0) + c * m
        poly = out
    return poly


def _root_table(forms: tuple, cap: int, inverse: bool) -> tuple[dict, ...]:
    """c_0..c_cap of the bundle with these Chern roots (``_forms``), or with
    ``inverse`` its Segre classes s_0..s_cap, as Schur expansions in the
    roots of U*.  Only the tables of ``sym_chern`` are memoized;
    ``_series`` memoizes what is read."""
    k = len(forms[0])
    base, unit = sympoly.packing(cap, k)
    series = _root_product(_unit_series(cap, unit), forms, base, divide=inverse)
    return _read_off(series, base, k)


def _read_off(series: list, base: int, k: int) -> tuple[dict, ...]:
    """Schur coefficients of each packed degree, read off by ``sympoly``."""
    return tuple(sympoly.read_packed(p, t, base, k) for t, p in enumerate(series))


@lru_cache(maxsize=None)
def _quotient_table(e: BundleExpr, f: BundleExpr | None, k: int) -> dict:
    """The Schur expansion of ``ctop_quotient`` in the roots of U*.

    By the splitting principle c_R(E - F) is the degree-R part of the
    product of 1 + root t over E's roots and of 1/(1 + root t) over F's
    (Macdonald, I.2-3), and c_top(F) is the product of F's roots.  So E's
    roots multiply the series up to degree R, F's divide it, and its degree
    R alone is multiplied by F's roots with no shift in t.  E's series is
    taken from ``_HANDOFF`` when ``_sym_table`` has just built it packed
    in the base used here, which it is when built to its top degree; a
    table built to a lower cap has a smaller base and is not divided.  With
    f None the product is that of E's roots, read at degree rank E.
    """
    e_forms = _forms(e, k)
    base, unit = sympoly.packing(len(e_forms), k)  # no exponent exceeds rank E
    if f is None:
        top, f_forms = {unit: 1}, e_forms
    else:
        f_forms = _forms(f, k)
        cap = len(e_forms) - len(f_forms)
        handed_base, handed = _HANDOFF.get((e, k), (None, None))
        if handed_base == base:
            series = [dict(p) for p in handed[: cap + 1]]
        else:
            series = _root_product(_unit_series(cap, unit), e_forms, base)
        top = _root_product(series, f_forms, base, divide=True)[cap]
    return sympoly.read_packed(_times_roots(top, f_forms, base), len(e_forms), base, k)


# ---------------------------------------------------------------------------
# The free polynomial presentation in c1..ck


class ChernCtx(_Record):
    """Free polynomial ring Z[c1..ck], truncated above top_degree.

    This is the presentation without any box relations, the one in which
    universal expansions are printed and compared.
    """

    _fields = ("k", "top_degree")

    def __init__(self, k: int, top_degree: int) -> None:
        if k < 1 or top_degree < 0:
            raise ValueError(f"need k >= 1 and top_degree >= 0, got {k} and {top_degree}")
        attrs = self.__dict__
        attrs["k"], attrs["top_degree"] = key = (k, top_degree)
        _set_key(self, key)

    def zero(self) -> "ChernPoly":
        return ChernPoly._from_clean(self, {})

    def one(self) -> "ChernPoly":
        return ChernPoly._from_clean(self, {(0,) * self.k: 1})

    def universal_dual_chern(self) -> list["ChernPoly"]:
        """c_0..c_min(k, top): the unit, then the generators c_i."""
        out = [self.one()]
        for i in range(min(self.k, self.top_degree)):
            exps = tuple(int(j == i) for j in range(self.k))
            out.append(ChernPoly._from_clean(self, {exps: 1}))
        return out

    def schur_class(self, schur: dict) -> "ChernPoly":
        """A Schur expansion in the roots of the dual, straightened into
        c1..ck; its shapes must have weight at most ``top_degree``."""
        return ChernPoly._from_clean(self, schur_to_elementary(schur, self.k))


def _weighted_degree(exps: tuple[int, ...]) -> int:
    return sum((i + 1) * a for i, a in enumerate(exps))


class ChernPoly(_Combination):
    """Polynomial in the Chern generators, graded by weighted degree."""

    __slots__ = ()

    def __init__(self, ctx: ChernCtx, terms) -> None:
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != ctx.k or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for k={ctx.k}")
            c = int(c)
            if c and _weighted_degree(exps) <= ctx.top_degree:
                clean[exps] = clean.get(exps, 0) + c
        self.ctx = ctx
        self.terms = {e: c for e, c in clean.items() if c}

    def _product(self, other_terms: dict) -> dict:
        cap = self.ctx.top_degree
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other_terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                if _weighted_degree(key) > cap:
                    continue
                v = out.get(key, 0) + ca * cb
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return out

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # graded, then lexicographically decreasing exponent vectors
        return sorted(
            self.terms.items(),
            key=lambda kv: (_weighted_degree(kv[0]), tuple(-e for e in kv[0])),
        )

    def __repr__(self) -> str:
        return f"ChernPoly({chern_string(self)})"


def chern_string(p: ChernPoly) -> str:
    """Rendering like ``8*c1*c2*c3 - 8*c3^2`` in graded-lex term order."""
    return render(
        p.sorted_terms(),
        lambda exps: [f"c{i + 1}" + (f"^{a}" if a > 1 else "") for i, a in enumerate(exps) if a],
        False,
    )


def chern_latex(p: ChernPoly) -> str:
    """LaTeX in the style used by intersection-theory packages."""
    return render(
        p.sorted_terms(),
        lambda exps: [
            f"{{c_{i + 1}}}" + (f"^{{{a}}}" if a > 1 else "") for i, a in enumerate(exps) if a
        ],
        True,
    )


# ---------------------------------------------------------------------------
# Splitting-principle evaluation over any coefficient ring


def _series_mul(a: list, b: list, ring) -> list:
    """Product of two series, up to the sum of their degrees or the ring's
    top degree, whichever is lower."""
    cap = min(len(a) + len(b) - 2, ring.top_degree)
    out = [ring.zero() for _ in range(cap + 1)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > cap:
                break
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def _extend_inverse(c, s: list, ring, max_degree: int) -> list:
    """Extends s, a prefix of the inverse of the series c, to max_degree."""
    for p in range(len(s), max_degree + 1):
        acc = ring.zero()
        for i in range(1, min(p, len(c) - 1) + 1):
            if c[i] and s[p - i]:
                acc = acc + c[i] * s[p - i]
        s.append(-acc)
    return s


def _check_ring(ring) -> None:
    if not hasattr(ring, "universal_dual_chern"):
        raise ValueError(f"bundle expressions need a GrassCtx or a ChernCtx, not {ring!r}")


def _checked_series(expr: BundleExpr, ring) -> tuple[tuple, list]:
    _check_ring(ring)
    bundle_rank(expr, ring.k)  # the cap holds on a memo hit too
    return _series(expr, ring)


@lru_cache(maxsize=None)
def _series(expr: BundleExpr, ring) -> tuple[tuple, list]:
    """Chern series of the expression on the ring, and a prefix of its
    Segre series.

    The Segre list is extended in place by ``_segre`` as callers ask for
    higher degrees; neither is handed out itself, only copies of them.
    """
    kind = expr.kind
    if kind == USTAR:
        chern = ring.universal_dual_chern()
    elif kind == DUAL:
        inner = _series(expr.children[0], ring)[0]
        chern = [c if i % 2 == 0 else -c for i, c in enumerate(inner)]
    elif kind == SUM:
        chern = [ring.one()]
        for child in expr.children:
            chern = _series_mul(chern, _series(child, ring)[0], ring)
    else:  # SYM; bundle_rank has refused every other kind
        if expr.children[0].kind == USTAR:
            table = sym_chern(expr.power, ring.k, max_degree=ring.top_degree)
        else:
            forms = _forms(expr, ring.k)
            table = _root_table(forms, min(len(forms), ring.top_degree), inverse=False)
        chern = [ring.schur_class(entry) for entry in table]
    return tuple(chern), [ring.one()]


def total_chern(expr: BundleExpr, ring) -> list:
    """Total Chern class as a list of ring elements, c_0..c_min(rank, top);
    the classes above the rank are absent and read as zero."""
    return list(_checked_series(expr, ring)[0])


def _segre(expr: BundleExpr, ring, cap: int) -> list:
    """The memoized Segre list of the expression, made at least cap + 1
    long; it may be longer, so callers slice it."""
    chern, s = _series(expr, ring)
    if len(s) > cap:
        return s
    if expr.kind == DUAL:
        inner = _segre(expr.children[0], ring, cap)
        s[:] = [x if i % 2 == 0 else -x for i, x in enumerate(inner)]
    elif len(s) == 1 and reads_roots(expr, ring):
        table = _root_table(_forms(expr, ring.k), cap, inverse=True)
        s[:] = [ring.schur_class(entry) for entry in table]
    else:  # a deeper cap extends a table's prefix by inversion, not a new table
        _extend_inverse(chern, s, ring, cap)
    return s


def segre(expr: BundleExpr, ring, max_degree: int | None = None) -> list:
    """Segre classes s_0..s_cap, the inverse series of the total Chern class,
    grown in place as callers ask for higher degrees (see the module
    docstring for the nodes that skip the inversion)."""
    _checked_series(expr, ring)
    if max_degree is not None and max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    cap = ring.top_degree if max_degree is None else min(max_degree, ring.top_degree)
    return _segre(expr, ring, cap)[: cap + 1]


def ctop_quotient(e: BundleExpr, f: BundleExpr | None, ring):
    """c_top(F) c_R(E - F), R = rank E - rank F, on the ring, or c_top(E)
    when f is None; zero when R < 0 or rank E is above the ring's top
    degree.

    The class is read off one root product (``_quotient_table``) by
    ``schur_class``, with no product in the ring.  Its Schur expansion is
    memoized per (E, F, k) and shared by every ring with that k.
    """
    _check_ring(ring)
    rank = bundle_rank(e, ring.k)
    if rank > ring.top_degree or (f is not None and bundle_rank(f, ring.k) > rank):
        return ring.zero()
    return ring.schur_class(_quotient_table(e, f, ring.k))
