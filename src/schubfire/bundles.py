"""Chern and Segre classes of formal bundle expressions.

Expressions are small trees: the dual universal subbundle, symmetric
powers, duals, direct sums, line bundles and line twists, virtual
differences, and pullbacks to a projective bundle.  Total Chern classes
follow the splitting principle; symmetric powers go through a universal
table, computed once per (power, rank, degree cap) by enumerating the
Chern roots of the power and rewriting the elementary symmetric functions
of those roots in the elementary generators of the base roots.

The Chern and Segre series of each Sym^m U* are computed once per ring
and shared by every caller, so the direct and projective-bundle routes of
``limiting`` draw on the same classes.  The Segre series is only ever
inverted up to the highest degree asked for so far.

Everything is generic over the coefficient ring.  A ring context only has
to provide ``top_degree``, ``universal_rank``, ``one()``, ``zero()`` and,
where the corresponding leaves appear, ``universal_dual_chern()`` or
``pullback``/``base``.  The rings used in this package are the Schubert
basis of a Grassmannian (GrassCtx), the Chow ring of a projective bundle
over it (PBCtx), and the free presentation in c1..ck (ChernCtx below)
used for printing and for regressions against known expansions.

The Segre series is the formal inverse of the Chern series, c(E).s(E) = 1,
so s1(E) = -c1(E); every downstream formula assumes exactly this
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb
from typing import Any

from . import sympoly

USTAR = "ustar"
SYM = "sym"
DUAL = "dual"
TWIST = "twist"
LINE = "line"
SUM = "sum"
DIFF = "diff"
PULLBACK = "pullback"


@dataclass(frozen=True, eq=False)
class BundleExpr:
    """A node of a formal bundle expression (compare by identity)."""

    kind: str
    children: tuple = ()
    power: int = 0
    twist_class: Any = None

    def __repr__(self) -> str:
        if self.kind == USTAR:
            return "Ustar"
        if self.kind == SYM:
            return f"sym({self.power},{self.children[0]!r})"
        if self.kind == LINE:
            return "line(..)"
        if self.kind == TWIST:
            return f"twist({self.children[0]!r})"
        body = ",".join(repr(c) for c in self.children)
        return f"{self.kind}({body})"


def ustar() -> BundleExpr:
    """The dual of the universal subbundle."""
    return BundleExpr(USTAR)


def sym(d: int, child: BundleExpr) -> BundleExpr:
    if d < 1:
        raise ValueError("symmetric power degree must be >= 1")
    if child.kind == DIFF:
        raise ValueError("symmetric power of a virtual difference is not defined")
    return BundleExpr(SYM, (child,), power=d)


def dual(child: BundleExpr) -> BundleExpr:
    return BundleExpr(DUAL, (child,))


def twist(child: BundleExpr, t) -> BundleExpr:
    """Tensor with a line bundle whose first Chern class is t."""
    if child.kind == DIFF:
        raise ValueError("twist of a virtual difference has no well-defined rank")
    return BundleExpr(TWIST, (child,), twist_class=t)


def line(t) -> BundleExpr:
    """A line bundle with first Chern class t."""
    return BundleExpr(LINE, twist_class=t)


def direct_sum(*children: BundleExpr) -> BundleExpr:
    return BundleExpr(SUM, tuple(children))


def virtual_diff(plus: BundleExpr, minus: BundleExpr) -> BundleExpr:
    return BundleExpr(DIFF, (plus, minus))


def pullback_of(child: BundleExpr) -> BundleExpr:
    """Marks a bundle living on the base of a projective bundle."""
    return BundleExpr(PULLBACK, (child,))


def bundle_rank(expr: BundleExpr, universal_rank: int) -> int:
    """Rank, with the universal subbundle resolved to the given rank."""
    if expr.kind == USTAR:
        return universal_rank
    if expr.kind == SYM:
        e = bundle_rank(expr.children[0], universal_rank)
        return comb(e + expr.power - 1, expr.power)
    if expr.kind in (DUAL, TWIST, PULLBACK):
        return bundle_rank(expr.children[0], universal_rank)
    if expr.kind == LINE:
        return 1
    if expr.kind == SUM:
        return sum(bundle_rank(c, universal_rank) for c in expr.children)
    if expr.kind == DIFF:
        return bundle_rank(expr.children[0], universal_rank) - bundle_rank(
            expr.children[1], universal_rank
        )
    raise ValueError(f"unknown node kind {expr.kind!r}")


# ---------------------------------------------------------------------------
# Universal symmetric-power tables


def sym_chern(d: int, k: int, max_degree: int | None = None) -> tuple[dict, ...]:
    """Universal Chern classes of the d-th symmetric power of a rank-k bundle.

    Entry i is c_i(Sym^d E) as an integer polynomial in c1..ck(E), encoded
    as {exponent tuple: coefficient}.  Computed by enumerating the
    comb(k+d-1, d) Chern roots (sums of d base roots with repetition),
    expanding the product of (1 + root t), and straightening each t-degree
    into the elementary generators.  Tables are memoized per (d, k, cap),
    where cap is the requested degree clipped to the rank of the power.
    """
    if d < 1 or k < 1:
        raise ValueError("sym_chern needs d >= 1 and k >= 1")
    r_d = comb(k + d - 1, d)
    cap = r_d if max_degree is None else min(max_degree, r_d)
    return _sym_table(d, k, cap)


@lru_cache(maxsize=None)
def _sym_table(d: int, k: int, cap: int) -> tuple[dict, ...]:
    if d == 1:
        table = []
        for i in range(cap + 1):
            exps = [0] * k
            if i == 0:
                table.append({tuple(exps): 1})
            elif i <= k:
                exps[i - 1] = 1
                table.append({tuple(exps): 1})
            else:
                table.append({})
        return tuple(table)

    roots = []
    for multiset in combinations_with_replacement(range(k), d):
        exps = [0] * k
        for i in multiset:
            exps[i] += 1
        roots.append(tuple(exps))

    zero_key = (0,) * k
    series: list[sympoly.XPoly] = [{zero_key: 1}] + [{} for _ in range(cap)]
    for root in roots:
        linear = {}
        for i, mult in enumerate(root):
            if mult:
                key = [0] * k
                key[i] = 1
                linear[tuple(key)] = mult
        for t_deg in range(cap, 0, -1):
            if series[t_deg - 1]:
                series[t_deg] = sympoly.poly_add(
                    series[t_deg], sympoly.poly_mul(series[t_deg - 1], linear)
                )

    table = []
    for t_deg in range(cap + 1):
        m = sympoly.x_to_m(series[t_deg], k, check=False)
        table.append(sympoly.m_to_elementary(m, k))
    return tuple(table)


# ---------------------------------------------------------------------------
# The free polynomial presentation in c1..ck


@dataclass(frozen=True)
class ChernCtx:
    """Free polynomial ring Z[c1..ck], truncated above top_degree.

    This is the presentation without any box relations, the one in which
    universal expansions are printed and compared.
    """

    k: int
    top_degree: int

    @property
    def universal_rank(self) -> int:
        return self.k

    def zero(self) -> "ChernPoly":
        return ChernPoly._from_clean(self, {})

    def one(self) -> "ChernPoly":
        return ChernPoly._from_clean(self, {(0,) * self.k: 1})

    def gen(self, i: int) -> "ChernPoly":
        """The generator c_i, 1-based; zero above k."""
        if i == 0:
            return self.one()
        if not 1 <= i <= self.k:
            return self.zero()
        exps = [0] * self.k
        exps[i - 1] = 1
        return ChernPoly._from_clean(self, {tuple(exps): 1}) if i <= self.top_degree else self.zero()

    def universal_dual_chern(self) -> list["ChernPoly"]:
        return [self.gen(i) if i <= self.k else self.zero() for i in range(self.top_degree + 1)]


def _weighted_degree(exps: tuple[int, ...]) -> int:
    return sum((i + 1) * a for i, a in enumerate(exps))


class ChernPoly:
    """Polynomial in the Chern generators, graded by weighted degree."""

    __slots__ = ("ctx", "terms")

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

    @classmethod
    def _from_clean(cls, ctx: ChernCtx, terms: dict) -> "ChernPoly":
        self = object.__new__(cls)
        self.ctx = ctx
        self.terms = terms
        return self

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChernPoly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other) -> "ChernPoly":
        if not isinstance(other, ChernPoly) or other.ctx != self.ctx:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return ChernPoly._from_clean(self.ctx, out)

    def __neg__(self) -> "ChernPoly":
        return ChernPoly._from_clean(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "ChernPoly":
        if not isinstance(other, ChernPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "ChernPoly":
        if isinstance(other, int):
            if other == 0:
                return self.ctx.zero()
            return ChernPoly._from_clean(
                self.ctx, {e: other * c for e, c in self.terms.items()}
            )
        if not isinstance(other, ChernPoly) or other.ctx != self.ctx:
            return NotImplemented
        cap = self.ctx.top_degree
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                if _weighted_degree(key) > cap:
                    continue
                v = out.get(key, 0) + ca * cb
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return ChernPoly._from_clean(self.ctx, out)

    def __rmul__(self, other) -> "ChernPoly":
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

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
    items = p.sorted_terms()
    if not items:
        return "0"
    pieces = []
    for exps, c in items:
        factors = []
        for i, a in enumerate(exps):
            if a == 1:
                factors.append(f"c{i + 1}")
            elif a > 1:
                factors.append(f"c{i + 1}^{a}")
        mag = abs(c)
        if not factors:
            term = str(mag)
        elif mag == 1:
            term = "*".join(factors)
        else:
            term = str(mag) + "*" + "*".join(factors)
        pieces.append(("-" if c < 0 else "+", term))
    sign, first = pieces[0]
    out = ("-" if sign == "-" else "") + first
    for sign, term in pieces[1:]:
        out += f" {sign} {term}"
    return out


def chern_latex(p: ChernPoly) -> str:
    """LaTeX in the style used by intersection-theory packages."""
    items = p.sorted_terms()
    if not items:
        return "0"
    out = ""
    for exps, c in items:
        factors = []
        for i, a in enumerate(exps):
            if a == 1:
                factors.append(f"{{c_{i + 1}}}")
            elif a > 1:
                factors.append(f"{{c_{i + 1}}}^{{{a}}}")
        mag = abs(c)
        body = "\\,".join(([str(mag)] if (mag != 1 or not factors) else []) + factors)
        out += ("-" if c < 0 else ("+" if out else "")) + body
    return out


# ---------------------------------------------------------------------------
# Splitting-principle evaluation over any coefficient ring


class _MonomialEvaluator:
    """Evaluates exponent-tuple polynomials in given ring elements."""

    def __init__(self, gens, ring):
        self.gens = gens  # gens[i] is the (i+1)-st Chern class
        self.ring = ring
        self._pows: dict[tuple[int, int], Any] = {}

    def _power(self, i: int, a: int):
        if a == 0:
            return self.ring.one()
        key = (i, a)
        got = self._pows.get(key)
        if got is None:
            got = self._power(i, a - 1) * self.gens[i]
            self._pows[key] = got
        return got

    def poly(self, table_entry: dict):
        acc = self.ring.zero()
        for exps, c in table_entry.items():
            term = self.ring.one()
            for i, a in enumerate(exps):
                if a:
                    term = term * self._power(i, a)
            acc = acc + c * term
        return acc


def _series_mul(a: list, b: list, ring) -> list:
    cap = ring.top_degree
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


def _pad(series: list, ring) -> list:
    cap = ring.top_degree
    out = list(series[: cap + 1])
    while len(out) < cap + 1:
        out.append(ring.zero())
    return out


def _is_sym_ustar(expr: BundleExpr, ring) -> bool:
    return (
        expr.kind == SYM
        and expr.children[0].kind == USTAR
        and hasattr(ring, "universal_dual_chern")
    )


@lru_cache(maxsize=None)
def _sym_ustar_series(m: int, ring) -> tuple[tuple, list]:
    """Chern series of Sym^m U* on the ring, and a prefix of its Segre series.

    The Segre list is extended in place by ``segre`` as callers ask for
    higher degrees; it is never handed out itself, only copies of it.
    """
    chern = tuple(_sym_series(m, ustar(), ring))
    return chern, [ring.one()]


def _sym_series(power: int, child: BundleExpr, ring) -> list:
    inner = total_chern(child, ring)
    k_child = bundle_rank(child, ring.universal_rank)
    table = sym_chern(power, k_child, max_degree=ring.top_degree)
    gens = [inner[i] if i < len(inner) else ring.zero() for i in range(1, k_child + 1)]
    ev = _MonomialEvaluator(gens, ring)
    return _pad([ev.poly(entry) for entry in table], ring)


def total_chern(expr: BundleExpr, ring) -> list:
    """Total Chern class as a list of ring elements, degrees 0..top_degree."""
    cap = ring.top_degree
    kind = expr.kind
    if kind == USTAR:
        if not hasattr(ring, "universal_dual_chern"):
            raise ValueError(
                "the universal subbundle must appear under a pullback here"
            )
        return _pad(ring.universal_dual_chern(), ring)
    if kind == LINE:
        out = [ring.one()] + [ring.zero() for _ in range(cap)]
        if cap >= 1:
            out[1] = expr.twist_class
        return out
    if kind == DUAL:
        inner = total_chern(expr.children[0], ring)
        return [c if i % 2 == 0 else -c for i, c in enumerate(inner)]
    if kind == SUM:
        acc = [ring.one()] + [ring.zero() for _ in range(cap)]
        for child in expr.children:
            acc = _series_mul(acc, total_chern(child, ring), ring)
        return acc
    if kind == PULLBACK:
        if not hasattr(ring, "base"):
            raise ValueError("pullback only makes sense over a projective bundle")
        base_series = total_chern(expr.children[0], ring.base)
        return _pad([ring.pullback(c) for c in base_series], ring)
    if kind == TWIST:
        child = expr.children[0]
        t = expr.twist_class
        e = bundle_rank(child, ring.universal_rank)
        inner = total_chern(child, ring)
        t_pows = [ring.one()]
        for _ in range(cap):
            t_pows.append(t_pows[-1] * t)
        out = []
        for i in range(cap + 1):
            acc = ring.zero()
            for j in range(0, min(i, e, len(inner) - 1) + 1):
                coeff = comb(e - j, i - j)
                if coeff and inner[j]:
                    acc = acc + coeff * (inner[j] * t_pows[i - j])
            out.append(acc)
        return out
    if kind == SYM:
        if _is_sym_ustar(expr, ring):
            return list(_sym_ustar_series(expr.power, ring)[0])
        return _sym_series(expr.power, expr.children[0], ring)
    if kind == DIFF:
        plus, minus = expr.children
        return _series_mul(
            total_chern(plus, ring), _pad(segre(minus, ring), ring), ring
        )
    raise ValueError(f"unknown node kind {kind!r}")


def segre(expr: BundleExpr, ring, max_degree: int | None = None) -> list:
    """Segre classes s_0..s_cap, the inverse series of the total Chern class.

    Twists of honest bundles use the closed form

        s_i(E (x) L) = sum_j C(e-1+i, i-j) s_j(E) (-t)^(i-j)

    which avoids inverting a series over a projective-bundle ring; all
    other shapes invert their Chern series directly.  The two routes are
    checked against each other in the tests.
    """
    cap = ring.top_degree if max_degree is None else min(max_degree, ring.top_degree)
    kind = expr.kind
    if kind == LINE:
        t = expr.twist_class
        out = [ring.one()]
        acc = ring.one()
        for _ in range(cap):
            acc = acc * (-t)
            out.append(acc)
        return out
    if kind == PULLBACK:
        if not hasattr(ring, "base"):
            raise ValueError("pullback only makes sense over a projective bundle")
        inner = segre(expr.children[0], ring.base, max_degree=cap)
        return [ring.pullback(c) for c in inner]
    if kind == DIFF:
        plus, minus = expr.children
        s_plus = segre(plus, ring, max_degree=cap)
        c_minus = total_chern(minus, ring)
        out = [ring.zero() for _ in range(cap + 1)]
        for i, si in enumerate(s_plus[: cap + 1]):
            if not si:
                continue
            for j, cj in enumerate(c_minus):
                if i + j > cap:
                    break
                if cj:
                    out[i + j] = out[i + j] + si * cj
        return out
    if kind == TWIST:
        child = expr.children[0]
        t = expr.twist_class
        e = bundle_rank(child, ring.universal_rank)
        s_child = segre(child, ring, max_degree=cap)
        mt_pows = [ring.one()]
        for _ in range(cap):
            mt_pows.append(mt_pows[-1] * (-t))
        out = []
        for i in range(cap + 1):
            acc = ring.zero()
            for j in range(0, i + 1):
                coeff = comb(e - 1 + i, i - j)
                if coeff and s_child[j]:
                    acc = acc + coeff * (s_child[j] * mt_pows[i - j])
            out.append(acc)
        return out
    if _is_sym_ustar(expr, ring):
        chern, s = _sym_ustar_series(expr.power, ring)
        return _extend_inverse(chern, s, ring, cap)[: cap + 1]
    return _extend_inverse(total_chern(expr, ring), [ring.one()], ring, cap)


def c_top_virtual(expr: BundleExpr, r_top: int, ring):
    """Degree-r_top part of the Chern class of a virtual difference.

    The caller asserts that the difference represents an honest quotient of
    rank r_top; this function only evaluates
    sum_i c_i(plus) s_(r_top - i)(minus).
    """
    if r_top < 0:
        raise ValueError("top degree of a virtual quotient must be nonnegative")
    if expr.kind == DIFF:
        plus, minus = expr.children
    else:
        plus, minus = expr, direct_sum()
    if r_top > ring.top_degree:
        return ring.zero()
    c_plus = total_chern(plus, ring)
    s_minus = segre(minus, ring, max_degree=r_top)
    acc = ring.zero()
    for i in range(0, r_top + 1):
        if i < len(c_plus) and c_plus[i] and s_minus[r_top - i]:
            acc = acc + c_plus[i] * s_minus[r_top - i]
    return acc
