"""Chern and Segre classes of formal bundle expressions.

Expressions are small trees of the nodes that the split formulas and the
CLI grammar build: the dual universal subbundle, symmetric powers, duals
and nonempty direct sums.  Total Chern classes follow the splitting
principle; symmetric powers go through a universal table, computed once
per (power, rank, degree cap) by multiplying out the Chern roots of the
power in place, on x-monomials packed into integers, reading off the
Schur coefficients of the elementary symmetric functions of those roots
(``sympoly``), and rewriting them in the elementary generators of the base
roots by the Pieri inversion that the product kernel also uses
(``partitions.schur_to_elementary``).  A table is evaluated in a ring one
monomial at a time, each as a memoized shorter monomial times one
generator.

The Chern and Segre series of every expression are computed once per
ring, memoized by the expression's structure and the ring, and shared by
every caller, so the direct and projective-bundle routes of ``limiting``
draw on the same classes.  The Segre series is only ever inverted up to
the highest degree asked for so far.

A ring context provides ``top_degree``, ``universal_rank``, ``one()``,
``zero()`` and ``universal_dual_chern()``.  The two rings are the
Schubert basis of a Grassmannian (GrassCtx) and the free presentation in
c1..ck (ChernCtx below), used for printing and for regressions against
known expansions.

The Segre series is the formal inverse of the Chern series, c(E).s(E) = 1,
so s1(E) = -c1(E); every downstream formula assumes exactly this
convention.

Every rank of a symmetric power is formed by ``sym_rank``, which refuses
one above the cap (``SCHUBFIRE_RANK_CAP``, default 64) before any table is
built, for the CLI, ``limiting`` and library callers alike.  ``total_chern``
and ``segre`` check the cap on every call, before the memo, so a series
computed under a higher cap is refused once the cap is lowered.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Any

from . import sympoly
from .chow import _Combination, render
from .errors import RankCapExceededError
from .partitions import schur_to_elementary

USTAR = "ustar"
SYM = "sym"
DUAL = "dual"
SUM = "sum"

RANK_CAP_DEFAULT = 64
RANK_CAP_ENV = "SCHUBFIRE_RANK_CAP"


@dataclass(frozen=True)
class BundleExpr:
    """A node of a formal bundle expression (compare by structure)."""

    kind: str
    children: tuple = ()
    power: int = 0

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


def bundle_rank(expr: BundleExpr, universal_rank: int) -> int:
    """Rank, with the universal subbundle resolved to the given rank; each
    symmetric power goes through ``sym_rank``, inner powers first."""
    if expr.kind == USTAR:
        return universal_rank
    if expr.kind == SYM:
        return sym_rank(bundle_rank(expr.children[0], universal_rank), expr.power)
    if expr.kind == DUAL:
        return bundle_rank(expr.children[0], universal_rank)
    if expr.kind == SUM:
        return sum(bundle_rank(c, universal_rank) for c in expr.children)
    raise ValueError(f"unknown node kind {expr.kind!r}")


# ---------------------------------------------------------------------------
# Universal symmetric-power tables


def sym_chern(d: int, k: int, max_degree: int | None = None) -> tuple[dict, ...]:
    """Universal Chern classes of the d-th symmetric power of a rank-k bundle.

    Entry i is c_i(Sym^d E) as an integer polynomial in c1..ck(E), encoded
    as {exponent tuple: coefficient}.  Computed by enumerating the
    comb(k+d-1, d) Chern roots (sums of d base roots with repetition),
    expanding the product of (1 + root t) in place on x-monomials packed
    into integers, reading off the Schur coefficients of each t-degree by
    the bialternant formula and straightening them into the elementary
    generators by the Pieri rule.
    Tables are memoized per (d, k, cap), where cap is the requested degree
    clipped to the rank of the power; a power above the rank cap is refused
    by ``sym_rank`` before any table is built.
    """
    r_d = sym_rank(k, d)
    cap = r_d if max_degree is None else min(max_degree, r_d)
    return _sym_table(d, k, cap)


@lru_cache(maxsize=None)
def _sym_table(d: int, k: int, cap: int) -> tuple[dict, ...]:
    # x-monomials are packed into one int, base B = cap + 1, slot i worth
    # B**i: an exponent in degree t is at most t <= cap, so nothing
    # carries and multiplying by x_i adds B**i.  Every root has positive
    # multiplicities, so the degree-t part grows in place and never cancels.
    base = cap + 1
    series: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(cap)]
    for n_roots, multiset in enumerate(combinations_with_replacement(range(k), d), 1):
        root: dict[int, int] = {}
        for i in multiset:
            root[base**i] = root.get(base**i, 0) + 1
        for t_deg in range(min(cap, n_roots), 0, -1):
            target, lower = series[t_deg], series[t_deg - 1].items()
            get = target.get
            for step, m in root.items():
                if m == 1:
                    for key, c in lower:
                        key += step
                        target[key] = get(key, 0) + c
                else:
                    for key, c in lower:
                        key += step
                        target[key] = get(key, 0) + c * m
    return tuple(
        schur_to_elementary(sympoly.schur_coefficients(_unpack(p, base, k), k), k)
        for p in series
    )


def _unpack(packed: dict[int, int], base: int, k: int) -> sympoly.XPoly:
    """Exponent tuples of packed x-monomials, decoded one slot at a time."""
    keys, slots = list(packed), []
    for _ in range(k):
        slots.append([key % base for key in keys])
        keys = [key // base for key in keys]
    return dict(zip(zip(*slots), packed.values()))


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
        return [self.gen(i) for i in range(self.top_degree + 1)]


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


class _MonomialEvaluator:
    """Evaluates exponent-tuple polynomials in given ring elements.

    Each monomial is memoized as its parent times one generator, the
    parent being the same tuple with its last nonzero exponent lowered by
    one, so monomials that share a prefix share its products.
    """

    def __init__(self, gens, ring):
        self.gens = gens  # gens[i] is the (i+1)-st Chern class
        self.ring = ring
        self._monomials: dict[tuple[int, ...], Any] = {(0,) * len(gens): ring.one()}

    def _monomial(self, exps: tuple[int, ...]):
        chain = []  # (monomial, generator index) down to a memoized one
        while exps not in self._monomials:
            i = max(j for j, a in enumerate(exps) if a)
            chain.append((exps, i))
            exps = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
        got = self._monomials[exps]
        for exps, i in reversed(chain):
            got = got * self.gens[i]
            self._monomials[exps] = got
        return got

    def poly(self, table_entry: dict):
        acc = self.ring.zero()
        for exps, c in table_entry.items():
            acc = acc + c * self._monomial(exps)
        return acc


def _series_mul(a: list, b: list, ring) -> list:
    """Product of two series, up to the ring's top degree."""
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


def _checked_series(expr: BundleExpr, ring) -> tuple[tuple, list]:
    if not hasattr(ring, "universal_dual_chern"):
        raise ValueError(f"bundle expressions need a GrassCtx or a ChernCtx, not {ring!r}")
    bundle_rank(expr, ring.universal_rank)  # the cap holds on a memo hit too
    return _series(expr, ring)


@lru_cache(maxsize=None)
def _series(expr: BundleExpr, ring) -> tuple[tuple, list]:
    """Chern series of the expression on the ring, and a prefix of its
    Segre series.

    The Segre list is extended in place by ``segre`` as callers ask for
    higher degrees; neither is handed out itself, only copies of them.
    """
    cap = ring.top_degree
    kind = expr.kind
    if kind == USTAR:
        chern = _pad(ring.universal_dual_chern(), ring)
    elif kind == DUAL:
        inner = _series(expr.children[0], ring)[0]
        chern = [c if i % 2 == 0 else -c for i, c in enumerate(inner)]
    elif kind == SUM:
        chern = [ring.one()] + [ring.zero() for _ in range(cap)]
        for child in expr.children:
            chern = _series_mul(chern, _series(child, ring)[0], ring)
    else:  # SYM; bundle_rank has refused every other kind
        child = expr.children[0]
        inner = _series(child, ring)[0]
        k_child = bundle_rank(child, ring.universal_rank)
        table = sym_chern(expr.power, k_child, max_degree=cap)
        gens = [inner[i] if i < len(inner) else ring.zero() for i in range(1, k_child + 1)]
        ev = _MonomialEvaluator(gens, ring)
        chern = _pad([ev.poly(entry) for entry in table], ring)
    return tuple(chern), [ring.one()]


def total_chern(expr: BundleExpr, ring) -> list:
    """Total Chern class as a list of ring elements, degrees 0..top_degree."""
    return list(_checked_series(expr, ring)[0])


def segre(expr: BundleExpr, ring, max_degree: int | None = None) -> list:
    """Segre classes s_0..s_cap, the inverse series of the total Chern class."""
    cap = ring.top_degree if max_degree is None else min(max_degree, ring.top_degree)
    chern, s = _checked_series(expr, ring)
    return _extend_inverse(chern, s, ring, cap)[: cap + 1]
