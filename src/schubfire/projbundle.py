"""The Chow ring of a projective bundle over a Grassmannian.

For a rank-e bundle E on the base, P(E) is the bundle of lines in E.  Its
ring is a free module over the base with basis 1, zeta, ..., zeta^(e-1),
where zeta is the first Chern class of O(1) and the tautological
subbundle O(-1) of the pulled-back E has c1 = -zeta.  Powers of zeta from
e upward are reduced through

    zeta^e = -(c1(E) zeta^(e-1) + c2(E) zeta^(e-2) + ... + ce(E)),

which is c_e(pullback(E) tensor O(1)) = 0.  In this convention the
pushforward of zeta^(e-1+i) is the i-th Segre class of E, with s_0 = 1
and c(E).s(E) = 1; the sign conventions here were fixed once against
known degeneration counts and are exercised end-to-end by the tests.
"""

from __future__ import annotations

from typing import Sequence

from . import bundles
from .chow import ChowClass, GrassCtx, _Combination
from .errors import ContextMismatchError


class PBCtx:
    """Context for P(E) over a Grassmannian base.

    It keeps c_0..c_e(E) on the base, the coefficients of the zeta
    relation; nothing else about E is needed to multiply or push forward.
    """

    def __init__(self, base: GrassCtx, bundle: bundles.BundleExpr):
        rank = bundles.bundle_rank(bundle, base.k)  # >= 1, and inside the rank cap
        self.base = base
        self.rank = rank
        self.top_degree = base.dim + rank - 1
        chern = bundles.total_chern(bundle, base)
        self.chern_e: tuple[ChowClass, ...] = tuple(
            chern[i] if i < len(chern) else base.zero() for i in range(rank + 1)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PBCtx):
            return NotImplemented
        return (
            self.base == other.base
            and self.rank == other.rank
            and all(a == b for a, b in zip(self.chern_e, other.chern_e))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PBCtx(G({self.base.k},{self.base.n + 1}), rank {self.rank})"

    def zero(self) -> "PBClass":
        return PBClass._from_clean(self, {})

    def one(self) -> "PBClass":
        return PBClass._from_clean(self, {0: self.base.one()})

    def zeta(self) -> "PBClass":
        """The hyperplane class c1(O(1)), reduced when the rank is 1."""
        return PBClass._from_clean(self, _reduce(self, {1: self.base.one()}))

    def pullback(self, alpha: ChowClass) -> "PBClass":
        """Base class seen on the projective bundle (coefficient of zeta^0)."""
        if alpha.ctx != self.base:
            raise ContextMismatchError(f"{alpha.ctx} is not the base of {self}")
        return PBClass._from_clean(self, {0: alpha} if alpha else {})


def _reduce(ctx: PBCtx, terms: dict, low: int = 0) -> dict:
    """Rewrite the powers zeta^p, p >= e, of ``terms`` {p: base class} by
    the zeta relation, from the top down.

    ``terms`` is consumed and may hold zero coefficients; the result holds
    only the nonzero ones, all below e.  The relation only lowers powers,
    so what it would push below ``low`` can never come back up: it is left
    out, and the result is exact in every power from ``low`` upward.
    """
    e = ctx.rank
    for p in range(max(terms, default=0), e - 1, -1):
        c = terms.pop(p, None)
        if not c:
            continue
        for i in range(1, min(e, p - low) + 1):
            ci = ctx.chern_e[i]
            if ci:
                t = ci * c
                terms[p - i] = terms[p - i] - t if p - i in terms else -t
    return {p: c for p, c in terms.items() if c}


def _multiply(ctx: PBCtx, x: dict, y: dict, low: int = 0) -> dict:
    """The reduced product of two term dicts, exact from zeta^low upward.

    Raw powers below ``low`` are never formed, and ``_reduce`` pushes
    nothing below it.  Only ``+`` and ``*`` of the coefficients are used.
    """
    raw: dict = {}
    for i, a in x.items():
        for j, b in y.items():
            if i + j >= low:
                raw[i + j] = raw[i + j] + a * b if i + j in raw else a * b
    return _reduce(ctx, raw, low)


class PBClass(_Combination):
    """Element of the projective-bundle ring in canonical zeta-reduced form:
    {power j of zeta below the rank: nonzero base ChowClass}.
    """

    __slots__ = ()

    def __init__(self, ctx: PBCtx, coeffs: Sequence[ChowClass]):
        """The zeta-polynomial sum_j coeffs[j] zeta^j, of any length."""
        for c in coeffs:
            if c.ctx != ctx.base:
                raise ContextMismatchError("coefficient from a different base")
        self.ctx = ctx
        self.terms = _reduce(ctx, dict(enumerate(coeffs)))

    def _product(self, other_terms: dict) -> dict:
        return _multiply(self.ctx, self.terms, other_terms)

    def __mul__(self, other) -> "PBClass":
        if isinstance(other, ChowClass):
            other = self.ctx.pullback(other)
        return super().__mul__(other)

    def __rmul__(self, other) -> "PBClass":
        if isinstance(other, (int, ChowClass)):
            return self * other
        return NotImplemented

    def __repr__(self) -> str:
        parts = [f"({self.terms[j]!r})*z^{j}" for j in sorted(self.terms)]
        return "PBClass(" + (" + ".join(parts) if parts else "0") + ")"


def pushforward(a: PBClass) -> ChowClass:
    """Integration over the fibers.

    For a class written as sum_j alpha_j zeta^j this is
    sum_j alpha_j s_(j - e + 1)(E).  In canonical form j <= e-1, so only
    j = e-1 contributes, through s_0 = 1; the higher Segre classes have
    already entered through the zeta relation that put the class there.
    ``pushforward_product`` gives pushforward(a * b) without forming the
    rest of the product.
    """
    return a.terms.get(a.ctx.rank - 1, a.ctx.base.zero())


def pushforward_product(a: PBClass, b: PBClass) -> ChowClass:
    """pushforward(a * b), forming only the zeta^(e-1) coefficient it reads:
    the product is formed and reduced from zeta^(e-1) upward only."""
    a._check(b)
    e = a.ctx.rank
    return _multiply(a.ctx, a.terms, b.terms, e - 1).get(e - 1, a.ctx.base.zero())
