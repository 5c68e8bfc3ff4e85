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

A class is a zeta-polynomial reduced by the relation: it is added,
scaled by integers and pushed forward, but never multiplied.  The one
product the bundle route needs, by zeta, is a shift of the coefficient
list put back through the constructor.
"""

from __future__ import annotations

from typing import Container, Sequence

from . import bundles
from .chow import ChowClass, GrassCtx, _Combination, _Record, _set_key
from .errors import ContextMismatchError


class PBCtx(_Record):
    """Context for P(E) over a Grassmannian base, compared and hashed by
    its base and the expression of E, like ``GrassCtx(r, n)``.

    It derives the rank of E and c_0..c_e(E) on the base, the coefficients
    of the zeta relation; nothing else about E is needed to reduce or push
    forward.
    """

    _fields = ("base", "bundle")

    def __init__(self, base: GrassCtx, bundle: bundles.BundleExpr) -> None:
        rank = bundles.bundle_rank(bundle, base.k)  # >= 1, and inside the rank cap
        chern = bundles.total_chern(bundle, base)  # stops at min(rank, dim)
        chern += [base.zero()] * (rank + 1 - len(chern))
        attrs = self.__dict__
        attrs["base"], attrs["bundle"] = key = (base, bundle)
        _set_key(self, key)
        attrs["rank"], attrs["chern_e"] = rank, tuple(chern)


def _reduce(ctx: PBCtx, terms: dict, reads: Container[int]) -> dict:
    """Rewrite the powers zeta^p, p >= e, of ``terms`` {p: base class} by
    the zeta relation, from the top down, keeping only the powers below e
    in ``reads``.

    The relation only lowers powers, so a carry into a power below e that
    is not read can never reach one that is; such carries are not made,
    and what is returned on each read power is its full reduction.
    ``terms`` is consumed and may hold zero coefficients; the result holds
    only the nonzero ones, all below e and in ``reads``.
    """
    e = ctx.rank
    for p in range(max(terms, default=0), e - 1, -1):
        c = terms.pop(p, None)
        if not c:
            continue
        for i in range(1, e + 1):
            q, ci = p - i, ctx.chern_e[i]
            if ci and (q >= e or q in reads):
                t = ci * c
                terms[q] = terms[q] - t if q in terms else -t
    return {p: c for p, c in terms.items() if c and p in reads}


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
        self.terms = _reduce(ctx, dict(enumerate(coeffs)), range(ctx.rank))

    def __repr__(self) -> str:
        parts = [f"({self.terms[j]!r})*z^{j}" for j in sorted(self.terms)]
        return "PBClass(" + (" + ".join(parts) if parts else "0") + ")"


def pushforward(a: PBClass) -> ChowClass:
    """Integration over the fibers.

    For a class written as sum_j alpha_j zeta^j this is
    sum_j alpha_j s_(j - e + 1)(E).  In canonical form j <= e-1, so only
    j = e-1 contributes, through s_0 = 1; the higher Segre classes have
    already entered through the zeta relation that put the class there.
    It is linear over the base (the projection formula): pushforward(a * b)
    is sum_j a_j pushforward(zeta^j * b) over the coefficients a_j of a.
    """
    return a.terms.get(a.ctx.rank - 1, a.ctx.base.zero())
