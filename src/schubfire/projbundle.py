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
from .chow import ChowClass, GrassCtx
from .errors import ContextMismatchError


class PBCtx:
    """Context for P(E) over a Grassmannian base.

    It keeps c_0..c_e(E) on the base, the coefficients of the zeta
    relation; nothing else about E is needed to multiply or push forward.
    """

    def __init__(self, base: GrassCtx, bundle: bundles.BundleExpr):
        rank = bundles.bundle_rank(bundle, base.k)
        if rank < 1:
            raise ValueError(f"projective bundle needs rank >= 1, got {rank}")
        self.base = base
        self.bundle = bundle
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
        return PBClass._from_clean(self, tuple(self.base.zero() for _ in range(self.rank)))

    def one(self) -> "PBClass":
        coeffs = [self.base.one()] + [self.base.zero()] * (self.rank - 1)
        return PBClass._from_clean(self, tuple(coeffs))

    def zeta(self) -> "PBClass":
        """The hyperplane class c1(O(1)), reduced when the rank is 1."""
        raw = [self.base.zero(), self.base.one()]
        return PBClass._from_clean(self, _reduce(self, raw))

    def pullback(self, alpha: ChowClass) -> "PBClass":
        """Base class seen on the projective bundle (coefficient of zeta^0)."""
        if alpha.ctx != self.base:
            raise ContextMismatchError(f"{alpha.ctx} is not the base of {self}")
        coeffs = [alpha] + [self.base.zero()] * (self.rank - 1)
        return PBClass._from_clean(self, tuple(coeffs))


def _reduce(ctx: PBCtx, raw: Sequence[ChowClass]) -> tuple[ChowClass, ...]:
    e = ctx.rank
    work = list(raw)
    for p in range(len(work) - 1, e - 1, -1):
        c = work[p]
        if not c:
            continue
        work[p] = ctx.base.zero()
        for i in range(1, e + 1):
            ci = ctx.chern_e[i]
            if ci:
                work[p - i] = work[p - i] - ci * c
    out = work[:e]
    while len(out) < e:
        out.append(ctx.base.zero())
    return tuple(out)


class PBClass:
    """Element of the projective-bundle ring in canonical zeta-reduced form."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: PBCtx, coeffs: Sequence[ChowClass]):
        for c in coeffs:
            if c.ctx != ctx.base:
                raise ContextMismatchError("coefficient from a different base")
        self.ctx = ctx
        self.coeffs = _reduce(ctx, list(coeffs))

    @classmethod
    def _from_clean(cls, ctx: PBCtx, coeffs: tuple[ChowClass, ...]) -> "PBClass":
        self = object.__new__(cls)
        self.ctx = ctx
        self.coeffs = coeffs
        return self

    def _check(self, other: "PBClass") -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError("projective-bundle contexts differ")

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PBClass):
            return NotImplemented
        return self.ctx == other.ctx and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other) -> "PBClass":
        if not isinstance(other, PBClass):
            return NotImplemented
        self._check(other)
        return PBClass._from_clean(
            self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "PBClass":
        return PBClass._from_clean(self.ctx, tuple(-a for a in self.coeffs))

    def __sub__(self, other) -> "PBClass":
        if not isinstance(other, PBClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "PBClass":
        if isinstance(other, int):
            return PBClass._from_clean(self.ctx, tuple(a * other for a in self.coeffs))
        if isinstance(other, ChowClass):
            other = self.ctx.pullback(other)
        if not isinstance(other, PBClass):
            return NotImplemented
        self._check(other)
        e = self.ctx.rank
        zero = self.ctx.base.zero()
        raw = [zero] * (2 * e - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    raw[i + j] = raw[i + j] + a * b
        return PBClass._from_clean(self.ctx, _reduce(self.ctx, raw))

    def __rmul__(self, other) -> "PBClass":
        if isinstance(other, (int, ChowClass)):
            return self.__mul__(other)
        return NotImplemented

    def __repr__(self) -> str:
        parts = [f"({c!r})*z^{j}" for j, c in enumerate(self.coeffs) if c]
        return "PBClass(" + (" + ".join(parts) if parts else "0") + ")"


def pushforward(a: PBClass) -> ChowClass:
    """Integration over the fibers.

    For a class written as sum_j alpha_j zeta^j this is
    sum_j alpha_j s_(j - e + 1)(E).  In canonical form j <= e-1, so only
    j = e-1 contributes, through s_0 = 1; the higher Segre classes have
    already entered through the zeta relation that put the class there.
    """
    return a.coeffs[a.ctx.rank - 1]
