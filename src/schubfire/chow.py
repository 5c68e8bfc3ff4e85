"""The Chow ring of a Grassmannian in the Schubert basis.

``GrassCtx(r, n)`` fixes the Grassmannian of r-planes in projective
n-space, i.e. of (r+1)-dimensional subspaces of an (n+1)-dimensional
vector space.  Classes are finitely supported integer combinations of
partitions fitting the (r+1) x (n-r) box; multiplication is bilinear over
the Littlewood-Richardson kernel with eager box truncation, so pieces of
degree above the dimension never exist.

Coefficients are Python ints throughout: intermediate Chern-monomial
coefficients reach the 10^4..10^5 range and symmetric-power tables grow
fast, so fixed-width arithmetic is not an option.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import sympoly
from .errors import ContextMismatchError, DegreeMismatchError
from .partitions import (
    Box,
    Partition,
    _lr,
    fits_box,
    normalize,
    weight,
)


@dataclass(frozen=True)
class GrassCtx:
    """Numerical context for G(r+1, n+1), the r-planes in P^n."""

    r: int
    n: int

    def __post_init__(self) -> None:
        if not (0 <= self.r < self.n):
            raise ValueError(f"need 0 <= r < n, got r={self.r}, n={self.n}")

    @property
    def k(self) -> int:
        """Rank of the universal subbundle."""
        return self.r + 1

    @property
    def box(self) -> Box:
        return Box(self.r + 1, self.n - self.r)

    @property
    def dim(self) -> int:
        return (self.r + 1) * (self.n - self.r)

    # total_chern and friends ask any coefficient ring for these:
    @property
    def top_degree(self) -> int:
        return self.dim

    @property
    def universal_rank(self) -> int:
        return self.k

    def zero(self) -> "ChowClass":
        return ChowClass._from_clean(self, {})

    def one(self) -> "ChowClass":
        return ChowClass._from_clean(self, {(): 1})

    def sigma(self, lam) -> "ChowClass":
        """The basis class of a partition, zero if it leaves the box."""
        lam = normalize(lam)
        if not fits_box(lam, self.box):
            return self.zero()
        return ChowClass._from_clean(self, {lam: 1})

    def point_class(self) -> "ChowClass":
        return self.sigma((self.box.cols,) * self.box.rows)

    def universal_dual_chern(self) -> list["ChowClass"]:
        """Chern classes of the dual universal subbundle, degrees 0..top."""
        out = [self.sigma((1,) * i) for i in range(min(self.k, self.dim) + 1)]
        out.extend(self.zero() for _ in range(self.dim - min(self.k, self.dim)))
        return out


class ChowClass:
    """An element of the Chow ring, immutable by convention."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: GrassCtx, terms: Mapping):
        clean: dict[Partition, int] = {}
        for lam, c in terms.items():
            lam = normalize(lam)
            if not fits_box(lam, ctx.box):
                raise ValueError(f"{lam} does not fit in {ctx.box}")
            c = int(c)
            if c:
                clean[lam] = clean.get(lam, 0) + c
        self.ctx = ctx
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def _from_clean(cls, ctx: GrassCtx, terms: dict) -> "ChowClass":
        self = object.__new__(cls)
        self.ctx = ctx
        self.terms = terms
        return self

    def _check(self, other: "ChowClass") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other) -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            v = out.get(lam, 0) + c
            if v:
                out[lam] = v
            elif lam in out:
                del out[lam]
        return ChowClass._from_clean(self.ctx, out)

    def __neg__(self) -> "ChowClass":
        return ChowClass._from_clean(self.ctx, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other) -> "ChowClass":
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "ChowClass":
        if isinstance(other, int):
            if other == 0:
                return self.ctx.zero()
            return ChowClass._from_clean(
                self.ctx, {l: other * c for l, c in self.terms.items()}
            )
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check(other)
        rows, cols = self.ctx.box
        out: dict[Partition, int] = {}
        for lam, ca in self.terms.items():
            for mu, cb in other.terms.items():
                c = ca * cb
                # Decompose the factor with the narrower diagram: its
                # determinant expansion is smaller.  The cache key is the
                # ordered pair, so a consistent choice maximizes reuse.
                a, b = lam, mu
                if (b[0] if b else 0) > (a[0] if a else 0):
                    a, b = b, a
                for nu, m in _lr(a, b, rows, cols):
                    v = out.get(nu, 0) + c * m
                    if v:
                        out[nu] = v
                    elif nu in out:
                        del out[nu]
        return ChowClass._from_clean(self.ctx, out)

    def __rmul__(self, other) -> "ChowClass":
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def degrees(self) -> set[int]:
        return {weight(l) for l in self.terms}

    def degree_part(self, p: int) -> "ChowClass":
        return ChowClass._from_clean(
            self.ctx, {l: c for l, c in self.terms.items() if weight(l) == p}
        )

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        return sorted(self.terms.items(), key=lambda kv: (weight(kv[0]), kv[0]))

    def __repr__(self) -> str:
        return f"ChowClass({self.ctx.r},{self.ctx.n}; {schubert_string(self)})"


def chern_universal_dual(ctx: GrassCtx, i: int) -> ChowClass:
    """c_i of the dual universal subbundle: the i-rows column class."""
    if i < 0:
        raise ValueError("Chern index must be nonnegative")
    if i > ctx.k:
        return ctx.zero()
    return ctx.sigma((1,) * i)


def integral(a: ChowClass) -> int:
    """Degree of a top-dimensional class: the coefficient of the full box.

    The zero class integrates to 0, but a nonzero class of the wrong degree
    is an error rather than a silent zero.
    """
    if not a.terms:
        return 0
    dim = a.ctx.dim
    bad = [l for l in a.terms if weight(l) != dim]
    if bad:
        raise DegreeMismatchError(
            f"class has degree(s) {sorted(a.degrees())}, expected {dim}"
        )
    full = (a.ctx.box.cols,) * a.ctx.box.rows
    return a.terms.get(full, 0)


def schur_expand(p: Mapping, ctx: GrassCtx) -> ChowClass:
    """Image in the Chow ring of a symmetric polynomial in the Chern roots.

    p maps exponent tuples (in up to k = r+1 variables) to integers.  The
    polynomial must be symmetric; homogeneous pieces of degree above the
    ring dimension are dropped, and Schur terms leaving the box vanish.
    """
    k = ctx.k
    xdict: sympoly.XPoly = {}
    for exps, c in p.items():
        t = tuple(int(e) for e in exps)
        if any(e < 0 for e in t):
            raise ValueError(f"negative exponent in {exps}")
        while len(t) > k and t[-1] == 0:
            t = t[:-1]
        if len(t) > k:
            raise ValueError(f"monomial {exps} uses more than {k} variables")
        t = t + (0,) * (k - len(t))
        c = int(c)
        if c:
            v = xdict.get(t, 0) + c
            if v:
                xdict[t] = v
            elif t in xdict:
                del xdict[t]
    m = sympoly.x_to_m(xdict, k)
    m = {key: c for key, c in m.items() if sum(key) <= ctx.dim}
    sch = sympoly.m_to_schur(m, k)
    terms = {lam: c for lam, c in sch.items() if fits_box(lam, ctx.box) and c}
    return ChowClass._from_clean(ctx, terms)


def schubert_string(a: ChowClass) -> str:
    """Deterministic rendering like ``8*s[3,2,1] - s[2]``."""
    items = a.sorted_terms()
    if not items:
        return "0"
    pieces = []
    for lam, c in items:
        body = "s[" + ",".join(str(p) for p in lam) + "]"
        mag = abs(c)
        term = body if mag == 1 else f"{mag}*{body}"
        pieces.append(("-" if c < 0 else "+", term))
    sign, first = pieces[0]
    out = ("-" if sign == "-" else "") + first
    for sign, term in pieces[1:]:
        out += f" {sign} {term}"
    return out


def serialize_class(a: ChowClass) -> list[dict]:
    """JSON-ready form: partition/coeff records sorted by (degree, lex)."""
    return [
        {"partition": list(lam), "coeff": str(c)} for lam, c in a.sorted_terms()
    ]
