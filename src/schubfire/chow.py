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

How a combination is stored, added and scaled (``_Combination``) and
how it is printed (``render``) is defined here once.
``bundles.ChernPoly`` shares both for the Chern-monomial basis, and
``projbundle.PBClass`` shares the sums and integer multiples, with base
classes as the coefficients of the powers of zeta; it has no product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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

    def schur_class(self, schur: Mapping) -> "ChowClass":
        """Image of a Schur expansion in the Chern roots of the dual
        universal subbundle: s_lam is sigma_lam, zero if it leaves the box.

        The shapes must have at most k rows and weight at most ``dim``, as
        the entries of ``bundles.sym_chern(d, k, dim)`` do, so only the
        column bound is checked.
        """
        cols = self.n - self.r
        return ChowClass._from_clean(
            self, {lam: c for lam, c in schur.items() if c and (not lam or lam[0] <= cols)}
        )

    def universal_dual_chern(self) -> list["ChowClass"]:
        """Chern classes of the dual universal subbundle, c_0..c_min(k, top)."""
        return [self.sigma((1,) * i) for i in range(min(self.k, self.dim) + 1)]


class _Combination:
    """A finitely supported combination of basis keys over a ring context,
    immutable by convention: ``terms`` maps each key to a nonzero
    coefficient.

    A coefficient is any ring element: an int for ``ChowClass`` and
    ``ChernPoly``, a base ``ChowClass`` for ``projbundle.PBClass``.  This
    holds what every basis shares: sums, negation, integer multiples and
    the context check.  A subclass validates its keys in ``__init__`` and
    supplies ``__repr__``; the two integer bases also supply the ring
    product of two term dicts as ``_product`` (without it, ``*`` takes
    integers only) and their printing order as ``sorted_terms``.
    """

    __slots__ = ("ctx", "terms")

    @classmethod
    def _from_clean(cls, ctx, terms: dict):
        self = object.__new__(cls)
        self.ctx = ctx
        self.terms = terms
        return self

    def _check(self, other) -> None:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatchError(f"{self.ctx} vs {other.ctx}")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            # Never 0 + c: a ChowClass coefficient cannot be added to the int 0.
            v = out[key] + c if key in out else c
            if v:
                out[key] = v
            else:
                del out[key]
        return self._from_clean(self.ctx, out)

    def __neg__(self):
        return self._from_clean(self.ctx, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            terms = {key: other * c for key, c in self.terms.items()} if other else {}
            return self._from_clean(self.ctx, terms)
        if not isinstance(other, type(self)) or not hasattr(self, "_product"):
            return NotImplemented
        self._check(other)
        return self._from_clean(self.ctx, self._product(other.terms))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented


class ChowClass(_Combination):
    """An element of the Chow ring: {partition in the box: coefficient}."""

    __slots__ = ()

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

    def _product(self, other_terms: dict) -> dict:
        rows, cols = self.ctx.box
        out: dict[Partition, int] = {}
        for lam, ca in self.terms.items():
            for mu, cb in other_terms.items():
                c = ca * cb
                # Decompose the factor with the narrower diagram: each
                # e-monomial of s_mu has mu_1 factors, so it adds fewer
                # strips.  The cache key is the ordered pair, so a
                # consistent choice maximizes reuse.
                a, b = lam, mu
                if (b[0] if b else 0) > (a[0] if a else 0):
                    a, b = b, a
                for nu, m in _lr(a, b, rows, cols):
                    v = out.get(nu, 0) + c * m
                    if v:
                        out[nu] = v
                    elif nu in out:
                        del out[nu]
        return out

    def degrees(self) -> set[int]:
        return {weight(l) for l in self.terms}

    def sorted_terms(self) -> list[tuple[Partition, int]]:
        return sorted(self.terms.items(), key=lambda kv: (weight(kv[0]), kv[0]))

    def __repr__(self) -> str:
        return f"ChowClass({self.ctx.r},{self.ctx.n}; {schubert_string(self)})"


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


def render(items, factors, latex: bool) -> str:
    """Text or LaTeX of sorted (key, coefficient) terms.

    ``factors(key)`` lists the symbols of one basis element, none for the
    unit.  A coefficient of 1 is dropped unless it is the whole term.  Text
    joins factors with ``*`` and terms with `` + ``/`` - ``; LaTeX joins
    factors with a thin space and terms with ``+``/``-``.
    """
    sep = "\\," if latex else "*"
    out = ""
    for key, c in items:
        syms = factors(key)
        mag = abs(c)
        body = sep.join(([str(mag)] if mag != 1 or not syms else []) + syms)
        if latex:
            out += ("-" if c < 0 else "+" if out else "") + body
        elif out:
            out += (" - " if c < 0 else " + ") + body
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


def schubert_string(a: ChowClass) -> str:
    """Deterministic rendering like ``8*s[3,2,1] - s[2]``."""
    return render(a.sorted_terms(), lambda lam: [f"s[{_commas(lam)}]"] if lam else [], False)


def schubert_latex(a: ChowClass) -> str:
    """LaTeX like ``8\\,\\sigma_{3,2,1}-\\sigma_{2}``."""
    return render(
        a.sorted_terms(), lambda lam: [f"\\sigma_{{{_commas(lam)}}}"] if lam else [], True
    )


def _commas(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


def serialize_class(a: ChowClass) -> list[dict]:
    """JSON-ready form: partition/coeff records sorted by (degree, lex)."""
    return [
        {"partition": list(lam), "coeff": str(c)} for lam, c in a.sorted_terms()
    ]
