"""Counting r-planes on hypersurfaces and splitting the count under
two-component degenerations.

A generic degree-d hypersurface in P^n carries a family of r-planes whose
class is the top Chern class of the d-th symmetric power of the dual
universal subbundle; its expected dimension is

    m = (r+1)(n-r) - C(r+d, d).

When the hypersurface degenerates to a product of generic hypersurfaces of
degrees k and l = d-k, the planes that survive as limits split into those
lying in the degree-k component and those in the degree-l component.  Each
part has a class of its own, computed here two ways:

* ``sigma_direct`` evaluates a closed triple sum in the Chern and Segre
  classes of Sym^d, Sym^k and Sym^l of the dual universal subbundle,
  entirely on the Grassmannian;
* ``sigma_pb`` builds the projective bundle P(Sym^l U*), takes top Chern
  classes of the two quotient bundles cutting out the locus there, pushes
  forward, and multiplies by the top Chern class of Sym^k U*.

The direct route is the default (no projective bundle to build, so it is
faster); the bundle route is kept as a cross-check.  The two must agree
exactly as classes, and their sum must equal the undegenerated total.
Both take the Chern and Segre classes of Sym^m U* from ``bundles``, which
computes them once per Grassmannian; the only memo kept here is the
finished direct-route class per problem.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import NamedTuple

from . import bundles
from .chow import ChowClass, GrassCtx, integral
from .errors import RankCapExceededError, RouteMismatchError

RANK_CAP_DEFAULT = 64
RANK_CAP_ENV = "SCHUBFIRE_RANK_CAP"


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


@dataclass(frozen=True)
class ProblemParams:
    """One degeneration problem; k is the degree of the first component."""

    r: int
    n: int
    d: int
    k: int | None = None

    def __post_init__(self) -> None:
        if not (0 <= self.r < self.n):
            raise ValueError(f"need 0 <= r < n, got r={self.r}, n={self.n}")
        if self.d < 1:
            raise ValueError(f"degree must be positive, got d={self.d}")
        if self.k is not None and not (1 <= self.k <= self.d - 1):
            raise ValueError(f"split degree must satisfy 1 <= k <= d-1, got k={self.k}")

    @property
    def l(self) -> int | None:
        return None if self.k is None else self.d - self.k


class RankTriple(NamedTuple):
    """Ranks of the three symmetric powers entering a split."""

    r_d: int
    r_k: int
    r_l: int


def rank_triple(r: int, d: int, k: int) -> RankTriple:
    return RankTriple(comb(r + d, d), comb(r + k, k), comb(r + d - k, d - k))


def _guard(rank: int, d: int) -> None:
    """Rejects a degree-d symmetric power whose rank is above the cap."""
    cap = rank_cap()
    if rank > cap:
        raise RankCapExceededError(
            f"rank of the degree-{d} symmetric power is {rank}, above the cap {cap} "
            f"(override with {RANK_CAP_ENV})"
        )


def expected_dim(r: int, n: int, d: int) -> int:
    """Dimension of the family of r-planes on a generic degree-d hypersurface."""
    ProblemParams(r, n, d)
    return (r + 1) * (n - r) - comb(r + d, d)


def _sym_ustar(m: int) -> bundles.BundleExpr:
    return bundles.sym(m, bundles.ustar())


def total_class(r: int, n: int, d: int) -> ChowClass:
    """Class of the r-planes on a generic degree-d hypersurface in P^n."""
    ProblemParams(r, n, d)
    r_d = comb(r + d, d)
    _guard(r_d, d)
    ctx = GrassCtx(r, n)
    if r_d > ctx.dim:
        return ctx.zero()
    return bundles.total_chern(_sym_ustar(d), ctx)[r_d]


def is_generically_empty(r: int, n: int, d: int) -> bool:
    """True iff a generic degree-d hypersurface in P^n contains no r-plane."""
    return not total_class(r, n, d)


def sigma_direct(r: int, n: int, d: int, k: int) -> ChowClass:
    """Class of limiting r-planes in the degree-k component, computed on G.

    Evaluates, with R = r_d - r_k,

        c_(r_k)(Sym^k U*) * sum over i, j, h of
            C(r_d-1-i, r_k-1+h)
            c_i(Sym^d U*) c_j(Sym^l U*) s_h(Sym^k U*) s_(R-i-j-h)(Sym^l U*)

    where i runs to R, j to min(r_l - 1, R - i), h to R - i - j.
    """
    ProblemParams(r, n, d, k)
    _guard(comb(r + d, d), d)
    return _sigma_direct_cached(r, n, d, k)


@lru_cache(maxsize=None)
def _sigma_direct_cached(r: int, n: int, d: int, k: int) -> ChowClass:
    ctx = GrassCtx(r, n)
    l = d - k
    r_d, r_k, r_l = rank_triple(r, d, k)
    if r_d > ctx.dim or r_k > ctx.dim:
        return ctx.zero()
    R = r_d - r_k
    prefactor = bundles.total_chern(_sym_ustar(k), ctx)[r_k]
    if not prefactor:
        return ctx.zero()
    cd = bundles.total_chern(_sym_ustar(d), ctx)
    cl = bundles.total_chern(_sym_ustar(l), ctx)
    sk = bundles.segre(_sym_ustar(k), ctx, max_degree=R)
    sl = bundles.segre(_sym_ustar(l), ctx, max_degree=R)

    # Inner convolution over j, hoisted: W[p] = sum_j c_j(Sym^l) s_(p-j)(Sym^l)
    W = []
    for p in range(R + 1):
        acc = ctx.zero()
        for j in range(0, min(r_l - 1, p) + 1):
            if cl[j] and sl[p - j]:
                acc = acc + cl[j] * sl[p - j]
        W.append(acc)

    total = ctx.zero()
    for i in range(R + 1):
        if not cd[i]:
            continue
        inner = ctx.zero()
        for h in range(R - i + 1):
            coeff = comb(r_d - 1 - i, r_k - 1 + h)
            if coeff and sk[h] and W[R - i - h]:
                inner = inner + coeff * (sk[h] * W[R - i - h])
        if inner:
            total = total + cd[i] * inner
    return prefactor * total


def sigma_pb(r: int, n: int, d: int, k: int) -> ChowClass:
    """Same class as ``sigma_direct`` via the projective bundle P(Sym^l U*).

    Forms the rank-(r_d - r_k) quotient of the pulled-back Sym^d U* by
    Sym^k U* twisted by the tautological subbundle, and the rank-(r_l - 1)
    quotient of the pulled-back Sym^l U* by the tautological subbundle;
    multiplies their top Chern classes, pushes forward, and multiplies by
    the top Chern class of Sym^k U*.
    """
    ProblemParams(r, n, d, k)
    _guard(comb(r + d, d), d)
    from .projbundle import PBCtx, pushforward

    ctx = GrassCtx(r, n)
    l = d - k
    r_d, r_k, r_l = rank_triple(r, d, k)
    if r_d > ctx.dim or r_k > ctx.dim:
        return ctx.zero()

    sym_l = _sym_ustar(l)
    pb = PBCtx(ctx, sym_l)
    t = -pb.zeta()  # c1 of the tautological subbundle
    taut = bundles.line(t)
    big_quot = bundles.virtual_diff(
        bundles.pullback_of(_sym_ustar(d)),
        bundles.twist(bundles.pullback_of(_sym_ustar(k)), t),
    )
    small_quot = bundles.virtual_diff(bundles.pullback_of(sym_l), taut)
    a = bundles.c_top_virtual(big_quot, r_d - r_k, pb)
    b = bundles.c_top_virtual(small_quot, r_l - 1, pb)
    pushed = pushforward(a * b)
    return bundles.total_chern(_sym_ustar(k), ctx)[r_k] * pushed


@dataclass
class SplitResult:
    """Total class and its two-component split for one problem."""

    r: int
    n: int
    d: int
    k: int
    l: int
    m: int
    total: ChowClass
    sigma_k: ChowClass
    sigma_l: ChowClass
    identity_ok: bool
    count_total: int | None
    count_k: int | None
    count_l: int | None
    status: str


def split(r: int, n: int, d: int, k: int, route: str = "direct") -> SplitResult:
    """Compute the total class, both component classes, and counts if finite.

    route is "direct", "pb", or "both"; "both" runs the two routes and
    raises RouteMismatchError if they differ on either component.
    Counts are present exactly when the expected dimension is 0.
    """
    ProblemParams(r, n, d, k)
    if route not in ("direct", "pb", "both"):
        raise ValueError(f"unknown route {route!r}")
    l = d - k
    m = expected_dim(r, n, d)
    total = total_class(r, n, d)
    if route in ("direct", "both"):
        sk = sigma_direct(r, n, d, k)
        sl = sigma_direct(r, n, d, l)
    else:
        sk = sigma_pb(r, n, d, k)
        sl = sigma_pb(r, n, d, l)
    if route == "both":
        sk_pb = sigma_pb(r, n, d, k)
        sl_pb = sigma_pb(r, n, d, l)
        if sk_pb != sk or sl_pb != sl:
            raise RouteMismatchError(
                f"direct and bundle routes disagree at r={r} n={n} d={d} k={k}"
            )
    identity_ok = (sk + sl) == total
    if m == 0:
        counts = (integral(total), integral(sk), integral(sl))
    else:
        counts = (None, None, None)
    status = "ok" if m >= 0 else "negative-expected-dimension"
    return SplitResult(
        r=r,
        n=n,
        d=d,
        k=k,
        l=l,
        m=m,
        total=total,
        sigma_k=sk,
        sigma_l=sl,
        identity_ok=identity_ok,
        count_total=counts[0],
        count_k=counts[1],
        count_l=counts[2],
        status=status,
    )


def verify_identity(r: int, n: int, d: int, k: int) -> bool:
    """Exact class equality: component classes sum to the total class."""
    ProblemParams(r, n, d, k)
    l = d - k
    return (sigma_direct(r, n, d, k) + sigma_direct(r, n, d, l)) == total_class(r, n, d)
