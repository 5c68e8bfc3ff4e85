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

* ``sigma_direct`` evaluates the paper's triple sum in the Chern and Segre
  classes of Sym^d, Sym^k and Sym^l of the dual universal subbundle, on the
  Grassmannian, after collapsing it through c(E) s(E) = 1;
* ``sigma_pb`` writes the top Chern classes of the two quotient bundles
  cutting out the locus on the projective bundle P(Sym^l U*) as
  polynomials in zeta = c1(O(1)) over the Grassmannian, integrates their
  product over the fibers by the projection formula against fiber
  integrals memoized per bundle, and multiplies by c_top(Sym^k U*).

The direct route is the default (no projective bundle to build, so it is
faster); the bundle route is kept as a cross-check.  The two must agree
exactly as classes, and their sum must equal the undegenerated total.
Both take the Chern and Segre classes of Sym^m U* from ``bundles``, which
computes them once per Grassmannian; the only memos kept here are the
finished classes of each route per problem.  On a Grassmannian with
k <= 3 the direct route reads its first term off one product over the
Chern roots (``bundles.ctop_quotient``), while the bundle route forms the
same sum by Chow products, so ``--route both`` checks the one against an
arithmetic of its own.  A split over both components
asks for each problem twice, once as k and once as the mirror split's l.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from . import bundles
from .chow import ChowClass, GrassCtx, _Record, _set_key, integral
from .errors import RouteMismatchError
from .projbundle import PBClass, PBCtx, _reduce, pushforward


class ProblemParams(_Record):
    """One degeneration problem; k is the degree of the first component."""

    _fields = ("r", "n", "d", "k")

    def __init__(self, r: int, n: int, d: int, k: int | None = None) -> None:
        if not (0 <= r < n):
            raise ValueError(f"need 0 <= r < n, got r={r}, n={n}")
        if d < 1:
            raise ValueError(f"degree must be positive, got d={d}")
        if k is not None and not (1 <= k <= d - 1):
            raise ValueError(f"split degree must satisfy 1 <= k <= d-1, got k={k}")
        attrs = self.__dict__
        attrs["r"], attrs["n"], attrs["d"], attrs["k"] = key = (r, n, d, k)
        _set_key(self, key)

    @property
    def l(self) -> int | None:
        return None if self.k is None else self.d - self.k


def expected_dim(r: int, n: int, d: int) -> int:
    """Dimension of the family of r-planes on a generic degree-d hypersurface."""
    ProblemParams(r, n, d)
    return (r + 1) * (n - r) - comb(r + d, d)


def _sym_ustar(m: int) -> bundles.BundleExpr:
    return bundles.sym(m, bundles.ustar())


def total_class(r: int, n: int, d: int) -> ChowClass:
    """Class of the r-planes on a generic degree-d hypersurface in P^n."""
    ProblemParams(r, n, d)
    r_d = bundles.sym_rank(r + 1, d)
    ctx = GrassCtx(r, n)
    if r_d > ctx.dim:
        return ctx.zero()
    return bundles.total_chern(_sym_ustar(d), ctx)[r_d]


def is_generically_empty(r: int, n: int, d: int) -> bool:
    """True iff a generic degree-d hypersurface in P^n contains no r-plane."""
    return not total_class(r, n, d)


def sigma_direct(r: int, n: int, d: int, k: int) -> ChowClass:
    """Class of limiting r-planes in the degree-k component, computed on G.

    The paper's formula is, with R = r_d - r_k,

        c_(r_k)(Sym^k U*) * sum over i, j, h of
            C(r_d-1-i, r_k-1+h)
            c_i(Sym^d U*) c_j(Sym^l U*) s_h(Sym^k U*) s_(R-i-j-h)(Sym^l U*)

    where i runs to R, j to min(r_l - 1, R - i), h to R - i - j.  Since
    c(E) s(E) = 1 for E = Sym^l U* and c_j(E) = 0 for j > r_l, the sum over
    j of c_j(E) s_(p-j)(E) is 1 at p = 0, zero for 0 < p < r_l and
    -c_(r_l)(E) s_(p-r_l)(E) for p >= r_l; at p = 0, h = R - i and the
    binomial is 1.  So, with Q = R - r_l, the class evaluated here is

        c_(r_k)(Sym^k U*) * ( sum over i of c_i(Sym^d U*) s_(R-i)(Sym^k U*)
            - c_(r_l)(E) * sum over i + h <= Q of C(r_d-1-i, r_k-1+h)
                c_i(Sym^d U*) s_h(Sym^k U*) s_(Q-i-h)(E) ),

    whose second term is absent when Q < 0 (always, on lines).

    The first term is c_(r_k)(Sym^k U*) c_R(Sym^d U* - Sym^k U*), the sum
    over i being the degree-R part of c(Sym^d U*) / c(Sym^k U*).  Where
    ``bundles.reads_roots`` holds for Sym^k U* (a Grassmannian with
    k <= 3, and Sym^k U* not U* itself) it is read off one root product
    by ``bundles.ctop_quotient``, with no Chow product, so on lines the
    class costs none.  Elsewhere the sum is formed by R + 1 products.
    """
    ProblemParams(r, n, d, k)
    bundles.sym_rank(r + 1, d)
    return _sigma_direct_cached(r, n, d, k)


@lru_cache(maxsize=None)
def _sigma_direct_cached(r: int, n: int, d: int, k: int) -> ChowClass:
    ctx = GrassCtx(r, n)
    l = d - k
    r_d, r_k, r_l = (bundles.sym_rank(r + 1, m) for m in (d, k, d - k))
    if r_d > ctx.dim or r_k > ctx.dim:
        return ctx.zero()
    R = r_d - r_k
    Q = R - r_l
    sym_d, sym_k, sym_l = _sym_ustar(d), _sym_ustar(k), _sym_ustar(l)
    roots = bundles.reads_roots(sym_k, ctx)
    if roots:  # the first term, prefactor included, off one root product
        first = bundles.ctop_quotient(sym_d, sym_k, ctx)
        if Q < 0:
            return first
    prefactor = bundles.total_chern(sym_k, ctx)[r_k]
    if not prefactor:
        return ctx.zero()
    cd = bundles.total_chern(sym_d, ctx)
    sk = bundles.segre(sym_k, ctx, max_degree=R)
    if not roots:
        total = ctx.zero()
        for i in range(R + 1):
            if cd[i] and sk[R - i]:
                total = total + cd[i] * sk[R - i]
        if Q < 0:
            return prefactor * total
    # Read off roots, this side asks s(Sym^l U*) to the deepest cap a split
    # asks of it, the R of the mirror side, so that the mirror split and the
    # bundle route slice it rather than extend it by inversion, which costs
    # products; the inverse table of Sym^l U* is then built once.
    sl = bundles.segre(sym_l, ctx, max_degree=r_d - r_l if roots else Q)
    rest = ctx.zero()
    for i in range(Q + 1):
        if not cd[i]:
            continue
        inner = ctx.zero()
        for h in range(Q - i + 1):  # the binomial is positive for h <= Q - i
            if sk[h] and sl[Q - i - h]:
                inner = inner + comb(r_d - 1 - i, r_k - 1 + h) * (sk[h] * sl[Q - i - h])
        if inner:
            rest = rest + cd[i] * inner
    second = bundles.total_chern(sym_l, ctx)[r_l] * rest
    return first - prefactor * second if roots else prefactor * (total - second)


def sigma_pb(r: int, n: int, d: int, k: int) -> ChowClass:
    """Same class as ``sigma_direct`` via the projective bundle P(E), E = Sym^l U*.

    With e = r_l, zeta = c1(O(1)) and R = r_d - r_k, the locus on P(E) is
    cut out by the top Chern classes of two quotients, both written as
    zeta-polynomials over the Grassmannian:

        a = c_R(Sym^d U* - Sym^k U* (x) O(-1)) = sum over p of zeta^p A_p,
            A_p = sum over i + j = R - p of
                C(r_d-1-i, p) c_i(Sym^d U*) s_j(Sym^k U*),
        b = c_(e-1)(E - O(-1)) = sum over i of c_i(E) zeta^(e-1-i).

    The binomial comes from s(F (x) O(-1)), whose degree-q part is
    sum_j C(r_k-1+q, q-j) s_j(F) zeta^(q-j).  The class is
    c_(r_k)(Sym^k U*) * pushforward(a * b), and by the projection formula
    pushforward(a * b) = sum over p < e of a_p w_p, where the a_p are the
    coefficients of a reduced by the zeta relation and w_p is
    pushforward(zeta^p * b), which depends on P(E) only and is memoized
    per ``PBCtx`` (``_fiber_integrals``).  a_p is A_p plus what the
    relation carries down from the A_q with q >= e.  Only the a_p with
    w_p != 0 are read, so A_p is formed only for p >= e or w_p != 0, and
    those powers are the reduction's read set: it makes no carry into
    another power below e.  That is exact, because the relation only
    lowers powers, so such a carry could never reach a read one.  w is
    (1, 0, ..., 0), c(E) s(E) = 1 seen through the relation, but it is
    read, not assumed: this route uses only the zeta relation and never
    s(E), so it does not share ``sigma_direct``'s collapse.
    """
    ProblemParams(r, n, d, k)
    bundles.sym_rank(r + 1, d)
    return _sigma_pb_cached(r, n, d, k)


@lru_cache(maxsize=None)
def _sigma_pb_cached(r: int, n: int, d: int, k: int) -> ChowClass:
    ctx = GrassCtx(r, n)
    r_d, r_k, r_l = (bundles.sym_rank(r + 1, m) for m in (d, k, d - k))
    if r_d > ctx.dim or r_k > ctx.dim:
        return ctx.zero()
    R = r_d - r_k
    pb = PBCtx(ctx, _sym_ustar(d - k))
    w = _fiber_integrals(pb)
    cd = bundles.total_chern(_sym_ustar(d), ctx)
    sk = bundles.segre(_sym_ustar(k), ctx, max_degree=R)
    reads = {p for p in range(r_l) if w[p]}  # a_p below e is read only through w_p
    coeffs = [ctx.zero() for _ in range(R + 1)]
    for p in range(R + 1):
        if p >= r_l or p in reads:
            for i in range(R - p + 1):  # the binomial is positive for p <= R - i
                if cd[i] and sk[R - p - i]:
                    coeffs[p] = coeffs[p] + comb(r_d - 1 - i, p) * (cd[i] * sk[R - p - i])
    a = _reduce(pb, dict(enumerate(coeffs)), reads)
    fiber = sum((a[p] * w[p] for p in a), ctx.zero())
    return bundles.total_chern(_sym_ustar(k), ctx)[r_k] * fiber


@lru_cache(maxsize=None)
def _fiber_integrals(pb: PBCtx) -> tuple[ChowClass, ...]:
    """w_p = pushforward(zeta^p * b) for p < e, b = c_(e-1)(E - O(-1)), each
    zeta^p * b the one before shifted up a power and reduced by ``PBClass``."""
    zero, e = pb.base.zero(), pb.rank
    x = PBClass(pb, pb.chern_e[e - 1 :: -1])  # b, already reduced
    w = [pushforward(x)]
    for _ in range(1, e):
        x = PBClass(pb, [zero] + [x.terms.get(j, zero) for j in range(e)])  # x * zeta
        w.append(pushforward(x))
    return tuple(w)


class SplitResult(NamedTuple):
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
    total = total_class(r, n, d)  # guards the rank before any binomial
    m = expected_dim(r, n, d)
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
    return SplitResult(r, n, d, k, l, m, total, sk, sl, identity_ok, *counts, status)


def verify_identity(r: int, n: int, d: int, k: int) -> bool:
    """Exact class equality, as ``split`` checks it: the component classes
    sum to the total class."""
    return split(r, n, d, k).identity_ok
