"""Expected dimension, total classes, and the two-component splits."""

from math import comb

import pytest

from schubfire import bundles, limiting, partitions, rank_cap
from schubfire.bundles import segre, sym, total_chern, ustar
from schubfire.chow import ChowClass, GrassCtx, integral, schubert_string
from schubfire.errors import RankCapExceededError
from schubfire.projbundle import PBClass
from schubfire.limiting import (
    ProblemParams,
    expected_dim,
    is_generically_empty,
    sigma_direct,
    sigma_pb,
    split,
    total_class,
    verify_identity,
)

from _oracles import sigma_triple_sum


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(2, 2, 3)
    with pytest.raises(ValueError):
        ProblemParams(1, 3, 0)
    with pytest.raises(ValueError):
        ProblemParams(1, 3, 3, 3)
    p = ProblemParams(1, 3, 3, 1)
    assert p.l == 2


def test_expected_dim():
    assert expected_dim(1, 3, 3) == 0
    assert expected_dim(3, 8, 3) == 0
    assert expected_dim(1, 4, 5) == 0  # 2*3 - C(6,5)
    assert expected_dim(2, 4, 2) == 0
    assert expected_dim(1, 2, 3) == -2


def test_total_class_values():
    # quadrics and planes: the top class is 8 z (x y - z) wherever it fits
    for n in (5, 6, 7):
        ctx = GrassCtx(2, n)
        x, y, z = (ctx.sigma((1,) * i) for i in (1, 2, 3))
        assert total_class(2, n, 2) == 8 * z * (x * y - z)
    assert integral(total_class(2, 7, 4)) == 3297280
    assert total_class(2, 4, 2) == GrassCtx(2, 4).zero()


def test_total_class_of_lines_on_a_cubic_is_stable_in_n():
    # The Chern series of Sym^3 U* stops at its rank 4, so a Grassmannian
    # of dimension 2 * 10^9 - 2 costs what G(2, 6) does.
    assert total_class(1, 10**9, 3).terms == total_class(1, 5, 3).terms


@pytest.mark.parametrize(
    "r,n,d,count", [(1, 3, 3, 27), (3, 8, 3, 321489), (2, 9, 5, 420760566875)]
)
def test_total_class_makes_no_chow_product(clear_caches, r, n, d, count):
    # c_top(Sym^d U*) is read off the table's Schur coefficients, each
    # s_lam of the roots of U* being sigma_lam: the LR kernel is never asked.
    assert integral(total_class(r, n, d)) == count
    info = partitions._lr.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_generic_emptiness():
    assert is_generically_empty(2, 4, 2)
    assert not is_generically_empty(1, 3, 3)
    assert not is_generically_empty(3, 8, 3)
    # a smooth quadric carries no r-plane once r exceeds (n-1)/2
    assert is_generically_empty(2, 3, 2)
    assert is_generically_empty(3, 6, 2)


def test_sigma_direct_examples():
    assert integral(sigma_direct(1, 3, 3, 1)) == 15
    assert integral(sigma_direct(1, 3, 3, 2)) == 12
    assert integral(sigma_direct(2, 7, 4, 2)) == 1648640


def test_sigma_pb_examples():
    ctx = GrassCtx(2, 6)
    x, y, z = (ctx.sigma((1,) * i) for i in (1, 2, 3))
    assert sigma_pb(2, 6, 2, 1) == 4 * z * (x * y - z)
    assert sigma_pb(2, 4, 2, 1) == GrassCtx(2, 4).zero()
    assert integral(sigma_pb(3, 8, 3, 2)) == 0
    assert integral(sigma_pb(3, 8, 3, 1)) == 321489


def test_split_examples():
    res = split(2, 7, 4, 3)
    assert (res.count_k, res.count_l, res.count_total) == (483840, 2813440, 3297280)
    assert res.identity_ok and res.status == "ok"

    res = split(1, 3, 3, 1)
    assert (res.count_k, res.count_l, res.count_total) == (15, 12, 27)

    res = split(3, 8, 3, 2)
    assert (res.count_k, res.count_l, res.count_total) == (0, 321489, 321489)
    assert res.sigma_k == GrassCtx(3, 8).zero()


def test_split_no_counts_above_dimension_zero():
    res = split(1, 4, 3, 1)  # m = 6 - 4 = 2
    assert res.m == 2
    assert res.count_total is None and res.count_k is None and res.count_l is None
    assert res.identity_ok


def test_split_negative_expected_dimension():
    res = split(1, 2, 4, 2)  # m = 2 - 5 < 0
    assert res.m < 0
    assert res.status == "negative-expected-dimension"
    assert not res.total and not res.sigma_k and not res.sigma_l
    assert res.identity_ok


def test_verify_identity_examples():
    assert verify_identity(1, 3, 3, 1)
    assert verify_identity(2, 7, 4, 2)
    assert verify_identity(2, 4, 2, 1)  # both sides vanish


def test_swap_symmetry():
    for (r, n, d, k) in [(1, 3, 3, 1), (2, 6, 3, 1), (2, 7, 4, 3)]:
        l = d - k
        assert sigma_direct(r, n, d, k) == split(r, n, d, l).sigma_l


def _lines_split_formula(n, d, k):
    """Independently coded specialization of the split class to lines.

    For r = 1 the ranks collapse to d+1, k+1, l+1 and the class is

        c_(k+1)(Sym^k U*) * sum_(i<=l) sum_(j<=l-i) sum_(h<=l-i-j)
            C(d-i, k+h) c_i(Sym^d U*) c_j(Sym^l U*)
            s_h(Sym^k U*) s_(l-h-i-j)(Sym^l U*).
    """
    ctx = GrassCtx(1, n)
    l = d - k
    cd = total_chern(sym(d, ustar()), ctx)
    cl = total_chern(sym(l, ustar()), ctx)
    sk = segre(sym(k, ustar()), ctx)
    sl = segre(sym(l, ustar()), ctx)
    dim = ctx.dim

    def at(series, i):
        return series[i] if 0 <= i <= dim else ctx.zero()

    acc = ctx.zero()
    for i in range(l + 1):
        for j in range(l - i + 1):
            for h in range(l - i - j + 1):
                coeff = comb(d - i, k + h)
                if not coeff:
                    continue
                term = at(cd, i) * at(cl, j) * at(sk, h) * at(sl, l - h - i - j)
                acc = acc + coeff * term
    return at(total_chern(sym(k, ustar()), ctx), k + 1) * acc


def test_lines_specialization_matches_direct():
    for n in (2, 3, 4):
        for d in range(2, 6):
            for k in range(1, d):
                assert _lines_split_formula(n, d, k) == sigma_direct(1, n, d, k), (
                    n,
                    d,
                    k,
                )


def test_counts_nonnegative_at_expected_dimension_zero():
    for r in range(1, 4):
        for n in range(r + 1, 9):
            for d in range(2, 5):
                if expected_dim(r, n, d) != 0 or comb(r + d, d) > 64:
                    continue
                for k in range(1, d):
                    res = split(r, n, d, k)
                    assert res.count_k >= 0 and res.count_l >= 0, (r, n, d, k)
                    assert res.count_k + res.count_l == res.count_total


def test_degenerate_projective_space_case():
    # r = 0: points on a binary form; a degree-d form has d roots, and a
    # first-order degeneration into degree-k and degree-l factors leaves
    # k limiting roots on one and l on the other
    for d in (2, 3, 5):
        for k in range(1, d):
            res = split(0, 1, d, k, route="both")
            assert res.count_total == d
            assert (res.count_k, res.count_l) == (k, d - k)
            assert res.identity_ok


def test_rank_guardrail(monkeypatch):
    monkeypatch.setenv("SCHUBFIRE_RANK_CAP", "5")
    with pytest.raises(RankCapExceededError):
        total_class(2, 7, 4)  # rank 15 > 5
    with pytest.raises(RankCapExceededError):
        sigma_direct(2, 7, 4, 2)
    monkeypatch.setenv("SCHUBFIRE_RANK_CAP", "not-a-number")
    with pytest.raises(ValueError):
        total_class(1, 3, 3)
    monkeypatch.delenv("SCHUBFIRE_RANK_CAP")
    assert integral(total_class(1, 3, 3)) == 27
    # the default cap is 64: Sym^1 of rank 64 and Sym^63 of rank 2 pass,
    # one more in either shape is refused; Sym^d of a line bundle has rank 1
    assert bundles.sym_rank(64, 1) == bundles.sym_rank(2, 63) == 64
    for e, d in ((65, 1), (2, 64)):
        with pytest.raises(RankCapExceededError):
            bundles.sym_rank(e, d)
    assert [bundles.sym_rank(1, d) for d in (1, 2, 99999)] == [1, 1, 1]
    for e, d in ((0, 2), (2, 0)):
        with pytest.raises(ValueError):
            bundles.sym_rank(e, d)


def test_route_mismatch_guard():
    # the "both" route must agree on a nontrivial case without raising
    res = split(1, 3, 3, 1, route="both")
    assert res.identity_ok
    res_pb = split(1, 3, 3, 1, route="pb")
    assert res_pb.count_k == res.count_k == 15


def test_repr_is_readable():
    assert "27*s[2,2]" in schubert_string(total_class(1, 3, 3))


def test_routes_share_the_sym_ustar_memo(clear_caches):
    from schubfire import bundles

    sigma_direct(3, 8, 3, 1)
    misses = bundles._series.cache_info().misses
    assert misses == 3  # Sym^3, Sym^2 and Sym^1 of U*, on G(4, 9)
    sigma_pb(3, 8, 3, 1)
    assert bundles._series.cache_info().misses == misses


@pytest.mark.parametrize("r,n,d,k", [(3, 8, 3, 1), (2, 9, 5, 2)])
def test_split_does_not_depend_on_which_side_comes_first(clear_caches, r, n, d, k):
    first = split(r, n, d, k)
    clear_caches()
    second = split(r, n, d, d - k)
    assert (first.total, first.sigma_k, first.sigma_l) == (
        second.total,
        second.sigma_l,
        second.sigma_k,
    )


# Every split point with r <= 3, n <= 9, d <= 4 whose ranks are within the cap.
TRIPLE_SUM_GRID = [
    (r, n, d, k)
    for r in range(4)
    for n in range(r + 1, 10)
    for d in range(2, 5)
    for k in range(1, d)
    if comb(r + d, d) <= rank_cap()  # the largest of the three ranks
]


def _regimes(r, n, d, k):
    r_d, r_k, r_l = comb(r + d, d), comb(r + k, k), comb(r + d - k, d - k)
    q = r_d - r_k - r_l
    m = expected_dim(r, n, d)
    return {
        "Q>0": q > 0 and r_d <= (r + 1) * (n - r),
        "Q=0": q == 0 and r_d <= (r + 1) * (n - r),
        "Q<0": q < 0,
        "k=l": 2 * k == d,
        "m>0": m > 0,
        "m<0": m < 0,
        "r=0": r == 0,
    }


def test_triple_sum_grid_covers_every_regime():
    seen = {name for point in TRIPLE_SUM_GRID for name, hit in _regimes(*point).items() if hit}
    assert seen == {"Q>0", "Q=0", "Q<0", "k=l", "m>0", "m<0", "r=0"}


@pytest.mark.parametrize("r,n,d,k", TRIPLE_SUM_GRID)
def test_sigma_direct_equals_the_uncollapsed_triple_sum(r, n, d, k):
    expect = sigma_triple_sum(r, n, d, k)
    assert sigma_direct(r, n, d, k) == expect
    assert sigma_pb(r, n, d, k) == expect


@pytest.mark.parametrize("r,n,d,k,bound", [(3, 8, 3, 1, 300), (1, 25, 47, 23, 0)])
def test_sigma_direct_product_count(clear_caches, monkeypatch, r, n, d, k, bound):
    # Products of Chow classes, not seconds: the uncollapsed sum took 432
    # and 1672 products for both sides of these two problems.  On lines the
    # class is read off one root product (k = 2 <= 3, and Q < 0), so none
    # is made; at k = 4 the sum is still formed by products.
    total_class(r, n, d)
    product, calls = ChowClass._product, []

    def counted(self, other_terms):
        calls.append(None)
        return product(self, other_terms)

    monkeypatch.setattr(ChowClass, "_product", counted)
    sigma_direct(r, n, d, k)
    sigma_direct(r, n, d, d - k)
    assert len(calls) <= bound
    assert bool(calls) == (bound > 0)


def _count_root_multiplications(monkeypatch):
    """The number of roots of each root product multiplied out from now on."""
    real, multiplied = bundles._root_product, []

    def counted(series, forms, base, divide=False):
        if not divide:
            multiplied.append(len(forms))
        return real(series, forms, base, divide)

    monkeypatch.setattr(bundles, "_root_product", counted)
    return multiplied


def test_split_sides_divide_one_product_of_the_power(clear_caches, monkeypatch):
    # total_class reads c_top(Sym^47 U*) at its one degree and multiplies no
    # series out; the first side of the split multiplies Sym^47 U*'s 48
    # roots out, and both sides divide that packed product by their own
    # roots instead of multiplying it out again.
    multiplied = _count_root_multiplications(monkeypatch)
    total_class(1, 25, 47)
    assert multiplied == []
    expect = [sigma_direct(1, 25, 47, k) for k in (23, 24)]
    assert multiplied == [48]
    assert bundles._packed_product.cache_info().currsize <= 3
    limiting._sigma_direct_cached.cache_clear()
    bundles._quotient_table.cache_clear()
    bundles._packed_product.cache_clear()
    assert [sigma_direct(1, 25, 47, k) for k in (23, 24)] == expect
    assert multiplied == [48, 48]


def test_clear_caches_leaves_no_product_to_divide(clear_caches, monkeypatch):
    # A cold first term multiplies the 48 roots of Sym^47 U* out once; had
    # the fixture kept the product the other side built, it would multiply
    # none.
    sigma_direct(1, 25, 47, 24)
    clear_caches()
    assert bundles._packed_product.cache_info().currsize == 0
    multiplied = _count_root_multiplications(monkeypatch)
    sigma_direct(1, 25, 47, 23)
    assert multiplied == [48]


def test_split_multiplies_each_power_out_once(clear_caches, monkeypatch):
    # Sym^7, Sym^3 and Sym^4 of U* on G(3, 15), in that order, and the
    # mirror side divides Sym^7 U*'s product once the other two are built.
    # A memo of the last two tables built would keep Sym^3 and Sym^4 U*
    # only, and the mirror side would multiply Sym^7 U*'s 36 roots again.
    multiplied = _count_root_multiplications(monkeypatch)
    split(2, 14, 7, 3)
    assert multiplied == [36, 10, 15]


def test_no_product_is_kept_where_no_quotient_is_read(clear_caches):
    # At k = 4 the split forms its first term by Chow products, so a packed
    # product kept there would only hold memory.
    split(3, 8, 3, 1)
    assert bundles._packed_product.cache_info().currsize == 0


@pytest.mark.parametrize(
    "r,n,d", [(r, n, d) for r in range(5) for n in range(r + 1, r + 4) for d in range(1, 4)]
)
def test_total_class_is_the_top_of_the_chern_series(r, n, d):
    # The old read, the degree-r_d entry of the whole Chern series, as the
    # oracle of the one-degree read; zero when r_d is above the dimension.
    ctx = GrassCtx(r, n)
    r_d = bundles.sym_rank(r + 1, d)
    expect = total_chern(sym(d, ustar()), ctx)[r_d] if r_d <= ctx.dim else ctx.zero()
    assert total_class(r, n, d) == expect


@pytest.mark.parametrize(
    "r,n,d,k,bundles_built,bound,pair_bound",
    [(3, 8, 3, 1, 2, 140, 800), (2, 12, 6, 3, 1, 125, 2400)],
)
def test_sigma_pb_product_count(
    clear_caches, monkeypatch, r, n, d, k, bundles_built, bound, pair_bound
):
    # The fiber integrals are built once per bundle Sym^l U* (at k = l the
    # second problem is a memo hit), and no product on the projective
    # bundle is formed outside that build.  Forming all of a * b before
    # integrating took 471 and 942 Chow products of 9842 and 48488 term
    # pairs here; forming only its zeta^(e-1) coefficient took 369 and 381
    # products of 5946 and 14425 pairs.  Reducing a into every power below
    # the rank took 188 and 166 products of 1741 and 4024 pairs (fiber
    # integrals included); reducing it only into the powers that w reads
    # takes 131 and 113 of 728 and 2247.
    total_class(r, n, d)
    sigma_direct(r, n, d, k)
    sigma_direct(r, n, d, d - k)
    fiber, pb_mul, product = limiting._fiber_integrals, PBClass.__mul__, ChowClass._product
    building, pb_calls, calls, pairs = [], [], [], []

    def traced_fiber(pb):
        building.append(None)
        try:
            return fiber(pb)
        finally:
            building.pop()

    def counted_pb(self, other):
        if not building:
            pb_calls.append(None)
        return pb_mul(self, other)

    def counted(self, other_terms):
        calls.append(None)
        pairs.append(len(self.terms) * len(other_terms))
        return product(self, other_terms)

    monkeypatch.setattr(limiting, "_fiber_integrals", traced_fiber)
    monkeypatch.setattr(PBClass, "__mul__", counted_pb)
    monkeypatch.setattr(ChowClass, "_product", counted)
    sigma_pb(r, n, d, k)
    sigma_pb(r, n, d, d - k)
    assert fiber.cache_info().misses == bundles_built
    assert not pb_calls
    assert 0 < len(calls) <= bound
    assert sum(pairs) <= pair_bound


@pytest.mark.parametrize("r,n,d,k", [(3, 8, 3, 1), (2, 12, 6, 2), (1, 6, 4, 3)])
def test_sigma_pb_never_asks_for_the_segre_series_of_its_bundle(
    clear_caches, monkeypatch, r, n, d, k
):
    # The bundle route is a cross-check only while it shares nothing with
    # sigma_direct's collapse through c(E) s(E) = 1 for E = Sym^l U*.
    expect = sigma_triple_sum(r, n, d, k)
    real, asked = bundles.segre, []

    def recorded(expr, ring, max_degree=None):
        asked.append(repr(expr))
        return real(expr, ring, max_degree)

    monkeypatch.setattr(bundles, "segre", recorded)
    assert sigma_pb(r, n, d, k) == expect
    assert f"sym({k},Ustar)" in asked
    assert f"sym({d - k},Ustar)" not in asked


def test_sigma_pb_is_evaluated_once_per_problem(clear_caches):
    # split over both routes asks for sigma_pb(k) and sigma_pb(l); the
    # mirror split asks for the same two problems again.
    split(3, 8, 3, 1, "both")
    split(3, 8, 3, 2, "both")
    info = limiting._sigma_pb_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    # one set of fiber integrals per bundle: Sym^2 U* and Sym^1 U*
    info = limiting._fiber_integrals.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
    clear_caches()
    assert limiting._sigma_pb_cached.cache_info().currsize == 0
    assert limiting._fiber_integrals.cache_info().currsize == 0
