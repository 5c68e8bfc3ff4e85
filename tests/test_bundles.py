"""Splitting-principle Chern/Segre calculus and the symmetric-power tables."""

import hashlib
import time
from math import comb

import pytest

from schubfire import bundles
from schubfire.bundles import (
    RANK_CAP_ENV,
    ChernCtx,
    bundle_rank,
    chern_string,
    direct_sum,
    dual,
    segre,
    sym,
    sym_chern,
    total_chern,
    ustar,
)
from schubfire.chow import GrassCtx, schubert_string
from schubfire.errors import RankCapExceededError
from schubfire.projbundle import PBCtx


def test_bundle_rank():
    assert bundle_rank(ustar(), 3) == 3
    assert bundle_rank(sym(2, ustar()), 3) == 6
    assert bundle_rank(sym(3, ustar()), 4) == 20
    assert bundle_rank(sym(2, direct_sum(ustar(), ustar())), 3) == 21
    assert bundle_rank(dual(sym(2, ustar())), 2) == 3
    # the inner power is refused first, before any huge rank is formed
    started = time.perf_counter()
    with pytest.raises(RankCapExceededError, match="degree-99999 symmetric power"):
        bundle_rank(sym(99999, sym(99999, ustar())), 3)
    assert time.perf_counter() - started < 1.0


def test_node_restrictions():
    with pytest.raises(ValueError):
        sym(0, ustar())
    with pytest.raises(ValueError):
        direct_sum()


# Sym^9 of a rank-4 bundle has rank C(12, 9) = 220, above the default cap
# of 64; without the cap each of these ran for more than ten seconds.
LIBRARY_CALLS = {
    "sym_chern": lambda: sym_chern(9, 4),
    "total_chern": lambda: total_chern(sym(9, ustar()), GrassCtx(3, 30)),
    "segre": lambda: segre(sym(9, ustar()), GrassCtx(3, 30)),
    "PBCtx": lambda: PBCtx(GrassCtx(3, 30), sym(9, ustar())),
}


@pytest.mark.parametrize("call", sorted(LIBRARY_CALLS))
def test_library_calls_apply_the_rank_cap(monkeypatch, call):
    monkeypatch.delenv("SCHUBFIRE_RANK_CAP", raising=False)
    started = time.perf_counter()
    with pytest.raises(RankCapExceededError, match="degree-9 symmetric power"):
        LIBRARY_CALLS[call]()
    assert time.perf_counter() - started < 1.0


def test_sym_table_degree_one_is_identity():
    for k in (1, 2, 3, 4):
        table = sym_chern(1, k)
        assert table[0] == {(0,) * k: 1}
        for i in range(1, k + 1):
            exps = [0] * k
            exps[i - 1] = 1
            assert table[i] == {tuple(exps): 1}


def test_sym_table_rank3_square():
    # published hand-checked values for the symmetric square at rank 3
    table = sym_chern(2, 3)
    assert table[1] == {(1, 0, 0): 4}
    assert table[2] == {(2, 0, 0): 5, (0, 1, 0): 5}
    assert table[3] == {(3, 0, 0): 2, (1, 1, 0): 11, (0, 0, 1): 7}
    assert table[6] == {(1, 1, 1): 8, (0, 0, 2): -8}


def test_sym_table_first_chern_rule():
    # c1(Sym^d E) = (d/k) rank(Sym^d E) c1(E)
    for k in range(1, 5):
        for d in range(1, 4):
            table = sym_chern(d, k, max_degree=1)
            expected = d * comb(k + d - 1, d) // k
            key = (1,) + (0,) * (k - 1)
            assert table[1] == {key: expected}, (k, d)


def test_sym_table_cache_extension():
    small = sym_chern(3, 2, max_degree=2)
    assert len(small) == 3
    full = sym_chern(3, 2)
    assert len(full) == comb(4, 3) + 1
    assert list(full[:3]) == list(small)


def _table_digest(table):
    return hashlib.sha256(repr([sorted(entry.items()) for entry in table]).encode()).hexdigest()


# sha256 of each table as built by the tuple-keyed root product before the
# packed one replaced it.  (3,2,3), (3,4,10), (3,4,16) and (6,3,21) ask for
# fewer degrees than the rank, (2,5,20) for more; in (1,1,1), (2,2,2) and
# (3,2,3) an exponent of the top degree equals the cap, the largest digit of
# the packing base.
PINNED_TABLES = {
    (1, 1, 1): "4670c749a212a57d7e0262b56b5862f052f503dc9560559582a01ff174c433d0",
    (1, 4, 4): "b40dd03a9034ef4982683c05cbdf1c2f648179ce3c77d0407d1e7efffad45f5f",
    (2, 2, 2): "92dec1f9879928f1ee50b235375b66bfaf1d1e11541f0e022723312c6f35898d",
    (2, 2, 3): "5418271921b81689a23efeef612e3e0d80a0761d7c2ef38235248a819ee645a9",
    (3, 2, 3): "8bd8d236c2c9371121acc9a5afefd7653cacc60261a815372e759f72a2b6eda5",
    (3, 4, 10): "9517022337e653f9c073a25f11272e578f5df3900ebf440d4b55d0861e91c813",
    (3, 4, 16): "da1bfcde24e6c138f4ae9f41970a48e9be7f8d216323603dcb9f56d7d2245732",
    (3, 4, 20): "21a68a923c3cf14c1f27526cd301938fe2e24c38245d67f831accaefc01935f2",
    (6, 3, 21): "d89ac8e7c7d394ee25b4751c77297ce18bbcf4c34d8b71e11e54917af13cc7ee",
    (2, 5, 20): "7044d117b9f2d67e8bb279ef1cdb4b208236937c4b7284ee4cd1a52a47e34bb8",
    (47, 2, 48): "e52eb761b060a85aeae615812ceb6ab529f72b6d7fb3d34281bc88f282ef358b",
}


@pytest.mark.parametrize("d,k,cap", sorted(PINNED_TABLES))
def test_sym_table_is_pinned(d, k, cap):
    assert _table_digest(sym_chern(d, k, cap)) == PINNED_TABLES[d, k, cap]


def test_total_chern_universal_dual():
    g = GrassCtx(2, 4)
    c = total_chern(ustar(), g)
    assert len(c) == g.dim + 1
    assert c[0] == g.one()
    assert c[1] == g.sigma((1,))
    assert c[2] == g.sigma((1, 1))
    assert c[3] == g.sigma((1, 1, 1))
    assert all(not c[i] for i in range(4, 7))


def test_total_chern_sym_square_on_ring():
    g = GrassCtx(2, 6)
    x = g.sigma((1,))
    y = g.sigma((1, 1))
    z = g.sigma((1, 1, 1))
    c = total_chern(sym(2, ustar()), g)
    assert c[1] == 4 * x
    assert c[2] == 5 * (x * x + y)
    assert c[3] == 2 * x * x * x + 11 * x * y + 7 * z
    assert c[6] == 8 * z * (x * y - z)
    assert schubert_string(c[6]) == "8*s[3,2,1]"


def test_rank_emptiness_on_small_grassmannian():
    g = GrassCtx(2, 4)
    assert not total_chern(sym(2, ustar()), g)[6]


def test_whitney_on_sum():
    g = GrassCtx(1, 3)
    a = sym(2, ustar())
    b = ustar()
    cab = total_chern(direct_sum(a, b), g)
    ca = total_chern(a, g)
    cb = total_chern(b, g)
    for p in range(g.dim + 1):
        expect = g.zero()
        for i in range(p + 1):
            expect = expect + ca[i] * cb[p - i]
        assert cab[p] == expect


def test_dual_involution_and_signs():
    g = GrassCtx(2, 5)
    e = sym(2, ustar())
    c = total_chern(e, g)
    cd = total_chern(dual(e), g)
    cdd = total_chern(dual(dual(e)), g)
    for i in range(g.dim + 1):
        assert cdd[i] == c[i]
        assert cd[i] == ((-1) ** i) * c[i]


def test_segre_universal_values():
    cc = ChernCtx(3, 6)
    s = segre(ustar(), cc)
    assert s[1].terms == {(1, 0, 0): -1}
    assert s[2].terms == {(2, 0, 0): 1, (0, 1, 0): -1}
    assert s[3].terms == {(3, 0, 0): -1, (1, 1, 0): 2, (0, 0, 1): -1}
    assert chern_string(s[3]) == "-c1^3 + 2*c1*c2 - c3"


def test_segre_inverse_property():
    g = GrassCtx(2, 5)
    for e in (ustar(), sym(2, ustar()), dual(sym(2, ustar()))):
        c = total_chern(e, g)
        s = segre(e, g)
        for p in range(1, g.dim + 1):
            acc = g.zero()
            for i in range(p + 1):
                acc = acc + c[i] * s[p - i]
            assert acc == g.zero(), (e, p)


def test_sym_chern_agrees_with_root_polynomial_straightening():
    # Second route: expand the product of (1 + root t) over the Chern roots
    # of the symmetric power as a symmetric polynomial and read its Schur
    # coefficients straight into the box with schur_expand; must match the
    # table route (Schur coefficients, Pieri straightening into c1..ck,
    # evaluation by Chow products) class by class.  Both share the
    # bialternant read-off, which test_chow checks against Jacobi-Trudi.
    # The root product here keys monomials by exponent tuples, independently
    # of the packed integers of the table.
    from itertools import combinations_with_replacement

    from schubfire.chow import schur_expand

    from _oracles import poly_add, poly_mul

    for (r, n, d) in [(1, 3, 2), (1, 3, 3), (2, 4, 2), (2, 5, 2), (3, 8, 3), (2, 9, 5)]:
        g = GrassCtx(r, n)
        k = g.k
        zero_key = (0,) * k
        series = [{zero_key: 1}] + [{} for _ in range(g.dim)]
        for multiset in combinations_with_replacement(range(k), d):
            root = {}
            for i in multiset:
                key = [0] * k
                key[i] = 1
                key = tuple(key)
                root[key] = root.get(key, 0) + 1
            for t_deg in range(g.dim, 0, -1):
                if series[t_deg - 1]:
                    series[t_deg] = poly_add(
                        series[t_deg], poly_mul(series[t_deg - 1], root)
                    )
        table_route = total_chern(sym(d, ustar()), g)
        for i in range(g.dim + 1):
            assert schur_expand(series[i], g) == table_route[i], (r, n, d, i)


# Every expression has its series memoized, not only the powers of U*.
MEMOIZED_EXPRS = [
    sym(2, ustar()),
    dual(sym(2, ustar())),
    direct_sum(ustar(), sym(2, ustar())),
]


def test_sym_ustar_segre_grows_to_the_same_series(clear_caches):
    g = GrassCtx(2, 5)
    for e in MEMOIZED_EXPRS:
        short = segre(e, g, max_degree=3)
        assert len(short) == 4
        grown = segre(e, g, max_degree=g.dim)
        assert grown[:4] == short, e
        clear_caches()
        assert segre(e, g, max_degree=g.dim) == grown, e


def test_sym_ustar_series_are_returned_as_copies(clear_caches):
    g = GrassCtx(2, 5)
    for e in MEMOIZED_EXPRS:
        c = total_chern(e, g)
        s = segre(e, g, max_degree=4)
        expected = (list(c), list(s))
        c[1] = g.zero()
        s[1] = g.zero()
        s.append(g.one())
        assert (total_chern(e, g), segre(e, g, max_degree=4)) == expected, e


def test_lowering_the_cap_refuses_a_memoized_series(monkeypatch):
    monkeypatch.delenv(RANK_CAP_ENV, raising=False)
    g = GrassCtx(1, 5)
    e = sym(3, ustar())  # rank 4
    total_chern(e, g)
    segre(e, g)
    monkeypatch.setenv(RANK_CAP_ENV, "3")
    with pytest.raises(RankCapExceededError):
        total_chern(e, g)
    with pytest.raises(RankCapExceededError):
        segre(e, g)


def test_series_are_memoized_by_structure(clear_caches):
    e = sym(2, sym(2, ustar()))
    assert e == sym(2, sym(2, ustar())) and e is not sym(2, sym(2, ustar()))
    assert hash(e) == hash(sym(2, sym(2, ustar())))
    before = bundles._series.cache_info().misses
    total_chern(direct_sum(e, e), GrassCtx(1, 5))
    # one miss each for U*, Sym^2 U*, e and the sum; the second e is a hit
    assert bundles._series.cache_info().misses - before == 4
    pb = PBCtx(GrassCtx(1, 3), sym(2, ustar()))
    with pytest.raises(ValueError):
        total_chern(e, pb)
    with pytest.raises(ValueError):
        segre(e, pb)


def test_sym_ustar_needs_the_universal_bundle():
    from schubfire.projbundle import PBCtx

    pb = PBCtx(GrassCtx(1, 3), sym(2, ustar()))
    with pytest.raises(ValueError):
        total_chern(sym(2, ustar()), pb)
    with pytest.raises(ValueError):
        segre(sym(2, ustar()), pb)
