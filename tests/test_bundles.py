"""Splitting-principle Chern/Segre calculus and the symmetric-power tables."""

from math import comb

import pytest

from schubfire.bundles import (
    ChernCtx,
    bundle_rank,
    c_top_virtual,
    chern_string,
    direct_sum,
    dual,
    line,
    pullback_of,
    segre,
    sym,
    sym_chern,
    total_chern,
    twist,
    ustar,
    virtual_diff,
)
from schubfire.chow import GrassCtx, schubert_string


def test_bundle_rank():
    assert bundle_rank(ustar(), 3) == 3
    assert bundle_rank(sym(2, ustar()), 3) == 6
    assert bundle_rank(sym(3, ustar()), 4) == 20
    assert bundle_rank(direct_sum(ustar(), line(None)), 3) == 4
    assert bundle_rank(virtual_diff(sym(2, ustar()), ustar()), 3) == 3
    assert bundle_rank(dual(sym(2, ustar())), 2) == 3


def test_node_restrictions():
    diff = virtual_diff(ustar(), line(None))
    with pytest.raises(ValueError):
        twist(diff, None)
    with pytest.raises(ValueError):
        sym(2, diff)
    with pytest.raises(ValueError):
        sym(0, ustar())


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


def test_twist_zero_is_identity():
    g = GrassCtx(2, 5)
    e = sym(2, ustar())
    c = total_chern(e, g)
    ct = total_chern(twist(e, g.zero()), g)
    st = segre(twist(e, g.zero()), g)
    s = segre(e, g)
    for i in range(g.dim + 1):
        assert ct[i] == c[i]
        assert st[i] == s[i]


def test_twist_chern_matches_split_roots():
    # rank-2 check against a hand expansion: roots a+t, b+t
    g = GrassCtx(1, 3)
    t = g.sigma((1,))
    e = ustar()
    ct = total_chern(twist(e, t), g)
    c1 = g.sigma((1,))
    c2 = g.sigma((1, 1))
    assert ct[1] == c1 + 2 * t
    assert ct[2] == c2 + c1 * t + t * t


def test_twist_segre_closed_form_matches_inversion():
    # the twisted Segre shortcut must agree with direct series inversion
    g = GrassCtx(1, 4)
    t = g.sigma((1,))
    e = twist(sym(2, ustar()), t)
    c = total_chern(e, g)
    s = segre(e, g)
    for p in range(1, g.dim + 1):
        acc = g.zero()
        for i in range(p + 1):
            acc = acc + c[i] * s[p - i]
        assert acc == g.zero(), p


def test_c_top_virtual_examples():
    g = GrassCtx(2, 5)
    a = sym(2, ustar())
    ra = bundle_rank(a, g.k)
    assert c_top_virtual(virtual_diff(a, direct_sum()), ra, g) == total_chern(a, g)[ra]
    assert c_top_virtual(virtual_diff(a, a), 0, g) == g.one()
    with pytest.raises(ValueError):
        c_top_virtual(virtual_diff(a, a), -1, g)


def test_pullback_requires_bundle_context():
    g = GrassCtx(2, 5)
    with pytest.raises(ValueError):
        total_chern(pullback_of(ustar()), g)  # plain Grassmannian has no base
    with pytest.raises(ValueError):
        segre(pullback_of(ustar()), g)


def test_sym_chern_agrees_with_root_polynomial_straightening():
    # Independent route: expand the product of (1 + root t) over the Chern
    # roots of the symmetric power directly as a symmetric polynomial and
    # push it through the SSYT-based Schur straightening; must match the
    # table + monomial-evaluation route class by class.
    from itertools import combinations_with_replacement

    from schubfire.chow import schur_expand
    from schubfire.sympoly import poly_add, poly_mul

    for (r, n, d) in [(1, 3, 2), (1, 3, 3), (2, 4, 2), (2, 5, 2)]:
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


def test_sym_ustar_segre_grows_to_the_same_series(clear_caches):
    g = GrassCtx(2, 5)
    e = sym(2, ustar())
    short = segre(e, g, max_degree=3)
    assert len(short) == 4
    grown = segre(e, g, max_degree=g.dim)
    assert grown[:4] == short
    clear_caches()
    assert segre(e, g, max_degree=g.dim) == grown


def test_sym_ustar_series_are_returned_as_copies(clear_caches):
    g = GrassCtx(2, 5)
    e = sym(2, ustar())
    c = total_chern(e, g)
    s = segre(e, g, max_degree=4)
    expected = (list(c), list(s))
    c[1] = g.zero()
    s[1] = g.zero()
    s.append(g.one())
    assert (total_chern(e, g), segre(e, g, max_degree=4)) == expected


def test_sym_ustar_needs_the_universal_bundle():
    from schubfire.projbundle import PBCtx

    pb = PBCtx(GrassCtx(1, 3), sym(2, ustar()))
    with pytest.raises(ValueError):
        total_chern(sym(2, ustar()), pb)
    with pytest.raises(ValueError):
        segre(sym(2, ustar()), pb)
