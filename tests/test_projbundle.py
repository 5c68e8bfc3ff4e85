"""Projective-bundle ring: relation, products, pullback, pushforward."""

import pytest

from schubfire.bundles import direct_sum, segre, sym, total_chern, ustar
from schubfire.chow import GrassCtx
from schubfire.errors import ContextMismatchError
from schubfire.projbundle import PBClass, PBCtx, pushforward


def _zeta_power(pb, p):
    out = pb.one()
    z = pb.zeta()
    for _ in range(p):
        out = out * z
    return out


@pytest.fixture
def setup():
    g = GrassCtx(2, 4)
    e = sym(2, ustar())
    return g, e, PBCtx(g, e)


def test_ctx_validation(setup):
    g, e, pb = setup
    assert pb.rank == 6
    assert pb.top_degree == g.dim + 5
    with pytest.raises(ContextMismatchError):
        pb.pullback(GrassCtx(2, 5).one())


def test_pb_mul_unit_and_zero(setup):
    g, e, pb = setup
    z = pb.zeta()
    a = (z + pb.pullback(g.sigma((1,)))) * z
    assert pb.one() * a == a
    assert pb.zero() * a == pb.zero()


def test_trivial_bundle_projective_space_relation():
    # E = O(1)^3 over P^3 is the trivial rank-3 bundle twisted by O(1), so
    # P(E) is a projective plane over the base: the zeta relation of E is
    # (zeta + h)^3 = 0, and w = zeta + h is the zeta of the trivial bundle
    g = GrassCtx(0, 3)
    pb = PBCtx(g, direct_sum(ustar(), ustar(), ustar()))
    w = pb.zeta() + pb.pullback(g.sigma((1,)))
    assert w * w * w == pb.zero()
    assert w * w != pb.zero()


def test_relation_reduction_rank_two():
    # (zeta + c1) zeta^(e-1) for e = 2 reduces to -c2 by hand
    g = GrassCtx(1, 3)
    pb = PBCtx(g, ustar())
    assert pb.rank == 2
    z = pb.zeta()
    c1 = g.sigma((1,))
    c2 = g.sigma((1, 1))
    got = (z + pb.pullback(c1)) * z
    assert got.terms == {0: -c2}


def test_relation_reduction_general_rank(setup):
    # (zeta + c1(E)) zeta^(e-1): the c1 terms cancel, leaving -c_i(E) on
    # zeta^(e-i) for i = 2..e
    g, e, pb = setup
    rank = pb.rank
    got = (pb.zeta() + pb.pullback(pb.chern_e[1])) * _zeta_power(pb, rank - 1)
    for j in range(rank - 1):
        assert got.terms.get(j, g.zero()) == -pb.chern_e[rank - j], j
    assert rank - 1 not in got.terms


def test_pullback_examples(setup):
    g, e, pb = setup
    assert pb.pullback(g.zero()) == pb.zero()
    assert pb.pullback(g.one()) == pb.one()
    alpha = g.sigma((2, 1))
    assert pushforward(pb.pullback(alpha) * _zeta_power(pb, pb.rank - 1)) == alpha


def test_pushforward_fiber_dimension(setup):
    g, e, pb = setup
    alpha = g.sigma((1,))
    assert pushforward(pb.pullback(alpha) * _zeta_power(pb, pb.rank - 2)) == g.zero()


def test_pushforward_of_relation_power(setup):
    g, e, pb = setup
    # zeta^e pushes to s1(E) = -c1(E)
    c = total_chern(e, g)
    assert pushforward(_zeta_power(pb, pb.rank)) == -c[1]


def test_pushforward_matches_segre(setup):
    g, e, pb = setup
    s = segre(e, g)
    current = _zeta_power(pb, pb.rank - 1)
    z = pb.zeta()
    for i in range(g.dim + 1):
        assert pushforward(current) == s[i], i
        current = current * z


def test_unreduced_relation_pushes_to_zero(setup):
    g, e, pb = setup
    # sum_i c_i(E) s_(q+1-i)(E) = 0 for q >= 0: the zeta-relation killed
    # degree by degree through the pushforward formula
    c = total_chern(e, g)
    s = segre(e, g)
    for q in range(0, g.dim):
        acc = g.zero()
        for i in range(0, min(q + 1, pb.rank) + 1):
            j = q + 1 - i
            if 0 <= j <= g.dim:
                acc = acc + c[i] * s[j]
        assert acc == g.zero(), q


def test_projection_formula(setup):
    g, e, pb = setup
    z = pb.zeta()
    samples = [
        _zeta_power(pb, pb.rank - 1),
        (z + pb.pullback(g.sigma((1,)))) * _zeta_power(pb, pb.rank - 2),
        _zeta_power(pb, pb.rank + 1),
    ]
    for alpha in (g.sigma((1,)), g.sigma((2, 1))):
        for a in samples:
            assert pushforward(pb.pullback(alpha) * a) == alpha * pushforward(a)


def test_degree_bookkeeping(setup):
    g, e, pb = setup
    assert pb.top_degree == g.dim + pb.rank - 1
    # pushing a pure zeta power drops bookkeeping degree by the fiber dim
    top = _zeta_power(pb, pb.rank - 1 + 2)
    assert pushforward(top).degrees() == {2}


def test_pbclass_equality_and_scalars(setup):
    g, e, pb = setup
    z = pb.zeta()
    assert 2 * z == z + z
    assert z - z == pb.zero()
    assert bool(z) and not bool(pb.zero())
    # multiplying by a base class without explicit pullback also works
    assert g.sigma((1,)) * z == pb.pullback(g.sigma((1,))) * z


def test_mixed_context_rejected(setup):
    g, e, pb = setup
    other = PBCtx(GrassCtx(2, 5), sym(2, ustar()))
    with pytest.raises(ContextMismatchError):
        pb.zeta() + other.zeta()
    with pytest.raises(ContextMismatchError):
        PBClass(pb, (GrassCtx(2, 5).one(),) * pb.rank)
