"""Projective-bundle classes: the zeta relation, sums and scalars,
pushforward and the projection formula."""

import pytest

from schubfire.bundles import ChernCtx, direct_sum, dual, segre, sym, total_chern, ustar
from schubfire.chow import GrassCtx
from schubfire.errors import ContextMismatchError
from schubfire.projbundle import PBClass, PBCtx, pushforward

from _oracles import pb_product


def _zeta_power(pb, p, coeff=None):
    """coeff * zeta^p, reduced by the constructor; coeff defaults to 1."""
    base = pb.base
    return PBClass(pb, [base.zero()] * p + [base.one() if coeff is None else coeff])


@pytest.fixture
def setup():
    g = GrassCtx(2, 4)
    e = sym(2, ustar())
    return g, e, PBCtx(g, e)


def test_ctx_validation(setup):
    g, e, pb = setup
    assert pb.rank == 6
    assert pb.chern_e == tuple(total_chern(e, g))
    with pytest.raises(ContextMismatchError):
        PBClass(pb, [GrassCtx(2, 5).one()])
    # rank 5 over a base of dimension 4: c_5(E) = 0 still enters the relation
    g13 = GrassCtx(1, 3)
    pb = PBCtx(g13, sym(4, ustar()))
    assert pb.rank == 5
    assert pb.chern_e == tuple(total_chern(sym(4, ustar()), g13)) + (g13.zero(),)


def test_trivial_bundle_projective_space_relation():
    # E = O(1)^3 over P^3 is the trivial rank-3 bundle twisted by O(1), so
    # P(E) is a projective plane over the base: the zeta relation of E is
    # (zeta + h)^3 = 0, and w = zeta + h is the zeta of the trivial bundle
    g = GrassCtx(0, 3)
    pb = PBCtx(g, direct_sum(ustar(), ustar(), ustar()))
    h = g.sigma((1,))
    w_cubed = PBClass(pb, [h * h * h, 3 * (h * h), 3 * h, g.one()])
    w_squared = PBClass(pb, [h * h, 2 * h, g.one()])
    assert w_cubed == PBClass(pb, [])
    assert w_squared != PBClass(pb, [])


def test_relation_reduction_rank_two():
    # (zeta + c1) zeta^(e-1) for e = 2 reduces to -c2 by hand
    g = GrassCtx(1, 3)
    pb = PBCtx(g, ustar())
    assert pb.rank == 2
    c1 = g.sigma((1,))
    c2 = g.sigma((1, 1))
    got = PBClass(pb, [g.zero(), c1, g.one()])
    assert got.terms == {0: -c2}


def test_relation_reduction_general_rank(setup):
    # (zeta + c1(E)) zeta^(e-1): the c1 terms cancel, leaving -c_i(E) on
    # zeta^(e-i) for i = 2..e
    g, e, pb = setup
    rank = pb.rank
    got = _zeta_power(pb, rank) + _zeta_power(pb, rank - 1, pb.chern_e[1])
    for j in range(rank - 1):
        assert got.terms.get(j, g.zero()) == -pb.chern_e[rank - j], j
    assert rank - 1 not in got.terms


def test_pullback_examples(setup):
    # a base class alpha is the constant zeta-polynomial alpha
    g, e, pb = setup
    assert PBClass(pb, [g.zero()]) == PBClass(pb, [])
    assert PBClass(pb, [g.one()]).terms == {0: g.one()}
    alpha = g.sigma((2, 1))
    assert pushforward(_zeta_power(pb, pb.rank - 1, alpha)) == alpha


def test_pushforward_fiber_dimension(setup):
    g, e, pb = setup
    alpha = g.sigma((1,))
    assert pushforward(_zeta_power(pb, pb.rank - 2, alpha)) == g.zero()


def test_pushforward_of_relation_power(setup):
    g, e, pb = setup
    # zeta^e pushes to s1(E) = -c1(E)
    c = total_chern(e, g)
    assert pushforward(_zeta_power(pb, pb.rank)) == -c[1]


def test_pushforward_matches_segre(setup):
    g, e, pb = setup
    s = segre(e, g)
    for i in range(g.dim + 1):
        assert pushforward(_zeta_power(pb, pb.rank - 1 + i)) == s[i], i


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
    samples = [
        _zeta_power(pb, pb.rank - 1),
        _zeta_power(pb, pb.rank - 1) + _zeta_power(pb, pb.rank - 2, g.sigma((1,))),
        _zeta_power(pb, pb.rank + 1),
    ]
    for alpha in (g.sigma((1,)), g.sigma((2, 1))):
        for a in samples:
            assert pushforward(pb_product(PBClass(pb, [alpha]), a)) == alpha * pushforward(a)


def test_degree_bookkeeping(setup):
    g, e, pb = setup
    # pushing a pure zeta power drops bookkeeping degree by the fiber dim
    top = _zeta_power(pb, pb.rank - 1 + 2)
    assert pushforward(top).degrees() == {2}


def test_pbclass_equality_and_scalars(setup):
    g, e, pb = setup
    z = _zeta_power(pb, 1)
    zero = PBClass(pb, [])
    assert 2 * z == z + z == z * 2
    assert z - z == zero and 0 * z == zero
    assert bool(z) and not bool(zero)
    # a class is added, scaled and pushed forward, never multiplied
    alpha = g.sigma((1,))
    for op in (lambda: z * z, lambda: alpha * z, lambda: z * alpha):
        with pytest.raises(TypeError):
            op()


def test_mixed_context_rejected(setup):
    g, e, pb = setup
    other = PBCtx(GrassCtx(2, 5), sym(2, ustar()))
    with pytest.raises(ContextMismatchError):
        _zeta_power(pb, 1) + _zeta_power(other, 1)
    with pytest.raises(ContextMismatchError):
        PBClass(pb, (GrassCtx(2, 5).one(),) * pb.rank)


def test_ring_contexts_are_values():
    builders = (
        lambda: GrassCtx(2, 4),
        lambda: ChernCtx(3, 6),
        lambda: PBCtx(GrassCtx(2, 4), sym(2, ustar())),
    )
    for build in builders:
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
    # classes of two separately built but equal contexts combine as one ring
    g = GrassCtx(2, 4)
    one, two = PBCtx(g, sym(2, ustar())), PBCtx(GrassCtx(2, 4), sym(2, ustar()))
    x = _zeta_power(one, 1) + PBClass(one, [g.sigma((1,))])
    y, y_one = _zeta_power(two, 2), _zeta_power(one, 2)
    assert y == y_one
    assert x + y == x + y_one
    assert x - y == x - y_one
    assert pushforward(pb_product(x, y)) == pushforward(pb_product(x, y_one))
    # another bundle over the same base is another ring
    for bundle in (dual(sym(2, ustar())), direct_sum(ustar(), ustar(), ustar())):
        other = _zeta_power(PBCtx(g, bundle), 1)
        for op in (lambda: x + other, lambda: x - other):
            with pytest.raises(ContextMismatchError):
                op()
    # equal by structure, not by Chern classes: sym(1, U*) has those of U*
    assert PBCtx(g, sym(1, ustar())) != PBCtx(g, ustar())
