"""Chow ring arithmetic, integration, and root-polynomial expansion."""

import random

import pytest

from schubfire.chow import (
    ChowClass,
    GrassCtx,
    integral,
    schubert_string,
    serialize_class,
)
from schubfire.errors import ContextMismatchError, DegreeMismatchError
from schubfire.partitions import Box, complement_in_box, fits_box, iter_box_partitions, weight

from _oracles import (
    complete_x,
    elementary_x,
    monomial_sym_x,
    poly_add,
    poly_mul,
    poly_scale,
    schur_image,
    schur_x_jt,
)


@pytest.fixture
def g35():
    return GrassCtx(2, 4)


def test_ctx_validation():
    with pytest.raises(ValueError):
        GrassCtx(3, 3)
    with pytest.raises(ValueError):
        GrassCtx(-1, 2)
    ctx = GrassCtx(3, 8)
    assert ctx.k == 4 and ctx.dim == 20 and ctx.box == (4, 5)


def test_add_examples(g35):
    a = g35.sigma((2, 1))
    zero = g35.zero()
    assert a + zero == a
    assert g35.sigma((1,)) + g35.sigma((1,)) == 2 * g35.sigma((1,))
    assert a + (-1) * a == zero
    with pytest.raises(ContextMismatchError):
        a + GrassCtx(2, 5).sigma((2, 1))


def test_mul_examples(g35):
    a = g35.sigma((2, 1))
    assert g35.one() * a == a
    # degree above the ring dimension dies
    assert g35.sigma((1,)) * g35.sigma((2, 2, 2)) == g35.zero()
    # top-degree product of the Chern generators: in the 3x2 box the
    # shape (3,2,1) leaves the box, so z(xy - z) vanishes outright
    x, y, z = g35.universal_dual_chern()[1:4]
    assert z * (x * y - z) == g35.zero()
    # while on a wider Grassmannian the same product is the (3,2,1) class
    g37 = GrassCtx(2, 6)
    x, y, z = g37.universal_dual_chern()[1:4]
    assert z * (x * y - z) == g37.sigma((3, 2, 1))


def test_chern_universal_dual(g35):
    # c_i of the dual universal subbundle is the i-row column class
    c = g35.universal_dual_chern()
    assert len(c) == g35.k + 1  # the classes above the rank are left out
    assert c[0] == g35.one()
    assert c[1] == g35.sigma((1,))
    assert c[g35.k] == g35.sigma((1,) * g35.k)


def test_integral(g35):
    assert integral(g35.zero()) == 0
    point = g35.sigma((g35.box.cols,) * g35.box.rows)
    assert integral(point) == 1
    with pytest.raises(DegreeMismatchError):
        integral(g35.sigma((1,)))
    with pytest.raises(DegreeMismatchError):
        integral(g35.one() + point)


def test_ring_axioms_sampled():
    ctx = GrassCtx(2, 5)
    shapes = list(iter_box_partitions(ctx.box))
    rng = random.Random(11)

    def rand_class():
        return ChowClass(
            ctx, {rng.choice(shapes): rng.randint(-3, 3) for _ in range(3)}
        )

    for _ in range(40):
        a, b, c = rand_class(), rand_class(), rand_class()
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert ctx.one() * a == a


def test_grading():
    ctx = GrassCtx(2, 5)
    shapes = list(iter_box_partitions(ctx.box))
    for lam in shapes:
        for mu in shapes:
            prod = ctx.sigma(lam) * ctx.sigma(mu)
            if prod:
                assert prod.degrees() == {weight(lam) + weight(mu)}


def test_generator_relation():
    # the single-row class of width j vanishes beyond the box width
    for r, n in [(1, 3), (2, 4), (2, 6)]:
        ctx = GrassCtx(r, n)
        width = ctx.box.cols
        for j in range(width + 1, width + 4):
            assert schur_image(complete_x(j, ctx.k), ctx) == ctx.zero()
        assert schur_image(complete_x(width, ctx.k), ctx) == ctx.sigma((width,))


def test_integral_duality():
    ctx = GrassCtx(2, 4)
    shapes = list(iter_box_partitions(ctx.box))
    for lam in shapes:
        for mu in shapes:
            if weight(lam) + weight(mu) != ctx.dim:
                continue
            value = integral(ctx.sigma(lam) * ctx.sigma(mu))
            assert value == (1 if mu == complement_in_box(lam, ctx.box) else 0)


def test_schur_expand_examples():
    ctx = GrassCtx(1, 3)  # k = 2
    assert schur_image(elementary_x(1, 2), ctx) == ctx.sigma((1,))
    assert schur_image(monomial_sym_x((2,), 2), ctx) == ctx.sigma((2,)) - ctx.sigma((1, 1))
    # 8 e3 (e1 e2 - e3) expands to 8 times the (3,2,1) class when it fits
    def eight_e3_e1e2_minus_e3():
        e1, e2, e3 = (elementary_x(i, 3) for i in (1, 2, 3))
        inner = poly_add(poly_mul(e1, e2), poly_scale(e3, -1))
        return poly_scale(poly_mul(e3, inner), 8)

    for n in (5, 6):
        big = GrassCtx(2, n)
        assert schur_image(eight_e3_e1e2_minus_e3(), big) == 8 * big.sigma((3, 2, 1))
    small = GrassCtx(2, 4)
    assert schur_image(eight_e3_e1e2_minus_e3(), small) == small.zero()


def test_schur_expand_drops_degrees_above_the_dimension():
    ctx = GrassCtx(1, 3)
    assert schur_image(complete_x(5, 2), ctx) == ctx.zero()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_schur_expand_reads_off_jacobi_trudi_schur_polynomials(k):
    ctx = GrassCtx(k - 1, k + 2)  # a k x 3 box: some shapes below leave it
    for lam in iter_box_partitions(Box(k, 6)):
        if weight(lam) > 6:
            continue
        expected = ctx.sigma(lam) if fits_box(lam, ctx.box) else ctx.zero()
        assert schur_image(schur_x_jt(lam, k), ctx) == expected, lam


def test_schur_expand_is_ring_hom():
    ctx = GrassCtx(2, 6)
    k = ctx.k
    rng = random.Random(3)
    polys = [
        elementary_x(1, k),
        elementary_x(2, k),
        monomial_sym_x((2,), k),
        monomial_sym_x((2, 1), k),
        complete_x(2, k),
    ]
    for _ in range(10):
        p, q = rng.choice(polys), rng.choice(polys)
        assert schur_image(poly_mul(p, q), ctx) == schur_image(p, ctx) * schur_image(q, ctx)


def test_strings_and_serialization(g35):
    a = 8 * g35.sigma((2, 1)) - g35.sigma((1, 1, 1)) + g35.sigma((1,))
    assert schubert_string(a) == "s[1] - s[1,1,1] + 8*s[2,1]"
    assert schubert_string(g35.zero()) == "0"
    records = serialize_class(a)
    assert records == [
        {"partition": [1], "coeff": "1"},
        {"partition": [1, 1, 1], "coeff": "-1"},
        {"partition": [2, 1], "coeff": "8"},
    ]
