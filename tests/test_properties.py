"""Randomised invariants: the straightening, schur_expand, and the Chow ring axioms."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from schubfire.chow import ChowClass, GrassCtx, schur_expand
from schubfire.partitions import Box, iter_box_partitions
from schubfire.sympoly import (
    elementary_x,
    monomial_sym_x,
    poly_add,
    poly_mul,
    poly_scale,
    schur_coefficients,
    schur_to_elementary,
)

COEFFS = st.integers(-5, 5).filter(bool)


def _e_monomials(k, max_degree):
    # exponent tuples (a1..ak) with sum i * a_i <= max_degree
    out = [()]
    for i in range(1, k + 1):
        out = [e + (a,) for e in out for a in range(max_degree // i + 1)]
    return [e for e in out if sum((i + 1) * a for i, a in enumerate(e)) <= max_degree]


def _e_monomial_x(exps):
    k = len(exps)
    out = {(0,) * k: 1}
    for i, a in enumerate(exps):
        for _ in range(a):
            out = poly_mul(out, elementary_x(i + 1, k))
    return out


@st.composite
def e_combinations(draw):
    k = draw(st.integers(1, 4))
    return k, draw(st.dictionaries(st.sampled_from(_e_monomials(k, 8)), COEFFS, max_size=4))


@settings(max_examples=60, deadline=None)
@given(e_combinations())
def test_e_coordinates_survive_schur_straightening(case):
    k, combo = case
    f = {}
    for exps, c in combo.items():
        f = poly_add(f, poly_scale(_e_monomial_x(exps), c))
    assert schur_to_elementary(schur_coefficients(f, k), k) == combo


CONTEXTS = [GrassCtx(1, 3), GrassCtx(1, 4), GrassCtx(2, 4), GrassCtx(2, 5)]


@st.composite
def symmetric_pairs(draw):
    ctx = draw(st.sampled_from(CONTEXTS))
    shapes = [lam for lam in iter_box_partitions(Box(ctx.k, 4)) if sum(lam) <= 4]

    def poly():
        combo = draw(st.dictionaries(st.sampled_from(shapes), COEFFS, max_size=3))
        f = {}
        for lam, c in combo.items():
            f = poly_add(f, poly_scale(monomial_sym_x(lam, ctx.k), c))
        return f

    return ctx, poly(), poly()


@settings(max_examples=60, deadline=None)
@given(symmetric_pairs())
def test_schur_expand_is_multiplicative(case):
    ctx, p, q = case
    assert schur_expand(poly_mul(p, q), ctx) == schur_expand(p, ctx) * schur_expand(q, ctx)


# Boxes with at most 3 rows and 8 columns, and two-row boxes up to 12
# columns (lines in P13).
RING_CONTEXTS = [GrassCtx(1, 5), GrassCtx(1, 9), GrassCtx(1, 13), GrassCtx(2, 6), GrassCtx(2, 10)]


@st.composite
def chow_classes(draw):
    ctx = draw(st.sampled_from(RING_CONTEXTS))
    shapes = st.sampled_from(list(iter_box_partitions(ctx.box)))
    return ctx, [ChowClass(ctx, draw(st.dictionaries(shapes, COEFFS, max_size=3))) for _ in range(3)]


@settings(max_examples=40, deadline=None)
@given(chow_classes())
def test_chow_products_are_commutative_associative_and_distributive(case):
    ctx, (a, b, c) = case
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert ctx.one() * a == a == a * ctx.one()


@st.composite
def homogeneous_pairs(draw):
    ctx = draw(st.sampled_from(RING_CONTEXTS))
    shapes = list(iter_box_partitions(ctx.box))
    p, q = draw(st.integers(0, ctx.dim)), draw(st.integers(0, ctx.dim))

    def of_degree(deg):
        pool = st.sampled_from([lam for lam in shapes if sum(lam) == deg])
        return ChowClass(ctx, draw(st.dictionaries(pool, COEFFS, min_size=1, max_size=3)))

    return p + q, of_degree(p), of_degree(q)


@settings(max_examples=40, deadline=None)
@given(homogeneous_pairs())
def test_chow_products_are_graded(case):
    degree, a, b = case
    assert (a * b).degrees() <= {degree}
