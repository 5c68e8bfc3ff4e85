"""Randomised invariants: the straightening, schur_expand, the ring axioms of
Chow classes, Chern polynomials and projective-bundle classes, the
projection formula, the fused fiber integral of a product, the evaluation
of e-polynomials in a ring, c(E) s(E) = 1 and the Whitney formula, the
collapsed split formula against the paper's triple sum, and the `class`
command on random input."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from schubfire import bundles
from schubfire.bundles import ChernCtx, ChernPoly, _MonomialEvaluator
from schubfire.chow import ChowClass, GrassCtx, schur_expand
from schubfire.cli import main
from schubfire.errors import ContextMismatchError
from schubfire.limiting import sigma_direct, sigma_pb
from schubfire.partitions import Box, iter_box_partitions, schur_to_elementary
from schubfire.projbundle import PBClass, PBCtx, pushforward, pushforward_product
from schubfire.sympoly import schur_coefficients

from _oracles import (
    elementary_x,
    monomial_sym_x,
    poly_add,
    poly_mul,
    poly_scale,
    sigma_triple_sum,
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


# The free ring in c1..ck, truncated above its top degree.
CHERN_CONTEXTS = [ChernCtx(k, top) for k in (1, 2, 3) for top in (0, 3, 5, 8)]


def _chern_monomials(ctx):
    return [e for e in _e_monomials(ctx.k, ctx.top_degree) if len(e) == ctx.k]


@st.composite
def chern_polys(draw):
    ctx = draw(st.sampled_from(CHERN_CONTEXTS))
    exps = st.sampled_from(_chern_monomials(ctx))
    polys = [ChernPoly(ctx, draw(st.dictionaries(exps, COEFFS, max_size=4))) for _ in range(3)]
    return ctx, polys


@settings(max_examples=40, deadline=None)
@given(chern_polys())
def test_chern_products_are_commutative_associative_and_distributive(case):
    ctx, (a, b, c) = case
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert ctx.one() * a == a == a * ctx.one()


# Evaluation of e-polynomials, as the symmetric-power tables are evaluated:
# one evaluator with shared monomial prefixes against term-by-term powers.
EVAL_CONTEXTS = [GrassCtx(1, 4), GrassCtx(1, 7), GrassCtx(2, 5), GrassCtx(2, 8)] + CHERN_CONTEXTS


@st.composite
def e_polynomials_and_gens(draw):
    ring = draw(st.sampled_from(EVAL_CONTEXTS))
    k = draw(st.integers(1, 3))
    if isinstance(ring, ChernCtx):
        basis, cls = _chern_monomials(ring), ChernPoly
    else:
        basis, cls = list(iter_box_partitions(ring.box)), ChowClass
    keys = st.sampled_from(basis)
    gens = [cls(ring, draw(st.dictionaries(keys, COEFFS, max_size=2))) for _ in range(k)]
    monomials = st.sampled_from(_e_monomials(k, min(ring.top_degree, 8)))
    polys = draw(st.lists(st.dictionaries(monomials, COEFFS, max_size=4), max_size=3))
    return ring, gens, polys


@settings(max_examples=60, deadline=None)
@given(e_polynomials_and_gens())
def test_monomial_evaluator_matches_term_by_term_evaluation(case):
    ring, gens, polys = case
    evaluator = _MonomialEvaluator(gens, ring)
    for poly in polys:
        naive = ring.zero()
        for exps, c in poly.items():
            term = ring.one()
            for g, a in zip(gens, exps):
                for _ in range(a):
                    term = term * g
            naive = naive + c * term
        assert evaluator.poly(poly) == naive


# P(U*) over G(1,4), G(2,4) and P(Sym^2 U*) over G(3,5): ranks 1, 2 and 6.
PB_CONTEXTS = [
    PBCtx(GrassCtx(0, 3), bundles.ustar()),
    PBCtx(GrassCtx(1, 3), bundles.ustar()),
    PBCtx(GrassCtx(2, 4), bundles.sym(2, bundles.ustar())),
]


@st.composite
def pb_classes(draw):
    """Random zeta-polynomials, up to two powers past the rank, reduced."""
    ctx = draw(st.sampled_from(PB_CONTEXTS))
    shapes = st.sampled_from(list(iter_box_partitions(ctx.base.box)))

    def base_class():
        return ChowClass(ctx.base, draw(st.dictionaries(shapes, COEFFS, max_size=2)))

    length = st.integers(0, ctx.rank + 2)
    return ctx, [PBClass(ctx, [base_class() for _ in range(draw(length))]) for _ in range(3)]


@settings(max_examples=40, deadline=None)
@given(pb_classes(), st.sampled_from(list(iter_box_partitions(Box(3, 2)))))
def test_pb_products_are_a_ring_and_satisfy_the_projection_formula(case, lam):
    ctx, (x, y, z) = case
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert ctx.one() * x == x == x * ctx.one()
    alpha = ctx.base.sigma(lam) - ctx.base.one()
    assert alpha * x == ctx.pullback(alpha) * x == x * alpha
    assert pushforward(ctx.pullback(alpha) * x) == alpha * pushforward(x)


@settings(max_examples=40, deadline=None)
@given(
    pb_classes(),
    st.sampled_from(list(iter_box_partitions(Box(3, 2)))),
    st.integers(0, 13),
)
def test_fused_fiber_integral_is_the_pushforward_of_the_product(case, lam, p):
    ctx, (x, y, _) = case
    alpha = ctx.base.sigma(lam) - ctx.base.one()
    pulled = ctx.pullback(alpha)
    power = PBClass(ctx, [ctx.base.zero()] * p + [alpha])  # alpha zeta^p, p up to 2e+1
    for a, b in ((x, y), (x, pulled), (pulled, y), (x, power), (power, power)):
        assert pushforward_product(a, b) == pushforward(a * b)


@settings(max_examples=40, deadline=None)
@given(st.one_of(chow_classes(), chern_polys(), pb_classes()), st.integers(-3, 3))
def test_sums_and_integer_multiples(case, m):
    ctx, (a, b, c) = case
    zero = ctx.zero()
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a and a - a == zero and not (a - a)
    assert a - b == a + (-b) == a + (-1) * b
    assert m * a == a * m == sum((a if m > 0 else -a for _ in range(abs(m))), zero)
    assert m * (a + b) == m * a + m * b
    for x in (a + b, a - b, m * a):  # no zero coefficient is ever stored
        assert all(x.terms.values())


@st.composite
def foreign_pairs(draw):
    pool = draw(st.sampled_from([RING_CONTEXTS, CHERN_CONTEXTS, PB_CONTEXTS]))
    first, second = draw(st.permutations(pool))[:2]  # PBCtx is unhashable
    return first.one(), draw(st.sampled_from([second.zero(), second.one()]))


@settings(max_examples=20, deadline=None)
@given(foreign_pairs())
def test_combining_different_contexts_is_refused(pair):
    a, b = pair
    ops = [lambda: a + b, lambda: a - b, lambda: a * b]
    if isinstance(a, PBClass):
        ops.append(lambda: pushforward_product(a, b))
    for op in ops:
        with pytest.raises(ContextMismatchError):
            op()
    assert a != b


def test_chow_classes_and_chern_polynomials_do_not_mix():
    a, p = GrassCtx(1, 3).one(), ChernCtx(2, 4).one()
    for op in (lambda: a + p, lambda: p - a, lambda: a * p, lambda: p * a):
        with pytest.raises(TypeError):
            op()
    assert a != p


def _convolve(a, b, ring):
    """Product of two Chern series, term by term, up to the ring's top degree."""
    out = []
    for p in range(ring.top_degree + 1):
        acc = ring.zero()
        for i in range(p + 1):
            acc = acc + a[i] * b[p - i]
        out.append(acc)
    return out


@st.composite
def rings(draw):
    if draw(st.booleans()):
        r = draw(st.integers(0, 3))
        return GrassCtx(r, draw(st.integers(r + 1, 8)))
    return ChernCtx(draw(st.integers(1, 3)), draw(st.integers(0, 8)))


@settings(max_examples=40, deadline=None)
@given(rings(), st.integers(1, 3))
def test_chern_times_segre_of_sym_ustar_is_one(ring, m):
    # sigma_direct collapses its sum over j with this identity
    e = bundles.sym(m, bundles.ustar())
    one = [ring.one()] + [ring.zero()] * ring.top_degree
    assert _convolve(bundles.total_chern(e, ring), bundles.segre(e, ring), ring) == one


WHITNEY_RINGS = [GrassCtx(1, 4), GrassCtx(2, 5), ChernCtx(2, 5), ChernCtx(3, 6)]


def _small_bundles():
    return st.recursive(
        st.just(bundles.ustar()),
        lambda inner: st.one_of(
            st.builds(bundles.sym, st.integers(1, 2), inner),
            st.builds(bundles.dual, inner),
            st.lists(inner, min_size=1, max_size=2).map(lambda xs: bundles.direct_sum(*xs)),
        ),
        max_leaves=2,
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WHITNEY_RINGS), _small_bundles(), _small_bundles())
def test_whitney_formula_on_random_bundles(ring, e, f):
    assume(bundles.bundle_rank(e, ring.universal_rank) <= 12)
    assume(bundles.bundle_rank(f, ring.universal_rank) <= 12)
    c = bundles.total_chern
    assert c(bundles.direct_sum(e, f), ring) == _convolve(c(e, ring), c(f, ring), ring)
    assert c(bundles.dual(bundles.direct_sum(e, f)), ring) == _convolve(
        c(bundles.dual(e), ring), c(bundles.dual(f), ring), ring
    )


@st.composite
def split_points(draw):
    r = draw(st.integers(0, 3))
    d = draw(st.integers(2, 5))
    return r, draw(st.integers(r + 1, 10)), d, draw(st.integers(1, d - 1))


@settings(max_examples=25, deadline=None)
@given(split_points())
def test_sigma_direct_equals_the_uncollapsed_triple_sum_at_random(point):
    assert sigma_direct(*point) == sigma_triple_sum(*point)


@settings(max_examples=25, deadline=None)
@given(split_points())
def test_routes_agree_at_random(point):
    assert sigma_pb(*point) == sigma_direct(*point)


# CLI fuzzing: whatever the expression, `class` answers or fails with a
# documented exit code.  The rank cap and the small degrees keep every
# table small.
ALPHABET = "ctopchernsegresymdualsumUstar(),(),(),01234 _x"
FUZZ_ARGS = st.tuples(st.sampled_from(["1", "2"]), st.sampled_from(["4", "5"]))


def _bundle_strategy():
    leaf = st.just("Ustar")
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds("sym({},{})".format, st.integers(0, 3), inner),
            st.builds("dual({})".format, inner),
            st.lists(inner, min_size=1, max_size=2).map(lambda xs: f"sum({','.join(xs)})"),
        ),
        max_leaves=3,
    )


WELL_FORMED = st.one_of(
    st.builds("ctop({})".format, _bundle_strategy()),
    st.builds(
        "{}({},{})".format,
        st.sampled_from(["chern", "segre"]),
        st.integers(0, 4),
        _bundle_strategy(),
    ),
)


def _run_class(monkeypatch, expr, r, n, basis):
    monkeypatch.setenv("SCHUBFIRE_RANK_CAP", "10")
    return main(["class", "--expr", expr, "--r", r, "--n", n, "--basis", basis])


FUZZ_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(max_examples=150, **FUZZ_SETTINGS)
@given(st.text(ALPHABET, max_size=40), FUZZ_ARGS)
def test_cli_random_strings_exit_cleanly(monkeypatch, capsys, expr, args):
    assert _run_class(monkeypatch, expr, *args, "schubert") in (0, 2, 3)
    capsys.readouterr()


@settings(max_examples=60, **FUZZ_SETTINGS)
@given(WELL_FORMED, FUZZ_ARGS, st.sampled_from(["schubert", "chern"]))
def test_cli_well_formed_expressions_exit_cleanly(monkeypatch, capsys, expr, args, basis):
    code = _run_class(monkeypatch, expr, *args, basis)
    # sym(0, E) is refused as a usage error; everything else answers or
    # hits the rank cap
    assert code == 2 if "sym(0," in expr else code in (0, 3)
    capsys.readouterr()
