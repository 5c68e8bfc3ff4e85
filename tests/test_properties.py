"""Randomised invariants: the straightening, the read-off of symmetric
polynomials into the ring through their Schur coefficients, the ring
axioms of Chow classes and Chern polynomials, sums and integer multiples
of projective-bundle classes, the projection formula and the fiber
integrals it reads, the power of every bundle against its table
evaluated in e-monomials, the read-off of Sym^d U* against Chow
products, c(E) s(E) = 1, the Whitney formula and the length of a Chern
series, Segre series against the inversion of the Chern series,
c_top(F) c_R(E - F) off one root product against Chow products, the
collapsed split formula against the paper's triple sum, and the `class`
command on random input."""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from schubfire import bundles
from schubfire.bundles import ChernCtx, ChernPoly
from schubfire.chow import ChowClass, GrassCtx
from schubfire.cli import main
from schubfire.errors import ContextMismatchError, RankCapExceededError
from schubfire.limiting import _fiber_integrals, sigma_direct, sigma_pb
from schubfire.partitions import Box, iter_box_partitions, schur_to_elementary
from schubfire.projbundle import PBClass, PBCtx, _reduce, pushforward
from schubfire.sympoly import schur_coefficients

from _oracles import (
    ctop_quotient_by_products,
    e_poly_in_chow,
    elementary_x,
    monomial_sym_x,
    padded,
    pb_product,
    pb_reduce_by_segre,
    poly_add,
    poly_mul,
    poly_scale,
    schur_coefficients_by_shifts,
    schur_image,
    schur_x_jt,
    segre_by_inversion,
    sigma_triple_sum,
    sym_chern_by_e_monomials,
    sym_ustar_chern_by_products,
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
    assert schur_image(poly_mul(p, q), ctx) == schur_image(p, ctx) * schur_image(q, ctx)


# Boxes with at most 3 rows and 8 columns, and two-row boxes up to 12
# columns (lines in P13).
RING_CONTEXTS = [GrassCtx(1, 5), GrassCtx(1, 9), GrassCtx(1, 13), GrassCtx(2, 6), GrassCtx(2, 10)]


@st.composite
def chow_classes(draw):
    ctx = draw(st.sampled_from(RING_CONTEXTS))
    shapes = st.sampled_from(list(iter_box_partitions(ctx.box)))
    return ctx, [ChowClass(ctx, draw(st.dictionaries(shapes, COEFFS, max_size=3))) for _ in range(3)]


_SCHUR_X = lru_cache(maxsize=None)(schur_x_jt)
_SMALL_SHAPES = [lam for lam in iter_box_partitions(Box(5, 6)) if sum(lam) <= 6]


@st.composite
def schur_combinations(draw):
    k = draw(st.integers(1, 5))
    shapes = st.sampled_from([lam for lam in _SMALL_SHAPES if len(lam) <= k])
    return k, draw(st.lists(st.tuples(shapes, st.integers(-5, 5)), max_size=4))


@settings(max_examples=80, deadline=None)
@given(schur_combinations())
@example((1, [((3,), 2), ((), -1)]))  # k = 1: the slot offset is 0
@example((2, []))  # the empty polynomial
@example((3, [((), 5)]))  # a constant
@example((3, [((1, 1, 1), 1)]))  # shifts of (1, 1, 1) read a negative slot
@example((3, [((2, 1), 4), ((2, 1), -4)]))  # a combination that cancels
@example((5, [((6,), -1), ((1, 1, 1, 1, 1), 3)]))  # the top exponent at the base limit
def test_schur_coefficients_read_a_combination_of_schur_polynomials(case):
    # Mixed degrees and negative coefficients, each s_lam expanded by
    # Jacobi-Trudi; the packed read-off and the bialternant on exponent
    # tuples both return exactly the combination.
    k, terms = case
    f, expected = {}, {}
    for lam, c in terms:
        f = poly_add(f, poly_scale(_SCHUR_X(lam, k), c))
        expected[lam] = expected.get(lam, 0) + c
    expected = {lam: c for lam, c in expected.items() if c}
    assert schur_coefficients(f, k) == expected
    assert schur_coefficients_by_shifts(f, k) == expected


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
@given(pb_classes(), st.sampled_from(list(iter_box_partitions(Box(3, 2)))), COEFFS)
def test_pushforward_is_linear_over_the_base(case, lam, m):
    ctx, (x, y, _) = case
    alpha = ctx.base.sigma(lam) - ctx.base.one()
    assert pushforward(pb_product(PBClass(ctx, [alpha]), x)) == alpha * pushforward(x)
    assert pushforward(x + y) == pushforward(x) + pushforward(y)
    assert pushforward(m * x) == m * pushforward(x)


def _zeta_powers_times(ctx, b):
    """zeta^p * b for p < e, each by a full product on the bundle."""
    zeta = PBClass(ctx, [ctx.base.zero(), ctx.base.one()])
    out = [b]
    for _ in range(1, ctx.rank):
        out.append(pb_product(out[-1], zeta))
    return out


@settings(max_examples=40, deadline=None)
@given(pb_classes(), st.sampled_from(list(iter_box_partitions(Box(3, 2)))))
def test_pushforward_of_a_product_by_the_projection_formula(case, lam):
    ctx, (a, y, _) = case
    alpha = ctx.base.sigma(lam) - ctx.base.one()
    b = PBClass(ctx, ctx.chern_e[ctx.rank - 1 :: -1])  # c_(e-1)(E - O(-1))
    powers = [PBClass(ctx, [ctx.base.zero()] * p + [alpha]) for p in range(2 * ctx.rank + 2)]

    def paired(f, w):  # sum over p of f_p w_p, f_p the reduced coefficients of f
        return sum((c * w[p] for p, c in f.terms.items()), ctx.base.zero())

    for x in (y, PBClass(ctx, [alpha]), powers[-1]):
        w = [pushforward(t) for t in _zeta_powers_times(ctx, x)]
        for f in (a, *powers):
            assert pushforward(pb_product(f, x)) == paired(f, w)
    assert pushforward(pb_product(a, b)) == paired(a, _fiber_integrals(ctx))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2), st.integers(1, 5), st.integers(1, 3))
def test_fiber_integrals_by_the_zeta_relation(r, extra, l):
    ctx = PBCtx(GrassCtx(r, r + extra), bundles.sym(l, bundles.ustar()))
    b = PBClass(ctx, ctx.chern_e[ctx.rank - 1 :: -1])
    w = _fiber_integrals(ctx)
    assert w == tuple(pushforward(x) for x in _zeta_powers_times(ctx, b))
    assert w == (ctx.base.one(),) + (ctx.base.zero(),) * (ctx.rank - 1)


@st.composite
def pb_reductions(draw):
    """A context, raw zeta-coefficients up to 2e + 2 long and a read set."""
    ctx = draw(st.sampled_from(PB_CONTEXTS))
    shapes = st.sampled_from(list(iter_box_partitions(ctx.base.box)))
    length = draw(st.integers(0, 2 * ctx.rank + 2))
    coeffs = [ChowClass(ctx.base, draw(st.dictionaries(shapes, COEFFS, max_size=2))) for _ in range(length)]
    return ctx, coeffs, draw(st.frozensets(st.integers(0, ctx.rank - 1)))


_SWEEP_PB = PBCtx(GrassCtx(3, 8), bundles.sym(2, bundles.ustar()))  # the bundle of (3,8,3,1)


@settings(max_examples=40, deadline=None)
@given(pb_reductions())
@example((_SWEEP_PB, [_SWEEP_PB.base.sigma((1,) * (p % 3)) for p in range(22)], frozenset({0, 4})))
def test_reduce_makes_only_the_carries_its_read_powers_need(case):
    # The relation only lowers powers, so skipping the carries into unread
    # powers below e leaves every read power as the full reduction has it.
    # The full reduction goes through _reduce too, so it is checked first
    # against one that reads the coefficients off Segre classes.
    ctx, coeffs, reads = case
    full = PBClass(ctx, coeffs).terms
    assert full == pb_reduce_by_segre(ctx, coeffs)
    got = _reduce(ctx, dict(enumerate(coeffs)), reads)
    assert all(got.get(p, ctx.base.zero()) == full.get(p, ctx.base.zero()) for p in reads)
    assert set(got) <= reads
    assert all(got.values())


@settings(max_examples=40, deadline=None)
@given(st.one_of(chow_classes(), chern_polys(), pb_classes()), st.integers(-3, 3))
def test_sums_and_integer_multiples(case, m):
    ctx, (a, b, c) = case
    zero = _zero_and_one(ctx)[0]
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + zero == a and a - a == zero and not (a - a)
    assert a - b == a + (-b) == a + (-1) * b
    assert m * a == a * m == sum((a if m > 0 else -a for _ in range(abs(m))), zero)
    assert m * (a + b) == m * a + m * b
    for x in (a + b, a - b, m * a):  # no zero coefficient is ever stored
        assert all(x.terms.values())


def _zero_and_one(ctx):
    if isinstance(ctx, PBCtx):  # constant zeta-polynomials
        return PBClass(ctx, []), PBClass(ctx, [ctx.base.one()])
    return ctx.zero(), ctx.one()


@st.composite
def foreign_pairs(draw):
    pool = draw(st.sampled_from([RING_CONTEXTS, CHERN_CONTEXTS, PB_CONTEXTS]))
    first, second = draw(st.permutations(pool))[:2]  # two distinct contexts
    return _zero_and_one(first)[1], draw(st.sampled_from(_zero_and_one(second)))


@settings(max_examples=20, deadline=None)
@given(foreign_pairs())
def test_combining_different_contexts_is_refused(pair):
    a, b = pair
    ops = [lambda: a + b, lambda: a - b]
    if not isinstance(a, PBClass):  # projective-bundle classes have no product
        ops.append(lambda: a * b)
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
    """Product of two Chern series, term by term, up to the ring's top degree;
    the classes missing above either rank read as zero."""
    a, b = padded(a, ring), padded(b, ring)
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
    # sigma_direct collapses its sum over j with this identity.  For m >= 2
    # on a Grassmannian with k <= 3 the two series come from two tables
    # built independently, the product of (1 + root t) and that of
    # 1/(1 + root t) over the same roots.
    e = bundles.sym(m, bundles.ustar())
    one = [ring.one()] + [ring.zero()] * ring.top_degree
    chern = bundles.total_chern(e, ring)
    assert len(chern) == min(bundles.bundle_rank(e, ring.k), ring.top_degree) + 1
    assert _convolve(chern, bundles.segre(e, ring), ring) == one


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(1, 4), st.integers(1, 4))
def test_sym_ustar_read_off_matches_chow_products(r, extra, d):
    # The Schur entries of the table are read into the box as Schubert
    # classes; the oracle multiplies out their e-form instead, and the free
    # presentation in c1..ck maps onto the same classes by c_i -> sigma_(1^i).
    g = GrassCtx(r, r + extra)
    e = bundles.sym(d, bundles.ustar())
    read_off = bundles.total_chern(e, g)
    assert read_off == sym_ustar_chern_by_products(r, r + extra, d)
    free = bundles.total_chern(e, ChernCtx(g.k, g.dim))
    assert [e_poly_in_chow(p.terms, g) for p in free] == read_off


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


# A series padded to the top degree has 99 entries on the first of these
# rings and 51 on the second, where the rank of sym(3, U*) is 4.
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WHITNEY_RINGS), _small_bundles(), _small_bundles())
@example(GrassCtx(1, 50), bundles.sym(3, bundles.ustar()), bundles.ustar())
@example(ChernCtx(2, 50), bundles.sym(3, bundles.ustar()), bundles.dual(bundles.ustar()))
def test_whitney_formula_on_random_bundles(ring, e, f):
    assume(bundles.bundle_rank(e, ring.k) <= 12)
    assume(bundles.bundle_rank(f, ring.k) <= 12)
    c = bundles.total_chern
    s, ds = bundles.direct_sum(e, f), bundles.dual(bundles.direct_sum(e, f))
    for x in (e, f, s, ds):
        assert len(c(x, ring)) == min(bundles.bundle_rank(x, ring.k), ring.top_degree) + 1, x
    assert padded(c(s, ring), ring) == _convolve(c(e, ring), c(f, ring), ring)
    assert padded(c(ds, ring), ring) == _convolve(
        c(bundles.dual(e), ring), c(bundles.dual(f), ring), ring
    )


def _rank_at_most(e, k, bound):
    try:
        return bundles.bundle_rank(e, k) <= bound
    except RankCapExceededError:
        return False


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(WHITNEY_RINGS), st.integers(1, 3), _small_bundles())
@example(ChernCtx(3, 6), 2, bundles.sym(2, bundles.ustar()))
@example(GrassCtx(2, 5), 2, bundles.dual(bundles.sym(2, bundles.ustar())))
def test_power_of_any_bundle_matches_its_table_in_e_monomials(ring, m, e):
    # The package reads sym(m, E) off a table in the roots of U*, the roots
    # of E being linear forms in them; the oracle multiplies the universal
    # table of E's rank out in the Chern classes of E instead.
    assume(e != bundles.ustar())
    assume(_rank_at_most(bundles.sym(m, e), ring.k, 64))
    assume(bundles.bundle_rank(e, ring.k) <= 10)
    power = bundles.sym(m, e)
    assert bundles.total_chern(power, ring) == sym_chern_by_e_monomials(power, ring), power


# The rings of WHITNEY_RINGS have top degrees 5 to 9; a larger cap is clipped.
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WHITNEY_RINGS), _small_bundles(), st.integers(0, 9))
@example(GrassCtx(1, 50), bundles.sym(3, bundles.ustar()), 50)
@example(GrassCtx(2, 9), bundles.dual(bundles.sym(3, bundles.ustar())), 21)
@example(ChernCtx(2, 50), bundles.dual(bundles.sym(1, bundles.sym(2, bundles.ustar()))), 50)
def test_segre_equals_the_inverse_of_the_chern_series(ring, e, cap):
    # segre flips a dual's odd degrees and reads the first prefix of a
    # power of U* on a small Grassmannian off the inverse table, extending
    # it by inversion; the oracle inverts the Chern series in the ring.
    assume(bundles.bundle_rank(e, ring.k) <= 12)
    cap = min(cap, ring.top_degree)
    chern = padded(bundles.total_chern(e, ring), ring)
    assert bundles.segre(e, ring, max_degree=cap) == segre_by_inversion(chern, ring, cap), e


# Grassmannians with k <= 3, where ``limiting.sigma_direct`` reads its first
# term off the root product; the boxes one and two columns wide among them.
# Then free rings in c1..ck, on which `class --expr "ctop(...)" --basis
# chern` reads a power's top class, straightened into c1..ck.
QUOTIENT_RINGS = [
    GrassCtx(0, 3),
    GrassCtx(1, 2),
    GrassCtx(1, 3),
    GrassCtx(1, 9),
    GrassCtx(2, 3),
    GrassCtx(2, 4),
    GrassCtx(2, 6),
    GrassCtx(2, 9),
] + [ChernCtx(k, top) for k in (1, 2, 3) for top in (3, 6, 10)]
_POWERS_OF_USTAR = st.builds(bundles.sym, st.integers(1, 5), st.just(bundles.ustar()))


@settings(max_examples=120, deadline=None)  # about 60 on each kind of ring
@given(
    st.sampled_from(QUOTIENT_RINGS),
    st.one_of(_POWERS_OF_USTAR, _small_bundles()),
    st.one_of(st.none(), _POWERS_OF_USTAR, _small_bundles()),
)
@example(GrassCtx(1, 25), bundles.sym(47, bundles.ustar()), bundles.sym(23, bundles.ustar()))
@example(GrassCtx(2, 12), bundles.sym(6, bundles.ustar()), bundles.sym(3, bundles.ustar()))
@example(GrassCtx(2, 4), bundles.sym(2, bundles.ustar()), bundles.sym(1, bundles.ustar()))
@example(GrassCtx(2, 9), bundles.sym(2, bundles.dual(bundles.sym(2, bundles.ustar()))), None)
@example(GrassCtx(1, 9), bundles.sym(3, bundles.dual(bundles.ustar())), bundles.ustar())
@example(ChernCtx(3, 6), bundles.sym(2, bundles.ustar()), None)
@example(ChernCtx(2, 10), bundles.sym(4, bundles.ustar()), bundles.dual(bundles.ustar()))
def test_ctop_quotient_equals_chow_products(ring, e, f):
    # The package multiplies E's roots out to degree R, divides by F's and
    # multiplies that one degree by F's roots; the oracle takes c(E), c(F)
    # and the inverse of c(F) in the ring and multiplies them out there.
    assume(_rank_at_most(e, ring.k, 48))
    assume(f is None or _rank_at_most(f, ring.k, 24))
    assert bundles.ctop_quotient(e, f, ring) == ctop_quotient_by_products(e, f, ring), (e, f)


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
