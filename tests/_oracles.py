"""Independent reference implementations used only by the tests.

Nothing here shares code paths with the package: products of basis classes
are counted by direct enumeration of lattice-word skew tableaux, and Schur
polynomials are expanded through the determinant of complete homogeneous
polynomials.  Agreement between these and the package's Pieri-based kernel
is the main correctness evidence for the combinatorial core.  The small
x-polynomial builders (elementary, complete and monomial symmetric
polynomials, products and integer multiples) also make the tests' inputs.

``schur_coefficients_by_shifts`` is the bialternant on exponent tuples,
one shifted tuple per permutation, against which the package's read-off
of packed keys is checked.

Eight functions build on the package.  ``schur_image`` reads a
symmetric x-polynomial into the ring the one way the package reads its
tables, ``sympoly.schur_coefficients`` then ``schur_class``, so the
x-polynomial builders check that path against Jacobi-Trudi and against
products in the ring.  ``sigma_triple_sum`` evaluates the paper's split
formula term by term on the package's own series, so agreement with ``limiting.sigma_direct`` and ``limiting.sigma_pb``
checks how those functions rearrange the sum, not the series themselves.
``sym_ustar_chern_by_products`` evaluates the package's symmetric-power
table in the elementary generators by Chow products, so agreement with
``bundles.total_chern`` checks the read-off of the table into the ring,
not the table itself.  ``sym_chern_by_e_monomials`` evaluates the table
of Sym^d of a bundle of E's rank in the Chern classes of E, so agreement
with ``bundles.total_chern`` of sym(d, E) checks the package's Chern
roots of E as linear forms in the roots of U*.  ``segre_by_inversion``
inverts a Chern series in the ring by the recurrence of c(E) s(E) = 1,
one product per pair of degrees; fed the package's Chern series, it
checks ``bundles.segre``, which flips the signs of a dual's odd degrees
and reads powers of U* on small Grassmannians off a table of their own,
against an inversion that does neither.  ``ctop_quotient_by_products``
forms c_top(F) c_R(E - F) from those series by products in the ring, so
agreement with ``bundles.ctop_quotient`` checks its root product, whose
division by F's roots stands in for the Segre series.  ``pb_product``
multiplies two projective-bundle classes, a product the package does not
have: it multiplies the zeta-polynomials out over the base and leaves the
reduction by the zeta relation to the ``PBClass`` constructor.
``pb_reduce_by_segre`` reduces a zeta-polynomial without the relation: it
reads the coefficients off the pushforwards of zeta^m times it, which are
sums of Segre classes of E, so agreement with ``PBClass`` checks the
package's carries.
"""

from itertools import combinations, combinations_with_replacement, permutations
from math import comb

from schubfire import bundles, sympoly
from schubfire.chow import GrassCtx
from schubfire.errors import ContextMismatchError
from schubfire.partitions import schur_to_elementary
from schubfire.projbundle import PBClass


def lr_coefficient(lam, mu, nu):
    """Multiplicity of nu in the product of lam and mu, counted by
    enumerating semistandard fillings of nu/lam with content mu whose
    reverse reading word is a lattice word."""
    lam = tuple(lam)
    mu = tuple(mu)
    nu = tuple(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    rows = len(nu)
    lam_pad = lam + (0,) * (rows - len(lam))
    if any(lam_pad[i] > nu[i] for i in range(rows)):
        return 0
    if not mu:
        return 1 if nu == lam else 0

    # cells in reverse reading order: each row right-to-left, top to bottom
    cells = []
    for i in range(rows):
        for j in range(nu[i] - 1, lam_pad[i] - 1, -1):
            cells.append((i, j))
    values = {}
    counts = [0] * (len(mu) + 1)
    total = [0]

    def above_entry(i, j):
        if i == 0:
            return None
        return values.get((i - 1, j))

    def right_entry(i, j):
        return values.get((i, j + 1))

    def dfs(pos):
        if pos == len(cells):
            total[0] += 1
            return
        i, j = cells[pos]
        lo, hi = 1, len(mu)
        right = right_entry(i, j)
        if right is not None:
            hi = min(hi, right)
        above = above_entry(i, j)
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, hi + 1):
            if counts[v] + 1 > mu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue  # not a lattice word
            counts[v] += 1
            values[(i, j)] = v
            dfs(pos + 1)
            del values[(i, j)]
            counts[v] -= 1

    dfs(0)
    return total[0]


def lr_product(lam, mu, rows, cols):
    """Full product expansion {nu: coefficient} inside a rows x cols box."""
    lam = tuple(lam)
    mu = tuple(mu)
    target = sum(lam) + sum(mu)
    out = {}
    for nu in _box_shapes(rows, cols):
        if sum(nu) != target:
            continue
        c = lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out


def _box_shapes(rows, cols):
    shapes = [()]
    for shape in shapes:
        yield shape
        if len(shape) < rows:
            top = shape[-1] if shape else cols
            for p in range(1, top + 1):
                shapes.append(shape + (p,))


def elementary_x(i, k):
    """e_i(x1..xk) as an exponent-tuple dict; zero for i > k."""
    if i < 0 or i > k:
        return {}
    out = {}
    for chosen in combinations(range(k), i):
        exps = [0] * k
        for v in chosen:
            exps[v] = 1
        out[tuple(exps)] = 1
    return out


def complete_x(i, k):
    """h_i(x1..xk) as an exponent-tuple dict."""
    if i < 0:
        return {}
    out = {}
    for chosen in combinations_with_replacement(range(k), i):
        exps = [0] * k
        for v in chosen:
            exps[v] += 1
        key = tuple(exps)
        out[key] = out.get(key, 0) + 1
    return out


def monomial_sym_x(lam, k):
    """m_lam(x1..xk): the orbit sum of x^lam."""
    if len(lam) > k:
        return {}
    padded = tuple(lam) + (0,) * (k - len(lam))
    return {w: 1 for w in set(permutations(padded))}


def poly_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def poly_add(p, q):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def poly_scale(p, c):
    return {key: c * v for key, v in p.items()} if c else {}


def schur_x_jt(lam, k):
    """Schur polynomial in k variables via the determinant of h's."""
    lam = tuple(lam)
    if not lam:
        return {(0,) * k: 1}
    if len(lam) > k:
        return {}
    ell = len(lam)
    acc = {}
    for perm in permutations(range(ell)):
        inversions = sum(
            1 for a in range(ell) for b in range(a + 1, ell) if perm[a] > perm[b]
        )
        sign = -1 if inversions % 2 else 1
        prod = {(0,) * k: sign}
        for i in range(ell):
            prod = poly_mul(prod, complete_x(lam[i] - i - 1 + perm[i] + 1, k))
            if not prod:
                break
        for key, c in prod.items():
            acc[key] = acc.get(key, 0) + c
    return {key: c for key, c in acc.items() if c}


def schur_coefficients_by_shifts(f, k):
    """Schur expansion {partition: c} of a symmetric x-polynomial in k
    variables by the bialternant on exponent tuples: c_lam is the signed
    sum of f at lam + delta - sigma(delta) over the permutations sigma of
    the rows of lam, each shifted tuple built and looked up as it is.  The
    package reads the same formula off packed integer keys."""
    tops = {}
    for key in f:
        tops[sum(key)] = max(tops.get(sum(key), 0), max(key))
    out = {}
    for lam in _box_shapes(k, max(tops.values(), default=0)):
        if sum(lam) not in tops or (lam and lam[0] > tops[sum(lam)]):
            continue
        rows = len(lam)
        c = 0
        for perm in permutations(range(rows)):
            inversions = sum(perm[a] > perm[b] for a in range(rows) for b in range(a + 1, rows))
            shifted = tuple(p + perm[i] - i for i, p in enumerate(lam)) + (0,) * (k - rows)
            c += (-1 if inversions % 2 else 1) * f.get(shifted, 0)
        if c:
            out[lam] = c
    return out


def unpack(packed, base, k):
    """Exponent tuples of x-monomials packed as ``sympoly`` packs them:
    slot i of a key, worth base**i, holds the exponent of x_i plus k - 1."""
    return {
        tuple(key // base**i % base - (k - 1) for i in range(k)): c for key, c in packed.items()
    }


def schur_image(p, ctx):
    """Image in the ring of a symmetric x-polynomial in ctx.k variables,
    read as the package reads its tables: Schur coefficients by the
    bialternant, then s_lam to its class.  Pieces of degree above the
    ring's dimension and shapes leaving the box vanish."""
    return ctx.schur_class(sympoly.schur_coefficients(p, ctx.k))


def sigma_triple_sum(r, n, d, k):
    """sigma_k by the uncollapsed triple sum of ``limiting.sigma_direct``'s
    docstring, with the sum over j hoisted into W[p] but not simplified."""
    ctx = GrassCtx(r, n)
    l = d - k
    r_d, r_k, r_l = comb(r + d, d), comb(r + k, k), comb(r + l, l)
    if r_d > ctx.dim or r_k > ctx.dim:
        return ctx.zero()
    R = r_d - r_k

    def sym_ustar(m):
        return bundles.sym(m, bundles.ustar())

    prefactor = bundles.total_chern(sym_ustar(k), ctx)[r_k]
    if not prefactor:
        return ctx.zero()
    cd = bundles.total_chern(sym_ustar(d), ctx)
    cl = bundles.total_chern(sym_ustar(l), ctx)
    sk = bundles.segre(sym_ustar(k), ctx, max_degree=R)
    sl = bundles.segre(sym_ustar(l), ctx, max_degree=R)

    # Inner convolution over j, hoisted: W[p] = sum_j c_j(Sym^l) s_(p-j)(Sym^l)
    W = []
    for p in range(R + 1):
        acc = ctx.zero()
        for j in range(0, min(r_l - 1, p) + 1):
            if cl[j] and sl[p - j]:
                acc = acc + cl[j] * sl[p - j]
        W.append(acc)

    total = ctx.zero()
    for i in range(R + 1):
        if not cd[i]:
            continue
        inner = ctx.zero()
        for h in range(R - i + 1):
            coeff = comb(r_d - 1 - i, r_k - 1 + h)
            if coeff and sk[h] and W[R - i - h]:
                inner = inner + coeff * (sk[h] * W[R - i - h])
        if inner:
            total = total + cd[i] * inner
    return prefactor * total


def e_poly_in(exps_poly, gens, ring):
    """A polynomial {(a1..ak): c} in the given ring elements, gens[i]
    standing for the (i+1)-st generator, multiplied out term by term."""
    acc = ring.zero()
    for exps, c in exps_poly.items():
        term = ring.one()
        for g, a in zip(gens, exps):
            for _ in range(a):
                term = term * g
        acc = acc + c * term
    return acc


def e_poly_in_chow(exps_poly, ctx):
    """A polynomial {(a1..ak): c} in the Chern classes c_i of U*, evaluated
    on the Grassmannian as Chow products of c_i = sigma_(1^i)."""
    return e_poly_in(exps_poly, [ctx.sigma((1,) * i) for i in range(1, ctx.k + 1)], ctx)


def sym_chern_by_e_monomials(expr, ring):
    """c_0..c_min(rank, top) of expr = sym(d, E) on the ring, from the
    universal table of Sym^d of a bundle of E's rank: each Schur entry is
    straightened into the elementary classes by the Pieri inversion and
    multiplied out in the Chern classes of E, without any Chern root of E."""
    child = expr.children[0]
    k_child = bundles.bundle_rank(child, ring.k)
    inner = bundles.total_chern(child, ring)
    gens = [inner[i] if i < len(inner) else ring.zero() for i in range(1, k_child + 1)]
    table = bundles.sym_chern(expr.power, k_child, ring.top_degree)
    return [e_poly_in(schur_to_elementary(entry, k_child), gens, ring) for entry in table]


def sym_ustar_chern_by_products(r, n, d):
    """c_0..c_min(rank, dim) of Sym^d U* on G(r, n): each Schur entry of
    the table is straightened into c1..ck by the Pieri inversion and
    multiplied out through the product kernel, without reading any Schur
    shape as a Schubert class."""
    ctx = GrassCtx(r, n)
    table = bundles.sym_chern(d, ctx.k, ctx.dim)
    return [e_poly_in_chow(schur_to_elementary(entry, ctx.k), ctx) for entry in table]


def padded(series, ring):
    """A Chern series written out to the ring's top degree, the classes
    above the rank (which the package leaves out) as zeros."""
    return list(series) + [ring.zero()] * (ring.top_degree + 1 - len(series))


def segre_by_inversion(chern, ring, cap):
    """s_0..s_cap, the inverse of a Chern series written out to at least
    degree cap, by s_p = -(c_1 s_(p-1) + ... + c_p s_0)."""
    s = [ring.one()]
    for p in range(1, cap + 1):
        acc = ring.zero()
        for i in range(1, p + 1):
            acc = acc + chern[i] * s[p - i]
        s.append(-acc)
    return s


def ctop_quotient_by_products(e, f, ring):
    """c_top(F) * sum over i of c_i(E) s_(R-i)(F), R = rank E - rank F, by
    products in the ring of the package's Chern series of E and F and of
    F's Segre series inverted here; c_top(E) when f is None.  This is
    ``bundles.ctop_quotient``, which reads the class off one root product."""
    rank_e = bundles.bundle_rank(e, ring.k)
    size = max(ring.top_degree, rank_e) + 1

    def chern(x):
        series = bundles.total_chern(x, ring)
        return series + [ring.zero()] * (size - len(series))

    ce = chern(e)
    if f is None:
        return ce[rank_e]
    rank_f = bundles.bundle_rank(f, ring.k)
    if rank_f > rank_e:
        return ring.zero()
    cf = chern(f)
    R = rank_e - rank_f
    sf = segre_by_inversion(cf, ring, R)
    total = ring.zero()
    for i in range(R + 1):
        total = total + ce[i] * sf[R - i]
    return cf[rank_f] * total


def pb_product(x, y):
    """Product of two classes on the same projective bundle."""
    if x.ctx != y.ctx:
        raise ContextMismatchError(f"{x.ctx} vs {y.ctx}")
    zero = x.ctx.base.zero()
    coeffs = [zero] * (max(x.terms, default=0) + max(y.terms, default=0) + 1)
    for i, a in x.terms.items():
        for j, b in y.terms.items():
            coeffs[i + j] = coeffs[i + j] + a * b
    return PBClass(x.ctx, coeffs)


def pb_reduce_by_segre(ctx, coeffs):
    """{j: nonzero a_j}, sum_j a_j zeta^j the zeta-reduced form of
    sum_p coeffs[p] zeta^p, never using the zeta relation.

    pushforward(zeta^(e-1+i)) = s_i(E), so the pushforward of zeta^m times
    the polynomial is sum_p coeffs[p] s_(p+m-e+1)(E); of the reduced form
    it is a_(e-1-m) plus the a_j, j > e-1-m, times Segre classes.  Solved
    for m = 0..e-1, that gives the a_j from the top down.
    """
    base, e, top = ctx.base, ctx.rank, ctx.base.top_degree
    s = segre_by_inversion(padded(ctx.chern_e, base), base, top)

    def seg(i):
        return s[i] if 0 <= i <= top else base.zero()

    a = {}
    for m in range(e):
        pushed = sum((c * seg(p + m - e + 1) for p, c in enumerate(coeffs)), base.zero())
        a[e - 1 - m] = pushed - sum((a[j] * seg(j + m - e + 1) for j in range(e - m, e)), base.zero())
    return {j: c for j, c in a.items() if c}
