"""Independent reference implementations used only by the tests.

Nothing here shares code paths with the package: products of basis classes
are counted by direct enumeration of lattice-word skew tableaux, and Schur
polynomials are expanded through the determinant of complete homogeneous
polynomials.  Agreement between these and the package's Pieri-based kernel
is the main correctness evidence for the combinatorial core.  The small
x-polynomial builders (elementary, complete and monomial symmetric
polynomials, products and integer multiples) also make the tests' inputs.

The one exception, ``sigma_triple_sum``, evaluates the paper's split
formula term by term on the package's own series, so agreement with
``limiting.sigma_direct`` and ``limiting.sigma_pb`` checks how those
functions rearrange the sum, not the series themselves.
"""

from itertools import combinations, combinations_with_replacement, permutations
from math import comb

from schubfire import bundles
from schubfire.chow import GrassCtx


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

