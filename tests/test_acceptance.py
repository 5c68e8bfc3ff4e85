"""Acceptance suite: every exit criterion, exact equality, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  All assertions are exact integer or class equalities.
"""

from math import comb

from schubfire import rank_cap
from schubfire.bundles import (
    ChernCtx,
    segre,
    sym,
    sym_chern,
    total_chern,
    ustar,
)
from schubfire.chow import GrassCtx, integral, schubert_string
from schubfire.limiting import (
    expected_dim,
    is_generically_empty,
    sigma_direct,
    sigma_pb,
    split,
    total_class,
    verify_identity,
)
from schubfire.partitions import (
    Box,
    iter_box_partitions,
    lr_multiply,
    pieri_e,
    schur_to_elementary,
)

from _oracles import lr_product, pb_product


def _report(name: str, ok: bool) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_01_cubic_surface_lines():
    ok = integral(total_class(1, 3, 3)) == 27
    res = split(1, 3, 3, 1)
    ok = ok and (res.count_k, res.count_l) == (15, 12)
    _report("1 cubic surface: 27 lines split 15 + 12", ok)


def test_criterion_02_quartic_sevenfold_planes():
    ok = integral(total_class(2, 7, 4)) == 3297280
    res3 = split(2, 7, 4, 3)
    ok = ok and (res3.count_k, res3.count_l) == (483840, 2813440)
    res2 = split(2, 7, 4, 2)
    ok = ok and (res2.count_k, res2.count_l) == (1648640, 1648640)
    _report("2 quartic in P7: 3297280 and its splits", ok)


def test_criterion_03_cubic_p8_threeplanes():
    ok = integral(total_class(3, 8, 3)) == 321489
    res = split(3, 8, 3, 2)
    ok = ok and (res.count_k, res.count_l) == (0, 321489)
    _report("3 cubic in P8: 321489 with split 0 + 321489", ok)


def test_criterion_04_quadric_classes_rank_three():
    table = [schur_to_elementary(entry, 3) for entry in sym_chern(2, 3)]
    ok = table[1] == {(1, 0, 0): 4}
    ok = ok and table[2] == {(2, 0, 0): 5, (0, 1, 0): 5}
    ok = ok and table[3] == {(3, 0, 0): 2, (1, 1, 0): 11, (0, 0, 1): 7}
    ok = ok and table[6] == {(1, 1, 1): 8, (0, 0, 2): -8}
    s = segre(ustar(), ChernCtx(3, 3))
    ok = ok and s[1].terms == {(1, 0, 0): -1}
    ok = ok and s[2].terms == {(2, 0, 0): 1, (0, 1, 0): -1}
    ok = ok and s[3].terms == {(3, 0, 0): -1, (1, 1, 0): 2, (0, 0, 1): -1}
    # R(2,1) = 4xyz - 4z^2 as a class on a wide-enough Grassmannian
    g = GrassCtx(2, 6)
    x, y, z = (g.sigma((1,) * i) for i in (1, 2, 3))
    ok = ok and sigma_direct(2, 6, 2, 1) == 4 * (x * y * z) - 4 * (z * z)
    # and its integral vanishes on G(3,5)
    ok = ok and integral(sigma_direct(2, 4, 2, 1)) == 0
    _report("4 symmetric-square Chern/Segre values and R(2,1)", ok)


def test_criterion_05_schubert_conversion():
    ok = True
    for n in (5, 6, 7):
        g = GrassCtx(2, n)
        c6 = total_chern(sym(2, ustar()), g)[6]
        ok = ok and c6 == 8 * g.sigma((3, 2, 1))
        ok = ok and schubert_string(c6) == "8*s[3,2,1]"
    g = GrassCtx(2, 4)
    ok = ok and not total_chern(sym(2, ustar()), g)[6]
    _report("5 c6(Sym^2 U*) = 8 s[3,2,1], zero on G(3,5)", ok)


# Reference expansion of c20(Sym^3 E) at rank 4, frozen term by term.
# Exponent tuples are (a1, a2, a3, a4).  The c4^5 coefficient was verified
# by hand (evaluate the 20 root sums at the 8th roots of unity), and the
# whole polynomial is tied to the 321489 count through integration.
C20_SYM3_RANK4 = {
    (3, 0, 3, 2): -1296,
    (1, 3, 3, 1): -2592,
    (0, 0, 4, 2): 17496,
    (0, 4, 0, 3): 1296,
    (4, 1, 2, 2): 15552,
    (2, 4, 2, 1): 2592,
    (0, 0, 0, 5): 50625,
    (0, 3, 2, 2): 2592,
    (0, 1, 2, 3): -14580,
    (2, 1, 0, 4): 36045,
    (6, 1, 0, 3): 17496,
    (1, 0, 1, 4): 34425,
    (2, 5, 0, 2): 1296,
    (5, 0, 1, 3): -17496,
    (2, 0, 2, 3): -81162,
    (2, 3, 0, 3): -13608,
    (4, 4, 0, 2): 2592,
    (4, 2, 0, 3): -14580,
    (1, 0, 5, 1): -17496,
    (4, 0, 4, 1): -2592,
    (3, 1, 1, 3): 87966,
    (1, 2, 1, 3): 3888,
    (0, 2, 0, 4): -16200,
    (4, 0, 0, 4): 17496,
    (2, 2, 2, 2): 2916,
    (1, 4, 1, 2): -1296,
    (5, 2, 1, 2): -11664,
    (1, 1, 3, 2): 2916,
    (3, 3, 1, 2): -14904,
    (4, 3, 2, 1): 5184,
    (2, 1, 4, 1): 29160,
    (5, 1, 3, 1): 2592,
    (3, 2, 3, 1): -16848,
}


def test_criterion_06_degree20_expansion_regression():
    c20 = schur_to_elementary(sym_chern(3, 4)[20], 4)
    ok = c20 == C20_SYM3_RANK4
    ok = ok and c20[(3, 0, 3, 2)] == -1296
    ok = ok and c20[(0, 0, 0, 5)] == 50625
    _report("6 c20(Sym^3 U*) matches the reference expansion term for term", ok)


def _grid():
    for r in range(1, 4):
        for n in range(r + 1, 9):
            for d in range(2, 5):
                for k in range(1, d):
                    yield (r, n, d, k)


def test_criterion_07_identity_sweep():
    ok = True
    checked = 0
    for (r, n, d, k) in _grid():
        if comb(r + d, d) > rank_cap():
            continue
        ok = ok and verify_identity(r, n, d, k)
        checked += 1
    _report(f"7 split identity over {checked} grid points", ok)


def test_criterion_08_route_equivalence():
    ok = True
    checked = 0
    for (r, n, d, k) in _grid():
        r_d = comb(r + d, d)
        if r_d > rank_cap():
            continue
        if r_d > (r + 1) * (n - r) + 6:
            continue  # far above the top degree: both routes are zero
        ok = ok and sigma_pb(r, n, d, k) == sigma_direct(r, n, d, k)
        checked += 1
    _report(f"8 bundle route equals direct route at {checked} points", ok)


def test_criterion_09_kernel_properties():
    ok = True
    box = Box(3, 3)
    shapes = list(iter_box_partitions(box))
    # commutativity, nonnegativity, oracle agreement
    for lam in shapes:
        for mu in shapes:
            prod = lr_multiply(lam, mu, box)
            ok = ok and prod == lr_multiply(mu, lam, box)
            ok = ok and all(c > 0 for c in prod.values())
            ok = ok and prod == lr_product(lam, mu, box.rows, box.cols)
    # associativity on a sample
    def expand(terms, mu):
        out = {}
        for lam, c in terms.items():
            for nu, m in lr_multiply(lam, mu, box).items():
                out[nu] = out.get(nu, 0) + c * m
        return {nu: c for nu, c in out.items() if c}

    sample = [(), (1,), (2, 1), (3, 1), (2, 2, 1)]
    for a in sample:
        for b in sample:
            for c in sample:
                ok = ok and expand(lr_multiply(a, b, box), c) == expand(
                    lr_multiply(b, c, box), a
                )
    # Pieri agreement
    for lam in shapes:
        for p in range(box.rows + 1):
            ok = ok and lr_multiply(lam, (1,) * p, box) == {
                mu: 1 for mu in pieri_e(lam, p, box)
            }
    # c . s = 1 and pushforward(zeta^(e-1+i)) = s_i(E), projection formula
    from schubfire.projbundle import PBClass, PBCtx, pushforward

    g = GrassCtx(2, 4)
    e = sym(2, ustar())
    cs = total_chern(e, g)
    ss = segre(e, g)
    for p in range(1, g.dim + 1):
        acc = g.zero()
        for i in range(p + 1):
            acc = acc + cs[i] * ss[p - i]
        ok = ok and acc == g.zero()
    pb = PBCtx(g, e)
    for i in range(g.dim + 1):
        zp = PBClass(pb, [g.zero()] * (pb.rank - 1 + i) + [g.one()])  # zeta^(e-1+i)
        ok = ok and pushforward(zp) == ss[i]
    alpha = g.sigma((2, 1))
    sample_pb = PBClass(pb, [g.zero(), g.sigma((1,)), g.one()])  # (zeta + h) zeta
    pulled_back = PBClass(pb, [alpha])
    ok = ok and pushforward(pb_product(pulled_back, sample_pb)) == alpha * pushforward(sample_pb)
    _report("9 combinatorial and bundle-ring properties", ok)


def test_criterion_10_emptiness():
    ok = is_generically_empty(2, 4, 2)
    ok = ok and expected_dim(2, 4, 2) == 0  # empty despite m = 0
    _report("10 generic quadric in P4 contains no planes", ok)


def test_criterion_11_quintic_threefold_cross_check():
    # 2875 is the classical count of lines on a generic quintic threefold;
    # asserted here as agreement of three computations of the same number.
    total = integral(total_class(1, 4, 5))
    ok = total == 2875
    for k in (1, 2):
        res_direct = split(1, 4, 5, k, route="direct")
        res_pb = split(1, 4, 5, k, route="pb")
        ok = ok and res_direct.sigma_k == res_pb.sigma_k
        ok = ok and res_direct.sigma_l == res_pb.sigma_l
        ok = ok and res_direct.count_k + res_direct.count_l == total
        ok = ok and res_direct.identity_ok
    _report("11 quintic threefold: 2875 by both routes", ok)


def test_criterion_12_wide_box_lines():
    # Lines on a degree-47 hypersurface in P25 live in the 2 x 24 box, where
    # the kernel multiplies shapes with up to 24 columns.  The counts were
    # computed independently by localization (Bott's formula).
    res = split(1, 25, 47, 23)
    ok = integral(res.total) == (
        1583153914759022599750970616982360190045055286274240832797571632737427744128505
    )
    ok = ok and (res.count_k, res.count_l) == (
        789107911154261443963438709933876094043597407674675325284711241144391043415545,
        794046003604761155787531907048484096001457878599565507512860391593036700712960,
    )
    _report("12 lines on a degree-47 hypersurface in P25: split 23 + 24", ok)
