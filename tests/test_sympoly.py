"""Symmetric-polynomial plumbing: basis conversions and straightening."""

import pytest

from schubfire.partitions import e_monomial_schur_expansion, schur_to_elementary
from schubfire.sympoly import packing, read_packed, schur_coefficient, schur_coefficients

from _oracles import (
    complete_x,
    elementary_x,
    monomial_sym_x,
    poly_add,
    poly_mul,
    poly_scale,
    schur_x_jt,
)


def test_elementary_and_complete():
    assert elementary_x(0, 2) == {(0, 0): 1}
    assert elementary_x(2, 2) == {(1, 1): 1}
    assert elementary_x(3, 2) == {}
    assert complete_x(2, 2) == {(2, 0): 1, (1, 1): 1, (0, 2): 1}


def test_e_monomial_schur_expansion_matches_direct_expansion():
    # e2 e1^2 in 3 variables, strip by strip, against the x-poly product
    got = e_monomial_schur_expansion((2, 1, 1), 3)
    direct = poly_mul(poly_mul(elementary_x(2, 3), elementary_x(1, 3)), elementary_x(1, 3))
    assert got == schur_coefficients(direct, 3)
    assert got == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 2}  # s_{1,1,1,1} vanishes


@pytest.mark.parametrize("k", [2, 3, 4])
def test_schur_expansion_matches_jacobi_trudi(k):
    shapes = [(), (1,), (2,), (1, 1), (2, 1), (3,), (2, 2), (3, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1)]
    for lam in shapes:
        s_lam = schur_x_jt(lam, k)
        if len(lam) > k:
            assert s_lam == {}
            assert schur_coefficient(complete_x(sum(lam), k), lam, k) == 0
            continue
        assert schur_coefficients(s_lam, k) == {lam: 1}, lam
        # inhomogeneous input: only the degree-|lam| part is read
        assert schur_coefficient(poly_add(s_lam, complete_x(sum(lam) + 1, k)), lam, k) == 1, lam


def test_schur_to_elementary_round_trip():
    # s_{2,1} = e2 e1 - e3
    assert schur_to_elementary(schur_coefficients(schur_x_jt((2, 1), 3), 3), 3) == {
        (1, 1, 0): 1,
        (0, 0, 1): -1,
    }
    # h_2 = e1^2 - e2
    assert schur_to_elementary(schur_coefficients(complete_x(2, 3), 3), 3) == {
        (2, 0, 0): 1,
        (0, 1, 0): -1,
    }
    with pytest.raises(ValueError):
        schur_to_elementary({(1, 1, 1): 1}, 2)


def test_monomial_sym_and_scale():
    m2 = monomial_sym_x((2,), 2)
    assert m2 == {(2, 0): 1, (0, 2): 1}
    assert poly_scale(m2, 0) == {}
    assert poly_add(m2, poly_scale(m2, -1)) == {}


def test_packed_read_off_at_the_base_limit():
    # s_6 in 3 variables packs with base 6 + 2k - 1 = 11: reading (6,) puts
    # 6 + (k - 1) + 2 = 10 in slot 0, the last value below the base.  A
    # wider base reads the same.
    k, expected = 3, {(6,): 1, (4, 2): -2}
    f = poly_add(schur_x_jt((6,), k), poly_scale(schur_x_jt((4, 2), k), -2))
    assert packing(6, k)[0] == 11
    for base in (11, 12, 20):
        unit = (k - 1) * sum(base**i for i in range(k))
        packed = {unit + sum(e * base**i for i, e in enumerate(key)): c for key, c in f.items()}
        assert read_packed(packed, 6, base, k) == expected
