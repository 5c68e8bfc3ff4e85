"""Combinatorial kernel: boxes, Pieri strips, and general products."""

import random

import pytest

from schubfire.partitions import (
    Box,
    _signed_e_products,
    complement_in_box,
    conjugate,
    fits_box,
    iter_box_partitions,
    lr_multiply,
    normalize,
    pieri_e,
)

from _oracles import elementary_x, lr_product, poly_add, poly_mul, schur_x_jt


def test_fits_box():
    assert not fits_box((3, 2, 1), Box(3, 2))
    assert fits_box((), Box(1, 1))
    assert fits_box((2, 2, 2), Box(3, 2))
    assert not fits_box((1, 1, 1, 1), Box(3, 5))


def test_conjugate():
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate(()) == ()
    for lam in iter_box_partitions(Box(4, 4)):
        assert conjugate(conjugate(lam)) == lam


def test_normalize():
    assert normalize([3, 2, 0, 0]) == (3, 2)
    with pytest.raises(ValueError):
        normalize((1, 2))
    with pytest.raises(ValueError):
        normalize((2, -1))


def test_pieri_examples():
    assert pieri_e((), 1, Box(2, 2)) == {(1,)}
    assert pieri_e((1,), 1, Box(2, 2)) == {(2,), (1, 1)}
    assert pieri_e((2, 2), 2, Box(2, 2)) == set()
    assert pieri_e((1,), 0, Box(2, 2)) == {(1,)}
    assert pieri_e((1,), 3, Box(2, 2)) == set()


def test_lr_examples():
    assert lr_multiply((1,), (1,), Box(2, 2)) == {(2,): 1, (1, 1): 1}
    assert lr_multiply((2, 2), (2, 2), Box(2, 2)) == {}
    # weight-8 product in a wide-enough box, frozen from the tableau oracle
    assert lr_multiply((2, 1), (2, 1), Box(4, 4)) == {
        (4, 2): 1,
        (4, 1, 1): 1,
        (3, 3): 1,
        (3, 2, 1): 2,
        (3, 1, 1, 1): 1,
        (2, 2, 2): 1,
        (2, 2, 1, 1): 1,
    }
    assert lr_multiply((2, 1), (2, 1), Box(3, 3)) == {
        (3, 3): 1,
        (3, 2, 1): 2,
        (2, 2, 2): 1,
    }


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 2), (2, 3), (3, 3), (6, 2)])
def test_lr_matches_tableau_oracle(rows, cols):
    box = Box(rows, cols)
    shapes = list(iter_box_partitions(box))
    for lam in shapes:
        for mu in shapes:
            assert lr_multiply(lam, mu, box) == lr_product(lam, mu, rows, cols), (
                lam,
                mu,
            )


def test_lr_matches_tableau_oracle_sampled_large_box():
    box = Box(4, 3)
    shapes = list(iter_box_partitions(box))
    rng = random.Random(20260808)
    for _ in range(60):
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        assert lr_multiply(lam, mu, box) == lr_product(lam, mu, box.rows, box.cols)


def test_lr_matches_tableau_oracle_production_box():
    # the box used by the largest benchmark computations
    box = Box(4, 5)
    shapes = [lam for lam in iter_box_partitions(box) if sum(lam) <= 12]
    rng = random.Random(99)
    for _ in range(25):
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        assert lr_multiply(lam, mu, box) == lr_product(lam, mu, box.rows, box.cols)


def test_lr_matches_tableau_oracle_wide_two_row_box():
    # the two-row boxes of lines in large projective spaces (cold-kernel)
    box = Box(2, 24)
    shapes = [lam for lam in iter_box_partitions(box) if sum(lam) <= 24]
    rng = random.Random(2024)
    for _ in range(25):
        lam, mu = rng.choice(shapes), rng.choice(shapes)
        assert lr_multiply(lam, mu, box) == lr_product(lam, mu, box.rows, box.cols)


def test_signed_e_products_give_jacobi_trudi_schur_polynomials():
    # sum of c * prod e_q over the expansion of s_mu, evaluated in `rows`
    # variables, against the determinant of complete homogeneous polynomials
    for rows in (1, 2, 3):
        for mu in iter_box_partitions(Box(rows, 8)):
            if sum(mu) > 8:
                continue
            total = {}
            for sizes, c in _signed_e_products(mu, rows):
                prod = {(0,) * rows: c}
                for q in sizes:
                    prod = poly_mul(prod, elementary_x(q, rows))
                total = poly_add(total, prod)
            assert total == schur_x_jt(mu, rows), (mu, rows)


def test_signed_e_products_round_trip_by_pieri():
    for mu in iter_box_partitions(Box(2, 24)):
        box = Box(2, sum(mu))
        total = {}
        for sizes, c in _signed_e_products(mu, box.rows):
            assert list(sizes) == sorted(sizes, reverse=True) and 0 not in sizes
            terms = {(): c}
            for q in sizes:
                nxt = {}
                for kappa, m in terms.items():
                    for nu in pieri_e(kappa, q, box):
                        nxt[nu] = nxt.get(nu, 0) + m
                terms = nxt
            total = poly_add(total, terms)
        assert total == {mu: 1}, mu


def test_lr_commutative():
    box = Box(3, 3)
    shapes = list(iter_box_partitions(box))
    for lam in shapes:
        for mu in shapes:
            assert lr_multiply(lam, mu, box) == lr_multiply(mu, lam, box)


def _expand_product(terms, mu, box):
    out = {}
    for lam, c in terms.items():
        for nu, m in lr_multiply(lam, mu, box).items():
            out[nu] = out.get(nu, 0) + c * m
    return {nu: c for nu, c in out.items() if c}


def test_lr_associative_sampled():
    box = Box(3, 3)
    shapes = list(iter_box_partitions(box))
    rng = random.Random(7)
    for _ in range(120):
        a, b, c = (rng.choice(shapes) for _ in range(3))
        left = _expand_product(lr_multiply(a, b, box), c, box)
        right = _expand_product(lr_multiply(b, c, box), a, box)
        assert left == right, (a, b, c)


def test_lr_pieri_consistency():
    box = Box(3, 3)
    for lam in iter_box_partitions(box):
        for p in range(0, box.rows + 1):
            expected = {mu: 1 for mu in pieri_e(lam, p, box)}
            assert lr_multiply(lam, (1,) * p, box) == expected


def test_lr_nonnegative_and_graded():
    box = Box(3, 3)
    shapes = list(iter_box_partitions(box))
    for lam in shapes:
        for mu in shapes:
            for nu, c in lr_multiply(lam, mu, box).items():
                assert c > 0
                assert sum(nu) == sum(lam) + sum(mu)
                assert fits_box(nu, box)


@pytest.mark.parametrize("rows,cols", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_duality_pairing(rows, cols):
    box = Box(rows, cols)
    full = (cols,) * rows
    shapes = list(iter_box_partitions(box))
    for lam in shapes:
        for mu in shapes:
            if sum(lam) + sum(mu) != rows * cols:
                continue
            coeff = lr_multiply(lam, mu, box).get(full, 0)
            assert coeff == (1 if mu == complement_in_box(lam, box) else 0)


def test_validation_errors():
    with pytest.raises(ValueError):
        lr_multiply((3,), (1,), Box(2, 2))
    with pytest.raises(ValueError):
        pieri_e((3,), 1, Box(2, 2))
    with pytest.raises(ValueError):
        pieri_e((1,), -1, Box(2, 2))
