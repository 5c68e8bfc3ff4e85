"""The localization oracle against published counts and its own invariants."""

from fractions import Fraction

import pytest

import checks
import oracle


@pytest.mark.parametrize(
    "problem, expected",
    [
        ((1, 3, 3, 1), (27, 15, 12)),
        ((2, 7, 4, 2), (3297280, 1648640, 1648640)),
        ((2, 7, 4, 3), (3297280, 483840, 2813440)),
        ((3, 8, 3, 2), (321489, 0, 321489)),
    ],
)
def test_published_splits(problem, expected):
    assert tuple(oracle.degrees(*problem)) == expected
    assert checks.PUBLISHED[problem] == expected


def test_quintic_threefold_lines():
    assert oracle.degrees(1, 4, 5, 2).total == 2875


def test_published_table_is_symmetric():
    for (r, n, d, k), (total, ck, cl) in checks.PUBLISHED.items():
        assert checks.PUBLISHED[(r, n, d, d - k)] == (total, cl, ck)
        assert ck + cl == total


def test_weight_vectors_agree_on_integers():
    w1 = tuple(range(8))
    w2 = tuple(3 * i * i - i + 11 for i in range(8))
    first = oracle.localize(2, 7, 4, 1, w1)
    assert first == oracle.localize(2, 7, 4, 1, w2)
    assert all(isinstance(v, Fraction) and v.denominator == 1 for v in first)


def test_disagreeing_weights_raise(monkeypatch):
    # A localization sum that depends on the weights is a fault in the oracle.
    calls = []

    def fake(r, n, d, k, weights):
        calls.append(weights)
        return (Fraction(len(calls)), Fraction(0), Fraction(0))

    monkeypatch.setattr(oracle, "localize", fake)
    oracle._degrees.cache_clear()
    try:
        with pytest.raises(oracle.OracleError):
            oracle.degrees(1, 3, 3, 1)
    finally:
        oracle._degrees.cache_clear()


def test_pluecker_degree_matches_positive_dimension():
    # c_top(Sym^3 U*) on G(2,5) is the class of lines on a cubic threefold,
    # a surface of degree 45 in the Pluecker embedding.
    assert oracle.degrees(1, 4, 3, 1).total == 45


@pytest.mark.parametrize("r, n, degree", [(1, 3, 2), (1, 4, 5), (1, 5, 14), (2, 5, 42)])
def test_grassmannian_degrees(r, n, degree):
    # The unit class integrates against sigma_1^dim to the degree of G.
    assert checks.plucker_degree({(): 1}, r, n) == degree


def test_negative_dimension_is_rejected():
    with pytest.raises(ValueError):
        oracle.localize(1, 3, 4, 1, tuple(range(4)))
