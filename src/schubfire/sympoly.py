"""Exact dict-based arithmetic for symmetric polynomials in k variables.

Three coordinate systems show up:

* x-monomials: exponent tuples of length k, one slot per variable;
* Schur coefficients: {partition: c}, partitions with trailing zeros
  stripped and at most k rows;
* e-monomials: exponent tuples (a1..ak) standing for e1^a1 * ... * ek^ak
  in the elementary generators.

All coefficients are Python ints, so nothing can overflow.  There is one
straightening.  Schur coefficients are read off by the bialternant formula
(Macdonald, ch. I.3): with delta = (k-1, ..., 0) and a_delta the
Vandermonde alternant, f * a_delta = sum_lam c_lam a_(lam+delta), so

    c_lam = sum over sigma in S_k of sgn(sigma) f[lam + delta - sigma(delta)].

The symmetric-power tables of ``bundles`` stay in this Schur basis.
Elementary coordinates, where a caller needs them, follow from the Schur
expansion by the Pieri inversion of the product kernel,
``partitions.schur_to_elementary``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterator

from .partitions import Partition

XPoly = dict[tuple[int, ...], int]


@lru_cache(maxsize=None)
def _signed_shifts(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    # Pairs (delta - sigma(delta), sgn sigma) over S_k; entry i of the
    # shift is sigma(i) - i.
    out = []
    for perm in permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        out.append((tuple(p - i for i, p in enumerate(perm)), -1 if inversions % 2 else 1))
    return tuple(out)


def schur_coefficient(f: XPoly, lam: Partition, k: int) -> int:
    """Coefficient of s_lam in a symmetric x-poly f in k variables.

    Only the degree-|lam| part of f is read, so f may be inhomogeneous.
    Zero when lam has more than k rows.  A permutation that moves one of
    the zero rows of lam reads a negative exponent, so only the
    permutations of the first len(lam) rows contribute.
    """
    rows = len(lam)
    if rows > k:
        return 0
    tail = (0,) * (k - rows)
    total = 0
    for shift, sign in _signed_shifts(rows):
        c = f.get(tuple(a + s for a, s in zip(lam, shift)) + tail)
        if c:
            total += sign * c
    return total


def _partitions(n: int, rows: int, top: int) -> Iterator[Partition]:
    # Partitions of n with at most `rows` parts, each at most `top`.
    if n == 0:
        yield ()
        return
    for p in range(min(n, top), 0, -1):
        if p * rows < n:
            break
        for rest in _partitions(n - p, rows - 1, p):
            yield (p,) + rest


def schur_coefficients(f: XPoly, k: int) -> dict[Partition, int]:
    """Schur expansion {partition: c} of a symmetric x-poly in k variables.

    The candidate shapes in each degree are bounded by the largest exponent
    that occurs in that degree: every x-monomial read for c_lam has an
    exponent of at least lam_1.
    """
    tops: dict[int, int] = {}
    for key in f:
        deg = sum(key)
        tops[deg] = max(tops.get(deg, 0), max(key))
    out: dict[Partition, int] = {}
    for deg, top in sorted(tops.items()):
        for lam in _partitions(deg, k, top):
            c = schur_coefficient(f, lam, k)
            if c:
                out[lam] = c
    return out
