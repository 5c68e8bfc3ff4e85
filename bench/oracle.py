"""Counts by localization, sharing no code with schubfire.

Bott's formula (Ellingsrud-Stromme, *Bott's formula and enumerative
geometry*, JAMS 1996) evaluates the degree of a top-dimensional class on
G(r+1, n+1) as a sum over the C(n+1, r+1) coordinate subspaces fixed by a
torus acting on C^(n+1) with distinct integer weights w_0..w_n.  At the
point spanned by e_i, i in I:

* U* has Chern roots -w_i (i in I), so Sym^m U* has the roots
  -(w_i1 + ... + w_im) over multisets of I of size m;
* the tangent space Hom(U, Q) has weights w_j - w_i (i in I, j not in I),
  whose product is the denominator.

Every Chern class c_i is the elementary symmetric function of the roots,
and every Segre class s_h comes from c.s = 1.  The split classes use the
triple sum in the docstring of ``schubfire.limiting.sigma_direct``, which
is a universal identity in Chern classes and so holds point by point.
When the expected dimension m is positive, the class is multiplied by
sigma_1^m = c_1(U*)^m, which gives its Pluecker degree.

The answer must be an integer that does not depend on the weights; every
public result here is computed with two weight vectors and compared.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import mul
from typing import NamedTuple

WEIGHT_VECTORS = (
    lambda i: i,
    lambda i: i * i + 3 * i + 7,
)


class Degrees(NamedTuple):
    """Pluecker degrees (counts when m = 0) of the total and both parts."""

    total: int
    part_k: int
    part_l: int


class OracleError(Exception):
    """Two weight vectors gave different answers, or a non-integer one."""


def expected_dim(r: int, n: int, d: int) -> int:
    return (r + 1) * (n - r) - comb(r + d, d)


def _chern(roots: list[int], upto: int) -> list[int]:
    """Elementary symmetric functions e_0..e_upto of the roots."""
    e = [1] + [0] * upto
    for x in roots:
        for i in range(upto, 0, -1):
            e[i] += e[i - 1] * x
    return e


def _segre(c: list[int], upto: int) -> list[int]:
    """s_0..s_upto, the inverse series of c."""
    s = [1]
    for p in range(1, upto + 1):
        s.append(-sum(map(mul, c[1 : p + 1], s[::-1])))
    return s


def _sym_roots(ws: tuple[int, ...], m: int) -> list[int]:
    return [-sum(t) for t in combinations_with_replacement(ws, m)]


class _Part:
    """The triple sum for the component of degree a, with b = d - a.

    With R = r_d - r_a, the value at a point is c_(r_a)(Sym^a) times

        sum_i c_i(Sym^d) sum_h C(r_d-1-i, r_a-1+h) s_h(Sym^a) W[R-i-h],
        W[p] = sum_(j <= min(r_b - 1, p)) c_j(Sym^b) s_(p-j)(Sym^b).
    """

    def __init__(self, r_d: int, r_a: int, r_b: int):
        self.big_r = r_d - r_a
        self.r_a = r_a
        self.r_b = r_b
        self.binom = [
            [comb(r_d - 1 - i, r_a - 1 + h) for h in range(self.big_r - i + 1)]
            for i in range(self.big_r + 1)
        ]

    def value(self, c_d, c_a, s_a, c_b, s_b) -> int:
        big_r = self.big_r
        c_b = c_b[: self.r_b]  # c_j(Sym^b) for j <= r_b - 1
        w = [sum(map(mul, c_b, s_b[p::-1])) for p in range(big_r + 1)]
        acc = 0
        for i, row in enumerate(self.binom):
            if c_d[i]:
                rest = w[big_r - i :: -1]  # rest[h] = W[R-i-h]
                acc += c_d[i] * sum(map(mul, row, map(mul, s_a, rest)))
        return c_a[self.r_a] * acc


def localize(r: int, n: int, d: int, k: int, weights: tuple[int, ...]) -> tuple[Fraction, ...]:
    """Bott sums of the total class and both parts, times sigma_1^m."""
    m = expected_dim(r, n, d)
    if m < 0:
        raise ValueError(f"expected dimension {m} < 0: the classes vanish")
    l = d - k
    r_d, r_k, r_l = comb(r + d, d), comb(r + k, k), comb(r + l, l)
    part_k = _Part(r_d, r_k, r_l)
    part_l = _Part(r_d, r_l, r_k)
    upto = max(part_k.big_r, part_l.big_r)
    sums = [Fraction(0), Fraction(0), Fraction(0)]
    for fixed in combinations(range(n + 1), r + 1):
        ws = tuple(weights[i] for i in fixed)
        euler = 1
        for j in range(n + 1):
            if j not in fixed:
                for w_i in ws:
                    euler *= weights[j] - w_i
        roots_d = _sym_roots(ws, d)
        c_d = _chern(roots_d, upto)
        c_k = _chern(_sym_roots(ws, k), r_k)
        c_l = c_k if l == k else _chern(_sym_roots(ws, l), r_l)
        s_k = _segre(c_k, upto)
        s_l = s_k if l == k else _segre(c_l, upto)
        top = 1
        for x in roots_d:
            top *= x
        values = (
            top,
            part_k.value(c_d, c_k, s_k, c_l, s_l),
            part_l.value(c_d, c_l, s_l, c_k, s_k),
        )
        plucker = (-sum(ws)) ** m
        for slot, v in enumerate(values):
            if v:
                sums[slot] += Fraction(v * plucker, euler)
    return tuple(sums)


def degrees(r: int, n: int, d: int, k: int) -> Degrees:
    """Exact Pluecker degrees of the total class and the two split parts.

    With m = 0 these are the counts.  Raises OracleError unless both weight
    vectors give the same integers.
    """
    if not (0 <= r < n and 1 <= k < d):
        raise ValueError(f"bad problem r={r} n={n} d={d} k={k}")
    if 2 * k <= d:
        return _degrees(r, n, d, k)
    total, part_l, part_k = _degrees(r, n, d, d - k)
    return Degrees(total, part_k, part_l)


@lru_cache(maxsize=None)
def _degrees(r: int, n: int, d: int, k: int) -> Degrees:
    results = []
    for make in WEIGHT_VECTORS:
        results.append(localize(r, n, d, k, tuple(make(i) for i in range(n + 1))))
    if results[0] != results[1]:
        raise OracleError(f"weight vectors disagree at {(r, n, d, k)}: {results}")
    if any(v.denominator != 1 for v in results[0]):
        raise OracleError(f"non-integer localization sum at {(r, n, d, k)}")
    return Degrees(*(int(v) for v in results[0]))
