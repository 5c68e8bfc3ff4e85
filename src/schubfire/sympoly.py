"""Exact dict-based arithmetic for symmetric polynomials in k variables.

Three coordinate systems show up:

* x-monomials: exponent tuples of length k, one slot per variable, or
  packed into one int (below);
* Schur coefficients: {partition: c}, partitions with trailing zeros
  stripped and at most k rows;
* e-monomials: exponent tuples (a1..ak) standing for e1^a1 * ... * ek^ak
  in the elementary generators.

All coefficients are Python ints, so nothing can overflow.  There is one
straightening.  Schur coefficients are read off by the bialternant formula
(Macdonald, ch. I.3): with delta = (k-1, ..., 0) and a_delta the
Vandermonde alternant, f * a_delta = sum_lam c_lam a_(lam+delta), so

    c_lam = sum over sigma in S_k of sgn(sigma) f[lam + delta - sigma(delta)].

It reads packed x-monomials, the keys that the root products of
``bundles`` build (``packing``): slot i, worth base**i, holds the exponent
of x_i plus k - 1, and base >= top + 2k - 1 for exponents up to top.  An
entry of delta - sigma(delta) lies in [-(k-1), k-1], so every shifted slot
stays in [0, base), nothing borrows or carries, and each signed shift is
one integer added to a key (``_signed_offsets``); a slot shifted past the
exponents that occur is simply absent.  Tuple keys are packed the same way.

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


def packing(top: int, k: int) -> tuple[int, int]:
    """The base and the key of 1 that pack x-monomials in k variables with
    exponents up to top."""
    base = top + 2 * k - 1
    return base, (k - 1) * sum(base**i for i in range(k))


@lru_cache(maxsize=None)
def _signed_offsets(rows: int, base: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # delta - sigma(delta) as packed offsets, over the permutations sigma of
    # the first `rows` slots, split by parity; entry i is sigma(i) - i.
    even, odd = [], []
    for perm in permutations(range(rows)):
        inversions = sum(perm[a] > perm[b] for a in range(rows) for b in range(a + 1, rows))
        offset = sum((p - i) * base**i for i, p in enumerate(perm))
        (odd if inversions % 2 else even).append(offset)
    return tuple(even), tuple(odd)


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


def read_packed(f: dict[int, int], degree: int, base: int, k: int) -> dict[Partition, int]:
    """Schur expansion of a symmetric polynomial of this degree in k
    variables, its x-monomials packed with this base (``packing``).

    Every x-monomial read for c_lam has an exponent of at least lam_1 in
    slot 0, which bounds the shapes.  A permutation that moves a zero row
    of lam reads a negative exponent, so only its other rows are permuted.
    """
    if not f:
        return {}
    steps = [base**i for i in range(k)]
    unit = (k - 1) * sum(steps)
    get = f.get
    out: dict[Partition, int] = {}
    for lam in _partitions(degree, k, max(key % base for key in f) - (k - 1)):
        at = unit + sum(p * step for p, step in zip(lam, steps))
        even, odd = _signed_offsets(len(lam), base)
        c = sum([get(at + s, 0) for s in even]) - sum([get(at + s, 0) for s in odd])
        if c:
            out[lam] = c
    return out


def schur_coefficients(f: XPoly, k: int) -> dict[Partition, int]:
    """Schur expansion {partition: c} of a symmetric x-poly in k variables,
    packed one degree at a time and read by ``read_packed``."""
    base, unit = packing(max((max(key) for key in f), default=0), k)
    steps = [base**i for i in range(k)]
    degrees: dict[int, dict[int, int]] = {}
    for key, c in f.items():
        degrees.setdefault(sum(key), {})[unit + sum(e * step for e, step in zip(key, steps))] = c
    out: dict[Partition, int] = {}
    for degree, packed in sorted(degrees.items()):
        out.update(read_packed(packed, degree, base, k))
    return out


def schur_coefficient(f: XPoly, lam: Partition, k: int) -> int:
    """Coefficient of s_lam in a symmetric x-poly f in k variables, which
    may be inhomogeneous; zero when lam has more than k rows."""
    return schur_coefficients(f, k).get(tuple(lam), 0)
