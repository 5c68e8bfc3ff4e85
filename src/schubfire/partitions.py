"""Partitions in a box and the product kernel for Schubert classes.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the empty partition.  ``Box(rows, cols)`` bounds the shapes
that may index a basis class: at most ``rows`` parts, each part at most
``cols``.  Shapes that leave the box are identically zero and are dropped
eagerly by every operation here.

General products are computed by expanding one factor into signed products
of elementary classes and applying the Pieri rule for vertical strips one
factor at a time.  The expansion of s_mu in e_1..e_rows is unique; it is
read off by inverting the same Pieri rule, which is unitriangular
(``schur_to_elementary``, which also reads the symmetric-power tables of
``bundles`` into the free presentation in c1..ck).  The test suite checks
the product coefficients against a brute-force Littlewood-Richardson
tableau enumeration written separately.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]


class Box(NamedTuple):
    rows: int
    cols: int


def normalize(parts: Iterable[int]) -> Partition:
    """Canonical partition: ints, trailing zeros stripped, validated."""
    t = tuple(int(p) for p in parts)
    while t and t[-1] == 0:
        t = t[:-1]
    if any(p < 0 for p in t):
        raise ValueError(f"negative part in partition {parts!r}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"parts not weakly decreasing in {parts!r}")
    return t


def weight(lam: Partition) -> int:
    return sum(lam)


def fits_box(lam: Partition, box: Box) -> bool:
    """True iff lam has at most box.rows parts and lam[0] <= box.cols."""
    if len(lam) > box.rows:
        return False
    return not lam or lam[0] <= box.cols


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def complement_in_box(lam: Partition, box: Box) -> Partition:
    """The 180-degree rotation of the complement of lam inside the box."""
    if not fits_box(lam, box):
        raise ValueError(f"{lam} does not fit in {box}")
    padded = lam + (0,) * (box.rows - len(lam))
    return normalize(box.cols - padded[box.rows - 1 - i] for i in range(box.rows))


def iter_box_partitions(box: Box) -> Iterator[Partition]:
    """All partitions fitting the box, the empty one first."""

    def rec(maxpart: int, rows_left: int) -> Iterator[Partition]:
        yield ()
        if rows_left == 0:
            return
        for p in range(maxpart, 0, -1):
            for tail in rec(p, rows_left - 1):
                yield (p,) + tail

    yield from rec(box.cols, box.rows)


@lru_cache(maxsize=None)
def _pieri(lam: Partition, p: int, rows: int, cols: int) -> tuple[Partition, ...]:
    # Vertical p-strips added to lam, truncated to the rows x cols box.
    if p == 0:
        return (lam,)
    if p > rows:
        return ()
    padded = lam + (0,) * (rows - len(lam))
    out = []
    for chosen in combinations(range(rows), p):
        picked = set(chosen)
        if 0 in picked and padded[0] + 1 > cols:
            continue
        ok = True
        for i in chosen:
            # Staying weakly decreasing only fails when a row equals the one
            # above it and the one above was not also incremented.
            if i > 0 and padded[i] == padded[i - 1] and (i - 1) not in picked:
                ok = False
                break
        if ok:
            mu = list(padded)
            for i in chosen:
                mu[i] += 1
            while mu and mu[-1] == 0:
                mu.pop()
            out.append(tuple(mu))
    return tuple(out)


def pieri_e(lam: Partition, p: int, box: Box) -> set[Partition]:
    """Multiply by the p-th elementary class: all vertical p-strip additions.

    Every resulting shape occurs with coefficient 1.  Shapes leaving the box
    are dropped; p larger than box.rows leaves no room and yields the empty
    set.
    """
    lam = normalize(lam)
    if p < 0:
        raise ValueError("strip size must be nonnegative")
    if not fits_box(lam, box):
        raise ValueError(f"{lam} does not fit in {box}")
    return set(_pieri(lam, p, box.rows, box.cols))


@lru_cache(maxsize=None)
def e_monomial_schur_expansion(cols: tuple[int, ...], k: int) -> dict[Partition, int]:
    """Schur expansion of e_(cols[0]) * e_(cols[1]) * ... in k variables.

    cols is the weakly decreasing tuple of elementary indices.  Each factor
    adds one vertical strip; the column bound is the degree, so nothing is
    truncated, and prefixes are shared through the cache.  Callers must
    treat the result as read-only.
    """
    if not cols:
        return {(): 1}
    bound = sum(cols)
    out: dict[Partition, int] = {}
    for kappa, c in e_monomial_schur_expansion(cols[:-1], k).items():
        for nu in _pieri(kappa, cols[-1], k, bound):
            out[nu] = out.get(nu, 0) + c
    return out


def schur_to_elementary(schur: dict[Partition, int], k: int) -> dict[tuple[int, ...], int]:
    """Rewrite a Schur expansion (shapes of at most k rows) in e1..ek.

    Returns {(a1..ak): c} for c * e1^a1 * ... * ek^ak.  The lexicographically
    greatest lam is peeled off first: e_(lam') = prod e_i^(lam_i - lam_(i+1))
    is s_lam plus lex-smaller Schur terms, so subtracting c_lam e_(lam')
    leaves only smaller shapes (Macdonald, ch. I.3).
    """
    work = {lam: c for lam, c in schur.items() if c}
    if any(len(lam) > k for lam in work):
        raise ValueError(f"a Schur polynomial in {k} variables has at most {k} rows")
    out: dict[tuple[int, ...], int] = {}
    while work:
        lam = max(work)
        c = work[lam]
        padded = lam + (0,) * (k + 1 - len(lam))
        out[tuple(padded[i] - padded[i + 1] for i in range(k))] = c
        for nu, cnt in e_monomial_schur_expansion(conjugate(lam), k).items():
            v = work.get(nu, 0) - c * cnt
            if v:
                work[nu] = v
            elif nu in work:
                del work[nu]
    return out


@lru_cache(maxsize=None)
def _signed_e_products(mu: Partition, rows: int) -> tuple[tuple[Partition, int], ...]:
    """Expansion of the mu-indexed class into signed elementary products.

    Returns pairs (sizes, coefficient), sizes being the weakly decreasing
    strip sizes of one e-monomial of s_mu in e_1..e_rows.
    """
    return tuple(
        (tuple(q for q in range(rows, 0, -1) for _ in range(a[q - 1])), c)
        for a, c in schur_to_elementary({mu: 1}, rows).items()
    )


@lru_cache(maxsize=None)
def _lr(lam: Partition, mu: Partition, rows: int, cols: int) -> tuple[tuple[Partition, int], ...]:
    out: dict[Partition, int] = {}
    for sizes, sign in _signed_e_products(mu, rows):
        terms = {lam: sign}
        for q in sizes:
            nxt: dict[Partition, int] = {}
            for kappa, c in terms.items():
                for nu in _pieri(kappa, q, rows, cols):
                    nxt[nu] = nxt.get(nu, 0) + c
            terms = nxt
            if not terms:
                break
        for nu, c in terms.items():
            out[nu] = out.get(nu, 0) + c
    return tuple(sorted((k, v) for k, v in out.items() if v))


def lr_multiply(lam: Partition, mu: Partition, box: Box) -> dict[Partition, int]:
    """Structure constants of the product of the lam- and mu-classes.

    Returns {nu: c} over shapes nu fitting the box; coefficients are the
    Littlewood-Richardson numbers, so they are nonnegative and every key
    has weight |lam| + |mu|.
    """
    lam = normalize(lam)
    mu = normalize(mu)
    for part in (lam, mu):
        if not fits_box(part, box):
            raise ValueError(f"{part} does not fit in {box}")
    return dict(_lr(lam, mu, box.rows, box.cols))
