"""Checks on every split answer, computed from the answer itself.

An answer is the record ``schubfire split --format json`` prints; the
in-process sweep builds the same record with ``serialize_class``.  Nothing
here reads a stored copy of earlier output.  Each check recomputes a fact
from the parsed classes and compares it with an independent source:

* the localization oracle (``oracle.degrees``) for the counts when m = 0
  and for the Pluecker degrees of all three classes when m > 0;
* the class identity sigma_k + sigma_l = total, added up here rather
  than read from ``identity_ok``;
* the symmetry between the two components: sigma_k = sigma_l when k = l,
  and the classes of (r, n, d, k) are those of (r, n, d, d-k) swapped;
* the values published for the problem, where there are any: 27 = 15 + 12,
  3297280 = 1648640 + 1648640 = 483840 + 2813440, 321489 = 0 + 321489.
"""

from __future__ import annotations

from math import comb, factorial

import oracle

Problem = tuple[int, int, int, int]
Class = dict[tuple[int, ...], int]

# (r, n, d, k) -> (total, count_k, count_l)
PUBLISHED: dict[Problem, tuple[int, int, int]] = {
    (1, 3, 3, 1): (27, 15, 12),
    (1, 3, 3, 2): (27, 12, 15),
    (2, 7, 4, 1): (3297280, 2813440, 483840),
    (2, 7, 4, 2): (3297280, 1648640, 1648640),
    (2, 7, 4, 3): (3297280, 483840, 2813440),
    (3, 8, 3, 1): (321489, 321489, 0),
    (3, 8, 3, 2): (321489, 0, 321489),
}


def parse_class(entries, r: int, n: int) -> Class:
    """Parse serialized {"partition", "coeff"} records, checking the box."""
    rows, cols = r + 1, n - r
    out: Class = {}
    for entry in entries:
        lam = tuple(entry["partition"])
        if any(not isinstance(p, int) or p <= 0 for p in lam):
            raise ValueError(f"bad partition {entry['partition']!r}")
        if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
            raise ValueError(f"partition {lam} is not weakly decreasing")
        if len(lam) > rows or (lam and lam[0] > cols):
            raise ValueError(f"partition {lam} leaves the {rows}x{cols} box")
        if lam in out:
            raise ValueError(f"partition {lam} listed twice")
        coeff = int(entry["coeff"])
        if coeff == 0:
            raise ValueError(f"zero coefficient listed for {lam}")
        out[lam] = coeff
    return out


def add(a: Class, b: Class) -> Class:
    out = dict(a)
    for lam, c in b.items():
        out[lam] = out.get(lam, 0) + c
    return {lam: c for lam, c in out.items() if c}


def complement(lam: tuple[int, ...], rows: int, cols: int) -> tuple[int, ...]:
    padded = lam + (0,) * (rows - len(lam))
    return tuple(p for p in (cols - padded[rows - 1 - i] for i in range(rows)) if p)


def standard_tableaux(lam: tuple[int, ...]) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


def plucker_degree(cls: Class, r: int, n: int) -> int:
    """Integral of cls * sigma_1^m: each sigma_lam contributes #SYT(box/lam).

    The skew shape box/lam turned by 180 degrees is the straight shape of
    the complement of lam in the box.
    """
    rows, cols = r + 1, n - r
    return sum(c * standard_tableaux(complement(lam, rows, cols)) for lam, c in cls.items())


def check_record(problem: Problem, record: dict) -> list[str]:
    """Every check on one answer that needs no other answer; [] if all hold."""
    r, n, d, k = problem
    errors: list[str] = []
    params = record.get("params", {})
    want = {"r": r, "n": n, "d": d, "k": k, "l": d - k}
    if params != want:
        errors.append(f"params {params} != {want}")
    m = oracle.expected_dim(r, n, d)
    if record.get("m") != m:
        errors.append(f"m = {record.get('m')}, expected {m}")
    try:
        total = parse_class(record["total_class"], r, n)
        sk = parse_class(record["sigma_k_class"], r, n)
        sl = parse_class(record["sigma_l_class"], r, n)
    except (KeyError, TypeError, ValueError) as exc:
        return errors + [f"unreadable class: {exc!r}"]
    if add(sk, sl) != total:
        errors.append("sigma_k + sigma_l != total class")
    if record.get("identity_ok") is not True:
        errors.append(f"identity_ok = {record.get('identity_ok')!r}")
    if d - k == k and sk != sl:
        errors.append("k = l but sigma_k != sigma_l")
    r_d = comb(r + d, d)
    for name, cls in (("total", total), ("sigma_k", sk), ("sigma_l", sl)):
        if any(sum(lam) != r_d for lam in cls):
            errors.append(f"{name} class is not homogeneous of degree {r_d}")
    if m < 0:
        if total or sk or sl:
            errors.append(f"m = {m} < 0 but a class is nonzero")
        return errors
    expected = oracle.degrees(r, n, d, k)
    got = tuple(plucker_degree(c, r, n) for c in (total, sk, sl))
    if got != tuple(expected):
        errors.append(f"Pluecker degrees {got} != localization {tuple(expected)}")
    counted = ("total_count", "count_k", "count_l")
    if m == 0:
        try:
            counts = tuple(int(record[key]) for key in counted)
        except (KeyError, TypeError, ValueError) as exc:
            return errors + [f"unreadable count: {exc!r}"]
        if counts != got:
            errors.append(f"counts {counts} != integrals of the classes {got}")
        if counts != tuple(expected):
            errors.append(f"counts {counts} != localization {tuple(expected)}")
        if counts[1] + counts[2] != counts[0]:
            errors.append(f"count_k + count_l != total in {counts}")
        published = PUBLISHED.get(problem)
        if published is not None and counts != published:
            errors.append(f"counts {counts} != published {published}")
    elif any(key in record for key in counted):
        errors.append(f"m = {m} > 0 but counts are present")
    return errors


def check_swaps(records: dict[Problem, dict]) -> dict[Problem, list[str]]:
    """Compare each answer with that of the swapped split, when both exist."""
    errors: dict[Problem, list[str]] = {}
    for (r, n, d, k), record in records.items():
        other = records.get((r, n, d, d - k))
        if other is None or d - k == k:
            continue
        try:
            mine = [parse_class(record[key], r, n) for key in ("sigma_k_class", "sigma_l_class")]
            theirs = [parse_class(other[key], r, n) for key in ("sigma_l_class", "sigma_k_class")]
        except (KeyError, TypeError, ValueError):
            continue  # check_record reports unreadable classes
        if mine != theirs:
            errors.setdefault((r, n, d, k), []).append(
                f"components differ from the swapped split k={d - k}"
            )
    return errors
