"""The record classes: ring contexts, bundle expressions, problem
parameters and split results compare, hash, print and refuse assignment as
values; and importing the CLI loads no code generator for them."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from schubfire.bundles import ChernCtx, ChernPoly, direct_sum, dual, sym, total_chern, ustar
from schubfire.chow import ChowClass, GrassCtx
from schubfire.limiting import ProblemParams, split
from schubfire.projbundle import PBCtx

SRC = Path(__file__).resolve().parents[1] / "src"


def records():
    """Two equal instances, built apart, of each immutable record class."""
    return [
        (GrassCtx(3, 8), GrassCtx(3, 8)),
        (ChernCtx(3, 8), ChernCtx(3, 8)),
        (sym(2, dual(ustar())), sym(2, dual(ustar()))),
        (direct_sum(ustar(), sym(3, ustar())), direct_sum(ustar(), sym(3, ustar()))),
        (PBCtx(GrassCtx(2, 5), sym(2, ustar())), PBCtx(GrassCtx(2, 5), sym(2, ustar()))),
        (ProblemParams(1, 3, 3, 1), ProblemParams(1, 3, 3, 1)),
        (ProblemParams(1, 3, 3), ProblemParams(1, 3, 3)),
    ]


def test_equal_records_hash_equal():
    for a, b in records():
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_records_differ_by_type_and_by_each_field():
    assert GrassCtx(3, 8) != ChernCtx(3, 8)
    assert len({GrassCtx(3, 8), ChernCtx(3, 8)}) == 2
    assert GrassCtx(3, 8) != (3, 8) and GrassCtx(3, 8) != GrassCtx(3, 9)
    assert ChernCtx(3, 8) != ChernCtx(2, 8)
    assert sym(2, ustar()) != sym(3, ustar()) and sym(2, ustar()) != dual(ustar())
    assert ProblemParams(1, 3, 3, 1) != ProblemParams(1, 3, 3, 2)
    assert ProblemParams(1, 3, 3, 1) != ProblemParams(1, 3, 3)
    base = GrassCtx(2, 5)
    assert PBCtx(base, sym(2, ustar())) != PBCtx(base, sym(3, ustar()))
    assert PBCtx(base, sym(2, ustar())) != PBCtx(GrassCtx(2, 6), sym(2, ustar()))


def test_each_ring_gets_its_own_series():
    # The series memo is keyed by the ring: were GrassCtx(3, 8) equal to
    # ChernCtx(3, 8), the second call would return the first ring's classes.
    e = sym(2, ustar())
    assert all(type(c) is ChowClass for c in total_chern(e, GrassCtx(3, 8)))
    assert all(type(c) is ChernPoly for c in total_chern(e, ChernCtx(3, 8)))
    assert all(type(c) is ChowClass for c in total_chern(e, GrassCtx(3, 8)))


def test_records_refuse_assignment_and_deletion():
    for a, _ in records():
        name = next(iter(vars(a)))
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 0
    g = GrassCtx(3, 8)
    with pytest.raises(AttributeError):
        g.r = 4
    assert g == GrassCtx(3, 8) and g.r == 3


def test_record_reprs():
    g = GrassCtx(3, 8)
    assert repr(g) == "GrassCtx(r=3, n=8)"
    assert repr(ChernCtx(3, 8)) == "ChernCtx(k=3, top_degree=8)"
    assert repr(sym(2, ustar())) == "sym(2,Ustar)"
    assert repr(direct_sum(ustar(), dual(ustar()))) == "sum(Ustar,dual(Ustar))"
    assert repr(PBCtx(g, sym(2, ustar()))) == "PBCtx(base=GrassCtx(r=3, n=8), bundle=sym(2,Ustar))"
    assert repr(ProblemParams(1, 3, 3)) == "ProblemParams(r=1, n=3, d=3, k=None)"


def test_pbctx_compares_by_base_and_bundle_only():
    a = PBCtx(GrassCtx(2, 5), sym(2, ustar()))
    b = PBCtx(GrassCtx(2, 5), sym(2, ustar()))
    assert a.rank == 6 and len(a.chern_e) == 7
    # Derived data set at construction takes no part in ==, hash or repr.
    object.__setattr__(b, "rank", 0)
    object.__setattr__(b, "chern_e", ())
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_records_survive_copy_and_pickle():
    for a, _ in records():
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert twin == a and hash(twin) == hash(a) and repr(twin) == repr(a)


def test_constructor_defaults_and_validation():
    assert sym(3, ustar()) == sym(3, ustar())
    assert ustar().children == () and ustar().power == 0
    assert ProblemParams(1, 3, 3).k is None and ProblemParams(1, 3, 3).l is None
    assert ProblemParams(r=1, n=3, d=3, k=1).l == 2
    for args, message in [
        ((2, 2, 3), "need 0 <= r < n, got r=2, n=2"),
        ((1, 3, 0), "degree must be positive, got d=0"),
        ((1, 3, 3, 3), "split degree must satisfy 1 <= k <= d-1, got k=3"),
        ((1, 3, 3, 0), "split degree must satisfy 1 <= k <= d-1, got k=0"),
    ]:
        with pytest.raises(ValueError) as err:
            ProblemParams(*args)
        assert str(err.value) == message
    with pytest.raises(ValueError, match=r"need 0 <= r < n, got r=3, n=3"):
        GrassCtx(3, 3)
    with pytest.raises(ValueError, match="need k >= 1 and top_degree >= 0, got 0 and 4"):
        ChernCtx(0, 4)


def test_split_result_fields_by_name():
    res = split(1, 3, 3, 1)
    assert (res.r, res.n, res.d, res.k, res.l, res.m) == (1, 3, 3, 1, 2, 0)
    assert (res.count_total, res.count_k, res.count_l) == (27, 15, 12)
    assert res.sigma_k + res.sigma_l == res.total
    assert res.identity_ok is True and res.status == "ok"


def test_importing_the_cli_loads_no_code_generator():
    # -S skips site, so the modules loaded are the package's own imports and
    # theirs; dataclasses would pull in inspect (and ast, dis, tokenize).
    code = "import schubfire.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"
