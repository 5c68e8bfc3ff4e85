"""The library contract: the names ``schubfire`` exports."""

import schubfire
from schubfire import chow, errors, sympoly


def test_every_exported_name_resolves():
    assert len(set(schubfire.__all__)) == len(schubfire.__all__)
    namespace = {}
    exec("from schubfire import *", namespace)
    for name in schubfire.__all__:
        assert namespace[name] is getattr(schubfire, name), name


def test_schur_expansions_have_one_read_off():
    # A Schur expansion reaches a ring only through its schur_class; the
    # second read-off and the symmetry check only it used are gone.
    for name in ("schur_expand", "NonSymmetricInputError"):
        assert name not in schubfire.__all__
        assert not hasattr(schubfire, name)
    assert not hasattr(chow, "schur_expand")
    assert not hasattr(errors, "NonSymmetricInputError")
    assert not hasattr(sympoly, "check_symmetric")
    assert not hasattr(chow.GrassCtx, "point_class")
