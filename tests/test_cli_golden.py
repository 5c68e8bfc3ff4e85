"""Whole CLI outputs against stored goldens: exit code, stdout and stderr.

Refactors must keep every output byte-identical apart from ``timings``,
so a JSON record is compared with that key dropped and re-dumped with the
CLI's separators; text output and stderr are compared verbatim.  The
goldens live in ``cli_golden.json`` next to this file.  To regenerate them
after an intended change of output, run

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from schubfire.bundles import RANK_CAP_ENV
from schubfire.cli import _dump_json, main

GOLDEN = Path(__file__).with_name("cli_golden.json")

INVOCATIONS = [
    # count: m = 0, m > 0, generically empty
    ["count", "--r", "1", "--n", "3", "--d", "3"],
    ["count", "--r", "2", "--n", "7", "--d", "4", "--format", "json"],
    ["count", "--r", "1", "--n", "4", "--d", "3"],
    ["count", "--r", "1", "--n", "5", "--d", "3", "--format", "json"],
    ["count", "--r", "2", "--n", "4", "--d", "2", "--format", "json"],
    # split on all three routes, text and JSON
    ["split", "--r", "1", "--n", "3", "--d", "3", "--k", "1"],
    ["split", "--r", "1", "--n", "3", "--d", "3", "--k", "1", "--route", "pb", "--format", "json"],
    ["split", "--r", "1", "--n", "3", "--d", "3", "--k", "2", "--route", "both"],
    ["split", "--r", "3", "--n", "8", "--d", "3", "--k", "2", "--format", "json"],
    ["split", "--r", "3", "--n", "8", "--d", "3", "--k", "2", "--route", "pb"],
    ["split", "--r", "3", "--n", "8", "--d", "3", "--k", "1", "--route", "both", "--format", "json"],
    ["split", "--r", "1", "--n", "6", "--d", "4", "--k", "3", "--route", "direct"],
    ["split", "--r", "1", "--n", "6", "--d", "4", "--k", "3", "--route", "pb", "--format", "json"],
    ["split", "--r", "1", "--n", "6", "--d", "4", "--k", "1", "--route", "both"],
    # the first term of sigma_direct read off one root product: lines, and
    # a plane case whose second term is present, checked against the bundle route
    ["split", "--r", "1", "--n", "25", "--d", "47", "--k", "23"],
    ["split", "--r", "2", "--n", "12", "--d", "6", "--k", "3", "--route", "both"],
    # one of the heaviest reductions by the zeta relation on planes
    ["split", "--r", "2", "--n", "10", "--d", "5", "--k", "2", "--route", "pb", "--format", "json"],
    # class: ctop, chern and segre of nested expressions in both bases
    ["class", "--expr", "ctop(sym(2,Ustar))", "--r", "2", "--n", "6", "--basis", "chern"],
    ["class", "--expr", "ctop(sym(2,Ustar))", "--r", "2", "--n", "6"],
    ["class", "--expr", "ctop(sym(2,sym(2,Ustar)))", "--r", "1", "--n", "4", "--latex"],
    ["class", "--expr", "chern(2,dual(sym(2,Ustar)))", "--r", "1", "--n", "4", "--basis", "chern", "--latex"],
    ["class", "--expr", "chern(4,sym(2,sum(Ustar,dual(Ustar))))", "--r", "1", "--n", "5"],
    ["class", "--expr", "segre(3,sum(Ustar,sym(2,Ustar)))", "--r", "1", "--n", "5", "--basis", "chern"],
    ["class", "--expr", "segre(4,sym(2,dual(Ustar)))", "--r", "1", "--n", "5", "--latex"],
    ["class", "--expr", "segre(2,dual(sum(Ustar,Ustar)))", "--r", "2", "--n", "5", "--basis", "chern", "--format", "json"],
    ["class", "--expr", "chern(0,Ustar)", "--r", "1", "--n", "3", "--format", "json"],
    # segre of a power of U*: inverted on the free ring and for Sym^1; read
    # off the inverse table on a Grassmannian with k <= 3
    ["class", "--expr", "segre(6,sym(1,Ustar))", "--r", "2", "--n", "6"],
    ["class", "--expr", "segre(12,sym(2,Ustar))", "--r", "3", "--n", "9", "--basis", "chern"],
    ["class", "--expr", "segre(14,sym(3,Ustar))", "--r", "2", "--n", "8"],
    # tables with more base roots: a split with k = 5 and a Chern class with k = 6
    ["split", "--r", "4", "--n", "7", "--d", "2", "--k", "1", "--format", "json"],
    ["class", "--expr", "chern(8,sym(2,Ustar))", "--r", "5", "--n", "8"],
    # c_top of any expression is read by ctop_quotient: a sum and a dual,
    # and a count whose rank r_d = 10 is above dim = 6
    ["class", "--expr", "ctop(sum(Ustar,dual(Ustar)))", "--r", "2", "--n", "6"],
    ["class", "--expr", "ctop(dual(sym(2,Ustar)))", "--r", "2", "--n", "6", "--basis", "chern"],
    ["count", "--r", "2", "--n", "4", "--d", "3", "--format", "json"],
    # verify on a small grid
    ["verify", "--r-max", "2", "--n-max", "4", "--d-max", "3"],
    ["verify", "--r-max", "1", "--n-max", "4", "--d-max", "4", "--format", "json"],
    # errors: the rank cap (exit 3), a parse error and a bad range (exit 2)
    ["class", "--expr", "ctop(sym(70,Ustar))", "--r", "1", "--n", "3"],
    ["split", "--r", "1", "--n", "3", "--d", "64", "--k", "1", "--format", "json"],
    ["class", "--expr", "ctop(sym(2,Vstar))", "--r", "1", "--n", "3"],
    ["count", "--r", "3", "--n", "3", "--d", "2"],
]


def _normalize(stdout: str) -> str:
    """Drops the ``timings`` key of each JSON line; text lines stay as they are."""
    lines = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            record.pop("timings", None)
            line = _dump_json(record)
        lines.append(line)
    return "\n".join(lines) + ("\n" if stdout.endswith("\n") else "")


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": _normalize(out.getvalue()), "stderr": err.getvalue()}


def _goldens() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_goldens_cover_every_invocation():
    assert [g["argv"] for g in _goldens()] == INVOCATIONS


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_cli_output_matches_golden(monkeypatch, argv):
    monkeypatch.delenv(RANK_CAP_ENV, raising=False)
    golden = next(g for g in _goldens() if g["argv"] == argv)
    assert _run(argv) == golden


if __name__ == "__main__":
    os.environ.pop(RANK_CAP_ENV, None)
    GOLDEN.write_text(json.dumps([_run(argv) for argv in INVOCATIONS], indent=1) + "\n")
