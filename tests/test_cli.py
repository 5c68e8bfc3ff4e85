"""Command-line interface: outputs, formats, exit codes."""

import json
import time

import pytest

from schubfire.chow import GrassCtx
from schubfire.cli import main, parse_class_expr
from schubfire.errors import ExprParseError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "--r", "1", "--n", "3", "--d", "3")
    assert code == 0
    assert "total count: 27" in out
    assert "27*s[2,2]" in out


def test_count_json_and_round_trip(capsys):
    code, out, _ = run(
        capsys, "count", "--r", "2", "--n", "7", "--d", "4", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["total_count"] == "3297280"
    assert record["m"] == 0
    assert record["generically_empty"] is False
    # canonical serialization round-trips byte for byte
    assert json.dumps(record, separators=(", ", ": ")) == out.strip()


def test_count_empty_case(capsys):
    code, out, _ = run(
        capsys, "count", "--r", "2", "--n", "4", "--d", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["generically_empty"] is True
    assert record["total_class"] == []
    assert record["total_count"] == "0"


def test_text_and_json_agree(capsys):
    _, text_out, _ = run(capsys, "split", "--r", "1", "--n", "3", "--d", "3", "--k", "1")
    _, json_out, _ = run(
        capsys,
        "split", "--r", "1", "--n", "3", "--d", "3", "--k", "1",
        "--format", "json",
    )
    record = json.loads(json_out)
    assert record["count_k"] == "15" and record["count_l"] == "12"
    assert "counts: total 27 = 15 + 12" in text_out
    assert record["identity_ok"] is True


def test_split_example4(capsys):
    code, out, _ = run(
        capsys,
        "split", "--r", "3", "--n", "8", "--d", "3", "--k", "2",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["count_k"] == "0"
    assert record["count_l"] == "321489"
    assert record["identity_ok"] is True


def test_split_route_both(capsys):
    code, out, _ = run(
        capsys,
        "split", "--r", "1", "--n", "3", "--d", "3", "--k", "1",
        "--route", "both", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["route"] == "both"
    assert record["count_k"] == "15"


def test_class_chern_basis(capsys):
    code, out, _ = run(
        capsys,
        "class", "--expr", "ctop(sym(2,Ustar))", "--r", "2", "--n", "6",
        "--basis", "chern",
    )
    assert code == 0
    assert out.strip() == "8*c1*c2*c3 - 8*c3^2"


def test_class_schubert_basis(capsys):
    code, out, _ = run(
        capsys,
        "class", "--expr", "ctop(sym(2,Ustar))", "--r", "2", "--n", "6",
    )
    assert code == 0
    assert out.strip() == "8*s[3,2,1]"
    code, out, _ = run(
        capsys,
        "class", "--expr", "ctop(sym(2,Ustar))", "--r", "2", "--n", "4",
    )
    assert out.strip() == "0"


def test_class_segre(capsys):
    code, out, _ = run(
        capsys,
        "class", "--expr", "segre(3,Ustar)", "--r", "2", "--n", "6",
        "--basis", "chern",
    )
    assert code == 0
    assert out.strip() == "-c1^3 + 2*c1*c2 - c3"


def test_class_latex(capsys):
    code, out, _ = run(
        capsys,
        "class", "--expr", "ctop(sym(2,Ustar))", "--r", "2", "--n", "6",
        "--basis", "chern", "--latex",
    )
    assert code == 0
    assert out.strip() == "8\\,{c_1}\\,{c_2}\\,{c_3}-8\\,{c_3}^{2}"


def test_class_json(capsys):
    code, out, _ = run(
        capsys,
        "class", "--expr", "chern(1,sym(2,Ustar))", "--r", "2", "--n", "6",
        "--basis", "chern", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["class"] == [{"monomial": [1, 0, 0], "coeff": "4"}]


def test_class_chern_above_the_rank_is_zero_without_work(capsys):
    # c_i of an honest bundle vanishes above its rank; a huge i must not
    # size the ring
    started = time.perf_counter()
    code, out, _ = run(
        capsys,
        "class", "--expr", "chern(100000000,Ustar)", "--r", "3", "--n", "5",
        "--basis", "chern", "--format", "json",
    )
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert json.loads(out)["class"] == []
    for expr, r in (("chern(10,Ustar)", "3"), ("chern(7,sym(2,Ustar))", "1")):
        code, out, _ = run(
            capsys,
            "class", "--expr", expr, "--r", r, "--n", "5", "--basis", "chern",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["class"] == []


def test_expr_parser_errors():
    with pytest.raises(ExprParseError):
        parse_class_expr("ctop(sym(2,Ustar)")
    with pytest.raises(ExprParseError):
        parse_class_expr("sym(2,Ustar)")
    with pytest.raises(ExprParseError):
        parse_class_expr("ctop(mystery)")
    with pytest.raises(ExprParseError):
        parse_class_expr("ctop(sym(x,Ustar))")
    with pytest.raises(ExprParseError):
        parse_class_expr("ctop(sym(2,Ustar)) trailing")


@pytest.mark.parametrize("basis", ["schubert", "chern"])
@pytest.mark.parametrize("latex", [False, True])
def test_class_unit_class_prints_1(capsys, basis, latex):
    code, out, _ = run(
        capsys,
        "class", "--expr", "chern(0,sum(Ustar,Ustar))", "--r", "1", "--n", "5",
        "--basis", basis, *(["--latex"] if latex else []),
    )
    assert code == 0
    assert out == "1\n"


@pytest.mark.parametrize(
    "expr, expected",
    [
        ("segre(3,Ustar)", "-\\sigma_{3}"),
        ("chern(2,sym(3,Ustar))", "21\\,\\sigma_{1,1}+11\\,\\sigma_{2}"),
    ],
)
def test_class_schubert_latex(capsys, expr, expected):
    code, out, _ = run(capsys, "class", "--expr", expr, "--r", "1", "--n", "5", "--latex")
    assert code == 0
    assert out.strip() == expected


def test_class_nesting_is_bounded(capsys):
    deep = "ctop(" + "dual(" * 3000 + "Ustar" + ")" * 3001
    code, out, err = run(capsys, "class", "--expr", deep, "--r", "2", "--n", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    nested = "ctop(" + "dual(" * 50 + "Ustar" + ")" * 51
    code, out, _ = run(capsys, "class", "--expr", nested, "--r", "2", "--n", "5")
    assert code == 0
    assert out.strip() == "s[1,1,1]"


def test_verify_sweep(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--r-max", "1", "--n-max", "4", "--d-max", "4",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert record["failures"] == 0
    assert all(entry.get("identity_ok", True) for entry in record["grid"])


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "--r-max", "1", "--n-max", "3", "--d-max", "3")
    assert code == 0
    assert "failures: 0" in out
    assert "r=1 n=3 d=3 k=1: ok" in out


@pytest.mark.parametrize(
    "bounds", [("0", "5", "3"), ("-5", "5", "3"), ("1", "1", "3"), ("2", "5", "1")]
)
def test_verify_on_an_empty_grid_is_a_usage_error(capsys, bounds):
    r_max, n_max, d_max = bounds
    code, out, err = run(
        capsys, "verify", "--r-max", r_max, "--n-max", n_max, "--d-max", d_max
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: empty grid")


def test_exit_code_usage():
    code = main(["count", "--r", "3", "--n", "3", "--d", "2"])
    assert code == 2
    code = main(["class", "--expr", "nonsense(", "--r", "1", "--n", "3"])
    assert code == 2


def test_exit_code_guardrail(monkeypatch, capsys):
    monkeypatch.setenv("SCHUBFIRE_RANK_CAP", "3")
    code, _, err = run(capsys, "count", "--r", "1", "--n", "3", "--d", "3")
    assert code == 3
    assert "cap" in err


def test_exit_code_verification_failure(monkeypatch, capsys):
    # wire check: a route disagreement must surface as exit code 4
    import schubfire.limiting as limiting

    monkeypatch.setattr(
        limiting, "sigma_pb", lambda r, n, d, k: GrassCtx(r, n).zero()
    )
    code, _, err = run(
        capsys, "split", "--r", "1", "--n", "3", "--d", "3", "--k", "1",
        "--route", "both",
    )
    assert code == 4
    assert "disagree" in err


def test_exit_code_verify_sweep_failure(monkeypatch, capsys):
    import schubfire.cli as cli

    monkeypatch.setattr(cli, "verify_identity", lambda r, n, d, k: False)
    code, out, _ = run(capsys, "verify", "--r-max", "1", "--n-max", "3", "--d-max", "2")
    assert code == 4
    assert "FAIL" in out


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--r", "1"])
    assert exc.value.code == 2


def test_verify_skips_guardrailed_points(monkeypatch, capsys):
    monkeypatch.setenv("SCHUBFIRE_RANK_CAP", "3")
    code, out, _ = run(
        capsys, "verify", "--r-max", "1", "--n-max", "3", "--d-max", "3",
        "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert any(entry.get("skipped") for entry in record["grid"])


@pytest.mark.parametrize("expr", ["ctop(sym(3,Ustar))", "ctop(sym(2,sym(2,Ustar)))"])
@pytest.mark.parametrize("basis", ["schubert", "chern"])
def test_class_applies_the_rank_cap(monkeypatch, capsys, expr, basis):
    # ranks 4 and 6 (the outer power of the nested expression) exceed 3
    monkeypatch.setenv("SCHUBFIRE_RANK_CAP", "3")
    code, out, err = run(
        capsys, "class", "--expr", expr, "--r", "1", "--n", "3", "--basis", basis
    )
    assert code == 3
    assert "cap" in err
    assert out == ""


@pytest.mark.parametrize("power", ["9999", "99999"])
def test_class_nested_huge_powers_exit_3_fast(capsys, power):
    # the inner power is checked first, and no binomial with thousands of
    # digits is formed or printed
    started = time.perf_counter()
    code, out, err = run(
        capsys, "class", "--expr", f"ctop(sym({power},sym({power},Ustar)))",
        "--r", "2", "--n", "5",
    )
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert err.startswith("error:") and out == ""


def test_class_rank_cap_names_the_inner_power(capsys):
    code, _, err = run(
        capsys, "class", "--expr", "ctop(sym(2,sym(99999,Ustar)))", "--r", "2", "--n", "5"
    )
    assert code == 3
    assert "degree-99999 symmetric power" in err


@pytest.mark.parametrize("command", [["count"], ["split", "--k", "1"]])
def test_huge_degree_and_dimension_exit_3_fast(capsys, command):
    started = time.perf_counter()
    code, out, err = run(
        capsys, *command, "--r", "99999", "--n", "100000", "--d", "99999"
    )
    assert time.perf_counter() - started < 1.0
    assert code == 3
    assert err.startswith("error:") and out == ""
