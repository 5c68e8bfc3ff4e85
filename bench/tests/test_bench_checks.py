"""The answer checks and the harness report corrupted answers as failures."""

import copy
import json
import random
from pathlib import Path

import pytest

import checks
import child
import run
import tracing
from schubfire import limiting

ROOT = Path(__file__).resolve().parents[2]


def record_of(r, n, d, k):
    return child.answer_record(limiting.split(r, n, d, k))


@pytest.mark.parametrize("problem", [(1, 3, 3, 1), (2, 7, 4, 2), (1, 4, 3, 1), (1, 3, 4, 1)])
def test_correct_answers_pass(problem):
    assert checks.check_record(problem, record_of(*problem)) == []


def bump_coefficient(rec, key):
    rec[key][0]["coeff"] = str(int(rec[key][0]["coeff"]) + 1)


CORRUPTIONS = {
    "total class": lambda rec: bump_coefficient(rec, "total_class"),
    "component class": lambda rec: bump_coefficient(rec, "sigma_k_class"),
    "both components": lambda rec: (
        bump_coefficient(rec, "sigma_k_class"),
        rec["sigma_l_class"][0].update(coeff=str(int(rec["sigma_l_class"][0]["coeff"]) - 1)),
    ),
    "count": lambda rec: rec.update(count_l=str(int(rec["count_l"]) + 1)),
    "missing count": lambda rec: rec.pop("count_k"),
    "partition outside the box": lambda rec: rec["total_class"][0].update(partition=[9, 9]),
    "identity flag": lambda rec: rec.update(identity_ok=False),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corrupted_answer_is_a_failed_operation(name):
    problem = (1, 3, 3, 1)
    rec = record_of(*problem)
    CORRUPTIONS[name](rec)
    ops = run.check_round([run.Op(problem, [], False, rec)])
    assert ops[0].errors and ops[0].wrong


def test_corrupted_class_at_positive_dimension_is_caught():
    problem = (1, 4, 3, 1)  # m = 2: checked by Pluecker degree
    rec = record_of(*problem)
    bump_coefficient(rec, "sigma_l_class")
    bump_coefficient(rec, "total_class")
    assert checks.check_record(problem, rec)


def test_published_values_are_checked():
    problem = (2, 7, 4, 2)
    rec = record_of(*problem)
    assert checks.check_record(problem, rec) == []
    bad = dict(checks.PUBLISHED)
    bad[problem] = (3297280, 1648641, 1648639)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "PUBLISHED", bad)
        assert checks.check_record(problem, rec)


def test_swapped_components_must_match():
    a, b = record_of(1, 3, 3, 1), record_of(1, 3, 3, 2)
    assert checks.check_swaps({(1, 3, 3, 1): a, (1, 3, 3, 2): b}) == {}
    b = copy.deepcopy(b)
    b["sigma_k_class"], b["sigma_l_class"] = b["sigma_l_class"], b["sigma_k_class"]
    assert set(checks.check_swaps({(1, 3, 3, 1): a, (1, 3, 3, 2): b})) == {(1, 3, 3, 1), (1, 3, 3, 2)}


def test_crash_is_failed_but_not_wrong():
    ops = run.check_round([run._failed((1, 3, 3, 1), "exit 1")])
    assert ops[0].errors and not ops[0].wrong


def test_sweep_grid():
    points = run.sweep_points(random.Random(0))
    assert len(points) == 406 == len(set(points))
    assert sum(1 for r, n, d, k in points if checks.oracle.expected_dim(r, n, d) == 0) == 22
    other = run.sweep_points(random.Random(5))
    assert sorted(other) == sorted(points)
    # The seed reorders whole rank blocks only.
    assert [p for p in other if p[0] == 2] == [p for p in points if p[0] == 2]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = tracing.Tracer()
    summary = tracer.summary()
    assert set(run.layer_metrics([summary])) == {m["name"] for m in spec["per_layer"]}
    sample = {"problem": (1, 3, 3, 1), "wall_s": 1.0, "rss_kb": 1024, "code": 0}
    rounds = [{"setup": [0.1], "samples": [sample], "ops": []}]
    assert set(run.end_to_end("cold-tables", rounds)) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == {*run.COLD, run.SWEEP}
