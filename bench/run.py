"""Benchmark for schubfire: time and memory to answer split problems.

    python3 bench/run.py --workload cold-tables --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a checkout; schubfire is imported from its ``src``.
Every problem is solved in a child process, one at a time:

* ``cold-tables`` and ``cold-kernel`` run ``python -m schubfire split ...
  --format json`` once per problem per round, each in a fresh interpreter,
  in an order shuffled by the seed;
* ``sweep-both`` runs ``bench/child.py sweep``, which calls
  ``split(r, n, d, k, route="both")`` over a 406-point grid in one process
  with the caches shared across points; the seed permutes the order of the
  three rank blocks, which share no cache entries.

Rounds repeat until the next one would end after ``--seconds`` of
measuring.  Every answer is checked (``checks.py``) against localization
(``oracle.py``) and the class properties; a child that fails or answers
wrongly counts as a failed operation, and a wrong answer also makes
``correct`` false.

With ``--trace 0`` the last line of output is one JSON object with the
end-to-end metrics; with ``--trace 1`` every child wraps the layer
boundaries (``tracing.py``) and the object holds the per-layer metrics.
Raw samples and traces go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

COLD = {
    # The symmetric-power tables (bundles, sympoly) dominate these.
    "cold-tables": [(3, 8, 3, 1), (3, 8, 3, 2), (3, 10, 3, 1), (2, 12, 6, 3), (2, 9, 5, 2), (4, 7, 2, 1)],
    # Lines: rank-2 tables are cheap and the LR kernel (partitions, chow) dominates.
    "cold-kernel": [(1, 25, 47, 23), (1, 26, 47, 23), (1, 20, 37, 1), (1, 22, 40, 20)],
}
SWEEP = "sweep-both"
SWEEP_GRID = {1: (12, 8), 2: (10, 5), 3: (9, 3)}  # r -> (largest n, largest d)
SETUP_PER_ROUND = 2
OP_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # start no round that would end after this
HARD_LIMIT_S = 170.0  # kill a child still running this long after the start


class ChildRun(NamedTuple):
    wall_s: float
    rss_kb: int
    code: int
    out: str
    err: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("SCHUBFIRE_RANK_CAP", None)
    return env


def spawn(argv: list[str], stdin: bytes | None = None, timeout: float = OP_TIMEOUT_S) -> ChildRun:
    """Run one child to its end; wall time from start to reaping, and its peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    return ChildRun(wall, usage.ru_maxrss, proc.returncode, out.decode(), err.decode())


def setup_time() -> float:
    """Wall time of a fresh interpreter importing schubfire.cli."""
    run = spawn([sys.executable, "-c", "import schubfire.cli"])
    if run.code != 0:
        raise RuntimeError(f"import schubfire.cli failed: {run.err.strip()}")
    return run.wall_s


def sweep_points(rng: random.Random) -> list[tuple[int, int, int, int]]:
    blocks = []
    for r, (n_max, d_max) in SWEEP_GRID.items():
        blocks.append(
            [
                (r, n, d, k)
                for n in range(r + 1, n_max + 1)
                for d in range(2, d_max + 1)
                for k in range(1, d)
            ]
        )
    rng.shuffle(blocks)
    return [p for block in blocks for p in block]


class Op(NamedTuple):
    problem: tuple[int, int, int, int]
    errors: list[str]
    wrong: bool  # the answer was read and is wrong (not a crash)
    record: dict | None


def _failed(problem, message: str) -> Op:
    return Op(problem, [message], False, None)


def cold_round(problems, traced: bool, deadline: float) -> dict:
    ops, samples, traces = [], [], []
    for problem in problems:
        r, n, d, k = problem
        args = ["split", "--r", str(r), "--n", str(n), "--d", str(d), "--k", str(k), "--format", "json"]
        if traced:
            argv = [sys.executable, str(BENCH / "child.py"), "cli", "--trace", *args]
        else:
            argv = [sys.executable, "-m", "schubfire", *args]
        run = spawn(argv, timeout=min(OP_TIMEOUT_S, deadline - time.perf_counter()))
        samples.append({"problem": problem, "wall_s": run.wall_s, "rss_kb": run.rss_kb, "code": run.code})
        lines = run.out.splitlines()
        if run.code != 0 or not lines:
            ops.append(_failed(problem, f"exit {run.code}: {run.err.strip()[-500:]}"))
            continue
        try:
            record = json.loads(lines[0])
            if traced:
                traces.append(json.loads(lines[-1].removeprefix("TRACE ")))
        except json.JSONDecodeError as exc:
            ops.append(_failed(problem, f"unreadable output: {exc}"))
            continue
        ops.append(Op(problem, [], False, record))
    return {"ops": ops, "samples": samples, "traces": traces}


def sweep_round(points, traced: bool, deadline: float) -> dict:
    argv = [sys.executable, str(BENCH / "child.py"), "sweep"] + (["--trace"] if traced else [])
    run = spawn(argv, stdin=json.dumps(points).encode(), timeout=deadline - time.perf_counter())
    lines = run.out.splitlines()
    try:
        if run.code != 0 or len(lines) != len(points) + 1:
            raise ValueError(f"exit {run.code}, {len(lines)} lines: {run.err.strip()[-500:]}")
        tail = json.loads(lines[-1].removeprefix("SWEEP "))
        records = [json.loads(line) for line in lines[:-1]]
    except (ValueError, json.JSONDecodeError) as exc:
        return {"ops": [_failed(p, f"sweep child failed: {exc}") for p in points], "samples": [], "traces": []}
    ops = []
    for point, record in zip(points, records):
        if "error" in record:
            ops.append(_failed(point, record["error"]))
        else:
            ops.append(Op(point, [], False, record))
    sample = {"loop_s": tail["loop_s"], "rss_kb": run.rss_kb, "point_s": tail["point_s"]}
    return {"ops": ops, "samples": [sample], "traces": [tail["trace"]] if traced else []}


def check_round(ops: list[Op]) -> list[Op]:
    """Run every check on every answer that was read."""
    answered = {op.problem: op.record for op in ops if op.record is not None}
    swaps = checks.check_swaps(answered)
    out = []
    for op in ops:
        if op.record is None:
            out.append(op)
            continue
        errors = checks.check_record(op.problem, op.record) + swaps.get(op.problem, [])
        out.append(Op(op.problem, errors, bool(errors), None))
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool, began: float) -> list[dict]:
    rng = random.Random(seed)
    points = sweep_points(rng) if workload == SWEEP else None
    deadline = began + HARD_LIMIT_S
    if not traced:
        setup_time()  # writes the bytecode that every later start reads
    rounds: list[dict] = []
    spent = 0.0
    while not rounds or (
        spent * (len(rounds) + 1) / len(rounds) <= seconds
        and time.perf_counter() - began + spent / len(rounds) <= RUN_LIMIT_S
    ):
        start = time.perf_counter()
        # Set-up is sampled in every round, so it sees the same machine as the problems.
        setup = [] if traced else [setup_time() for _ in range(SETUP_PER_ROUND)]
        if points is None:
            problems = list(COLD[workload])
            rng.shuffle(problems)
            result = cold_round(problems, traced, deadline)
        else:
            result = sweep_round(points, traced, deadline)
        spent += time.perf_counter() - start
        result["setup"] = setup
        result["ops"] = check_round(result["ops"])
        rounds.append(result)
    return rounds


def end_to_end(workload: str, rounds: list[dict]) -> dict:
    setup = [t for rnd in rounds for t in rnd["setup"]]
    if workload == SWEEP:
        samples = [s for rnd in rounds for s in rnd["samples"]]
        wall = statistics.median(s["loop_s"] for s in samples)
        # Every round runs the points in the same order.
        slowest = max(statistics.median(times) for times in zip(*(s["point_s"] for s in samples)))
        rss_kb = statistics.median(s["rss_kb"] for s in samples)
    else:
        failed = {(op.problem, i) for i, rnd in enumerate(rounds) for op in rnd["ops"] if op.errors}
        per_problem: dict = {}
        for i, rnd in enumerate(rounds):
            for s in rnd["samples"]:
                if (s["problem"], i) not in failed:
                    per_problem.setdefault(s["problem"], []).append(s)
        medians = [statistics.median(s["wall_s"] for s in v) for v in per_problem.values()]
        wall = sum(medians)
        slowest = max(medians)
        rss_kb = max(statistics.median(s["rss_kb"] for s in v) for v in per_problem.values())
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "slowest_problem_s": slowest,
        "peak_rss_mb": rss_kb / 1024,
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics of one pass over a workload (one summary per process)."""

    def span(field: str, *names: str) -> float:
        return sum(s["spans"].get(name, {}).get(field, 0.0) for s in summaries for name in names)

    def counter(name: str) -> int:
        return sum(s["counters"].get(name, 0) for s in summaries)

    def cache(name: str, field: str) -> int:
        return sum(s["caches"].get(name, {}).get(field, 0) for s in summaries)

    lr_hits = cache("schubfire.partitions._lr", "hits")
    lr_lookups = lr_hits + cache("schubfire.partitions._lr", "misses")
    chern_hits = cache("schubfire.limiting._sym_ustar_chern", "hits")
    chern_lookups = chern_hits + cache("schubfire.limiting._sym_ustar_chern", "misses")
    return {
        "partitions.kernel_s": span("incl_s", "partitions.lr"),
        "partitions.lr_evaluations": cache("schubfire.partitions._lr", "misses"),
        "partitions.lr_lookups": lr_lookups,
        "partitions.lr_hit_ratio": _ratio(lr_hits, lr_lookups),
        "partitions.pieri_evaluations": cache("schubfire.partitions._pieri", "misses"),
        "chow.mul_calls": counter("chow.mul_calls"),
        "chow.mul_term_pairs": counter("chow.mul_term_pairs"),
        "chow.mul_self_s": span("self_s", "chow.mul"),
        "projbundle.mul_calls": counter("projbundle.mul_calls"),
        "projbundle.self_s": span("self_s", "projbundle.mul", "projbundle.pushforward"),
        "sympoly.straighten_s": span("incl_s", "sympoly.m_to_elementary", "sympoly.m_to_schur"),
        "sympoly.e_expansions": cache("schubfire.sympoly.e_monomial_m_expansion", "misses"),
        "bundles.sym_table_s": span("incl_s", "bundles.sym_chern"),
        "bundles.sym_tables_built": counter("bundles.sym_tables_built"),
        "bundles.series_self_s": span("self_s", "bundles.total_chern", "bundles.segre"),
        "limiting.total_class_s": span("incl_s", "limiting.total_class"),
        "limiting.sigma_direct_s": span("incl_s", "limiting.sigma_direct"),
        "limiting.sigma_pb_s": span("incl_s", "limiting.sigma_pb"),
        "limiting.chern_cache_hit_ratio": _ratio(chern_hits, chern_lookups),
        "limiting.chern_cache_lookups": chern_lookups,
        "limiting.memo_entries": max(
            sum(c["entries"] for c in s["caches"].values()) for s in summaries
        ),
        "cli.render_s": span("incl_s", "cli.serialize_class", "chow.serialize_class", "cli.dump_json"),
    }


def per_layer(rounds: list[dict]) -> dict:
    """Median over passes; the counts are the same in every pass and stay integers."""
    passes = [layer_metrics(rnd["traces"]) for rnd in rounds if rnd["traces"]]
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        exact = all(isinstance(v, int) for v in values)
        out[name] = statistics.median_low(values) if exact else statistics.median(values)
    return out


def traced_wall(workload: str, rounds: list[dict]) -> float:
    if workload == SWEEP:
        return statistics.median(s["loop_s"] for rnd in rounds for s in rnd["samples"])
    return statistics.median(sum(s["wall_s"] for s in rnd["samples"]) for rnd in rounds)


def declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def write_raw(name: str, payload: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(payload))


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Measure one workload, print its metrics by name, return the result object."""
    began = time.perf_counter()
    units = declared_units("per_layer" if traced else "end_to_end")
    rounds = measure(workload, seed, seconds, traced, began)
    metrics = per_layer(rounds) if traced else end_to_end(workload, rounds)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")

    ops = [op for rnd in rounds for op in rnd["ops"]]
    failed = [op for op in ops if op.errors]
    write_raw(
        f"{workload}-seed{seed}-trace{int(traced)}.json",
        {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "rounds": [{k: rnd[k] for k in ("setup", "samples", "traces")} for rnd in rounds],
            "failed": [{"problem": op.problem, "errors": op.errors} for op in failed],
            "metrics": metrics,
        },
    )
    for op in failed[:10]:
        print(f"FAILED {op.problem}: {'; '.join(op.errors)}")
    print(f"{workload}: {len(rounds)} rounds, {len(ops)} problems, {len(failed)} failed")
    if traced:
        print(f"traced wall_s {traced_wall(workload, rounds):.4f} s")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*COLD, SWEEP, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schubfire" / "__init__.py").is_file():
        print(f"error: no schubfire sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    # Every workload in turn; the last line merges them, metrics named workload/metric.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (*COLD, SWEEP):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
