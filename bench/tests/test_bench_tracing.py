"""Span arithmetic of the tracer, and a traced CLI run end to end."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parents[1]


def fake_clock(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))


def test_self_time_excludes_children(monkeypatch):
    fake_clock(monkeypatch)
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner())
    outer()  # outer 1..4, inner 2..3
    spans = tracer.summary()["spans"]
    assert spans["inner"] == {"calls": 1, "incl_s": 1.0, "self_s": 1.0}
    assert spans["outer"] == {"calls": 1, "incl_s": 3.0, "self_s": 2.0}


def test_recursion_is_counted_once_inclusive(monkeypatch):
    fake_clock(monkeypatch)
    tracer = tracing.Tracer()

    def f(n):
        return n and traced(n - 1)

    traced = tracer.wrap("f", f)
    traced(1)  # f(1) 1..4, f(0) 2..3
    assert tracer.summary()["spans"]["f"] == {"calls": 2, "incl_s": 3.0, "self_s": 3.0}


def test_traced_cli_run():
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "cli", "--trace",
         "split", "--r", "1", "--n", "3", "--d", "3", "--k", "1", "--format", "json"],
        capture_output=True, text=True, env=env, check=True, timeout=60,
    ).stdout.splitlines()
    record = json.loads(out[0])
    assert (record["count_k"], record["count_l"]) == ("15", "12")
    trace = json.loads(out[-1].removeprefix("TRACE "))
    lr = trace["caches"]["schubfire.partitions._lr"]
    # Every pair of terms in a Chow product is one kernel lookup.
    assert trace["counters"]["chow.mul_term_pairs"] == lr["hits"] + lr["misses"]
    assert trace["spans"]["cli.serialize_class"]["calls"] == 3
    assert trace["spans"]["limiting.total_class"]["calls"] == 1
    names = {span[0] for span in trace["kept_spans"]}
    assert {"limiting.total_class", "limiting.sigma_direct", "bundles.sym_chern"} <= names
