"""The process that solves: one traced CLI call, or the in-process sweep.

    python bench/child.py cli [--trace] split --r 3 --n 8 --d 3 --k 1 --format json
    python bench/child.py sweep [--trace] < points.json

``cli`` runs ``schubfire.cli.main`` on the remaining arguments; with
``--trace`` it then prints one line ``TRACE <json>`` after the CLI output.

``sweep`` reads a JSON list of [r, n, d, k] points, times
``split(r, n, d, k, route="both")`` on each in turn with the caches shared
across points, and prints one JSON answer per line (the record the CLI
would print, built with ``serialize_class``), then a line
``SWEEP <json>`` with the loop time and the time of each point.

schubfire is imported from ``PYTHONPATH``, which the benchmark points at
the checkout's ``src``.
"""

from __future__ import annotations

import json
import sys
import time


def _tracer(enabled: bool):
    if not enabled:
        return None
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def run_cli(argv: list[str], tracer) -> int:
    from schubfire.cli import main

    code = main(argv)
    if tracer is not None:
        sys.stdout.write("TRACE " + json.dumps(tracer.summary()) + "\n")
    return code


def answer_record(res) -> dict:
    """The fields of ``schubfire split --format json`` that the checks read."""
    from schubfire import chow

    record = {
        "params": {"r": res.r, "n": res.n, "d": res.d, "k": res.k, "l": res.l},
        "m": res.m,
        "total_class": chow.serialize_class(res.total),
        "sigma_k_class": chow.serialize_class(res.sigma_k),
        "sigma_l_class": chow.serialize_class(res.sigma_l),
        "identity_ok": res.identity_ok,
    }
    if res.m == 0:
        record["total_count"] = str(res.count_total)
        record["count_k"] = str(res.count_k)
        record["count_l"] = str(res.count_l)
    return record


def run_sweep(points: list[list[int]], tracer) -> int:
    from schubfire import limiting

    results = []
    point_s = []
    loop_start = time.perf_counter()
    for index, (r, n, d, k) in enumerate(points):
        if tracer is not None:
            tracer.request = index
        start = time.perf_counter()
        try:
            results.append(limiting.split(r, n, d, k, route="both"))
        except Exception as exc:  # one failed point must not stop the sweep
            results.append(exc)
        point_s.append(time.perf_counter() - start)
    loop_s = time.perf_counter() - loop_start

    out = sys.stdout
    for res in results:
        if isinstance(res, Exception):
            out.write(json.dumps({"error": repr(res)}) + "\n")
        else:
            out.write(json.dumps(answer_record(res)) + "\n")
    tail = {"loop_s": loop_s, "point_s": point_s}
    if tracer is not None:
        tail["trace"] = tracer.summary()
    out.write("SWEEP " + json.dumps(tail) + "\n")
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    traced = bool(rest) and rest[0] == "--trace"
    if traced:
        rest = rest[1:]
    tracer = _tracer(traced)
    if mode == "cli":
        return run_cli(rest, tracer)
    if mode == "sweep":
        return run_sweep(json.load(sys.stdin), tracer)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
