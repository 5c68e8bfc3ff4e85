"""Spans and counters at schubfire's layer boundaries, from outside the package.

``install`` replaces the public functions at each boundary with wrappers
that time them; nothing under ``src/`` changes.  A span is one call: its
name, start, end and enclosing span.  The wrappers keep per-name totals in
memory as the calls end:

* ``incl_s`` -- time covered by the outermost spans of that name, so a
  recursive call is not counted twice;
* ``self_s`` -- span durations minus the time covered by their child spans.

Spans of the coarse layers (limiting, bundles tables, the projective-bundle
pushforward, rendering) are also kept one by one, with the index of the
request that caused them, for the raw output.  ``summary`` adds the memo
tables' ``cache_info()`` and sizes, found by walking the package modules.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import wraps

# Boundary name -> (module, owner attribute or None, function attribute).
BOUNDARIES = {
    "partitions.lr": ("schubfire.chow", None, "_lr"),
    "chow.mul": ("schubfire.chow", "ChowClass", "__mul__"),
    "projbundle.mul": ("schubfire.projbundle", "PBClass", "__mul__"),
    "projbundle.pushforward": ("schubfire.projbundle", None, "pushforward"),
    "sympoly.m_to_elementary": ("schubfire.sympoly", None, "m_to_elementary"),
    "sympoly.m_to_schur": ("schubfire.sympoly", None, "m_to_schur"),
    "bundles.sym_chern": ("schubfire.bundles", None, "sym_chern"),
    "bundles.total_chern": ("schubfire.bundles", None, "total_chern"),
    "bundles.segre": ("schubfire.bundles", None, "segre"),
    "limiting.total_class": ("schubfire.limiting", None, "total_class"),
    "limiting.sigma_direct": ("schubfire.limiting", None, "sigma_direct"),
    "limiting.sigma_pb": ("schubfire.limiting", None, "sigma_pb"),
    "cli.serialize_class": ("schubfire.cli", None, "serialize_class"),
    "chow.serialize_class": ("schubfire.chow", None, "serialize_class"),
    "cli.dump_json": ("schubfire.cli", None, "_dump_json"),
}

KEPT_PREFIXES = ("limiting.", "bundles.sym_chern", "projbundle.pushforward", "cli.")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [time covered by children, name]
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s, open spans]
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []  # kept spans: (name, start, end, parent, request)
        self.request = 0
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn, before=None):
        stack, perf = self.stack, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        keep = name.startswith(KEPT_PREFIXES)

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            frame = [0.0, name]
            stack.append(frame)
            stat[3] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                dur = end - start
                stack.pop()
                stat[3] -= 1
                stat[0] += 1
                if not stat[3]:
                    stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    parent = stack[-1][1] if stack else None
                    self.spans.append(
                        (name, start - self.origin, end - self.origin, parent, self.request)
                    )

        return traced

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": s[0], "incl_s": s[1], "self_s": s[2]}
                for name, s in self.stats.items()
            },
            "counters": dict(self.counters),
            "caches": cache_stats(),
            "kept_spans": self.spans,
        }


def install(tracer: Tracer) -> None:
    """Wrap every boundary that exists in the imported package."""
    import importlib

    for mod in ("cli", "chow", "projbundle", "bundles", "sympoly", "limiting", "partitions"):
        importlib.import_module(f"schubfire.{mod}")
    chow = sys.modules["schubfire.chow"]
    bundles = sys.modules["schubfire.bundles"]
    counters = tracer.counters

    def count_chow(a, b):
        if isinstance(b, chow.ChowClass):
            counters["chow.mul_calls"] += 1
            counters["chow.mul_term_pairs"] += len(a.terms) * len(b.terms)

    def count_pb(a, b):
        counters["projbundle.mul_calls"] += 1

    hooks = {"chow.mul": count_chow, "projbundle.mul": count_pb}
    for name, (modname, owner_name, attr) in BOUNDARIES.items():
        owner = sys.modules[modname]
        if owner_name is not None:
            owner = getattr(owner, owner_name, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            continue
        if name == "bundles.sym_chern":
            fn = _count_table_builds(fn, getattr(bundles, "_SYM_TABLE_CACHE", None), counters)
        setattr(owner, attr, tracer.wrap(name, fn, hooks.get(name)))


def _count_table_builds(fn, cache, counters):
    """Count sym_chern calls that put a new table into the cache."""

    @wraps(fn)
    def counted(*args, **kwargs):
        key = tuple(args[:2])
        before = cache.get(key) if cache is not None else None
        out = fn(*args, **kwargs)
        if cache is None or cache.get(key) is not before:
            counters["bundles.sym_tables_built"] += 1
        return out

    return counted


def cache_stats() -> dict:
    """hits, misses and entries of every memo table in the package."""
    out: dict[str, dict] = {}
    seen: set[int] = set()
    for modname in sorted(sys.modules):
        if modname != "schubfire" and not modname.startswith("schubfire."):
            continue
        for attr, value in list(vars(sys.modules[modname]).items()):
            if id(value) in seen:
                continue
            info = getattr(value, "cache_info", None)
            if callable(info):
                seen.add(id(value))
                ci = info()
                key = f"{value.__module__}.{value.__qualname__}"
                out[key] = {"hits": ci.hits, "misses": ci.misses, "entries": ci.currsize}
            elif isinstance(value, dict) and attr.isupper() and attr.endswith("CACHE"):
                seen.add(id(value))
                out[f"{modname}.{attr}"] = {"entries": len(value)}
    return out
