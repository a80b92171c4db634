"""Span tracing around the calls into soilgp's layers.

Nothing under ``src/`` is edited. Each traced function is replaced, in
every soilgp module namespace where a caller looks it up, by a wrapper
that records a span (name, start, end, parent, counts). Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute) pairs that are traced. A soilgp function is patched
# in every soilgp module that holds the same object, so intra-package
# calls (gp -> kernels, cli -> io, mapping -> gp) go through the wrapper.
# The scipy and numpy entry points are patched only where gp looks them up.
SOILGP_TARGETS = (
    ("kernels", "matern32"),
    ("kernels", "matern32_dl"),
    ("kernels", "cross_matern32"),
    ("kernels", "cross_matern32_dli"),
    ("kernels", "chol_with_jitter"),
    ("gp", "fit"),
    ("gp", "fit_stgp"),
    ("gp", "condition"),
    ("gp", "predict_arrays"),
    ("mapping", "predict_map"),
    ("mapping", "sequential_eval"),
    ("data", "prefix"),
    ("data", "normalize"),
    ("io", "parse_observations"),
    ("io", "read_model"),
    ("io", "write_observations"),
    ("io", "write_model"),
    ("io", "write_map_csv"),
    ("io", "write_asc"),
    ("synthetic", "draw_field"),
    ("cli", "main"),
)
GP_FOREIGN_TARGETS = ("cho_solve", "solve_triangular", "cdist", "minimize")


def _count_cross(counts, args, kwargs, out, exc):
    counts["entries"] = float(np.broadcast(*(np.asarray(a) for a in args[:3])).size)


def _count_chol(counts, args, kwargs, out, exc):
    m = args[0].shape[0]
    counts["gflop"] = m**3 / 3.0 / 1e9
    if exc is not None:
        counts["rejected"] = 1.0
    elif out[1] > 0:
        counts["jittered"] = 1.0


def _count_minimize(counts, args, kwargs, out, exc):
    if out is None:
        return
    counts["nfev"] = float(out.nfev)
    counts["nit"] = float(out.nit)
    if not np.isfinite(out.fun):
        counts["restarts_rejected"] = 1.0


def _count_bytes(counts, args, kwargs, out, exc):
    if exc is None:
        counts["bytes_written"] = float(os.path.getsize(args[0]))


COUNTERS = {
    "kernels.cross_matern32": _count_cross,
    "kernels.chol_with_jitter": _count_chol,
    "gp.minimize": _count_minimize,
    "io.write_observations": _count_bytes,
    "io.write_model": _count_bytes,
    "io.write_map_csv": _count_bytes,
    "io.write_asc": _count_bytes,
}


class Tracer:
    """Records one span per wrapped call while ``phase`` is set.

    A span is ``[name, start, end, parent_index, phase, counts]``; the
    phase tags set-up spans apart from measured-step spans.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.phase: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            spans.append(span)
            stack.append(idx)
            out, exc = None, None
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as e:
                exc = e
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if counter is not None:
                    counts = {}
                    counter(counts, args, kwargs, out, exc)
                    span[5] = counts

        traced.__wrapped__ = fn
        return traced

    def install(self, only: set[str] | None = None):
        """Patch every traced name (or the names in ``only``) where
        soilgp's modules look it up."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "soilgp" or n.startswith("soilgp.")}
        for layer, attr in SOILGP_TARGETS:
            if only is not None and f"{layer}.{attr}" not in only:
                continue
            orig = getattr(mods[f"soilgp.{layer}"], attr)
            wrapper = self.wrap(f"{layer}.{attr}", orig)
            for mod in mods.values():
                if getattr(mod, attr, None) is orig:
                    self._patch(mod, attr, wrapper)
        gp = mods["soilgp.gp"]
        for attr in GP_FOREIGN_TARGETS:
            if only is not None and f"gp.{attr}" not in only:
                continue
            self._patch(gp, attr, self.wrap(f"gp.{attr}", getattr(gp, attr)))

    def _patch(self, mod, attr, wrapper):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def dump(self, path):
        """Write every span, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as f:
            f.write('["name","start","end","parent","phase","counts"]\n')
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def summarize(spans, phase: str, repeats: int) -> dict[str, float]:
    """Per-span-name totals, self times and counts for one phase,
    divided by ``repeats`` (the number of times the phase ran)."""
    child_time = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        if s[4] != phase:
            continue
        name, dur = s[0], s[2] - s[1]
        layer = name.split(".", 1)[0]
        self_time = dur - child_time[i]
        out[f"{name}.s"] += dur
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_time
        out[f"{layer}.layer_self_s"] += self_time
        for key, v in (s[5] or {}).items():
            out[f"{name}.{key}"] += v
    return {k: v / repeats for k, v in out.items()}
