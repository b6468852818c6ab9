"""Spans around the public functions of each library layer.

The tracer wraps functions from outside the program: it replaces each
name in every module namespace that holds it (``orders`` imports
``sign_pattern`` and ``survival`` by name, and the package re-exports
everything), and restores all of them on exit.  Spans nest on a stack;
a span's self time is its duration minus that of its child spans.
Per-op aggregates are kept in memory: calls, total and self seconds,
evaluation points, and useful outcomes of ``sign_pattern``.
"""

from __future__ import annotations

import importlib
from time import perf_counter

import numpy as np

# (span name, module, attribute); "ExpSum.x" patches a method on the class.
TARGETS = (
    ("expsum.sign_pattern", "expsum", "sign_pattern"),
    ("expsum.canonicalize", "expsum", "canonicalize"),
    ("expsum.shift_scale", "expsum", "ExpSum.shift_scale"),
    ("expsum.eval", "expsum", "ExpSum.eval"),
    ("expsum.eval_many", "expsum", "ExpSum.eval_many"),
    ("systems.survival", "systems", "survival"),
    ("systems.inverse_survival", "systems", "inverse_survival"),
    ("systems.inverse_survival_many", "systems", "inverse_survival_many"),
    ("orders.survival_gap", "orders", "survival_gap"),
    ("orders.star_check", "orders", "star_check"),
    ("orders.convex_check", "orders", "convex_check"),
    ("orders.star_check_n", "orders", "star_check_n"),
    ("orders.violation_search", "orders", "violation_search"),
    ("orders.sign_map", "orders", "sign_map"),
    ("oracle.transform_values", "oracle", "transform_values"),
    ("oracle.star_ratio_oracle", "oracle", "star_ratio_oracle"),
    ("oracle.convexity_oracle", "oracle", "convexity_oracle"),
)
NAMESPACES = ("", ".expsum", ".systems", ".orders", ".oracle", ".cli")

# Per-name counters: calls, total s, self s, points, certified, complete.
CALLS, TOTAL, SELF, POINTS, CERTIFIED, COMPLETE = range(6)


class Tracer:
    def __init__(self, package: str = "transform_orders"):
        self.package = package
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []  # [name, start, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> dict[str, list]:
        """Return the counters gathered since the last reset and clear them."""
        out, self.stats = self.stats, {}
        return out

    def _wrap(self, name: str, fn):
        stack, tracer = self._stack, self

        def traced(*args, **kwargs):
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                if stack:
                    stack[-1][2] += dur
                row = tracer.stats.setdefault(name, [0, 0.0, 0.0, 0, 0, 0])
                row[CALLS] += 1
                row[TOTAL] += dur
                row[SELF] += dur - frame[2]
            if name == "expsum.eval_many":
                row[POINTS] += int(np.size(args[1]))
            elif name == "expsum.sign_pattern":
                row[CERTIFIED] += bool(result.certified)
                row[COMPLETE] += bool(result.complete)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        mods = [importlib.import_module(self.package + ns) for ns in NAMESPACES]
        for name, home, attr in TARGETS:
            owner = importlib.import_module(f"{self.package}.{home}")
            if attr.startswith("ExpSum."):
                cls, meth = owner.ExpSum, attr.split(".", 1)[1]
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)
