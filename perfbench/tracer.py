"""Per-layer tracing of the package from outside it.

:class:`Tracer` replaces chosen public functions of the package with thin
wrappers at every module binding that holds them (``galois.factor_over_
integers`` and ``tables.classify`` as well as the defining module), and puts
the originals back on exit.  Two kinds of wrapper exist:

* span wrappers record ``(name, start, end, parent)`` for each call, in
  memory;
* count wrappers only bump a counter, for kernels called so often that a
  span each would dominate the run.

A span's self time is its duration minus the durations of its direct child
spans.  Everything runs in one thread, so spans nest and nothing waits.

``padic``, ``schur``, ``perms`` and ``groupdata`` sit off the benchmarked
paths (the census load of ``groupdata`` happens once, in set-up) and are
not wrapped.  ``modp.gf_factor_monic`` serves only ``factor_mod_p``; the
integer factoring path splits its modular factors with
``gf_equal_degree``, which is wrapped instead.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# Layer functions that get a span: (module, function).
SPANNED = (
    ("modp", "gf_ddf_degree_multiset"),
    ("modp", "gf_equal_degree"),
    ("galois", "dedekind_cycle_type"),
    ("galois", "classify"),
    ("galois", "exact_small_degree"),
    ("galois", "eliminate_degree_le7"),
    ("galois", "cyclic_heuristic"),
    ("galois", "wreath_structure"),
    ("galois", "verify_identification"),
    ("polynomials", "resultant"),
    ("polynomials", "discriminant"),
    ("factor", "factor_over_integers"),
    ("pade", "pade_diagonal"),
    ("series", "taylor"),
    ("tables", "reproduce"),
    ("reporting", "emit"),
    ("cli", "main"),
)

# Kernels that are only counted.
COUNTED = (
    ("modp", "gf_mul"),
    ("modp", "gf_divmod"),
    ("modp", "gf_pow_mod"),
)

PACKAGE = "padegalois"
CACHE_SPAN = "cache.get_or_compute"
THUNK_SPAN = "cache.thunk"


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _frobenius_result(self, cycle_type) -> None:
        if cycle_type is not None:
            self.counts["galois.dedekind_cycle_type.usable"] += 1

    def _cached(self, get_or_compute):
        """Span for ResultCache.get_or_compute, with the thunk as a child."""
        counts = self.counts

        def wrapper(cache, operation, payload, thunk):
            hits, misses = cache.hits, cache.misses
            try:
                return get_or_compute(
                    cache, operation, payload, self._span(THUNK_SPAN, thunk)
                )
            finally:
                counts["cache.hits"] += cache.hits - hits
                counts["cache.misses"] += cache.misses - misses

        return self._span(CACHE_SPAN, wrapper)

    # -- installation -----------------------------------------------------

    def _bind_everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self) -> None:
        modules = sys.modules
        for module, func in SPANNED:
            original = getattr(modules[f"{PACKAGE}.{module}"], func)
            on_result = (
                self._frobenius_result if func == "dedekind_cycle_type" else None
            )
            self._bind_everywhere(
                original, self._span(f"{module}.{func}", original, on_result)
            )
        for module, func in COUNTED:
            original = getattr(modules[f"{PACKAGE}.{module}"], func)
            self._bind_everywhere(original, self._count(f"{module}.{func}", original))
        cache_cls = modules[f"{PACKAGE}.cache"].ResultCache
        original = cache_cls.get_or_compute
        self._undo.append((cache_cls, "get_or_compute", original))
        cache_cls.get_or_compute = self._cached(original)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child_time[index]
        return out

    def write(self, path) -> None:
        """Write every span, one JSON array per line, and the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
