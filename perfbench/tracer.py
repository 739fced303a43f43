"""Span tracing of kronmot's public functions and methods, from outside.

``Tracer.install`` replaces each traced function or method, wherever a
kronmot module or class binds it, by a wrapper that records a span:
call count, total time and self time (the span's duration minus the part
covered by nested traced spans and their bookkeeping).  Records are kept
in memory, aggregated per (function, parent layer), and read out with
``Tracer.snapshot``.  ``Tracer.uninstall`` puts every original back.

Spans are recorded only inside a root span opened with ``Tracer.task``,
so calls the benchmark makes for its own checks are not counted.  Per-
coefficient helpers such as ``_norm_coeff`` are never wrapped: they run
millions of times per task and would swamp the measurement.
"""

from __future__ import annotations

import importlib
import os
from contextlib import contextmanager
from fractions import Fraction
from math import comb, gcd
from time import perf_counter

MODULES = ("exactalg", "qseries", "wallcross", "central", "cache",
           "eulerchar", "tamari", "cli")
# counters that keep a maximum; every other counter is a sum
PEAKS = ("exactalg.poly_mul.max_bits", "wallcross.max_degree",
         "wallcross.max_coeff_bits")


def _bits(coeffs) -> int:
    """Bit length of the largest coefficient (numerator or denominator)."""
    if not coeffs:
        return 0
    if all(type(c) is int for c in coeffs):
        return max(max(coeffs), -min(coeffs)).bit_length()
    return max(max(Fraction(c).numerator.bit_length(), Fraction(c).denominator.bit_length())
               for c in coeffs)


def _rays(bound: int) -> int:
    """Primitive rays of a wall-crossing table (computed from the bound)."""
    return sum(1 for d in range(bound + 1) for e in range(bound + 1 - d)
               if (d, e) != (0, 0) and gcd(d, e) == 1)


# -- facts recorded at span boundaries: fn(tracer, args, result) ------------

def _poly_new(tr, args, result):
    tr.add("exactalg.poly_new.coeffs", len(args[0].coeffs))


def _poly_mul(tr, args, result):
    a, b = args[0], args[1]
    if hasattr(b, "coeffs"):
        tr.add("exactalg.poly_mul.coeff_pairs", len(a.coeffs) * len(b.coeffs))
        tr.peak("exactalg.poly_mul.max_bits", max(_bits(a.coeffs), _bits(b.coeffs)))


def _ratfunc_new(tr, args, result):
    den = args[0].den
    if den.min_exp == 0 and den.coeffs == (1,):
        tr.add("exactalg.ratfunc_new.laurent", 1)


def _table_build(tr, args, result):
    tr.add("wallcross.rays", _rays(args[2]))


def _motive(tr, args, result):
    tr.peak("wallcross.max_degree", result.max_exp - result.min_exp)
    tr.peak("wallcross.max_coeff_bits", _bits(result.coeffs))


def _framed_recursion(tr, args, result):
    m, order = args[0], args[1]
    tr.add("central.compositions",
           sum(comb(d + m - 3, m - 2) for d in range(1, order + 1)))


def _cache_get(tr, args, result):
    cache, key = args[0], args[1]
    if not cache.enabled:
        return
    # the entry's file name is the documented content address of the key
    path = cache._path(key)
    if result is not None:
        tr.add("cache.hits", 1)
        tr.add("cache.bytes_read", os.path.getsize(path))
    elif path.exists():
        tr.add("cache.discarded", 1)
    else:
        tr.add("cache.misses", 1)


def _cache_put(tr, args, result):
    cache, key = args[0], args[1]
    path = cache._path(key) if cache.enabled else None
    if path is not None and path.exists():
        tr.add("cache.bytes_written", os.path.getsize(path))


def _paths(tr, args, result):
    tr.add("tamari.paths", len(result))


# (layer, span name, module, attribute path, facts).  An attribute path
# "Class.method" patches every name in the class bound to that method, so
# aliases such as __rmul__ = __mul__ are traced as well.
SPANS = [
    ("exactalg", "poly_new", "exactalg", "LaurentPoly.__init__", _poly_new),
    ("exactalg", "poly_mul", "exactalg", "LaurentPoly.__mul__", _poly_mul),
    ("exactalg", "poly_addsub", "exactalg", "LaurentPoly.__add__", None),
    ("exactalg", "poly_addsub", "exactalg", "LaurentPoly.__sub__", None),
    ("exactalg", "poly_addsub", "exactalg", "LaurentPoly.__neg__", None),
    ("exactalg", "poly_divexact", "exactalg", "LaurentPoly.divexact", None),
    ("exactalg", "ratfunc_new", "exactalg", "RatFunc.__init__", _ratfunc_new),
    ("exactalg", "ratfunc_arith", "exactalg", "RatFunc.__add__", None),
    ("exactalg", "ratfunc_arith", "exactalg", "RatFunc.__sub__", None),
    ("exactalg", "ratfunc_arith", "exactalg", "RatFunc.__neg__", None),
    ("exactalg", "ratfunc_arith", "exactalg", "RatFunc.__mul__", None),
    ("exactalg", "ratfunc_arith", "exactalg", "RatFunc.__truediv__", None),
    ("qseries", "series_mul", "qseries", "TruncSeries.__mul__", None),
    ("qseries", "series_inverse", "qseries", "TruncSeries.inverse", None),
    ("qseries", "scale_arg", "qseries", "TruncSeries.scale_arg", None),
    ("qseries", "series_linear", "qseries", "TruncSeries.__add__", None),
    ("qseries", "series_linear", "qseries", "TruncSeries.__sub__", None),
    ("qseries", "series_linear", "qseries", "TruncSeries.__neg__", None),
    ("qseries", "series_linear", "qseries", "TruncSeries.shift_t", None),
    ("qseries", "series_linear", "qseries", "TruncSeries.delta", None),
    ("qseries", "series_linear", "qseries", "TruncSeries.nabla", None),
    ("qseries", "delta_invert", "qseries", "delta_invert", None),
    ("wallcross", "table_build", "wallcross", "MotiveTable.__init__", _table_build),
    ("wallcross", "motive", "wallcross", "MotiveTable.motive", _motive),
    ("wallcross", "coeff", "wallcross", "MotiveTable.a", None),
    ("wallcross", "framed_series", "wallcross", "MotiveTable.framed_series", None),
    ("wallcross", "hn_extract", "wallcross", "hn_extract", None),
    ("wallcross", "moduli_motive", "wallcross", "moduli_motive", None),
    ("wallcross", "framed_via_quotient", "wallcross", "framed_via_quotient", None),
    ("wallcross", "verify_dualities", "wallcross", "verify_dualities", None),
    ("central", "framed_recursion", "central", "framed_recursion", _framed_recursion),
    ("central", "solve_functional_eq", "central", "solve_functional_eq", None),
    ("central", "extract_G", "central", "extract_G", None),
    ("central", "g_series", "central", "g_series", None),
    ("central", "verify", "central", "verify_main_theorem", None),
    ("central", "verify", "central", "verify_vdifference", None),
    ("central", "verify", "central", "verify_funceq", None),
    ("central", "verify", "central", "verify_eqnew", None),
    ("central", "verify", "central", "verify_corident", None),
    ("central", "verify", "central", "verify_newduality", None),
    ("cache", "get", "cache", "Cache.get", _cache_get),
    ("cache", "put", "cache", "Cache.put", _cache_put),
    ("eulerchar", "chi", "eulerchar", "chi_from_motive", None),
    ("eulerchar", "chi", "eulerchar", "chi_moduli_closed", None),
    ("eulerchar", "chi", "eulerchar", "chi_framed_closed", None),
    ("eulerchar", "chi", "eulerchar", "chi_framed_pow_closed", None),
    ("tamari", "bruteforce", "tamari", "interval_count_bruteforce", None),
    ("tamari", "formula", "tamari", "interval_count_formula", None),
    ("tamari", "paths", "tamari", "generate_paths", _paths),
]


class Tracer:
    """Records spans of the functions in ``SPANS`` while installed."""

    def __init__(self):
        self.records: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self.bookkeeping_s = 0.0
        self._stack: list[list] = []  # frames: [layer, covered seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- counters -----------------------------------------------------------

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), n)

    # -- spans ----------------------------------------------------------------

    def _record(self, name: str, frame: list, t0: float, t1: float) -> None:
        key = (name, self._stack[-1][0] if self._stack else "-")
        rec = self.records.get(key)
        if rec is None:
            rec = self.records[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += t1 - t0
        rec[2] += t1 - t0 - frame[1]

    def _wrap(self, fn, layer: str, name: str, facts):
        stack = self._stack
        full = f"{layer}.{name}"

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                self._record(full, frame, t0, t1)
                if ok and facts is not None:
                    facts(self, args, result)
                t2 = perf_counter()
                self.bookkeeping_s += t2 - t1
                stack[-1][1] += t2 - t0
            return result

        return traced

    @contextmanager
    def task(self, name: str = "bench.task", layer: str = "bench"):
        """Open a root span; every traced call inside it is recorded."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        frame = [layer, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._record(name, frame, t0, t1)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module("kronmot")] + [
            importlib.import_module(f"kronmot.{m}") for m in MODULES]
        for layer, name, module, attr, facts in SPANS:
            owner = importlib.import_module(f"kronmot.{module}")
            path = attr.split(".")
            if len(path) == 2:
                owners = [getattr(owner, path[0])]
                original = owners[0].__dict__[path[1]]
            else:
                owners = mods
                original = getattr(owner, attr)
            wrapper = self._wrap(original, layer, name, facts)
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, key, value))
                        setattr(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {
            "spans": [[name, parent, *rec]
                      for (name, parent), rec in sorted(self.records.items())],
            "counts": dict(sorted(self.counts.items())),
            "bookkeeping_s": self.bookkeeping_s,
        }


def merge_counts(into: dict, counts: dict) -> None:
    """Fold one process's counters into another's."""
    for name, n in counts.items():
        if name in PEAKS:
            into[name] = max(into.get(name, 0), n)
        else:
            into[name] = into.get(name, 0) + n
