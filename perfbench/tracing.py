"""Span tracing of qfaulhaber's layer boundaries, installed from outside.

`Tracer.install()` replaces each boundary callable with a timing wrapper in
every qfaulhaber namespace that bound it by name (module globals such as
`coeffs.h_spec` or `identities.det_route`, and class dicts such as the
`__rmul__ = __mul__` alias), so calls made inside the library are seen too.
The library itself is not edited.

Each span is (id, parent id, boundary, start, end) plus its self time and two
size figures.  Parents live on a per-thread stack because `verify` runs its
cases in a thread pool; a case span started in a pool thread takes the span
that submitted it as parent.  Self time is a span's duration minus the
durations of its children in the same thread.  Spans stay in memory until
`write_spans()`.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import threading
import time
from array import array
from collections import Counter
from dataclasses import dataclass

from workloads import WORKLOADS

ALL = tuple(WORKLOADS)


@dataclass(frozen=True)
class Boundary:
    """One layer boundary and the callables it wraps.

    `targets` are dotted paths below the `qfaulhaber` package.
    `exercised_on` names the workloads on which the boundary must record
    calls, or the traced run fails.  README.md maps each boundary to the
    end-to-end metric it should move.
    """

    name: str
    targets: tuple[str, ...]
    exercised_on: tuple[str, ...]


BOUNDARIES = (
    Boundary("laurent.mul", ("laurent.LaurentPoly.__mul__",), ALL),
    Boundary("laurent.add", ("laurent.LaurentPoly.__add__",), ALL),
    Boundary("laurent.eval", ("laurent.LaurentPoly.__call__",),
             ("route-crosscheck", "verify-all")),
    Boundary("laurent.divexact", ("laurent.LaurentPoly.divexact",), ("verify-all",)),
    Boundary("homog", ("homog.h_spec", "homog.c_poly", "homog.g_poly", "homog.d_poly"), ALL),
    Boundary("coeffs.det", ("coeffs.PolyMatrix.det",), ("triangle-det", "route-crosscheck")),
    Boundary("coeffs.invert_row", ("coeffs.invert_route_row",), ("route-crosscheck",)),
    Boundary("coeffs.interpolate", ("coeffs.interpolate_poly",), ("route-crosscheck",)),
    Boundary("coeffs.inverse_pair", ("coeffs.verify_inverse_pair",), ("verify-all",)),
    Boundary("lgv.brute", ("lgv.brute_route",), ("verify-all",)),
    Boundary("lgv.det_route", ("lgv.lgv_det_route",), ("route-crosscheck", "verify-all")),
    Boundary("lgv.single_path_sum",
             ("lgv.single_path_weight_sum", "lgv._pair_sum_with_steps"),
             ("route-crosscheck",)),
    Boundary("identities.theorem1", ("identities.verify_theorem1",), ("verify-all",)),
    Boundary("identities.lemma1", ("identities.verify_lemma1",), ("verify-all",)),
    Boundary("identities.lemma2", ("identities.verify_lemma2",), ("verify-all",)),
    Boundary("identities.classical", ("identities.classical_check",), ("verify-all",)),
    Boundary("cli.main", ("cli.main",), ("verify-all",)),
    Boundary("cli.case", (), ("verify-all",)),  # spans opened by the cli._run_cases wrapper
)

# Callables wrapped for counters rather than spans, with the workloads on
# which each must be called.
COUNTED = {
    "coeffs.sample_points": ("route-crosscheck", "verify-all"),
    "lgv.enumerate_nonintersecting": ("verify-all",),
    "lgv.paths_between": ("route-crosscheck", "verify-all"),
    "cli._run_cases": ("verify-all",),
}

# Spans that add their sample-point counts to a metric.
POINT_OWNERS = {
    "coeffs.invert_row": "coeffs.invert_row.sample_points",
    "coeffs.inverse_pair": "coeffs.inverse_pair.points",
}


def _mul_sizes(args):
    a, b = args[0], args[1]
    if isinstance(b, int):
        return len(a.coeffs), 1
    return len(a.coeffs), len(getattr(b, "coeffs", ()))


def _det_sizes(args):
    return args[0].dim, 0


SIZES = {"laurent.mul": _mul_sizes, "coeffs.det": _det_sizes}


class _ThreadLog:
    """Spans and counters of one thread; only that thread appends to it."""

    def __init__(self):
        self.stack: list[list] = []  # [span id, child seconds, boundary index]
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.self_s = array("d")
        self.x = array("q")
        self.y = array("q")
        self.counters: Counter = Counter()


class Tracer:
    """Spans and counters at the boundaries, for one process."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self.names = [b.name for b in BOUNDARIES]
        self._index = {n: i for i, n in enumerate(self.names)}
        self._origin = time.perf_counter()
        self.missing: list[str] = []
        self._originals: list[tuple[str, object]] = []

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def current_span(self) -> int:
        log = self._log()
        return log.stack[-1][0] if log.stack else 0

    def _call(self, name_idx, sizes, fn, args, kwargs, parent=None):
        log = self._log()
        sid = next(self._ids)
        if parent is None:
            parent = log.stack[-1][0] if log.stack else 0
        frame = [sid, 0.0, name_idx]
        log.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            log.stack.pop()
            dur = t1 - t0
            if log.stack:
                log.stack[-1][1] += dur
            x, y = sizes(args) if sizes else (0, 0)
            log.sid.append(sid)
            log.parent.append(parent)
            log.name.append(name_idx)
            log.t0.append(t0 - self._origin)
            log.t1.append(t1 - self._origin)
            log.self_s.append(dur - frame[1])
            log.x.append(x)
            log.y.append(y)

    def _span_wrapper(self, name, fn):
        idx = self._index[name]
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(idx, sizes, fn, args, kwargs)

        return wrapper

    def _sample_points_wrapper(self, fn):
        owners = {self._index[n]: metric for n, metric in POINT_OWNERS.items()}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            points = fn(*args, **kwargs)
            log = self._log()
            log.counters["coeffs.sample_points"] += 1
            if log.stack and log.stack[-1][2] in owners:
                log.counters[owners[log.stack[-1][2]]] += len(points)
            return points

        return wrapper

    def _families_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            families = fn(*args, **kwargs)
            log = self._log()
            log.counters["lgv.enumerate_nonintersecting"] += 1
            log.counters["lgv.brute.families"] += len(families)
            return families

        return wrapper

    def _paths_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            log.counters["lgv.paths_between"] += 1
            n = 0
            try:
                for path in fn(*args, **kwargs):
                    n += 1
                    yield path
            finally:
                log.counters["lgv.paths.yielded"] += n

        return wrapper

    def _run_cases_wrapper(self, fn):
        idx = self._index["cli.case"]

        def case_span(thunk, parent):
            return lambda: self._call(idx, None, thunk, (), {}, parent)

        @functools.wraps(fn)
        def wrapper(cases, *args, **kwargs):
            self._log().counters["cli._run_cases"] += 1
            parent = self.current_span()
            spanned = [(key, case_span(thunk, parent)) for key, thunk in cases]
            return fn(spanned, *args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary in every qfaulhaber namespace that binds it."""
        factories = {
            "coeffs.sample_points": self._sample_points_wrapper,
            "lgv.enumerate_nonintersecting": self._families_wrapper,
            "lgv.paths_between": self._paths_wrapper,
            "cli._run_cases": self._run_cases_wrapper,
        }
        plan = [(t, self._span_wrapper, b.name) for b in BOUNDARIES for t in b.targets]
        plan += [(t, factories[t], None) for t in COUNTED]
        resolved = [(_resolve(step[0]), *step) for step in plan]
        holders = _holders()  # after _resolve has imported every module
        for original, target, factory, name in resolved:
            if original is None:
                self.missing.append(target)
                continue
            wrapper = factory(name, original) if name else factory(original)
            self._originals.append((target, original))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def stale_bindings(self) -> list[str]:
        """Places that still hold an unwrapped boundary after install()."""
        stale = []
        for holder in _holders():
            for key, value in vars(holder).items():
                inner = value.values() if isinstance(value, dict) else (
                    value if isinstance(value, (list, tuple)) else (value,))
                for item in inner:
                    for target, original in self._originals:
                        if item is original:
                            stale.append(f"{holder.__name__}.{key} -> {target}")
        return stale

    # -- reading -------------------------------------------------------------

    def _totals(self):
        """Per-boundary sums over all spans, and the merged counters."""
        calls, self_s, dur, products, largest = (Counter() for _ in range(5))
        for log in self._logs:
            for i, s, t0, t1, x, y in zip(log.name, log.self_s, log.t0, log.t1,
                                          log.x, log.y):
                name = self.names[i]
                calls[name] += 1
                self_s[name] += s
                dur[name] += t1 - t0
                products[name] += x * y
                largest[name] = max(largest[name], x, y)
        counters = Counter()
        for log in self._logs:
            counters.update(log.counters)
        return calls, self_s, dur, products, largest, counters

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, by the names listed in BENCHMARK.json."""
        calls, self_s, dur, products, largest, counters = self._totals()
        out: dict[str, float] = {}
        for name in ("laurent.mul", "laurent.add", "laurent.eval", "laurent.divexact",
                     "homog", "coeffs.det", "coeffs.invert_row", "coeffs.inverse_pair",
                     "lgv.brute", "lgv.det_route", "lgv.single_path_sum",
                     "identities.theorem1", "identities.lemma1", "identities.lemma2",
                     "identities.classical"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["laurent.mul.coeff_products"] = products["laurent.mul"]
        out["laurent.mul.max_terms"] = largest["laurent.mul"]
        out["coeffs.det.max_dim"] = largest["coeffs.det"]
        out["coeffs.interpolate.self_s"] = self_s["coeffs.interpolate"]
        hits, misses = _family_det_counts()
        out["coeffs.family_det.hits"] = hits
        out["coeffs.family_det.misses"] = misses
        out["coeffs.family_det.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for metric in POINT_OWNERS.values():
            out[metric] = counters[metric]
        out["lgv.brute.families"] = counters["lgv.brute.families"]
        out["lgv.paths.yielded"] = counters["lgv.paths.yielded"]
        out["cli.main.wall_s"] = dur["cli.main"]
        out["cli.cases"] = calls["cli.case"]
        out["cli.case_span_sum_s"] = dur["cli.case"]
        return out

    def coverage_failures(self, workload: str) -> list[str]:
        """Why the trace cannot be trusted on this workload; empty if it can."""
        calls, *_, counters = self._totals()
        failures = [f"boundary target not found: {t}" for t in self.missing]
        failures += [f"unwrapped binding: {s}" for s in self.stale_bindings()]
        failures += [f"no calls to {b.name} on {workload}" for b in BOUNDARIES
                     if workload in b.exercised_on and calls[b.name] == 0]
        failures += [f"no calls to {t} on {workload}" for t, on in COUNTED.items()
                     if workload in on and counters[t] == 0]
        if sum(_family_det_counts()) == 0:
            failures.append(f"no _family_det lookups on {workload}")
        return failures

    def write_spans(self, path) -> int:
        """Write every span as one CSV row, gzip-compressed; return the count."""
        rows = 0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("# times in seconds from tracer start; names: "
                      + " ".join(f"{i}={n}" for i, n in enumerate(self.names)) + "\n")
            out.write("id,parent,name,start,end,self,x,y\n")
            for log in self._logs:
                for row in zip(log.sid, log.parent, log.name, log.t0, log.t1,
                               log.self_s, log.x, log.y):
                    out.write("%d,%d,%d,%.9f,%.9f,%.9f,%d,%d\n" % row)
                    rows += 1
        return rows


def _holders() -> list:
    """Every qfaulhaber module, and every class those modules define."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "qfaulhaber" or n.startswith("qfaulhaber.")]
    classes = {id(v): v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("qfaulhaber")}
    return modules + list(classes.values())


def _resolve(target: str):
    module_name, _, rest = target.partition(".")
    obj = importlib.import_module(f"qfaulhaber.{module_name}")
    for part in rest.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _family_det_counts() -> tuple[int, int]:
    """(hits, misses) of the det route's memo; (0, 0) if it has none."""
    from qfaulhaber import coeffs

    memo = getattr(coeffs, "_family_det", None)
    if not hasattr(memo, "cache_info"):
        return 0, 0
    info = memo.cache_info()
    return info.hits, info.misses
