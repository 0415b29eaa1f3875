"""In-memory tracing of leafcurrent's public functions, from outside the library.

:class:`Tracer` replaces every ``leafcurrent`` module attribute that holds a
traced function with a wrapper, so calls between library modules are seen
at their import sites (``leafcurrent.mass.kernel_K``,
``leafcurrent.kernels.integrate_2d``, ...) without changing library code.

Two kinds of boundary are recorded:

* span boundaries, called at most a few thousand times per pass, keep one
  :class:`Span` each (id, parent id, thread id, wall and CPU start/end);
* counter boundaries, called up to ~10^4 times per pass (scalar
  ``integrate_1d``, ``rho_solver``), add calls, busy time and evaluations to
  per-thread counters and to the innermost open span on the calling thread;
* tally boundaries, called up to ~10^5 times per pass (``power_polar`` and
  ``profile_extension`` on numpy scalars), count only calls and points.

``mass_profile`` evaluates radii on a thread pool, so the pool class at its
import site is replaced by one that hands the submitting thread's open span
to the worker thread as parent.  :func:`derive` turns one pass's spans and
counters into the per-layer metrics listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# Every per-layer metric, in report order; units and directions are in BENCHMARK.json.
# derive() fills the layer metrics, the worker the setup.* and trace.* ones.
PER_LAYER: tuple[str, ...] = (
    "quadrature.integrate_2d.calls",
    "quadrature.integrate_2d.evals",
    "quadrature.integrate_2d.busy_s",
    "quadrature.integrate_2d.self_s",
    "quadrature.integrate_1d.calls",
    "quadrature.integrate_1d.evals",
    "quadrature.integrate_1d.busy_s",
    "quadrature.evals_per_s",
    "kernels.kernel_report.busy_s",
    "kernels.kernel_report.self_s",
    "kernels.kernel_K.calls",
    "kernels.kernel_K.busy_s",
    "kernels.kernel_K.self_s",
    "kernels.kernel_K.evals_per_call",
    "kernels.kernel_K.probe_share",
    "kernels.regime_constant_sampler.busy_s",
    "kernels.regime_constant_sampler.self_s",
    "kernels.regime_constant_sampler.samples",
    "kernels.rho_solver.calls",
    "kernels.rho_solver.busy_s",
    "mass.mass_F.calls",
    "mass.mass_F.busy_s",
    "mass.mass_F.self_s",
    "mass.mass_F.evals",
    "mass.mass_profile.busy_s",
    "mass.mass_profile.self_s",
    "mass.mass_profile.cpu_util",
    "mass.bound_G_via_kernel.busy_s",
    "mass.bound_G_via_kernel.self_s",
    "mass.bound_G_via_kernel.kernel_share",
    "mass.bound_G_via_kernel.mass_share",
    "currents.profile_extension.calls",
    "currents.profile_extension.points_per_call",
    "geometry.power_polar.calls",
    "geometry.power_polar.points_per_call",
    "recurrence.recurrence_report.busy_s",
    "recurrence.recurrence_report.self_s",
    "recurrence.visibility_N.calls",
    "recurrence.visibility_N.busy_s",
    "recurrence.visibility_N.self_s",
    "recurrence.visibility_N.nodes",
    "recurrence.M_of_R.busy_s",
    "recurrence.M_of_R.self_s",
    "recurrence.m_aR_pushforward.busy_s",
    "recurrence.m_aR_pushforward.self_s",
    "config.load_config.busy_s",
    "config.load_config.self_s",
    "config.parse_config.busy_s",
    "config.parse_config.self_s",
    "reports.emit_reports.busy_s",
    "reports.emit_reports.self_s",
    "reports.emit_reports.bytes",
    "cli.run_command.busy_s",
    "cli.run_command.self_s",
    "setup.interpreter_s",
    "setup.import_s",
    "setup.config_s",
    "setup.build_s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
    "trace.overhead_share",
)


class Span:
    __slots__ = ("id", "parent", "name", "thread", "outer", "t0", "t1", "c0", "c1", "attrs")

    def __init__(self, span_id, parent, name, thread, outer):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.outer = outer  # no enclosing span of the same name on this thread
        self.t0 = self.t1 = 0.0
        self.c0 = self.c1 = 0.0
        self.attrs: dict = {}

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name, "thread": self.thread,
            "t0": self.t0, "t1": self.t1, "cpu0": self.c0, "cpu1": self.c1, **self.attrs,
        }


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def _evals(result):
    return result.evaluations


def _paths_bytes(paths):
    return sum(p.stat().st_size for p in paths)


def _boundaries():
    """(layer, defining module, function, kind, hooks) for every traced boundary.

    Span hooks: ``before(args, kwargs) -> attrs`` and ``after(result) -> attrs``;
    counter and tally hooks: ``amount(args, result)`` added to the total.
    """
    from leafcurrent import cli, config, currents, geometry, kernels, mass, quadrature, recurrence, reports

    bind_kernel = _bound(kernels.kernel_K)
    bind_sampler = _bound(kernels.regime_constant_sampler)
    bind_visibility = _bound(recurrence.visibility_N)
    return (
        ("quadrature.integrate_2d", quadrature, "integrate_2d", "span", (None, lambda r: {"evals": _evals(r)})),
        ("quadrature.integrate_1d", quadrature, "integrate_1d", "counter", lambda a, r: _evals(r)),
        ("kernels.kernel_report", kernels, "kernel_report", "span", (None, None)),
        ("kernels.kernel_K", kernels, "kernel_K", "span",
         (lambda a, k: {"probe": bind_kernel(a, k)["tol"] is None}, None)),
        ("kernels.regime_constant_sampler", kernels, "regime_constant_sampler", "span",
         (lambda a, k: {"samples": bind_sampler(a, k)["sample_count"]}, None)),
        ("kernels.rho_solver", kernels, "rho_solver", "counter", lambda a, r: 1),
        ("mass.mass_F", mass, "mass_F", "span", (None, None)),
        ("mass.mass_profile", mass, "mass_profile", "span", (None, None)),
        ("mass.bound_G_via_kernel", mass, "bound_G_via_kernel", "span", (None, None)),
        ("currents.profile_extension", currents, "profile_extension", "tally", lambda a, r: _size(a[1])),
        ("geometry.power_polar", geometry, "power_polar", "tally", lambda a, r: _size(a[0])),
        ("recurrence.recurrence_report", recurrence, "recurrence_report", "span", (None, None)),
        ("recurrence.visibility_N", recurrence, "visibility_N", "span",
         (lambda a, k: {"nodes": _nodes(bind_visibility(a, k))}, None)),
        ("recurrence.M_of_R", recurrence, "M_of_R", "span", (None, None)),
        ("recurrence.m_aR_pushforward", recurrence, "m_aR_pushforward", "span", (None, None)),
        ("config.load_config", config, "load_config", "span", (None, None)),
        ("config.parse_config", config, "parse_config", "span", (None, None)),
        ("reports.emit_reports", reports, "emit_reports", "span", (None, lambda r: {"bytes": _paths_bytes(r)})),
        ("cli.run_command", cli, "run_command", "span", (None, None)),
    )


def _size(x) -> int:
    return getattr(x, "size", 1)  # numpy arrays and scalars; Python numbers are one point


def _nodes(arguments) -> int:
    return int(arguments["n_t"]) * int(arguments["n_theta"])


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        from leafcurrent.quadrature import QuadratureError

        self._quad_error = QuadratureError
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spans: list[Span] = []  # list.append is atomic under the GIL
        self._counter_tables: list[dict] = []  # one per thread, merged on collect
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for layer, module, name, kind, hooks in _boundaries():
            original = getattr(module, name)
            make = {"span": self._span, "counter": self._counter, "tally": self._tally}[kind]
            self._wrappers[id(original)] = (original, make(layer, original, hooks))
        self._wrappers[id(ThreadPoolExecutor)] = (ThreadPoolExecutor, self._pool_class())

    # -- per-thread state -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counters(self) -> dict:
        table = getattr(self._local, "counters", None)
        if table is None:
            table = self._local.counters = {}
            self._counter_tables.append(table)
        return table

    def _current_id(self):
        stack = self._stack()
        return stack[-1].id if stack else getattr(self._local, "root", None)

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer, fn, hooks):
        before, after = hooks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(
                next(self._ids), self._current_id(), layer, threading.get_ident(),
                all(s.name != layer for s in stack),
            )
            if before is not None:
                span.attrs.update(before(args, kwargs))
            stack.append(span)
            span.c0 = time.process_time()
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    span.attrs.update(after(result))
                return result
            except self._quad_error as exc:
                span.attrs["error"] = str(exc)
                if layer == "quadrature.integrate_2d":
                    span.attrs["evals"] = exc.best.evaluations
                raise
            finally:
                span.t1 = time.perf_counter()
                span.c1 = time.process_time()
                stack.pop()
                self._spans.append(span)

        return wrapper

    def _counter(self, layer, fn, amount):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = self._counters()
            entry = table.get(layer)
            if entry is None:
                entry = table[layer] = {"calls": 0, "amount": 0, "busy_s": 0.0, "depth": 0}
            entry["calls"] += 1
            entry["depth"] += 1
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
            except self._quad_error as exc:
                result = exc.best
                raise
            finally:
                entry["depth"] -= 1
                if entry["depth"] == 0:
                    entry["busy_s"] += time.perf_counter() - t0
                if result is not None:
                    n = amount(args, result)
                    entry["amount"] += n
                    stack = self._stack()
                    if stack:
                        stack[-1].attrs[layer] = stack[-1].attrs.get(layer, 0) + n
            return result

        return wrapper

    def _tally(self, layer, fn, amount):
        """Calls and points only: these boundaries run per numpy scalar."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = self._counters()
            entry = table.get(layer)
            if entry is None:
                entry = table[layer] = {"calls": 0, "amount": 0, "busy_s": 0.0}
            result = fn(*args, **kwargs)
            entry["calls"] += 1
            entry["amount"] += amount(args, result)
            return result

        return wrapper

    def _pool_class(self):
        tracer = self

        class ContextPool(ThreadPoolExecutor):
            """Runs each task under the span that was open when it was submitted."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._current_id()

                def run():
                    tracer._local.root = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.root = None

                return super().submit(run)

        return ContextPool

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Replace every import site of a traced function with its wrapper."""
        if self._patches:
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "leafcurrent" or name.startswith("leafcurrent.")):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = self._wrappers.get(id(value), (None, None))
                if original is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def collect(self) -> tuple[list[Span], dict]:
        """Return and clear the spans and merged counters recorded so far."""
        spans, self._spans = self._spans, []
        merged: dict = {}
        for table in self._counter_tables:
            for layer, entry in table.items():
                total = merged.setdefault(layer, {"calls": 0, "amount": 0, "busy_s": 0.0})
                for key in total:
                    total[key] += entry[key]
                entry.update(calls=0, amount=0, busy_s=0.0)
        return spans, merged


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def derive(spans: list[Span], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and counters.

    ``busy_s`` sums the durations of outermost calls (thread-seconds, so
    calls on pool threads add up); ``self_s`` is a span's duration minus the
    union of its direct children's intervals; every metric of a layer that
    did not run is 0.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)

    def dur(span):
        return span.t1 - span.t0

    def self_time(span):
        kids = [(max(c.t0, span.t0), min(c.t1, span.t1)) for c in children.get(span.id, ())]
        return dur(span) - _union_length([k for k in kids if k[1] > k[0]])

    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    out: dict[str, float] = {}
    for name, group in by_name.items():
        out[f"{name}.calls"] = len(group)
        out[f"{name}.busy_s"] = sum(dur(s) for s in group if s.outer)
        out[f"{name}.self_s"] = sum(self_time(s) for s in group)
    for name, entry in counters.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.busy_s"] = entry["busy_s"]
        out[f"{name}.amount"] = entry["amount"]

    def get(key):
        return out.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    quad2d = by_name.get("quadrature.integrate_2d", [])
    out["quadrature.integrate_2d.evals"] = sum(s.attrs.get("evals", 0) for s in quad2d)
    out["quadrature.integrate_1d.evals"] = get("quadrature.integrate_1d.amount")
    out["quadrature.evals_per_s"] = ratio(
        out["quadrature.integrate_2d.evals"] + out["quadrature.integrate_1d.evals"],
        get("quadrature.integrate_2d.busy_s") + get("quadrature.integrate_1d.busy_s"),
    )

    kernel_spans = by_name.get("kernels.kernel_K", [])
    kernel_evals = probe_evals = 0
    for span in kernel_spans:
        passes = [c for c in children.get(span.id, ()) if c.name == "quadrature.integrate_2d"]
        passes.sort(key=lambda c: c.t0)
        kernel_evals += sum(c.attrs.get("evals", 0) for c in passes)
        if span.attrs.get("probe") and len(passes) == 2:
            probe_evals += passes[0].attrs.get("evals", 0)
    out["kernels.kernel_K.evals_per_call"] = ratio(kernel_evals, len(kernel_spans))
    out["kernels.kernel_K.probe_share"] = ratio(probe_evals, kernel_evals)

    out["kernels.regime_constant_sampler.samples"] = sum(
        s.attrs.get("samples", 0) for s in by_name.get("kernels.regime_constant_sampler", [])
    )
    out["mass.mass_F.evals"] = sum(
        s.attrs.get("quadrature.integrate_1d", 0) for s in by_name.get("mass.mass_F", [])
    )
    profiles = by_name.get("mass.mass_profile", [])
    out["mass.mass_profile.cpu_util"] = ratio(
        sum(s.c1 - s.c0 for s in profiles), sum(dur(s) for s in profiles)
    )

    pairings = by_name.get("mass.bound_G_via_kernel", [])
    pairing_s = sum(dur(s) for s in pairings)
    kernel_s = mass_s = 0.0
    for span in pairings:
        for child in children.get(span.id, ()):
            if child.name == "kernels.kernel_K":
                kernel_s += dur(child)
            elif child.name == "mass.mass_F":
                mass_s += dur(child)
    out["mass.bound_G_via_kernel.kernel_share"] = ratio(kernel_s, pairing_s)
    out["mass.bound_G_via_kernel.mass_share"] = ratio(mass_s, pairing_s)

    for name in ("currents.profile_extension", "geometry.power_polar"):
        out[f"{name}.points_per_call"] = ratio(get(f"{name}.amount"), get(f"{name}.calls"))
    out["recurrence.visibility_N.nodes"] = sum(
        s.attrs.get("nodes", 0) for s in by_name.get("recurrence.visibility_N", [])
    )
    out["reports.emit_reports.bytes"] = sum(
        s.attrs.get("bytes", 0) for s in by_name.get("reports.emit_reports", [])
    )
    return {name: float(out.get(name, 0)) for name in PER_LAYER}
