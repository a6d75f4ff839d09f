"""Per-layer trace of confweight, taken from outside the package.

Run as a child process::

    python perfbench/tracer.py MODE OUT.json -- ARGS... [-- ARGS...]

It imports ``confweight.cli`` and calls ``confweight.cli.main(ARGS)`` once
per command, then writes the commands' exit codes and its spans to
``OUT.json``.  MODE is one of

* ``plain``: no wrappers, the reference for the tracing overhead;
* ``spans``: every binding of each public function or method that a
  per-layer metric reports on is wrapped, so each call leaves a span with
  its times and counts (``layer_metrics`` turns them into metrics);
* ``peaks``: the same wrappers, with ``tracemalloc`` running inside the spans
  that report ``peak_alloc_mb``.  Its times are not used: tracemalloc slows
  the row-by-row CSV writer several times over.

A span's self time is its duration minus the time its child spans cover.
Work the tracer itself does after a call (counting rows, reading peaks) is
charged to no span.  Public helpers no metric reports on, such as
``util.fmt17`` with three calls per CSV row, are not wrapped; their time is
part of their caller's self time.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import tracemalloc
import types
from time import perf_counter

import numpy as np

PACKAGE = "confweight"
FFT_SPAN = "poisson.fft"

# metric prefix -> (span name, aggregates reported for it)
SPAN_METRICS = {
    "maps.eval": ("maps.ConformalMap.eval", ("calls", "nodes", "self_s")),
    "maps.derivative": ("maps.ConformalMap.derivative", ("calls", "nodes", "self_s")),
    "maps.contains": ("maps.ConformalMap.contains", ("nodes", "self_s")),
    "weights.evaluate": ("weights.WeightField.evaluate", ("nodes", "self_s")),
    "weights.disc_density": ("weights.WeightField.disc_density", ("nodes", "self_s")),
    "quadrature.disc_nodes": ("quadrature.disc_nodes", ("calls", "nodes", "self_s")),
    "quadrature.integrate_disc": ("quadrature.integrate_disc",
                                  ("calls", "levels", "nodes", "self_s", "peak_alloc_mb")),
    "util.pairwise_sum": ("util.pairwise_sum", ("calls", "elements", "self_s")),
    "fields.gradient": ("fields.gradient", ("calls", "self_s")),
    "fields.TestBump.value": ("fields.TestBump.value", ("nodes", "self_s")),
    "fields.TestBump.gradient": ("fields.TestBump.gradient", ("nodes", "self_s")),
    "fields.lp_norm": ("fields.lp_norm", ("self_s",)),
    "fields.isometry_check": ("fields.isometry_check", ("total_s",)),
    "fields.composition_inequality_check": ("fields.composition_inequality_check",
                                            ("total_s",)),
    "exponents.disc_eigenvalue": ("exponents.disc_eigenvalue",
                                  ("calls", "iterations", "self_s")),
    "exponents.weighted_constant_check": ("exponents.weighted_constant_check",
                                          ("self_s", "total_s")),
    "poisson.solve_disc_values": ("poisson.solve_disc_values", ("calls", "nodes", "self_s")),
    "poisson.fft": (FFT_SPAN, ("calls", "nodes", "self_s")),
    "poisson.solve_dirichlet": ("poisson.solve_dirichlet", ("self_s", "peak_alloc_mb")),
    "poisson.weak_residual": ("poisson.weak_residual", ("self_s",)),
    "poisson.DiscSolution.eval_domain": ("poisson.DiscSolution.eval_domain",
                                         ("nodes", "self_s")),
    "poisson.DiscSolution.to_csv": ("poisson.DiscSolution.to_csv",
                                    ("rows", "bytes", "self_s", "peak_alloc_mb")),
    "verify.run_verify": ("verify.run_verify", ("self_s",)),
    "cli.main": ("cli.main", ("calls", "self_s")),
}
# metrics not tied to one span: name -> (unit, better)
EXTRA_METRICS = {
    "maps.scalar_calls": ("count", "lower"),
    "maps.errors": ("count", "lower"),
    "quadrature.final_level_share": ("ratio", "lower"),
    "verify.checks": ("count", "higher"),
    "verify.checks_failed": ("count", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}
PEAK_SPANS = frozenset(span for span, aggregates in SPAN_METRICS.values()
                       if "peak_alloc_mb" in aggregates)
_MAPS_METHODS = tuple(span for span, _ in SPAN_METRICS.values() if span.startswith("maps."))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size_of(index: int, name: str, key: str = "nodes"):
    return lambda a, k, r, b: {key: int(np.size(_arg(a, k, index, name)))}


def _map_attrs(args, kwargs, result, before) -> dict:
    z = _arg(args, kwargs, 1, "z")
    return {"nodes": int(np.size(z)), "scalar": int(np.ndim(z) == 0)}


def _spec_nodes(spec) -> int:
    return spec.n_r * spec.n_theta


def _integrate_attrs(args, kwargs, result, before) -> dict:
    from confweight.quadrature import DiscGridSpec
    spec = args[1] if len(args) > 1 else kwargs.get("spec")
    base = _spec_nodes(spec or DiscGridSpec())
    levels = result.levels_used
    return {"levels": levels,
            "nodes": sum(base << (2 * k) for k in range(levels)),
            "final_nodes": base << (2 * (levels - 1))}


def _csv_before(args, kwargs):
    target = _arg(args, kwargs, 1, "target")
    return target.tell() if hasattr(target, "getvalue") else None


def _csv_attrs(args, kwargs, result, before) -> dict:
    if before is None:  # a path: the nested call on the open file counts the rows
        return {}
    written = _arg(args, kwargs, 1, "target").getvalue()[before:]
    # the table is ASCII, so characters are bytes; the first line is the header
    return {"rows": written.count("\n") - 1, "bytes": len(written)}


def _out_bytes(argv) -> dict:
    argv = list(argv)
    path = argv[argv.index("--out") + 1] if "--out" in argv else None
    return {"output_bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


# span name -> attrs(args, kwargs, result, before) for the counts it reports
_ATTRS = {
    **{name: _map_attrs for name in _MAPS_METHODS},
    "weights.WeightField.evaluate": _size_of(1, "z"),
    "weights.WeightField.disc_density": _size_of(1, "w"),
    "quadrature.disc_nodes": lambda a, k, r, b: {"nodes": _spec_nodes(_arg(a, k, 0, "spec"))},
    "quadrature.integrate_disc": _integrate_attrs,
    "util.pairwise_sum": _size_of(0, "values", "elements"),
    "fields.TestBump.value": _size_of(1, "w"),
    "fields.TestBump.gradient": _size_of(1, "w"),
    "exponents.disc_eigenvalue": lambda a, k, r, b: {"iterations": r[1]},
    "poisson.solve_disc_values": _size_of(0, "f_grid"),
    FFT_SPAN: _size_of(0, "a"),
    "poisson.DiscSolution.eval_domain": _size_of(1, "z"),
    "poisson.DiscSolution.to_csv": _csv_attrs,
    "verify.run_verify": lambda a, k, r, b: {"checks": len(r["checks"]),
                                             "checks_failed": len(r["failed"])},
    "cli.main": lambda a, k, r, b: _out_bytes(_arg(a, k, 0, "argv")),
}
_BEFORE = {"poisson.DiscSolution.to_csv": _csv_before}


class Recorder:
    """Wraps callables so each call leaves a span in ``self.spans``.

    A span is ``[id, parent_id, name, start, end, covered, attrs]``; ``covered``
    is the time the call and its bookkeeping took from its parent.
    """

    def __init__(self, peaks: bool):
        self.peaks = peaks
        self.spans: list[list] = []
        self._open: list[list] = []
        self._peaks: list[list] = []  # open peak spans: [span, base, peak]

    def wrap(self, fn, name: str):
        attrs_of = _ATTRS.get(name)
        before_of = _BEFORE.get(name)
        tracks_peak = self.peaks and name in PEAK_SPANS
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = recorder._open[-1][0] if recorder._open else None
            span = [len(recorder.spans), parent, name, 0.0, 0.0, 0.0, {}]
            recorder.spans.append(span)
            recorder._open.append(span)
            before = before_of(args, kwargs) if before_of else None
            if tracks_peak:
                recorder._enter_peak(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = perf_counter()
                span[6]["errors"] = 1
                raise
            else:
                span[4] = perf_counter()
                if attrs_of:
                    span[6].update(attrs_of(args, kwargs, result, before))
            finally:
                if tracks_peak:
                    recorder._exit_peak()
                recorder._open.pop()
                span[5] = perf_counter() - entered
            return result

        return traced

    def _fold_peak(self):
        peak = tracemalloc.get_traced_memory()[1]
        for entry in self._peaks:
            entry[2] = max(entry[2], peak)
        tracemalloc.reset_peak()

    def _enter_peak(self, span):
        if self._peaks:
            self._fold_peak()
        else:
            tracemalloc.start()
        current = tracemalloc.get_traced_memory()[0]
        self._peaks.append([span, current, current])

    def _exit_peak(self):
        self._fold_peak()
        span, base, peak = self._peaks.pop()
        span[6]["peak_alloc_mb"] = (peak - base) / 2**20
        if not self._peaks:
            tracemalloc.stop()


class _Namespace:
    """A module seen through a binding, with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def install(recorder: Recorder) -> None:
    """Wrap every binding of the functions and methods named in SPAN_METRICS.

    ``from .util import pairwise_sum`` binds the same function in several
    modules; each binding is replaced by one shared wrapper.  ``np.fft`` is
    wrapped only as ``poisson`` sees it.
    """
    import confweight.cli  # noqa: F401  (imports every layer)
    import confweight.poisson as poisson

    reported = {span for span, _ in SPAN_METRICS.values()}
    wrappers: dict[int, object] = {}

    def wrapper_for(fn):
        if _span_name(fn) not in reported:
            return fn
        if id(fn) not in wrappers:
            wrappers[id(fn)] = recorder.wrap(fn, _span_name(fn))
        return wrappers[id(fn)]

    modules = [m for n, m in sys.modules.items()
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if name.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType) and obj.__module__.startswith(PACKAGE):
                setattr(module, name, wrapper_for(obj))
            elif isinstance(obj, type) and obj.__module__ == module.__name__:
                for attr, fn in list(vars(obj).items()):
                    if isinstance(fn, types.FunctionType) and not attr.startswith("_"):
                        setattr(obj, attr, wrapper_for(fn))
    fft = _Namespace(np.fft, rfft=recorder.wrap(np.fft.rfft, FFT_SPAN),
                     irfft=recorder.wrap(np.fft.irfft, FFT_SPAN))
    poisson.np = _Namespace(np, fft=fft)


_UNITS = {"self_s": "s", "total_s": "s", "peak_alloc_mb": "MB", "bytes": "B"}


def metric_specs() -> list[dict]:
    """Every per-layer metric as ``{"name", "unit", "better"}``."""
    specs = [{"name": f"{prefix}.{agg}", "unit": _UNITS.get(agg, "count"), "better": "lower"}
             for prefix, (_, aggregates) in SPAN_METRICS.items() for agg in aggregates]
    return specs + [{"name": name, "unit": unit, "better": better}
                    for name, (unit, better) in EXTRA_METRICS.items()]


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, self and total seconds, summed counts, max peak."""
    by_id = {s[0]: s for s in spans}
    child_cover: dict[int, float] = {}
    for s in spans:
        if s[1] is not None:
            child_cover[s[1]] = child_cover.get(s[1], 0.0) + s[5]

    def outermost(s) -> bool:
        parent = s[1]
        while parent is not None:
            if by_id[parent][2] == s[2]:
                return False
            parent = by_id[parent][1]
        return True

    stats: dict[str, dict[str, float]] = {}
    for s in spans:
        st = stats.setdefault(s[2], {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                     "peak_alloc_mb": 0.0})
        st["calls"] += 1
        st["self_s"] += (s[4] - s[3]) - child_cover.get(s[0], 0.0)
        if outermost(s):
            st["total_s"] += s[4] - s[3]
        for key, val in s[6].items():
            if key == "peak_alloc_mb":
                st[key] = max(st[key], val)
            else:
                st[key] = st.get(key, 0) + val
    return stats


def layer_metrics(spans: list[list], peak_spans: list[list], traced_wall_s: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics named by ``metric_specs``.

    ``spans`` come from a ``spans`` run that took ``traced_wall_s``;
    ``peak_spans`` from a ``peaks`` run, which gives only ``peak_alloc_mb``.
    """
    stats, peaks = span_stats(spans), span_stats(peak_spans)

    def get(span: str, key: str):
        return (peaks if key == "peak_alloc_mb" else stats).get(span, {}).get(key, 0)

    out: dict[str, float] = {}
    for prefix, (span, aggregates) in SPAN_METRICS.items():
        for agg in aggregates:
            out[f"{prefix}.{agg}"] = get(span, agg)
    out["maps.scalar_calls"] = sum(get(n, "scalar") for n in _MAPS_METHODS)
    out["maps.errors"] = sum(get(n, "errors") for n in _MAPS_METHODS)
    quad_nodes = get("quadrature.integrate_disc", "nodes")
    out["quadrature.final_level_share"] = (
        get("quadrature.integrate_disc", "final_nodes") / quad_nodes if quad_nodes else 0.0)
    out["verify.checks"] = get("verify.run_verify", "checks")
    out["verify.checks_failed"] = get("verify.run_verify", "checks_failed")
    out["cli.output_bytes"] = get("cli.main", "output_bytes")
    out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    out["trace.coverage"] = get("cli.main", "total_s") / traced_wall_s
    return out


MODES = ("plain", "spans", "peaks")


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[0] not in MODES or argv[2] != "--":
        print("usage: tracer.py plain|spans|peaks OUT.json -- ARGS... [-- ARGS...]",
              file=sys.stderr)
        return 2
    mode, out_path = argv[0], argv[1]
    commands, current = [], []
    for arg in argv[3:]:
        if arg == "--":
            commands.append(current)
            current = []
        else:
            current.append(arg)
    commands.append(current)

    recorder = Recorder(peaks=mode == "peaks")
    if mode != "plain":
        install(recorder)
    import confweight.cli
    exit_codes = [confweight.cli.main(cmd) for cmd in commands]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_codes": exit_codes, "spans": recorder.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
