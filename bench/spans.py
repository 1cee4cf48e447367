"""Spans around the calls into each sncross layer, recorded from outside the package.

The package is not edited: each function is replaced, for the duration of a
traced run, at every module attribute through which a caller looks it up
(``sncross.em.q_value`` for ``nr_step``, ``sncross.simulate.fit`` for
``run_replicate``, ``sncross.cli.read_long_csv`` for ``cmd_fit`` ...).
Spans stay in memory as ``[name, start, end, parent_index]``; a layer's
self time is the length of its spans minus the time covered by their direct
child spans.  The run is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (module, attribute, span name).  A function imported into several modules
# is wrapped at each binding under one span name.
TRACED = (
    ("sncross.em", "fit", "em.fit"),
    ("sncross.simulate", "fit", "em.fit"),
    ("sncross.cli", "fit", "em.fit"),
    ("sncross.em", "initialize", "em.initialize"),
    ("sncross.em", "e_step", "em.e_step"),
    ("sncross.diagnostics", "e_step", "em.e_step"),
    ("sncross.em", "update_beta", "em.update_beta"),
    ("sncross.em", "nr_step", "em.nr_step"),
    ("sncross.em", "q_value", "em.q_value"),
    ("sncross.em", "q_gradient", "em.q_gradient"),
    ("sncross.em", "q_hessian", "em.q_hessian"),
    ("sncross.em", "marginal_loglik", "em.marginal_loglik"),
    ("sncross.cli", "marginal_loglik", "em.marginal_loglik"),
    ("sncross.em", "standard_errors", "em.standard_errors"),
    ("sncross.simulate", "generate_dataset", "simulate.generate_dataset"),
    ("sncross.simulate", "sn_sample", "skewnormal.sn_sample"),
    ("sncross.simulate", "sn_sample_vector", "skewnormal.sn_sample_vector"),
    ("sncross.simulate", "build_design", "design.build_design"),
    ("sncross.design", "build_design", "design.build_design"),
    ("sncross.io", "write_long_csv", "io.write_long_csv"),
    ("sncross.cli", "read_long_csv", "io.read_long_csv"),
    ("sncross.cli", "gof_report", "diagnostics.gof_report"),
    ("sncross.cli", "plot_data_rows", "diagnostics.plot_data_rows"),
    ("sncross.cli", "write_plot_csv", "diagnostics.write_plot_csv"),
    ("sncross.cli", "cmd_fit", "cli.cmd_fit"),
    ("sncross.cli", "cmd_diagnose", "cli.cmd_diagnose"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))


def patch(module: str, attribute: str, wrapper) -> tuple:
    """Replace ``module.attribute`` by ``wrapper(original)``; return an undo record."""
    mod = importlib.import_module(module)
    original = getattr(mod, attribute)
    setattr(mod, attribute, wrapper(original))
    return mod, attribute, original


def unpatch(undo: list) -> None:
    """Restore patched attributes, last patch first."""
    while undo:
        mod, attribute, original = undo.pop()
        setattr(mod, attribute, original)


class Tracer:
    """Records a span for every call through the bindings in ``TRACED``, timed by ``clock``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stalls = 0
        self._open: list[int] = []
        self._undo: list = []

    def install(self) -> None:
        for module, attribute, name in TRACED:
            self._undo.append(patch(module, attribute, functools.partial(self._wrap, name)))

    def uninstall(self) -> None:
        unpatch(self._undo)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        clock = self.clock
        is_nr_step = name == "em.nr_step"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if is_nr_step and out[1]:
                self.stalls += 1
            return out

        return traced

    def take(self) -> dict[str, float]:
        """Per-layer counts and self times of the spans recorded so far; clears them.

        Keys: ``<span>.calls``, ``<span>.self_s``, ``em.fit.total_s``,
        ``em.nr_step.line_search_evals`` (``q_value`` calls made by
        ``nr_step`` beyond its one call at the current point) and
        ``em.nr_step.stalls``.
        """
        if self._open:
            raise RuntimeError("take() called inside an open span")
        spans = self.spans
        child = [0.0] * len(spans)
        nr_q_calls = 0
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
                if name == "em.q_value" and spans[parent][0] == "em.nr_step":
                    nr_q_calls += 1
        out: Counter = Counter()
        for (name, start, end, _), covered in zip(spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - covered
            if name == "em.fit":
                out["em.fit.total_s"] += end - start
        out["em.nr_step.line_search_evals"] = nr_q_calls - out["em.nr_step.calls"]
        out["em.nr_step.stalls"] = self.stalls
        spans.clear()
        self.stalls = 0
        return dict(out)
