"""In-memory span tracer that measures hermgauss's layers from outside.

``Tracer.install`` wraps a fixed list of the package's public functions.
For each one it rebinds every name in a hermgauss module that refers to
the function, so a caller that resolves the name at call time (for example
``hermgauss.models.hermite_normalized_all`` or
``hermgauss.estimation.log_likelihood``) reaches the wrapper.  The package
source is not changed.  A function that a later version renames or removes
is skipped, and its counters read 0.

A span is (id, parent id, op id, name, start ns, end ns).  Spans stay in
memory until ``write`` is called at the end of a run.  The layer of a span
is the first component of its name.  A layer's self time is the duration
of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import Counter

import numpy as np

_MODULES = ("hermgauss", "hermgauss.hermite", "hermgauss.models",
            "hermgauss.quadrature", "hermgauss.geometry",
            "hermgauss.estimation", "hermgauss.cli")


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.self_ns = Counter()   # by span name
        self.total_ns = Counter()  # by span name, child spans included
        self.op_id = None
        self._next_id = 0
        self._stack = []           # [span id, name, start ns, child ns]
        self._open = Counter()     # open spans by name
        self._patched = []

    # -- spans ------------------------------------------------------------

    def begin(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._open[name] += 1

    def end(self):
        stop = time.perf_counter_ns()
        sid, name, start, child = self._stack.pop()
        self._open[name] -= 1
        duration = stop - start
        self.self_ns[name] += duration - child
        self.total_ns[name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((sid, parent[0] if parent else None, self.op_id,
                           name, start, stop))

    def _span(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- what is wrapped --------------------------------------------------

    def _kernel_fn(self, name, fn):
        counts = self.counts

        def before(args, kwargs):
            counts["models.kernel_calls"] += 1
            counts["models.kernel_points"] += int(np.size(args[0]))
        return self._span(name, fn, before)

    def _plan(self):
        """(defining module, function name, wrapper factory) triples."""
        c = self.counts

        def hermite_rows(name):
            def before(args, kwargs):
                c["hermite.calls"] += 1
                n = _arg(args, kwargs, 0, "n")
                y = _arg(args, kwargs, 1, "y")
                c["hermite.row_values"] += (int(n) + 1) * int(np.size(y))
            return lambda fn: self._span(name, fn, before)

        def kernel(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                kf = fn(*args, **kwargs)
                return dataclasses.replace(
                    kf, f=self._kernel_fn("models.f", kf.f),
                    f_prime=self._kernel_fn("models.f_prime", kf.f_prime))
            return wrapper

        def factored(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._kernel_fn("models.fisher_ratio", fn(*args, **kwargs))
            return wrapper

        def integrate(fn):
            def before(args, kwargs):
                c["quadrature.integrals"] += 1
                if self._open["geometry.metric"]:
                    c["quadrature.integrals_in_metric"] += 1

            def after(res):
                c["quadrature.evaluations"] += int(res.evaluations)
                if not res.converged:
                    c["quadrature.unconverged"] += 1
            return self._span("quadrature.integrate", fn, before, after)

        def calls(name, key, after=None):
            def before(args, kwargs):
                c[key] += 1
            return lambda fn: self._span(name, fn, before, after)

        def plain(name):
            return lambda fn: self._span(name, fn)

        def geodesic_after(trace):
            c["geometry.geodesic_steps"] += len(trace.samples) - 1

        def fit_after(_):
            c["estimation.fits_ok"] += 1

        def sample_before(args, kwargs):
            c["estimation.draws"] += int(_arg(args, kwargs, 2, "count"))

        return [
            ("hermgauss.hermite", "hermite_normalized_all",
             hermite_rows("hermite.normalized_rows")),
            ("hermgauss.hermite", "hermite_all", hermite_rows("hermite.rows")),
            ("hermgauss.models", "kernel", kernel),
            ("hermgauss.models", "fisher_ratio_factored", factored),
            ("hermgauss.quadrature", "integrate_real_line", integrate),
            ("hermgauss.quadrature", "_panel",
             lambda fn: self._counted("quadrature.panels", fn)),
            ("hermgauss.geometry", "metric_quadrature",
             calls("geometry.metric", "geometry.metric_calls")),
            ("hermgauss.geometry", "metric_closed_form",
             plain("geometry.closed_form")),
            ("hermgauss.geometry", "metric_series_real", plain("geometry.series")),
            ("hermgauss.geometry", "scalar_curvature_reduced",
             plain("geometry.curvature")),
            ("hermgauss.geometry", "curvature_finite_difference",
             calls("geometry.fd_curvature", "geometry.fd_curvature_calls")),
            ("hermgauss.geometry", "geodesic_trace",
             calls("geometry.geodesic", "geometry.geodesic_calls",
                   geodesic_after)),
            ("hermgauss.geometry", "christoffel_reduced",
             lambda fn: self._counted("geometry.christoffel_calls", fn)),
            ("hermgauss.estimation", "sample",
             lambda fn: self._span("estimation.sample", fn, sample_before)),
            ("hermgauss.estimation", "mle_fit",
             calls("estimation.fit", "estimation.fits", fit_after)),
            ("hermgauss.estimation", "log_likelihood",
             calls("estimation.loglik", "estimation.loglik_evals")),
            ("hermgauss.estimation", "crb_experiment", plain("estimation.crb")),
            ("hermgauss.cli", "main", calls("cli.main", "cli.commands")),
            ("hermgauss.cli", "parse_config", plain("cli.parse")),
        ]

    def install(self):
        modules = [importlib.import_module(name) for name in _MODULES]
        home = {m.__name__: m for m in modules}
        for module_name, attr, make in self._plan():
            original = getattr(home[module_name], attr, None)
            if original is None:
                continue
            wrapper = make(original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patched.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_ns.items()
                   if k.split(".", 1)[0] == layer) / 1e9

    def metrics(self):
        """Per-layer metrics of everything traced so far, as name -> value."""
        c = self.counts
        fits = c["estimation.fits"]
        useful = c["estimation.fits_ok"]
        return {
            "hermite.calls": c["hermite.calls"],
            "hermite.row_values": c["hermite.row_values"],
            "hermite.self_s": self.layer_self_s("hermite"),
            "models.kernel_calls": c["models.kernel_calls"],
            "models.kernel_points": c["models.kernel_points"],
            "models.self_s": self.layer_self_s("models"),
            "quadrature.integrals": c["quadrature.integrals"],
            "quadrature.evaluations": c["quadrature.evaluations"],
            "quadrature.panels": c["quadrature.panels"],
            "quadrature.unconverged": c["quadrature.unconverged"],
            "quadrature.evals_per_integral":
                c["quadrature.evaluations"] / max(c["quadrature.integrals"], 1),
            "quadrature.self_s": self.layer_self_s("quadrature"),
            "geometry.metric_calls": c["geometry.metric_calls"],
            "geometry.integrals_per_metric":
                c["quadrature.integrals_in_metric"]
                / max(c["geometry.metric_calls"], 1),
            "geometry.fd_curvature_calls": c["geometry.fd_curvature_calls"],
            "geometry.fd_curvature_s": self.total_ns["geometry.fd_curvature"] / 1e9,
            "geometry.geodesic_calls": c["geometry.geodesic_calls"],
            "geometry.geodesic_steps": c["geometry.geodesic_steps"],
            "geometry.christoffel_calls": c["geometry.christoffel_calls"],
            "geometry.geodesic_s": self.total_ns["geometry.geodesic"] / 1e9,
            "estimation.draws": c["estimation.draws"],
            "estimation.sample_self_s": self.self_ns["estimation.sample"] / 1e9,
            "estimation.fits": fits,
            "estimation.fit_self_s": self.self_ns["estimation.fit"] / 1e9,
            "estimation.loglik_evals": c["estimation.loglik_evals"],
            "estimation.loglik_evals_per_fit":
                c["estimation.loglik_evals"] / max(fits, 1),
            "estimation.loglik_self_s": self.self_ns["estimation.loglik"] / 1e9,
            "estimation.failed_trials": fits - useful,
            "estimation.useful_fit_ratio": useful / fits if fits else 0.0,
            "cli.commands": c["cli.commands"],
            "cli.parse_s": self.total_ns["cli.parse"] / 1e9,
            "cli.self_s": self.layer_self_s("cli"),
            "cli.report_bytes": c["cli.report_bytes"],
        }

    def write(self, path):
        """Write the recorded spans as JSON lines, in order of completion."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, stop in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op,
                                     "name": name, "start_ns": start,
                                     "end_ns": stop}) + "\n")
