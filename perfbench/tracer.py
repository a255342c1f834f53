"""In-memory span tracer that times orthosample's layers from outside the package.

While a tracer is active, every public function of every orthosample module
is replaced, in each module namespace that binds it, by a wrapper that records
a span.  Rebinding the defining module as well as the importers means calls
within a module (``orthosample.spectral.orthogonal_sample`` calling
``weighted_average_run``) are seen too.  ``Dist.cdf``/``sf``/``quantile`` and
``numpy.fft.fft``/``ifft``/``rfft``/``irfft`` are wrapped the same way.

A span records its name, start, end, parent span and op id.  A span's layer is
the module that defines the wrapped function (``fft`` for numpy's FFTs); its
self time is its duration minus the durations of its direct children, which
cover disjoint parts of it because calls nest.  Spans stay in memory and are
written out by :meth:`Tracer.dump` when the run ends.

Counters are taken from the same wrappers, from arguments and return values
only, so they repeat exactly for the same inputs.
"""

from __future__ import annotations

import array
import collections
import contextlib
import functools
import importlib
import math
import types
import warnings
from time import perf_counter

import numpy as np

LAYERS = ("experiments", "models", "selection", "spectral", "htests", "variance",
          "equality", "distributions", "whittle", "cli", "fft")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft")
DIST_METHODS = ("cdf", "sf", "quantile")
COUNTERS = ("selection.criterion_evals", "fft.points", "fft.flop_computed",
            "fft.bytes_computed", "equality.beta_clamped", "whittle.iterations")
# span names whose call counts are reported as counters of their own
COUNTED_SPANS = {
    "spectral.dft.calls": "spectral.dft",
    "spectral.weighted_average_run.calls": "spectral.weighted_average_run",
    "equality.kernel_estimates": "equality.kernel_spectral_estimate",
    "distributions.cdf_evals": "distributions.Dist.cdf",
    "whittle.objective_evals": "whittle.whittle_objective",
}


def _count_samples(counts, out):
    for sim in out if isinstance(out, tuple) else (out,):
        counts["models.samples_kept"] += sim.series.size
        counts["models.samples_drawn"] += (sim.series.size + sim.burn_in_used
                                           + sim.truncation_used)


def _count_fft(fname, counts, out, args, kwargs):
    """Points, flops (5 n log2 n per complex transform of length n, half that
    for the real ones) and bytes read plus written, from the array sizes."""
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    real = fname in ("rfft", "irfft")
    n = out.shape[axis] if fname != "rfft" else np.shape(args[0])[axis]
    transforms = out.size // out.shape[axis]
    counts["fft.points"] += n * transforms
    if n > 1:
        counts["fft.flop_computed"] += (2.5 if real else 5.0) * n * math.log2(n) * transforms
    counts["fft.bytes_computed"] += np.asarray(args[0]).nbytes + out.nbytes


_HOOKS = {
    "models.generate": lambda c, out, a, k: _count_samples(c, out),
    "models.generate_bivariate": lambda c, out, a, k: _count_samples(c, out),
    "selection.select_M": lambda c, out, a, k: c.update(
        {"selection.criterion_evals": len(out.criterion_curve)}),
    "selection.criterion": lambda c, out, a, k: c.update({"selection.criterion_evals": 1}),
    "whittle.whittle_fit": lambda c, out, a, k: c.update({"whittle.iterations": out.iterations}),
}
for _f in FFT_FUNCTIONS:
    _HOOKS[f"fft.{_f}"] = functools.partial(_count_fft, _f)


class Tracer:
    """Spans and counters for the ops run inside :meth:`active`."""

    def __init__(self, package):
        self.names: list[str] = []
        self.span_name = array.array("i")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts = collections.Counter()
        self._stack = [-1]
        self._op_id = -1
        self._patches = self._plan(package)

    def _plan(self, package):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS if layer != "fft"]
        namespaces = [package, *modules]
        patches = []
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                patches += [(ns, attr, fn, wrapper) for ns in namespaces
                            for attr, value in vars(ns).items() if value is fn]
        dist = importlib.import_module(f"{package.__name__}.distributions").Dist
        for name in DIST_METHODS:
            fn = vars(dist)[name]
            patches.append((dist, name, fn, self._wrap(f"distributions.Dist.{name}", fn)))
        for name in FFT_FUNCTIONS:
            fn = getattr(np.fft, name)
            patches.append((np.fft, name, fn, self._wrap(f"fft.{name}", fn)))
        return patches

    def _wrap(self, span, fn):
        name_id = len(self.names)
        self.names.append(span)
        hook = _HOOKS.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.span_name.append(name_id)
            self.parent.append(self._stack[-1])
            self.op.append(self._op_id)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, out, args, kwargs)
            return out

        return traced

    @contextlib.contextmanager
    def active(self, op_id: int):
        """Install the wrappers for one op and remove them afterwards.

        Warnings raised meanwhile are recorded rather than printed, and the
        equality test's exponent-clamping warnings are counted.
        """
        self._op_id = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.counts["equality.beta_clamped"] += sum(
                1 for w in caught if "clamping" in str(w.message))

    def metrics(self) -> dict:
        """Per-layer calls, self time and share of the root spans' time, plus
        the counters."""
        names = np.asarray(self.names)
        span_name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        self_time = dur - np.bincount(parent[nested], weights=dur[nested],
                                      minlength=dur.size)
        name_layer = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names],
                              dtype=np.int64)
        layer = name_layer[span_name]
        calls = np.bincount(layer, minlength=len(LAYERS))
        busy = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        total = float(dur[~nested].sum())
        out = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(busy[i])
            out[f"{name}.share"] = float(busy[i] / total) if total > 0 else 0.0
        per_name = np.bincount(span_name, minlength=names.size)
        for metric, span in COUNTED_SPANS.items():
            out[metric] = int(per_name[self.names.index(span)]) if span in self.names else 0
        for metric in COUNTERS:
            out[metric] = self.counts[metric]
        drawn = self.counts["models.samples_drawn"]
        out["models.useful_frac"] = self.counts["models.samples_kept"] / drawn if drawn else 0.0
        return out

    def dump(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path, names=np.asarray(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
