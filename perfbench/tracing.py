"""Layer spans and eigensolver counters, recorded from outside the library.

``Tracer.install()`` replaces every public function of the traced
``diracssf`` modules, and every public method of the classes they define,
with a timing wrapper.  A function is replaced in every ``diracssf``
namespace that binds it: ``toeplitz`` binds ``landau.log_radial_moments``
at import and ``cli`` binds ``harness.run_scenario``, so patching the
defining module alone would miss those calls.  ``numpy.linalg``'s eig*
solvers get a counter that charges each call, and its time, to the
innermost open layer span.  ``uninstall()`` puts every original back.

Spans nest.  A span's self time is its duration minus the durations of
the spans opened directly inside it; eigensolver time is counted, not
subtracted.  The span stack is a single list, so spans assume one thread,
which is the CLI's default thread count.

A snapshot is a flat dict: ``self_s:<span>``, ``total_s:<span>``,
``calls:<span>``, ``eig_calls:<layer>``, ``eig_s:<layer>`` and
``count:<name>`` add across processes and passes; ``max:<name>`` keys
combine by maximum.
"""

import contextlib
import functools
import sys
import time
import types
from collections import defaultdict

LAYERS = ("landau", "_quad", "toeplitz", "counting", "asymptotics", "ssf",
          "kernels1d", "discrete_model", "harness")
EIG_SOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")
QUERY_SPANS = ("ssf.SsfEstimator.inside_bracket", "ssf.SsfEstimator.outside_bracket")


def _basis_built(tracer, basis):
    tracer.data["count:landau.basis_k_total"] += basis.K
    tracer.peak("max:landau.quad_nodes", basis.quad_nodes)


def _compression_built(tracer, _model):
    # a compression built while a gap-edge query is open was not reused
    if any(frame[0].startswith("ssf.") for frame in tracer.stack):
        tracer.data["count:ssf.query_compressions"] += 1


HOOKS = {
    "landau.build_lll_basis": _basis_built,
    "toeplitz.toeplitz_radial_spectrum": _compression_built,
}


class Tracer:
    """Collects span and counter totals for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.data = defaultdict(float)
        self._patches = []

    def peak(self, key, value):
        self.data[key] = max(self.data[key], value)

    def reset(self):
        self.data = defaultdict(float)

    def snapshot(self):
        return dict(self.data)

    @contextlib.contextmanager
    def muted(self):
        """Calls made inside this block leave the totals untouched."""
        data, stack = self.data, self.stack
        self.data, self.stack = defaultdict(float), []
        try:
            yield
        finally:
            self.data, self.stack = data, stack

    def span(self, name, fn):
        """``fn`` wrapped in a span called ``name``."""
        tracer = self
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack = tracer.stack
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.clock() - start
                stack.pop()
                data = tracer.data
                data["self_s:" + name] += elapsed - frame[1]
                data["total_s:" + name] += elapsed
                data["calls:" + name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    def counter(self, fn):
        """``fn`` wrapped so each call is charged to the innermost layer."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = tracer.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if tracer.stack:
                    layer = tracer.stack[-1][0].split(".", 1)[0]
                    tracer.data["eig_calls:" + layer] += 1
                    tracer.data["eig_s:" + layer] += tracer.clock() - start

        return counted

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (staticmethod, classmethod)):
                self._patch(cls, attr, type(obj)(self.span(name, obj.__func__)))
            elif isinstance(obj, types.FunctionType):
                self._patch(cls, attr, self.span(name, obj))

    def install(self):
        """Wrap the traced layers; ``diracssf`` must already be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy.linalg

        namespaces = [mod for name, mod in sorted(sys.modules.items())
                      if name == "diracssf" or name.startswith("diracssf.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["diracssf." + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(layer, obj)
                elif callable(obj):
                    wrappers[id(obj)] = (obj, self.span(f"{layer}.{attr}", obj))
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for attr in EIG_SOLVERS:
            self._patch(numpy.linalg, attr, self.counter(getattr(numpy.linalg, attr)))

    def uninstall(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def merge(snapshots):
    """Combine snapshots: ``max:`` keys by maximum, all others by sum."""
    out = defaultdict(float)
    for snap in snapshots:
        for key, value in snap.items():
            out[key] = max(out[key], value) if key.startswith("max:") else out[key] + value
    return dict(out)


def per_pass(setup, passes, n_passes):
    """Set-up cost plus the mean cost of one timed pass, key by key."""
    out = dict(setup)
    for key, value in passes.items():
        if key.startswith("max:"):
            out[key] = max(out.get(key, 0.0), value)
        else:
            out[key] = out.get(key, 0.0) + value / n_passes
    return out
