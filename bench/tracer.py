"""Layer spans around the public callables of the varband modules.

`Tracer.installed()` replaces every public function of every module, and
every public method and property of every class, with a wrapper, in each
module namespace where the name is looked up: ``schrodinger.rk4_final`` and
``cli.free_model`` are patched as well as ``sturm.rk4_final`` and
``kernel.free_model``. The originals are put back on exit.

A span is recorded when a call enters a layer from another layer (or from
the benchmark); calls inside a layer run through without one. A layer's
self time is the length of its spans minus the time covered by their child
spans. Counts of work are recorded at the same wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("spectral", "profile", "sturm", "schrodinger", "kernel", "paleywiener",
          "sampling", "density", "cli")
WRAPPED_DUNDERS = {"__init__", "__call__", "__add__", "__sub__", "__mul__", "__rmul__"}
# profile methods (and module functions) whose second argument is the abscissae
POINT_FUNCTIONS = {"eval_p", "__call__", "zeta", "zeta_inv", "eta", "eta_inv",
                   "potential_q", "potential_q_warped", "max_gap_delta"}


def _count_points(tracer, args, kwargs, result, boundary):
    # abscissae handed to the layer, not the layer's calls to itself
    if boundary and len(args) > 1:
        tracer.counts["profile.points"] += int(np.size(args[1]))


def _count_nodes(tracer, args, kwargs, result, boundary):
    tracer.counts["spectral.nodes"] += len(result)


def _count_macs(tracer, args, kwargs, result, boundary):
    model, xs, ys = args[0], args[1], args[2] if len(args) > 2 else kwargs["ys"]
    # two fundamental-solution components per node
    tracer.counts["kernel.matrix_macs"] += 2 * len(model.quad) * int(np.size(xs)) * int(np.size(ys))


def _count_phi(tracer, args, kwargs, result, boundary):
    # every call: a warped model's inner scattering values count as well
    tracer.counts["kernel.phi_values"] += int(np.size(result))


def _counter_for(layer, name):
    if layer == "profile" and name in POINT_FUNCTIONS:
        return _count_points
    if layer == "spectral" and name in ("gauss_legendre_quadrature", "uniform_quadrature"):
        return _count_nodes
    if layer == "kernel" and name == "kernel_matrix":
        return _count_macs
    if layer == "kernel" and name == "phi":
        return _count_phi
    return None


class Tracer:
    """Per-layer self time, boundary call counts and work counts."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"varband.{layer}") for layer in LAYERS}
        self._homes = {mod.__name__: layer for layer, mod in self.modules.items()}
        self._stack = []  # [layer, time covered by child spans]
        self._patches = self._plan()
        self.reset()

    def reset(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counts = dict.fromkeys(("profile.points", "spectral.nodes",
                                     "kernel.matrix_macs", "kernel.phi_values"), 0)

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    def _plan(self):
        wrappers = {}

        def wrapper_for(obj, layer):
            if id(obj) not in wrappers:
                wrappers[id(obj)] = (obj, self._wrap(obj, layer))
            return wrappers[id(obj)][1]

        patches = []
        for layer, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_"):
                    continue
                home = self._homes.get(getattr(obj, "__module__", None))
                if home is None:
                    continue
                if inspect.isfunction(obj):
                    patches.append((mod, attr, obj, wrapper_for(obj, home)))
                elif (inspect.isclass(obj) and home == layer
                      and not issubclass(obj, BaseException)):
                    patches.extend(self._plan_class(obj, layer, wrapper_for))
        return patches

    def _plan_class(self, cls, layer, wrapper_for):
        patches = []
        for attr, member in vars(cls).items():
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            if inspect.isfunction(member):
                patches.append((cls, attr, member, wrapper_for(member, layer)))
            elif isinstance(member, property) and member.fget is not None:
                wrapped = property(wrapper_for(member.fget, layer), member.fset,
                                   member.fdel, member.__doc__)
                patches.append((cls, attr, member, wrapped))
        return patches

    def _wrap(self, fn, layer):
        stack, clock = self._stack, time.perf_counter
        count = _counter_for(layer, fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, args, kwargs, result, False)
                return result
            span = [layer, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - span[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
            if count is not None:
                count(self, args, kwargs, result, True)
            return result

        return traced
