"""Layer tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the empbridge modules from
outside the package. Each wrapper is installed at every module attribute that
holds the original object, so a caller that imported the function by name
(``from .coupling import construct_joint``) sees the wrapper too. Per layer it
records wall time, self time (wall time minus the time of wrapped callees),
the number of calls and, where the layer has one, a work count.

Everything stays in memory in the traced process; ``snapshot`` turns the
accumulators into the per-layer metrics that ``run.py`` reports.
"""

from __future__ import annotations

import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _draw_points(args, kwargs):
    return int(_arg(args, kwargs, 1, "n"))


def _matrix_cells(args, kwargs):
    return len(_arg(args, kwargs, 1, "params")) * len(_arg(args, kwargs, 2, "xs"))


def _batch_points(args, kwargs):
    return len(_arg(args, kwargs, 0, "source"))


def _radius(args, kwargs):
    return float(_arg(args, kwargs, 2, "epsilon"))


# (layer, defining module, attribute path, work-count function, key function
#  whose distinct values are counted)
TARGETS = (
    ("seeds.rng", "empbridge.seeds", "SeedSpec.rng", None, None),
    ("distributions.draw", "empbridge.distributions", "Distribution.draw", _draw_points, None),
    ("function_classes.evaluate_matrix", "empbridge.function_classes", "FunctionClass.evaluate_matrix", _matrix_cells, None),
    ("coupling.construct_joint", "empbridge.coupling", "construct_joint", None, None),
    ("coupling.ot_couple", "empbridge.coupling", "ot_couple", _batch_points, None),
    ("coupling.prepare_coupling", "empbridge.coupling", "prepare_coupling", None, _radius),
    ("function_classes.build_grid", "empbridge.function_classes", "build_grid", None, None),
    ("bridge.factorize", "empbridge.bridge", "factorize", None, None),
    ("bridge.conditional_law", "empbridge.bridge", "conditional_law", None, None),
    ("bridge.extend_from_law", "empbridge.bridge", "extend_from_law", None, None),
    ("blocking.run_sequential", "empbridge.blocking", "run_sequential", None, None),
    ("function_classes.covering_certificate", "empbridge.function_classes", "covering_certificate", None, None),
    ("bounds.audit", "empbridge.experiments", "run_bounds_audit", None, None),
    ("experiments.orchestration", "empbridge.experiments", "run_gauss_approx", None, None),
    ("experiments.orchestration", "empbridge.experiments", "run_strong_approx", None, None),
    ("experiments.orchestration", "empbridge.experiments", "run_couple", None, None),
    ("experiments.orchestration", "empbridge.experiments", "run_entropy", None, None),
)

# Names at which callers look the traced functions up. A refactor that moves
# a call site away from these names must move the benchmark with it, so the
# tracer refuses to run rather than report a layer as idle.
CALLER_NAMES = (
    "empbridge.experiments.construct_joint",
    "empbridge.blocking.construct_joint",
    "empbridge.experiments.prepare_coupling",
    "empbridge.blocking.prepare_coupling",
    "empbridge.coupling.extend_from_law",
    "empbridge.coupling.ot_couple",
    "empbridge.coupling.build_grid",
    "empbridge.coupling.factorize",
    "empbridge.coupling.conditional_law",
    "empbridge.experiments.run_sequential",
    "empbridge.experiments.covering_certificate",
)

# Reported metrics: layer -> fields. "points" and "cells" report the layer's
# work count; "distinct" and "reuse" come from its key function.
FIELDS = {
    "seeds.rng": ("s", "calls"),
    "distributions.draw": ("s", "calls", "points"),
    "function_classes.evaluate_matrix": ("s", "calls", "cells"),
    "coupling.construct_joint": ("s", "self_s", "calls"),
    "coupling.ot_couple": ("s", "calls", "points"),
    "coupling.prepare_coupling": ("s", "calls", "distinct", "reuse"),
    "function_classes.build_grid": ("s",),
    "bridge.factorize": ("s",),
    "bridge.conditional_law": ("s",),
    "blocking.run_sequential": ("s", "self_s", "calls"),
    "bridge.extend_from_law": ("s", "calls"),
    "experiments.orchestration": ("self_s",),
    "function_classes.covering_certificate": ("s", "calls"),
    "bounds.audit": ("s",),
}


class CoverageError(RuntimeError):
    """The tracer cannot see a layer it is meant to measure."""


class _Layer:
    __slots__ = ("s", "self_s", "calls", "units", "keys")

    def __init__(self):
        self.s = 0.0
        self.self_s = 0.0
        self.calls = 0
        self.units = 0
        self.keys = set()


class Tracer:
    """Wrap the layers of an imported empbridge; ``install`` / ``uninstall``."""

    def __init__(self):
        self.layers = {layer: _Layer() for layer in FIELDS}
        self._stack = [0.0]
        self._patches: list = []

    def reset(self):
        for layer in self.layers.values():
            layer.__init__()

    def _wrap(self, layer: _Layer, fn, count, key):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                layer.s += elapsed
                layer.self_s += elapsed - inner
                layer.calls += 1
                if count is not None:
                    layer.units += count(args, kwargs)
                if key is not None:
                    layer.keys.add(key(args, kwargs))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == "empbridge" or name.startswith("empbridge.")]
        wrappers = set()
        for layer_name, module_name, path, count, key in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.uninstall()
                raise CoverageError(f"{module_name}.{path} not found; the tracer needs updating")
            wrapper = self._wrap(self.layers[layer_name], original, count, key)
            wrappers.add(wrapper)
            if outer:  # a method: patch the class attribute
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapper)
        for dotted in CALLER_NAMES:
            module_name, name = dotted.rsplit(".", 1)
            if getattr(sys.modules.get(module_name), name, None) not in wrappers:
                self.uninstall()
                raise CoverageError(f"{dotted} is not a traced function; callers moved")

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last ``reset``."""
        out = {}
        for layer_name, fields in FIELDS.items():
            layer = self.layers[layer_name]
            for field in fields:
                if field == "distinct":
                    value = len(layer.keys)
                elif field == "reuse":
                    value = len(layer.keys) / layer.calls if layer.calls else 0.0
                elif field in ("points", "cells"):
                    value = layer.units
                else:
                    value = getattr(layer, field)
                out[f"{layer_name}.{field}"] = value
        return out

    def counts(self) -> dict:
        """Exact work counts per layer, which repeat for a repeated config."""
        return {
            name: {"calls": layer.calls, "units": layer.units, "distinct": len(layer.keys)}
            for name, layer in self.layers.items()
        }
