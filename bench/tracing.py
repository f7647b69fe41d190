"""Span tracing of coopmac's layers from outside the package.

`Tracer.installed()` replaces public functions at the module attributes
their callers look them up through (for example `coopmac.monte_carlo.tier_index`,
which `monte_carlo` imported by name) with wrappers that record one span per
call: name, start, end, parent span and op id, plus the element count of the
first argument where that is the unit of work.  Spans are kept in flat arrays
while the run lasts and turned into per-name totals (`summary`) or written out
(`save`) when it ends.  Self time is a span's duration minus the durations of
its direct children; calls are strictly nested in one thread, so the children
cover disjoint parts of the parent.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

# (module, attribute, span name, count elements of the first argument)
# The span name is "<layer>.<function>"; channel-model calls carry the calling
# module after "@" so the two callers can be told apart.
WRAP_POINTS = (
    ("monte_carlo", "estimate_throughput", "monte_carlo.estimate_throughput", False),
    ("monte_carlo", "p_success_direct", "channel_model.p_success_direct@monte_carlo", True),
    ("monte_carlo", "g_joint", "channel_model.g_joint@monte_carlo", True),
    ("monte_carlo", "tier_index", "stochastic_geometry.tier_index", True),
    ("analytic_bounds", "averaged_bounds", "analytic_bounds.averaged_bounds", False),
    ("analytic_bounds", "total_throughput_bounds", "analytic_bounds.total_throughput_bounds", False),
    ("analytic_bounds", "type_ab_throughput", "analytic_bounds.type_ab_throughput", False),
    ("analytic_bounds", "h_integral", "analytic_bounds.h_integral", False),
    ("analytic_bounds", "link_bounds_at_distance", "analytic_bounds.link_bounds_at_distance", False),
    ("analytic_bounds", "tier_probabilities", "analytic_bounds.tier_probabilities", False),
    ("analytic_bounds", "tier_bound_pair", "analytic_bounds.tier_bound_pair", False),
    ("analytic_bounds", "p_success_direct", "channel_model.p_success_direct@analytic_bounds", True),
    ("analytic_bounds", "g_joint", "channel_model.g_joint@analytic_bounds", True),
    ("analytic_bounds", "nn_distance_pdf", "stochastic_geometry.nn_distance_pdf", False),
    ("analytic_bounds", "adaptive_simpson", "quadrature.adaptive_simpson", False),
    ("stochastic_geometry", "lens_area", "stochastic_geometry.lens_area", False),
)

# The integrand closure handed to adaptive_simpson is analytic_bounds code;
# its span keeps that work out of the quadrature's self time and counts the
# quadrature's function evaluations.
INTEGRAND = "analytic_bounds.integrand"
QUADRATURE = "quadrature.adaptive_simpson"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records nested call spans into flat arrays; see the module docstring."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.elems = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, count_elems: bool = False):
        nid = self._name_id(name)
        names, parents, ops, elems = self.name, self.parent, self.op, self.elems
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter
        wrap_integrand = name == QUADRATURE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if wrap_integrand:
                args = (self.wrap(args[0], INTEGRAND),) + args[1:]
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            elems.append(int(np.size(args[0])) if count_elems else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Patch every wrap point of `package` (the imported coopmac) for the block."""
        saved = []
        try:
            for module_name, attr, name, count in WRAP_POINTS:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self):
        """(name, parent, op, elems, duration, self time) as numpy arrays."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        return (name, parent, np.frombuffer(self.op, dtype=np.int32),
                np.frombuffer(self.elems, dtype=np.int64), dur, dur - covered)

    def summary(self) -> dict:
        """Per span name: calls, elements and self time in seconds."""
        name, _, _, elems, _, self_s = self.arrays()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        elem_sum = np.bincount(name, weights=elems, minlength=n)
        self_sum = np.bincount(name, weights=self_s, minlength=n)
        return {nm: {"calls": int(calls[i]), "elems": int(elem_sum[i]), "self_s": float(self_sum[i])}
                for i, nm in enumerate(self.names)}

    def op_residuals(self):
        """Per op id: (sum of self times of its spans) minus (its root span)."""
        name, parent, op, _, dur, self_s = self.arrays()
        roots = parent < 0
        total = np.bincount(op, weights=self_s)
        root = np.bincount(op[roots], weights=dur[roots], minlength=total.size)
        return total - root, self_s.min() if self_s.size else 0.0

    def save(self, path) -> None:
        name, parent, op, elems, dur, _ = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, op=op, elems=elems,
                 start=np.frombuffer(self.start, dtype=np.float64), end=np.frombuffer(self.end, dtype=np.float64))
