"""In-memory span tracer that wraps public module attributes of dualrail.

Callers inside the package look these functions up through their module
(``optics.build_chip_unitary``, ``permanent`` inside ``sampler``), so
replacing the module attribute puts a span around every call without
touching the package source.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter

# (module, attribute) pairs wrapped by a traced run; the metric prefix is
# "<module>.<attribute>".
TRACED = (
    ("cli", "main"),
    ("optics", "build_chip_unitary"),
    ("optics", "sinkhorn_scale"),
    ("optics", "fidelity"),
    ("sampler", "coincidence_probabilities"),
    ("sampler", "prob_partial"),
    ("sampler", "permanent"),
    ("sampler", "sample_counts"),
    ("sampler", "hom_curve"),
    ("calibration", "fit_sweep"),
    ("calibration", "solve_currents"),
    ("tomography", "run_qpt_simulation"),
    ("tomography", "mle_reconstruct"),
    # scipy's optimizer as tomography calls it (one call per fit start)
    ("tomography", "minimize"),
    ("gates", "fidelity_histogram"),
    ("gates", "realizable_gate"),
    ("vqe", "run_vqe"),
    ("vqe", "measure_energy"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # calls nest on one thread, so child spans never overlap each other
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    # work counts read from return values, keyed "<span name>.<counter>"
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)

    def install(self, package: str = "dualrail") -> None:
        for module_name, attr in TRACED:
            module = importlib.import_module(f"{package}.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].children_s += span.duration
            self._count(name, result)
            return result
        return traced

    def _count(self, name, result) -> None:
        if name == "tomography.mle_reconstruct":
            self._add(name + ".iterations", result.n_iterations)
        elif name == "vqe.run_vqe":
            self._add(name + ".evaluations", len(result.trace.iterations))

    def _add(self, key, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(value)

    def dump(self) -> dict:
        """Every span as [name index, start, end, parent index or -1]."""
        names = list(dict.fromkeys(span.name for span in self.spans))
        index = {name: i for i, name in enumerate(names)}
        return {"names": names,
                "spans": [[index[s.name], s.start, s.end,
                           -1 if s.parent is None else s.parent] for s in self.spans]}

    def summary(self) -> dict:
        """Per traced function: calls, self time and call durations."""
        out = {}
        for span in self.spans:
            entry = out.setdefault(
                span.name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += span.self_s
            entry["durations"].append(span.duration)
        return out
