"""Spans around the calls `engine.evaluate` makes into the package's layers.

The tracer replaces the module attributes that `engine` and `contiguity`
look up at call time with timing wrappers, so the traced run still executes
`evaluate()` itself.  A wrapped name that the package no longer defines is
skipped and reports zero calls.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import statistics
from time import perf_counter

# (module, attribute, span name)
WRAPPED = (
    ("engine", "map_problem", "engine.map"),
    ("engine", "check_in_X", "minors.generic"),
    ("engine", "build_path", "engine.path"),
    ("engine", "gm_vector_S", "series.start"),
    ("engine", "shift_up_series", "contiguity.up"),
    ("engine", "shift_down_series", "contiguity.down"),
    ("engine", "expectations", "engine.expect"),
    ("engine", "psi_all", "gauss_manin.psi"),
    ("engine", "expectation_gradients", "engine.grad"),
    ("contiguity", "contiguity_matrix", "contiguity.matrix"),
    ("linalg", "solve", "linalg.solve"),
)
ROOT = "engine.evaluate"
STEPS = ("contiguity.up", "contiguity.down")
READOUT = ("engine.expect", "gauss_manin.psi", "engine.grad")


def vector_bits(vector):
    """Largest numerator-plus-denominator bit length among the entries."""
    entries = getattr(vector, "entries", vector)
    return max(
        (int(v.numerator).bit_length() + int(v.denominator).bit_length() for v in entries),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, problem id]
        self.max_bits = 0  # of any transported vector
        self.path_lengths = []  # one per built path
        self.nongeneric = 0  # check_in_X calls that named vanishing minors
        self._stack = []
        self._problem = None

    def install(self, modules):
        """Wrap the WRAPPED attributes of `modules` (short name -> module)."""
        for module, attr, name in WRAPPED:
            fn = getattr(modules[module], attr, None)
            if fn is not None:
                setattr(modules[module], attr, self._wrap(fn, name))

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), None, parent, self._problem]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name in STEPS:
                self.max_bits = max(self.max_bits, vector_bits(out))
            elif name == "engine.path":
                self.path_lengths.append(len(out))
            elif name == "minors.generic" and out:
                self.nongeneric += 1
            return out

        return traced

    def evaluate(self, problem_id, evaluate, *args):
        """Call `evaluate(*args)` inside a root span for `problem_id`."""
        self._problem = problem_id
        span = self._open(ROOT)
        try:
            return evaluate(*args)
        finally:
            self._close(span)
            self._problem = None

    def layers(self):
        """{span name: (calls, total seconds, self seconds, durations)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: (0, 0.0, 0.0, []) for name in (ROOT,) + tuple(n for _, _, n in WRAPPED)}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own, durations = out[name]
            durations.append(end - start)
            out[name] = (calls + 1, total + end - start, own + end - start - child[index], durations)
        return out

    def summary(self):
        """Per-layer metrics, keyed by the names BENCHMARK.json lists."""
        layers = self.layers()
        down = layers["contiguity.down"][3]
        return {
            "contiguity.up_s": layers["contiguity.up"][1],
            "contiguity.down_s": layers["contiguity.down"][1],
            "contiguity.up_steps": layers["contiguity.up"][0],
            "contiguity.down_steps": layers["contiguity.down"][0],
            "contiguity.down_step_ms": 1000 * statistics.median(down) if down else 0.0,
            "contiguity.max_bits": self.max_bits,
            "contiguity.matrix_s": layers["contiguity.matrix"][1],
            "contiguity.matrix_calls": layers["contiguity.matrix"][0],
            "linalg.solve_s": layers["linalg.solve"][1],
            "linalg.solve_calls": layers["linalg.solve"][0],
            "gauss_manin.psi_s": layers["gauss_manin.psi"][1],
            "engine.grad_s": layers["engine.grad"][1],
            "engine.readout_s": sum(layers[n][1] for n in READOUT),
            "minors.generic_s": layers["minors.generic"][1],
            "minors.nongeneric": self.nongeneric,
            "series.start_s": layers["series.start"][1],
            "engine.map_s": layers["engine.map"][1],
            "engine.path_s": layers["engine.path"][1],
            "engine.path_len": statistics.median(self.path_lengths) if self.path_lengths else 0,
            "engine.expect_s": layers["engine.expect"][1],
            "engine.self_s": layers[ROOT][2],
            "engine.evaluate_s": layers[ROOT][1],
        }

    def write(self, path):
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, problem in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - t0, "end": end - t0,
                         "parent": parent, "problem": problem}
                    )
                    + "\n"
                )
