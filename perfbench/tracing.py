"""Spans recorded from outside the program, around calls into its layers.

A span is (name, operation id, parent index, start, end). The layer of a
span is its name up to the first dot. Spans stay in memory and are written
out once, when the run ends. `NullTracer` has the same interface and
records nothing, so one code path serves the traced and untraced replays.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

from metafold.assembly import Registry, register
from metafold.components import Component


class NullTracer:
    enabled = False

    def next_op(self):
        pass

    def begin(self, name):
        return None

    def end(self, token):
        pass

    def span(self, name):
        return nullcontext()

    def wrap(self, component, name):
        return component

    def wrap_accept(self, component):
        return component

    def accepted(self, chosen, pair):
        pass

    def registry(self, reg):
        return reg

    def problem(self, problem):
        return problem


NULL = NullTracer()


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans = []  # [name, op, parent, start, end]
        self._stack = []
        self.op = 0
        self.counts = Counter()

    def next_op(self):
        self.op += 1

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def end(self, token):
        self.spans[self._stack.pop()][4] = perf_counter()

    @contextmanager
    def span(self, name):
        token = self.begin(name)
        try:
            yield
        finally:
            self.end(token)

    def wrap(self, component, name):
        step = component.step

        def traced(x, env):
            token = self.begin(name)
            try:
                return step(x, env)
            finally:
                self.end(token)

        return Component(component.descriptor, traced)

    def wrap_accept(self, component):
        step = component.step

        def traced(pair, env):
            token = self.begin("components.accept")
            try:
                chosen, env = step(pair, env)
            finally:
                self.end(token)
            self.accepted(chosen, pair)
            return chosen, env

        return Component(component.descriptor, traced)

    def accepted(self, chosen, pair):
        # Same test the framework applies to decide whether incoming won.
        self.counts["accept.calls"] += 1
        self.counts["accept.accepted"] += chosen == pair[1]

    def wrap_fn(self, fn, name):
        def traced(*args):
            token = self.begin(name)
            try:
                return fn(*args)
            finally:
                self.end(token)

        return traced

    def registry(self, reg: Registry) -> Registry:
        """The same registry, rebuilt with `register`, whose factories wrap
        every component they build in a span named after its kind."""
        out = Registry()
        for key, desc in reg.descriptors.items():
            kind = key[0]
            factory = reg.factories[key]
            if kind == "accept":
                wrapped = lambda b, f=factory: self.wrap_accept(f(b))
            else:
                wrapped = lambda b, f=factory, k=kind: self.wrap(f(b), f"components.{k}")
            out = register(out, desc, wrapped, impl=reg.impls.get(key))
        return out

    def problem(self, problem):
        return dataclasses.replace(
            problem,
            evaluate=self.wrap(problem.evaluate, "problems.evaluate"),
            sample_initial=self.wrap_fn(problem.sample_initial, "problems.sample_initial"),
        )

    # -- analysis ----------------------------------------------------------

    def by_name(self):
        """name -> [calls, total seconds, self seconds]. Self time is the
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, _op, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _op, _parent, start, end) in enumerate(self.spans):
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child[i]
        return dict(out)

    def durations(self, name):
        return [end - start for n, _o, _p, start, end in self.spans if n == name]

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, op, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "op": op, "parent": parent,
                                     "start": start, "end": end}) + "\n")
