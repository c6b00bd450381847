"""Span tracer over the public functions of the ``nisynth`` modules.

``install`` replaces every public function of the layers ``linalg``,
``statespace``, ``structure``, ``certify`` and ``synth`` (plus
``linalg._pbh_witness``, which ``synth`` calls directly) and the CLI entry
point ``cli.main`` with a wrapper that records one span per call: name,
start, end, parent span and op id.  A function imported by name into other
modules is replaced wherever it is bound (``spectral_norm`` is bound in
five modules, ``eval_tf`` in four).  Calls the program makes to
``numpy.linalg.svd`` and ``numpy.linalg.solve`` are counted, not spanned.
``uninstall`` puts every original back.
"""

import functools
import inspect
import json
import time
from collections import Counter

import numpy as np

LAYERS = ("linalg", "statespace", "structure", "certify", "synth")
#: private functions other layers call directly
PRIVATE_ENTRIES = {"linalg": ("_pbh_witness",)}
LAPACK = ("svd", "solve")


class Tracer:
    def __init__(self, nisynth):
        self.ni = nisynth
        self.spans = []        # (name, t0, t1, parent index, op id)
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self._undo = []
        self._targets = []
        for layer in LAYERS:
            mod = getattr(nisynth, layer)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and (not attr.startswith("_")
                             or attr in PRIVATE_ENTRIES.get(layer, ())):
                    self._targets.append((f"{layer}.{attr}", obj))
        self._targets.append(("cli.main", nisynth.cli.main))
        self._modules = [nisynth] + [getattr(nisynth, layer)
                                     for layer in LAYERS + ("cli",)]

    def install(self):
        for name, fn in self._targets:
            wrapper = self._span(name, fn)
            for mod in self._modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, fn))
        for name in LAPACK:
            fn = getattr(np.linalg, name)
            setattr(np.linalg, name, self._counter("lapack." + name, fn))
            self._undo.append((np.linalg, name, fn))

    def uninstall(self):
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)

    def _span(self, name, fn):
        spans, stack, clock, tracer = self.spans, self.stack, \
            time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = (name, t0, t1, parent, tracer.op)
        return wrapper

    def _counter(self, name, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:                      # only calls made by the program
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def totals(self, factors):
        """Per-name call counts and speed-corrected self time in ms.

        Self time is a span's duration minus the durations of its direct
        child spans, scaled by the correction factor of its op.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_ms = Counter(self.counts), Counter()
        for index, (name, t0, t1, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_ms[name] += (t1 - t0 - child[index]) * factors[op] * 1e3
        return calls, self_ms

    def write(self, path, header):
        names = sorted({s[0] for s in self.spans})
        code = {name: k for k, name in enumerate(names)}
        data = dict(header, names=names,
                    span_fields=["name", "start_s", "end_s", "parent", "op"],
                    spans=[[code[s[0]], s[1], s[2], s[3], s[4]]
                           for s in self.spans],
                    lapack_calls=dict(self.counts))
        path.write_text(json.dumps(data, separators=(",", ":")))
