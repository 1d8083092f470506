"""Spans and counters around qshift's layer boundaries, installed from outside.

``Tracer.install`` wraps every probed function and rebinds each name
that refers to it: the defining class or module, and every other qshift
module that imported it by name (``synthesis`` binds ``instances_commute``
and ``check_schedule`` at import, the package binds most public names).
``Tracer.uninstall`` puts every original object back.

Each completed call adds to its probe's call count and self time (its
duration minus the time covered by its child spans).  Span records
(id, name, start, end, parent id, item) are kept in memory and written
out with the result: every top-level span, and nested ones until
MAX_SPANS are held.  The counts and times always cover every call.
"""

from __future__ import annotations

import sys
import time

# probe name -> (module, attribute path) of every function it wraps.  What
# each layer should move: gf2poly.mul and symplectic.matmul the latency of
# css-synth and part of cascade-compile; series_expand and rational the
# feedback items of impulse-verify; instances_commute and reduce the total_s,
# latency_p90_ms and frames_mean of cascade-compile (reduce.calls per compile
# counts the variants compiled); step and impulse_response the latency of
# impulse-verify, run and stream_text that of stream-simulate; cli.main and
# circuit.text the parse and report share of the command-line workloads.
PROBES = {
    "gf2poly.mul": [("gf2poly", "LaurentPoly.__mul__")],
    "gf2poly.divmod": [("gf2poly", "poly_divmod")],
    "gf2poly.series_expand": [("gf2poly", "series_expand")],
    "gf2poly.rational": [("gf2poly", "RationalTransfer.__init__")],
    "symplectic.matmul": [("symplectic", "SympMatrix.__matmul__")],
    "symplectic.gate_matrix": [("symplectic", "gate_matrix")],
    "symplectic.stabilizer_apply": [("symplectic", "StabilizerMatrix.apply")],
    "circuit.instances_commute": [("circuit", "instances_commute")],
    "circuit.check_schedule": [("circuit", "check_schedule")],
    "circuit.transfer": [("circuit", "circuit_transfer")],
    "circuit.cascade": [("circuit", "cascade")],
    "circuit.text": [("circuit", "circuit_from_text"), ("circuit", "circuit_to_text")],
    "simulator.step": [("simulator", "step")],
    "simulator.impulse_response": [("simulator", "impulse_response")],
    "simulator.run": [("simulator", "run")],
    "simulator.stream_text": [("simulator", "PauliStream.from_text"),
                              ("simulator", "PauliStream.to_text")],
    "synthesis.smith": [("synthesis", "smith_normal_form")],
    "synthesis.css_encoder": [("synthesis", "css_encoder")],
    "synthesis.compile": [("synthesis", "compile_sequence")],
    "synthesis.reduce": [("synthesis", "reduce_memory")],
    "synthesis.sequence_transfer": [("synthesis", "sequence_transfer")],
    "cli.main": [("cli", "main")],
}

# counters beside the probes: name -> unit
COUNTERS = {
    "circuit.instances_commute.commute_ratio": "ratio",
    "circuit.check_schedule.errors": "count",
    "synthesis.css_encoder.errors": "count",
    "synthesis.reduce.frames_in": "count",
    "synthesis.reduce.frames_out": "count",
}


def _resolve(owner, path):
    """(object holding the last attribute, attribute name)."""
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


PACKAGE = "qshift"
MAX_SPANS = 20000  # nested span records kept in memory; top-level ones always are


class Tracer:
    SPAN_FIELDS = ("id", "name", "start", "end", "parent", "item")

    def __init__(self):
        self.names = list(PROBES)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.commuting = 0
        self.spans = []  # (span id, name index, start, end, parent span id, item)
        self.dropped = 0
        self.item = -1
        self._stack = []  # [span id, time covered by children]
        self._next_id = 0
        self._patched = []  # (holder, attribute, original object)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, idx, fn, after=None):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def probe(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                took = end - start
                calls[idx] += 1
                self_s[idx] += took - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += took
                if parent is None or len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, idx, start, end,
                                       parent[0] if parent else -1, self.item))
                else:
                    self.dropped += 1
                if after is not None:
                    after(args, None if failed else result, failed)

        probe.__wrapped__ = fn
        probe.__name__ = getattr(fn, "__name__", "probe")
        probe.__qualname__ = getattr(fn, "__qualname__", probe.__name__)
        return probe

    def _after(self, name):
        counts = self.counts
        if name == "circuit.instances_commute":
            def after(args, result, failed):
                if result:
                    self.commuting += 1
        elif name == "circuit.check_schedule":
            def after(args, result, failed):
                if failed:
                    counts["circuit.check_schedule.errors"] += 1
        elif name == "synthesis.css_encoder":
            def after(args, result, failed):
                if failed:
                    counts["synthesis.css_encoder.errors"] += 1
        elif name == "synthesis.reduce":
            def after(args, result, failed):
                counts["synthesis.reduce.frames_in"] += args[0].m
                if not failed:
                    counts["synthesis.reduce.frames_out"] += result.m
        else:
            after = None
        return after

    # -- installation -------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        pkg = sys.modules[PACKAGE]
        modules = self._modules()
        for idx, name in enumerate(self.names):
            after = self._after(name)
            for module_name, path in PROBES[name]:
                holder, attr = _resolve(getattr(pkg, module_name), path)
                raw = holder.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(idx, raw.__func__, after))
                else:
                    wrapped = self._wrap(idx, raw, after)
                # aliases inside the class (LaurentPoly.__rmul__ is __mul__)
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        self._patch(holder, key, raw, wrapped)
                # names bound by ``from .x import name`` in every module
                if isinstance(holder, type):
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, raw, wrapped)

    def _patch(self, holder, key, original, wrapped):
        self._patched.append((holder, key, original))
        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            holder, key, original = self._patched.pop()
            setattr(holder, key, original)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.self_s"] = (self.self_s[idx], "s")
        counts = dict(self.counts)
        ic = self.names.index("circuit.instances_commute")
        calls = self.calls[ic]
        counts["circuit.instances_commute.commute_ratio"] = (
            self.commuting / calls if calls else 0.0)
        for name, unit in COUNTERS.items():
            out[name] = (counts[name], unit)
        return out

    def span_records(self):
        return [[sid, self.names[i], s, e, p, it] for sid, i, s, e, p, it in self.spans]
