"""Self-tests of the benchmark: seeded generators, oracles and tracer hygiene.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import sys
import tempfile
import unittest

import run
import tracing
import workloads as W

q = run.load_qshift()


def small(wl, seed, count):
    """The first ``count`` items a run of ``seed`` would generate."""
    return wl.generate(q, random.Random(f"{wl.name}:{seed}"))[:count]


def drop_first_gate(c):
    """The circuit with the first placement of its first finite section removed."""
    sections = list(c.sections)
    for k, sec in enumerate(sections):
        if isinstance(sec, q.FiniteSection) and sec.placements:
            sections[k] = dataclasses.replace(sec, placements=sec.placements[1:])
            return q.ShiftRegisterCircuit(c.n, tuple(sections))
    raise AssertionError("circuit has no gate to drop")


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for wl in W.WORKLOADS.values():
            with self.subTest(workload=wl.name):
                a, b = (wl.generate(q, random.Random(f"{wl.name}:7")) for _ in range(2))
                self.assertEqual([repr(i["input"]) for i in a], [repr(i["input"]) for i in b])
                self.assertEqual([i["size"] for i in a], [i["size"] for i in b])

    def test_other_seed_other_inputs(self):
        for wl in W.WORKLOADS.values():
            with self.subTest(workload=wl.name):
                a = wl.generate(q, random.Random(f"{wl.name}:7"))
                b = wl.generate(q, random.Random(f"{wl.name}:8"))
                self.assertEqual(len(a), len(b))
                self.assertNotEqual([repr(i["input"]) for i in a],
                                    [repr(i["input"]) for i in b])

    def test_encoded_css_matches_matrix_product(self):
        rng = random.Random(3)
        for n, g in ((3, 3), (5, 4), (7, 4)):
            s_x, s_z, ops = W.CssSynth.encoder(q, rng, n, g)
            stab = q.unencoded_stabilizer(n, s_x, s_z).apply(q.sequence_transfer(ops, n))
            hx, hz = W.encoded_css(q, n, s_x, s_z, ops)
            self.assertTrue(q.row_space_equiv(stab, q.StabilizerMatrix.from_css(hx, hz)))


class OracleTests(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.OUT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=run.OUT)

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def test_compile_oracles_catch_a_dropped_gate(self):
        for wl in (W.WORKLOADS["css-synth"], W.WORKLOADS["cascade-compile"]):
            with self.subTest(workload=wl.name):
                item = small(wl, 1, 1)[0]  # the paper's code / the FGG sequence
                out = wl.call(q, item)
                self.assertEqual(wl.check(q, item, out)[0], W.OK)
                if wl.name == "css-synth":
                    plan, c = out
                    broken = (plan, drop_first_gate(c))
                else:
                    broken = drop_first_gate(out)
                self.assertEqual(wl.check(q, item, broken)[0], W.ORACLE)

    def test_impulse_oracle_catches_a_wrong_simulation(self):
        wl = W.WORKLOADS["impulse-verify"]
        item = small(wl, 1, 1)[0]
        wl.write(q, [item], self.workdir)
        out = wl.call(q, item)
        self.assertIn(wl.check(q, item, out)[0], (W.OK, W.VERDICT))
        good = q.impulse_response
        try:
            q.impulse_response = lambda c, h: (lambda lat, m: (lat + 1, m))(*good(c, h))
            self.assertEqual(wl.check(q, item, out)[0], W.ORACLE)
        finally:
            q.impulse_response = good

    def test_stream_oracle_catches_a_flipped_bit(self):
        wl = W.WORKLOADS["stream-simulate"]
        item = small(wl, 1, 1)[0]
        wl.write(q, [item], self.workdir)
        code, text, err = wl.call(q, item)
        self.assertEqual(wl.check(q, item, (code, text, err))[0], W.OK)
        lines = text.splitlines(True)
        k = next(i for i, ln in enumerate(lines) if ln.startswith("  n=") and "x=" in ln)
        head, _, bits = lines[k].rstrip("\n").rpartition("x=")
        lines[k] = f"{head}x={'1' if bits[0] == '0' else '0'}{bits[1:]}\n"
        self.assertEqual(wl.check(q, item, (code, "".join(lines), err))[0], W.ORACLE)


def snapshot():
    """Every attribute of every qshift module and class, by identity."""
    seen = {}
    for name, module in sorted(sys.modules.items()):
        if name != "qshift" and not name.startswith("qshift."):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    seen[(name, key, attr)] = raw
    return seen


class TracerTests(unittest.TestCase):
    def test_uninstall_restores_every_attribute(self):
        before = snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(q.synthesis.instances_commute, q.circuit.instances_commute.__wrapped__)
            self.assertIs(q.synthesis.instances_commute, q.circuit.instances_commute)
            wl = W.WORKLOADS["cascade-compile"]
            for item in small(wl, 1, 3):
                wl.call(q, item)
        finally:
            tracer.uninstall()
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])
        metrics = tracer.metrics()
        self.assertEqual(metrics["synthesis.compile.calls"][0], 3)
        self.assertGreater(metrics["circuit.instances_commute.calls"][0], 0)
        self.assertGreater(metrics["gf2poly.mul.calls"][0], 0)

    def test_every_probe_resolves(self):
        for name, targets in tracing.PROBES.items():
            for module_name, path in targets:
                holder, attr = tracing._resolve(getattr(q, module_name), path)
                self.assertIn(attr, vars(holder), name)


if __name__ == "__main__":
    unittest.main()
