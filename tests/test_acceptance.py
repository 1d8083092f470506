"""Acceptance suite: one test per criterion, exact GF(2) equality throughout.

Each test prints a single pass line with its runtime; run with ``-s`` to
see them.  Budgets are wall-clock upper limits for the whole criterion.
"""

import random
import time

from qshift.gf2poly import LaurentPoly, ONE, ZERO, parse_poly as pp, series_expand
from qshift.symplectic import Gate, StabilizerMatrix, SympMatrix, gate_matrix, row_space_equiv
from qshift.circuit import build_from_gate, cascade, circuit_transfer
from qshift.simulator import (
    PauliStream,
    impulse_response,
    recommended_horizon,
    run,
    symplectic_product,
)
from qshift.synthesis import (
    compile_sequence,
    css_encoder,
    parse_sequence,
    reduce_memory,
    sequence_transfer,
    smith_normal_form,
    unencoded_stabilizer,
)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\n{self.name}: pass ({elapsed:.2f} s, budget {self.seconds} s)")
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds} s"
        else:
            print(f"\n{self.name}: FAIL after {elapsed:.2f} s")
        return False


def test_criterion_1_worked_cascade_chain():
    with Budget("criterion 1 (worked CNOT cascade chain)", 1.0):
        simple = build_from_gate(Gate("CNOT", (1, 2), ONE), 2)
        one_delay = build_from_gate(Gate("CNOT", (1, 2), pp("D")), 2)
        two_delay = build_from_gate(Gate("CNOT", (1, 2), pp("D^2")), 2)
        chain = cascade(cascade(simple, one_delay), two_delay)
        expected = gate_matrix(Gate("CNOT", (1, 2), pp("1+D+D^2")), 2)

        transfer, latency = circuit_transfer(chain)
        assert transfer == expected
        assert latency == 3

        reduced = reduce_memory(chain)
        transfer_r, latency_r = circuit_transfer(reduced)
        assert reduced.m == 2
        assert latency_r == 2
        assert transfer_r == expected
        # simulator confirms both
        assert impulse_response(chain, 32) == (3, expected)
        assert impulse_response(reduced, 32) == (2, expected)


def test_criterion_2_css_example_synthesis(tmp_path, capsys):
    with Budget("criterion 2 (CSS example code synthesis)", 1.0):
        code = tmp_path / "simple.code"
        code.write_text("n 3\ncss\nX: 1 D 1+D\nZ: D 1 1+D\n")
        out = tmp_path / "simple.circuit"
        from qshift.cli import main
        assert main(["synth", str(code), "-o", str(out)]) == 0
        report = capsys.readouterr().out
        assert "memory frames (reduced circuit): 1" in report
        assert "memory bound (abs deg of encoding matrix): 1" in report

        hx = [[ONE, pp("D"), pp("1+D")]]
        hz = [[pp("D"), ONE, pp("1+D")]]
        plan = css_encoder(hx, hz)
        assert plan.b_overall.abs_deg() == 1
        assert plan.circuit().m == 1

        # replay reproduces the intermediate and final stabilizers up to row ops
        stab = unencoded_stabilizer(3, 1, 1)
        seen = []
        for g in plan.ops:
            stab = stab.apply(gate_matrix(g, 3))
            seen.append(stab)
        first = StabilizerMatrix(3, [
            [ZERO, ZERO, ZERO, ONE, ZERO, ZERO],
            [ZERO, ONE, pp("1+D"), ZERO, ZERO, ZERO]])
        second = StabilizerMatrix(3, [
            [ZERO, ZERO, ZERO, ONE, pp("D"), pp("1+D")],
            [pp("D"), ONE, pp("1+D"), ZERO, ZERO, ZERO]])
        assert any(row_space_equiv(s, first) for s in seen)
        assert row_space_equiv(seen[-1], second)


def test_criterion_3_finite_depth_theorem_suites():
    with Budget("criterion 3 (finite-depth constructor suites)", 10.0):
        rng = random.Random(12021)
        for _ in range(200):
            deg = rng.randint(1, 8)
            f = LaurentPoly([deg] + [rng.randint(0, deg - 1)
                                     for _ in range(rng.randint(0, 3))])
            if not f or f.deg != deg:
                continue
            f1 = LaurentPoly([e for e in f.support if e >= 1] or [deg])

            cases = [
                (build_from_gate(Gate("CNOT", (1, 2), f), 2),
                 gate_matrix(Gate("CNOT", (1, 2), f), 2), f.deg),
                (build_from_gate(Gate("CNOT", (2, 1), f.subst_inv()), 2),
                 gate_matrix(Gate("CNOT", (2, 1), f.subst_inv()), 2), f.deg),
                (build_from_gate(Gate("CPHASE", (1, 2), f), 2),
                 gate_matrix(Gate("CPHASE", (1, 2), f), 2), f.deg),
                (build_from_gate(Gate("CPHASE1", (1,), f1), 1),
                 gate_matrix(Gate("CPHASE1", (1,), f1), 1), f1.deg),
            ]
            for circ, closed_form, m_expected in cases:
                assert circ.m == m_expected
                lat, resp = impulse_response(circ, recommended_horizon(circ))
                assert lat == m_expected
                assert resp == closed_form


def test_criterion_4_infinite_depth_suite():
    with Budget("criterion 4 (infinite-depth suite)", 10.0):
        rng = random.Random(9090)
        horizon = 64
        for _ in range(50):
            deg = rng.randint(1, 6)
            middle = ({rng.randint(1, deg - 1) for _ in range(rng.randint(0, 2))}
                      if deg > 1 else set())
            f = LaurentPoly({0, deg} | middle)
            for kind in ("INF_Z", "INF_X"):
                circ = build_from_gate(Gate(kind, (1,), f), 1)
                assert circ.m == f.deg
                lat, resp = impulse_response(circ, horizon)
                closed = gate_matrix(Gate(kind, (1,), f), 1)
                for i in range(2):
                    for j in range(2):
                        assert resp.entry(i, j).shift(lat) == \
                            series_expand(closed.entry(i, j), horizon)
        # a finite Z impulse produces a nonterminating output stream
        circ = build_from_gate(Gate("INF_Z", (1,), pp("1+D")), 1)
        for h in (64, 128, 257):
            out = run(circ, PauliStream.impulse(1, 1, "Z"), h)
            assert out.zs[0] == LaurentPoly(range(1, h + 1))


def test_criterion_5_memory_bound_inequality():
    with Budget("criterion 5 (memory bound for CNOT cascades)", 30.0):
        mono = LaurentPoly.monomial
        rng = random.Random(1441)
        # equality on the six case-analysis patterns (signed monomial taps)
        for _ in range(25):
            l0 = rng.choice([x for x in range(-4, 5) if x != 0])
            choices = [x for x in range(-4, 5) if abs(x) > abs(l0)]
            l1 = rng.choice(choices) if choices else (5 if l0 > 0 else -5)
            i, j, k, l = 1, 2, 3, 4
            patterns = {
                "base": [Gate("CNOT", (i, j), mono(l1))],
                "same source and target": [Gate("CNOT", (i, j), mono(l0)),
                                           Gate("CNOT", (i, j), mono(l1))],
                "same source": [Gate("CNOT", (i, j), mono(l0)),
                                Gate("CNOT", (i, k), mono(l1))],
                "same target": [Gate("CNOT", (i, j), mono(l0)),
                                Gate("CNOT", (k, j), mono(l1))],
                "disjoint": [Gate("CNOT", (i, j), mono(l1)),
                             Gate("CNOT", (k, l), mono(l0))],
                "chain": [Gate("CNOT", (i, j), mono(l0)),
                          Gate("CNOT", (k, i), mono(l1))],
                "mutual": [Gate("CNOT", (i, j), mono(l0)),
                           Gate("CNOT", (j, i), mono(l1))],
            }
            for name, ops in patterns.items():
                m = compile_sequence(ops, 4).m
                bound = sequence_transfer(ops, 4).abs_deg()
                assert m <= bound, (name, l0, l1)
                if name == "chain" and l0 < 0 and l1 < 0:
                    # both-advance chains schedule without serializing; the
                    # compiled circuit beats the worst-case combined bound
                    assert m == abs(l1), (name, l0, l1)
                else:
                    assert m == bound, (name, l0, l1)
        # random delay-free elementary CNOT cascades (n <= 4, deg <= 4, p <= 6)
        rng = random.Random(0)
        tested = 0
        while tested < 100:
            n = rng.randint(2, 4)
            ops = []
            for _ in range(rng.randint(1, 6)):
                a = rng.randint(1, n)
                b = rng.randint(1, n)
                while b == a:
                    b = rng.randint(1, n)
                poly = LaurentPoly([rng.randint(0, 4)
                                    for _ in range(rng.randint(1, 3))])
                if not poly:
                    continue
                ops.append(Gate("CNOT", (a, b), poly))
            if not ops:
                continue
            tested += 1
            circ = compile_sequence(ops, n)
            assert circ.m <= sequence_transfer(ops, n).abs_deg(), \
                [str(g) for g in ops]


FGG_SEQUENCE = """\
H 1
H 2
P 1
CPHASE 1 3 D^-1+1+D
CPHASE 1 2 D^-1
CPHASE 2 3 1+D+D^2
CNOT 2 3 1
CNOT 3 2 D
CNOT 2 3 D
CNOT 1 2 1
CNOT 1 3 1+D
CNOT 2 1 D
"""


def test_criterion_6_fgg_code():
    with Budget("criterion 6 (three-qubit-per-frame example code)", 5.0):
        ops = parse_sequence(FGG_SEQUENCE)
        circ = compile_sequence(ops, 3)
        assert circ.m == 5

        lat, resp = impulse_response(circ, recommended_horizon(circ))
        transfer, lat_t = circuit_transfer(circ)
        assert (lat, resp) == (lat_t, transfer)

        # the encoding maps two |0> ancillas onto the published stabilizer;
        # the published rows carry the X part first (source convention)
        stab = unencoded_stabilizer(3, 0, 2).apply(resp)
        target = StabilizerMatrix(3, [
            [ZERO, pp("D"), pp("D"), pp("1+D"), ONE, pp("1+D")],
            [pp("1+D"), pp("1+D"), ONE, ZERO, pp("D"), pp("D")],
        ])
        assert target.commutation_ok()
        assert row_space_equiv(stab, target)


def test_criterion_7_property_suites():
    with Budget("criterion 7 (standalone property suites)", 30.0):
        rng = random.Random(777)

        # symplectic condition for every gate matrix
        gates = [Gate("H", (1,)), Gate("P", (2,)),
                 Gate("DELAY", (1,), pp("D^3")),
                 Gate("CPHASE1", (3,), pp("D+D^4")),
                 Gate("INF_Z", (2,), pp("1+D+D^3")),
                 Gate("INF_X", (1,), pp("1+D^2"))]
        for _ in range(60):
            i = rng.randint(1, 3)
            j = rng.randint(1, 3)
            while j == i:
                j = rng.randint(1, 3)
            f = LaurentPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
            if not f:
                continue
            gates.append(Gate(rng.choice(("CNOT", "CPHASE")), (i, j), f))
        for g in gates:
            assert gate_matrix(g, 3).is_symplectic(), str(g)

        # simulator linearity and symplectic-product preservation
        circ = cascade(
            build_from_gate(Gate("CNOT", (1, 2), pp("1+D")), 3),
            cascade(build_from_gate(Gate("CPHASE", (2, 3), pp("D+D^2")), 3),
                    build_from_gate(Gate("CNOT", (1, 3), pp("D^-1")), 3)))
        horizon = recommended_horizon(circ)

        def rand_stream():
            return PauliStream(
                tuple(LaurentPoly([rng.randint(0, 5)
                                   for _ in range(rng.randint(0, 3))])
                      for _ in range(3)),
                tuple(LaurentPoly([rng.randint(0, 5)
                                   for _ in range(rng.randint(0, 3))])
                      for _ in range(3)))

        for _ in range(500):
            a, b = rand_stream(), rand_stream()
            ra, rb = run(circ, a, horizon), run(circ, b, horizon)
            xor_in = PauliStream(tuple(p + q for p, q in zip(a.zs, b.zs)),
                                 tuple(p + q for p, q in zip(a.xs, b.xs)))
            rx = run(circ, xor_in, horizon)
            assert rx.zs == tuple(p + q for p, q in zip(ra.zs, rb.zs))
            assert rx.xs == tuple(p + q for p, q in zip(ra.xs, rb.xs))
            assert symplectic_product(ra, rb) == symplectic_product(a, b)

        # Smith decompositions round-trip
        for _ in range(200):
            nr = rng.randint(1, 4)
            nc = rng.randint(nr, 6)
            m = [[LaurentPoly([rng.randint(0, 3)
                               for _ in range(rng.randint(0, 2))])
                  for _ in range(nc)] for _ in range(nr)]
            if not any(any(row) for row in m):
                continue
            sm = smith_normal_form([row[:] for row in m])
            a = [list(r) for r in sm.a]
            s = [list(r) for r in sm.s]
            b = [list(r) for r in sm.b]

            def mul(x, y):
                return [[sum((x[r][t] * y[t][c] for t in range(len(y))), ZERO)
                         for c in range(len(y[0]))] for r in range(len(x))]

            assert mul(mul(a, s), b) == m
