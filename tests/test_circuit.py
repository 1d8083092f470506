import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qshift.gf2poly import LaurentPoly, ONE, ZERO, ParseError, parse_poly as pp
from qshift.symplectic import Gate, SympMatrix, gate_matrix
from qshift import circuit as circuit_mod
from qshift.circuit import (
    PLACEMENT_KINDS,
    FeedbackNode,
    FiniteSection,
    Placement,
    ShiftRegisterCircuit,
    build_from_gate,
    cascade,
    circuit_from_text,
    circuit_to_text,
    circuit_transfer,
    identity_circuit,
    instances_commute,
)
from qshift.synthesis import ElemOp, _z_col_op_gates, sequence_transfer


def conj_cnot_circuit(i, j, f, n):
    """Block of the Z-side column operation adding f times column i to column j."""
    return circuit_mod._cascade_all(_z_col_op_gates(ElemOp("add", i - 1, j - 1, f), 0), n)


def test_placement_validation():
    with pytest.raises(ValueError):
        Placement("CNOT", (1, 0), (1, 0))
    with pytest.raises(ValueError):
        Placement("H", (1, 0), (2, 0))
    with pytest.raises(ValueError):
        Placement("CNOT", (1, -1), (2, 0))


def test_section_validation():
    with pytest.raises(ValueError):
        FiniteSection((1, 1), (Placement("CNOT", (1, 2), (2, 0)),))
    with pytest.raises(ValueError):
        FeedbackNode("Z", 1, ONE)
    with pytest.raises(ValueError):
        FeedbackNode("Z", 0, pp("1+D"))


def test_cnot_circuit_plain():
    c = build_from_gate(Gate("CNOT", (1, 2), ONE), 2)
    assert c.m == 0
    t, lat = circuit_transfer(c)
    assert lat == 0
    assert t == gate_matrix(Gate("CNOT", (1, 2), ONE), 2)


def test_cnot_circuit_zero_poly():
    c = build_from_gate(Gate("CNOT", (1, 2), ZERO), 2)
    assert c.m == 0 and not c.placements
    assert circuit_transfer(c) == (SympMatrix.identity(2), 0)


def test_cnot_circuit_two_delay_pattern():
    # pure-delay tap D^l needs l frames
    c = build_from_gate(Gate("CNOT", (1, 2), pp("D^2")), 2)
    assert c.m == 2
    t, lat = circuit_transfer(c)
    assert lat == 2
    assert t == gate_matrix(Gate("CNOT", (1, 2), pp("D^2")), 2)


def test_cnot_circuit_full_tap_set():
    f = pp("1+D+D^2")
    c = build_from_gate(Gate("CNOT", (1, 2), f), 2)
    assert c.m == 2  # M = deg f frames
    t, lat = circuit_transfer(c)
    assert (t, lat) == (gate_matrix(Gate("CNOT", (1, 2), f), 2), 2)


def test_cnot_circuit_advance_taps():
    f = pp("1+D^-1")
    c = build_from_gate(Gate("CNOT", (3, 2), f), 3)
    assert c.m == f.abs_deg == 1
    t, _ = circuit_transfer(c)
    assert t == gate_matrix(Gate("CNOT", (3, 2), f), 3)


def test_conj_circuit_swaps_roles():
    f = pp("1+D")
    c = conj_cnot_circuit(1, 2, f, 2)
    assert c.m == 1
    t, _ = circuit_transfer(c)
    # Z block carries f(D), X block f(D^-1)
    assert t.entry(0, 1) == f
    assert t.entry(3, 2) == f.subst_inv()
    # equivalently the reversed-direction CNOT with substituted polynomial
    assert t == gate_matrix(Gate("CNOT", (2, 1), f.subst_inv()), 2)


def test_conj_matches_block_swap_of_cnot():
    rng = random.Random(3)
    for _ in range(30):
        f = LaurentPoly([rng.randint(0, 4) for _ in range(rng.randint(1, 3))])
        if not f:
            continue
        t_conj, _ = circuit_transfer(conj_cnot_circuit(1, 2, f, 2))
        t_cnot, _ = circuit_transfer(build_from_gate(Gate("CNOT", (1, 2), f), 2))
        n = 2
        swapped = [[t_cnot.entry((r + n) % (2 * n), (c + n) % (2 * n))
                    for c in range(2 * n)] for r in range(2 * n)]
        assert t_conj == SympMatrix(2, swapped)


def test_cphase2_circuit():
    assert build_from_gate(Gate("CPHASE", (1, 2), ONE), 2).m == 0
    f = pp("1+D+D^2")
    c = build_from_gate(Gate("CPHASE", (1, 2), f), 2)
    assert c.m == 2
    t, lat = circuit_transfer(c)
    assert lat == 2
    assert t == gate_matrix(Gate("CPHASE", (1, 2), f), 2)
    assert circuit_transfer(build_from_gate(Gate("CPHASE", (1, 2), ZERO), 2))[0] == \
        SympMatrix.identity(2)


def test_cphase1_circuit():
    c = build_from_gate(Gate("CPHASE1", (1,), pp("D")), 1)
    assert c.m == 1
    t, _ = circuit_transfer(c)
    assert t.entry(1, 0) == pp("D^-1+D")
    assert circuit_transfer(build_from_gate(Gate("CPHASE1", (1,), ZERO), 1))[0] == \
        SympMatrix.identity(1)
    c3 = build_from_gate(Gate("CPHASE1", (1,), pp("D+D^3")), 1)
    assert c3.m == 3
    t3, _ = circuit_transfer(c3)
    assert t3.entry(1, 0) == pp("D^-3+D^-1+D+D^3")
    assert c3.placements == (Placement("CPHASE", (1, 1), (1, 0)),
                             Placement("CPHASE", (1, 3), (1, 0)))
    with pytest.raises(ValueError):
        build_from_gate(Gate("CPHASE1", (1,), pp("1+D")), 1)


def test_delay_and_single():
    c = build_from_gate(Gate("DELAY", (1,), pp("D")), 2)
    t, lat = circuit_transfer(c)
    assert lat == 0
    assert t.entry(0, 0) == pp("D") and t.entry(2, 2) == pp("D")
    assert t.entry(1, 1) == ONE
    assert build_from_gate(Gate("DELAY", (1,), ONE), 2) == identity_circuit(2)
    with pytest.raises(ValueError):
        build_from_gate(Gate("DELAY", (1,), pp("D^-1")), 2)

    h = build_from_gate(Gate("H", (1,)), 1)
    th, _ = circuit_transfer(h)
    assert th == gate_matrix(Gate("H", (1,)), 1)
    assert h.m == 0


def test_inf_circuits():
    f = pp("1+D")
    cz = build_from_gate(Gate("INF_Z", (1,), f), 1)
    assert cz.m == 1
    t, lat = circuit_transfer(cz)
    assert lat == 0
    assert t == gate_matrix(Gate("INF_Z", (1,), f), 1)
    cx = build_from_gate(Gate("INF_X", (1,), f), 1)
    tx, _ = circuit_transfer(cx)
    assert tx == gate_matrix(Gate("INF_X", (1,), f), 1)
    with pytest.raises(ValueError):
        build_from_gate(Gate("INF_Z", (1,), ONE), 1)  # degree >= 1 required


def test_constructor_abs_deg_equals_m():
    rng = random.Random(77)
    for _ in range(50):
        f = LaurentPoly([rng.randint(0, 5) for _ in range(rng.randint(1, 3))])
        if not f:
            continue
        builders = [build_from_gate(Gate("CNOT", (1, 2), f), 2),
                    conj_cnot_circuit(1, 2, f, 2),
                    build_from_gate(Gate("CPHASE", (1, 2), f), 2)]
        if f.delay >= 1:
            builders.append(build_from_gate(Gate("CPHASE1", (1,), f), 2))
        for c in builders:
            t, _ = circuit_transfer(c)
            assert t.abs_deg() == c.m
            assert t.is_symplectic()


def test_gate_past_last_wire_refused():
    for g in (Gate("CNOT", (1, 3), ONE), Gate("CPHASE", (3, 1), ONE),
              Gate("H", (3,)), Gate("INF_X", (3,), pp("1+D"))):
        with pytest.raises(ValueError, match=r"^wire 3 out of range 1\.\.2$"):
            build_from_gate(g, 2)


def test_one_delay_transfer():
    c = build_from_gate(Gate("CNOT", (1, 2), pp("D")), 2)
    t, lat = circuit_transfer(c)
    assert lat == 1
    assert t.entry(2, 3) == pp("D")
    assert t.entry(1, 0) == pp("D^-1")


def test_cascade_unit_delay_combo():
    combo = cascade(build_from_gate(Gate("CNOT", (1, 2), ONE), 2),
                    build_from_gate(Gate("CNOT", (1, 2), pp("D")), 2))
    t, lat = circuit_transfer(combo)
    assert lat == 1
    assert t == gate_matrix(Gate("CNOT", (1, 2), pp("1+D")), 2)


def test_cascade_with_identity():
    c = build_from_gate(Gate("CNOT", (1, 2), pp("1+D")), 2)
    t0 = circuit_transfer(c)
    assert circuit_transfer(cascade(c, identity_circuit(2))) == t0
    assert cascade(c, identity_circuit(2)).m == c.m


def test_cascade_wire_mismatch():
    with pytest.raises(ValueError):
        cascade(identity_circuit(2), identity_circuit(3))


def test_cascade_transfer_is_product():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 3)
        gates = []
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            while j == i:
                j = rng.randint(1, n)
            f = LaurentPoly([rng.randint(-2, 3) for _ in range(rng.randint(1, 2))])
            if not f:
                continue
            gates.append(Gate(rng.choice(("CNOT", "CPHASE")), (i, j), f))
        if not gates:
            continue
        circ = identity_circuit(n)
        product = SympMatrix.identity(n)
        for g in gates:
            circ = cascade(circ, build_from_gate(g, n))
            product = product @ gate_matrix(g, n)
        t, _ = circuit_transfer(circ)
        assert t.equal_mod_monomial(product) is not None


def _local_matrix(kind, qubit_ids, k):
    """2k x 2k bit matrix of an instantaneous gate, (z|x) layout, bitmask rows."""
    rows = [1 << c for c in range(2 * k)]
    if kind == "CNOT":
        a, b = qubit_ids
        rows[k + a] ^= 1 << (k + b)  # x_b += x_a
        rows[b] ^= 1 << a            # z_a += z_b
    elif kind == "CPHASE":
        a, b = qubit_ids
        rows[k + a] ^= 1 << b        # z_b += x_a
        rows[k + b] ^= 1 << a        # z_a += x_b
    elif kind == "P":
        (a,) = qubit_ids
        rows[k + a] ^= 1 << a
    elif kind == "H":
        (a,) = qubit_ids
        rows[a], rows[k + a] = 1 << (k + a), 1 << a
    return rows


def _bit_mul(a_rows, b_rows, k):
    out = []
    for r in a_rows:
        acc = 0
        for c in range(2 * k):
            if (r >> c) & 1:
                acc ^= b_rows[c]
        out.append(acc)
    return out


def _reference_commute(p, q, shift):
    """instances_commute without the memo or the gate algebra: build both
    local bit matrices by hand and compare the two products."""
    data_p = [(w, -s) for w, s in p.slots]
    data_q = [(w, shift - t) for w, t in q.slots]
    union = sorted(set(data_p) | set(data_q))
    idx = {d: i for i, d in enumerate(union)}
    k = len(union)
    mp = _local_matrix(p.kind, [idx[d] for d in data_p], k)
    mq = _local_matrix(q.kind, [idx[d] for d in data_q], k)
    return _bit_mul(mp, mq, k) == _bit_mul(mq, mp, k)


def _small_placements():
    """Every placement on wires 1..2 with stages 0..2."""
    slots = [(w, s) for w in (1, 2) for s in range(3)]
    for kind in PLACEMENT_KINDS:
        if kind in ("H", "P"):
            for a in slots:
                yield Placement(kind, a)
        else:
            for a, b in itertools.permutations(slots, 2):
                yield Placement(kind, a, b)


def test_instances_commute_memo_matches_reference():
    pls = list(_small_placements())
    circuit_mod._COMMUTE_MEMO.clear()
    for _ in range(2):  # first pass fills the memo, second reads it back
        for p, q in itertools.product(pls, repeat=2):
            for shift in range(-2, 3):
                assert instances_commute(p, q, shift) == _reference_commute(p, q, shift), \
                    (p, q, shift)
    # one entry per overlap pattern, at most 6 per pair of kinds
    assert 0 < len(circuit_mod._COMMUTE_MEMO) <= 6 * len(PLACEMENT_KINDS) ** 2


def _dense_fold(gates, n):
    t = SympMatrix.identity(n)
    for g in gates:
        t = t @ gate_matrix(g, n)
    return t


@st.composite
def mixed_gate_lists(draw):
    """(n, gates) over every gate kind, feedback blocks included."""
    n = draw(st.integers(2, 4))
    wire = st.integers(1, n)
    taps = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(LaurentPoly)
    gates = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(
            ("CNOT", "CPHASE", "CPHASE1", "H", "P", "DELAY", "INF_Z", "INF_X")))
        i = draw(wire)
        if kind in ("CNOT", "CPHASE"):
            j = draw(wire.filter(lambda w: w != i))
            gates.append(Gate(kind, (i, j), draw(taps)))
        elif kind == "CPHASE1":
            lags = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
            gates.append(Gate(kind, (i,), LaurentPoly(lags)))
        elif kind == "DELAY":
            gates.append(Gate(kind, (i,), LaurentPoly.monomial(draw(st.integers(0, 3)))))
        elif kind in ("INF_Z", "INF_X"):
            rest = draw(st.sets(st.integers(1, 3), min_size=1))
            gates.append(Gate(kind, (i,), LaurentPoly({0} | rest)))
        else:
            gates.append(Gate(kind, (i,)))
    return n, gates


@st.composite
def gate_lists_with_identities(draw):
    """``mixed_gate_lists`` with zero-polynomial and zero-delay gates spliced in."""
    n, gates = draw(mixed_gate_lists())
    wire = st.integers(1, n)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("CNOT", "CPHASE", "CPHASE1", "DELAY")))
        i = draw(wire)
        if kind in ("CNOT", "CPHASE"):
            g = Gate(kind, (i, draw(wire.filter(lambda w: w != i))), ZERO)
        elif kind == "CPHASE1":
            g = Gate(kind, (i,), ZERO)
        else:
            g = Gate(kind, (i,), LaurentPoly.monomial(0))
        gates.insert(draw(st.integers(0, len(gates))), g)
    return n, gates


@settings(max_examples=80, deadline=None)
@given(mixed_gate_lists())
def test_sparse_transfers_equal_dense_products(case):
    n, gates = case
    assert sequence_transfer(gates, n) == _dense_fold(gates, n)
    circ = identity_circuit(n)
    for g in gates:
        circ = cascade(circ, build_from_gate(g, n))
    # the circuit's transfer, recomputed with dense products of its sections
    dense = SympMatrix.identity(n)
    for sec in circ.sections:
        dense = dense @ _dense_fold(circuit_mod._section_gates(sec), n)
    lat = dense.min_delay() if circ.has_feedback else dense.latency_shift()
    assert circuit_transfer(circ) == (dense.shifted(-lat), lat)
    assert dense.equal_mod_monomial(_dense_fold(gates, n)) is not None


def test_acausal_schedule_rejected():
    # two crossing placements feed each other through memory: a feedback
    # loop that no schedule-ordered product represents
    sec = FiniteSection((1, 1), (Placement("CNOT", (1, 1), (2, 0)),
                                 Placement("CNOT", (2, 1), (1, 0))))
    c = ShiftRegisterCircuit(2, (sec,))
    with pytest.raises(ValueError):
        circuit_transfer(c)


def test_circuit_text_round_trip():
    f = pp("1+D+D^2")
    c = cascade(build_from_gate(Gate("CNOT", (1, 2), f), 3),
                cascade(build_from_gate(Gate("H", (3,)), 3),
                        build_from_gate(Gate("INF_Z", (2,), pp("1+D")), 3)))
    text = circuit_to_text(c)
    again = circuit_from_text(text)
    assert again == c
    assert circuit_to_text(again) == text  # byte-stable


def test_circuit_text_errors():
    with pytest.raises(ParseError):
        circuit_from_text("frames 1\n")
    with pytest.raises(ParseError):
        circuit_from_text("n 2\ngate CNOT s=0 a=1@0 b=2@0 f=1\n")
    with pytest.raises(ParseError):
        circuit_from_text("n 2\nframes 5\nsection depths=0,0\n"
                          "gate CNOT s=0 a=1@0 b=2@0 f=1\n")
    with pytest.raises(ParseError):
        circuit_from_text("n 2\nsection depths=1,1\n"
                          "gate CNOT s=1 a=1@1 b=2@0 f=D^3\n")


def test_section_errors_are_located():
    # each gate line is checked against its section when it is read, so a
    # bad placement names its own line, not the next header or none at all
    bad_gate = "n 2\nsection depths=1\ngate CNOT a=1@0 b=2@0\n"
    for text in (bad_gate, bad_gate + "section depths=0,0\n"):
        with pytest.raises(ParseError, match=r"^line 3: .*placement references wire 2 of 1"):
            circuit_from_text(text)
    with pytest.raises(ParseError, match=r"^line 3: .*stage 1 beyond depth 0 on wire 2"):
        circuit_from_text("n 2\nsection depths=1,0\ngate CNOT a=1@0 b=2@1\n")
    with pytest.raises(ParseError, match=r"^line 2: negative pipeline depth"):
        circuit_from_text("n 2\nsection depths=-1,0\n")
    with pytest.raises(ParseError, match=r"^line 3: section has 1 depths for 2 wires"):
        circuit_from_text("n 2\nffb Z wire=1 f=1+D\nsection depths=1\n")
    with pytest.raises(ParseError, match=r"^line 2: feedback wire 3 of 2"):
        circuit_from_text("n 2\nffb Z wire=3 f=1+D\n")
