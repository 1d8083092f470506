import random

import pytest
from hypothesis import given, settings, strategies as st

from qshift.gf2poly import LaurentPoly, ONE, ZERO, ParseError, parse_poly as pp, series_expand
from qshift.symplectic import Gate, SympMatrix, gate_matrix
from qshift.circuit import (
    build_cnot_circuit,
    build_cphase1_circuit,
    build_cphase2_circuit,
    build_delay_circuit,
    build_from_gate,
    build_inf_x_circuit,
    build_inf_z_circuit,
    build_single,
    cascade,
    circuit_transfer,
    identity_circuit,
)
from qshift.simulator import (
    PauliStream,
    impulse_response,
    recommended_horizon,
    reset_state,
    run,
    step,
    symplectic_product,
)

from test_circuit import mixed_gate_lists


def one_delay_cnot(n=2):
    return build_cnot_circuit(1, 2, pp("D"), n)


def test_step_one_delay_recursions():
    # X impulse on wire 1 at n=0: x1 out at n=1, x2 out at n=2
    c = one_delay_cnot()
    state = reset_state(c)
    outs = []
    for t in range(4):
        frame = [(0, 1 if t == 0 else 0), (0, 0)]
        _, out = step(c, state, frame)
        outs.append(out)
    assert outs[0] == [(0, 0), (0, 0)]
    assert outs[1] == [(0, 1), (0, 0)]
    assert outs[2] == [(0, 0), (0, 1)]
    assert outs[3] == [(0, 0), (0, 0)]


def test_step_all_zero_fixed_point():
    c = one_delay_cnot()
    state = reset_state(c)
    for _ in range(10):
        _, out = step(c, state, [(0, 0), (0, 0)])
        assert out == [(0, 0), (0, 0)]


def test_step_width_mismatch():
    with pytest.raises(ValueError):
        step(one_delay_cnot(), reset_state(one_delay_cnot()), [(0, 0)])


def test_step_rejects_negative_lane_mask():
    c = one_delay_cnot()
    for frame in ([(-1, 0), (0, 0)], [(0, 0), (0, -4)]):
        with pytest.raises(ValueError):
            step(c, reset_state(c), frame)


def test_run_identity_echo():
    c = identity_circuit(2)
    stream = PauliStream((pp("1+D^2"), ZERO), (ZERO, pp("D")))
    assert run(c, stream, 5) == PauliStream(
        (pp("1+D^2"), ZERO), (ZERO, pp("D")))


def test_run_two_delay_hand_trace():
    # X impulse on wire 1: x1 emerges at n=2, the tap lands on x2 at n=4
    c = build_cnot_circuit(1, 2, pp("D^2"), 2)
    out = run(c, PauliStream.impulse(2, 1, "X"), 8)
    assert out.xs[0] == pp("D^2")
    assert out.xs[1] == pp("D^4")
    assert not any(out.zs)


def test_run_validates_stream():
    c = identity_circuit(1)
    with pytest.raises(ValueError):
        run(c, PauliStream((pp("D^4"),), (ZERO,)), 2)
    with pytest.raises(ValueError):
        run(c, PauliStream((pp("D^-1"),), (ZERO,)), 4)


def css_example_circuit():
    seq = [Gate("CNOT", (3, 2), pp("1+D^-1")),
           Gate("CNOT", (1, 2), pp("D")),
           Gate("CNOT", (1, 3), pp("1+D"))]
    circ = identity_circuit(3)
    from qshift.circuit import build_from_gate
    for g in seq:
        circ = cascade(circ, build_from_gate(g, 3))
    return circ


def test_encoder_streams_match_encoded_rows():
    # the unencoded generators map to the encoded stabilizer rows,
    # delayed by the circuit latency
    circ = css_example_circuit()
    _, lat = circuit_transfer(circ)
    out_x = run(circ, PauliStream.impulse(3, 1, "X"), 12)
    assert out_x.xs == (pp("1").shift(lat), pp("D").shift(lat),
                        pp("1+D").shift(lat))
    assert not any(out_x.zs)
    out_z = run(circ, PauliStream.impulse(3, 2, "Z"), 12)
    assert out_z.zs == (pp("D").shift(lat), pp("1").shift(lat),
                        pp("1+D").shift(lat))
    assert not any(out_z.xs)


def test_inf_z_nonterminating_stream():
    c = build_inf_z_circuit(1, pp("1+D"), 1)
    out = run(c, PauliStream.impulse(1, 1, "Z"), 40)
    # series of D/(1+D): ones at every cycle from 1 onward
    assert out.zs[0] == series_expand((pp("D"), pp("1+D")), 40)
    out_x = run(c, PauliStream.impulse(1, 1, "X"), 40)
    assert out_x.xs[0] == pp("1+D")


def test_impulse_response_unit_delay_combo():
    combo = cascade(build_cnot_circuit(1, 2, ONE, 2),
                    build_cnot_circuit(1, 2, pp("D"), 2))
    lat, m = impulse_response(combo, 24)
    assert lat == 1
    assert m == gate_matrix(Gate("CNOT", (1, 2), pp("1+D")), 2)


def test_impulse_response_equals_transfer_randomized():
    rng = random.Random(404)
    from qshift.circuit import build_from_gate
    for _ in range(40):
        n = rng.randint(2, 3)
        circ = identity_circuit(n)
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            while j == i:
                j = rng.randint(1, n)
            kind = rng.choice(("CNOT", "CPHASE", "H", "P"))
            if kind in ("H", "P"):
                g = Gate(kind, (i,))
            else:
                f = LaurentPoly([rng.randint(-3, 3)
                                 for _ in range(rng.randint(1, 2))])
                if not f:
                    continue
                g = Gate(kind, (i, j), f)
            circ = cascade(circ, build_from_gate(g, n))
        expected, lat = circuit_transfer(circ)
        got_lat, got = impulse_response(circ, recommended_horizon(circ))
        assert (got_lat, got) == (lat, expected)


def test_impulse_response_horizon_insufficient():
    c = build_cnot_circuit(1, 2, pp("D^6"), 2)
    with pytest.raises(ValueError):
        impulse_response(c, 4)


def test_horizon_insufficient_names_first_late_impulse():
    # Past horizon 2 the Z1 impulse is first active at cycle 6, the later
    # Z2 and X2 impulses already at cycle 4: the message reports Z1's cycle.
    c = cascade(build_cnot_circuit(1, 2, pp("D^4"), 2), build_delay_circuit(1, 2, 2))
    with pytest.raises(ValueError) as exc:
        impulse_response(c, 2)
    assert str(exc.value) == "horizon insufficient: output active at cycle 6"


def _single_lane_response(c, horizon):
    """impulse_response rebuilt from 2n one-impulse runs."""
    n = c.n
    rows = []
    for kind in ("Z", "X"):
        for wire in range(1, n + 1):
            out = run(c, PauliStream.impulse(n, wire, kind), horizon)
            rows.append(list(out.zs) + list(out.xs))
    absolute = SympMatrix(n, rows)
    lat = absolute.min_delay() if c.has_feedback else absolute.latency_shift()
    return lat, absolute.shifted(-lat)


def _circuit(n, gates):
    circ = identity_circuit(n)
    for g in gates:
        circ = cascade(circ, build_from_gate(g, n))
    return circ


@settings(max_examples=60, deadline=None)
@given(mixed_gate_lists())
def test_lane_packed_response_equals_single_lane_runs(case):
    circ = _circuit(*case)
    horizon = recommended_horizon(circ)
    assert impulse_response(circ, horizon) == _single_lane_response(circ, horizon)


@settings(max_examples=60, deadline=None)
@given(mixed_gate_lists(), st.data())
def test_multi_lane_step_equals_lane_wise_steps(case, data):
    n, gates = case
    circ = _circuit(n, gates)
    lanes = data.draw(st.integers(1, 6))
    mask = st.integers(0, (1 << lanes) - 1)
    packed = reset_state(circ)
    single = [reset_state(circ) for _ in range(lanes)]
    for _ in range(data.draw(st.integers(1, 12))):
        frame = [(data.draw(mask), data.draw(mask)) for _ in range(n)]
        _, out = step(circ, packed, frame)
        for k, state in enumerate(single):
            _, bits = step(circ, state, [(z >> k & 1, x >> k & 1) for z, x in frame])
            assert bits == [(z >> k & 1, x >> k & 1) for z, x in out]


def test_impulse_response_inf_truncated_series():
    f = pp("1+D+D^3")
    c = build_inf_z_circuit(1, f, 1)
    lat, m = impulse_response(c, 48)
    assert lat == 0
    transfer, _ = circuit_transfer(c)
    for i in range(2):
        for j in range(2):
            assert m.entry(i, j) == series_expand(transfer.entry(i, j), 48)


def test_linearity():
    rng = random.Random(88)
    c = cascade(build_cphase2_circuit(1, 2, pp("1+D"), 2),
                build_cnot_circuit(2, 1, pp("D^2"), 2))
    for _ in range(50):
        def rand_stream():
            return PauliStream(
                tuple(LaurentPoly([rng.randint(0, 5) for _ in range(rng.randint(0, 3))])
                      for _ in range(2)),
                tuple(LaurentPoly([rng.randint(0, 5) for _ in range(rng.randint(0, 3))])
                      for _ in range(2)))
        a, b = rand_stream(), rand_stream()
        xor = PauliStream(tuple(p + q for p, q in zip(a.zs, b.zs)),
                          tuple(p + q for p, q in zip(a.xs, b.xs)))
        ra, rb, rx = run(c, a, 20), run(c, b, 20), run(c, xor, 20)
        assert rx.zs == tuple(p + q for p, q in zip(ra.zs, rb.zs))
        assert rx.xs == tuple(p + q for p, q in zip(ra.xs, rb.xs))


def test_symplectic_product_preserved():
    rng = random.Random(3030)
    c = cascade(build_cnot_circuit(1, 2, pp("1+D"), 3),
                cascade(build_single("H", 3, 3),
                        build_cphase2_circuit(2, 3, pp("D"), 3)))
    horizon = recommended_horizon(c)
    for _ in range(100):
        def rand_stream():
            return PauliStream(
                tuple(LaurentPoly([rng.randint(0, 4) for _ in range(rng.randint(0, 2))])
                      for _ in range(3)),
                tuple(LaurentPoly([rng.randint(0, 4) for _ in range(rng.randint(0, 2))])
                      for _ in range(3)))
        a, b = rand_stream(), rand_stream()
        assert symplectic_product(run(c, a, horizon), run(c, b, horizon)) == \
            symplectic_product(a, b)


def test_stream_text_round_trip():
    s = PauliStream((pp("1+D^2"), ZERO), (ZERO, pp("D")))
    text = s.to_text()
    assert PauliStream.from_text(text) == s
    assert PauliStream.from_text(text).to_text() == text
    with pytest.raises(ParseError):
        PauliStream.from_text("n 2\nn=0 z=01 x=0\n")
    with pytest.raises(ParseError):
        PauliStream.from_text("n=0 z=0 x=0\n")
    with pytest.raises(ParseError):
        PauliStream.from_text("n 1\nn=-1 z=0 x=0\n")


def test_cphase1_impulse_matches_closed_form():
    f = pp("D+D^3")
    c = build_cphase1_circuit(1, f, 1)
    lat, m = impulse_response(c, 30)
    assert m.entry(1, 0) == pp("D^-3+D^-1+D+D^3")
    assert lat == 3


def test_inf_x_mirror():
    f = pp("1+D")
    cz = build_inf_z_circuit(1, f, 1)
    cx = build_inf_x_circuit(1, f, 1)
    _, mz = impulse_response(cz, 40)
    _, mx = impulse_response(cx, 40)
    # X variant swaps the z and x roles of the Z variant
    assert mx.entry(0, 0) == mz.entry(1, 1)
    assert mx.entry(1, 1) == mz.entry(0, 0)
