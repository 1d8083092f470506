import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qshift.gf2poly import (MAX_SPAN, LaurentPoly, ONE, ZERO, ParseError, parse_poly as pp,
                            series_expand)
from qshift.symplectic import Gate, SympMatrix, gate_matrix
from qshift.circuit import (
    FiniteSection,
    Placement,
    ShiftRegisterCircuit,
    build_from_gate,
    cascade,
    circuit_from_text,
    circuit_transfer,
    identity_circuit,
)
from qshift.simulator import (
    MAX_CYCLES,
    MAX_MEMORY_FRAMES,
    PauliStream,
    impulse_response,
    recommended_horizon,
    reset_state,
    responds_at_once,
    run,
    step,
    _output_masks,
    _settle_margin,
)
from qshift.synthesis import reduce_memory

from oracles import stream_frame, symplectic_product
from test_circuit import mixed_gate_lists


def one_delay_cnot(n=2):
    return build_from_gate(Gate("CNOT", (1, 2), pp("D")), n)


def test_step_one_delay_recursions():
    # X impulse on wire 1 at n=0: x1 out at n=1, x2 out at n=2
    c = one_delay_cnot()
    state = reset_state(c)
    outs = []
    for t in range(4):
        frame = [(0, 1 if t == 0 else 0), (0, 0)]
        out = step(c, state, frame)
        outs.append(out)
    assert outs[0] == [(0, 0), (0, 0)]
    assert outs[1] == [(0, 1), (0, 0)]
    assert outs[2] == [(0, 0), (0, 1)]
    assert outs[3] == [(0, 0), (0, 0)]


def test_step_all_zero_fixed_point():
    c = one_delay_cnot()
    state = reset_state(c)
    for _ in range(10):
        out = step(c, state, [(0, 0), (0, 0)])
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
    c = build_from_gate(Gate("CNOT", (1, 2), pp("D^2")), 2)
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
    with pytest.raises(ValueError, match="^stream width mismatch$"):
        run(c, PauliStream.zero(2), 4)
    with pytest.raises(ValueError, match="^stream width mismatch$"):
        symplectic_product(PauliStream.zero(1), PauliStream.zero(2))


@pytest.mark.parametrize("text, message", [
    ("n 2\nn=0 z=10\n", "line 2: malformed frame line"),
    ("n 2\nn=x z=10 x=00\n", "line 2: malformed frame line"),
    ("n 2\nn=0 z=12 x=00\n", "line 2: bad bit '2'"),
    ("n 2\nn=0 z=10 x=0y\n", "line 2: bad bit 'y'"),
    (f"n 1\nn=0 z=1 x=0\nn={MAX_SPAN + 1} z=1 x=0\n",
     f"line 3: stream span {MAX_SPAN + 1} exceeds the limit of {MAX_SPAN} (MAX_SPAN)"),
    ("n 1\nfoo\n", "line 2: unrecognized line 'foo'"),
])
def test_stream_text_refusals(text, message):
    with pytest.raises(ParseError) as exc:
        PauliStream.from_text(text)
    assert str(exc.value) == message


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
    c = build_from_gate(Gate("INF_Z", (1,), pp("1+D")), 1)
    out = run(c, PauliStream.impulse(1, 1, "Z"), 40)
    # series of D/(1+D): ones at every cycle from 1 onward
    assert out.zs[0] == series_expand((pp("D"), pp("1+D")), 40)
    out_x = run(c, PauliStream.impulse(1, 1, "X"), 40)
    assert out_x.xs[0] == pp("1+D")


def test_impulse_response_unit_delay_combo():
    combo = cascade(build_from_gate(Gate("CNOT", (1, 2), ONE), 2),
                    build_from_gate(Gate("CNOT", (1, 2), pp("D")), 2))
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
    c = build_from_gate(Gate("CNOT", (1, 2), pp("D^6")), 2)
    with pytest.raises(ValueError):
        impulse_response(c, 4)


def test_horizon_insufficient_names_first_late_impulse():
    # Past horizon 2 the Z1 impulse is first active at cycle 6, the later
    # Z2 and X2 impulses already at cycle 4: the message reports Z1's cycle.
    c = cascade(build_from_gate(Gate("CNOT", (1, 2), pp("D^4")), 2),
                build_from_gate(Gate("DELAY", (1,), pp("D^2")), 2))
    with pytest.raises(ValueError) as exc:
        impulse_response(c, 2)
    assert str(exc.value) == "horizon insufficient: output active at cycle 6"


def test_settling_window_names_the_late_cycle_of_an_undrained_section():
    # the acausal section of test_acausal_schedule_rejected never drains:
    # its state repeats, and the replayed block fills the settling window
    sec = FiniteSection((1, 1), (Placement("CNOT", (1, 1), (2, 0)),
                                 Placement("CNOT", (2, 1), (1, 0))))
    with pytest.raises(ValueError) as exc:
        impulse_response(ShiftRegisterCircuit(2, (sec,)), 20)
    assert str(exc.value) == "horizon insufficient: output active at cycle 21"


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
        out = step(circ, packed, frame)
        for k, state in enumerate(single):
            bits = step(circ, state, [(z >> k & 1, x >> k & 1) for z, x in frame])
            assert bits == [(z >> k & 1, x >> k & 1) for z, x in out]


@settings(max_examples=150, deadline=None)
@given(mixed_gate_lists())
@example((2, [Gate("H", (1,))]))
@example((2, [Gate("INF_Z", (1,), pp("1+D")), Gate("CNOT", (1, 2), pp("D"))]))
def test_responds_at_once_equals_the_first_simulated_cycle(case):
    n, gates = case
    circ = _circuit(n, gates)
    for c in (circ, reduce_memory(circ)):
        frame = step(c, reset_state(c), [(1 << w, 1 << (n + w)) for w in range(n)])
        at_once = any(z or x for z, x in frame)
        assert responds_at_once(c) == at_once
        # the closed form agrees: the absolute transfer has a D^0 term
        t, lat = circuit_transfer(c)
        assert at_once == (t.shifted(lat).min_delay() == 0)


def test_impulse_response_inf_truncated_series():
    f = pp("1+D+D^3")
    c = build_from_gate(Gate("INF_Z", (1,), f), 1)
    lat, m = impulse_response(c, 48)
    assert lat == 0
    transfer, _ = circuit_transfer(c)
    for i in range(2):
        for j in range(2):
            assert m.entry(i, j) == series_expand(transfer.entry(i, j), 48)


def test_linearity():
    rng = random.Random(88)
    c = cascade(build_from_gate(Gate("CPHASE", (1, 2), pp("1+D")), 2),
                build_from_gate(Gate("CNOT", (2, 1), pp("D^2")), 2))
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
    c = cascade(build_from_gate(Gate("CNOT", (1, 2), pp("1+D")), 3),
                cascade(build_from_gate(Gate("H", (3,)), 3),
                        build_from_gate(Gate("CPHASE", (2, 3), pp("D")), 3)))
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
    # frames before cycle 0 are read as written (``run`` refuses them)
    early = PauliStream((ZERO,), (pp("D^-1"),))
    assert early.to_text() == "n 1\nn=-1 z=0 x=1\n"
    assert PauliStream.from_text(early.to_text()) == early


def test_cphase1_impulse_matches_closed_form():
    f = pp("D+D^3")
    c = build_from_gate(Gate("CPHASE1", (1,), f), 1)
    lat, m = impulse_response(c, 30)
    assert m.entry(1, 0) == pp("D^-3+D^-1+D+D^3")
    assert lat == 3


def test_inf_x_mirror():
    f = pp("1+D")
    cz = build_from_gate(Gate("INF_Z", (1,), f), 1)
    cx = build_from_gate(Gate("INF_X", (1,), f), 1)
    _, mz = impulse_response(cz, 40)
    _, mx = impulse_response(cx, 40)
    # X variant swaps the z and x roles of the Z variant
    assert mx.entry(0, 0) == mz.entry(1, 1)
    assert mx.entry(1, 1) == mz.entry(0, 0)


def _reference_impulse_response(c, horizon):
    """impulse_response stepped through every cycle of the window, no replay."""
    n = c.n
    extra = 0 if c.has_feedback else _settle_margin(c)
    state = reset_state(c)
    impulses = [(1 << w, 1 << (n + w)) for w in range(n)]
    quiet = [(0, 0)] * n
    supports = [[set() for _ in range(2 * n)] for _ in range(2 * n)]
    late = 0
    late_at = None
    for t in range(horizon + extra + 1):
        frame = step(c, state, impulses if t == 0 else quiet)
        if t > horizon:
            active = 0
            for z, x in frame:
                active |= z | x
            new = active & ~late
            if new:
                late |= new
                if new & (late & -late):
                    late_at = t
            continue
        for w, (z, x) in enumerate(frame):
            for col, mask in ((w, z), (n + w, x)):
                while mask:
                    low = mask & -mask
                    supports[low.bit_length() - 1][col].add(t)
                    mask ^= low
    if late:
        raise ValueError(f"horizon insufficient: output active at cycle {late_at}")
    absolute = SympMatrix(n, [[LaurentPoly(s) for s in row] for row in supports])
    lat = absolute.min_delay() if c.has_feedback else absolute.latency_shift()
    return lat, absolute.shifted(-lat)


def _reference_run(c, stream, horizon):
    """run stepped through every cycle up to the horizon, no replay."""
    state = reset_state(c)
    out_z = [set() for _ in range(c.n)]
    out_x = [set() for _ in range(c.n)]
    for t in range(horizon + 1):
        frame = step(c, state, stream_frame(stream, t))
        for w, (z, x) in enumerate(frame):
            if z:
                out_z[w].add(t)
            if x:
                out_x[w].add(t)
    return PauliStream(tuple(LaurentPoly(s) for s in out_z),
                       tuple(LaurentPoly(s) for s in out_x))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(mixed_gate_lists(), st.data())
def test_replayed_response_equals_full_window(case, data):
    circ = _circuit(*case)
    # horizons below the recommended one compare ``horizon insufficient`` too,
    # and one short of a feedback circuit's first output sees nothing
    horizon = data.draw(st.integers(0, recommended_horizon(circ) + 8))
    expected = _outcome(_reference_impulse_response, circ, horizon)
    if not isinstance(expected, str) and not any(any(row) for row in expected[1].rows):
        expected = f"horizon insufficient: no output through cycle {horizon}"
    assert _outcome(impulse_response, circ, horizon) == expected


@pytest.mark.parametrize("kind", ["Z", "X"])
def test_horizon_short_of_the_first_output(kind):
    # five frames ahead of a feedback block: nothing leaves before cycle 5
    circ = circuit_from_text(f"n 1\nframes 6\nlatency 5\nsection depths=5\n"
                             f"ffb {kind} wire=1 f=1+D\n")
    for horizon in range(5):
        with pytest.raises(ValueError) as exc:
            impulse_response(circ, horizon)
        assert str(exc.value) == f"horizon insufficient: no output through cycle {horizon}"
    for horizon in (5, 6, 9, 40):
        lat, matrix = impulse_response(circ, horizon)
        assert lat == 5
        assert (lat, matrix) == _reference_impulse_response(circ, horizon)


@st.composite
def feedback_streams(draw):
    """(circuit with feedback, stream, horizon past the stream's last input)."""
    n, gates = draw(mixed_gate_lists())
    kind = draw(st.sampled_from(("INF_Z", "INF_X")))
    rest = draw(st.sets(st.integers(1, 4), min_size=1))
    gates.insert(draw(st.integers(0, len(gates))),
                 Gate(kind, (draw(st.integers(1, n)),), LaurentPoly({0} | rest)))
    bits = st.sets(st.integers(0, 6)).map(LaurentPoly)
    stream = PauliStream(tuple(draw(bits) for _ in range(n)),
                         tuple(draw(bits) for _ in range(n)))
    horizon = stream.max_exp + draw(st.integers(1, 40))
    return _circuit(n, gates), stream, horizon


@settings(max_examples=150, deadline=None)
@given(feedback_streams())
def test_replayed_run_equals_full_window(case):
    circ, stream, horizon = case
    assert run(circ, stream, horizon) == _reference_run(circ, stream, horizon)


@pytest.mark.parametrize("kind", ["INF_Z", "INF_X"])
@pytest.mark.parametrize("f", ["1+D^2", "1+D+D^3", "1+D^2+D^3", "1+D^3"])
def test_replay_of_periodic_responses(kind, f):
    # periods above 1 whose blocks mix quiet and active frames, behind
    # a finite section so the feedback cells are not the only state
    circ = _circuit(2, [Gate("CNOT", (2, 1), pp("D^2")), Gate(kind, (1,), pp(f))])
    stream = PauliStream((pp("1+D^3"), ZERO), (ZERO, pp("D")))
    for horizon in (0, 1, 5, 17, 40):
        assert impulse_response(circ, horizon) == \
            _reference_impulse_response(circ, horizon)
        if horizon >= stream.max_exp:
            assert run(circ, stream, horizon) == _reference_run(circ, stream, horizon)


@pytest.mark.parametrize("kind", ["INF_Z", "INF_X"])
@pytest.mark.parametrize("f", ["1+D^2", "1+D+D^3", "1+D^2+D^3", "1+D^3"])
def test_periodic_tail_through_long_horizons(kind, f):
    # the repeating block is decoded once and its bits repeated to the
    # horizon: long horizons, windows that end inside a period, and ones
    # that end before the first repeated state is stepped
    circ = _circuit(2, [Gate("CNOT", (2, 1), pp("D^2")), Gate(kind, (1,), pp(f))])
    stream = PauliStream((pp("1+D^3"), ZERO), (ZERO, pp("D")))
    impulses = [(1 << w, 1 << (2 + w)) for w in range(2)]
    stepped, period, masks = _output_masks(circ, [impulses], 5001, 4)
    active = [any(m >> t & 1 for row in masks for m in row)
              for t in range(stepped - period, stepped)]
    assert period > 1 and any(active) and not all(active)
    for response, reference, inputs, lanes in (
            (impulse_response, _reference_impulse_response, [impulses], 4),
            (lambda c, h: run(c, stream, h), lambda c, h: _reference_run(c, stream, h),
             [stream_frame(stream, t) for t in range(stream.max_exp + 1)], 1)):
        # cycles 0 .. stepped - 1 are stepped, the last of them repeats a state
        stepped, period, _ = _output_masks(circ, inputs, 5001, lanes)
        assert period > 0
        for horizon in (500, 5000, stepped + 7 * period, stepped + 8 * period - 2,
                        stepped - 1, stepped - 2):
            assert response(circ, horizon) == reference(circ, horizon)


@pytest.mark.parametrize("budget", [0, 40, 400])
def test_snapshot_budget_keeps_full_window_results(monkeypatch, budget):
    # past the budget no state is recorded and the rest is stepped plainly
    monkeypatch.setattr("qshift.simulator._SNAPSHOT_BYTES", budget)
    circ = _circuit(2, [Gate("CNOT", (2, 1), pp("D^2")), Gate("INF_Z", (1,), pp("1+D+D^3"))])
    stream = PauliStream((pp("1+D^3"), ZERO), (ZERO, pp("D")))
    for horizon in (3, 17, 40):
        assert impulse_response(circ, horizon) == _reference_impulse_response(circ, horizon)
        assert run(circ, stream, horizon) == _reference_run(circ, stream, horizon)


@settings(max_examples=60, deadline=None)
@given(mixed_gate_lists())
# feedback blocks whose product is polynomial: both sides take the
# feedback latency rule, the smallest exponent
@example((2, [Gate("INF_Z", (1,), pp("1+D")), Gate("INF_X", (1,), pp("1+D")),
              Gate("CNOT", (1, 2), pp("1+D^2"))]))
def test_impulse_response_equals_transfer_series(case):
    # feedback blocks included: each entry is the transfer's series,
    # truncated at the horizon
    circ = _circuit(*case)
    horizon = recommended_horizon(circ)
    lat, resp = impulse_response(circ, horizon)
    transfer, lat_t = circuit_transfer(circ)
    for i in range(2 * circ.n):
        for j in range(2 * circ.n):
            assert resp.entry(i, j).shift(lat) == \
                series_expand(transfer.entry(i, j).shift(lat_t), horizon)
    assert lat == lat_t
    if transfer.is_polynomial:
        assert resp == transfer


def test_negative_horizon_rejected():
    c = cascade(build_from_gate(Gate("INF_Z", (1,), pp("1+D")), 2),
                build_from_gate(Gate("CNOT", (1, 2), pp("D")), 2))
    for circ in (c, one_delay_cnot()):
        with pytest.raises(ValueError, match=r"^horizon must be >= 0$"):
            impulse_response(circ, -3)


def test_size_limits_refused_before_allocating():
    deep = ShiftRegisterCircuit(2, (FiniteSection((MAX_MEMORY_FRAMES + 1, 0), ()),))
    with pytest.raises(ValueError, match="MAX_MEMORY_FRAMES"):
        impulse_response(deep, 4)
    with pytest.raises(ValueError, match="MAX_MEMORY_FRAMES"):
        run(deep, PauliStream.zero(2), 4)
    c = build_from_gate(Gate("INF_Z", (1,), pp("1+D")), 1)
    with pytest.raises(ValueError, match="MAX_CYCLES"):
        impulse_response(c, MAX_CYCLES)
    with pytest.raises(ValueError, match="MAX_CYCLES"):
        run(c, PauliStream.impulse(1, 1, "Z"), MAX_CYCLES)
    # the limits themselves are allowed: MAX_CYCLES cycles, 0..MAX_CYCLES - 1
    out = run(c, PauliStream.impulse(1, 1, "Z"), MAX_CYCLES - 1)
    assert out.zs[0] == series_expand((pp("D"), pp("1+D")), MAX_CYCLES - 1)


def test_reset_state_refuses_memory_past_the_limit():
    # reset_state allocates one cell per frame on every wire for step to run on
    message = (f"circuit memory of {MAX_MEMORY_FRAMES + 1} frames exceeds the simulator "
               f"limit of {MAX_MEMORY_FRAMES} (MAX_MEMORY_FRAMES)")
    deep = ShiftRegisterCircuit(2, (FiniteSection((MAX_MEMORY_FRAMES + 1, 0), ()),))
    long_feedback = build_from_gate(Gate("INF_Z", (1,), LaurentPoly((0, MAX_MEMORY_FRAMES + 1))), 2)
    for c in (deep, long_feedback):
        with pytest.raises(ValueError) as exc:
            reset_state(c)
        assert str(exc.value) == message
    at_limit = ShiftRegisterCircuit(2, (FiniteSection((MAX_MEMORY_FRAMES, 0), ()),))
    assert len(reset_state(at_limit)[0][0]) == MAX_MEMORY_FRAMES


def _golden_simulator_cases():
    """150 seeded (circuit, stream) pairs over every gate kind; every third has feedback.

    Gate kinds, wires and taps follow ``mixed_gate_lists``; the stream has
    up to three terms per part, at cycles 0..8.
    """
    rng = random.Random("golden-simulator")
    for k in range(150):
        n = rng.randint(2, 4)
        gates = []
        for _ in range(rng.randint(1, 7)):
            kind = rng.choice(("CNOT", "CPHASE", "CPHASE1", "H", "P", "DELAY"))
            i = rng.randint(1, n)
            if kind in ("CNOT", "CPHASE"):
                j = rng.choice([w for w in range(1, n + 1) if w != i])
                taps = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                gates.append(Gate(kind, (i, j), LaurentPoly(taps)))
            elif kind == "CPHASE1":
                lags = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
                gates.append(Gate(kind, (i,), LaurentPoly(lags)))
            elif kind == "DELAY":
                gates.append(Gate(kind, (i,), LaurentPoly.monomial(rng.randint(0, 3))))
            else:
                gates.append(Gate(kind, (i,)))
        if k % 3 == 2:
            rest = rng.sample(range(1, 4), rng.randint(1, 3))
            gates.insert(rng.randint(0, len(gates)),
                         Gate(rng.choice(("INF_Z", "INF_X")), (rng.randint(1, n),),
                              LaurentPoly([0] + rest)))
        parts = [LaurentPoly(rng.sample(range(9), rng.randint(0, 3))) for _ in range(2 * n)]
        yield _circuit(n, gates), PauliStream(parts[:n], parts[n:])


# sha256 over the impulse response (latency and matrix text) at the
# recommended horizon and the output stream text of every golden case,
# recorded before stepping went through one unchecked per-cycle function
GOLDEN_SIMULATOR_DIGEST = "3c32f5d6a403aa6a0b157b0c1af506c5efac34f3a511bfbdbf01b10fc80a30a4"


def test_simulator_outputs_match_golden_digest():
    digest = hashlib.sha256()
    for c, stream in _golden_simulator_cases():
        horizon = recommended_horizon(c)
        lat, matrix = impulse_response(c, horizon)
        out = run(c, stream, horizon + stream.max_exp)
        digest.update(f"{lat}\n{matrix.to_text()}{out.to_text()}".encode())
    assert digest.hexdigest() == GOLDEN_SIMULATOR_DIGEST
