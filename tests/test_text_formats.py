"""Byte-stable round trips of the five text formats: write, read, write again."""

from hypothesis import given, settings, strategies as st

from qshift.gf2poly import LaurentPoly
from qshift.symplectic import StabilizerMatrix, SympMatrix
from qshift.circuit import build_from_gate, cascade, circuit_from_text, circuit_to_text, identity_circuit
from qshift.simulator import PauliStream
from qshift.synthesis import format_sequence, parse_sequence, sequence_transfer

from test_circuit import mixed_gate_lists


def _polys(lo, hi):
    return st.lists(st.integers(lo, hi), max_size=4).map(LaurentPoly)


@settings(max_examples=80, deadline=None)
@given(mixed_gate_lists())
def test_circuit_text_round_trip_is_byte_stable(case):
    n, gates = case
    c = identity_circuit(n)
    for g in gates:
        c = cascade(c, build_from_gate(g, n))
    text = circuit_to_text(c)
    again = circuit_from_text(text)
    assert again == c
    assert circuit_to_text(again) == text


@settings(max_examples=80, deadline=None)
@given(mixed_gate_lists())
def test_matrix_text_round_trip_is_byte_stable(case):
    # feedback gates make rational entries, written as num/den
    n, gates = case
    m = sequence_transfer(gates, n)
    text = m.to_text()
    again = SympMatrix.from_text(text)
    assert again == m
    assert again.to_text() == text


@st.composite
def css_codes(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(_polys(-5, 5), min_size=n, max_size=n).filter(any)
    hx = draw(st.lists(row, max_size=2))
    hz = draw(st.lists(row, min_size=0 if hx else 1, max_size=2))
    return hx, hz


@settings(max_examples=100, deadline=None)
@given(css_codes())
def test_code_text_round_trip_is_byte_stable(code):
    stab = StabilizerMatrix.from_css(*code)
    text = stab.to_text()
    again = StabilizerMatrix.from_text(text)
    assert again.rows == stab.rows
    assert again.to_text() == text


@settings(max_examples=80, deadline=None)
@given(mixed_gate_lists())
def test_gate_sequence_text_round_trip_is_byte_stable(case):
    _, gates = case
    text = format_sequence(gates)
    again = parse_sequence(text)
    assert again == gates
    assert format_sequence(again) == text


@st.composite
def streams(draw, lo=0):
    n = draw(st.integers(1, 4))
    part = st.lists(_polys(lo, 30), min_size=n, max_size=n)
    return PauliStream(draw(part), draw(part))


@settings(max_examples=100, deadline=None)
@given(streams(lo=-5))
def test_stream_text_round_trip_is_byte_stable(stream):
    text = stream.to_text()
    again = PauliStream.from_text(text)
    assert again == stream
    assert again.to_text() == text


def _frame_text(stream):
    """Stream text read one cycle at a time through ``frame(t)``."""
    lines = [f"n {stream.n}"]
    parts = [p for p in stream.zs + stream.xs if p]
    if parts:
        for t in range(min(0, min(p.delay for p in parts)), stream.max_exp + 1):
            frame = stream.frame(t)
            if any(z or x for z, x in frame):
                zbits = "".join(str(z) for z, _ in frame)
                xbits = "".join(str(x) for _, x in frame)
                lines.append(f"n={t} z={zbits} x={xbits}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(streams(lo=-5))
def test_stream_text_matches_frames(stream):
    # cycles before 0 are written too
    assert stream.to_text() == _frame_text(stream)
