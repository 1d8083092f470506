"""Byte-stable round trips of the five text formats: write, read, write again.

The four formats that open with an ``n <count>`` header share one header rule.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qshift.gf2poly import LaurentPoly, ParseError
from qshift.symplectic import MAX_WIRES, StabilizerMatrix, SympMatrix
from qshift.circuit import build_from_gate, cascade, circuit_from_text, circuit_to_text, identity_circuit
from qshift.simulator import PauliStream
from qshift.synthesis import format_sequence, parse_sequence, sequence_transfer

from oracles import stream_frame
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
            frame = stream_frame(stream, t)
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


# each reader with records that it accepts on one wire after ``n 1``
HEADED_READERS = {
    "circuit": (circuit_from_text, "section depths=1\ngate P s=0 a=1@0\n"),
    "stream": (PauliStream.from_text, "n=0 z=1 x=0\n"),
    "code": (StabilizerMatrix.from_text, "css\nX: 1\n"),
    "matrix": (SympMatrix.from_text, "1 0\n0 1\n"),
}


@pytest.mark.parametrize("reader", HEADED_READERS)
@pytest.mark.parametrize("header, message", [
    ("# typed in\nN 1\n", "line 2: 'N 1' before 'n <wires>' header"),
    ("n x\n", "line 1: bad wire count 'x'"),
    ("n 1.5\n", "line 1: bad wire count '1.5'"),
    # int() would read these as 2; the count is ASCII digits
    ("n 0_2\n", "line 1: bad wire count '0_2'"),
    ("n \u0662\n", "line 1: bad wire count '\u0662'"),
    ("\nn 0\n", "line 2: 0 wires; a header needs at least 1"),
    ("n -3\n", "line 1: -3 wires; a header needs at least 1"),
    (f"n {MAX_WIRES + 1}\n",
     f"line 1: {MAX_WIRES + 1} wires exceed the limit of {MAX_WIRES} (MAX_WIRES)"),
    ("n 1\n# again\nn 1\n", "line 3: repeated 'n' header (first on line 1)"),
], ids=["not-first", "not-integer", "fraction", "underscore", "arabic-indic-digit",
        "zero", "negative",
        "above-max-wires", "repeated"])
def test_header_rule_is_shared_by_every_reader(reader, header, message):
    read, records = HEADED_READERS[reader]
    read("n 1\n" + records)  # the records alone are well formed
    with pytest.raises(ParseError) as exc:
        read(header + records)
    assert str(exc.value) == message


@pytest.mark.parametrize("reader", HEADED_READERS)
def test_header_must_open_the_file_and_come_once(reader):
    read, records = HEADED_READERS[reader]
    with pytest.raises(ParseError) as exc:
        read("# comment only\n\n")
    assert str(exc.value) == "missing 'n <wires>' header"
    # a record before the header, and a repeated header after the records
    first = records.splitlines()[0]
    with pytest.raises(ParseError) as exc:
        read(records + "n 1\n")
    assert str(exc.value) == f"line 1: {first!r} before 'n <wires>' header"
    with pytest.raises(ParseError) as exc:
        read("n 1\n" + records + "n 1\n" + records)
    k = 2 + len(records.splitlines())
    assert str(exc.value) == f"line {k}: repeated 'n' header (first on line 1)"


@pytest.mark.parametrize("text, message", [
    # the second line used to be ORed into the first: z=11
    ("n 2\nn=0 z=10 x=00\nn=0 z=01 x=00\n", "line 3: repeated frame 'n=0' (first on line 2)"),
    ("n 2\nn=4 z=00 x=00\n# same cycle, quiet\nn=1 z=00 x=10\nn=4 z=00 x=00\n",
     "line 5: repeated frame 'n=4' (first on line 2)"),
], ids=["active", "quiet"])
def test_stream_refuses_a_repeated_cycle(text, message):
    with pytest.raises(ParseError) as exc:
        PauliStream.from_text(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("head, first, again", [
    ("frames", 1, 0),  # the last one used to win, accepting a 0-frame circuit
    ("frames", 1, 1),
    ("latency", 0, 0),
])
def test_circuit_refuses_a_repeated_declaration(head, first, again):
    body = "section depths=1\ngate P s=0 a=1@0\n"
    circuit_from_text(f"n 1\n{head} {first}\n" + body)
    with pytest.raises(ParseError) as exc:
        circuit_from_text(f"n 1\n{head} {first}\n\n{body}{head} {again}\n")
    assert str(exc.value) == f"line 6: repeated '{head}' line (first on line 2)"


@pytest.mark.parametrize("read, text, message", [
    # the last value used to win without a word: z=01, cycle 5, the CNOT a=2@1 b=1@0
    (PauliStream.from_text, "n 2\nn=0 z=10 x=00 z=01\n", "line 2: repeated field 'z'"),
    (PauliStream.from_text, "n 2\nn=0 z=10 x=00 n=5\n", "line 2: repeated field 'n'"),
    (circuit_from_text, "n 2\nsection depths=1,1\ngate CNOT s=1 a=1@1 b=2@0 a=2@1 b=1@0\n",
     "line 3: repeated field 'a'"),
    (circuit_from_text, "n 2\nffb Z wire=1 f=1+D wire=2\n", "line 2: repeated field 'wire'"),
    # an unknown field used to be read past and dropped when written back
    (PauliStream.from_text, "n 2\nn=0 z=10 x=01 y=11\n", "line 2: unknown field 'y'"),
    (circuit_from_text, "n 2\nsection depths=1,1\ngate CNOT s=1 a=1@1 b=2@0 q=5\n",
     "line 3: unknown field 'q'"),
    (circuit_from_text, "n 2\nffb Z wire=1 f=1+D g=D\n", "line 2: unknown field 'g'"),
    # a one-slot gate used to accept a tap polynomial and drop it when written back
    (circuit_from_text, "n 1\nsection depths=0\ngate H s=0 a=1@0 f=garbage\n",
     "line 3: unknown field 'f'"),
], ids=["stream-z", "stream-n", "gate", "feedback",
        "stream-unknown", "gate-unknown", "feedback-unknown", "one-slot-unknown"])
def test_repeated_field_is_refused(read, text, message):
    with pytest.raises(ParseError) as exc:
        read(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("read, text, message", [
    # each used to report Python's own error: 'f', a dict() or int() failure,
    # or "list index out of range"
    (circuit_from_text, "n 2\nffb Z wire=1\n", "line 2: missing field 'f'"),
    (circuit_from_text, "n 2\nffb Z f=1+D\n", "line 2: missing field 'wire'"),
    (circuit_from_text, "n 2\nsection depths=1,1\ngate CNOT s=1 b=2@0\n",
     "line 3: missing field 'a'"),
    (circuit_from_text, "n 2\nffb Z wire1 f=1+D\n", "line 2: field 'wire1' has no '='"),
    (PauliStream.from_text, "n 2\nn=0 z=10 x\n", "line 2: field 'x' has no '='"),
    (circuit_from_text, "n 2\nffb\n", "line 2: ffb line has no kind"),
    (circuit_from_text, "n 2\nsection depths=1,1\ngate\n", "line 3: gate line has no kind"),
    (circuit_from_text, "n 2\nsection depths=1,1\ngate CNOT a=1 b=2@0\n",
     "line 3: slot 'a=1' has no '@'"),
    # each number field used to report Python's int() text, "invalid literal ..."
    (circuit_from_text, "n 1\nffb Z wire=x f=1+D\n", "line 2: bad wire 'x'"),
    (circuit_from_text, "n 2\nsection depths=1,1\ngate CNOT a=1@x b=2@0\n",
     "line 3: bad stage 'x'"),
    (circuit_from_text, "n 2\nsection depths=1,1\ngate CNOT a=y@0 b=2@0\n",
     "line 3: bad wire 'y'"),
    (circuit_from_text, "n 2\nsection depths=1,1\ngate CNOT s=x a=1@0 b=2@1\n",
     "line 3: bad stage 'x'"),
    (circuit_from_text, "n 2\nsection depths=1,x\n", "line 2: bad depth 'x'"),
    (circuit_from_text, "n 2\nsection depths=\n", "line 2: bad depth ''"),
    (circuit_from_text, "n 1\nframes x\n", "line 2: bad frames 'x'"),
    (circuit_from_text, "n 1\nlatency x\n", "line 2: bad latency 'x'"),
    # int() reads each of these, but no writer emits them: a number field is
    # ASCII digits, with a leading '-' on latency (and on a depth, which is
    # then refused as negative)
    (circuit_from_text, "n 1\nsection depths=0_1\n", "line 2: bad depth '0_1'"),
    (circuit_from_text, "n 1\nsection depths=0\ngate P s=+0 a=1@-0\n",
     "line 3: bad stage '-0'"),
    (circuit_from_text, "n 1\nsection depths=0\ngate P s=+0 a=1@0\n",
     "line 3: bad stage '+0'"),
    (circuit_from_text, "n 1\nffb Z wire=\uff11 f=1+D\n", "line 2: bad wire '\uff11'"),
    (circuit_from_text, "n 1\nframes -0\n", "line 2: bad frames '-0'"),
    (circuit_from_text, "n 1\nlatency +1\n", "line 2: bad latency '+1'"),
    (circuit_from_text, "n 2\nsection depths=1,1\ngate CNOT s=1 a=1@1 b=2@0 f=D^\u0661\n",
     "line 3: bad polynomial term 'D^\u0661'"),
    # int() used to read these as cycle 1, written back as n=1
    (PauliStream.from_text, "n 2\nn=0_1 z=10 x=00\n", "line 2: malformed frame line"),
    (PauliStream.from_text, "n 2\nn=+1 z=10 x=00\n", "line 2: malformed frame line"),
    (PauliStream.from_text, "n 2\nn=\u0661 z=10 x=00\n", "line 2: malformed frame line"),
], ids=["ffb-f", "ffb-wire", "gate-a", "ffb-bare-word", "stream-bare-word", "ffb-kind",
        "gate-kind", "gate-slot", "ffb-wire-number", "slot-stage-number",
        "slot-wire-number", "gate-stage-number", "depth-number", "depth-empty",
        "frames-number", "latency-number", "depth-underscore", "slot-stage-sign",
        "gate-stage-plus", "ffb-wire-fullwidth-digit", "frames-sign", "latency-plus",
        "tap-arabic-indic-digit", "stream-cycle-underscore", "stream-cycle-plus",
        "stream-cycle-arabic-indic-digit"])
def test_malformed_record_line_names_its_fault(read, text, message):
    with pytest.raises(ParseError) as exc:
        read(text)
    assert str(exc.value) == message
