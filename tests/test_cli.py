import sys
from pathlib import Path

import pytest

from qshift import cli, synthesis
from qshift.circuit import circuit_from_text
from qshift.cli import _compare_matrices, main
from qshift.simulator import PauliStream, run
from qshift.symplectic import SympMatrix

CSS_CODE = "n 3\ncss\nX: 1 D 1+D\nZ: D 1 1+D\n"

ENCODING_MATRIX = """\
n 3
1 0 0 0 0 0
D 1 D+1 0 0 0
D^-1+1 0 1 0 0 0
0 0 0 1 D D+1
0 0 0 0 1 0
0 0 0 0 D^-1+1 1
"""

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


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "simple.code"
    path.write_text(CSS_CODE)
    return str(path)


@pytest.fixture
def circuit_file(tmp_path, code_file):
    out = tmp_path / "simple.circuit"
    assert main(["synth", code_file, "-o", str(out)]) == 0
    return str(out)


def test_synth_example(code_file, tmp_path, capsys):
    out = tmp_path / "c.circuit"
    assert main(["synth", code_file, "-o", str(out)]) == 0
    report = capsys.readouterr().out
    assert "memory frames (reduced circuit): 1" in report
    assert "memory bound (abs deg of encoding matrix): 1" in report
    assert "pass" in report


def test_synth_malformed_polynomial(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("n 3\nX: 1 D^ 1+D\nZ: D 1 1+D\n")
    assert main(["synth", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column 2" in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has no limit on digits here")
def test_exponent_past_the_digit_limit_is_located(tmp_path, capsys):
    # int() refuses more digits than its limit with a ValueError of its own;
    # the code and matrix readers both name the line and column
    digits = sys.get_int_max_str_digits() + 700
    term = "D^" + "9" * digits
    code, matrix = tmp_path / "long.code", tmp_path / "long.matrix"
    code.write_text(f"n 2\ncss\nX: 1 {term}\n")
    matrix.write_text(f"n 1\n{term} 0\n0 1\n")
    circuit = tmp_path / "one.circuit"
    circuit.write_text("n 1\n")
    assert main(["synth", str(code)]) == 2
    assert main(["verify", str(circuit), str(matrix)]) == 2
    captured = capsys.readouterr()
    fault = f"exponent of polynomial term 'D^99999999...' has {digits} digits, too many to read"
    assert captured.err.splitlines() == [f"error: line 3, column 2: {fault}",
                                         f"error: line 2, column 1: {fault}"]
    assert captured.out == ""


def test_synth_non_dual_containing(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("n 1\nX: 1\nZ: 1\n")
    assert main(["synth", str(bad)]) == 2
    assert "dual-containing" in capsys.readouterr().err


def test_synth_rejects_zero_generator(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("n 2\nX: 1 0\nZ: 0 0\n")
    assert main(["synth", str(bad)]) == 2
    assert "line 3: zero generator row" in capsys.readouterr().err


def test_synth_catastrophic(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("n 2\nX: 1+D 0\nZ: 0 1+D\n")
    assert main(["synth", str(bad)]) == 2
    assert ("X check matrix is catastrophic (invariant factor 1+D is not a monomial)"
            in capsys.readouterr().err)


def test_synth_accepts_monomial_checks(tmp_path, capsys):
    # X [D, 0], Z [0, D] is the code of X [1, 0], Z [0, 1]: D is a unit
    good = tmp_path / "good.code"
    good.write_text("n 2\nX: D 0\nZ: 0 D\n")
    assert main(["synth", str(good)]) == 0
    assert "catastrophic" not in capsys.readouterr().err


def test_synth_dependent_rows(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("n 2\nX: 1 1\nX: 1 1\n")
    assert main(["synth", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "X check rows are linearly dependent" in err
    assert "catastrophic" not in err


def test_verify_pass(circuit_file, tmp_path, capsys):
    exp = tmp_path / "expected.matrix"
    exp.write_text(ENCODING_MATRIX)
    assert main(["verify", circuit_file, str(exp)]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_detects_missing_gate(circuit_file, tmp_path, capsys):
    exp = tmp_path / "expected.matrix"
    exp.write_text(ENCODING_MATRIX)
    text = Path(circuit_file).read_text().splitlines()
    gate_lines = [i for i, ln in enumerate(text) if ln.startswith("gate")]
    # drop one gate and fix the frame count header for a clean parse
    del text[gate_lines[-1]]
    broken = tmp_path / "broken.circuit"
    broken.write_text("\n".join(text) + "\n")
    assert main(["verify", str(broken), str(exp)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "entry" in out


def test_verify_strict_delay(circuit_file, tmp_path, capsys):
    exp = tmp_path / "expected.matrix"
    exp.write_text(ENCODING_MATRIX)
    # the impulse response is latency-normalized, so strict mode passes too
    assert main(["verify", circuit_file, str(exp), "--strict-delay"]) == 0


def test_verify_infinite_depth(tmp_path, capsys):
    circ = tmp_path / "inf.circuit"
    circ.write_text("n 1\nffb Z wire=1 f=1+D\n")
    exp = tmp_path / "inf.matrix"
    exp.write_text("n 1\nD/1+D 0\n0 1+D\n")
    assert main(["verify", str(circ), str(exp), "--horizon", "64"]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_rejects_a_wrong_declared_latency(tmp_path, capsys):
    # the reader hands the declared latency to verify, which checks it
    # against the simulated one before it compares the matrices
    circ = tmp_path / "latency.circuit"
    circ.write_text("n 1\nframes 0\nlatency 99\nsection depths=0\ngate P s=0 a=1@0\n")
    exp = tmp_path / "one.matrix"
    exp.write_text("n 1\n1 0\n0 1\n")
    assert main(["verify", str(circ), str(exp)]) == 2
    assert capsys.readouterr().err == (
        "error: line 3: declared latency 99 but the impulse response has latency 0\n")


@pytest.mark.parametrize("latency, horizon, code", [
    (5, 40, 0), (4, 40, 2),
    # horizon 3 is short of latency 5: nothing leaves the circuit, which
    # refuses the horizon before any latency is compared
    (5, 3, 2), (4, 3, 2),
])
def test_verify_declared_latency_of_a_feedback_circuit(tmp_path, capsys, latency, horizon, code):
    circ = tmp_path / "delayed.circuit"
    circ.write_text(f"n 1\nframes 6\nlatency {latency}\nsection depths=5\n"
                    "ffb Z wire=1 f=1+D\n")
    exp = tmp_path / "delayed.matrix"
    exp.write_text("n 1\n1/1+D^-1 0\n0 1+D\n")
    assert main(["verify", str(circ), str(exp), "--horizon", str(horizon)]) == code
    err = capsys.readouterr().err
    if horizon < 5:
        assert err == "error: horizon insufficient: no output through cycle 3\n"
    else:
        assert err == ("" if latency == 5 else "error: line 3: declared latency 4 "
                       "but the impulse response has latency 5\n")


FEEDBACK_ADVANCE_CIRCUIT = """\
n 2
frames 2
latency 0
section depths=1,1
gate CNOT s=1 a=1@0 b=2@1 f=D^-1
ffb Z wire=2 f=1+D
"""

# the gate product of CNOT 1 2 D^-1 then INFZ 2 1+D, one advance ahead of
# the latency-normalized impulse response
FEEDBACK_ADVANCE_MATRIX = "n 2\n1 0 0 0\nD D/1+D 0 0\n0 0 1 D^-1+1\n0 0 0 1+D\n"


@pytest.mark.parametrize("horizon", [None, "7"])
def test_verify_feedback_with_granted_advance(tmp_path, capsys, horizon):
    circ = tmp_path / "fb.circuit"
    circ.write_text(FEEDBACK_ADVANCE_CIRCUIT)
    exp = tmp_path / "fb.matrix"
    exp.write_text(FEEDBACK_ADVANCE_MATRIX)
    argv = ["verify", str(circ), str(exp)]
    if horizon:
        argv += ["--horizon", horizon]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "modulo D^-1" in out


def test_verify_feedback_advance_still_detects_wrong_entry(tmp_path, capsys):
    circ = tmp_path / "fb.circuit"
    circ.write_text(FEEDBACK_ADVANCE_CIRCUIT)
    exp = tmp_path / "fb.matrix"
    exp.write_text(FEEDBACK_ADVANCE_MATRIX.replace("D/1+D", "D/1+D+D^2"))
    assert main(["verify", str(circ), str(exp)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_horizon_shorter_than_granted_advance(tmp_path, capsys):
    circ = tmp_path / "fb.circuit"
    circ.write_text(FEEDBACK_ADVANCE_CIRCUIT)
    exp = tmp_path / "fb.matrix"
    # entry (0, 0) grants D^-8, which leaves no exact window below horizon 3
    exp.write_text(FEEDBACK_ADVANCE_MATRIX.replace("\n1 0 0 0\n", "\nD^-8 0 0 0\n"))
    assert main(["verify", str(circ), str(exp), "--horizon", "3"]) == 2
    assert "--horizon" in capsys.readouterr().err


@pytest.mark.parametrize("one, strict, message", [
    ("1", True, "entry (1, 3): got 0, expected D/1+D"),
    ("D", False, "entry (1, 3): got 0, expected D/1+D (granted shift D^-1)"),
])
def test_compare_reports_first_mismatch_past_zero_pairs(one, strict, message):
    # pairs that are zero on both sides are skipped; the first mismatch in
    # row-major order (observed 0, expected nonzero) comes after several of
    # them and before a second mismatch at (3, 2)
    observed = SympMatrix.from_text(
        f"n 2\n{one} 0 0 0\n0 {one} 0 0\n0 0 {one} 0\n0 0 0 {one}\n")
    expected = SympMatrix.from_text("n 2\n1 0 0 0\n0 1 0 D/1+D\n0 0 1 0\n0 0 D^2 1\n")
    assert _compare_matrices(observed, expected, 20, strict) == (False, message)
    assert _compare_matrices(observed, observed, 20, strict) == (True, "agrees through exponent 20")


def test_verify_refuses_matrix_of_other_width(tmp_path, capsys):
    # refused as an input error before any cycle is simulated, not reported
    # as a failed verification
    circ = tmp_path / "fb.circuit"
    circ.write_text(FEEDBACK_ADVANCE_CIRCUIT)
    exp = tmp_path / "one.matrix"
    exp.write_text("n 1\n1 0\n0 1\n")
    assert main(["verify", str(circ), str(exp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix declares n 1 but the circuit has 2 wires\n"


def test_verify_rejects_negative_horizon(tmp_path, capsys):
    circ = tmp_path / "fb.circuit"
    circ.write_text(FEEDBACK_ADVANCE_CIRCUIT)
    exp = tmp_path / "fb.matrix"
    exp.write_text(FEEDBACK_ADVANCE_MATRIX)
    assert main(["verify", str(circ), str(exp), "--horizon", "-3"]) == 2
    assert "horizon must be >= 0" in capsys.readouterr().err


def test_simulate_identity_echo(tmp_path, capsys):
    circ = tmp_path / "id.circuit"
    circ.write_text("n 2\n")
    stream_text = "n 2\nn=0 z=10 x=01\nn=2 z=01 x=10\n"
    stream = tmp_path / "in.stream"
    stream.write_text(stream_text)
    assert main(["simulate", str(circ), str(stream), "--horizon", "4"]) == 0
    out = capsys.readouterr().out
    assert "n=0 z=10 x=01" in out and "n=2 z=01 x=10" in out


def test_simulate_hadamard(tmp_path, capsys):
    circ = tmp_path / "h.circuit"
    circ.write_text("n 2\nsection depths=0,0\ngate H s=0 a=1@0\n")
    stream = tmp_path / "in.stream"
    stream.write_text("n 2\nn=0 z=10 x=01\n")
    assert main(["simulate", str(circ), str(stream), "--horizon", "3"]) == 0
    out = capsys.readouterr().out
    # H exchanges z and x on wire 1
    assert "n=0 z=00 x=11" in out


@pytest.mark.parametrize("text, line, cycle", [
    ("n 2\nn=0 z=10 x=00\nn=-1 z=00 x=01\n", 3, -1),
    # the lowest cycle is named, in any spelling; a frame of zeros does not count
    ("n 2\n# early\nn=-1 z=01 x=00\nn=-5 z=00 x=00\nn=-03 z=10 x=00\n", 5, -3),
], ids=["one", "lowest"])
def test_simulate_locates_frame_before_cycle_zero(tmp_path, capsys, text, line, cycle):
    message = f"stream has a frame at cycle {cycle}; a simulated stream starts at cycle 0"
    circ = tmp_path / "id.circuit"
    circ.write_text("n 2\n")
    stream = tmp_path / "early.stream"
    stream.write_text(text)
    assert main(["simulate", str(circ), str(stream), "--horizon", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line {line}: {message}\n"
    assert captured.out == ""
    # the library refuses the stream with the same words, without a line
    with pytest.raises(ValueError) as exc:
        run(circuit_from_text("n 2\n"), PauliStream.from_text(text), 4)
    assert str(exc.value) == message


def test_reduce_command(tmp_path, capsys):
    seq_circ = tmp_path / "chain.circuit"
    seq_circ.write_text(
        "n 2\nsection depths=3,3\n"
        "gate CNOT s=0 a=1@0 b=2@0 f=1\n"
        "gate CNOT s=1 a=1@1 b=2@0 f=D\n"
        "gate CNOT s=3 a=1@3 b=2@1 f=D^2\n")
    out = tmp_path / "reduced.circuit"
    assert main(["reduce", str(seq_circ), "-o", str(out)]) == 0
    report = capsys.readouterr().out
    assert "memory frames: 3 -> 2" in report


# the later CNOT meets the earlier one on wire 1 one stage shallower,
# where the two do not commute, so the section is not the product of its
# gates: the reducer would change its transfer, and the simulator would
# run another circuit than the symbolic transfer describes
ACAUSAL_CIRCUIT = ("n 2\nsection depths=1,1\n"
                   "gate CNOT a=1@1 b=2@1\ngate CNOT a=2@0 b=1@0\n")


def test_reduce_rejects_acausal_schedule(tmp_path, capsys):
    path = tmp_path / "acausal.circuit"
    path.write_text(ACAUSAL_CIRCUIT)
    assert main(["reduce", str(path)]) == 2
    captured = capsys.readouterr()
    assert "acausal crossing" in captured.err
    assert captured.out == ""


def _verify_and_simulate(tmp_path, circuit_text):
    """Exit codes of verify and simulate on a two-wire circuit file."""
    circ = tmp_path / "bad.circuit"
    circ.write_text(circuit_text)
    exp = tmp_path / "id.matrix"
    exp.write_text("n 2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    stream = tmp_path / "in.stream"
    stream.write_text("n 2\nn=0 z=10 x=01\n")
    return (main(["verify", str(circ), str(exp), "--horizon", "8"]),
            main(["simulate", str(circ), str(stream), "--horizon", "8"]))


def test_verify_and_simulate_reject_acausal_schedule(tmp_path, capsys):
    assert _verify_and_simulate(tmp_path, ACAUSAL_CIRCUIT) == (2, 2)
    captured = capsys.readouterr()
    assert captured.err.count("line 2: schedule has an acausal crossing") == 2
    assert captured.out == ""


def test_feedback_on_wire_zero_rejected(tmp_path, capsys):
    # wire 0 would index wire -1, the last wire, in the simulator
    text = "n 2\nffb Z wire=0 f=1+D\n"
    assert _verify_and_simulate(tmp_path, text) == (2, 2)
    path = tmp_path / "bad.circuit"
    assert main(["reduce", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("line 2:") == 3 and "wire 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ["n 2\nsection depths=100000000,0\n",
                                  "n 2\nffb Z wire=1 f=1+D^10001\n"])
@pytest.mark.parametrize("horizon", [[], ["--horizon", "8"]])
def test_verify_and_simulate_refuse_oversized_memory(tmp_path, capsys, text, horizon):
    # refused before the simulator allocates its cells; the feedback block is
    # one frame past the limit, since a span past MAX_SPAN is refused earlier,
    # when the file is read (test_polynomial_span_limit_refused_at_parse)
    circ = tmp_path / "big.circuit"
    circ.write_text(text)
    exp = tmp_path / "id.matrix"
    exp.write_text("n 2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    stream = tmp_path / "in.stream"
    stream.write_text("n 2\nn=0 z=10 x=01\n")
    assert main(["verify", str(circ), str(exp)] + horizon) == 2
    assert main(["simulate", str(circ), str(stream)] + horizon) == 2
    captured = capsys.readouterr()
    assert captured.err.count("limit of 10000 (MAX_MEMORY_FRAMES)") == 2
    assert captured.out == ""


def test_verify_and_simulate_refuse_too_many_cycles(tmp_path, capsys):
    circ = tmp_path / "fb.circuit"
    circ.write_text(FEEDBACK_ADVANCE_CIRCUIT)
    exp = tmp_path / "fb.matrix"
    exp.write_text(FEEDBACK_ADVANCE_MATRIX)
    stream = tmp_path / "in.stream"
    stream.write_text("n 2\nn=0 z=10 x=01\n")
    assert main(["verify", str(circ), str(exp), "--horizon", "100000"]) == 2
    assert main(["simulate", str(circ), str(stream), "--horizon", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("simulating 100001 cycles exceeds the simulator "
                              "limit of 100000 (MAX_CYCLES)") == 2
    assert captured.out == ""


def test_polynomial_span_limit_refused_at_parse(tmp_path, capsys):
    # a mask would need 10^8 bits; the text is refused before any is allocated
    assert _verify_and_simulate(tmp_path, "n 2\nffb Z wire=1 f=1+D^100000000\n") == (2, 2)
    assert main(["reduce", str(tmp_path / "bad.circuit")]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("line 2: polynomial span 100000000 exceeds the "
                              "limit of 100000 (MAX_SPAN)") == 3
    assert captured.out == ""


def test_deep_tap_reduces_at_once(tmp_path, capsys):
    # the latency normalization is closed-form, not a scan over every stage
    path = tmp_path / "deep.circuit"
    path.write_text("n 2\nsection depths=1000000000,0\n"
                    "gate CNOT a=1@1000000000 b=2@0\n")
    assert main(["reduce", str(path)]) == 0
    out = capsys.readouterr().out
    assert "memory frames: 1000000000 -> 1000000000" in out
    assert "f=D^1000000000" in out


@pytest.mark.parametrize("command, text", [
    # two monomial taps 10^10 stages apart sum to 1 + D^(10^10) in the transfer
    (["reduce"], "n 2\nsection depths=10000000000,0\n"
                 "gate CNOT a=1@10000000000 b=2@0\ngate CNOT a=1@0 b=2@0\n"),
    (["memory"], "CNOT 1 2 1\nDELAY 1 1000000000000\nCNOT 1 2 1\n"),
])
def test_far_apart_monomials_refused_by_arith_span(tmp_path, capsys, command, text):
    # each file passes every parse check; its transfer would need a mask of
    # 10^10 (10^12) bits, which arithmetic refuses before allocating
    path = tmp_path / "far"
    path.write_text(text)
    assert main(command + [str(path)]) == 2
    captured = capsys.readouterr()
    assert "exceeds the limit of 1000000 (MAX_ARITH_SPAN)" in captured.err
    assert captured.out == ""


WIDE = "n 1500\n"  # past the limit of 1000 wires


@pytest.mark.parametrize("command, text", [
    (["reduce"], WIDE + "ffb Z wire=1 f=1+D\n"),
    (["synth"], "# a code\n" + WIDE + "css\nX: " + " ".join(["1"] * 1500) + "\n"),
    (["memory"], "CNOT 1 2 D\n\nCNOT 1 1500 1\n"),
])
def test_wire_limit_refused(tmp_path, capsys, command, text):
    path = tmp_path / "wide"
    path.write_text(text)
    assert main(command + [str(path)]) == 2
    err = capsys.readouterr().err
    line = 3 if command == ["memory"] else text.splitlines().index("n 1500") + 1
    assert f"line {line}: 1500 wires exceed the limit of 1000 (MAX_WIRES)" in err


def test_wire_limit_refused_in_matrix_and_stream(tmp_path, capsys):
    circ = tmp_path / "ok.circuit"
    circ.write_text("n 1\n")
    wide = tmp_path / "wide"
    wide.write_text(WIDE)
    assert main(["verify", str(circ), str(wide)]) == 2
    assert main(["simulate", str(circ), str(wide)]) == 2
    err = capsys.readouterr().err
    assert err.count("line 1: 1500 wires exceed the limit of 1000 (MAX_WIRES)") == 2


@pytest.mark.parametrize("n", [-3, 0])
@pytest.mark.parametrize("command, bad_file", [
    ("reduce", "circuit"),
    ("simulate", "circuit"),
    ("simulate", "stream"),
    ("verify", "circuit"),
    ("verify", "matrix"),
    ("synth", "code"),
])
def test_wire_count_below_one_refused(tmp_path, capsys, n, command, bad_file):
    header = f"# no wires\nn {n}\n"
    good = {"circuit": "n 1\n", "stream": "n 1\nn=0 z=1 x=0\n",
            "matrix": "n 1\n1 0\n0 1\n"}
    bad = {"circuit": header, "stream": header + "n=0 z=1 x=0\n",
           "matrix": header + "1 0\n0 1\n", "code": header + "css\nX: 1\n"}
    files = {"reduce": ["circuit"], "simulate": ["circuit", "stream"],
             "verify": ["circuit", "matrix"], "synth": ["code"]}[command]
    argv = [command]
    for kind in files:
        path = tmp_path / kind
        path.write_text(bad[kind] if kind == bad_file else good[kind])
        argv.append(str(path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"line 2: {n} wires; a header needs at least 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, bad_file, text, line", [
    # read as 3 wires when the second header won
    ("reduce", "circuit", "n 2\n# again\nn 3\n", 3),
    # the frame before the second header was dropped
    ("simulate", "stream", "n 2\nn=0 z=11 x=00\nn 2\nn=1 z=00 x=01\n", 3),
    # failed later, unlocated, on rows of two widths
    ("synth", "code", "n 2\ncss\nX: 1 1\nn 3\nZ: 1 1 0\n", 4),
], ids=["circuit", "stream", "code"])
def test_repeated_wire_header_refused(tmp_path, capsys, command, bad_file, text, line):
    # the readers themselves: tests/test_text_formats.py::test_header_rule_is_shared_by_every_reader
    message = f"line {line}: repeated 'n' header (first on line 1)"
    argv = [command]
    if command == "simulate":
        circ = tmp_path / "ok.circuit"
        circ.write_text("n 2\n")
        argv.append(str(circ))
    path = tmp_path / bad_file
    path.write_text(text)
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_memory_command_fgg(tmp_path, capsys):
    seq = tmp_path / "fgg.seq"
    seq.write_text(FGG_SEQUENCE)
    assert main(["memory", str(seq)]) == 0
    out = capsys.readouterr().out
    assert "reduced circuit frames: 5" in out
    # mixed CNOT and controlled-phase sequences carry no abs-degree bound
    assert "abs-degree bound" not in out


@pytest.mark.parametrize("line, field", [("CNOT \u0661 2 D", "\u0661"), ("CNOT 1 0_2 D", "0_2")],
                         ids=["arabic-indic-digit", "underscore"])
def test_memory_refuses_a_wire_that_is_not_ascii_digits(tmp_path, capsys, line, field):
    # int() used to read both lines as CNOT 1 2 D
    seq = tmp_path / "odd.seq"
    seq.write_text(line + "\n", encoding="utf-8")
    assert main(["memory", str(seq)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line 1: bad wire {field!r}\n"
    assert captured.out == ""


# only the DAG factorization reaches m = 5 (test_compile_takes_dag_variant_below_the_others)
DAG_SEQUENCE = "CNOT 4 2 D^-2\nCNOT 2 1 D^-3+D^-1+1\nCNOT 3 2 D^-4+D^2+D^4\nCNOT 4 1 D\n"


def test_memory_multiplies_the_input_list_once(tmp_path, capsys, monkeypatch):
    seq = tmp_path / "dag.seq"
    seq.write_text(DAG_SEQUENCE)
    products = []

    def counted(ops, n, _fn=synthesis.sequence_transfer):
        products.append(list(ops))
        return _fn(ops, n)
    # cli and synthesis each hold a binding of sequence_transfer
    monkeypatch.setattr(cli, "sequence_transfer", counted)
    monkeypatch.setattr(synthesis, "sequence_transfer", counted)
    assert main(["memory", str(seq)]) == 0
    out = capsys.readouterr().out
    assert "reduced circuit frames: 5\n" in out
    assert "abs-degree bound: 7\n" in out
    listed = synthesis.parse_sequence(DAG_SEQUENCE)
    assert sum(ops == listed for ops in products) == 1


def test_memory_command_code(code_file, capsys):
    assert main(["memory", code_file]) == 0
    out = capsys.readouterr().out
    assert "constraint lengths nu_i: 1 1" in out
    assert "overall constraint length nu: 2" in out
    assert "memory m (max nu_i): 1" in out
    assert "abs-degree bound: 1" in out
    assert "reduced circuit frames: 1" in out


def test_emitted_circuit_round_trip(circuit_file, tmp_path, capsys):
    from qshift.circuit import circuit_from_text, circuit_to_text
    text = Path(circuit_file).read_text()
    assert circuit_to_text(circuit_from_text(text)) == text


def test_fuzz_corpus_no_crash(tmp_path, capsys):
    corpus = [
        "",
        "garbage\n",
        "n x\n",
        "n 2\nX: 1\n",
        "n 2\nX: D^^2 1\nZ: 0 0\n",
        "n -1\n",
        "n 2\nsection depths=1\n",
        "n 2\nsection depths=1,1\ngate WAT s=0 a=1@0\n",
        "n 2\nffb Q wire=1 f=1+D\n",
        "n 2\nn=0 z=0 x=0\n",
        "CNOT 1 1 D\n",
        "CNOT a b c\n",
        "\x00\x01\x02",
    ]
    for i, text in enumerate(corpus):
        path = tmp_path / f"fuzz{i}"
        path.write_text(text)
        for command in (["synth", str(path)],
                        ["memory", str(path)],
                        ["reduce", str(path)],
                        ["verify", str(path), str(path)]):
            code = main(command)
            assert code == 2, (command, text)
        capsys.readouterr()


@pytest.mark.parametrize("command", ["synth", "reduce"])
def test_unwritable_output_path(command, code_file, circuit_file, tmp_path, capsys):
    # exit 2 with one error line, as for an unreadable input, and no report
    target = tmp_path / "missing-dir" / "out.circuit"
    capsys.readouterr()
    source = code_file if command == "synth" else circuit_file
    assert main([command, source, "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


def test_missing_file():
    assert main(["synth", "/nonexistent/path.code"]) == 2
