import pytest

from qshift.cli import main

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


def test_synth_non_dual_containing(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("n 1\nX: 1\nZ: 1\n")
    assert main(["synth", str(bad)]) == 2
    assert "dual-containing" in capsys.readouterr().err


def test_synth_catastrophic(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("n 2\nX: D 0\nZ: 0 D\n")
    assert main(["synth", str(bad)]) == 2
    assert "catastrophic" in capsys.readouterr().err


def test_verify_pass(circuit_file, tmp_path, capsys):
    exp = tmp_path / "expected.matrix"
    exp.write_text(ENCODING_MATRIX)
    assert main(["verify", circuit_file, str(exp)]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_detects_missing_gate(circuit_file, tmp_path, capsys):
    exp = tmp_path / "expected.matrix"
    exp.write_text(ENCODING_MATRIX)
    text = open(circuit_file).read().splitlines()
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


def test_memory_command_fgg(tmp_path, capsys):
    seq = tmp_path / "fgg.seq"
    seq.write_text(FGG_SEQUENCE)
    assert main(["memory", str(seq)]) == 0
    out = capsys.readouterr().out
    assert "reduced circuit frames: 5" in out
    # mixed CNOT and controlled-phase sequences carry no abs-degree bound
    assert "abs-degree bound" not in out


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
    text = open(circuit_file).read()
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


def test_missing_file():
    assert main(["synth", "/nonexistent/path.code"]) == 2
