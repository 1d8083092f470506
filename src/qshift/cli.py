"""Command-line front-end: synth, verify, simulate, reduce, memory.

Exit codes: 0 = pass, 1 = verification failure, 2 = input error.
Reports are deterministic given the inputs, except for the trailing
wall-time line.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from dataclasses import dataclass, field

from .gf2poly import ParseError, content_lines, series_expand
from .symplectic import StabilizerMatrix, SympMatrix
from .circuit import ShiftRegisterCircuit, circuit_from_text, circuit_to_text
from .simulator import PauliStream, impulse_response, recommended_horizon, run
from .synthesis import (
    SynthesisError,
    compile_sequence,
    constraint_lengths,
    css_encoder,
    format_sequence,
    parse_sequence,
    reduce_memory,
    sequence_transfer,
)


@dataclass
class RunReport:
    command: str
    inputs: list = field(default_factory=list)   # (name, sha256)
    outputs: list = field(default_factory=list)  # (name, value)
    verdicts: list = field(default_factory=list)  # (invariant name, bool, detail)
    wall_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.verdicts)

    def render(self) -> str:
        lines = [f"command: {self.command}"]
        for name, digest in self.inputs:
            lines.append(f"input {name} sha256={digest}")
        for name, value in self.outputs:
            text = str(value)
            if "\n" in text:
                lines.append(f"{name}:")
                lines.extend("  " + ln for ln in text.rstrip("\n").splitlines())
            else:
                lines.append(f"{name}: {text}")
        for name, ok, detail in self.verdicts:
            status = "pass" if ok else "FAIL"
            suffix = f" ({detail})" if detail else ""
            lines.append(f"verdict {name}: {status}{suffix}")
        lines.append(f"wall time: {self.wall_ms:.1f} ms")
        return "\n".join(lines) + "\n"


def _read(path: str, report: RunReport) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    report.inputs.append((path, hashlib.sha256(text.encode()).hexdigest()[:16]))
    return text


def _load_circuit(path: str, report: RunReport) -> ShiftRegisterCircuit:
    return circuit_from_text(_read(path, report))


def _compare_matrices(observed: SympMatrix, expected: SympMatrix,
                      horizon: int, strict: bool):
    """Match modulo a global monomial on the exact window both sides cover."""
    if observed.n != expected.n:
        return False, f"wire count {observed.n} != {expected.n}"
    size = 2 * observed.n
    shift = 0
    if not strict:
        found = None
        for i in range(size):
            for j in range(size):
                a, b = observed.entry(i, j), expected.entry(i, j)
                if a and b:
                    found = b.delay - a.delay
                    break
            if found is not None:
                break
        shift = found or 0
    # observed * D^shift is exact through horizon + shift; expected is exact
    window = horizon + min(shift, 0)
    if window < 0:
        raise ValueError(f"horizon {horizon} is too short to compare modulo "
                         f"D^{shift}; pass a larger --horizon")
    for i in range(size):
        for j in range(size):
            a = series_expand(observed.entry(i, j).shift(shift), window)
            b = series_expand(expected.entry(i, j), window)
            if a != b:
                return False, (f"entry ({i}, {j}): got "
                               f"{observed.entry(i, j)}, expected "
                               f"{expected.entry(i, j)}"
                               + (f" (granted shift D^{shift})" if shift else ""))
    return True, f"agrees through exponent {window}" + (
        f" modulo D^{shift}" if shift else "")


def cmd_synth(args) -> RunReport:
    report = RunReport(command=f"synth {args.code}")
    stab = StabilizerMatrix.from_text(_read(args.code, report))
    hx, hz = stab.css_parts
    plan = css_encoder(hx, hz)
    circuit = plan.circuit()
    text = circuit_to_text(circuit)
    report.outputs.append(("gate sequence", format_sequence(plan.ops).rstrip("\n")))
    report.outputs.append(("memory frames (reduced circuit)", circuit.m))
    report.outputs.append(("memory bound (abs deg of encoding matrix)",
                           plan.memory_bound))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        report.outputs.append(("circuit written to", args.out))
    else:
        report.outputs.append(("circuit", text.rstrip("\n")))
    report.verdicts.append(("memory within bound", circuit.m <= plan.memory_bound,
                            f"{circuit.m} <= {plan.memory_bound}"))
    return report


def cmd_verify(args) -> RunReport:
    report = RunReport(command=f"verify {args.circuit} {args.expected}")
    circuit = _load_circuit(args.circuit, report)
    expected = SympMatrix.from_text(_read(args.expected, report))
    horizon = args.horizon if args.horizon is not None else recommended_horizon(circuit)
    report.outputs.append(("horizon", horizon))
    lat, observed = impulse_response(circuit, horizon)
    report.outputs.append(("latency", lat))
    ok, detail = _compare_matrices(observed, expected, horizon - lat, args.strict_delay)
    report.verdicts.append(("impulse response matches expected matrix", ok, detail))
    return report


def cmd_simulate(args) -> RunReport:
    report = RunReport(command=f"simulate {args.circuit} {args.stream}")
    circuit = _load_circuit(args.circuit, report)
    stream = PauliStream.from_text(_read(args.stream, report))
    horizon = args.horizon if args.horizon is not None else (
        recommended_horizon(circuit) + stream.max_exp)
    report.outputs.append(("horizon", horizon))
    out = run(circuit, stream, horizon)
    report.outputs.append(("output stream", out.to_text().rstrip("\n")))
    return report


def cmd_reduce(args) -> RunReport:
    report = RunReport(command=f"reduce {args.circuit}")
    circuit = _load_circuit(args.circuit, report)
    reduced = reduce_memory(circuit)
    text = circuit_to_text(reduced)
    report.outputs.append(("memory frames", f"{circuit.m} -> {reduced.m}"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        report.outputs.append(("circuit written to", args.out))
    else:
        report.outputs.append(("circuit", text.rstrip("\n")))
    report.verdicts.append(("memory never increases", reduced.m <= circuit.m,
                            f"{reduced.m} <= {circuit.m}"))
    return report


def _looks_like_code(text: str) -> bool:
    return next((line for _, line in content_lines(text)), "").startswith("n ")


def cmd_memory(args) -> RunReport:
    report = RunReport(command=f"memory {args.file}")
    text = _read(args.file, report)
    if _looks_like_code(text):
        stab = StabilizerMatrix.from_text(text)
        nus, nu, m = constraint_lengths(stab)
        report.outputs.append(("constraint lengths nu_i",
                               " ".join(str(v) for v in nus)))
        report.outputs.append(("overall constraint length nu", nu))
        report.outputs.append(("memory m (max nu_i)", m))
        hx, hz = stab.css_parts
        plan = css_encoder(hx, hz)
        circuit = plan.circuit()
        report.outputs.append(("abs-degree bound", plan.memory_bound))
        report.outputs.append(("reduced circuit frames", circuit.m))
        report.verdicts.append(("memory within bound",
                                circuit.m <= plan.memory_bound,
                                f"{circuit.m} <= {plan.memory_bound}"))
    else:
        ops = parse_sequence(text)
        circuit = compile_sequence(ops, max(w for g in ops for w in g.wires))
        report.outputs.append(("reduced circuit frames", circuit.m))
        if all(g.kind == "CNOT" for g in ops):
            # the absolute-degree bound only governs CNOT-only cascades
            bound = sequence_transfer(ops, circuit.n).abs_deg()
            report.outputs.append(("abs-degree bound", bound))
            report.verdicts.append(("memory within bound", circuit.m <= bound,
                                    f"{circuit.m} <= {bound}"))
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshift",
        description="Quantum shift register circuit synthesis and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize an encoder circuit for a CSS code")
    p.add_argument("code", help="code file (n header, X:/Z: rows)")
    p.add_argument("-o", "--out", help="write the reduced circuit here")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("verify", help="differential-test a circuit against a matrix")
    p.add_argument("circuit")
    p.add_argument("expected", help="expected transfer matrix file")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--strict-delay", action="store_true",
                   help="require exact latency instead of matching modulo D^c")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="propagate a Pauli stream through a circuit")
    p.add_argument("circuit")
    p.add_argument("stream")
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("reduce", help="commute gates through memory and shrink")
    p.add_argument("circuit")
    p.add_argument("-o", "--out", help="write the reduced circuit here")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("memory", help="memory report for a code or gate sequence")
    p.add_argument("file")
    p.set_defaults(fn=cmd_memory)
    return parser


_PARSER = build_parser()  # built once; parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.fn(args)
    except (ParseError, SynthesisError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_ms = (time.perf_counter() - started) * 1000.0
    sys.stdout.write(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
