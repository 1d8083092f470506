"""Seeded inputs, timed calls and oracles of the four benchmark workloads.

Every workload is a list of items built from ``--seed`` alone.  The
timed call of an item goes through qshift's public functions (or its
command line, in process); ``check`` runs after timing has stopped and
compares the output with an oracle that does not share the timed code
path.  Sizes come from a fixed grid of cells; the seed draws each cell's
items from a fixed population of random inputs (see ``draw``), so the
work per run is steady across seeds while every seed runs other inputs.

The qshift package is passed in as ``q`` instead of being imported
here, because the runner re-imports it for every set-up repeat.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random

OK = "ok"
REJECTED = "rejected"  # the program refused a valid input (exit 2 / SynthesisError)
RAISED = "raised"      # the call raised an exception the program does not document
VERDICT = "verdict"    # the program's own check failed (exit 1, m above its bound)
ORACLE = "oracle"      # the output differs from the independent oracle
OUTCOMES = (OK, REJECTED, RAISED, VERDICT, ORACLE)

PAPER_CSS = ("1 D 1+D", "D 1 1+D")  # X row, Z row of the paper's example code

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
FGG_MEMORY = 5  # published memory of the compiled FGG encoder


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Input generators


def rand_poly(q, rng, lo: int, hi: int, terms: int):
    """Polynomial with 1..terms distinct exponents drawn from lo..hi."""
    k = rng.randint(1, min(terms, hi - lo + 1))
    return q.LaurentPoly(rng.sample(range(lo, hi + 1), k))


def rand_pair(rng, n: int):
    i = rng.randint(1, n)
    j = rng.choice([w for w in range(1, n + 1) if w != i])
    return i, j


def rand_cnots(q, rng, n: int, gates: int, lo: int, hi: int, terms: int):
    return [q.Gate("CNOT", rand_pair(rng, n), rand_poly(q, rng, lo, hi, terms))
            for _ in range(gates)]


def rand_mixed(q, rng, n: int, gates: int, feedback: bool):
    """Mixed gate list over every primitive kind; one INF_Z/INF_X if feedback."""
    ops = []
    for _ in range(gates):
        kind = rng.choice(("CNOT", "CNOT", "CPHASE", "CPHASE1", "H", "P", "DELAY"))
        if kind in ("CNOT", "CPHASE"):
            ops.append(q.Gate(kind, rand_pair(rng, n), rand_poly(q, rng, -2, 3, 3)))
        elif kind == "CPHASE1":
            ops.append(q.Gate(kind, (rng.randint(1, n),), rand_poly(q, rng, 1, 3, 2)))
        elif kind == "DELAY":
            ops.append(q.Gate(kind, (rng.randint(1, n),),
                              q.LaurentPoly.monomial(rng.randint(1, 3))))
        else:
            ops.append(q.Gate(kind, (rng.randint(1, n),)))
    if feedback:
        deg = rng.randint(1, 3)
        f = q.LaurentPoly({0, deg} | set(rng.sample(range(1, deg), rng.randint(0, deg - 1))))
        ops.insert(rng.randint(0, len(ops)),
                   q.Gate(rng.choice(("INF_Z", "INF_X")), (rng.randint(1, n),), f))
    return ops


def cascade_circuit(q, ops, n: int):
    """Plain cascade of one primitive block per gate (no synthesis)."""
    c = q.identity_circuit(n)
    for g in ops:
        c = q.cascade(c, q.build_from_gate(g, n))
    return c


def encoded_css(q, n: int, s_x: int, s_z: int, ops):
    """Image of fresh ancillas under a CNOT encoder, each row shifted to delay 0.

    The rows are carried gate by gate (x_j += f x_i on X rows, z_i += f(D^-1)
    z_j on Z rows), which is what ``unencoded_stabilizer(n, s_x, s_z).apply(
    sequence_transfer(ops, n))`` computes, without the full matrix products.
    """
    x_rows = [[q.ONE if w == r else q.ZERO for w in range(n)] for r in range(s_x)]
    z_rows = [[q.ONE if w == s_x + r else q.ZERO for w in range(n)] for r in range(s_z)]
    for g in ops:
        i, j = g.wires[0] - 1, g.wires[1] - 1
        for row in x_rows:
            if row[i]:
                row[j] = row[j] + g.poly * row[i]
        inv = g.poly.subst_inv()
        for row in z_rows:
            if row[j]:
                row[i] = row[i] + inv * row[j]
    rows = []
    for row in x_rows + z_rows:
        low = min(e.delay for e in row if e)
        rows.append([e.shift(-low) for e in row])
    return rows[:s_x], rows[s_x:]


def draw(name: str, rng, cells: dict, make):
    """``cells[cell]`` items of every cell, drawn by ``rng`` from a fixed population.

    Each cell's population holds SPARE more inputs than are drawn from it,
    made by ``make(population_rng, *cell)`` from a seed that depends
    only on the workload and the cell: the seed draws which inputs run, as
    from a benchmark suite.  Compile times of random inputs are heavy-tailed
    (one input can cost a hundred times the median), and independent draws
    would move the sums and percentiles between seeds by more than the
    benchmark's bounds.
    """
    items = []
    for cell, count in cells.items():
        population_rng = random.Random(f"{name}:population:{cell}")
        size = count + math.ceil(SPARE * count)
        population = [make(population_rng, *cell) for _ in range(size)]
        items.extend((cell, x) for x in rng.sample(population, count))
    return items


SPARE = 0.25  # population inputs beyond those a run draws, as a share of them


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""

    def generate(self, q, rng):
        """Item dicts with the keys ``size`` (a dict) and ``input``."""
        raise NotImplementedError

    def write(self, q, items, workdir: str) -> None:
        """Write the input files of the command-line workloads."""

    def call(self, q, item):
        raise NotImplementedError

    def check(self, q, item, output):
        """(outcome, detail, extra row fields) of one completed call."""
        raise NotImplementedError

    def fingerprint(self, output):
        """What a repeated call must reproduce exactly."""
        return output

    def classify(self, q, exc) -> str:
        """Outcome of a call that raised ``exc``."""
        return REJECTED if isinstance(exc, q.SynthesisError) else RAISED


class CssSynth(Workload):
    name = "css-synth"
    # (wires, encoder gates): codes from 10-gate encoders take up to seconds
    # each and would dominate every sum, so encoders have 3 or 4 gates
    CELLS = dict.fromkeys([(3, 3), (4, 3), (4, 4), (5, 3), (5, 4), (6, 4), (7, 4)], 175)

    @staticmethod
    def encoder(q, rng, n: int, gates: int):
        """(s_x, s_z, ops): ancilla counts and a CNOT encoder with delay-free taps."""
        s_x = rng.randint(1, n - 2)
        s_z = rng.randint(1, n - 1 - s_x)
        return s_x, s_z, rand_cnots(q, rng, n, gates, 0, 3, 3)

    def generate(self, q, rng):
        paper = ([[q.parse_poly(t) for t in PAPER_CSS[0].split()]],
                 [[q.parse_poly(t) for t in PAPER_CSS[1].split()]])
        items = [{"size": {"n": 3, "gates": 0, "source": "paper"}, "input": paper}]
        make = lambda r, n, g: self.encoder(q, r, n, g)  # noqa: E731
        for (n, g), (s_x, s_z, ops) in draw(self.name, rng, self.CELLS, make):
            items.append({"size": {"n": n, "gates": g, "source": "random"},
                          "input": encoded_css(q, n, s_x, s_z, ops)})
        return items

    def call(self, q, item):
        hx, hz = item["input"]
        plan = q.css_encoder(hx, hz)
        return plan, plan.circuit()

    def fingerprint(self, output):
        plan, c = output
        return plan.ops, c

    def check(self, q, item, output):
        plan, c = output
        hx, hz = item["input"]
        transfer, _ = q.circuit_transfer(c)
        image = q.unencoded_stabilizer(c.n, len(hx), len(hz)).apply(transfer)
        extra = {"m": c.m, "bound": plan.memory_bound, "ops": len(plan.ops),
                 "digest": sha(q.circuit_to_text(c))}
        if not q.row_space_equiv(image, q.StabilizerMatrix.from_css(hx, hz)):
            return ORACLE, "encoded stabilizer is not the code", extra
        if c.m > plan.memory_bound:
            return VERDICT, f"m {c.m} > memory bound {plan.memory_bound}", extra
        return OK, "", extra


class CascadeCompile(Workload):
    name = "cascade-compile"
    # (wires, gates, taps): 6-wire 10-gate cascades take up to 30 s each
    CELLS = {(n, g, taps): 100 for n, g in ((3, 3), (3, 4), (4, 4), (4, 5))
             for taps in ("delay-free", "signed")}

    def generate(self, q, rng):
        items = [{"size": {"n": 3, "gates": 12, "taps": "fgg"},
                  "input": (q.parse_sequence(FGG_SEQUENCE), 3)}]
        make = lambda r, n, g, taps: rand_cnots(  # noqa: E731
            q, r, n, g, 0 if taps == "delay-free" else -4, 4, 3)
        for (n, g, taps), ops in draw(self.name, rng, self.CELLS, make):
            items.append({"size": {"n": n, "gates": g, "taps": taps}, "input": (ops, n)})
        return items

    def call(self, q, item):
        ops, n = item["input"]
        return q.compile_sequence(ops, n)

    def check(self, q, item, c):
        ops, n = item["input"]
        transfer, _ = q.circuit_transfer(c)
        total = q.sequence_transfer(ops, n)
        if item["size"]["taps"] == "fgg":
            bound = FGG_MEMORY
        else:
            bound = total.abs_deg()  # cmd_memory's bound for CNOT-only cascades
        extra = {"m": c.m, "bound": bound, "digest": sha(q.circuit_to_text(c))}
        if transfer.equal_mod_monomial(total) is None:
            return ORACLE, "compiled transfer differs from the gate product", extra
        if c.m > bound:
            return VERDICT, f"m {c.m} > bound {bound}", extra
        return OK, "", extra


def _run_cli(q, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = q.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_outcome(code, err):
    if code == 2:
        return REJECTED, err.strip()
    if code != 0:
        return VERDICT, f"exit {code}"
    return None, ""


def _report_body(text: str) -> str:
    """The report without its trailing wall-time line, which varies per run."""
    return "".join(ln for ln in text.splitlines(True) if not ln.startswith("wall time:"))


def _report_digest(item, text: str) -> str:
    """Digest of the report, with the run's input directory left out of file names."""
    workdir = os.path.dirname(item["argv"][1])
    return sha(_report_body(text).replace(workdir + os.sep, ""))


class CliWorkload(Workload):

    def call(self, q, item):
        return _run_cli(q, item["argv"])

    def fingerprint(self, output):
        code, out, err = output
        return code, _report_body(out), err


def mixed_cells(per_cell: int):
    """(wires, gates, feedback) cells; a third of the circuits carry feedback."""
    return {(n, g, fb): per_cell if fb else 2 * per_cell
            for n in (3, 4, 5, 6) for g in (6, 10, 14) for fb in (False, True)}


class ImpulseVerify(CliWorkload):
    name = "impulse-verify"
    CELLS = mixed_cells(5)

    def generate(self, q, rng):
        items = []
        make = lambda r, n, g, fb: rand_mixed(q, r, n, g, fb)  # noqa: E731
        for (n, _, _), ops in draw(self.name, rng, self.CELLS, make):
            c = cascade_circuit(q, ops, n)
            items.append({"size": {"n": n, "gates": len(ops), "frames": c.m,
                                   "feedback": c.has_feedback},
                          "input": (ops, c)})
        return items

    def write(self, q, items, workdir):
        for k, item in enumerate(items):
            ops, c = item["input"]
            cpath = os.path.join(workdir, f"{k}.circuit")
            mpath = os.path.join(workdir, f"{k}.matrix")
            with open(cpath, "w", encoding="utf-8") as fh:
                fh.write(q.circuit_to_text(c))
            with open(mpath, "w", encoding="utf-8") as fh:
                fh.write(q.sequence_transfer(ops, c.n).to_text())
            item["argv"] = ["verify", cpath, mpath]

    def check(self, q, item, output):
        code, out, err = output
        _, c = item["input"]
        horizon = q.recommended_horizon(c)
        extra = {"horizon": horizon, "exit": code, "digest": _report_digest(item, out)}
        lat, resp = q.impulse_response(c, horizon)
        matrix, lat_t = q.circuit_transfer(c)
        size = 2 * c.n
        agree = all(
            resp.entry(i, j).shift(lat) == q.series_expand(matrix.entry(i, j).shift(lat_t),
                                                           horizon)
            for i in range(size) for j in range(size))
        if not c.has_feedback:
            agree = agree and (lat, resp) == (lat_t, matrix)
        if not agree:
            return ORACLE, "impulse response differs from the symbolic transfer", extra
        outcome, detail = _cli_outcome(code, err)
        return outcome or OK, detail, extra



def _poly_bits(p) -> int:
    return sum(1 << e for e in p.support)


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials held as bit masks."""
    if bin(a).count("1") > bin(b).count("1"):
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


class StreamSimulate(CliWorkload):
    """One long single-lane stream per circuit, plus stream text I/O.

    Runs with ``--workload stream-simulate``; BENCHMARK.json does not list
    it, because its run budget holds three workloads at this run length.
    """

    name = "stream-simulate"
    CELLS = mixed_cells(3)
    FRAMES = 2000
    DENSITY = 0.1

    def generate(self, q, rng):
        items = []
        make = lambda r, n, g, fb: rand_mixed(q, r, n, g, fb)  # noqa: E731
        for (n, _, _), ops in draw(self.name, rng, self.CELLS, make):
            c = cascade_circuit(q, ops, n)
            # the stream's bits barely change the work, so the run seed draws them
            zs, xs = ([q.LaurentPoly(t for t in range(self.FRAMES)
                                     if rng.random() < self.DENSITY) for _ in range(n)]
                      for _ in range(2))
            items.append({"size": {"n": n, "gates": len(ops), "frames": c.m,
                                   "feedback": c.has_feedback},
                          "input": (c, q.PauliStream(zs, xs))})
        return items

    def write(self, q, items, workdir):
        for k, item in enumerate(items):
            c, stream = item["input"]
            cpath = os.path.join(workdir, f"{k}.circuit")
            spath = os.path.join(workdir, f"{k}.stream")
            with open(cpath, "w", encoding="utf-8") as fh:
                fh.write(q.circuit_to_text(c))
            with open(spath, "w", encoding="utf-8") as fh:
                fh.write(stream.to_text())
            item["argv"] = ["simulate", cpath, spath]

    def check(self, q, item, output):
        code, out, err = output
        c, stream = item["input"]
        horizon = q.recommended_horizon(c) + stream.max_exp
        extra = {"horizon": horizon, "exit": code, "digest": _report_digest(item, out)}
        outcome, detail = _cli_outcome(code, err)
        if outcome:
            return outcome, detail, extra
        lines = out.splitlines()
        start = lines.index("output stream:") + 1
        body = [ln[2:] for ln in lines[start:] if ln.startswith("  ")]
        got = q.PauliStream.from_text("\n".join(body) + "\n")
        if got != self.expected(q, c, stream, horizon):
            return ORACLE, "output stream differs from input times transfer", extra
        return OK, "", extra

    @staticmethod
    def expected(q, c, stream, horizon):
        """Input row times the symbolic transfer, series-expanded to the horizon."""
        matrix, lat = q.circuit_transfer(c)
        n = c.n
        row = [_poly_bits(p) for p in stream.zs + stream.xs]
        mask = (1 << (horizon + 1)) - 1
        outs = []
        for j in range(2 * n):
            acc = 0
            for k in range(2 * n):
                e = matrix.entry(k, j)
                if row[k] and e:
                    series = q.series_expand(e.shift(lat), horizon)
                    acc ^= _clmul(row[k], _poly_bits(series))
            acc &= mask
            outs.append(q.LaurentPoly(t for t in range(acc.bit_length()) if acc >> t & 1))
        return q.PauliStream(outs[:n], outs[n:])


WORKLOADS = {w.name: w for w in (CssSynth(), CascadeCompile(), ImpulseVerify(),
                                  StreamSimulate())}
