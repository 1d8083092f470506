"""Clocked shift register circuit IR and constructors for every primitive.

A circuit is a series of sections.  A finite section is a staged pipeline:
wire w runs through ``depths[w-1]`` memory cells, and slot (w, s) denotes
the frame that entered the section s cycles ago (s = 0 is the incoming
frame, s = depth the frame about to leave).  Single-tap two-point gates
are placed between slots and applied once per cycle in schedule order;
after the gates, memory shifts one stage and the oldest frame leaves.
A feedback section is an opaque one-wire recursion block realizing an
infinite-depth operation; gates never reach inside it.

A placement between slots (wa, sa) and (wb, sb) realizes the monomial
transfer D^(sa-sb) between the two wire streams, so a delay-line CNOT
block with taps f_e at source stages e implements CNOT(i,j)(f) behind a
global delay.  Cascading concatenates sections, merging adjacent finite
sections by offsetting the second schedule one pipeline downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2poly import LaurentPoly, ParseError, parse_poly
from .symplectic import Gate, SympMatrix, apply_gates

PLACEMENT_KINDS = ("CNOT", "CPHASE", "H", "P")


@dataclass(frozen=True)
class Placement:
    """A single-tap gate between slots; ``a`` is the CNOT source."""

    kind: str
    a: tuple
    b: tuple | None = None
    slots: tuple = field(init=False, repr=False, compare=False)  # (a,) or (a, b)

    def __post_init__(self):
        object.__setattr__(self, "slots", (self.a,) if self.b is None else (self.a, self.b))
        if self.kind not in PLACEMENT_KINDS:
            raise ValueError(f"unknown placement kind {self.kind!r}")
        if self.kind in ("CNOT", "CPHASE"):
            if self.b is None or self.a == self.b:
                raise ValueError(f"{self.kind} placement needs two distinct slots")
        elif self.b is not None:
            raise ValueError(f"{self.kind} placement takes one slot")
        for wire, stage in self.slots:
            if wire < 1 or stage < 0:
                raise ValueError(f"bad slot ({wire}, {stage})")

    def moved_down(self, k: int = 1) -> "Placement":
        a = (self.a[0], self.a[1] - k)
        b = None if self.b is None else (self.b[0], self.b[1] - k)
        return Placement(self.kind, a, b)


@dataclass(frozen=True)
class FiniteSection:
    depths: tuple
    placements: tuple

    def __post_init__(self):
        n = len(self.depths)
        if any(d < 0 for d in self.depths):
            raise ValueError("negative pipeline depth")
        for p in self.placements:
            for wire, stage in p.slots:
                if wire > n:
                    raise ValueError(f"placement references wire {wire} of {n}")
                if stage > self.depths[wire - 1]:
                    raise ValueError(
                        f"placement references stage {stage} beyond depth "
                        f"{self.depths[wire - 1]} on wire {wire}")

    @property
    def m(self) -> int:
        return max(self.depths, default=0)

    @property
    def is_trivial(self) -> bool:
        return not self.placements and all(d == 0 for d in self.depths)


@dataclass(frozen=True)
class FeedbackNode:
    """One-wire recursion block; kind 'Z' maps z -> z/f(D^-1), x -> f(D) x."""

    kind: str
    wire: int
    poly: LaurentPoly

    def __post_init__(self):
        if self.kind not in ("Z", "X"):
            raise ValueError("feedback kind must be 'Z' or 'X'")
        f = self.poly
        if not f or f.delay != 0 or f.deg < 1:
            raise ValueError("feedback polynomial must have delay 0 and degree >= 1")

    @property
    def m(self) -> int:
        return self.poly.deg


@dataclass(frozen=True)
class ShiftRegisterCircuit:
    n: int
    sections: tuple

    def __post_init__(self):
        for sec in self.sections:
            if isinstance(sec, FiniteSection):
                if len(sec.depths) != self.n:
                    raise ValueError("section wire count mismatch")
            elif isinstance(sec, FeedbackNode):
                if sec.wire > self.n:
                    raise ValueError("feedback wire out of range")
            else:
                raise TypeError(f"unknown section {sec!r}")

    @property
    def m(self) -> int:
        """Total memory frames across all sections."""
        return sum(sec.m for sec in self.sections)

    @property
    def has_feedback(self) -> bool:
        return any(isinstance(sec, FeedbackNode) for sec in self.sections)

    @property
    def placements(self) -> tuple:
        out = []
        for sec in self.sections:
            if isinstance(sec, FiniteSection):
                out.extend(sec.placements)
        return tuple(out)

    @property
    def max_tap_degree(self) -> int:
        best = 0
        for sec in self.sections:
            if isinstance(sec, FiniteSection):
                for p in sec.placements:
                    if p.b is not None:
                        best = max(best, abs(p.a[1] - p.b[1]))
            else:
                best = max(best, sec.poly.deg)
        return best


def identity_circuit(n: int) -> ShiftRegisterCircuit:
    return ShiftRegisterCircuit(n, ())


def _canonical_sections(sections):
    """Merge adjacent finite sections and drop trivial ones."""
    out = []
    for sec in sections:
        if isinstance(sec, FiniteSection):
            if sec.is_trivial:
                continue
            if out and isinstance(out[-1], FiniteSection):
                out[-1] = _merge_finite(out[-1], sec)
                continue
        out.append(sec)
    return tuple(out)


def _merge_finite(f1: FiniteSection, f2: FiniteSection) -> FiniteSection:
    offsets = f1.depths
    depths = tuple(a + b for a, b in zip(f1.depths, f2.depths))

    def shift_slot(slot):
        wire, stage = slot
        return (wire, stage + offsets[wire - 1])

    shifted = tuple(
        Placement(p.kind, shift_slot(p.a), None if p.b is None else shift_slot(p.b))
        for p in f2.placements)
    return FiniteSection(depths, f1.placements + shifted)


def cascade(c1: ShiftRegisterCircuit, c2: ShiftRegisterCircuit) -> ShiftRegisterCircuit:
    """Connect the outputs of ``c1`` to the inputs of ``c2``."""
    if c1.n != c2.n:
        raise ValueError(f"wire-count mismatch: {c1.n} vs {c2.n}")
    return ShiftRegisterCircuit(c1.n, _canonical_sections(c1.sections + c2.sections))


# ---------------------------------------------------------------------------
# Primitive constructors


def _tap_section(kind: str, i: int, j: int, f: LaurentPoly, n: int) -> ShiftRegisterCircuit:
    if not f:
        return identity_circuit(n)
    m = f.abs_deg
    placements = []
    for e in sorted(f.support):
        src = (i, max(e, 0))
        tgt = (j, max(-e, 0))
        placements.append(Placement(kind, src, tgt))
    return ShiftRegisterCircuit(
        n, ((FiniteSection((m,) * n, tuple(placements)),) if m or placements else ()))


def build_cnot_circuit(i: int, j: int, f: LaurentPoly, n: int) -> ShiftRegisterCircuit:
    """Delay-line block for CNOT(i,j)(f); uses abs_deg(f) memory frames."""
    _check_pair(i, j, n)
    return _tap_section("CNOT", i, j, f, n)


def build_cnot_conj_circuit(i: int, j: int, f: LaurentPoly, n: int) -> ShiftRegisterCircuit:
    """Same block with every CNOT direction flipped: X and Z swap roles."""
    _check_pair(i, j, n)
    return _tap_section("CNOT", j, i, f.subst_inv(), n)


def build_cphase2_circuit(i: int, j: int, f: LaurentPoly, n: int) -> ShiftRegisterCircuit:
    """Delay-line block for the two-wire controlled-phase CPHASE(i,j)(f)."""
    _check_pair(i, j, n)
    return _tap_section("CPHASE", i, j, f, n)


def build_cphase1_circuit(i: int, f: LaurentPoly, n: int) -> ShiftRegisterCircuit:
    """Single-wire controlled-phase: transfer entry f(D) + f(D^-1) at (x_i, z_i)."""
    _check_wire(i, n)
    if not f:
        return identity_circuit(n)
    if f.delay < 1:
        raise ValueError("self-phase at lag 0 is a P gate")
    m = f.deg
    placements = tuple(Placement("CPHASE", (i, e), (i, 0)) for e in sorted(f.support))
    return ShiftRegisterCircuit(n, (FiniteSection((m,) * n, placements),))


def build_delay_circuit(i: int, l: int, n: int) -> ShiftRegisterCircuit:
    """Insert l memory cells on wire i only."""
    _check_wire(i, n)
    if l < 0:
        raise ValueError("negative delay")
    if l == 0:
        return identity_circuit(n)
    depths = tuple(l if w == i else 0 for w in range(1, n + 1))
    return ShiftRegisterCircuit(n, (FiniteSection(depths, ()),))


def build_single(kind: str, i: int, n: int) -> ShiftRegisterCircuit:
    """Memoryless one-wire gate (H or P) on the incoming frame."""
    if kind not in ("H", "P"):
        raise ValueError("build_single expects H or P")
    _check_wire(i, n)
    section = FiniteSection((0,) * n, (Placement(kind, (i, 0)),))
    return ShiftRegisterCircuit(n, (section,))


def build_inf_z_circuit(i: int, f: LaurentPoly, n: int) -> ShiftRegisterCircuit:
    _check_wire(i, n)
    return ShiftRegisterCircuit(n, (FeedbackNode("Z", i, f),))


def build_inf_x_circuit(i: int, f: LaurentPoly, n: int) -> ShiftRegisterCircuit:
    _check_wire(i, n)
    return ShiftRegisterCircuit(n, (FeedbackNode("X", i, f),))


def build_from_gate(gate: Gate, n: int) -> ShiftRegisterCircuit:
    """Primitive circuit realizing one elementary gate."""
    kind = gate.kind
    if kind == "CNOT":
        return build_cnot_circuit(gate.wires[0], gate.wires[1], gate.poly, n)
    if kind == "CPHASE":
        return build_cphase2_circuit(gate.wires[0], gate.wires[1], gate.poly, n)
    if kind == "CPHASE1":
        return build_cphase1_circuit(gate.wires[0], gate.poly, n)
    if kind in ("H", "P"):
        return build_single(kind, gate.wires[0], n)
    if kind == "DELAY":
        return build_delay_circuit(gate.wires[0], gate.delay_amount, n)
    if kind == "INF_Z":
        return build_inf_z_circuit(gate.wires[0], gate.poly, n)
    return build_inf_x_circuit(gate.wires[0], gate.poly, n)


def _check_wire(i, n):
    if not 1 <= i <= n:
        raise ValueError(f"wire {i} out of range 1..{n}")


def _check_pair(i, j, n):
    _check_wire(i, n)
    _check_wire(j, n)
    if i == j:
        raise ValueError("two-wire gate needs distinct wires")


# ---------------------------------------------------------------------------
# Instance commutation and schedule soundness


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


def _match_commute(kind_p, kind_q, match) -> bool:
    """Exact commutation of p and q, q's data located by ``match``.

    p acts on local qubits 0, 1, ...; q's i-th datum is p's qubit
    ``match[i]``, or a qubit of its own where ``match[i]`` is -1.
    """
    width = 1 if kind_p in ("H", "P") else 2
    ids_q = []
    k = width
    for m in match:
        if m < 0:
            m, k = k, k + 1
        ids_q.append(m)
    mp = _local_matrix(kind_p, list(range(width)), k)
    mq = _local_matrix(kind_q, ids_q, k)
    return _bit_mul(mp, mq, k) == _bit_mul(mq, mp, k)


# (kind p, kind q, match) -> commute?  ``match`` gives, for each datum of
# q, the index of the equal datum of p or -1.  Commutation does not depend
# on how the data are labeled, so this pattern decides it; there are a few
# dozen patterns at most.
_COMMUTE_MEMO: dict = {}


def instances_commute(p: Placement, q: Placement, shift: int) -> bool:
    """Do p's cycle-0 instance and q's cycle-``shift`` instance commute?

    Slot (w, s) of p addresses the frame datum (w, -s); slot (w, t) of q
    addresses (w, shift - t).  Disjoint data always commute.  For
    overlapping instances the answer depends only on the two kinds and
    on which data they share, so it is memoized on that pattern; each
    pattern is decided once by exact bit-matrix commutation of the two
    local matrices.
    """
    data_p = [(w, -s) for w, s in p.slots]
    match = []
    for w, t in q.slots:
        d = (w, shift - t)
        match.append(data_p.index(d) if d in data_p else -1)
    if max(match) < 0:
        return True
    key = (p.kind, q.kind, tuple(match))
    found = _COMMUTE_MEMO.get(key)
    if found is None:
        found = _COMMUTE_MEMO[key] = _match_commute(*key)
    return found


def _wire_users(placements) -> dict:
    """wire -> ascending indices of the placements with a slot on it."""
    users = {}
    for k, p in enumerate(placements):
        for wire in {w for w, _ in p.slots}:
            users.setdefault(wire, []).append(k)
    return users


def check_schedule(section: FiniteSection) -> None:
    """Reject schedules whose cross-cycle interleaving breaks the product form.

    The section transformation equals the schedule-ordered product of
    per-placement transfers iff every pair (P before Q) whose instances
    overlap with Q executing at an earlier cycle commutes at that
    alignment.  Overlap at a negative alignment happens exactly when Q
    references a shallower stage than P on a shared wire, so only pairs
    sharing a wire are examined.
    """
    pls = section.placements
    users = _wire_users(pls)
    for i, p in enumerate(pls):
        later = sorted({j for w, _ in p.slots for j in users[w] if j > i})
        for j in later:
            q = pls[j]
            for (w1, s) in p.slots:
                for (w2, t) in q.slots:
                    if w1 == w2 and t < s and not instances_commute(p, q, t - s):
                        raise ValueError(
                            "schedule has an acausal crossing between "
                            f"{p} and {q}")


# ---------------------------------------------------------------------------
# Symbolic transfer


def _placement_gate(p: Placement) -> Gate:
    if p.kind in ("H", "P"):
        return Gate(p.kind, (p.a[0],))
    (wa, sa), (wb, sb) = p.a, p.b
    if wa == wb:  # same-wire phase coupling across stages
        return Gate("CPHASE1", (wa,), LaurentPoly.monomial(abs(sa - sb)))
    return Gate(p.kind, (wa, wb), LaurentPoly.monomial(sa - sb))


def _section_gates(sec) -> list:
    """Gates whose ordered product is the section's transfer."""
    if isinstance(sec, FeedbackNode):
        kind = "INF_Z" if sec.kind == "Z" else "INF_X"
        return [Gate(kind, (sec.wire,), sec.poly)]
    check_schedule(sec)
    gates = [_placement_gate(p) for p in sec.placements]
    # per-wire output delay applied on the output side
    gates.extend(Gate("DELAY", (w,), LaurentPoly.monomial(d))
                 for w, d in enumerate(sec.depths, start=1) if d)
    return gates


def circuit_transfer(c: ShiftRegisterCircuit):
    """Exact transfer matrix and latency exponent of the circuit.

    Returns (matrix, latency): the absolute transfer equals matrix * D^latency.
    Finite-depth circuits normalize to the global exponent minimizing the
    absolute degree (smallest such exponent on ties); circuits with
    feedback blocks normalize to the smallest observed series exponent.
    """
    t = SympMatrix.identity(c.n)
    for sec in c.sections:
        t = apply_gates(t, _section_gates(sec))
    if t.is_polynomial:
        lat = t.latency_shift()
    else:
        lat = t.min_delay()
    return t.shifted(-lat), lat


# ---------------------------------------------------------------------------
# Text format


def circuit_to_text(c: ShiftRegisterCircuit) -> str:
    matrix, lat = circuit_transfer(c)
    lines = [f"n {c.n}", f"frames {c.m}", f"latency {lat}"]
    for sec in c.sections:
        if isinstance(sec, FeedbackNode):
            lines.append(f"ffb {sec.kind} wire={sec.wire} f={sec.poly}")
            continue
        lines.append("section depths=" + ",".join(str(d) for d in sec.depths))
        for p in sec.placements:
            stage = max(s for _, s in p.slots)
            fields = [f"gate {p.kind}", f"s={stage}", f"a={p.a[0]}@{p.a[1]}"]
            if p.b is not None:
                fields.append(f"b={p.b[0]}@{p.b[1]}")
                fields.append(f"f={LaurentPoly.monomial(p.a[1] - p.b[1])}")
            lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _parse_slot(token: str):
    wire, _, stage = token.partition("@")
    return (int(wire), int(stage))


def circuit_from_text(text: str) -> ShiftRegisterCircuit:
    n = None
    declared = {}
    sections = []
    depths = None
    placements = []

    def flush():
        nonlocal depths, placements
        if depths is not None:
            sections.append(FiniteSection(tuple(depths), tuple(placements)))
            depths, placements = None, []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, _, rest = line.partition(" ")
            if head == "n":
                n = int(rest)
            elif head in ("frames", "latency"):
                declared[head] = int(rest)
            elif head == "section":
                flush()
                if not rest.startswith("depths="):
                    raise ParseError("section line needs depths=")
                depths = [int(v) for v in rest[len("depths="):].split(",")]
                placements = []
            elif head == "gate":
                if depths is None:
                    raise ParseError("gate line outside a section")
                fields = rest.split()
                kind = fields[0]
                kv = dict(f.split("=", 1) for f in fields[1:])
                a = _parse_slot(kv["a"])
                b = _parse_slot(kv["b"]) if "b" in kv else None
                p = Placement(kind, a, b)
                if "s" in kv and int(kv["s"]) != max(s for _, s in p.slots):
                    raise ParseError("stage field disagrees with slots")
                if "f" in kv and b is not None:
                    if parse_poly(kv["f"]) != LaurentPoly.monomial(a[1] - b[1]):
                        raise ParseError("tap polynomial disagrees with slots")
                placements.append(p)
            elif head == "ffb":
                flush()
                fields = rest.split()
                kind = fields[0]
                kv = dict(f.split("=", 1) for f in fields[1:])
                sections.append(FeedbackNode(kind, int(kv["wire"]), parse_poly(kv["f"])))
            else:
                raise ParseError(f"unrecognized line {line!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        except (KeyError, ValueError, IndexError) as exc:
            raise ParseError(f"line {lineno}: malformed circuit line {line!r}: {exc}") from exc
    flush()
    if n is None:
        raise ParseError("missing 'n <wires>' header")
    c = ShiftRegisterCircuit(n, tuple(sections))
    if "frames" in declared and declared["frames"] != c.m:
        raise ParseError(f"declared frames {declared['frames']} but circuit has {c.m}")
    return c
