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
Gates become circuits in one place, ``_cascade_all``, which lays a whole
gate list out in one pass with the same result: ``tap_placements`` takes
the stages at which a block starts on its two wires, so each tap is
placed once, at its final stage, instead of once per merge.  The
primitive circuit of one gate (``build_from_gate``) is its one-gate case.

The symbolic transfer (``circuit_transfer``) is the ordered product of
every section's gates, multiplied out on sparse columns by
``apply_gates``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2poly import LaurentPoly, ParseError, content_lines, parse_poly
from .symplectic import Gate, apply_gates, check_wire_count, gates_commute

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
        if k == 0:
            return self
        a = (self.a[0], self.a[1] - k)
        b = None if self.b is None else (self.b[0], self.b[1] - k)
        return Placement(self.kind, a, b)


def _check_slots(p: Placement, depths) -> None:
    """Raise unless every slot of ``p`` lies on a wire and within its depth."""
    for wire, stage in p.slots:
        if wire > len(depths):
            raise ValueError(f"placement references wire {wire} of {len(depths)}")
        if stage > depths[wire - 1]:
            raise ValueError(
                f"placement references stage {stage} beyond depth "
                f"{depths[wire - 1]} on wire {wire}")


@dataclass(frozen=True)
class FiniteSection:
    depths: tuple
    placements: tuple

    def __post_init__(self):
        if any(d < 0 for d in self.depths):
            raise ValueError("negative pipeline depth")
        for p in self.placements:
            _check_slots(p, self.depths)

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
        if self.wire < 1:
            raise ValueError(f"bad feedback wire {self.wire}; wires are numbered from 1")
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
    """Merge runs of adjacent finite sections and drop trivial ones."""
    out = []
    for sec in sections:
        if isinstance(sec, FiniteSection):
            if sec.is_trivial:
                continue
            if out and isinstance(out[-1], list):
                out[-1].append(sec)
                continue
            sec = [sec]
        out.append(sec)
    return tuple(_merge_finite(sec) if isinstance(sec, list) else sec for sec in out)


def _merge_finite(run) -> FiniteSection:
    """One section for a run of finite sections, each one pipeline downstream."""
    if len(run) == 1:
        return run[0]
    offsets = run[0].depths
    placements = list(run[0].placements)

    def shift_slot(slot):
        wire, stage = slot
        return (wire, stage + offsets[wire - 1])

    for sec in run[1:]:
        placements.extend(
            Placement(p.kind, shift_slot(p.a), None if p.b is None else shift_slot(p.b))
            for p in sec.placements)
        offsets = tuple(a + b for a, b in zip(offsets, sec.depths))
    return FiniteSection(offsets, tuple(placements))


def cascade(c1: ShiftRegisterCircuit, c2: ShiftRegisterCircuit) -> ShiftRegisterCircuit:
    """Connect the outputs of ``c1`` to the inputs of ``c2``."""
    if c1.n != c2.n:
        raise ValueError(f"wire-count mismatch: {c1.n} vs {c2.n}")
    return ShiftRegisterCircuit(c1.n, _canonical_sections(c1.sections + c2.sections))


# ---------------------------------------------------------------------------
# Gate layout


def tap_placements(kind: str, i: int, j: int, f: LaurentPoly,
                   si: int = 0, sj: int = 0) -> list:
    """One placement per tap D^e of f, from slot (i, si + max(e, 0)) to (j, sj + max(-e, 0)).

    ``si`` and ``sj`` are the stages at which the block's stage 0 lies on
    wires i and j (nonzero when the block sits downstream of others).
    """
    return [Placement(kind, (i, si + max(e, 0)), (j, sj + max(-e, 0))) for e in f.terms]


def _cascade_all(ops, n: int) -> ShiftRegisterCircuit:
    """``cascade`` of the primitive circuits of ``ops``, laid out in one pass.

    ``offsets`` holds each wire's depth so far in the current run of
    finite gates, which is where the next block's stage 0 lies on that
    wire; every tap is placed there at once, one ``Placement`` per tap
    (``tap_placements``), and a block of tap span d then deepens every
    wire by d (a DELAY only its own wire).  A CPHASE1 tap D^e (e >= 1)
    couples (i, e) to (i, 0).  H and P sit on the incoming frame.  A
    feedback gate closes the run as one ``FiniteSection`` and passes
    through as a ``FeedbackNode``.  Gates with a zero polynomial lay out
    nothing.
    """
    sections = []
    offsets, placements = [0] * n, []

    def close_run():
        nonlocal offsets, placements
        if placements or any(offsets):
            sections.append(FiniteSection(tuple(offsets), tuple(placements)))
            offsets, placements = [0] * n, []

    for g in ops:
        for w in g.wires:  # ``Gate`` has checked w >= 1 and distinct pairs
            if w > n:
                raise ValueError(f"wire {w} out of range 1..{n}")
        kind, i = g.kind, g.wires[0]
        if kind in ("INF_Z", "INF_X"):
            close_run()
            sections.append(FeedbackNode("Z" if kind == "INF_Z" else "X", i, g.poly))
        elif kind in ("H", "P"):
            placements.append(Placement(kind, (i, offsets[i - 1])))
        elif kind == "DELAY":
            offsets[i - 1] += g.delay_amount
        elif g.poly:
            j = g.wires[-1]
            placements.extend(tap_placements(
                "CPHASE" if kind == "CPHASE1" else kind, i, j, g.poly,
                offsets[i - 1], offsets[j - 1]))
            span = g.poly.abs_deg
            offsets = [o + span for o in offsets]
    close_run()
    return ShiftRegisterCircuit(n, tuple(sections))


def build_from_gate(gate: Gate, n: int) -> ShiftRegisterCircuit:
    """Primitive circuit realizing one elementary gate on n wires.

    CNOT(i,j)(f) and CPHASE(i,j)(f) are delay-line blocks of abs_deg(f)
    frames, CPHASE1 a same-wire block of deg(f) frames, H and P
    memoryless, DELAY l cells on its wire only, and INF_Z / INF_X a
    feedback block.
    """
    return _cascade_all((gate,), n)


# ---------------------------------------------------------------------------
# Instance commutation and schedule soundness


def _match_commute(kind_p, kind_q, match) -> bool:
    """Exact commutation of p and q, q's data located by ``match``.

    p acts on data 1, 2, ...; q's i-th datum is p's datum
    ``match[i] + 1``, or a datum of its own where ``match[i]`` is -1.
    Each datum becomes a wire of its own at stage 0, so both placements
    are gates with tap 1, and ``gates_commute`` compares their
    closed-form matrices.
    """
    width = 1 if kind_p in ("H", "P") else 2
    wires_q = []
    k = width
    for m in match:
        if m < 0:
            m, k = k, k + 1
        wires_q.append(m + 1)
    gp = _placement_gate(Placement(kind_p, *((w, 0) for w in range(1, width + 1))))
    gq = _placement_gate(Placement(kind_q, *((w, 0) for w in wires_q)))
    return gates_commute(gp, gq, k)


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
    pattern is decided once by comparing the two orders of the gates'
    closed-form matrices (``_match_commute``).
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
    t = apply_gates([g for sec in c.sections for g in _section_gates(sec)], c.n)
    lat = t.min_delay() if c.has_feedback else t.latency_shift()
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
    n = n_line = None
    declared = {}
    sections = []
    depths = None
    placements = []
    section_line = None
    finite = []  # (line of the section header, section)

    def flush():
        nonlocal depths, placements
        if depths is not None:
            sections.append(FiniteSection(tuple(depths), tuple(placements)))
            finite.append((section_line, sections[-1]))
            depths, placements = None, []

    for lineno, line in content_lines(text):
        try:
            head, _, rest = line.partition(" ")
            if head == "n":
                if n is not None:
                    raise ParseError(f"repeated 'n' header (first on line {n_line})")
                n, n_line = int(rest), lineno
                check_wire_count(n)
            elif head in ("frames", "latency"):
                declared[head] = int(rest)
            elif head == "section":
                flush()
                if not rest.startswith("depths="):
                    raise ParseError("section line needs depths=")
                depths = [int(v) for v in rest[len("depths="):].split(",")]
                if any(d < 0 for d in depths):
                    raise ParseError("negative pipeline depth")
                placements = []
                section_line = lineno
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
                _check_slots(p, depths)
                placements.append(p)
            elif head == "ffb":
                flush()
                fields = rest.split()
                kind = fields[0]
                kv = dict(f.split("=", 1) for f in fields[1:])
                sections.append(FeedbackNode(kind, int(kv["wire"]), parse_poly(kv["f"])))
                if n is not None and sections[-1].wire > n:
                    raise ParseError(f"feedback wire {sections[-1].wire} of {n}")
            else:
                raise ParseError(f"unrecognized line {line!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        except (KeyError, ValueError, IndexError) as exc:
            raise ParseError(f"line {lineno}: malformed circuit line {line!r}: {exc}") from exc
    flush()
    if n is None:
        raise ParseError("missing 'n <wires>' header")
    for lineno, sec in finite:  # circuit_to_text writes only causal schedules
        try:
            if len(sec.depths) != n:
                raise ValueError(f"section has {len(sec.depths)} depths for {n} wires")
            check_schedule(sec)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    c = ShiftRegisterCircuit(n, tuple(sections))
    if "frames" in declared and declared["frames"] != c.m:
        raise ParseError(f"declared frames {declared['frames']} but circuit has {c.m}")
    return c
