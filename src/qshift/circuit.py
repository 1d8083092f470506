"""Clocked shift register circuit IR and constructors for every primitive.

A circuit is a series of sections.  A finite section is a staged pipeline:
wire w runs through ``depths[w-1]`` memory cells, and slot (w, s) denotes
the frame that entered the section s cycles ago (s = 0 is the incoming
frame, s = depth the frame about to leave).  Single-tap two-point gates
are placed between slots and applied once per cycle in schedule order;
after the gates, memory shifts one stage and the oldest frame leaves.
A feedback section is the ``INF_Z`` or ``INF_X`` gate that it realizes:
an opaque one-wire recursion block of ``poly.deg`` frames for an
infinite-depth operation; gates never reach inside it.

A placement between slots (wa, sa) and (wb, sb) realizes the monomial
transfer D^(sa-sb) between the two wire streams, so a delay-line CNOT
block with taps f_e at source stages e implements CNOT(i,j)(f) behind a
global delay.  Every layout goes through one pass, ``_cascade_all``: it
takes gates and sections in order, and each finite block starts one
pipeline downstream of the run before it.  The run keeps one depth
counter, which every tap block deepens by its span, and each wire an
extra delay beyond it, which DELAY gates and sections of unequal depths
add to.  ``tap_placements``, the one tap rule, takes the stages at which
a gate's block starts on its two wires and walks the tap polynomial's
set bits, so each tap is placed once, at its final stage, in one step.
A section's placements move down by the wires' depths so far.  The
primitive circuit of one gate (``build_from_gate``) is its one-gate
case, and ``cascade`` and ``synthesis.reduce_memory`` lay out the
sections of circuits (a reduced section that is a circuit's only
section needs no layout).

Values are checked once, where they enter the package: the public
constructors of ``Placement``, ``FiniteSection``, ``ShiftRegisterCircuit``
and ``Gate``, ``Placement.moved_down`` and the reader
``circuit_from_text`` refuse a bad kind, slot, depth, wire or section
(the reader builds each section once it has checked every line of it),
and the constructors store sequence fields as tuples, as ``Gate`` does.
The layout pass and the section reducer (``synthesis._earliest_stages``
and ``_reduce_section``) build only from values already checked, so they
use the unchecked constructors ``_placement``, ``_moved_down``,
``_section`` and ``_circuit``: they trust that a gate's wires passed
``check_gate_wires``, that layout offsets and scheduled stages are never
negative, and that a reduced section's depths cover every slot it keeps.

The symbolic transfer (``circuit_transfer``) is the ordered product of
every section's gates, multiplied out on sparse columns by
``apply_gates``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2poly import LaurentPoly, ParseError, _term_text, parse_poly
from .symplectic import (Gate, apply_gates, check_gate_wires, gates_commute, read_fields,
                         read_header, read_int)

PLACEMENT_KINDS = ("CNOT", "CPHASE", "H", "P")

# the key=value fields of the text format's gate and ffb lines; H and P have one slot
_GATE_FIELDS = frozenset(("s", "a", "b", "f"))
_ONE_SLOT_FIELDS = frozenset(("s", "a"))
_FEEDBACK_FIELDS = frozenset(("wire", "f"))


@dataclass(slots=True, unsafe_hash=True)
class Placement:
    """A single-tap gate between slots; ``a`` is the CNOT source.

    A placement is a value: it compares and hashes on ``kind, a, b``, and
    nothing assigns to one after construction.
    """

    kind: str
    a: tuple
    b: tuple | None = None
    slots: tuple = field(init=False, repr=False, compare=False)  # (a,) or (a, b)

    def __post_init__(self):
        a = self.a = tuple(self.a)
        b = self.b = None if self.b is None else tuple(self.b)
        self.slots = (a,) if b is None else (a, b)
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
        """This placement ``k`` stages shallower, checked as a new one."""
        p = _moved_down(self, k)
        return p if p is self else Placement(p.kind, p.a, p.b)


# The unchecked constructors skip ``__post_init__`` for values built from
# checked ones (see the module docstring), as ``gf2poly._poly`` does for
# polynomials.
_new = object.__new__
_set = object.__setattr__


def _placement(kind: str, a: tuple, b: tuple | None = None) -> Placement:
    """``Placement(kind, a, b)`` without its checks."""
    p = _new(Placement)
    p.kind, p.a, p.b = kind, a, b
    p.slots = (a,) if b is None else (a, b)
    return p


def _moved_down(p: Placement, k: int) -> Placement:
    """``p.moved_down(k)`` without its checks; every stage must stay >= 0."""
    if k == 0:
        return p
    return _placement(p.kind, (p.a[0], p.a[1] - k),
                      None if p.b is None else (p.b[0], p.b[1] - k))


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
        _set(self, "depths", tuple(self.depths))
        _set(self, "placements", tuple(self.placements))
        if any(d < 0 for d in self.depths):
            raise ValueError("negative pipeline depth")
        for p in self.placements:
            _check_slots(p, self.depths)

    @property
    def m(self) -> int:
        return max(self.depths, default=0)


def _section(depths: tuple, placements: tuple) -> FiniteSection:
    """``FiniteSection(depths, placements)`` without its checks."""
    sec = _new(FiniteSection)
    _set(sec, "depths", depths)
    _set(sec, "placements", placements)
    return sec


@dataclass(frozen=True)
class ShiftRegisterCircuit:
    n: int
    sections: tuple

    def __post_init__(self):
        _set(self, "sections", tuple(self.sections))
        for sec in self.sections:
            if isinstance(sec, FiniteSection):
                if len(sec.depths) != self.n:
                    raise ValueError("section wire count mismatch")
            elif isinstance(sec, Gate) and sec.kind in ("INF_Z", "INF_X"):
                if sec.wires[0] > self.n:
                    raise ValueError("feedback wire out of range")
            else:
                raise TypeError(f"unknown section {sec!r}")

    @property
    def m(self) -> int:
        """Total memory frames across all sections."""
        return sum(sec.m if isinstance(sec, FiniteSection) else sec.poly.deg
                   for sec in self.sections)

    @property
    def has_feedback(self) -> bool:
        return any(isinstance(sec, Gate) for sec in self.sections)

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


def _circuit(n: int, sections: tuple) -> ShiftRegisterCircuit:
    """``ShiftRegisterCircuit(n, sections)`` without its checks."""
    c = _new(ShiftRegisterCircuit)
    _set(c, "n", n)
    _set(c, "sections", sections)
    return c


def identity_circuit(n: int) -> ShiftRegisterCircuit:
    return ShiftRegisterCircuit(n, ())


# ---------------------------------------------------------------------------
# Gate layout


def tap_placements(kind: str, i: int, j: int, f: LaurentPoly,
                   si: int = 0, sj: int = 0) -> list:
    """One placement per tap D^e of f, from slot (i, si + max(e, 0)) to (j, sj + max(-e, 0)).

    ``si`` and ``sj`` are the stages at which the block's stage 0 lies on
    wires i and j (nonzero when the block sits downstream of others).
    The taps are read off f's set bits, lowest first: bit k of its mask is
    D^(off + k), so the walk takes one step per tap, whatever f's span.
    The placements are built unchecked: ``kind`` is CNOT or CPHASE, the
    wires are those of a checked gate (i == j only for CPHASE1, whose
    taps are D^e with e >= 1) and ``si``, ``sj`` are not negative.
    """
    out = []
    mask, below = f._mask, f._off - 1
    while mask:
        low = mask & -mask
        mask ^= low
        e = below + low.bit_length()
        out.append(_placement(kind, (i, si + e if e > 0 else si),
                              (j, sj if e > 0 else sj - e)))
    return out


def _closed_run(sec: FiniteSection) -> tuple:
    """``(sec,)``, or ``()`` when ``sec`` has no placements and no depth: a
    run of the layout pass that lays out nothing is no section."""
    return (sec,) if sec.placements or any(sec.depths) else ()


def _cascade_all(blocks, n: int) -> ShiftRegisterCircuit:
    """The cascade of ``blocks`` (gates and sections, in order), laid out in one pass.

    The current run of finite blocks has one depth counter, ``run``, and
    each wire an ``extra`` delay beyond it, so ``run + extra[w - 1]`` is
    wire w's depth so far in the run, which is where the next block's
    stage 0 lies on that wire.  A gate's taps are placed there at once,
    one ``Placement`` per tap (``tap_placements``), and a block of tap
    span d then deepens the run by d; a DELAY deepens only its own wire's
    extra delay.  A CPHASE1 tap D^e (e >= 1) couples (i, e) to (i, 0).
    H and P sit on the incoming frame.  A ``FiniteSection``'s placements
    move down by the wires' depths so far, and its depths, which may
    differ from wire to wire, add to them.  A feedback gate (INF_Z or
    INF_X, which is also how a circuit holds its feedback sections)
    closes the run, which becomes one ``FiniteSection`` unless it has no
    placements and no depth (``_closed_run``), and passes through as it
    is.  Gates with a zero polynomial lay out nothing.
    """
    sections = []
    run, extra, placements = 0, [0] * n, []
    for b in blocks:
        if isinstance(b, Gate):
            check_gate_wires(b, n)
            kind, i = b.kind, b.wires[0]
            if kind in ("INF_Z", "INF_X"):
                sections += _closed_run(_section(tuple([run + x for x in extra]),
                                                 tuple(placements)))
                sections.append(b)
                run, extra, placements = 0, [0] * n, []
            elif kind in ("H", "P"):
                placements.append(_placement(kind, (i, run + extra[i - 1])))
            elif kind == "DELAY":
                extra[i - 1] += b.poly.deg
            elif b.poly:
                j = b.wires[-1]
                placements += tap_placements(
                    "CPHASE" if kind == "CPHASE1" else kind, i, j, b.poly,
                    run + extra[i - 1], run + extra[j - 1])
                run += b.poly.abs_deg
        else:
            offsets = [run + x for x in extra]
            if any(offsets):
                placements.extend(
                    _placement(p.kind, *((w, s + offsets[w - 1]) for w, s in p.slots))
                    for p in b.placements)
            else:
                placements.extend(b.placements)
            run, extra = 0, [o + d for o, d in zip(offsets, b.depths)]
    sections += _closed_run(_section(tuple([run + x for x in extra]), tuple(placements)))
    return _circuit(n, tuple(sections))


def build_from_gate(gate: Gate, n: int) -> ShiftRegisterCircuit:
    """Primitive circuit realizing one elementary gate on n wires.

    CNOT(i,j)(f) and CPHASE(i,j)(f) are delay-line blocks of abs_deg(f)
    frames, CPHASE1 a same-wire block of deg(f) frames, H and P
    memoryless, DELAY l cells on its wire only, and INF_Z / INF_X a
    feedback block.
    """
    return _cascade_all((gate,), n)


def cascade(c1: ShiftRegisterCircuit, c2: ShiftRegisterCircuit) -> ShiftRegisterCircuit:
    """Connect the outputs of ``c1`` to the inputs of ``c2``."""
    if c1.n != c2.n:
        raise ValueError(f"wire-count mismatch: {c1.n} vs {c2.n}")
    return _cascade_all(c1.sections + c2.sections, c1.n)


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


# (kind p, kind q, *match) -> commute?  ``match`` gives, for each datum of
# q, the index of the equal datum of p or -1.  Commutation does not depend
# on how the data are labeled, so this pattern decides it; there are a few
# dozen patterns at most.
_COMMUTE_MEMO: dict = {}


def instances_commute(p: Placement, q: Placement, shift: int) -> bool:
    """Do p's cycle-0 instance and q's cycle-``shift`` instance commute?

    Slot (w, s) of p addresses the frame datum (w, -s); slot (w, t) of q
    addresses (w, shift - t), which is p's datum exactly when p has the
    slot (w, t - shift).  Disjoint data always commute.  For overlapping
    instances the answer depends only on the two kinds and on which data
    they share, so it is memoized on that pattern; each pattern is
    decided once by comparing the two orders of the gates' closed-form
    matrices (``_match_commute``).
    """
    a, b = p.a, p.b
    w, t = q.a
    d = (w, t - shift)
    match_a = 0 if d == a else 1 if d == b else -1
    if q.b is None:
        if match_a < 0:
            return True
        key = (p.kind, q.kind, match_a)
    else:
        w, t = q.b
        d = (w, t - shift)
        match_b = 0 if d == a else 1 if d == b else -1
        if match_a < 0 and match_b < 0:
            return True
        key = (p.kind, q.kind, match_a, match_b)
    found = _COMMUTE_MEMO.get(key)
    if found is None:
        found = _COMMUTE_MEMO[key] = _match_commute(p.kind, q.kind, key[2:])
    return found


def check_schedule(section: FiniteSection) -> None:
    """Reject schedules whose cross-cycle interleaving breaks the product form.

    The section transformation equals the schedule-ordered product of
    per-placement transfers iff every pair (P before Q) whose instances
    overlap with Q executing at an earlier cycle commutes at that
    alignment.  Overlap at a negative alignment happens exactly when Q
    references a shallower stage t than P's stage s on a shared wire, so
    each wire keeps the (index, stage) of the slots placed on it so far,
    and only the pairs with t < s are looked up.  On failure the lowest
    crossing pair (P's index first, then Q's) is reported.
    """
    pls = section.placements
    earlier = {}  # wire -> [(index, stage)] of the slots placed so far
    lowest = None  # (i, j) of the lowest crossing pair found so far
    for j, q in enumerate(pls):
        for w, t in q.slots:
            for i, s in earlier.get(w, ()):
                if (t < s and (lowest is None or i < lowest[0])
                        and not instances_commute(pls[i], q, t - s)):
                    lowest = (i, j)
        for w, t in q.slots:
            earlier.setdefault(w, []).append((j, t))
    if lowest is not None:
        p, q = pls[lowest[0]], pls[lowest[1]]
        raise ValueError(f"schedule has an acausal crossing between {p} and {q}")


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
    if isinstance(sec, Gate):
        return [sec]
    check_schedule(sec)
    gates = [_placement_gate(p) for p in sec.placements]
    # per-wire output delay applied on the output side
    gates.extend(Gate("DELAY", (w,), LaurentPoly.monomial(d))
                 for w, d in enumerate(sec.depths, start=1) if d)
    return gates


def latency_exponent(c: ShiftRegisterCircuit, absolute) -> int:
    """The latency of ``c`` read off its absolute transfer ``absolute``:
    the smallest series exponent for circuits with feedback blocks, else
    the global exponent minimizing the absolute degree (smallest on ties).
    """
    return absolute.min_delay() if c.has_feedback else absolute.latency_shift()


def circuit_transfer(c: ShiftRegisterCircuit):
    """Exact transfer matrix and latency exponent of the circuit.

    Returns (matrix, latency): the absolute transfer equals matrix *
    D^latency, with the latency from ``latency_exponent``.
    """
    t = apply_gates([g for sec in c.sections for g in _section_gates(sec)], c.n)
    lat = latency_exponent(c, t)
    return t.shifted(-lat), lat


# ---------------------------------------------------------------------------
# Text format


def circuit_to_text(c: ShiftRegisterCircuit) -> str:
    matrix, lat = circuit_transfer(c)
    lines = [f"n {c.n}", f"frames {c.m}", f"latency {lat}"]
    for sec in c.sections:
        if isinstance(sec, Gate):
            lines.append(f"ffb {sec.kind[-1]} wire={sec.wires[0]} f={sec.poly}")
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


def _parse_slot(kv: dict, key: str):
    """The slot ``(wire, stage)`` that field ``key`` writes as ``wire@stage``."""
    wire, at, stage = kv[key].partition("@")
    if not at:
        raise ParseError(f"slot {key + '=' + kv[key]!r} has no '@'")
    return (read_int(wire, "wire"), read_int(stage, "stage"))


def circuit_from_text(text: str, declared: dict | None = None) -> ShiftRegisterCircuit:
    """The circuit of ``circuit_to_text``'s format, every line checked as it is read.

    A declared ``frames`` line must match the circuit.  A declared
    ``latency`` is not checked here, since that takes the circuit's
    transfer; when ``declared`` is an empty dict, it receives both lines
    as "frames" or "latency" -> (value, line number), so that a caller
    that computes the transfer anyway can check the latency against it
    (``qshift verify`` does).
    """
    n, lines = read_header(text)
    declared = {} if declared is None else declared  # "frames" or "latency" -> (value, line)
    sections = []
    depths = None
    placements = []
    section_line = None
    finite = []  # (line of the section header, section)

    def flush():
        # each gate line passed _check_slots and the section line the depth check
        nonlocal depths, placements
        if depths is not None:
            sections.append(_section(tuple(depths), tuple(placements)))
            finite.append((section_line, sections[-1]))
            depths, placements = None, []

    for lineno, line in lines:
        try:
            head, _, rest = line.partition(" ")
            if head in ("frames", "latency"):
                if head in declared:
                    raise ParseError(f"repeated {head!r} line (first on line "
                                     f"{declared[head][1]})")
                declared[head] = (read_int(rest, head, signed=head == "latency"), lineno)
            elif head == "section":
                flush()
                if not rest.startswith("depths="):
                    raise ParseError("section line needs depths=")
                # a negative depth is read, to be named as such
                depths = [read_int(v, "depth", signed=True)
                          for v in rest[len("depths="):].split(",")]
                if any(d < 0 for d in depths):
                    raise ParseError("negative pipeline depth")
                placements = []
                section_line = lineno
            elif head == "gate":
                if depths is None:
                    raise ParseError("gate line outside a section")
                fields = rest.split()
                if not fields:
                    raise ParseError("gate line has no kind")
                kind = fields[0]
                kv = read_fields(fields[1:], _ONE_SLOT_FIELDS if kind in ("H", "P")
                                 else _GATE_FIELDS)
                a = _parse_slot(kv, "a")
                b = _parse_slot(kv, "b") if "b" in kv else None
                p = Placement(kind, a, b)
                if "s" in kv and read_int(kv["s"], "stage") != max(s for _, s in p.slots):
                    raise ParseError("stage field disagrees with slots")
                if "f" in kv and b is not None:
                    # the writer's spelling of the tap needs no parse
                    tap = a[1] - b[1]
                    if (kv["f"] != _term_text(tap)
                            and parse_poly(kv["f"]) != LaurentPoly.monomial(tap)):
                        raise ParseError("tap polynomial disagrees with slots")
                _check_slots(p, depths)
                placements.append(p)
            elif head == "ffb":
                flush()
                fields = rest.split()
                if not fields:
                    raise ParseError("ffb line has no kind")
                kind = fields[0]
                kv = read_fields(fields[1:], _FEEDBACK_FIELDS)
                wire, f = read_int(kv["wire"], "wire"), parse_poly(kv["f"])
                # ValueError, so that both refusals read as malformed lines
                if kind not in ("Z", "X"):
                    raise ValueError("feedback kind must be 'Z' or 'X'")
                if wire < 1:
                    raise ValueError(f"bad feedback wire {wire}; wires are numbered from 1")
                sections.append(Gate("INF_" + kind, (wire,), f))
                if wire > n:
                    raise ParseError(f"feedback wire {wire} of {n}")
            else:
                raise ParseError(f"unrecognized line {line!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
        except KeyError as exc:  # a field that the line's kind needs
            raise ParseError(f"line {lineno}: missing field {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed circuit line {line!r}: {exc}") from exc
    flush()
    for lineno, sec in finite:  # circuit_to_text writes only causal schedules
        try:
            if len(sec.depths) != n:
                raise ValueError(f"section has {len(sec.depths)} depths for {n} wires")
            check_schedule(sec)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    # every section and ffb line was checked where it was read
    c = _circuit(n, tuple(sections))
    if "frames" in declared and declared["frames"][0] != c.m:
        frames, lineno = declared["frames"]
        raise ParseError(f"line {lineno}: declared frames {frames} but circuit has {c.m}")
    return c
