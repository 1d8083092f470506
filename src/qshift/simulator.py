"""Clocked, bit-exact Pauli propagation through a shift register circuit.

The simulator interprets the circuit IR directly from the per-cycle
update rules (CNOT a->b: x_b ^= x_a, z_a ^= z_b; CPHASE: z_a ^= x_b,
z_b ^= x_a; H swaps z and x; P: z ^= x; feedback blocks run their fixed
recursions).  It shares no algebra with the symbolic transfer
computation, so impulse responses provide an independent check of every
closed-form matrix.  Every rule is an XOR or a swap, so one int can
carry many independent frames as its bits (lanes).

Checked once.  ``step``, the public one-cycle call, checks its frame's
width and lane masks and then advances the cells through ``_step``.
``run`` and ``impulse_response`` check their arguments once, and their
frames (stream columns, impulse lanes, quiet frames) are built here, so
``_output_masks`` steps them through ``_step`` without checking them
again; ``impulse_response`` builds its matrices from the lane masks
through the unchecked ``symplectic._symp``.

One decoder.  ``run`` and ``impulse_response`` both step the circuit
through ``_output_masks``, which decodes every output frame into one
bit mask per lane and output column: bit t of lane k's mask for column
z_w or x_w is that lane's output there at cycle t.  ``run`` is the
one-lane case.  ``impulse_response`` runs its 2n impulses as 2n lanes
and reads two ``horizon insufficient`` verdicts off the masks: output
in the settling window past the horizon (late), and no output at all
through the horizon (empty).

Replay rule.  Once the input has gone quiet, the next state and output
of a cycle depend on the state alone, so the simulator is a
deterministic finite-state machine.  If the state after cycle t equals
the state after an earlier cycle t0 (both at or past the last input
cycle), every later output repeats the outputs of cycles t0+1..t with
period t - t0.  The decoder therefore steps only until the state
repeats; the drained all-zero state of a finite-depth circuit is the
period-1 case.  States are recorded from the last input cycle plus the
summed depth of the finite sections on, when the input has left every
one of them; any later start is as exact and at most costs cycles.
Each mask is then extended by repeating the bits of its last period
through the window rather than frame by frame.  The rule reads the
simulator's own state and nothing of the symbolic transfer.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass

from .gf2poly import MAX_SPAN, LaurentPoly, ParseError, ZERO, _poly
from .circuit import FiniteSection, ShiftRegisterCircuit, latency_exponent
from .symplectic import Gate, _symp, read_fields, read_header, read_int

MAX_MEMORY_FRAMES = 10_000  # largest circuit memory m the simulator accepts
MAX_CYCLES = MAX_SPAN  # most cycles one simulation may cover: horizon plus settle margin
# a long-period feedback circuit may not repeat within the run: past this many
# bytes of recorded states, stop looking for a repeat and step plainly
_SNAPSHOT_BYTES = 1 << 25
_FRAME_FIELDS = frozenset(("n", "z", "x"))  # the fields of a stream frame line


def reset_state(c: ShiftRegisterCircuit) -> list:
    """All-zero cells (the identity Pauli), one list per section.

    A finite section keeps, per wire, its cells as [z, x] pairs, newest
    first; a feedback section keeps its ``poly.deg`` cells as [z, x]
    pairs.  A circuit above MAX_MEMORY_FRAMES is refused first.
    """
    _check_size(c, 0)
    parts = []
    for sec in c.sections:
        if isinstance(sec, FiniteSection):
            parts.append([[[0, 0] for _ in range(d)] for d in sec.depths])
        else:
            parts.append([[0, 0] for _ in range(sec.poly.deg)])
    return parts


def _run_placements(placements, cells) -> None:
    """Apply each placement's XOR rule once, in schedule order.

    ``cells[w - 1][s]`` is the [z, x] pair of slot (w, s); it is updated
    in place.  A wire's cells may be a list over every stage (``step``)
    or a dict that holds the pairs of the slots the placements touch
    (``responds_at_once``).
    """
    for p in placements:
        wa, sa = p.a
        a = cells[wa - 1][sa]
        if p.kind == "H":
            a[0], a[1] = a[1], a[0]
        elif p.kind == "P":
            a[0] ^= a[1]
        else:
            wb, sb = p.b
            b = cells[wb - 1][sb]
            if p.kind == "CNOT":
                b[1] ^= a[1]
                a[0] ^= b[0]
            else:  # CPHASE
                a[0] ^= b[1]
                b[0] ^= a[1]


def _step_finite(sec: FiniteSection, cells, frame):
    # Each wire's cells rotate in place: the input enters as slot 0, and
    # slot ``depth`` leaves the wire once the placements have run.
    for regs, (z, x) in zip(cells, frame):
        regs.insert(0, [z, x])
    _run_placements(sec.placements, cells)
    return [tuple(regs.pop()) for regs in cells]


def _step_feedback(sec: Gate, cells, frame):
    m = sec.poly.deg
    f = sec.poly._mask  # delay 0, so bit i is the tap f_i
    w = sec.wires[0] - 1
    z_in, x_in = frame[w]
    prev = [cell[:] for cell in cells]  # recursions read last cycle's state

    if sec.kind == "INF_Z":
        ff_in, fb_in = x_in, z_in
        ff, fb = 1, 0  # feedforward updates the x component
    else:
        ff_in, fb_in = z_in, x_in
        ff, fb = 0, 1

    # feedforward side: out = m_M + in (f_0 = 1 at delay 0); cell_i collects f_{M-i+1} * in
    ff_out = prev[m - 1][ff] ^ ff_in
    cells[0][ff] = ff_in
    for i in range(2, m + 1):
        tap = ff_in if f >> (m - i + 1) & 1 else 0
        cells[i - 1][ff] = prev[i - 2][ff] ^ tap
    # feedback side: out = m_M; cell_1 = in + sum_{i<M} f_i * m_{M-i}
    fb_out = prev[m - 1][fb]
    acc = fb_in
    for i in range(m):
        if f >> i & 1:
            acc ^= prev[m - i - 1][fb]
    cells[0][fb] = acc
    for i in range(2, m + 1):
        cells[i - 1][fb] = prev[i - 2][fb]

    out = list(frame)
    out[w] = (fb_out, ff_out) if sec.kind == "INF_Z" else (ff_out, fb_out)
    return out


def step(c: ShiftRegisterCircuit, state: list, frame_in):
    """Advance one cycle; returns the output frame.

    ``frame_in`` is a length-n sequence of (z, x) pairs.  Each z/x value
    is a lane mask, a non-negative int; bit k is lane k, and lanes are
    independent Pauli frames that share the pass (a 0/1 frame is the
    one-lane case).  The frame flows through every section within the
    cycle.  ``state``, the cell lists of ``reset_state``, is updated in
    place.  The frame is checked here, then stepped by ``_step``.
    """
    if len(frame_in) != c.n:
        raise ValueError(f"frame width {len(frame_in)} != {c.n}")
    frame = [(int(z), int(x)) for z, x in frame_in]
    for z, x in frame:
        if z < 0 or x < 0:
            raise ValueError(f"negative lane mask in frame {frame}")
    return _step(c.sections, state, frame)


def _step(sections, state: list, frame):
    """``step`` without its checks: ``frame`` holds n pairs of non-negative ints."""
    for sec, cells in zip(sections, state):
        if isinstance(sec, FiniteSection):
            frame = _step_finite(sec, cells, frame)
        else:
            frame = _step_feedback(sec, cells, frame)
    return frame


def responds_at_once(c: ShiftRegisterCircuit) -> bool:
    """Does some unit impulse at cycle 0 leave the circuit in cycle 0?

    Equivalently, the circuit's absolute transfer has a D^0 term.  All
    2n impulses run as bit lanes (the ``impulse_response`` convention)
    through one cycle from the reset state.  A finite section keeps
    cells only for the slots its placements touch and for the incoming
    frame, so the test needs no cell per memory frame and takes any m;
    it does not go through ``step``.  A feedback block at rest passes
    its feedforward side at once (its tap f_0 is 1) and nothing of its
    feedback side.
    """
    n = c.n
    frame = [(1 << w, 1 << (n + w)) for w in range(n)]
    for sec in c.sections:
        if isinstance(sec, FiniteSection):
            cells = [{} for _ in range(n)]
            for p in sec.placements:
                for w, s in p.slots:
                    cells[w - 1][s] = [0, 0]
            for regs, (z, x) in zip(cells, frame):
                regs[0] = [z, x]
            _run_placements(sec.placements, cells)
            frame = [tuple(regs.get(d, (0, 0))) for regs, d in zip(cells, sec.depths)]
        else:
            z, x = frame[sec.wires[0] - 1]
            frame[sec.wires[0] - 1] = (0, x) if sec.kind == "INF_Z" else (z, 0)
    return any(z or x for z, x in frame)


@dataclass(frozen=True)
class PauliStream:
    """Per-wire z and x bit sequences as Laurent polynomials in D."""

    zs: tuple
    xs: tuple

    def __post_init__(self):
        if len(self.zs) != len(self.xs):
            raise ValueError("z and x parts disagree on wire count")
        object.__setattr__(self, "zs", tuple(self.zs))
        object.__setattr__(self, "xs", tuple(self.xs))

    @property
    def n(self) -> int:
        return len(self.zs)

    @classmethod
    def zero(cls, n: int) -> "PauliStream":
        return cls((ZERO,) * n, (ZERO,) * n)

    @classmethod
    def impulse(cls, n: int, wire: int, kind: str) -> "PauliStream":
        zs = [ZERO] * n
        xs = [ZERO] * n
        one = LaurentPoly.monomial(0)
        if kind == "Z":
            zs[wire - 1] = one
        else:
            xs[wire - 1] = one
        return cls(zs, xs)

    @property
    def max_exp(self) -> int:
        exps = [p.deg for p in self.zs + self.xs if p]
        return max(exps, default=0)

    def _columns(self, lo: int, hi: int):
        """Per cycle lo..hi, the bits of zs then xs as '0'/'1' characters.

        Each part's terms are read once; a ``coeff`` per cycle and part
        would shift the whole mask each time.
        """
        rows = []
        for p in self.zs + self.xs:
            row = bytearray(b"0" * (hi - lo + 1))
            for t in p.terms:
                if lo <= t <= hi:
                    row[t - lo] = 49  # "1"
            rows.append(row.decode())
        return zip(*rows)

    def to_text(self) -> str:
        """``n <wires>`` and one ``n=<cycle> z=<bits> x=<bits>`` line per frame with a 1.

        Frames before cycle 0 are written too, and ``from_text`` reads them
        back; only ``run`` requires a stream to start at cycle 0.
        """
        lines = [f"n {self.n}"]
        if any(self.zs) or any(self.xs):
            lo = min(0, min(p.delay for p in self.zs + self.xs if p))
            for t, col in enumerate(self._columns(lo, self.max_exp), start=lo):
                if "1" in col:
                    bits = "".join(col)
                    lines.append(f"n={t} z={bits[:self.n]} x={bits[self.n:]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PauliStream":
        n, lines = read_header(text)
        zs = [set() for _ in range(n)]
        xs = [set() for _ in range(n)]
        first = last = None  # lowest and highest frame with a 1 bit
        seen = {}  # cycle -> line of its frame
        for lineno, line in lines:
            if line.startswith("n="):
                try:
                    kv = read_fields(line.split(), _FRAME_FIELDS)
                except ParseError as exc:  # an unknown or repeated field
                    raise ParseError(f"line {lineno}: {exc}") from exc
                try:
                    t = read_int(kv["n"], "cycle", signed=True)
                    zbits, xbits = kv["z"], kv["x"]
                except (KeyError, ParseError) as exc:
                    raise ParseError(f"line {lineno}: malformed frame line") from exc
                if seen.setdefault(t, lineno) != lineno:
                    raise ParseError(f"line {lineno}: repeated frame 'n={t}' "
                                     f"(first on line {seen[t]})")
                if len(zbits) != n or len(xbits) != n:
                    raise ParseError(f"line {lineno}: expected {n} bits per field")
                for w in range(n):
                    if zbits[w] == "1":
                        zs[w].add(t)
                    elif zbits[w] != "0":
                        raise ParseError(f"line {lineno}: bad bit {zbits[w]!r}")
                    if xbits[w] == "1":
                        xs[w].add(t)
                    elif xbits[w] != "0":
                        raise ParseError(f"line {lineno}: bad bit {xbits[w]!r}")
                if "1" in zbits or "1" in xbits:
                    # the span of every entry is at most the stream's
                    if first is None:
                        first = last = t
                    elif t > last:
                        last = t
                    elif t < first:
                        first = t
                    if last - first > MAX_SPAN:
                        raise ParseError(
                            f"line {lineno}: stream span {last - first} exceeds the "
                            f"limit of {MAX_SPAN} (MAX_SPAN)")
                continue
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
        return cls(tuple(LaurentPoly(s) for s in zs), tuple(LaurentPoly(s) for s in xs))


def _check_size(c: ShiftRegisterCircuit, cycles: int) -> None:
    """Refuse a simulation past the size limits before allocating any of it."""
    if c.m > MAX_MEMORY_FRAMES:
        raise ValueError(f"circuit memory of {c.m} frames exceeds the simulator "
                         f"limit of {MAX_MEMORY_FRAMES} (MAX_MEMORY_FRAMES)")
    if cycles > MAX_CYCLES:
        raise ValueError(f"simulating {cycles} cycles exceeds the simulator "
                         f"limit of {MAX_CYCLES} (MAX_CYCLES)")


def _output_masks(c: ShiftRegisterCircuit, inputs, cycles: int, lanes: int):
    """Step up to ``cycles`` cycles from a reset state; return (stepped, period, masks).

    Cycle t is fed ``inputs[t]`` while there is one and a quiet frame
    after.  Bit t of ``masks[k][col]`` is lane k of output column col at
    cycle t, the columns being z1..zn, x1..xn.  The state after each cycle
    is recorded from the last input cycle plus the summed depth of the
    finite sections on, when the input has left every one of them.  On
    the first repeated state stepping stops: cycles 0 .. ``stepped`` - 1
    were stepped, the outputs repeat with ``period`` (module docstring),
    and the bits of the last period are repeated through cycle
    ``cycles`` - 1.  ``period`` is 0 when all ``cycles`` were stepped.
    """
    n = c.n
    masks = [[0] * (2 * n) for _ in range(lanes)]
    state = reset_state(c)
    quiet = [(0, 0)] * n
    start = len(inputs) - 1 + sum(sec.m for sec in c.sections if isinstance(sec, FiniteSection))
    seen = {}  # recorded state -> cycle after which it held
    room = _SNAPSHOT_BYTES
    for t in range(cycles):
        frame = _step(c.sections, state, inputs[t] if t < len(inputs) else quiet)
        bit = 1 << t
        for w, (z, x) in enumerate(frame):
            while z:
                low = z & -z
                masks[low.bit_length() - 1][w] |= bit
                z ^= low
            while x:
                low = x & -x
                masks[low.bit_length() - 1][n + w] |= bit
                x ^= low
        if t < start or room <= 0:
            continue
        # version 2 writes no object references, so equal states give equal bytes
        key = marshal.dumps(state, 2)
        t0 = seen.setdefault(key, t)
        if t0 == t:
            room -= len(key)
            continue
        masks = [[_extend(m, t + 1, t - t0, cycles) for m in row] for row in masks]
        return t + 1, t - t0, masks
    return cycles, 0, masks


def _extend(mask: int, stepped: int, period: int, end: int) -> int:
    """``mask`` with the bits of its last stepped period repeated through bit ``end - 1``.

    ``mask`` has no bit at ``stepped`` or above; the period is bits
    ``stepped - period`` .. ``stepped - 1``.  Each pass doubles the run.
    """
    start = stepped - period
    bits = mask >> start
    if not bits:
        return mask
    width = period
    while width < end - start:
        bits |= bits << width
        width *= 2
    return mask | (bits & ((1 << (end - start)) - 1)) << start


def run(c: ShiftRegisterCircuit, stream: PauliStream, horizon: int) -> PauliStream:
    """Feed the stream from a reset state and collect outputs at cycles 0..horizon.

    The stream is the one lane of ``_output_masks``: cycles are simulated
    only until the state after the last input cycle repeats, and the bits
    of the repeating block are repeated through the horizon (module
    docstring).
    """
    if stream.n != c.n:
        raise ValueError("stream width mismatch")
    first = min((p.delay for p in stream.zs + stream.xs if p), default=0)
    if first < 0:
        raise ValueError(f"stream has a frame at cycle {first}; "
                         "a simulated stream starts at cycle 0")
    if horizon < stream.max_exp:
        raise ValueError("horizon must cover the input stream support")
    _check_size(c, horizon + 1)
    n = c.n
    # inputs[t]: the (z, x) bits of every wire at cycle t
    inputs = [[(int(z), int(x)) for z, x in zip(col[:n], col[n:])]
              for col in stream._columns(0, stream.max_exp)]
    _, _, (out,) = _output_masks(c, inputs, horizon + 1, 1)
    return PauliStream(tuple(_poly(m, 0) for m in out[:n]),
                       tuple(_poly(m, 0) for m in out[n:]))


def _settle_margin(c: ShiftRegisterCircuit) -> int:
    """Quiet cycles that ``impulse_response`` steps past the horizon, without feedback."""
    return 2 * sum(sum(sec.depths) for sec in c.sections) + len(c.sections) + 2


def recommended_horizon(c: ShiftRegisterCircuit) -> int:
    """Safely past all finite-depth taps: 4 (M + max tap degree) + 8."""
    return 4 * (c.m + c.max_tap_degree) + 8


def impulse_response(c: ShiftRegisterCircuit, horizon: int):
    """Empirical transfer matrix from per-wire Z and X unit impulses.

    Returns (latency, matrix) where the observed absolute response equals
    matrix * D^latency, truncated at the horizon, with the latency from
    ``circuit.latency_exponent``.  All 2n impulses run in one pass as the
    lanes of ``_output_masks``: lane k carries Z on wire k+1 for k < n and
    X on wire k-n+1 for k >= n, and row k of the matrix is lane k's masks.
    Two verdicts are read off the masks, in this order, each raising
    ``horizon insufficient``:

    - late: a finite-depth circuit is also stepped through a quiet
      settling window past the horizon, and output there names the first
      late cycle of the lowest late lane, i.e. of the first late impulse
      in Z1..Zn, X1..Xn order.  Only a finite section that never drains,
      such as an acausal schedule built through the API, needs the
      window's repeated bits; a causal one goes quiet.
    - empty: no output at all through the horizon.  A symplectic transfer
      has no zero row, so this fires exactly when the horizon is below a
      feedback circuit's first output.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    n = c.n
    cycles = horizon + 1 + (0 if c.has_feedback else _settle_margin(c))
    _check_size(c, cycles)
    impulses = [(1 << w, 1 << (n + w)) for w in range(n)]
    _, _, masks = _output_masks(c, [impulses], cycles, 2 * n)
    for row in masks:
        late = 0
        for m in row:
            late |= m >> (horizon + 1)
        if late:
            raise ValueError("horizon insufficient: output active at cycle "
                             f"{horizon + (late & -late).bit_length()}")
    if not any(any(row) for row in masks):
        raise ValueError(f"horizon insufficient: no output through cycle {horizon}")
    # every row has 2n masks, so both matrices are built unchecked
    absolute = _symp(n, [[_poly(m, 0) if m else ZERO for m in row] for row in masks])
    lat = latency_exponent(c, absolute)
    return lat, _symp(n, [[_poly(m, -lat) if m else ZERO for m in row] for row in masks])

