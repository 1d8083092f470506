"""Encoder synthesis: Smith decomposition, the CSS encoder pipeline,
memory reduction by commuting gates through memory, and memory bounds.

The encoder turns a dual-containing CSS check-matrix pair into a
sequence of CNOT-type elementary operations (column operations on the X
side, conjugate column operations on the Z side) and compiles each into
a delay-line block.  Reduction schedules every gate at its earliest
legal pipeline stage in one pass, cancels identical gate pairs, and
deletes memory frames that no gate touches; compilation additionally tries
equivalent re-decompositions of the same product and keeps the circuit
with the fewest frames.  A tap-span floor on the reduced memory lets it
skip candidates that cannot beat the best one so far, and a causal floor
(the largest advance in the gate product) ends the search as soon as a
candidate reaches it, usually at the gates as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .gf2poly import (
    LaurentPoly,
    ONE,
    ZERO,
    ParseError,
    content_lines,
    poly_divmod,
)
from .symplectic import (
    Gate,
    StabilizerMatrix,
    SympMatrix,
    apply_gates,
    check_wire_count,
    dual_containing,
    gates_commute,
    pairing,
    parse_gate,
)
from .circuit import (
    FiniteSection,
    ShiftRegisterCircuit,
    _canonical_sections,
    _cascade_all,
    _wire_users,
    check_schedule,
    instances_commute,
    tap_placements,
)


class SynthesisError(ValueError):
    """Input rejected by the encoder pipeline."""


class NotDualContaining(SynthesisError):
    pass


class CatastrophicCode(SynthesisError):
    pass


# ---------------------------------------------------------------------------
# Polynomial matrices (plain lists of LaurentPoly rows)


def _pmat_identity(k):
    return [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]


# ---------------------------------------------------------------------------
# Smith normal form over GF(2)[D]


@dataclass(frozen=True)
class ElemOp:
    """Elementary operation: add (dst += f * src) or swap of rows/columns."""

    kind: str
    src: int
    dst: int
    f: LaurentPoly | None = None


@dataclass(frozen=True)
class SmithDecomposition:
    """a . s . b == original matrix shifted by D^monomial_shift.

    ``a`` and ``b`` are unimodular accumulations of the row and column
    operations; ``b`` equals the recorded column operations multiplied
    in reverse order, so applying ``col_ops`` in recorded order realizes
    b^-1.
    """

    a: tuple
    s: tuple
    b: tuple
    col_ops: tuple
    monomial_shift: int = 0

    @property
    def diagonal(self):
        return tuple(self.s[i][i] for i in range(min(len(self.s), len(self.s[0]))))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def smith_normal_form(matrix) -> SmithDecomposition:
    """Diagonalize a polynomial matrix with recorded elementary operations.

    Pivots are the nonzero entries of minimal degree (ties broken by
    lowest (row, col)); diagonal entries divide successively.  A global
    monomial is factored out first when Laurent entries appear.
    """
    rows = [list(r) for r in matrix]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if nr == 0 or nc == 0:
        raise ValueError("empty matrix")
    dels = [e.delay for r in rows for e in r if e]
    shift = 0
    if dels and min(dels) < 0:
        shift = -min(dels)
        rows = [[e.shift(shift) for e in r] for r in rows]

    a = _pmat_identity(nr)
    b = _pmat_identity(nc)
    col_ops = []

    # the adds skip zero operands: x + f * 0 is x
    def row_add(dst, src, f):
        rd, rs = rows[dst], rows[src]
        for j in range(nc):
            if rs[j]:
                rd[j] = rd[j] + f * rs[j]
        for r in a:
            if r[dst]:
                r[src] = r[src] + f * r[dst]

    def row_swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        for r in a:
            r[i], r[j] = r[j], r[i]

    def col_add(dst, src, f):
        for r in rows:
            if r[src]:
                r[dst] = r[dst] + f * r[src]
        bs, bd = b[src], b[dst]
        for j in range(nc):
            if bd[j]:
                bs[j] = bs[j] + f * bd[j]
        col_ops.append(ElemOp("add", src, dst, f))

    def col_swap(i, j):
        for r in rows:
            r[i], r[j] = r[j], r[i]
        b[i], b[j] = b[j], b[i]
        col_ops.append(ElemOp("swap", i, j))

    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if rows[i][j]:
                    d = rows[i][j].deg
                    if best is None or d < best[0]:
                        best = (d, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            restarted = False
            for i in range(nr):
                if i != t and rows[i][t]:
                    q, _ = poly_divmod(rows[i][t], rows[t][t])
                    if q:
                        row_add(i, t, q)
                    if rows[i][t]:
                        row_swap(t, i)  # remainder has smaller degree
                        restarted = True
                        break
            if restarted:
                continue
            for j in range(nc):
                if j != t and rows[t][j]:
                    q, _ = poly_divmod(rows[t][j], rows[t][t])
                    if q:
                        col_add(j, t, q)
                    if rows[t][j]:
                        col_swap(t, j)
                        restarted = True
                        break
            if restarted:
                continue
            break
        # successive divisibility of invariant factors
        culprit = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if rows[i][j] and poly_divmod(rows[i][j], rows[t][t])[1]:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            row_add(t, culprit, ONE)
            continue
        t += 1

    return SmithDecomposition(
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in rows),
        tuple(tuple(r) for r in b),
        tuple(col_ops),
        shift,
    )


# ---------------------------------------------------------------------------
# CSS encoder


@dataclass(frozen=True)
class EncoderPlan:
    """Encoding gate sequence with its overall transformation matrix.

    ``b_overall`` is the ordered product of the closed-form matrices of
    ``ops``, and ``memory_bound`` its absolute degree.
    """

    n: int
    ops: tuple
    b_overall: SympMatrix
    memory_bound: int
    target: StabilizerMatrix

    def circuit(self) -> ShiftRegisterCircuit:
        return compile_sequence(list(self.ops), self.n, transfer=self.b_overall)


def _x_col_op_gates(op: ElemOp, offset: int):
    """CNOT gates whose X-side column action realizes ``op``."""
    i = op.src + offset + 1
    j = op.dst + offset + 1
    if op.kind == "add":
        if not op.f:
            return []
        return [Gate("CNOT", (i, j), op.f)]
    return [Gate("CNOT", (i, j), ONE), Gate("CNOT", (j, i), ONE),
            Gate("CNOT", (i, j), ONE)]


def _z_col_op_gates(op: ElemOp, offset: int):
    """CNOT gates whose Z-side column action realizes ``op``."""
    i = op.src + offset + 1
    j = op.dst + offset + 1
    if op.kind == "add":
        if not op.f:
            return []
        return [Gate("CNOT", (j, i), op.f.subst_inv())]
    return [Gate("CNOT", (j, i), ONE), Gate("CNOT", (i, j), ONE),
            Gate("CNOT", (j, i), ONE)]


def _normalize_row(row):
    dels = [e.delay for e in row if e]
    if dels and min(dels) != 0:
        return [e.shift(-min(dels)) for e in row]
    return list(row)


def css_encoder(hx, hz) -> EncoderPlan:
    """CNOT-only encoder plan for a dual-containing CSS check-matrix pair.

    ``hx`` holds the X-type generator rows and ``hz`` the Z-type rows.
    Smith decompositions of the two phases yield elementary column
    operations (reversed, they decode the code back to fresh ancillas);
    the returned plan's gates, applied in order to the unencoded
    stabilizer, produce a stabilizer row-space equivalent to the code.
    The plan's encoding matrix is the ordered product of those gates.
    """
    hx = [list(r) for r in hx]
    hz = [list(r) for r in hz]
    if not hx and not hz:
        raise SynthesisError("no check rows")
    widths = {len(r) for r in hx + hz}
    if len(widths) != 1:
        raise SynthesisError("check matrix rows disagree on width")
    n = widths.pop()
    s_x, s_z = len(hx), len(hz)
    for r in hx + hz:
        for e in r:
            if e and e.delay < 0:
                raise SynthesisError("check matrices must be delay-free (no D^-k)")
    if not dual_containing(hx, hz):
        raise NotDualContaining(
            "H1(D) . H2^T(D^-1) != 0: check matrices are not dual-containing")
    if s_x + s_z > n:
        raise SynthesisError(f"{s_x}+{s_z} generators exceed {n} qubits")

    decode_ops = []
    if s_x:
        sm_x = smith_normal_form(hx)
        if sm_x.rank != s_x:
            raise SynthesisError("X check rows are linearly dependent")
        if any(d != ONE for d in sm_x.diagonal):
            raise CatastrophicCode(
                "X check matrix is catastrophic (Smith diagonal not all 1)")
        for op in sm_x.col_ops:
            decode_ops.extend(_x_col_op_gates(op, 0))
        h_til = sm_x.b[s_x:]  # rows below the X check image
    else:
        h_til = _pmat_identity(n)

    if s_z:
        hhat = [_normalize_row(r) for r in pairing(hz, h_til)]
        sm_h = smith_normal_form(hhat)
        # the pairing with the unimodular b is injective, so rank(hhat) = rank(hz)
        if sm_h.rank != s_z:
            raise SynthesisError("Z check rows are linearly dependent")
        if any(d != ONE for d in sm_h.diagonal):
            raise CatastrophicCode(
                "Z check matrix is catastrophic (Smith diagonal not all 1)")
        for op in sm_h.col_ops:
            decode_ops.extend(_z_col_op_gates(op, s_x))

    # every CNOT-type elementary gate is self-inverse over GF(2)
    encode_ops = tuple(reversed(decode_ops))
    b_overall = sequence_transfer(encode_ops, n)
    return EncoderPlan(
        n=n,
        ops=encode_ops,
        b_overall=b_overall,
        memory_bound=b_overall.abs_deg(),
        target=StabilizerMatrix.from_css(hx, hz),
    )


def unencoded_stabilizer(n: int, s_x: int, s_z: int) -> StabilizerMatrix:
    """Fresh-ancilla stabilizer: s_x qubits in |+>, then s_z in |0>."""
    if s_x < 0 or s_z < 0 or s_x + s_z > n:
        raise ValueError(f"cannot place {s_x}+{s_z} ancillas on {n} qubits")
    hx = [[ONE if j == i else ZERO for j in range(n)] for i in range(s_x)]
    hz = [[ONE if j == s_x + i else ZERO for j in range(n)] for i in range(s_z)]
    return StabilizerMatrix.from_css(hx, hz)


# ---------------------------------------------------------------------------
# Memory reduction


def _slot_users(placements) -> dict:
    """slot -> indices of the placements that reference it."""
    users = {}
    for k, p in enumerate(placements):
        for slot in p.slots:
            users.setdefault(slot, []).append(k)
    return users


def _cancel_identical_pair(placements):
    """Drop a pair of equal placements separated only by commuting gates.

    Every placement kind is symplectically involutive, so two instances
    acting on the same slots in the same cycle annihilate when each gate
    scheduled between them commutes with them at zero alignment.
    """
    users = _slot_users(placements)
    copies = {}
    for k, p in enumerate(placements):
        copies.setdefault(p, []).append(k)
    for a, p in enumerate(placements):
        for b in copies[p]:
            if b <= a:
                continue
            # instances at zero alignment overlap only on a shared slot
            if all(instances_commute(p, placements[q], 0)
                   for slot in p.slots for q in users[slot] if a < q < b):
                return [x for i, x in enumerate(placements) if i not in (a, b)]
    return None


def _earliest_stages(placements):
    """Earliest legal stage of every placement, product order fixed.

    Every placement keeps its internal stage offsets (the tap exponent);
    an ordered pair sharing a wire is constrained to read-before-write
    order at that wire exactly when the instances aligned there fail to
    commute, which is the condition ``check_schedule`` tests.  The
    constraints point forward in product order, so one forward pass
    (a longest path) places each placement at its least stage, and so
    every stage at its least value over all legal schedules.

    A placement's base is its lowest stage after the move.  Moving
    placements changes only the alignment at which they are compared:
    with p' = p.moved_down(a) and q' = q.moved_down(b),
    ``instances_commute(p', q', s) == instances_commute(p, q, s + b - a)``,
    so the lookups take the placements as given.  The lookup is pure and
    a base only rises, so a pair's stage bound is computed first and the
    pair is looked up only when that bound would raise the base.
    """
    lows = [min(s for _, s in p.slots) for p in placements]
    bases = [0] * len(placements)
    users = _wire_users(placements)
    for q, pq in enumerate(placements):
        low_q = lows[q]
        for (wq, sq) in pq.slots:
            for p_idx in users[wq]:
                if p_idx >= q:
                    break
                pp = placements[p_idx]
                for (wp, sp) in pp.slots:
                    if wp != wq:
                        continue
                    need = bases[p_idx] + (sp - lows[p_idx]) - (sq - low_q)
                    if need > bases[q] and not instances_commute(pp, pq, sq - sp):
                        bases[q] = need
    return [p.moved_down(low - b) for p, low, b in zip(placements, lows, bases)]


def _reduce_section(sec: FiniteSection) -> FiniteSection:
    placements = list(sec.placements)
    cancelled = True
    while cancelled:
        placements = _earliest_stages(placements)
        cancelled = False
        pair = _cancel_identical_pair(placements)
        while pair is not None:
            placements, cancelled = pair, True
            pair = _cancel_identical_pair(placements)
    # drop the trailing frames no slot references, the same number on every wire
    highest = [0] * len(sec.depths)
    for p in placements:
        for wire, stage in p.slots:
            highest[wire - 1] = max(highest[wire - 1], stage)
    k = min((d - h for d, h in zip(sec.depths, highest)), default=0)
    reduced = FiniteSection(tuple(d - k for d in sec.depths), tuple(placements))
    check_schedule(reduced)
    return reduced


def _span_floor(c: ShiftRegisterCircuit) -> int:
    """Lower bound on ``reduce_memory(c).m``, read off the placements.

    Scheduling moves a placement whole, so it keeps the span between its
    two stages, and cancellation drops only pairs of equal placements.
    A shape (kind and slots relative to its lowest stage) that occurs an
    odd number of times therefore leaves a survivor, and the reduced
    section holds its span.  Sections after the first are not reduced.
    """
    sections = c.sections
    if not sections or not isinstance(sections[0], FiniteSection):
        return c.m
    odd = set()
    for p in sections[0].placements:
        if p.b is not None:
            (wa, sa), (wb, sb) = p.a, p.b
            low = min(sa, sb)
            odd ^= {(p.kind, wa, sa - low, wb, sb - low)}
    floor = max((sa + sb for _, _, sa, _, sb in odd), default=0)
    return floor + sum(sec.m for sec in sections[1:])


def reduce_memory(c: ShiftRegisterCircuit) -> ShiftRegisterCircuit:
    """Commute gates toward the input and delete untouched trailing frames.

    Every placement moves to its earliest legal stage
    (``_earliest_stages``); identical pairs with only commuting gates
    between them cancel, and the two steps repeat until nothing
    cancels.  Then every wire drops the same number of trailing frames,
    as many as no slot of any wire reaches (a global delay).  Only
    instances that share a datum are checked (placements indexed by
    slot and by wire), and each check is a lookup in
    ``instances_commute``'s memo.  The input schedule must be causal
    (``check_schedule``).  Gates occurring after a feedback block are
    frozen, so only the leading finite section is reduced.
    """
    sections = list(c.sections)
    if sections and isinstance(sections[0], FiniteSection):
        sections[0] = _reduce_section(sections[0])
    return ShiftRegisterCircuit(c.n, _canonical_sections(tuple(sections)))


# ---------------------------------------------------------------------------
# Sequence compilation and reports


def _gate_is_identity(g: Gate) -> bool:
    return g.kind in ("CNOT", "CPHASE", "CPHASE1", "DELAY") and not g.poly


def _merge_gates(a: Gate, b: Gate):
    """The gates of the product of two same-shape gates, or None.

    The product is one gate, or none at all (``[]``) when it is the
    identity.
    """
    if a.kind != b.kind:
        return None
    if a.kind == "CNOT" and a.wires == b.wires:
        merged = Gate("CNOT", a.wires, a.poly + b.poly)
    elif a.kind == "CPHASE" and a.wires == b.wires:
        merged = Gate("CPHASE", a.wires, a.poly + b.poly)
    elif a.kind == "CPHASE" and a.wires == b.wires[::-1]:
        # CPHASE(j,i)(f) == CPHASE(i,j)(f(D^-1))
        merged = Gate("CPHASE", a.wires, a.poly + b.poly.subst_inv())
    elif a.kind == "CPHASE1" and a.wires == b.wires:
        merged = Gate("CPHASE1", a.wires, a.poly + b.poly)
    elif a.kind == "DELAY" and a.wires == b.wires:
        merged = Gate("DELAY", a.wires,
                      LaurentPoly.monomial(a.delay_amount + b.delay_amount))
    elif a.kind in ("H", "P") and a.wires == b.wires:
        return []  # both are involutions
    else:
        return None
    return [] if _gate_is_identity(merged) else [merged]


def _simplify_ops(ops, n: int):
    """Merge mergeable gate pairs separated only by commuting gates.

    The ordered product of the closed-form matrices is preserved
    exactly; only the decomposition into elementary gates changes.
    """
    ops = [g for g in ops if not _gate_is_identity(g)]
    changed = True
    while changed:
        changed = False
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
                merged = _merge_gates(ops[a], ops[b])
                if merged is None:
                    continue
                between = ops[a + 1:b]
                if all(gates_commute(ops[b], q, n) for q in between):
                    spot = a  # b moves back to a
                elif all(gates_commute(ops[a], q, n) for q in between):
                    spot = b - 1  # a moves forward to b
                else:
                    continue
                ops.pop(b)
                ops.pop(a)
                ops[spot:spot] = merged
                changed = True
                break
            if changed:
                break
    return ops


def _edge_product_matches(order, edges, target, n):
    """Cheap check that the ordered one-gate-per-entry product equals target."""
    work = _pmat_identity(n)
    for (i, j) in order:
        f = edges[(i, j)]
        for r in range(n):
            if work[r][i]:
                work[r][j] = work[r][j] + f * work[r][i]
    return work == target


def _cnot_dag_candidate(ops, n: int, total: SympMatrix):
    """One-gate-per-entry factorization of a CNOT-only product.

    Applies when the X block is identity plus off-diagonal entries whose
    wire graph is acyclic.  Gate orderings that reproduce the product
    exactly (cross terms may cancel) are searched and the first one whose
    earliest-stage schedule reaches the lowest stage wins; the search
    stops at an ordering that reaches the largest tap exponent |e|, since
    a placement of tap D^e spans |e| stages.  ``total`` is the transfer
    of ``ops``.
    """
    if not ops or not all(g.kind == "CNOT" for g in ops):
        return None
    x = total.x_block()
    edges = {}
    for i in range(n):
        if x[i][i] != ONE:
            return None
        for j in range(n):
            if i != j and x[i][j]:
                edges[(i, j)] = x[i][j]
    if not edges:
        return []
    floor = max(f.abs_deg for f in edges.values())
    succ = {i: set() for i in range(n)}
    indeg = {i: 0 for i in range(n)}
    for (i, j) in edges:
        if j not in succ[i]:
            succ[i].add(j)
            indeg[j] += 1
    queue = sorted(i for i in range(n) if indeg[i] == 0)
    pos = {}
    while queue:
        v = queue.pop(0)
        pos[v] = len(pos)
        for w in sorted(succ[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if len(pos) != n:
        return None  # cyclic wire couplings
    if len(edges) <= 5:
        orderings = permutations(edges)
    else:
        orderings = [
            tuple(sorted(edges, key=lambda e: (-pos[e[0]], pos[e[1]]))),
            tuple(sorted(edges, key=lambda e: (pos[e[0]], pos[e[1]]))),
            tuple(sorted(edges, key=lambda e: (pos[e[1]], pos[e[0]]))),
            tuple(sorted(edges, key=lambda e: (-pos[e[1]], -pos[e[0]]))),
        ]
    best_m, best = None, None
    for order in orderings:
        if not _edge_product_matches(order, edges, x, n):
            continue
        taps = [p for (i, j) in order
                for p in tap_placements("CNOT", i + 1, j + 1, edges[(i, j)])]
        placed = _earliest_stages(taps)
        m = max((s for p in placed for _, s in p.slots), default=0)
        if best_m is None or m < best_m:
            best_m, best = m, order
            if m == floor:
                break
    if best is None:
        return None
    return [Gate("CNOT", (i + 1, j + 1), edges[(i, j)]) for i, j in best]


def _relabel_gate(g: Gate, a: int, b: int) -> Gate:
    wires = tuple(b if w == a else a if w == b else w for w in g.wires)
    return Gate(g.kind, wires, g.poly)


def _is_swap_triple(ops, i) -> bool:
    if i + 2 >= len(ops):
        return False
    g1, g2, g3 = ops[i], ops[i + 1], ops[i + 2]
    return (g1.kind == g2.kind == g3.kind == "CNOT"
            and g1.poly == g2.poly == g3.poly == ONE
            and g1.wires == g3.wires and g2.wires == g1.wires[::-1])


def _push_swaps_back(ops, n: int):
    """Move three-CNOT swap blocks to the tail, relabeling crossed gates.

    A wire swap conjugates any gate into the same gate with relabeled
    wires, so the reordering is exact.  Extracted swaps compose into one
    permutation, emitted at the end as a minimal set of memoryless swap
    blocks that no longer obstruct the reduction pass.
    """
    ops = list(ops)
    perm = list(range(n + 1))  # perm[w] = image of wire w, 1-based
    i = 0
    while i < len(ops):
        if _is_swap_triple(ops, i):
            a, b = ops[i].wires
            del ops[i:i + 3]
            ops[i:] = [_relabel_gate(g, a, b) for g in ops[i:]]
            # tail permutation gains the new transposition on its input side
            perm[a], perm[b] = perm[b], perm[a]
            continue
        i += 1
    tail = []
    pending = perm[:]
    for w in range(1, n + 1):
        while pending[w] != w:
            v = pending[w]
            tail.extend((Gate("CNOT", (w, v), ONE), Gate("CNOT", (v, w), ONE),
                         Gate("CNOT", (w, v), ONE)))
            pending[w], pending[v] = pending[v], pending[w]
    return ops + tail


def _laurent_div(b: LaurentPoly, a: LaurentPoly) -> LaurentPoly:
    """Quotient q such that b + q*a has polynomial degree span below a's."""
    sb, sa = b.delay, a.delay
    q, _ = poly_divmod(b.shift(-sb), a.shift(-sa))
    return q.shift(sb - sa)


def _cnot_euclid_candidate(ops, n: int, total: SympMatrix):
    """Refactor a CNOT-only product by column elimination of its X block.

    Column transvections (each one a CNOT gate) reduce the block to the
    identity bottom-up; residual monomial diagonals are traded pairwise
    through transvection triples plus swaps.  Returns None when the
    block is not unimodular over the Laurent ring.  ``total`` is the
    transfer of ``ops``; ``compile_sequence`` checks the result against it.
    """
    if not ops or any(g.kind != "CNOT" for g in ops):
        return None
    work = total.x_block()
    rec = []

    def col_add(dst, src, f):
        if not f:
            return
        for row in work:
            if row[src]:
                row[dst] = row[dst] + f * row[src]
        rec.append((src, dst, f))

    def col_swap(i, j):
        col_add(j, i, ONE)
        col_add(i, j, ONE)
        col_add(j, i, ONE)

    for r in range(n - 1, -1, -1):
        while True:
            nz = [j for j in range(r + 1) if work[r][j]]
            if not nz:
                return None
            if len(nz) == 1 and work[r][nz[0]].is_monomial:
                break
            if len(nz) == 1:
                return None  # row gcd is not a unit
            piv = min(nz, key=lambda j: (work[r][j].deg - work[r][j].delay, j))
            for j in nz:
                if j != piv:
                    col_add(j, piv, _laurent_div(work[r][j], work[r][piv]))
        c = next(j for j in range(r + 1) if work[r][j])
        if c != r:
            col_swap(c, r)
    # clear the region above the monomial diagonal (division is exact)
    for r in range(n - 1, -1, -1):
        for j in range(r + 1, n):
            if work[r][j]:
                col_add(j, r, work[r][j].shift(-work[r][r].deg))
    exps = [work[i][i].deg for i in range(n)]
    while any(exps):
        pos = [i for i in range(n) if exps[i] > 0]
        neg = [j for j in range(n) if exps[j] < 0]
        if not pos or not neg:
            return None
        i, j = pos[0], neg[0]
        a = min(exps[i], -exps[j])
        mono = LaurentPoly.monomial
        col_add(j, i, mono(-a))
        col_add(i, j, mono(a))
        col_add(j, i, mono(-a))
        col_swap(i, j)
        exps[i] -= a
        exps[j] += a
    if any(work[i][j] != (ONE if i == j else ZERO)
           for i in range(n) for j in range(n)):
        return None
    return [Gate("CNOT", (src + 1, dst + 1), f) for (src, dst, f) in reversed(rec)]


_FLOOR_KINDS = frozenset(("CNOT", "CPHASE", "CPHASE1", "H", "P"))


def _causal_floor(ops, total: SympMatrix) -> int | None:
    """Least m of any candidate ``compile_sequence`` can build, or None.

    It is defined only when every gate is CNOT, CPHASE, CPHASE1, H or P
    (no DELAY, no feedback); every candidate built from such a list has
    only these kinds too.  Each candidate then cascades to one section of equal depth
    on every wire whose tap product is exactly ``total``, the gate
    product; reduction keeps that product and keeps the depths equal, so
    the reduced transfer is ``total``·D^m.  Causality (certified by
    ``check_schedule``) makes every exponent of it at least 0, so m is at
    least ``-e.delay`` for every nonzero entry e of ``total``.
    """
    if any(g.kind not in _FLOOR_KINDS for g in ops):
        return None
    return max((-e.delay for row in total.rows for e in row if e), default=0)


def compile_sequence(ops, n: int, *, transfer: SympMatrix | None = None
                     ) -> ShiftRegisterCircuit:
    """Compile a gate sequence into a memory-reduced circuit.

    Candidates, in order: the gates as given, swap blocks pushed to the
    tail, merged gate pairs, and for a CNOT-only product its one gate per
    entry (DAG) and column-eliminated (Euclid) factorizations.  Each is
    cascaded and reduced (``reduce_memory``), and the first candidate
    with the fewest memory frames wins.  The search stops, before the
    next candidate is built, once the best m reaches the causal floor
    (``_causal_floor``), which no candidate can go below; for most inputs
    without DELAY or feedback gates that happens at the gates as given.
    A candidate whose span floor (``_span_floor``) already reaches the
    best m so far cannot win and is not reduced.  A candidate other
    than the gates as given replaces the best only if its gate product
    equals ``transfer``, the product of ``ops`` (computed when not
    given), so every candidate implements the same transfer up to a
    global delay monomial.
    """
    ops = list(ops)
    total = sequence_transfer(ops, n) if transfer is None else transfer
    floor = _causal_floor(ops, total)
    variants = []
    best = None

    def candidates():
        yield ops
        unswapped = _push_swaps_back(ops, n)
        yield unswapped
        yield _simplify_ops(list(unswapped), n)
        yield _cnot_dag_candidate(ops, n, total)
        yield _cnot_euclid_candidate(ops, n, total)

    for v in candidates():
        if v is None or v in variants:
            continue
        variants.append(v)
        c = _cascade_all(v, n)
        if best is not None and _span_floor(c) >= best.m:
            continue
        reduced = reduce_memory(c)
        if best is None or (reduced.m < best.m and sequence_transfer(v, n) == total):
            best = reduced
            if best.m == floor:
                break
    return best


def sequence_transfer(ops, n: int) -> SympMatrix:
    """Ordered product of the closed-form matrices of a gate list.

    Gates are applied one at a time to the sparse columns they change
    (``apply_gates``), not by dense matrix products.
    """
    return apply_gates(ops, n)


def constraint_lengths(s: StabilizerMatrix):
    """Classical-style (nu_i list, overall nu, memory m) of a stabilizer."""
    nus = []
    for row in s.rows:
        best = 0
        for e in row:
            if e:
                best = max(best, e.deg)
        nus.append(best)
    return nus, sum(nus), max(nus, default=0)


def typeII_memory_bound(gamma2_diag, l_matrix: SympMatrix, b_matrix: SympMatrix) -> int:
    """m1 + |deg|(L) + |deg|(B) with m1 the largest feedback entry degree."""
    m1 = max((p.abs_deg for p in gamma2_diag), default=0)
    return m1 + l_matrix.abs_deg() + b_matrix.abs_deg()


def parse_sequence(text: str):
    ops = []
    for lineno, line in content_lines(text):
        try:
            ops.append(parse_gate(line))
            check_wire_count(max(ops[-1].wires))
        except (ParseError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not ops:
        raise ParseError("empty gate sequence")
    return ops


def format_sequence(ops) -> str:
    return "\n".join(str(g) for g in ops) + "\n"
