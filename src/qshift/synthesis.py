"""Encoder synthesis: Smith decomposition, the CSS encoder pipeline,
memory reduction by commuting gates through memory, and memory bounds.

The encoder turns a dual-containing CSS check-matrix pair into a
sequence of CNOT-type elementary operations (column operations on the X
side, conjugate column operations on the Z side) and compiles each into
a delay-line block.  Reduction relocates gates to earlier pipeline
stages wherever they commute with everything they cross, cancels
identical gate pairs, reschedules uniform pipelines exactly, and deletes
memory frames that no gate touches; compilation additionally tries
equivalent re-decompositions of the same product and keeps the circuit
with the fewest frames.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2poly import (
    LaurentPoly,
    ONE,
    ZERO,
    ParseError,
    poly_divmod,
)
from .symplectic import (
    Gate,
    StabilizerMatrix,
    SympMatrix,
    apply_gates,
    dual_containing,
    parse_gate,
)
from .circuit import (
    FiniteSection,
    Placement,
    ShiftRegisterCircuit,
    _canonical_sections,
    _wire_users,
    build_from_gate,
    cascade,
    check_schedule,
    identity_circuit,
    instances_commute,
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


def _pmat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = ZERO
            for k in range(inner):
                if a[i][k] and b[k][j]:
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _pmat_transpose(a):
    return [list(col) for col in zip(*a)]


def _pmat_subst_inv(a):
    return [[e.subst_inv() for e in row] for row in a]


def _pmat_block_diag(a, b):
    ka, kb = len(a), len(b)
    out = []
    for i in range(ka):
        out.append(list(a[i]) + [ZERO] * kb)
    for i in range(kb):
        out.append([ZERO] * ka + list(b[i]))
    return out


def _pmat_eq(a, b):
    return len(a) == len(b) and all(
        ra == rb for ra, rb in ((tuple(x), tuple(y)) for x, y in zip(a, b)))


# ---------------------------------------------------------------------------
# Smith normal form over GF(2)[D]


@dataclass(frozen=True)
class ElemOp:
    """Elementary operation: add (dst += f * src) or swap of rows/columns."""

    kind: str
    src: int
    dst: int
    f: LaurentPoly | None = None

    def matrix(self, dim: int):
        m = _pmat_identity(dim)
        if self.kind == "add":
            m[self.src][self.dst] = self.f
        else:
            m[self.src][self.src] = ZERO
            m[self.dst][self.dst] = ZERO
            m[self.src][self.dst] = ONE
            m[self.dst][self.src] = ONE
        return m


@dataclass(frozen=True)
class SmithDecomposition:
    """a . s . b == original matrix shifted by D^monomial_shift.

    ``a`` and ``b`` are unimodular accumulations of the recorded
    elementary operations; ``b`` equals the recorded column operations
    multiplied in reverse order, so applying ``col_ops`` in recorded
    order realizes b^-1.
    """

    a: tuple
    s: tuple
    b: tuple
    row_ops: tuple
    col_ops: tuple
    monomial_shift: int = 0

    @property
    def diagonal(self):
        return tuple(self.s[i][i] for i in range(min(len(self.s), len(self.s[0]))))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)

    def b_inverse(self):
        dim = len(self.b)
        out = _pmat_identity(dim)
        for op in self.col_ops:
            out = _pmat_mul(out, op.matrix(dim))
        return out


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
    row_ops = []
    col_ops = []

    def row_add(dst, src, f):
        rows[dst] = [rows[dst][j] + f * rows[src][j] for j in range(nc)]
        for r in range(nr):
            a[r][src] = a[r][src] + f * a[r][dst]
        row_ops.append(ElemOp("add", src, dst, f))

    def row_swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        for r in a:
            r[i], r[j] = r[j], r[i]
        row_ops.append(ElemOp("swap", i, j))

    def col_add(dst, src, f):
        for r in rows:
            r[dst] = r[dst] + f * r[src]
        b[src] = [b[src][j] + f * b[dst][j] for j in range(nc)]
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
        tuple(row_ops),
        tuple(col_ops),
        shift,
    )


# ---------------------------------------------------------------------------
# CSS encoder


@dataclass(frozen=True)
class EncoderPlan:
    """Encoding gate sequence with its overall transformation matrix."""

    n: int
    ops: tuple
    b_overall: SympMatrix
    memory_bound: int
    target: StabilizerMatrix

    def circuit(self) -> ShiftRegisterCircuit:
        return compile_sequence(self.ops, self.n)


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
    """
    hx = [list(r) for r in hx]
    hz = [list(r) for r in hz]
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
        if sm_x.rank != s_x or any(d != ONE for d in sm_x.diagonal):
            raise CatastrophicCode(
                "X check matrix is catastrophic (Smith diagonal not all 1)")
        for op in sm_x.col_ops:
            decode_ops.extend(_x_col_op_gates(op, 0))
        b2 = [list(r) for r in sm_x.b]
    else:
        b2 = _pmat_identity(n)

    if s_z:
        h_til = [b2[r] for r in range(s_x, n)]  # rows below the X check image
        hhat = _pmat_mul(hz, _pmat_subst_inv(_pmat_transpose(h_til)))
        hhat = [_normalize_row(r) for r in hhat]
        sm_h = smith_normal_form(hhat)
        if sm_h.rank != s_z or any(d != ONE for d in sm_h.diagonal):
            raise CatastrophicCode(
                "Z check matrix is catastrophic (Smith diagonal not all 1)")
        for op in sm_h.col_ops:
            decode_ops.extend(_z_col_op_gates(op, s_x))
        b3 = [list(r) for r in sm_h.b]
        b3_inv = sm_h.b_inverse()
    else:
        b3 = _pmat_identity(n - s_x)
        b3_inv = _pmat_identity(n - s_x)

    # every CNOT-type elementary gate is self-inverse over GF(2)
    encode_ops = tuple(reversed(decode_ops))

    if s_x:
        b2_inv = sm_x.b_inverse()
    else:
        b2_inv = _pmat_identity(n)
    e_x = _pmat_mul(
        _pmat_block_diag(_pmat_identity(s_x),
                         _pmat_subst_inv(_pmat_transpose(b3_inv))),
        b2)
    e_z = _pmat_mul(
        _pmat_block_diag(_pmat_identity(s_x), b3),
        _pmat_subst_inv(_pmat_transpose(b2_inv)))
    b_overall = SympMatrix.block_diag_zx(e_z, e_x)

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


def memory_bound_css(plan: EncoderPlan) -> int:
    """Frames of memory needed, bounded by the encoding matrix absolute degree."""
    return plan.memory_bound


# ---------------------------------------------------------------------------
# Memory reduction


def _slot_users(placements) -> dict:
    """slot -> indices of the placements that reference it."""
    users = {}
    for k, p in enumerate(placements):
        for slot in p.slots:
            users.setdefault(slot, []).append(k)
    return users


def _movable(placements, idx, users):
    """Can placement ``idx`` move one stage earlier?

    The move crosses p against every earlier placement in the same
    cycle and every later one a cycle before (alignment -1).  Those
    instances overlap only when an earlier q has one of p's slots or a
    later q has a slot one stage below one of them; ``users`` (see
    ``_slot_users``) finds exactly those.
    """
    p = placements[idx]
    if any(stage == 0 for _, stage in p.slots):
        return False
    for wire, stage in p.slots:
        for k in users.get((wire, stage), ()):
            if k < idx and not instances_commute(p, placements[k], 0):
                return False
        for k in users.get((wire, stage - 1), ()):
            if k > idx and not instances_commute(p, placements[k], -1):
                return False
    return True


def _can_shrink(depths, placements):
    if not depths or any(d < 1 for d in depths):
        return False
    for p in placements:
        for wire, stage in p.slots:
            if stage > depths[wire - 1] - 1:
                return False
    return True


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


def _reschedule(placements, n: int):
    """Componentwise-minimal stage assignment for a fixed product order.

    Every placement keeps its internal stage offsets (the tap exponent);
    an ordered pair sharing a wire is constrained to read-before-write
    order at that wire exactly when the instances aligned there fail to
    commute.  The constraint graph points forward in product order, so a
    single forward pass yields the minimal (hence max-minimizing)
    schedule.  Returns a uniform-depth section.
    """
    bases = [0] * len(placements)
    shifted = [p.moved_down(min(s for _, s in p.slots)) for p in placements]
    users = _wire_users(shifted)
    for q, pq in enumerate(shifted):
        for (wq, sq) in pq.slots:
            for p_idx in users[wq]:
                if p_idx >= q:
                    break
                for (wp, sp) in shifted[p_idx].slots:
                    if wp != wq or instances_commute(shifted[p_idx], pq, sq - sp):
                        continue
                    need = bases[p_idx] + sp - sq
                    if need > bases[q]:
                        bases[q] = need
    new_placements = [shifted[k].moved_down(-bases[k]) for k in range(len(placements))]
    depth = 0
    for p in new_placements:
        for _, s in p.slots:
            depth = max(depth, s)
    return FiniteSection((depth,) * n, tuple(new_placements))


def _reduce_section(sec: FiniteSection) -> FiniteSection:
    depths = list(sec.depths)
    placements = list(sec.placements)
    changed = True
    while changed:
        changed = False
        users = _slot_users(placements)
        for idx in range(len(placements)):
            while _movable(placements, idx, users):
                p = placements[idx]
                for slot in p.slots:
                    users[slot].remove(idx)
                placements[idx] = p = p.moved_down()
                for slot in p.slots:
                    users.setdefault(slot, []).append(idx)
                changed = True
        cancelled = _cancel_identical_pair(placements)
        while cancelled is not None:
            placements = cancelled
            changed = True
            cancelled = _cancel_identical_pair(placements)
        while _can_shrink(depths, placements):
            depths = [d - 1 for d in depths]
            changed = True
    best = FiniteSection(tuple(depths), tuple(placements))
    if len(set(depths)) <= 1:  # uniform pipelines can be rescheduled exactly
        cand = _reschedule(placements, len(depths))
        if cand.m < best.m:
            try:
                check_schedule(cand)
            except ValueError:
                return best
            best = cand
    return best


def reduce_memory(c: ShiftRegisterCircuit) -> ShiftRegisterCircuit:
    """Commute gates toward the input and delete untouched trailing frames.

    Greedy fixed point: a placement moves one stage earlier whenever its
    instances commute with every gate instance the move crosses; when no
    slot references the last frame of any wire, the frame is removed
    (a global unit of delay).  Only instances that share a datum are
    checked (placements indexed by slot and by wire), and each check is
    a lookup in ``instances_commute``'s memo.  Gates occurring after a
    feedback block are frozen, so only the leading finite section is
    reduced.
    """
    sections = list(c.sections)
    if sections and isinstance(sections[0], FiniteSection):
        sections[0] = _reduce_section(sections[0])
    return ShiftRegisterCircuit(c.n, _canonical_sections(tuple(sections)))


# ---------------------------------------------------------------------------
# Sequence compilation and reports


def _cascade_all(ops, n: int) -> ShiftRegisterCircuit:
    c = identity_circuit(n)
    for gate in ops:
        c = cascade(c, build_from_gate(gate, n))
    return c


def _gates_commute(a: Gate, b: Gate, n: int) -> bool:
    if not set(a.wires) & set(b.wires):
        return True  # each gate matrix differs from I only on its own wires
    ident = SympMatrix.identity(n)
    return apply_gates(ident, (a, b)) == apply_gates(ident, (b, a))


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
                if all(_gates_commute(ops[b], q, n) for q in between):
                    spot = a  # b moves back to a
                elif all(_gates_commute(ops[a], q, n) for q in between):
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
    return _pmat_eq(work, target)


def _edge_taps(order, edges):
    placements = []
    for (i, j) in order:
        for e in sorted(edges[(i, j)].support):
            placements.append(Placement("CNOT", (i + 1, max(e, 0)),
                                        (j + 1, max(-e, 0))))
    return placements


def _cnot_dag_candidate(ops, n: int, total: SympMatrix):
    """One-gate-per-entry factorization of a CNOT-only product.

    Applies when the X block is identity plus off-diagonal entries whose
    wire graph is acyclic.  Gate orderings that reproduce the product
    exactly (cross terms may cancel) are searched and the one with the
    cheapest rescheduled pipeline wins.  ``total`` is the transfer of ``ops``.
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
        from itertools import permutations
        orderings = list(permutations(edges))
    else:
        orderings = [
            tuple(sorted(edges, key=lambda e: (-pos[e[0]], pos[e[1]]))),
            tuple(sorted(edges, key=lambda e: (pos[e[0]], pos[e[1]]))),
            tuple(sorted(edges, key=lambda e: (pos[e[1]], pos[e[0]]))),
            tuple(sorted(edges, key=lambda e: (-pos[e[1]], -pos[e[0]]))),
        ]
    best = None
    for order in orderings:
        if not _edge_product_matches(order, edges, x, n):
            continue
        sec = _reschedule(_edge_taps(order, edges), n)
        if best is None or sec.m < best[0]:
            best = (sec.m, order)
    if best is None:
        return None
    return [Gate("CNOT", (i + 1, j + 1), edges[(i, j)]) for i, j in best[1]]


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
    transfer of ``ops``.
    """
    if not ops or any(g.kind != "CNOT" for g in ops):
        return None
    work = total.x_block()
    rec = []

    def col_add(dst, src, f):
        if not f:
            return
        for r in range(n):
            work[r][dst] = work[r][dst] + f * work[r][src]
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
    cand = [Gate("CNOT", (src + 1, dst + 1), f) for (src, dst, f) in reversed(rec)]
    if sequence_transfer(cand, n) != total:
        return None
    return cand


def compile_sequence(ops, n: int) -> ShiftRegisterCircuit:
    """Compile a gate sequence into a memory-reduced circuit.

    The cascade of the gates as given is reduced by commuting gates
    through memory; equivalent decompositions of the same transformation
    (merged gate pairs, direct or column-eliminated factorizations of a
    CNOT-only product) are compiled as well and the circuit with the
    fewest memory frames wins.  All candidates implement the same
    transfer up to a global delay monomial.
    """
    ops = list(ops)
    total = sequence_transfer(ops, n)
    variants = [ops]
    unswapped = _push_swaps_back(ops, n)
    if unswapped != ops:
        variants.append(unswapped)
    simplified = _simplify_ops(list(unswapped), n)
    if simplified not in variants:
        variants.append(simplified)
    for cand in (_cnot_dag_candidate(ops, n, total),
                 _cnot_euclid_candidate(ops, n, total)):
        if cand is not None and cand not in variants:
            variants.append(cand)
    # alternative decompositions must reproduce the exact product
    variants = [v for v in variants if v is ops or sequence_transfer(v, n) == total]
    candidates = [reduce_memory(_cascade_all(v, n)) for v in variants]
    return min(candidates, key=lambda c: c.m)


def sequence_transfer(ops, n: int) -> SympMatrix:
    """Ordered product of the closed-form matrices of a gate list.

    Gates are applied one at a time to the columns they change
    (``apply_gates``), not by dense matrix products.
    """
    return apply_gates(SympMatrix.identity(n), ops)


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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ops.append(parse_gate(line))
        except (ParseError, ValueError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if not ops:
        raise ParseError("empty gate sequence")
    return ops


def format_sequence(ops) -> str:
    return "\n".join(str(g) for g in ops) + "\n"
