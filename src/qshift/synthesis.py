"""Encoder synthesis: Smith decomposition, the CSS encoder pipeline,
memory reduction by commuting gates through memory, and memory bounds.

The encoder turns a dual-containing CSS check-matrix pair into a
sequence of CNOT-type elementary operations (column operations on the X
side, conjugate column operations on the Z side) and compiles each into
a delay-line block.  The Smith form works over the Laurent ring
GF(2)[D, D^-1], where every monomial is a unit, so a code is refused as
catastrophic only for an invariant factor that is not a monomial.
Reduction schedules every gate at its earliest legal pipeline stage in
one pass, cancels identical gate pairs, and deletes memory frames that
no gate touches; compilation additionally tries equivalent
re-decompositions of the same product and keeps the circuit
with the fewest frames.  The search ends as soon as a candidate answers
an impulse in the same cycle (``simulator.responds_at_once``): for lists
without DELAY or feedback gates that candidate has reached the causal
floor (the largest advance in the gate product), usually at the gates as
given, and the gate product itself is multiplied out only when a later
candidate needs it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cache, cached_property, partial
from graphlib import CycleError, TopologicalSorter
from itertools import combinations, permutations

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
    add_column,
    add_row,
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
    _cascade_all,
    _circuit,
    _closed_run,
    _moved_down,
    _section,
    check_schedule,
    instances_commute,
    tap_placements,
)
from .simulator import responds_at_once


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
# Smith normal form over GF(2)[D, D^-1]


def _swap_adds(i: int, j: int) -> tuple:
    """The three unit column adds that exchange columns i and j over GF(2)."""
    return ((i, j, ONE), (j, i, ONE), (i, j, ONE))


@dataclass(frozen=True)
class SmithDecomposition:
    """a . s . b == original matrix, exactly, over GF(2)[D, D^-1].

    ``a`` and ``b`` are unimodular over the Laurent ring.  ``col_ops``
    records every column operation as an add ``(src, dst, f)``, column
    dst += f * column src with f nonzero, a swap as the three unit adds
    of ``_swap_adds``; applying them in recorded order realizes b^-1.
    ``row_ops`` records the row operations likewise, row dst += f * row
    src, except that ``(i, i, D^-k)`` scales row i by the monomial D^-k,
    a unit of the Laurent ring; applied in order they realize a^-1.
    ``a`` and ``b`` are the inverses of the recorded operations
    multiplied in reverse order, each built the first time it is read.
    """

    s: tuple
    col_ops: tuple
    row_ops: tuple

    @cached_property
    def a(self) -> tuple:
        """``row_ops`` replayed in order on I, each as the column operation it makes of a."""
        a = _pmat_identity(len(self.s))
        for src, dst, f in self.row_ops:
            if src == dst:  # row src times D^-k: column src of a times D^k
                for r in a:
                    r[src] = r[src].shift(-f.delay)
            else:  # row dst += f row src: column src += f column dst
                add_column(a, src, dst, f)
        return tuple(tuple(r) for r in a)

    @cached_property
    def b(self) -> tuple:
        """``col_ops`` replayed in order on I, each as the row operation it makes of b."""
        b = _pmat_identity(len(self.s[0]))
        for src, dst, f in self.col_ops:  # column dst += f column src: row src += f row dst
            add_row(b[src], b[dst], f)
        return tuple(tuple(r) for r in b)

    @cached_property
    def diagonal(self):
        return tuple(self.s[i][i] for i in range(min(len(self.s), len(self.s[0]))))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def _laurent_div(b: LaurentPoly, a: LaurentPoly) -> LaurentPoly:
    """Quotient q such that b + q*a has polynomial degree span below a's."""
    if a.is_monomial:  # a unit: the division below gives this exact quotient
        return b.shift(-a.delay)
    sb, sa = b.delay, a.delay
    q, _ = poly_divmod(b.shift(-sb), a.shift(-sa))
    return q.shift(sb - sa)


def _laurent_divides(a: LaurentPoly, b: LaurentPoly) -> bool:
    """True when nonzero a divides b over GF(2)[D, D^-1], where monomials are units."""
    return not b or not poly_divmod(b.shift(-b.delay), a.shift(-a.delay))[1]


def smith_normal_form(matrix) -> SmithDecomposition:
    """Diagonalize a matrix over GF(2)[D, D^-1] with recorded elementary operations.

    Pivots are the nonzero entries of least span (deg - delay; ties
    broken by lowest (row, col)), division is ``_laurent_div``, whose
    remainder has a span below the pivot's, and the diagonal entries
    divide successively; a monomial divides every entry.  Scaling a row
    by a monomial changes none of these, so rows keep whatever delay the
    operations give them until the end, where each row is scaled to delay
    0.  A monomial is a unit of the Laurent ring, so that scaling is a row
    operation (recorded in ``row_ops``) and records no column operation.
    The rows of the returned ``s`` are at delay 0, so a unit on its
    diagonal is 1.
    """
    rows = [list(r) for r in matrix]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if nr == 0 or nc == 0:
        raise ValueError("empty matrix")
    row_ops = []
    col_ops = []
    last = min(nr, nc)
    t = 0
    while t < last:
        # the pivot: least span, lowest (row, col); a monomial ends the scan
        pivot = None
        for i in range(t, nr):
            row = rows[i]
            for j in range(t, nc):
                e = row[j]
                if e and (pivot is None or e.deg - e.delay < span):
                    pivot, span = (i, j), e.deg - e.delay
                    if not span:
                        break
            else:
                continue
            break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            rows[t], rows[pi] = rows[pi], rows[t]
            row_ops.extend(_swap_adds(t, pi))
        if pj != t:
            for r in rows:
                r[t], r[pj] = r[pj], r[t]
            col_ops.extend(_swap_adds(t, pj))
        # the pivot's column, then its row, until neither swaps in a
        # remainder, which has a smaller span than the pivot; the rows above
        # t are zero in column t and the columns left of t zero in row t
        while True:
            top = rows[t]
            for k in range(t + 1, nr):
                e = rows[k][t]
                if e:
                    q = _laurent_div(e, top[t])
                    if q:
                        add_row(rows[k], top, q)
                        row_ops.append((t, k, q))
                    if rows[k][t]:
                        rows[t], rows[k] = rows[k], top
                        row_ops.extend(_swap_adds(t, k))
                        break
            else:
                for k in range(t + 1, nc):
                    e = top[k]
                    if e:
                        q = _laurent_div(e, top[t])
                        if q:  # column t is zero below the pivot, so only row t changes
                            top[k] = e + q * top[t]
                            col_ops.append((t, k, q))
                        if top[k]:
                            for r in rows:
                                r[t], r[k] = r[k], r[t]
                            col_ops.extend(_swap_adds(t, k))
                            break
                else:
                    break
        # successive divisibility of invariant factors; a unit divides every
        # entry.  Row t now holds only the pivot d; the culprit row is added
        # times the monomial that aligns its lowest delay with d's, as if
        # both were at delay 0.
        d = rows[t][t]
        if not d.is_monomial:
            culprit = next((i for i in range(t + 1, nr)
                            if not all(_laurent_divides(d, e) for e in rows[i][t + 1:])), None)
            if culprit is not None:
                f = LaurentPoly.monomial(d.delay - min(e.delay for e in rows[culprit] if e))
                add_row(rows[t], rows[culprit], f)
                row_ops.append((culprit, t, f))
                continue
        t += 1
    # rows t and below are zero, and each row above t holds only its diagonal
    # entry, which the scaling of the row to delay 0 leaves at delay 0
    for i in range(t):
        k = rows[i][i].delay
        if k:
            rows[i][i] = rows[i][i].shift(-k)
            row_ops.append((i, i, LaurentPoly.monomial(-k)))
    return SmithDecomposition(tuple(tuple(r) for r in rows), tuple(col_ops), tuple(row_ops))


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

    def circuit(self) -> ShiftRegisterCircuit:
        return compile_sequence(list(self.ops), self.n, transfer=self.b_overall)


def _x_gate(src: int, dst: int, f) -> Gate:
    """The CNOT whose X-side column action is column dst += f * column src."""
    return Gate("CNOT", (src + 1, dst + 1), f)


def _z_gate(src: int, dst: int, f, offset: int = 0) -> Gate:
    """The CNOT whose Z-side column action is column dst += f * column src.

    Column 0 is wire ``offset`` + 1.
    """
    return Gate("CNOT", (dst + offset + 1, src + offset + 1), f.subst_inv())


def _css_phase(rows, width: int, side: str, gate):
    """Decoding gates and Smith decomposition of one phase's rows, ``width`` wide.

    Each column operation (src, dst, f) becomes ``gate(src, dst, f)``.  No
    rows give no gates and the decomposition of one zero row, whose b is I.
    The rows may hold Laurent entries.  Dependent rows are refused, and so
    is an invariant factor that is not a monomial (a unit of the Laurent
    ring), by name; the diagonal is at delay 0, so it names 1+D for 1+D^-1.
    """
    if not rows:
        return [], SmithDecomposition(((ZERO,) * width,), (), ())
    sm = smith_normal_form(rows)
    if sm.rank != len(rows):
        raise SynthesisError(f"{side} check rows are linearly dependent")
    factor = next((d for d in sm.diagonal if not d.is_monomial), None)
    if factor is not None:
        raise CatastrophicCode(f"{side} check matrix is catastrophic "
                               f"(invariant factor {factor} is not a monomial)")
    return [gate(*op) for op in sm.col_ops], sm


def css_encoder(hx, hz) -> EncoderPlan:
    """CNOT-only encoder plan for a dual-containing CSS check-matrix pair.

    ``hx`` holds the X-type generator rows and ``hz`` the Z-type rows.
    One phase routine (``_css_phase``) runs on ``hx``, then on the Z rows
    paired with the X phase's complement (the rows of its ``b`` below the
    X check image); reversed, the two phases' gates decode the code back
    to fresh ancillas.  The returned plan's gates, applied in order to the
    unencoded stabilizer, produce a stabilizer row-space equivalent to
    the code, and its encoding matrix is their ordered product.
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

    decode_x, sm_x = _css_phase(hx, n, "X", _x_gate)
    hhat = pairing(hz, sm_x.b[s_x:])
    # the pairing with the unimodular b is injective, so rank(hhat) = rank(hz)
    decode_z, _ = _css_phase(hhat, n - s_x, "Z", partial(_z_gate, offset=s_x))
    # every CNOT-type elementary gate is self-inverse over GF(2)
    encode_ops = tuple(reversed(decode_x + decode_z))
    b_overall = sequence_transfer(encode_ops, n)
    return EncoderPlan(
        n=n,
        ops=encode_ops,
        b_overall=b_overall,
        memory_bound=b_overall.abs_deg(),
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


def _cancel_identical_pairs(placements):
    """Drop pairs of equal placements separated only by commuting gates.

    Every placement kind is symplectically involutive, so two instances
    acting on the same slots in the same cycle annihilate when each gate
    scheduled between them commutes with them at zero alignment.  Pairs
    cancel one at a time, the lowest first placement and then the lowest
    second one, and the scan starts over after each cancellation, since
    a dropped pair may have blocked an earlier one.  One index of copies
    and slot users serves the whole pass: a cancelled pair is deleted
    from it.  Returns the placements left, or None when nothing cancels.
    """
    # (kind, a, b) is what placements compare on, and a tuple hashes faster
    keys = [(p.kind, p.a, p.b) for p in placements]
    copies = {}
    for k, key in enumerate(keys):
        copies.setdefault(key, []).append(k)
    if len(copies) == len(placements):
        return None  # no placement occurs twice
    users = _slot_users(placements)
    dropped = set()

    def first_pair():
        for a, p in enumerate(placements):
            same = copies[keys[a]]
            if len(same) > 1 and a not in dropped:
                for b in same:
                    # instances at zero alignment overlap only on a shared slot
                    if b > a and all(instances_commute(p, placements[q], 0)
                                     for slot in p.slots for q in users[slot] if a < q < b):
                        return a, b
        return None

    while (pair := first_pair()) is not None:
        p = placements[pair[0]]
        for index in [copies[keys[pair[0]]]] + [users[slot] for slot in p.slots]:
            index.remove(pair[0])
            index.remove(pair[1])
        dropped.update(pair)
    if not dropped:
        return None
    return [x for i, x in enumerate(placements) if i not in dropped]


def _earliest_stages(placements):
    """Earliest legal stage of every placement, product order fixed.

    Every placement keeps its internal stage offsets (the tap exponent);
    an ordered pair sharing a wire is constrained to read-before-write
    order at that wire exactly when the instances aligned there fail to
    commute, which is the condition ``check_schedule`` tests.  The
    constraints point forward in product order, so one forward pass
    (a longest path) places each placement at its least stage, and so
    every stage at its least value over all legal schedules.

    A placement's base is its lowest stage after the move, and the reach
    of its slot (w, s) is that slot's stage after the move, base + s -
    low.  A later slot (w, t) must then sit at or below every reach on w
    whose instances fail to commute with it, so its base is at least
    reach - (t - low).  Moving placements changes only the alignment at
    which they are compared: with p' = p.moved_down(a) and
    q' = q.moved_down(b), ``instances_commute(p', q', s) ==
    instances_commute(p, q, s + b - a)``, so the lookups take the
    placements as given.  Each wire keeps the reaches placed on it so
    far, deepest first, and a slot scans them until the first pair that
    fails to commute or until the reach can no longer raise the base;
    the base is a maximum over the failing pairs, so the scan order
    cannot change it.

    Returns the moved placements and each touched wire's deepest reach,
    the highest stage of a slot on it: the head of its frontier list.
    """
    frontier = {}  # wire -> [(-reach, index, stage)], deepest reach first
    placed = []
    for q, pq in enumerate(placements):
        slots, a, b = pq.slots, pq.a, pq.b
        low = a[1] if b is None or a[1] < b[1] else b[1]
        base = 0
        for wq, sq in slots:
            lift = sq - low
            for neg_reach, k, sp in frontier.get(wq, ()):
                need = -neg_reach - lift
                if need <= base:
                    break
                if not instances_commute(placements[k], pq, sq - sp):
                    base = need
                    break
        for wq, sq in slots:
            insort(frontier.setdefault(wq, []), (low - base - sq, q, sq))
        placed.append(_moved_down(pq, low - base))
    return placed, {w: -reaches[0][0] for w, reaches in frontier.items()}


def _reduce_section(sec: FiniteSection) -> FiniteSection:
    placements, reach = _earliest_stages(sec.placements)
    while (kept := _cancel_identical_pairs(placements)) is not None:
        placements, reach = _earliest_stages(kept)
    # drop the trailing frames no slot references, the same number on every wire
    k = min((d - reach.get(w, 0) for w, d in enumerate(sec.depths, start=1)), default=0)
    # d - k >= reach on every wire, so every slot lies within the new depths
    reduced = _section(tuple(d - k for d in sec.depths), tuple(placements))
    check_schedule(reduced)
    return reduced


def reduce_memory(c: ShiftRegisterCircuit) -> ShiftRegisterCircuit:
    """Commute gates toward the input and delete untouched trailing frames.

    Every placement moves to its earliest legal stage
    (``_earliest_stages``); identical pairs with only commuting gates
    between them cancel, and the two steps repeat until nothing
    cancels.  Then every wire drops the same number of trailing frames,
    as many as no slot of any wire reaches (a global delay), and
    ``check_schedule`` certifies the result.  Only instances that share
    a datum are checked, and each check is a lookup in
    ``instances_commute``'s memo.  The scheduler scans each wire's
    reaches from the deepest down and stops at the first pair that fails
    to commute or once a reach can no longer raise the placement; the
    cancellation scan runs only when some placement occurs twice.  The
    input schedule must be causal (``check_schedule``).  Gates occurring
    after a feedback block are frozen, so only the leading finite section
    is reduced.  A reduced section that is the circuit's only section (as
    in every compile candidate) has no run to merge with and is the
    result as it is; otherwise the sections are laid out again
    (``_cascade_all``), which merges the reduced section with the runs
    after it.
    """
    sections = list(c.sections)
    if sections and isinstance(sections[0], FiniteSection):
        sections[0] = _reduce_section(sections[0])
        if len(sections) == 1:
            return _circuit(c.n, _closed_run(sections[0]))
    return _cascade_all(sections, c.n)


# ---------------------------------------------------------------------------
# Sequence compilation and reports


def _gate_is_identity(g: Gate) -> bool:
    return g.kind in ("CNOT", "CPHASE", "CPHASE1") and not g.poly


def _merge_gates(a: Gate, b: Gate):
    """The gates of the product of two same-shape gates, or None.

    The product is one gate, or none at all (``[]``) when it is the
    identity.
    """
    if a.kind != b.kind:
        return None
    if a.kind in ("CNOT", "CPHASE", "CPHASE1") and a.wires == b.wires:
        merged = Gate(a.kind, a.wires, a.poly + b.poly)
    elif a.kind == "CPHASE" and a.wires == b.wires[::-1]:
        # CPHASE(j,i)(f) == CPHASE(i,j)(f(D^-1))
        merged = Gate("CPHASE", a.wires, a.poly + b.poly.subst_inv())
    elif a.kind == "DELAY" and a.wires == b.wires:
        merged = Gate("DELAY", a.wires, a.poly * b.poly)  # D^k D^l = D^(k+l)
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
    commute = cache(partial(gates_commute, n=n))
    while True:  # merge the first mergeable pair, then start over
        for a, b in combinations(range(len(ops)), 2):
            merged = _merge_gates(ops[a], ops[b])
            if merged is None:
                continue
            between = ops[a + 1:b]
            if all(commute(ops[b], q) for q in between):
                spot = a  # b moves back to a
            elif all(commute(ops[a], q) for q in between):
                spot = b - 1  # a moves forward to b
            else:
                continue
            ops.pop(b)
            ops.pop(a)
            ops[spot:spot] = merged
            break
        else:
            return ops


def _edge_product_matches(order, edges, target, n):
    """Cheap check that the ordered one-gate-per-entry product equals target."""
    work = _pmat_identity(n)
    for (i, j) in order:
        add_column(work, j, i, edges[(i, j)])
    return work == target


def _cnot_dag_candidate(ops, n: int, total: SympMatrix):
    """One-gate-per-entry factorization of a CNOT-only product.

    Applies when the X block is identity plus off-diagonal entries whose
    wire graph is acyclic.  Gate orderings that reproduce the product
    exactly (cross terms may cancel) are searched and the first one whose
    earliest-stage schedule reaches the lowest stage wins; the search
    stops at an ordering that reaches the largest tap exponent |e|, since
    a placement of tap D^e spans |e| stages.  Some ordering always
    matches: sorted by descending topological position of the source, every
    edge out of a wire comes before every edge into it, so that product has
    no cross terms.  ``total`` is the transfer of ``ops``.
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
    # this insertion order (wires first, then edges by (target, source)) is
    # what makes the sorter emit the order of a first-in first-out Kahn queue
    # started lowest first: ready wires lowest first, and each wire's
    # successors released in ascending order
    sorter = TopologicalSorter()
    for w in range(n):
        sorter.add(w)
    for i, j in sorted(edges, key=lambda e: (e[1], e[0])):
        sorter.add(j, i)
    try:
        pos = {w: k for k, w in enumerate(sorter.static_order())}
    except CycleError:
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
        m = max(_earliest_stages(taps)[1].values(), default=0)
        if best_m is None or m < best_m:
            best_m, best = m, order
            if m == floor:
                break
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
            tail.extend(_x_gate(*op) for op in _swap_adds(w - 1, v - 1))
            pending[w], pending[v] = pending[v], pending[w]
    return ops + tail


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
        if f:
            add_column(work, dst, src, f)
            rec.append((src, dst, f))

    def col_swap(i, j):
        for src, dst, f in _swap_adds(i, j):
            col_add(dst, src, f)

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
    return [_x_gate(*op) for op in reversed(rec)]


# every candidate built from a list of these kinds has only these kinds too
_FLOOR_KINDS = frozenset(("CNOT", "CPHASE", "CPHASE1", "H", "P"))


def compile_sequence(ops, n: int, *, transfer: SympMatrix | None = None
                     ) -> ShiftRegisterCircuit:
    """Compile a gate sequence into a memory-reduced circuit.

    Candidates, in order: the gates as given, swap blocks pushed to the
    tail, merged gate pairs, and for a CNOT-only product its one gate per
    entry (DAG) and column-eliminated (Euclid) factorizations.  Each is
    cascaded and reduced (``reduce_memory``), and the first candidate
    with the fewest memory frames wins.

    The search stops, before the next candidate is built, once the best
    candidate answers an impulse in the same cycle (``responds_at_once``)
    and every gate is CNOT, CPHASE, CPHASE1, H or P.  Each candidate of
    such a list cascades to one section of equal depth on every wire
    whose tap product is the gate product; reduction keeps both, so the
    reduced absolute transfer is the product times D^m, causal by
    ``check_schedule``.  A D^0 term in it means m equals the largest
    advance (negative exponent) in the product, the causal floor that no
    candidate can go below; for most such inputs the gates as given
    reach it.  Lists with DELAY or feedback gates try every candidate.

    A candidate other than the gates as given replaces the best only if
    its gate product equals ``transfer``, the product of ``ops``, so every
    candidate implements the same transfer up to a global delay monomial.
    When ``transfer`` is not given, the product is multiplied out the
    first time a later candidate needs it, and at most once.
    """
    ops = list(ops)
    stops_at_once = all(g.kind in _FLOOR_KINDS for g in ops)
    total = transfer
    variants = []
    best = None

    def product():
        nonlocal total
        if total is None:
            total = sequence_transfer(ops, n)
        return total

    def candidates():
        yield ops
        unswapped = _push_swaps_back(ops, n)
        yield unswapped
        yield _simplify_ops(list(unswapped), n)
        yield _cnot_dag_candidate(ops, n, product())
        yield _cnot_euclid_candidate(ops, n, product())

    for v in candidates():
        if v is None or v in variants:
            continue
        variants.append(v)
        reduced = reduce_memory(_cascade_all(v, n))
        if best is None or (reduced.m < best.m and sequence_transfer(v, n) == product()):
            best = reduced
            if stops_at_once and responds_at_once(best):
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
