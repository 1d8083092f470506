import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qshift.gf2poly import LaurentPoly, ONE, ZERO, parse_poly as pp
from qshift.symplectic import Gate, StabilizerMatrix, SympMatrix, gate_matrix, row_space_equiv
from qshift import circuit as circuit_mod, synthesis
from qshift.circuit import (
    PLACEMENT_KINDS,
    FiniteSection,
    Placement,
    ShiftRegisterCircuit,
    build_from_gate,
    cascade,
    circuit_to_text,
    circuit_transfer,
    identity_circuit,
    instances_commute,
)
from qshift.simulator import impulse_response, recommended_horizon
from qshift.synthesis import (
    CatastrophicCode,
    NotDualContaining,
    SynthesisError,
    compile_sequence,
    constraint_lengths,
    css_encoder,
    format_sequence,
    parse_sequence,
    reduce_memory,
    sequence_transfer,
    smith_normal_form,
    typeII_memory_bound,
    unencoded_stabilizer,
)
from test_circuit import gate_lists_with_identities, mixed_gate_lists
from test_symplectic import block_diag_zx

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


def pmat(rows):
    return [[pp(e) for e in row] for row in rows]


def pmat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
             for j in range(len(b[0]))] for i in range(len(a))]


def _b_inverse(sm):
    """Identity with the recorded column operations replayed in order."""
    k = len(sm.b)
    out = [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]
    for op in sm.col_ops:
        for row in out:
            if op.kind == "swap":
                row[op.src], row[op.dst] = row[op.dst], row[op.src]
            elif row[op.src]:
                row[op.dst] = row[op.dst] + op.f * row[op.src]
    return out


def assert_decomposition(sm, original):
    recon = pmat_mul(pmat_mul([list(r) for r in sm.a], [list(r) for r in sm.s]),
                     [list(r) for r in sm.b])
    shifted = [[e.shift(sm.monomial_shift) for e in row] for row in original]
    assert [tuple(r) for r in recon] == [tuple(r) for r in shifted]
    # unimodularity: replaying the recorded self-inverse operations undoes a and b
    b_inv = _b_inverse(sm)
    ident = pmat_mul([list(r) for r in sm.b], b_inv)
    k = len(ident)
    assert ident == [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]


def test_smith_single_row():
    m = pmat([["1", "D", "1+D"]])
    sm = smith_normal_form(m)
    assert list(sm.diagonal) == [ONE]
    assert sm.s == ((ONE, ZERO, ZERO),)
    assert sm.b[0] == (ONE, pp("D"), pp("1+D"))  # top row recovers the input
    assert_decomposition(sm, m)


def test_smith_identity():
    m = pmat([["1", "0"], ["0", "1"]])
    sm = smith_normal_form(m)
    assert [list(r) for r in sm.a] == m
    assert [list(r) for r in sm.s] == m
    assert [list(r) for r in sm.b] == m


def test_smith_1x1_monomial():
    sm = smith_normal_form(pmat([["D"]]))
    assert sm.s == ((pp("D"),),)
    assert sm.a == ((ONE,),) and sm.b == ((ONE,),)


def test_smith_divisibility_chain():
    m = pmat([["1+D", "0"], ["0", "1+D^2"]])
    sm = smith_normal_form(m)
    d = sm.diagonal
    assert all(d)
    from qshift.gf2poly import poly_divmod
    assert not poly_divmod(d[1], d[0])[1]
    assert_decomposition(sm, m)


def test_smith_round_trip_randomized():
    rng = random.Random(606)
    for _ in range(200):
        nr = rng.randint(1, 4)
        nc = rng.randint(nr, 6)
        m = [[LaurentPoly([rng.randint(0, 3) for _ in range(rng.randint(0, 2))])
              for _ in range(nc)] for _ in range(nr)]
        if not any(any(r) for r in m):
            continue
        sm = smith_normal_form([row[:] for row in m])
        assert_decomposition(sm, m)
        d = list(sm.diagonal)
        # invariant factors divide successively
        from qshift.gf2poly import poly_divmod
        for k in range(len(d) - 1):
            if d[k] and d[k + 1]:
                assert not poly_divmod(d[k + 1], d[k])[1]


def test_smith_laurent_normalization():
    m = pmat([["D^-1+1", "D"]])
    sm = smith_normal_form(m)
    assert sm.monomial_shift == 1
    assert_decomposition(sm, m)


def test_unencoded_stabilizer():
    s = unencoded_stabilizer(3, 1, 1)
    assert s.rows[0] == (ZERO, ZERO, ZERO, ONE, ZERO, ZERO)
    assert s.rows[1] == (ZERO, ONE, ZERO, ZERO, ZERO, ZERO)
    assert unencoded_stabilizer(1, 0, 0).num_rows == 0
    two_x = unencoded_stabilizer(2, 2, 0)
    assert two_x.rows[0] == (ZERO, ZERO, ONE, ZERO)
    assert two_x.rows[1] == (ZERO, ZERO, ZERO, ONE)
    with pytest.raises(ValueError):
        unencoded_stabilizer(2, 2, 1)


def css_example():
    return [[ONE, pp("D"), pp("1+D")]], [[pp("D"), ONE, pp("1+D")]]


def test_css_encoder_example_plan():
    hx, hz = css_example()
    plan = css_encoder(hx, hz)
    assert plan.memory_bound == 1
    # every op is CNOT-type
    assert all(g.kind == "CNOT" for g in plan.ops)
    # the overall matrix matches the explicit encoding matrix
    expected = block_diag_zx(
        pmat([["1", "0", "0"], ["D", "1", "1+D"], ["1+D^-1", "0", "1"]]),
        pmat([["1", "D", "1+D"], ["0", "1", "0"], ["0", "1+D^-1", "1"]]))
    assert plan.b_overall == expected
    # plan invariant: the ordered gate product is the encoding matrix
    prod = SympMatrix.identity(3)
    for g in plan.ops:
        prod = prod @ gate_matrix(g, 3)
    assert prod == plan.b_overall


def test_css_encoder_replay_row_space():
    hx, hz = css_example()
    plan = css_encoder(hx, hz)
    stab = unencoded_stabilizer(3, len(hx), len(hz))
    for g in plan.ops:
        stab = stab.apply(gate_matrix(g, 3))
    assert row_space_equiv(stab, plan.target)


def test_css_encoder_reduced_circuit_memory():
    hx, hz = css_example()
    circ = css_encoder(hx, hz).circuit()
    assert circ.m == 1


def test_css_encoder_trivial_code():
    plan = css_encoder([[ONE, ZERO]], [[ZERO, ONE]])
    assert plan.ops == ()
    assert plan.memory_bound == 0


def test_css_encoder_rejects_non_dual():
    with pytest.raises(NotDualContaining):
        css_encoder([[ONE]], [[ONE]])


def test_css_encoder_rejects_catastrophic():
    # X check D has Smith diagonal D, not a unit
    with pytest.raises(CatastrophicCode):
        css_encoder([[pp("D"), ZERO]], [[ZERO, pp("D")]])


def test_css_encoder_rejects_no_check_rows():
    with pytest.raises(SynthesisError, match="^no check rows$"):
        css_encoder([], [])
    # empty CSS parts as tuples; a zero generator row is rejected where
    # the stabilizer is built (test_stabilizer_rejects_zero_row)
    with pytest.raises(SynthesisError, match="^no check rows$"):
        css_encoder((), ())


@pytest.mark.parametrize("hx, hz, phase", [
    ([[ONE, ONE], [ONE, ONE]], [], "X"),
    ([[ZERO, ZERO]], [[ONE, ONE]], "X"),
    ([], [[ONE, ONE], [ONE, ONE]], "Z"),
    ([[ONE] * 4], [[ONE, ONE, ZERO, ZERO], [pp("D"), pp("D"), ZERO, ZERO]], "Z"),
])
def test_css_encoder_rejects_dependent_rows(hx, hz, phase):
    # a rank deficit is not a catastrophic code: the Smith diagonal is not even full
    with pytest.raises(SynthesisError,
                       match=f"^{phase} check rows are linearly dependent$") as exc:
        css_encoder(hx, hz)
    assert not isinstance(exc.value, CatastrophicCode)


def test_css_encoder_rejects_laurent_input():
    with pytest.raises(ValueError):
        css_encoder([[pp("D^-1"), ONE]], [])


def _random_css_code(rng, n, s_x, s_z, max_gates, max_exp):
    """(hx, hz) of fresh ancillas under random delay-free CNOTs, each row
    shifted to delay 0; None when a row mixes Z and X."""
    stab = unencoded_stabilizer(n, s_x, s_z)
    for _ in range(rng.randint(1, max_gates)):
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        while j == i:
            j = rng.randint(1, n)
        f = LaurentPoly([rng.randint(0, max_exp) for _ in range(rng.randint(1, 2))])
        if not f:
            continue
        stab = stab.apply(gate_matrix(Gate("CNOT", (i, j), f), n))
    hx, hz = [], []
    for row in stab.rows:
        z, x = row[:n], row[n:]
        if any(x) and not any(z):
            hx.append(list(x))
        elif any(z) and not any(x):
            hz.append(list(z))
        else:
            return None

    def norm(r):
        d = min((e.delay for e in r if e), default=0)
        return [e.shift(-d) for e in r] if d else r

    return [norm(r) for r in hx], [norm(r) for r in hz]


def test_css_encoder_random_plans():
    rng = random.Random(2718)
    tested = 0
    kinds = set()  # (no X checks, no Z checks) of each tested code
    while tested < 40:
        n = rng.randint(2, 4)
        s_x = rng.randint(0, n - 1)
        s_z = rng.randint(0 if s_x else 1, n - s_x)
        code = _random_css_code(rng, n, s_x, s_z, 4, 2)
        if code is None:
            continue
        hx, hz = code
        try:
            plan = css_encoder(hx, hz)
        except (CatastrophicCode, NotDualContaining):
            continue
        tested += 1
        replay = unencoded_stabilizer(n, len(hx), len(hz))
        for g in plan.ops:
            replay = replay.apply(gate_matrix(g, n))
        assert row_space_equiv(replay, plan.target)
        assert plan.circuit().m <= plan.memory_bound
        # the encoding matrix is the dense product of the gates, in order
        prod = SympMatrix.identity(n)
        for g in plan.ops:
            prod = prod @ gate_matrix(g, n)
        assert plan.b_overall == prod
        assert plan.memory_bound == prod.abs_deg()
        kinds.add((len(hx) == 0, len(hz) == 0))
    # codes without X checks and codes without Z checks were both drawn
    assert {(True, False), (False, True)} <= kinds


def test_reduce_memory_in_between_chain():
    chain = identity_circuit(2)
    for f in (ONE, pp("D"), pp("D^2")):
        chain = cascade(chain, build_from_gate(Gate("CNOT", (1, 2), f), 2))
    assert chain.m == 3
    reduced = reduce_memory(chain)
    assert reduced.m == 2
    before, lat_b = circuit_transfer(chain)
    after, lat_a = circuit_transfer(reduced)
    assert before == after
    assert (lat_b, lat_a) == (3, 2)


def test_reduce_memory_primitive_fixed_points():
    for circ in (build_from_gate(Gate("CNOT", (1, 2), pp("1+D+D^2")), 2),
                 build_from_gate(Gate("CPHASE1", (1,), pp("D+D^2")), 1),
                 build_from_gate(Gate("DELAY", (1,), pp("D^2")), 2)):
        assert reduce_memory(circ) == circ


def test_reduce_memory_never_increases_and_preserves_transfer():
    rng = random.Random(515)
    for _ in range(40):
        n = rng.randint(2, 4)
        circ = identity_circuit(n)
        for _ in range(rng.randint(1, 5)):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            while j == i:
                j = rng.randint(1, n)
            kind = rng.choice(("CNOT", "CPHASE"))
            f = LaurentPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 2))])
            if not f:
                continue
            circ = cascade(circ, build_from_gate(Gate(kind, (i, j), f), n))
        reduced = reduce_memory(circ)
        assert reduced.m <= circ.m
        t0, _ = circuit_transfer(circ)
        t1, _ = circuit_transfer(reduced)
        assert t0.equal_mod_monomial(t1) is not None
        # simulator oracle agrees
        lat, resp = impulse_response(reduced, recommended_horizon(circ))
        assert resp == t1


def test_reduce_memory_frozen_after_feedback():
    inf = build_from_gate(Gate("INF_Z", (1,), pp("1+D")), 2)
    tail = build_from_gate(Gate("CNOT", (1, 2), pp("D")), 2)
    c = cascade(inf, tail)
    assert reduce_memory(c) == c  # downstream gates are frozen


def test_compile_sequence_css_example():
    ops = parse_sequence("CNOT 3 2 D^-1+1\nCNOT 1 2 D\nCNOT 1 3 1+D\n")
    circ = compile_sequence(ops, 3)
    assert circ.m == 1
    t, _ = circuit_transfer(circ)
    assert t.equal_mod_monomial(sequence_transfer(ops, 3)) is not None


def test_compile_sequence_single_monomial():
    for l in (1, 3, 5):
        circ = compile_sequence([Gate("CNOT", (1, 2), LaurentPoly.monomial(l))], 2)
        assert circ.m == l


def test_compile_sequence_fgg():
    ops = parse_sequence(FGG_SEQUENCE)
    circ = compile_sequence(ops, 3)
    assert circ.m == 5
    t, _ = circuit_transfer(circ)
    assert t.equal_mod_monomial(sequence_transfer(ops, 3)) is not None


def test_sequence_text_round_trip():
    ops = parse_sequence(FGG_SEQUENCE)
    assert format_sequence(ops) == FGG_SEQUENCE
    with pytest.raises(ValueError):
        parse_sequence("")
    with pytest.raises(ValueError):
        parse_sequence("CNOT 1 2 D^\n")


def test_memory_bound_random_cnot_cascades():
    # delay-free elementary column operations, the encoder's alphabet
    rng = random.Random(424)
    for _ in range(60):
        n = rng.randint(2, 4)
        ops = []
        for _ in range(rng.randint(1, 6)):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            while j == i:
                j = rng.randint(1, n)
            f = LaurentPoly([rng.randint(0, 4) for _ in range(rng.randint(1, 3))])
            if not f:
                continue
            ops.append(Gate("CNOT", (i, j), f))
        if not ops:
            continue
        circ = compile_sequence(ops, n)
        assert circ.m <= sequence_transfer(ops, n).abs_deg()


def fgg_stabilizer():
    # generator rows of the three-qubit-per-frame example code
    return StabilizerMatrix(3, [
        [pp("1+D"), ONE, pp("1+D"), ZERO, pp("D"), pp("D")],
        [ZERO, pp("D"), pp("D"), pp("1+D"), pp("1+D"), ONE],
    ])


def test_constraint_lengths():
    nus, nu, m = constraint_lengths(fgg_stabilizer())
    assert nus == [1, 1] and nu == 2 and m == 1
    hx, hz = css_example()
    nus, nu, m = constraint_lengths(StabilizerMatrix.from_css(hx, hz))
    assert nus == [1, 1] and nu == 2 and m == 1
    zero_deg = unencoded_stabilizer(3, 1, 1)
    assert constraint_lengths(zero_deg) == ([0, 0], 0, 0)


def test_typeII_memory_bound():
    ident = SympMatrix.identity(2)
    assert typeII_memory_bound([pp("1+D")], ident, ident) == 1
    l_layer = gate_matrix(Gate("CNOT", (1, 2), pp("D")), 2)
    b_layer = gate_matrix(Gate("CNOT", (2, 1), pp("1+D")), 2)
    assert typeII_memory_bound([ONE, pp("1+D^2")], l_layer, b_layer) == 4
    assert typeII_memory_bound([ONE], ident, ident) == 0


# The reducer's scans visit only placements that share a datum with the one
# in question; these references visit every pair, as the scans once did.

def _cancel_full_scan(pls):
    for a in range(len(pls)):
        for b in range(a + 1, len(pls)):
            if pls[a] == pls[b] and all(instances_commute(pls[a], pls[q], 0)
                                        for q in range(a + 1, b)):
                return [p for i, p in enumerate(pls) if i not in (a, b)]
    return None


def _earliest_stages_full_scan(pls):
    bases = [0] * len(pls)
    shifted = [p.moved_down(min(s for _, s in p.slots)) for p in pls]
    for q in range(len(pls)):
        for k in range(q):
            for (wp, sp) in shifted[k].slots:
                for (wq, sq) in shifted[q].slots:
                    if wp == wq and not instances_commute(shifted[k], shifted[q], sq - sp):
                        bases[q] = max(bases[q], bases[k] + sp - sq)
    return [p.moved_down(-b) for p, b in zip(shifted, bases)]


def _random_placements(rng, count):
    out = []
    while len(out) < count:
        kind = rng.choice(PLACEMENT_KINDS)
        a = (rng.randint(1, 3), rng.randint(0, 3))
        if kind in ("H", "P"):
            out.append(Placement(kind, a))
            continue
        b = (rng.randint(1, 3), rng.randint(0, 3))
        if b != a:
            out.append(Placement(kind, a, b))
    return out


def test_indexed_reduction_scans_match_full_scans():
    rng = random.Random(2024)
    for _ in range(400):
        pls = _random_placements(rng, rng.randint(2, 9))
        if rng.random() < 0.5:  # plant copies for the cancellation scan
            pls.insert(rng.randint(0, len(pls)), rng.choice(pls))
        assert synthesis._cancel_identical_pair(pls) == _cancel_full_scan(pls)
        assert synthesis._earliest_stages(pls) == _earliest_stages_full_scan(pls)


def test_merged_involutions_leave_no_gate():
    ops = [Gate("H", (1,)), Gate("CNOT", (2, 3), pp("D")), Gate("H", (1,)),
           Gate("P", (2,)), Gate("P", (2,))]
    assert synthesis._simplify_ops(ops, 3) == [Gate("CNOT", (2, 3), pp("D"))]
    assert synthesis._simplify_ops([Gate("CNOT", (1, 2), pp("D"))] * 2, 2) == []


def _greedy_reduce_section(sec):
    """The reducer as a greedy loop, the reference for the one-pass scheduler.

    A placement moves one stage earlier while its instances commute with
    every instance the move crosses (earlier placements in the same
    cycle, later ones a cycle before); identical pairs cancel; every
    wire drops its last frame while no slot references it.  The three
    steps repeat to a fixed point.
    """
    def movable(pls, idx):
        p = pls[idx]
        if any(stage == 0 for _, stage in p.slots):
            return False
        return all(instances_commute(p, q, 0 if k < idx else -1)
                   for k, q in enumerate(pls) if k != idx)

    depths = list(sec.depths)
    pls = list(sec.placements)
    changed = True
    while changed:
        changed = False
        for idx in range(len(pls)):
            while movable(pls, idx):
                pls[idx] = pls[idx].moved_down()
                changed = True
        cancelled = _cancel_full_scan(pls)
        while cancelled is not None:
            pls, changed = cancelled, True
            cancelled = _cancel_full_scan(pls)
        while depths and all(d >= 1 for d in depths) and all(
                stage < depths[w - 1] for p in pls for w, stage in p.slots):
            depths = [d - 1 for d in depths]
            changed = True
    return FiniteSection(tuple(depths), tuple(pls))


@st.composite
def finite_gate_lists(draw):
    """(n, gates) over every finite gate kind, few wires and short taps.

    Few wires and many gates make the identical pairs, blocked moves and
    moves unblocked by a cancellation that the reducer has to get right.
    """
    n = draw(st.integers(2, 3))
    wire = st.integers(1, n)
    taps = st.lists(st.integers(-2, 2), min_size=1, max_size=2).map(LaurentPoly)
    gates = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(("CNOT", "CPHASE", "CPHASE1", "H", "P", "DELAY")))
        i = draw(wire)
        if kind in ("CNOT", "CPHASE"):
            j = draw(wire.filter(lambda w: w != i))
            gates.append(Gate(kind, (i, j), draw(taps)))
        elif kind == "CPHASE1":
            gates.append(Gate(kind, (i,), LaurentPoly.monomial(draw(st.integers(1, 2)))))
        elif kind == "DELAY":
            gates.append(Gate(kind, (i,), LaurentPoly.monomial(draw(st.integers(0, 2)))))
        else:
            gates.append(Gate(kind, (i,)))
    return n, gates


@settings(max_examples=300, deadline=None)
@given(finite_gate_lists())
def test_reduce_memory_equals_greedy_move_loop(case):
    # DELAY gates give non-uniform depths, which no benchmark workload has
    n, gates = case
    circ = identity_circuit(n)
    for g in gates:
        circ = cascade(circ, build_from_gate(g, n))
    reduced = reduce_memory(circ)
    expected = [_greedy_reduce_section(sec) for sec in circ.sections]
    assert reduced == ShiftRegisterCircuit(
        n, tuple(sec for sec in expected if not sec.is_trivial))
    t0, _ = circuit_transfer(circ)
    t1, _ = circuit_transfer(reduced)
    assert t0.equal_mod_monomial(t1) is not None


def test_compile_keeps_simplified_variant():
    # the merged-pairs variant is the only one that reaches m = 5 here;
    # without it compile_sequence returns m = 6
    ops = parse_sequence(
        "CNOT 1 2 1+D^2+D^3\nH 2\nCPHASE 1 2 D^-2\nCNOT 1 2 D^-1+1+D^3\n"
        "H 1\nCNOT 2 1 D^-1+1+D\nCPHASE 1 2 1\nCNOT 2 1 D^-1+1+D\n")
    circ = compile_sequence(ops, 2)
    assert circ.m == 5
    t, _ = circuit_transfer(circ)
    assert t.equal_mod_monomial(sequence_transfer(ops, 2)) is not None


def _cascade_gates(gates, n):
    circ = identity_circuit(n)
    for g in gates:
        circ = cascade(circ, build_from_gate(g, n))
    return circ


@settings(max_examples=200, deadline=None)
@given(st.one_of(finite_gate_lists(), mixed_gate_lists()))
def test_span_floor_bounds_reduced_memory(case):
    n, gates = case
    circ = _cascade_gates(gates, n)
    assert synthesis._span_floor(circ) <= reduce_memory(circ).m


def _block_by_block_cascade(ops, n):
    """One primitive block per gate, merged by ``_canonical_sections``.

    The reference for ``_cascade_all``, which places every tap at its
    final stage in one pass instead.
    """
    sections = [sec for gate in ops for sec in build_from_gate(gate, n).sections]
    return ShiftRegisterCircuit(n, circuit_mod._canonical_sections(sections))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(gate_lists_with_identities(), st.integers(-1, 0))
@example((2, [Gate("CPHASE1", (1,), ZERO), Gate("DELAY", (2,), pp("D^2")),
              Gate("INF_Z", (2,), pp("1+D")), Gate("H", (1,)),
              Gate("CNOT", (2, 1), pp("D^-1+D^2")), Gate("INF_X", (1,), pp("1+D^2")),
              Gate("CPHASE1", (2,), pp("D+D^2"))]), 0)
@example((3, [Gate("CNOT", (1, 2), ONE), Gate("CPHASE", (3, 1), ZERO)]), -1)
@example((3, [Gate("P", (1,)), Gate("INF_X", (3,), pp("1+D"))]), -1)
@example((3, [Gate("DELAY", (3,), pp("D")), Gate("CPHASE1", (3,), pp("D"))]), -1)
def test_cascade_all_equals_block_by_block_cascade(case, narrow):
    n, gates = case
    # one wire fewer puts some gates past the last wire: same error expected
    width = n + narrow
    expected = _outcome(_block_by_block_cascade, gates, width)
    assert _outcome(circuit_mod._cascade_all, gates, width) == expected
    if narrow == 0:
        assert expected == _cascade_gates(gates, n)
        assert circuit_to_text(circuit_mod._cascade_all(gates, n)) == circuit_to_text(expected)


# The compile search as it was before its lower bounds: every ordering of
# the DAG edges is scheduled and every variant is transfer-checked and
# reduced; the first with the lowest m wins.

def _edge_taps(order, edges):
    placements = []
    for (i, j) in order:
        for e in sorted(edges[(i, j)].support):
            placements.append(Placement("CNOT", (i + 1, max(e, 0)),
                                        (j + 1, max(-e, 0))))
    return placements


def _dag_exhaustive(ops, n, total):
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
    succ = {i: {j for (a, j) in edges if a == i} for i in range(n)}
    indeg = {j: sum(j in s for s in succ.values()) for j in range(n)}
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
        return None
    if len(edges) <= 5:
        orderings = list(itertools.permutations(edges))
    else:
        orderings = [
            tuple(sorted(edges, key=lambda e: (-pos[e[0]], pos[e[1]]))),
            tuple(sorted(edges, key=lambda e: (pos[e[0]], pos[e[1]]))),
            tuple(sorted(edges, key=lambda e: (pos[e[1]], pos[e[0]]))),
            tuple(sorted(edges, key=lambda e: (-pos[e[1]], -pos[e[0]]))),
        ]
    best = None
    for order in orderings:
        if not synthesis._edge_product_matches(order, edges, x, n):
            continue
        placed = synthesis._earliest_stages(_edge_taps(order, edges))
        m = max((s for p in placed for _, s in p.slots), default=0)
        if best is None or m < best[0]:
            best = (m, order)
    if best is None:
        return None
    return [Gate("CNOT", (i + 1, j + 1), edges[(i, j)]) for i, j in best[1]], best[0]


def _compile_exhaustive(ops, n):
    ops = list(ops)
    total = sequence_transfer(ops, n)
    variants = [ops]
    unswapped = synthesis._push_swaps_back(ops, n)
    if unswapped != ops:
        variants.append(unswapped)
    simplified = synthesis._simplify_ops(list(unswapped), n)
    if simplified not in variants:
        variants.append(simplified)
    dag = _dag_exhaustive(ops, n, total)
    for cand in (dag and dag[0], synthesis._cnot_euclid_candidate(ops, n, total)):
        if cand is not None and cand not in variants:
            variants.append(cand)
    variants = [v for v in variants if v is ops or sequence_transfer(v, n) == total]
    return min((reduce_memory(_cascade_gates(v, n)) for v in variants), key=lambda c: c.m)


@st.composite
def cnot_gate_lists(draw):
    """(n, gates): CNOT-only lists with signed taps, the DAG and Euclid input."""
    n = draw(st.integers(2, 4))
    wire = st.integers(1, n)
    taps = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(LaurentPoly)
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        i = draw(wire)
        gates.append(Gate("CNOT", (i, draw(wire.filter(lambda w: w != i))), draw(taps)))
    return n, gates


@settings(max_examples=150, deadline=None)
@given(st.one_of(cnot_gate_lists(), finite_gate_lists(), mixed_gate_lists()))
# Cancelling cross terms let a later product-matching DAG ordering schedule
# lower than the first one: m 5 here, 7 from the first matching ordering
@example((5, parse_sequence("CNOT 1 2 D+D^5\nCNOT 4 2 D^2\n"
                            "CNOT 5 4 D+D^5\nCNOT 5 1 D^2\n")))
# six edges: m 6 only from the second sorted ordering, 8 from the first
@example((6, parse_sequence("CNOT 1 5 D^-2+D\nCNOT 6 5 D^2+D^4\nCNOT 2 5 D^-1+D^4\n"
                            "CNOT 3 2 D^-3+D^-1+D^2+D^4\nCNOT 1 4 D^-2\n"
                            "CNOT 3 6 D^-6+D^4\n")))
def test_compile_sequence_equals_exhaustive_selection(case):
    n, gates = case
    assert compile_sequence(gates, n) == _compile_exhaustive(gates, n)


def test_dag_candidate_equals_exhaustive_orderings():
    # acyclic products: every edge runs forward in a random wire order,
    # several edges on one pair, so cross terms and cancellations occur
    rng = random.Random(6061)
    above_floor = cases = 0
    while cases < 400:
        n = rng.randint(2, 4)
        order = rng.sample(range(1, n + 1), n)
        ops = []
        for _ in range(rng.randint(1, 7)):
            a, b = sorted(rng.sample(range(n), 2))
            f = LaurentPoly(rng.sample(range(-3, 4), rng.randint(1, 3)))
            ops.append(Gate("CNOT", (order[a], order[b]), f))
        total = sequence_transfer(ops, n)
        expected = _dag_exhaustive(ops, n, total)
        if not expected:
            continue
        cases += 1
        floor = max(abs(e) for g in expected[0] for e in g.poly.support)
        above_floor += expected[1] > floor
        assert synthesis._cnot_dag_candidate(ops, n, total) == expected[0]
    assert above_floor >= 25


def test_encoder_circuits_equal_exhaustive_selection():
    # encoder gate lists are where later variants win most often
    rng = random.Random(8080)
    tested = 0
    while tested < 150:
        n = rng.randint(3, 5)
        s_x = rng.randint(1, n - 2)
        code = _random_css_code(rng, n, s_x, rng.randint(1, n - 1 - s_x), 4, 3)
        if code is None:
            continue
        try:
            plan = css_encoder(*code)
        except (CatastrophicCode, NotDualContaining):
            continue
        tested += 1
        assert plan.circuit() == _compile_exhaustive(plan.ops, n)


def test_compile_takes_dag_variant_below_the_others():
    # the DAG factorization is the only variant that reaches m = 5 here
    ops = parse_sequence("CNOT 4 2 D^-2\nCNOT 2 1 D^-3+D^-1+1\n"
                         "CNOT 3 2 D^-4+D^2+D^4\nCNOT 4 1 D\n")
    total = sequence_transfer(ops, 4)
    dag = synthesis._cnot_dag_candidate(ops, 4, total)
    circ = compile_sequence(ops, 4)
    assert circ.m == 5
    assert circ == reduce_memory(_cascade_gates(dag, 4)) == _compile_exhaustive(ops, 4)


# ---------------------------------------------------------------------------
# The causal floor that stops the compile search


def _floor_gates(case):
    """(n, gates) without the DELAY and feedback gates the floor excludes."""
    n, gates = case
    return n, [g for g in gates if g.kind not in ("DELAY", "INF_Z", "INF_X")]


def _compile_candidates(ops, n, total):
    """Every candidate ``compile_sequence`` may build, unbounded and unpruned."""
    unswapped = synthesis._push_swaps_back(ops, n)
    return [v for v in (ops, unswapped, synthesis._simplify_ops(list(unswapped), n),
                        synthesis._cnot_dag_candidate(ops, n, total),
                        synthesis._cnot_euclid_candidate(ops, n, total))
            if v is not None]


@settings(max_examples=200, deadline=None)
@given(st.one_of(cnot_gate_lists(), finite_gate_lists().map(_floor_gates),
                 mixed_gate_lists().map(_floor_gates)))
def test_causal_floor_bounds_every_candidate(case):
    n, gates = case
    total = sequence_transfer(gates, n)
    floor = synthesis._causal_floor(gates, total)
    assert floor is not None
    for v in _compile_candidates(gates, n, total):
        if v is not gates and sequence_transfer(v, n) != total:
            continue  # compile_sequence never takes it
        reduced = reduce_memory(circuit_mod._cascade_all(v, n))
        assert floor <= reduced.m
        # the reduced circuit's absolute transfer is the product delayed by m
        t, lat = circuit_transfer(reduced)
        assert t.shifted(lat) == total.shifted(reduced.m)


def _count_compile_steps(monkeypatch):
    """Count reductions and candidate builds made by ``compile_sequence``."""
    calls = {}
    for name in ("reduce_memory", "_push_swaps_back", "_simplify_ops",
                 "_cnot_dag_candidate", "_cnot_euclid_candidate"):
        def counted(*args, _fn=getattr(synthesis, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(synthesis, name, counted)
    return calls


def test_compile_stops_at_causal_floor(monkeypatch):
    ops = parse_sequence("CNOT 1 2 D^3\n")
    assert synthesis._causal_floor(ops, sequence_transfer(ops, 2)) == 3
    calls = _count_compile_steps(monkeypatch)
    circ = compile_sequence(ops, 2)
    assert circ.m == 3
    # the gates as given reach the floor: one reduction, no other candidate
    assert calls == {"reduce_memory": 1}


@pytest.mark.parametrize("text", [
    "CNOT 1 2 D^3\nDELAY 2 1\n",
    "INFZ 2 1+D\nCNOT 1 2 D^3\n",
    "INFX 1 1+D^2\n",
], ids=["delay", "inf-z", "inf-x"])
def test_compile_without_causal_floor_tries_every_candidate(monkeypatch, text):
    ops = parse_sequence(text)
    assert synthesis._causal_floor(ops, sequence_transfer(ops, 2)) is None
    calls = _count_compile_steps(monkeypatch)
    compile_sequence(ops, 2)
    assert {name: k for name, k in calls.items() if name != "reduce_memory"} == {
        "_push_swaps_back": 1, "_simplify_ops": 1,
        "_cnot_dag_candidate": 1, "_cnot_euclid_candidate": 1}


@st.composite
def encoded_css_codes(draw):
    """(n, hx, hz): the image of fresh ancillas under a random CNOT encoder.

    Each row is shifted to delay 0; the code is dual-containing because
    it is the image of a stabilizer under a symplectic map.
    """
    n = draw(st.integers(2, 5))
    s_x = draw(st.integers(0, n - 1))
    s_z = draw(st.integers(0 if s_x else 1, n - s_x))
    taps = st.lists(st.integers(0, 3), min_size=1, max_size=2).map(LaurentPoly)
    stab = unencoded_stabilizer(n, s_x, s_z)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(1, n))
        j = draw(st.integers(1, n - 1))
        g = Gate("CNOT", (i, j + (j >= i)), draw(taps))
        stab = stab.apply(gate_matrix(g, n))

    def norm(r):
        d = min(e.delay for e in r if e)
        return [e.shift(-d) for e in r]

    rows = stab.rows
    return (n, [norm(r[n:]) for r in rows[:s_x]], [norm(r[:n]) for r in rows[s_x:]])


@settings(max_examples=80, deadline=None)
@given(encoded_css_codes())
def test_css_encoder_plans_of_encoded_codes(code):
    n, hx, hz = code
    try:
        plan = css_encoder(hx, hz)
    except CatastrophicCode:
        # monomial Smith diagonals are still refused (ROADMAP item 1); the
        # property is about the plans the encoder does return
        assume(False)
    fresh = unencoded_stabilizer(n, len(hx), len(hz))
    replay = fresh
    for g in plan.ops:
        replay = replay.apply(gate_matrix(g, n))
    assert row_space_equiv(replay, plan.target)
    circ = plan.circuit()
    transfer, _ = circuit_transfer(circ)
    assert row_space_equiv(fresh.apply(transfer), StabilizerMatrix.from_css(hx, hz))
    assert circ.m >= synthesis._causal_floor(plan.ops, plan.b_overall)
