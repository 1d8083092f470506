import random

import pytest

from qshift.gf2poly import LaurentPoly, ONE, ZERO, parse_poly as pp
from qshift.symplectic import Gate, StabilizerMatrix, SympMatrix, gate_matrix, row_space_equiv
from qshift import synthesis
from qshift.circuit import (
    PLACEMENT_KINDS,
    Placement,
    build_from_gate,
    cascade,
    circuit_transfer,
    identity_circuit,
    instances_commute,
)
from qshift.simulator import impulse_response, recommended_horizon
from qshift.synthesis import (
    CatastrophicCode,
    NotDualContaining,
    compile_sequence,
    constraint_lengths,
    css_encoder,
    format_sequence,
    memory_bound_css,
    parse_sequence,
    reduce_memory,
    sequence_transfer,
    smith_normal_form,
    typeII_memory_bound,
    unencoded_stabilizer,
)

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


def assert_decomposition(sm, original):
    recon = pmat_mul(pmat_mul([list(r) for r in sm.a], [list(r) for r in sm.s]),
                     [list(r) for r in sm.b])
    shifted = [[e.shift(sm.monomial_shift) for e in row] for row in original]
    assert [tuple(r) for r in recon] == [tuple(r) for r in shifted]
    # unimodularity: replaying the recorded self-inverse operations undoes a and b
    b_inv = sm.b_inverse()
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
    assert memory_bound_css(plan) == 1
    # every op is CNOT-type
    assert all(g.kind == "CNOT" for g in plan.ops)
    # the overall matrix matches the explicit encoding matrix
    expected = SympMatrix.block_diag_zx(
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


def test_css_encoder_rejects_laurent_input():
    with pytest.raises(ValueError):
        css_encoder([[pp("D^-1"), ONE]], [])


def test_css_encoder_random_plans():
    rng = random.Random(2718)
    tested = 0
    while tested < 40:
        n = rng.randint(2, 4)
        s_x = rng.randint(0, n - 1)
        s_z = rng.randint(0 if s_x else 1, n - s_x)
        stab = unencoded_stabilizer(n, s_x, s_z)
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            while j == i:
                j = rng.randint(1, n)
            f = LaurentPoly([rng.randint(0, 2) for _ in range(rng.randint(1, 2))])
            if not f:
                continue
            stab = stab.apply(gate_matrix(Gate("CNOT", (i, j), f), n))
        hx, hz = [], []
        ok = True
        for row in stab.rows:
            z, x = row[:n], row[n:]
            if any(x) and not any(z):
                hx.append(list(x))
            elif any(z) and not any(x):
                hz.append(list(z))
            else:
                ok = False
        if not ok:
            continue

        def norm(r):
            d = min((e.delay for e in r if e), default=0)
            return [e.shift(-d) for e in r] if d else r

        hx = [norm(r) for r in hx]
        hz = [norm(r) for r in hz]
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

def _movable_full_scan(pls, idx):
    p = pls[idx]
    if any(stage == 0 for _, stage in p.slots):
        return False
    return all(instances_commute(p, q, 0 if k < idx else -1)
               for k, q in enumerate(pls) if k != idx)


def _cancel_full_scan(pls):
    for a in range(len(pls)):
        for b in range(a + 1, len(pls)):
            if pls[a] == pls[b] and all(instances_commute(pls[a], pls[q], 0)
                                        for q in range(a + 1, b)):
                return [p for i, p in enumerate(pls) if i not in (a, b)]
    return None


def _reschedule_bases_full_scan(pls):
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
        users = synthesis._slot_users(pls)
        for idx in range(len(pls)):
            assert synthesis._movable(pls, idx, users) == _movable_full_scan(pls, idx)
        assert synthesis._cancel_identical_pair(pls) == _cancel_full_scan(pls)
        sec = synthesis._reschedule(pls, 3)
        assert list(sec.placements) == _reschedule_bases_full_scan(pls)


def test_merged_involutions_leave_no_gate():
    ops = [Gate("H", (1,)), Gate("CNOT", (2, 3), pp("D")), Gate("H", (1,)),
           Gate("P", (2,)), Gate("P", (2,))]
    assert synthesis._simplify_ops(ops, 3) == [Gate("CNOT", (2, 3), pp("D"))]
    assert synthesis._simplify_ops([Gate("CNOT", (1, 2), pp("D"))] * 2, 2) == []
