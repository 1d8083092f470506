import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from qshift.gf2poly import LaurentPoly, ONE, ZERO, ParseError, parse_poly as pp
from qshift.symplectic import (
    Gate,
    StabilizerMatrix,
    SympMatrix,
    apply_gates,
    dual_containing,
    gate_matrix,
    gates_commute,
    lam,
    pairing,
    parse_gate,
    row_space_equiv,
)
from qshift.synthesis import sequence_transfer

from test_circuit import closed_form, gate_lists_with_identities


def cnot(i, j, f, n):
    return gate_matrix(Gate("CNOT", (i, j), pp(f)), n)


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("CNOT", (1, 1), ONE)
    with pytest.raises(ValueError):
        Gate("CPHASE1", (1,), pp("1+D"))  # constant term is a P gate
    with pytest.raises(ValueError):
        Gate("INF_Z", (1,), pp("D+D^2"))  # delay must be 0
    with pytest.raises(ValueError):
        Gate("INF_X", (1,), ONE)  # degree must be >= 1
    with pytest.raises(ValueError):
        Gate("H", (1,), ONE)
    with pytest.raises(ValueError):
        Gate("DELAY", (1,), pp("1+D"))
    # a gate is a value: equal fields, equal objects and hashes
    g, h = Gate("CNOT", [1, 2], pp("1+D")), Gate("CNOT", (1, 2), pp("D+1"))
    assert g == h and hash(g) == hash(h) and g.wires == (1, 2)
    assert g != Gate("CNOT", (2, 1), pp("1+D")) != Gate("CPHASE", (2, 1), pp("1+D"))
    assert len({g, h, Gate("H", (1,)), Gate("H", (1,))}) == 2
    assert repr(Gate("H", (1,))) == "Gate(kind='H', wires=(1,), poly=None)"


def test_gate_text_round_trip():
    for line in ("CNOT 3 2 D^-1+1", "CPHASE 1 3 D^-1+1+D", "CPHASE1 1 D",
                 "H 1", "P 2", "DELAY 1 2", "INFZ 2 1+D", "INFX 1 1+D^3"):
        assert str(parse_gate(line)) == line
    # non-canonical spelling parses to the same gate
    assert parse_gate("CNOT 3 2 1+D^-1") == parse_gate("CNOT 3 2 D^-1+1")
    with pytest.raises(ParseError):
        parse_gate("NOPE 1 2")
    with pytest.raises(ParseError):
        parse_gate("CNOT 1 2")


@pytest.mark.parametrize("kind, wires, poly, message", [
    ("SWAP", (1, 2), None, "unknown gate kind 'SWAP'"),
    ("CNOT", (0, 2), "1", "wires are numbered from 1"),
    ("H", (0,), None, "wires are numbered from 1"),
    ("CNOT", (1,), "1", "CNOT acts on two distinct wires"),
    ("CPHASE", (2, 2), "1", "CPHASE acts on two distinct wires"),
    ("H", (1, 2), None, "H acts on one wire"),
    ("INF_X", (), "1+D", "INF_X acts on one wire"),
    ("CNOT", (1, 2), None, "CNOT needs a polynomial f"),
    ("CPHASE1", (1,), None, "CPHASE1 needs a polynomial f"),
    ("INF_Z", (1,), None, "INF_Z needs a polynomial f"),
    ("P", (1,), "1", "P takes no polynomial"),
    ("DELAY", (1,), None, "DELAY needs a shift l, the monomial D^l with l >= 0"),
    ("DELAY", (1,), "D^-1", "DELAY needs a shift l, the monomial D^l with l >= 0"),
    ("CPHASE1", (1,), "1+D", "self-phase at lag 0 is a P gate"),
    ("INF_Z", (1,), "D+D^2", "feedback polynomial must have delay 0 and degree >= 1"),
    ("INF_X", (1,), "1", "feedback polynomial must have delay 0 and degree >= 1"),
    ("INF_Z", (0,), "1+D", "wires are numbered from 1"),
])
def test_gate_shape_refusals(kind, wires, poly, message):
    # every refusal reads its kind's shape from symplectic.GATE_SHAPES
    with pytest.raises(ValueError) as exc:
        Gate(kind, wires, None if poly is None else pp(poly))
    assert str(exc.value) == message


@pytest.mark.parametrize("line, message", [
    ("", "empty gate line"),
    ("NOPE 1 2", "unknown gate mnemonic 'NOPE'"),
    ("CNOT 1 2", "CNOT expects: CNOT i j f"),
    ("cphase 1 2 3 4", "CPHASE expects: CPHASE i j f"),
    ("CPHASE1 1", "CPHASE1 expects: CPHASE1 w f"),
    ("H 1 D", "H expects: H w"),
    ("P", "P expects: P w"),
    ("DELAY 1", "DELAY expects: DELAY w l"),
    ("INFZ 1", "INFZ expects: INFZ w f"),
    ("INFX 1 2 1+D", "INFX expects: INFX w f"),
    # int() used to read the last two as CNOT 1 2 D and H 1
    ("CNOT a 2 D", "bad wire 'a'"),
    ("CNOT 1 0_2 D", "bad wire '0_2'"),
    ("H \u0661", "bad wire '\u0661'"),
    ("DELAY 1 x", "bad gate line 'DELAY 1 x': invalid literal for int() with base 10: 'x'"),
    ("INFZ 1 D", "bad gate line 'INFZ 1 D': feedback polynomial must have delay 0 "
                 "and degree >= 1"),
])
def test_parse_gate_refusals(line, message):
    with pytest.raises(ParseError) as exc:
        parse_gate(line)
    assert str(exc.value) == message


def test_cnot_matrix_unit_delay_combo():
    # two-wire combo with f0 = f1 = 1: f(D) in the X block, f(D^-1) in Z
    m = cnot(1, 2, "1+D", 2)
    assert m.entry(2, 3) == pp("1+D")       # x_1 -> x_2
    assert m.entry(1, 0) == pp("1+D^-1")    # z_2 -> z_1
    assert m.entry(0, 0) == ONE and m.entry(3, 3) == ONE
    assert m.entry(0, 2) == ZERO


def block_diag_zx(z_block, x_block):
    """[[Z, 0], [0, X]] from two n x n blocks."""
    n = len(z_block)
    rows = [list(r) + [ZERO] * n for r in z_block]
    rows += [[ZERO] * n + list(r) for r in x_block]
    return SympMatrix(n, rows)


def _row_wise_apply(t, gates):
    """``t`` times the gates, each gate rewriting its columns in all 2n rows.

    The dense, row-wise reference for the sparse-column ``apply_gates``:
    a gate's columns are those where its ``closed_form`` differs from the
    identity, and each new entry sums its row's products with the column.
    """
    n = t.n
    size = 2 * n
    eye = SympMatrix.identity(n).rows
    rows = [list(r) for r in t.rows]
    for gate in gates:
        m = closed_form(gate, n).rows
        changed = [c for c in range(size) if any(m[k][c] != eye[k][c] for k in range(size))]
        for row in rows:
            new = [sum((row[k] * m[k][c] for k in range(size) if row[k] and m[k][c]), ZERO)
                   for c in changed]
            for c, e in zip(changed, new):
                row[c] = e
    return SympMatrix(n, rows)


@settings(max_examples=150, deadline=None)
@given(gate_lists_with_identities(), st.integers(0, 10))
@example((2, [Gate("INF_Z", (1,), pp("1+D+D^2")), Gate("CNOT", (1, 2), pp("D^-1+D")),
              Gate("H", (2,)), Gate("INF_X", (2,), pp("1+D")),
              Gate("CPHASE", (2, 1), pp("1+D^2"))]), 2)
def test_apply_gates_equals_row_wise_and_dense_products(case, split):
    # feedback gates make rational entries (INF_Z, INF_X)
    n, gates = case
    product = apply_gates(gates, n)
    assert product.to_text() == _row_wise_apply(SympMatrix.identity(n), gates).to_text()
    dense = SympMatrix.identity(n)
    for g in gates:
        dense = dense @ closed_form(g, n)
    assert product == dense
    # a start other than the identity: the product of a prefix
    k = min(split, len(gates))
    assert product == _row_wise_apply(apply_gates(gates[:k], n), gates[k:])


def test_cnot_zero_poly_is_identity():
    assert cnot(1, 2, "0", 3) == SympMatrix.identity(3)


def test_overall_encoding_matrix_example():
    # explicit 6x6 composition of three CNOT blocks
    m = cnot(3, 2, "1+D^-1", 3) @ cnot(1, 2, "D", 3) @ cnot(1, 3, "1+D", 3)
    z = [["1", "0", "0"], ["D", "1", "1+D"], ["1+D^-1", "0", "1"]]
    x = [["1", "D", "1+D"], ["0", "1", "0"], ["0", "1+D^-1", "1"]]
    expected = block_diag_zx(
        [[pp(e) for e in row] for row in z],
        [[pp(e) for e in row] for row in x])
    assert m == expected
    assert m.abs_deg() == 1


def test_mat_mul_combines_same_pair_cnots():
    a = cnot(1, 2, "1+D", 2)
    b = cnot(1, 2, "D^2", 2)
    assert a @ b == cnot(1, 2, "1+D+D^2", 2)
    assert a @ SympMatrix.identity(2) == a


def test_mat_mul_associative():
    a = cnot(1, 2, "1+D", 3)
    b = gate_matrix(Gate("CPHASE", (2, 3), pp("D^-1+D")), 3)
    c = gate_matrix(Gate("H", (1,)), 3)
    assert (a @ b) @ c == a @ (b @ c)


def test_mat_mul_mutual_pair():
    l0, l1 = 1, 3
    m = cnot(1, 2, f"D^{l0}", 2) @ cnot(2, 1, f"D^{l1}", 2)
    assert m.entry(2, 2) == ONE + LaurentPoly.monomial(l0 + l1)
    assert m.entry(2, 3) == LaurentPoly.monomial(l0)
    assert m.entry(3, 2) == LaurentPoly.monomial(l1)
    assert m.entry(0, 1) == LaurentPoly.monomial(-l1)
    assert m.entry(1, 0) == LaurentPoly.monomial(-l0)
    assert m.entry(1, 1) == ONE + LaurentPoly.monomial(-(l0 + l1))


def test_mat_mul_chain_pair():
    l0, l1 = 2, 3
    m = cnot(1, 2, f"D^{l0}", 3) @ cnot(3, 1, f"D^{l1}", 3)
    assert m.entry(0, 2) == LaurentPoly.monomial(-l1)
    assert m.entry(1, 0) == LaurentPoly.monomial(-l0)
    assert m.entry(1, 2) == LaurentPoly.monomial(-(l0 + l1))
    assert m.entry(3, 4) == LaurentPoly.monomial(l0)
    assert m.entry(5, 3) == LaurentPoly.monomial(l1)
    assert m.is_symplectic()


def test_abs_deg_examples():
    two_delay_combo = cnot(1, 2, "1+D+D^2", 2)
    assert two_delay_combo.abs_deg() == 2
    assert SympMatrix.identity(2).abs_deg() == 0
    with pytest.raises(ValueError):
        gate_matrix(Gate("INF_Z", (1,), pp("1+D")), 1).abs_deg()


def test_latency_shift():
    m = cnot(1, 2, "1+D+D^2", 2).shifted(2)
    assert m.latency_shift() == 2
    assert m.shifted(-2).latency_shift() == 0
    # delay-style matrix: ties resolve to the smallest shift
    rows = [[pp("D"), ZERO, ZERO, ZERO], [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, pp("D"), ZERO], [ZERO, ZERO, ZERO, ONE]]
    assert SympMatrix(2, rows).latency_shift() == 0
    with pytest.raises(ValueError, match="latency normalization requires polynomial"):
        gate_matrix(Gate("INF_Z", (1,), pp("1+D")), 1).latency_shift()


def _latency_shift_by_scan(m):
    """The smallest L minimizing max(hi - L, L - lo), by trying every L."""
    entries = [e for row in m.rows for e in row if e]
    if not entries:
        return 0
    hi, lo = max(e.deg for e in entries), min(e.delay for e in entries)
    return min(range(lo, hi + 1), key=lambda l: (max(hi - l, l - lo), l))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(-20, 24), max_size=3), min_size=4, max_size=4))
def test_latency_shift_matches_scan(diag):
    rows = [[LaurentPoly(diag[i]) if i == j else ZERO for j in range(4)] for i in range(4)]
    m = SympMatrix(2, rows)
    assert m.latency_shift() == _latency_shift_by_scan(m)


def test_symplectic_check_all_primitives():
    gates = [
        Gate("CNOT", (1, 2), pp("1+D^-1+D^3")),
        Gate("CPHASE", (1, 2), pp("D^-2+1+D")),
        Gate("CPHASE1", (2,), pp("D+D^3")),
        Gate("H", (1,)),
        Gate("P", (2,)),
        Gate("DELAY", (1,), pp("D^2")),
        Gate("INF_Z", (2,), pp("1+D+D^2")),
        Gate("INF_X", (1,), pp("1+D^3")),
    ]
    for g in gates:
        assert gate_matrix(g, 3).is_symplectic(), str(g)


def test_symplectic_check_negative_case():
    assert SympMatrix.identity(2).is_symplectic()
    rows = [list(r) for r in SympMatrix.identity(2).rows]
    rows[2][3] = ONE  # lone off-diagonal 1 in the X block breaks the pairing
    assert not SympMatrix(2, rows).is_symplectic()


def test_self_inverse_gates():
    for g in (Gate("CNOT", (1, 2), pp("1+D^2")),
              Gate("CPHASE", (1, 3), pp("D^-1+D")),
              Gate("CPHASE1", (1,), pp("D")),
              Gate("H", (2,)),
              Gate("P", (1,))):
        m = gate_matrix(g, 3)
        assert m @ m == SympMatrix.identity(3), str(g)


def test_random_gate_matrices_symplectic():
    rng = random.Random(301)
    for _ in range(100):
        n = rng.randint(1, 4)
        kind = rng.choice(("CNOT", "CPHASE", "CPHASE1", "H", "P", "DELAY",
                           "INF_Z", "INF_X"))
        if kind in ("CNOT", "CPHASE") and n < 2:
            continue
        if kind in ("CNOT", "CPHASE"):
            i = rng.randint(1, n)
            j = rng.randint(1, n)
            while j == i:
                j = rng.randint(1, n)
            f = LaurentPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
            if not f:
                continue
            g = Gate(kind, (i, j), f)
        elif kind == "CPHASE1":
            f = LaurentPoly([rng.randint(1, 4) for _ in range(rng.randint(1, 3))])
            if not f:
                continue
            g = Gate(kind, (rng.randint(1, n),), f)
        elif kind == "DELAY":
            g = Gate(kind, (rng.randint(1, n),),
                     LaurentPoly.monomial(rng.randint(0, 4)))
        elif kind in ("INF_Z", "INF_X"):
            f = LaurentPoly([0] + [rng.randint(1, 4) for _ in range(rng.randint(1, 2))])
            if not f or f.delay != 0 or f.deg < 1:
                continue
            g = Gate(kind, (rng.randint(1, n),), f)
        else:
            g = Gate(kind, (rng.randint(1, n),))
        assert gate_matrix(g, n).is_symplectic(), str(g)


@st.composite
def gate_pairs(draw):
    """(n, a, b): two gates of any kind on n wires, b sharing a wire of a or not."""
    n = draw(st.integers(2, 5))

    def gate(first):
        kind = draw(st.sampled_from(("CNOT", "CPHASE", "CPHASE1", "H", "P",
                                     "DELAY", "INF_Z", "INF_X")))
        if kind in ("CNOT", "CPHASE"):
            j = draw(st.integers(1, n).filter(lambda w: w != first))
            taps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
            return Gate(kind, (first, j), LaurentPoly(taps))
        if kind == "CPHASE1":
            lags = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
            return Gate(kind, (first,), LaurentPoly(lags))
        if kind == "DELAY":
            return Gate(kind, (first,), LaurentPoly.monomial(draw(st.integers(0, 3))))
        if kind in ("INF_Z", "INF_X"):
            rest = draw(st.sets(st.integers(1, 3), min_size=1))
            return Gate(kind, (first,), LaurentPoly({0} | rest))
        return Gate(kind, (first,))

    a = gate(draw(st.integers(1, n)))
    shared = draw(st.booleans())
    b = gate(draw(st.sampled_from(a.wires)) if shared else draw(st.integers(1, n)))
    return n, a, b


@settings(max_examples=300, deadline=None)
@given(gate_pairs())
def test_gates_commute_equals_dense_products(case):
    n, a, b = case
    ma, mb = closed_form(a, n), closed_form(b, n)
    assert gates_commute(a, b, n) == (ma @ mb == mb @ ma)
    assert gates_commute(b, a, n) == gates_commute(a, b, n)


@settings(max_examples=150, deadline=None)
@given(gate_lists_with_identities())
@example((2, [Gate("CPHASE", (1, 2), pp("D^-1+D^2")), Gate("CPHASE", (2, 1), ZERO),
              Gate("CPHASE1", (2,), pp("D")), Gate("INF_X", (1,), pp("1+D")),
              Gate("H", (2,)), Gate("DELAY", (1,), ONE), Gate("INF_Z", (2,), pp("1+D^2")),
              Gate("CNOT", (2, 1), pp("D^-2")), Gate("P", (1,))]))
def test_gate_table_matches_closed_forms(case):
    # gate_matrix, apply_gates and gates_commute all read the one action
    # table; each must agree with the dense closed forms written out gate
    # by gate, zero polynomials and feedback gates included
    n, gates = case
    forms = [closed_form(g, n) for g in gates]
    dense = SympMatrix.identity(n)
    for g, form in zip(gates, forms):
        assert gate_matrix(g, n) == form, str(g)
        assert gate_matrix(g, n).to_text() == form.to_text(), str(g)
        dense = dense @ form
    assert sequence_transfer(gates, n) == dense
    for (a, ma), (b, mb) in itertools.combinations(zip(gates, forms), 2):
        assert gates_commute(a, b, n) == (ma @ mb == mb @ ma), (str(a), str(b))


def unencoded_3q():
    return StabilizerMatrix.from_css([[ONE, ZERO, ZERO]],
                                     [[ZERO, ONE, ZERO]])


def test_apply_to_stabilizer_first_cnots():
    stab = unencoded_3q().apply(cnot(3, 2, "1+D^-1", 3))
    assert stab.rows[0] == (ZERO, ZERO, ZERO, ONE, ZERO, ZERO)
    assert stab.rows[1] == (ZERO, ONE, pp("1+D"), ZERO, ZERO, ZERO)


def test_apply_to_stabilizer_second_cnots():
    stab = unencoded_3q().apply(cnot(3, 2, "1+D^-1", 3))
    stab = stab.apply(cnot(1, 2, "D", 3) @ cnot(1, 3, "1+D", 3))
    assert stab.rows[0] == (ZERO, ZERO, ZERO, ONE, pp("D"), pp("1+D"))
    assert stab.rows[1] == (pp("D"), ONE, pp("1+D"), ZERO, ZERO, ZERO)


def test_apply_identity():
    stab = unencoded_3q()
    assert stab.apply(SympMatrix.identity(3)).rows == stab.rows


def test_apply_preserves_commutation():
    rng = random.Random(17)
    stab = unencoded_3q()
    assert stab.commutation_ok()
    for _ in range(30):
        i = rng.randint(1, 3)
        j = rng.randint(1, 3)
        while j == i:
            j = rng.randint(1, 3)
        f = LaurentPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 2))])
        if not f:
            continue
        kind = rng.choice(("CNOT", "CPHASE"))
        stab = stab.apply(gate_matrix(Gate(kind, (i, j), f), 3))
        assert stab.commutation_ok()


def encoded_3q():
    return StabilizerMatrix.from_css([[ONE, pp("D"), pp("1+D")]],
                                     [[pp("D"), ONE, pp("1+D")]])


def test_row_space_equiv_swap_and_mix():
    stab = encoded_3q()
    swapped = StabilizerMatrix(3, [stab.rows[1], stab.rows[0]])
    assert row_space_equiv(stab, swapped)
    # row 2 plus a delayed copy of row 1 generates the same group
    mixed_row = tuple(b + pp("D") * a for a, b in zip(stab.rows[0], stab.rows[1]))
    mixed = StabilizerMatrix(3, [stab.rows[0], mixed_row])
    assert row_space_equiv(stab, mixed)
    # shifting a generator in time is a unit premultiplication
    shifted = StabilizerMatrix(3, [stab.rows[0],
                                   tuple(pp("D^2") * e for e in stab.rows[1])])
    assert row_space_equiv(stab, shifted)


def test_row_space_equiv_negative():
    assert not row_space_equiv(encoded_3q(), unencoded_3q())
    # scaling a row by 1+D is not a unit operation: the group shrinks
    stab = encoded_3q()
    scaled = StabilizerMatrix(3, [stab.rows[0],
                                  tuple(pp("1+D") * e for e in stab.rows[1])])
    assert not row_space_equiv(stab, scaled)


def test_dual_containing():
    assert dual_containing([[ONE, pp("D"), pp("1+D")]],
                           [[pp("D"), ONE, pp("1+D")]])
    assert not dual_containing([[ONE]], [[ONE]])
    assert dual_containing([[ONE, ZERO]], [[ZERO, ONE]])


def test_pairing():
    # entry (i, j) = sum_k a_i[k] * b_j[k](D^-1), worked by hand:
    # (0,0) 1*D^-1 + D*1, (0,1) 1*1 + D*D^-2, (1,0) D*D^-1 + (1+D)*1,
    # (1,1) D*1 + (1+D)*D^-2
    a = [[ONE, pp("D")], [pp("D"), pp("1+D")]]
    b = [[pp("D"), ONE], [ONE, pp("D^2")]]
    assert pairing(a, b) == [[pp("D^-1+D"), pp("1+D^-1")],
                             [pp("D"), pp("D^-2+D^-1+D")]]
    assert pairing(a, []) == [[], []]


def test_stabilizer_text_round_trip():
    text = "n 3\ncss\nX: 1 D 1+D\nZ: D 1 1+D\n"
    stab = StabilizerMatrix.from_text(text)
    assert stab.to_text() == text
    hx, hz = stab.css_parts
    assert hx == ((ONE, pp("D"), pp("1+D")),)
    with pytest.raises(ParseError):
        StabilizerMatrix.from_text("n 3\nX: 1 D\n")
    with pytest.raises(ParseError):
        StabilizerMatrix.from_text("X: 1\n")


def test_stabilizer_text_rejects_zero_row():
    # a zero row generates nothing; keeping it silently drops a generator
    for text, line in (("n 2\nX: 1 0\nZ: 0 0\n", 3), ("n 1\nX: 0\n", 2)):
        with pytest.raises(ParseError) as exc:
            StabilizerMatrix.from_text(text)
        assert str(exc.value) == f"line {line}: zero generator row"
    with pytest.raises(ParseError, match="^no stabilizer rows$"):
        StabilizerMatrix.from_text("n 2\ncss\n")


def test_stabilizer_rejects_zero_row():
    # css_parts would drop the row, leaving fewer generators than rows
    for rows in ([[ZERO] * 4], [[ONE, ZERO, ZERO, ZERO], [ZERO] * 4]):
        with pytest.raises(ValueError, match="^zero generator row$"):
            StabilizerMatrix(2, rows)
    with pytest.raises(ValueError, match="^zero generator row$"):
        StabilizerMatrix.from_css([[ONE, ZERO]], [[ZERO, ZERO]])


def test_matrix_text_round_trip():
    m = cnot(3, 2, "1+D^-1", 3) @ cnot(1, 2, "D", 3)
    again = SympMatrix.from_text(m.to_text())
    assert again == m
    inf = gate_matrix(Gate("INF_Z", (1,), pp("1+D")), 2)
    assert SympMatrix.from_text(inf.to_text()) == inf


@pytest.mark.parametrize("text, message", [
    ("# identity\nn 1\n1 0\n0 Q\n", "line 4, column 2: bad polynomial term 'Q'"),
    ("n 1\n1 0\n1/0 1\n", "line 3, column 1: zero denominator"),
    ("\nn x\n1 0\n0 1\n", "line 2: bad wire count 'x'"),
    ("1 0\n0 1\n", "line 1: '1 0' before 'n <wires>' header"),
    ("n 1\n# no rows\n", "line 1: expected 2 matrix rows, found 0"),
    ("n 1\n1 0\n", "line 2: expected 2 matrix rows, found 1"),
    ("n 1\n1 0\n0 1\n\n1 1\n", "line 5: expected 2 matrix rows, found 3"),
    ("n 1\n1 0 0\n0 1\n", "line 2: expected 2 entries per row"),
])
def test_matrix_text_errors_are_located(text, message):
    with pytest.raises(ParseError) as exc:
        SympMatrix.from_text(text)
    assert str(exc.value).startswith(message)


def test_equal_mod_monomial():
    m = cnot(1, 2, "1+D", 2)
    assert m.equal_mod_monomial(m.shifted(3)) == -3
    assert m.shifted(2).equal_mod_monomial(m) == 2
    assert m.equal_mod_monomial(cnot(1, 2, "1+D^2", 2)) is None


def test_lambda_matrix():
    l = lam(2)
    assert l.entry(0, 2) == ONE and l.entry(2, 0) == ONE
    assert l.entry(0, 0) == ZERO
