import hashlib
import itertools
import random
import time
import tracemalloc
from collections import namedtuple
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qshift.gf2poly import LaurentPoly, ONE, ZERO, RationalTransfer, parse_poly as pp, poly_divmod
from qshift.symplectic import (
    Gate, StabilizerMatrix, SympMatrix, add_column, add_row, gate_matrix, gates_commute,
    row_space_equiv,
)
from qshift import circuit as circuit_mod, synthesis
from qshift.circuit import (
    PLACEMENT_KINDS,
    FiniteSection,
    Placement,
    ShiftRegisterCircuit,
    build_from_gate,
    cascade,
    circuit_from_text,
    circuit_to_text,
    circuit_transfer,
    identity_circuit,
    instances_commute,
)
from qshift.simulator import impulse_response, recommended_horizon, responds_at_once
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
from qshift.synthesis import (
    _gate_is_identity, _laurent_divides, _merge_gates, _pmat_identity, _swap_adds,
)
from oracles import b_inverse, b_matrix, dual_containing, pairing
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


def assert_decomposition(sm, original):
    """a . s . b == original, with a from the reference and b from sm's column record."""
    ref = _smith_reference([list(r) for r in original])
    assert sm.s == ref.s and sm.col_ops == ref.col_ops
    b = b_matrix(sm)
    recon = pmat_mul(pmat_mul([list(r) for r in ref.a], [list(r) for r in sm.s]), b)
    assert [tuple(r) for r in recon] == [tuple(r) for r in original]
    # unimodularity: replaying the recorded self-inverse operations undoes b
    ident = pmat_mul(b, b_inverse(sm))
    k = len(ident)
    assert ident == [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]


def test_smith_single_row():
    m = pmat([["1", "D", "1+D"]])
    sm = smith_normal_form(m)
    assert list(sm.diagonal) == [ONE]
    assert sm.s == ((ONE, ZERO, ZERO),)
    assert b_matrix(sm)[0] == [ONE, pp("D"), pp("1+D")]  # top row recovers the input
    assert_decomposition(sm, m)


def test_smith_identity():
    m = pmat([["1", "0"], ["0", "1"]])
    sm = smith_normal_form(m)
    assert sm.col_ops == ()
    assert [list(r) for r in _smith_reference(m).a] == m
    assert [list(r) for r in sm.s] == m
    assert b_matrix(sm) == m


def test_smith_1x1_monomial():
    # D is a unit of GF(2)[D, D^-1]: the row scaling goes into a, no column op
    sm = smith_normal_form(pmat([["D"]]))
    assert sm.s == ((ONE,),)
    assert sm.col_ops == ()
    assert _smith_reference(pmat([["D"]])).a == ((pp("D"),),) and b_matrix(sm) == [[ONE]]


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
        assert_divides_successively(sm.diagonal)


def assert_divides_successively(d):
    """Each nonzero invariant factor divides the next; both are at delay 0."""
    from qshift.gf2poly import poly_divmod
    for k in range(len(d) - 1):
        if d[k] and d[k + 1]:
            assert not poly_divmod(d[k + 1], d[k])[1]


def test_smith_round_trip_laurent_entries():
    # a takes every row scaling, so a.s.b is the Laurent input itself
    rng = random.Random(6062)
    for _ in range(200):
        nr = rng.randint(1, 4)
        nc = rng.randint(nr, 6)
        m = [[LaurentPoly(rng.sample(range(-3, 4), rng.randint(0, 2))) for _ in range(nc)]
             for _ in range(nr)]
        if not any(any(r) for r in m):
            continue
        sm = smith_normal_form(m)
        assert_decomposition(sm, m)
        assert all(d.delay == 0 for d in sm.diagonal if d)
        assert_divides_successively(sm.diagonal)


def test_smith_col_ops_are_the_gates_actions():
    # the X-side and Z-side gates of the recorded adds act on their block as b^-1
    rng = random.Random(2020)
    for trial in range(120):
        nr = rng.randint(1, 3)
        nc = rng.randint(2, 5)
        lo = -2 if trial % 2 else 0
        m = [[LaurentPoly(rng.sample(range(lo, 4), rng.randint(0, 2))) for _ in range(nc)]
             for _ in range(nr)]
        if not any(any(r) for r in m):
            continue
        sm = smith_normal_form(m)
        b_inv = b_inverse(sm)
        x_side = sequence_transfer([synthesis._x_gate(*op) for op in sm.col_ops], nc)
        z_side = sequence_transfer([synthesis._z_gate(*op) for op in sm.col_ops], nc)
        assert x_side.x_block() == b_inv
        assert [list(r[:nc]) for r in z_side.rows[:nc]] == b_inv


def test_smith_laurent_normalization():
    m = pmat([["D^-1+1", "D"], ["D^-2", "1"]])  # determinant 1
    sm = smith_normal_form(m)
    # every row of s is at delay 0, so its unit diagonal entries are 1
    assert sm.diagonal == (ONE, ONE)
    assert_decomposition(sm, m)


# ---------------------------------------------------------------------------
# The Smith form as it stood before the one-loop rewrite, copied unchanged
# with its quotient rule and its (a, s, col_ops) result: the rewrite must
# make the same pivots, quotients, swaps and row scalings, so its s and
# col_ops equal these, and these a with its b give back the input


RefSmith = namedtuple("RefSmith", "a s col_ops")


def _laurent_div(b: LaurentPoly, a: LaurentPoly) -> LaurentPoly:
    """Quotient q such that b + q*a has polynomial degree span below a's."""
    sb, sa = b.delay, a.delay
    q, _ = poly_divmod(b.shift(-sb), a.shift(-sa))
    return q.shift(sb - sa)


def _smith_reference(matrix) -> RefSmith:
    """Diagonalize a matrix over GF(2)[D, D^-1] with recorded elementary operations.

    Pivots are the nonzero entries of least span (deg - delay; ties
    broken by lowest (row, col)), division is ``_laurent_div``, whose
    remainder has a span below the pivot's, and the diagonal entries
    divide successively; a monomial divides every entry.  Scaling a row
    by a monomial changes none of these, so rows keep whatever delay the
    operations give them until the end, where each row is scaled to delay
    0.  A monomial is a unit of the Laurent ring, so that scaling is a row
    operation (recorded in ``a``) and records no column operation.  The
    rows of the returned ``s`` are at delay 0, so a unit on its diagonal
    is 1.
    """
    rows = [list(r) for r in matrix]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if nr == 0 or nc == 0:
        raise ValueError("empty matrix")
    a = _pmat_identity(nr)
    col_ops = []

    def low(i):
        return min(e.delay for e in rows[i] if e)

    def row_add(dst, src, f):
        add_row(rows[dst], rows[src], f)
        add_column(a, src, dst, f)

    def row_swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]
        for r in a:
            r[i], r[j] = r[j], r[i]

    def col_add(dst, src, f):
        add_column(rows, dst, src, f)
        col_ops.append((src, dst, f))

    def col_swap(i, j):
        for r in rows:
            r[i], r[j] = r[j], r[i]
        col_ops.extend(_swap_adds(i, j))

    def clear(count, entry, add, swap):
        """Reduce the pivot's line; True when a remainder is swapped into the pivot."""
        for k in range(count):
            if k != t and entry(k):
                q = _laurent_div(entry(k), rows[t][t])
                if q:
                    add(k, t, q)
                if entry(k):
                    swap(t, k)  # remainder has smaller span
                    return True
        return False

    t = 0
    while t < min(nr, nc):
        pivot = None
        for i, j in product(range(t, nr), range(t, nc)):
            e = rows[i][j]
            if e and (pivot is None or e.deg - e.delay < span):
                pivot, span = (i, j), e.deg - e.delay
                if not span:
                    break  # a monomial: no entry has a smaller span
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        # the pivot's column, then its row, until neither swaps in a remainder
        while (clear(nr, lambda i: rows[i][t], row_add, row_swap)
               or clear(nc, lambda j: rows[t][j], col_add, col_swap)):
            pass
        # successive divisibility of invariant factors; a unit divides every
        # entry.  The culprit row is added times the monomial that aligns its
        # lowest delay with the pivot row's, as if both were at delay 0.
        if not rows[t][t].is_monomial:
            culprit = next((i for i in range(t + 1, nr) for j in range(t + 1, nc)
                            if not _laurent_divides(rows[t][t], rows[i][j])), None)
            if culprit is not None:
                row_add(t, culprit, LaurentPoly.monomial(low(t) - low(culprit)))
                continue
        t += 1
    for i in range(nr):  # row i times D^-k, column i of a times D^k
        if any(rows[i]):
            k = low(i)
            rows[i] = [e.shift(-k) for e in rows[i]]
            for r in a:
                r[i] = r[i].shift(k)

    return RefSmith(
        tuple(tuple(r) for r in a),
        tuple(tuple(r) for r in rows),
        tuple(col_ops),
    )


_ENTRY = st.sets(st.integers(-3, 3), max_size=3).map(LaurentPoly)
_NON_MONOMIAL = st.sets(st.integers(-3, 3), min_size=2, max_size=3).map(LaurentPoly)


@st.composite
def smith_inputs(draw):
    """Laurent matrices up to 4x6 with entries D^-3..D^3, not all zero.

    A third have a last row that is the sum of earlier rows, so their rank
    is below their row count; a third are diagonal with non-monomial
    entries, most of which do not divide the next, so they reach the
    divisibility (culprit-row) step.
    """
    kind = draw(st.sampled_from(("random", "dependent", "diagonal")))
    least = 1 if kind == "random" else 2
    nr = draw(st.integers(least, 4))
    nc = draw(st.integers(least, 6))
    if kind == "diagonal":
        m = [[ZERO] * nc for _ in range(nr)]
        for i in range(min(nr, nc)):
            m[i][i] = draw(_NON_MONOMIAL)
    else:
        m = [[draw(_ENTRY) for _ in range(nc)] for _ in range(nr)]
        if kind == "dependent":
            picked = draw(st.sets(st.integers(0, nr - 2), min_size=1))
            m[-1] = [sum((m[i][j] for i in picked), ZERO) for j in range(nc)]
    assume(any(any(r) for r in m))
    return m


@settings(max_examples=200, deadline=None)
@given(smith_inputs())
@example(pmat([["1+D", "0"], ["0", "1+D+D^2"]]))  # 1+D does not divide 1+D+D^2
@example(pmat([["1", "D^-1"], ["D", "1"]]))  # rank 1
def test_smith_matches_reference(m):
    # equal s and col_ops, and the reference's a with the replayed b give back m
    assert_decomposition(smith_normal_form(m), m)


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
    assert row_space_equiv(stab, StabilizerMatrix.from_css(hx, hz))


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


def _encodes(plan, hx, hz):
    """Whether the plan's gates carry fresh ancillas to the code's row space."""
    stab = unencoded_stabilizer(plan.n, len(hx), len(hz))
    for g in plan.ops:
        stab = stab.apply(gate_matrix(g, plan.n))
    return row_space_equiv(stab, StabilizerMatrix.from_css(hx, hz))


def test_css_encoder_rejects_catastrophic():
    # X check 1+D has invariant factor 1+D, which is not a unit of GF(2)[D, D^-1]
    with pytest.raises(CatastrophicCode):
        css_encoder([[pp("1+D"), ZERO]], [[ZERO, pp("1+D")]])


def test_css_encoder_accepts_monomial_checks():
    # X check D is D times the check 1, and D is a unit of GF(2)[D, D^-1]:
    # the code is the one of X [1, 0], Z [0, 1], encoded by no gate at all
    hx, hz = [[pp("D"), ZERO]], [[ZERO, pp("D")]]
    plan = css_encoder(hx, hz)
    assert plan.ops == ()
    assert _encodes(plan, hx, hz)


def test_css_encoder_accepts_monomial_z_phase_factor():
    # the Z rows on wires 2-3 have determinant D over GF(2)[D], so a Smith
    # form over GF(2)[D] ends its Z phase on the diagonal (1, D); over the
    # Laurent ring D is a unit and the code is encoded
    hx, hz = [[ONE, ZERO, ZERO]], [[ZERO, ONE, ZERO], [ZERO, ONE, pp("D")]]
    assert hz[0][1] * hz[1][2] + hz[0][2] * hz[1][1] == pp("D")
    plan = css_encoder(hx, hz)
    assert _encodes(plan, hx, hz)
    assert plan.circuit().m <= plan.memory_bound


@pytest.mark.parametrize("hx, hz, phase", [
    ([[pp("1+D"), pp("1+D")]], [], "X"),
    ([], [[pp("1+D"), pp("1+D")]], "Z"),  # the Z phase sees 1+D^-1, at delay 0 1+D
])
def test_css_encoder_catastrophic_message(hx, hz, phase):
    # invariant factor 1+D, which is not a unit even over GF(2)[D, D^-1]
    with pytest.raises(CatastrophicCode) as exc:
        css_encoder(hx, hz)
    assert str(exc.value) == (f"{phase} check matrix is catastrophic "
                              "(invariant factor 1+D is not a monomial)")


def test_css_encoder_catastrophic_message_names_the_factor_at_delay_0():
    # D+D^3 = D(1+D^2), and the unit D is divided out of the factor named
    with pytest.raises(CatastrophicCode, match=r"^X check matrix is catastrophic "
                       r"\(invariant factor 1\+D\^2 is not a monomial\)$"):
        css_encoder([[pp("D+D^3"), ZERO, ZERO]], [])


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


def test_css_encoder_shape_refusals():
    with pytest.raises(SynthesisError, match="^check matrix rows disagree on width$"):
        css_encoder([[ONE, ONE]], [[ONE]])
    # dual-containing, but one X and two Z generators on two qubits
    with pytest.raises(SynthesisError, match=r"^1\+2 generators exceed 2 qubits$"):
        css_encoder([[ONE, ONE]], [[ONE, ONE], [pp("D"), pp("D")]])
    with pytest.raises(ValueError, match="^empty matrix$"):
        smith_normal_form([])


@pytest.mark.parametrize("hx, hz, refusal, message", [
    # not dual-containing and X-catastrophic: the pairing is refused first
    ([[pp("1+D"), ZERO]], [[ONE, ZERO]], NotDualContaining, "not dual-containing"),
    # not dual-containing and X-dependent
    ([[ONE, ONE], [ONE, ONE]], [[ONE, ZERO]], NotDualContaining, "not dual-containing"),
    # dual-containing and oversize with dependent Z rows: the size before the Z phase
    ([[ONE, ZERO, ZERO]], [[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ZERO, ONE, ONE]],
     SynthesisError, "^1\\+3 generators exceed 3 qubits$"),
    # dual-containing and oversize with dependent X rows: the size before the X phase
    ([[ONE, ONE], [ONE, ONE]], [[ONE, ONE]], SynthesisError, "^2\\+1 generators exceed 2 qubits$"),
    # one zero-width X row: the size before the Smith form refuses an empty matrix
    ([[]], [], SynthesisError, "^1\\+0 generators exceed 0 qubits$"),
])
def test_css_encoder_refusal_order(hx, hz, refusal, message):
    with pytest.raises(refusal, match=message):
        css_encoder(hx, hz)


def _two_sided_css_pairs():
    """2,000 seeded random (hx, hz) pairs on 2 to 5 wires, entries over D^0..D^3.

    Each entry has 0 to 2 terms, zero with odds 2 in 5; there are 0 to n X
    rows and 0 to n - s_x + 1 Z rows, so some pairs are oversize and some
    have no rows at all.
    """
    rng = random.Random("two-sided-css")
    for _ in range(2000):
        n = rng.randint(2, 5)

        def row():
            return [LaurentPoly(rng.sample(range(4), rng.choice((0, 0, 1, 1, 2))))
                    for _ in range(n)]

        s_x = rng.randint(0, n)
        s_z = rng.randint(0, n - s_x + 1)
        yield [row() for _ in range(s_x)], [row() for _ in range(s_z)]


# sha256 over css_encoder's outcome on every two-sided pair: the plan's gate
# list, memory bound and encoding matrix, or the refusal's class and message;
# recorded while the encoder checked dual containment, sizes and the two
# phases in separate passes
TWO_SIDED_CSS_DIGEST = "7d6ecc0cd72a8bd2e31bdf1b89b6a409accd311d9858c45c0b24ef9f811f3032"


def test_two_sided_css_outcomes_match_golden_digest():
    digest = hashlib.sha256()
    kinds = set()
    for hx, hz in _two_sided_css_pairs():
        try:
            plan = css_encoder(hx, hz)
        except SynthesisError as exc:
            kinds.add(type(exc))
            digest.update(f"rejected {type(exc).__name__} {exc}\n".encode())
            continue
        digest.update(f"{format_sequence(plan.ops)}\n{plan.memory_bound}\n"
                      f"{plan.b_overall.to_text()}\n".encode())
    assert kinds == {SynthesisError, NotDualContaining, CatastrophicCode}
    assert digest.hexdigest() == TWO_SIDED_CSS_DIGEST


_DELAY_FREE_ENTRY = st.sets(st.integers(0, 3), max_size=2).map(LaurentPoly)


@st.composite
def x_pairs(draw):
    """(hx, Smith form of hx, hz) on 1 to 5 wires, with hx accepted or not by the X phase.

    hx has 1 to n + 1 delay-free rows, and with even odds its last row is
    the sum of the others, so that it is dependent; its invariant factors
    may not be monomials.  hz is either random delay-free rows or, with
    even odds, rows of the form [0 | y] . b^-T(D^-1) with rank(hx) zeros,
    which pair to zero with hx.
    """
    n = draw(st.integers(1, 5))
    s_x = draw(st.integers(1, n + 1))
    hx = [[draw(_DELAY_FREE_ENTRY) for _ in range(n)] for _ in range(s_x)]
    if s_x > 1 and draw(st.booleans()):
        hx[-1] = [sum(col, ZERO) for col in zip(*hx[:-1])]
    sm = smith_normal_form(hx)
    s_z = draw(st.integers(0, 3))
    if draw(st.booleans()):
        hz = [[draw(_DELAY_FREE_ENTRY) for _ in range(n)] for _ in range(s_z)]
    else:
        ys = [[ZERO] * sm.rank + [draw(_ENTRY) for _ in range(n - sm.rank)]
              for _ in range(s_z)]
        hz = pairing(ys, b_inverse(sm))
    return hx, sm, hz


@settings(max_examples=300, deadline=None)
@given(x_pairs())
@example(([[pp("1+D"), ZERO]], smith_normal_form([[pp("1+D"), ZERO]]), [[ONE, ZERO]]))
@example(([[ONE, ONE], [ONE, ONE]], smith_normal_form([[ONE, ONE], [ONE, ONE]]), [[ONE, ONE]]))
def test_pairing_by_col_ops_replays_b(case):
    hx, sm, hz = case
    paired = synthesis._pairing_by_col_ops(hz, sm.col_ops)
    assert paired == pairing(hz, b_matrix(sm))
    # hx = a . s . b with a unimodular and s zero but for its first rank(hx)
    # diagonal entries: the pair is dual-containing exactly when the pairing
    # through b is zero in its first rank(hx) columns, refused hx or not
    assert (not any(any(r[:sm.rank]) for r in paired)) == dual_containing(hx, hz)


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
        plan = css_encoder(hx, hz)  # an encoded code is never catastrophic
        tested += 1
        replay = unencoded_stabilizer(n, len(hx), len(hz))
        for g in plan.ops:
            replay = replay.apply(gate_matrix(g, n))
        assert row_space_equiv(replay, StabilizerMatrix.from_css(hx, hz))
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


def _cancel_pairs_full_scan(pls):
    """``_cancel_full_scan`` until nothing cancels; None when nothing does."""
    out = None
    while (kept := _cancel_full_scan(pls if out is None else out)) is not None:
        out = kept
    return out


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


def _highest_stages(pls):
    """wire -> highest stage of a slot on it, over the wires the placements touch."""
    highest = {}
    for p in pls:
        for wire, stage in p.slots:
            highest[wire] = max(highest.get(wire, 0), stage)
    return highest


def _check_schedule_full_scan(section):
    """Every ordered pair and every slot pair, lowest (i, j) reported first."""
    pls = section.placements
    for i, p in enumerate(pls):
        for q in pls[i + 1:]:
            for (w1, s) in p.slots:
                for (w2, t) in q.slots:
                    if w1 == w2 and t < s and not instances_commute(p, q, t - s):
                        raise ValueError(
                            f"schedule has an acausal crossing between {p} and {q}")


def _random_placements(rng, count, wires=3, depth=3):
    out = []
    while len(out) < count:
        kind = rng.choice(PLACEMENT_KINDS)
        a = (rng.randint(1, wires), rng.randint(0, depth))
        if kind in ("H", "P"):
            out.append(Placement(kind, a))
            continue
        b = (rng.randint(1, wires), rng.randint(0, depth))
        if b != a:
            out.append(Placement(kind, a, b))
    return out


def test_indexed_reduction_scans_match_full_scans():
    # the pass cancels every pair the one-pair reference cancels when run
    # until nothing cancels, in the same order
    rng = random.Random(2024)
    several = 0  # lists in which more than one pair cancels
    for _ in range(400):
        pls = _random_placements(rng, rng.randint(2, 9))
        for _ in range(rng.choice((0, 1, 3, 5))):  # plant copies for the cancellation scan
            pls.insert(rng.randint(0, len(pls)), rng.choice(pls))
        expected = _cancel_pairs_full_scan(pls)
        assert synthesis._cancel_identical_pairs(pls) == expected
        several += expected is not None and len(pls) - len(expected) > 2
        placed, reach = synthesis._earliest_stages(pls)
        assert placed == _earliest_stages_full_scan(pls)
        assert reach == _highest_stages(placed)
    assert several > 150


def test_indexed_reduction_scans_match_full_scans_on_long_lists():
    # css plans schedule up to 45 placements; only long per-wire frontiers
    # give the earliest-stage scan room to stop early
    rng = random.Random(2025)
    several = 0
    for _ in range(120):
        wires = rng.randint(3, 6)
        pls = _random_placements(rng, rng.randint(20, 45), wires, rng.randint(2, 6))
        for _ in range(rng.randint(0, 8)):  # plant copies for the cancellation scan
            pls.insert(rng.randint(0, len(pls)), rng.choice(pls))
        expected = _cancel_pairs_full_scan(pls)
        assert synthesis._cancel_identical_pairs(pls) == expected
        several += expected is not None and len(pls) - len(expected) > 2
        placed, reach = synthesis._earliest_stages(pls)
        assert placed == _earliest_stages_full_scan(pls)
        assert reach == _highest_stages(placed)
    assert several > 80


def test_check_schedule_reports_the_lowest_crossing_pair():
    # most random sections are acausal; the verdict and the exact pair named
    # must match a scan of every ordered pair in index order
    rng = random.Random(2026)
    failing = 0
    for _ in range(1500):
        wires = rng.randint(1, 4)
        depth = rng.randint(1, 4)
        pls = _random_placements(rng, rng.randint(2, 12), wires, depth)
        sec = FiniteSection((depth,) * wires, tuple(pls))
        expected = _outcome(_check_schedule_full_scan, sec)
        assert _outcome(circuit_mod.check_schedule, sec) == expected
        failing += expected is not None
    assert failing > 750


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
    # a section left with no placements and no depth on any wire is dropped
    assert reduced == ShiftRegisterCircuit(
        n, tuple(sec for sec in expected if sec.placements or any(sec.depths)))
    t0, _ = circuit_transfer(circ)
    t1, _ = circuit_transfer(reduced)
    assert t0.equal_mod_monomial(t1) is not None


def _simplify_reference(ops, n: int):
    """The merge pass as it was with its own memo and ``changed`` flag."""
    ops = [g for g in ops if not _gate_is_identity(g)]
    memo = {}

    def commute(a, b):
        found = memo.get((a, b))
        if found is None:
            found = memo[a, b] = gates_commute(a, b, n)
        return found

    changed = True
    while changed:
        changed = False
        for a in range(len(ops)):
            for b in range(a + 1, len(ops)):
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
                changed = True
                break
            if changed:
                break
    return ops


@settings(max_examples=150, deadline=None)
@given(st.one_of(finite_gate_lists(), mixed_gate_lists()))
# merging the pair with the lowest second gate first gives a different list
@example((2, parse_sequence("DELAY 1 0\nP 1\nDELAY 1 0\nCPHASE 2 1 D^2\nCPHASE 2 1 D^2\n"
                            "DELAY 1 1\nCPHASE1 1 D\nDELAY 2 0\n")))
def test_merge_pass_equals_reference(case):
    # the same first mergeable pair, the same restart; on the list as given
    # and on the swap-pushed list that compile_sequence hands the pass
    n, gates = case
    for ops in (gates, synthesis._push_swaps_back(gates, n)):
        assert synthesis._simplify_ops(list(ops), n) == _simplify_reference(list(ops), n)


def _rebuilt(c):
    """``c`` rebuilt through the public constructors, which check every value."""
    return ShiftRegisterCircuit(c.n, tuple(
        Gate(sec.kind, sec.wires, sec.poly) if isinstance(sec, Gate)
        else FiniteSection(tuple(sec.depths),
                           tuple(Placement(p.kind, p.a, p.b) for p in sec.placements))
        for sec in c.sections))


@settings(max_examples=200, deadline=None)
@given(st.one_of(finite_gate_lists(), mixed_gate_lists()))
def test_layout_and_reduction_build_valid_values(case):
    # the layout and reduction passes build their placements, sections and
    # circuits unchecked; each must be a value the public constructors accept
    n, gates = case
    chain = identity_circuit(n)
    for g in gates:
        chain = cascade(chain, build_from_gate(g, n))
    laid_out = circuit_mod._cascade_all(gates, n)
    for c in (laid_out, chain, reduce_memory(laid_out), compile_sequence(gates, n)):
        rebuilt = _rebuilt(c)
        assert rebuilt == c
        assert [p.slots for p in rebuilt.placements] == [p.slots for p in c.placements]


def test_layout_and_reduction_check_no_slot(monkeypatch):
    # values built from checked gates and sections are not checked again;
    # the circuit reader checks each gate line once
    checked = []

    def counted(p, depths, _fn=circuit_mod._check_slots):
        checked.append(p)
        return _fn(p, depths)
    monkeypatch.setattr(circuit_mod, "_check_slots", counted)
    ops = parse_sequence(FGG_SEQUENCE)
    compiled = compile_sequence(ops, 3)
    laid_out = circuit_mod._cascade_all(ops, 3)
    assert reduce_memory(laid_out).m < laid_out.m
    # gate by gate, as the impulse-verify workload builds its circuits
    chain = identity_circuit(3)
    for g in ops:
        chain = cascade(chain, build_from_gate(g, 3))
    assert chain == laid_out
    assert checked == []
    text = circuit_to_text(compiled)
    assert circuit_from_text(text) == compiled
    assert len(checked) == text.count("\ngate ") > 0


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


def _primitive_sections(g, n):
    """The sections of one gate's primitive circuit, laid out kind by kind.

    CNOT(i,j)(f) and CPHASE(i,j)(f) put tap D^e from (i, max(e, 0)) to
    (j, max(-e, 0)) in a block abs_deg(f) deep on every wire; CPHASE1(i)(f)
    puts tap D^e from (i, e) to (i, 0) in a block deg(f) deep; DELAY l
    deepens its own wire by l; H and P sit at (i, 0) with no memory;
    INF_Z and INF_X are feedback blocks.  Zero polynomials lay out nothing.
    """
    if any(w > n for w in g.wires):
        raise ValueError(f"gate {g} references a wire beyond {n}")
    i, f = g.wires[0], g.poly
    if g.kind in ("INF_Z", "INF_X"):
        return [g]
    if g.kind in ("H", "P"):
        return [FiniteSection((0,) * n, (Placement(g.kind, (i, 0)),))]
    if g.kind == "DELAY":
        depths = [0] * n
        depths[i - 1] = g.poly.deg
        return [FiniteSection(tuple(depths), ())]
    if not f:
        return []
    if g.kind == "CPHASE1":
        taps = [Placement("CPHASE", (i, e), (i, 0)) for e in f.terms]
        return [FiniteSection((f.deg,) * n, tuple(taps))]
    j = g.wires[1]
    taps = [Placement(g.kind, (i, max(e, 0)), (j, max(-e, 0))) for e in f.terms]
    return [FiniteSection((f.abs_deg,) * n, tuple(taps))]


def _merge_runs(sections, n):
    """The circuit of ``sections`` under the run-merging rule of cascading.

    A finite section with no placements and no depth on any wire is
    skipped; a finite section that follows another is merged into it one
    pipeline downstream, its slots on wire w moved by the depth of w in
    the section before, and the depths of the two added; a feedback
    section (an INF gate) passes through and ends the run.
    """
    out = []
    for sec in sections:
        if isinstance(sec, FiniteSection):
            if not sec.placements and not any(sec.depths):
                continue
            if out and isinstance(out[-1], FiniteSection):
                prev = out[-1]
                moved = tuple(
                    Placement(p.kind, *((w, s + prev.depths[w - 1]) for w, s in p.slots))
                    for p in sec.placements)
                sec = FiniteSection(tuple(a + b for a, b in zip(prev.depths, sec.depths)),
                                    prev.placements + moved)
                out.pop()
        out.append(sec)
    return ShiftRegisterCircuit(n, tuple(out))


def _block_by_block_cascade(ops, n):
    """One primitive block per gate, merged by ``_merge_runs``.

    The reference for ``_cascade_all``, which places every tap at its
    final stage in one pass instead; the blocks come from the per-kind
    layout above, not from ``build_from_gate``.
    """
    return _merge_runs([sec for gate in ops for sec in _primitive_sections(gate, n)], n)


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


@st.composite
def section_lists(draw):
    """(n, sections, cut): finite sections of every shape and feedback sections.

    A finite section is trivial (no placements, no depth), only delays
    (depth on some wire, no placements) or holds up to three placements
    on slots within its depths.  ``cut`` splits the list in two circuits.
    """
    n = draw(st.integers(1, 3))
    wire = st.integers(1, n)
    sections = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(("trivial", "delay", "placements", "placements",
                                      "feedback")))
        if shape == "feedback":
            rest = draw(st.sets(st.integers(1, 3), min_size=1))
            sections.append(Gate(
                "INF_" + draw(st.sampled_from("ZX")), (draw(wire),), LaurentPoly({0} | rest)))
            continue
        depths = (0,) * n
        if shape != "trivial":
            depths = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                                .filter(lambda ds: shape == "placements" or any(ds))))
        placements = []
        for _ in range(draw(st.integers(1, 3)) if shape == "placements" else 0):
            kind = draw(st.sampled_from(PLACEMENT_KINDS))
            wa, wb = draw(wire), draw(wire)
            a, b = (wa, draw(st.integers(0, depths[wa - 1]))), None
            if kind not in ("H", "P"):
                b = (wb, draw(st.integers(0, depths[wb - 1])))
                if a == b:
                    continue
            placements.append(Placement(kind, a, b))
        sections.append(FiniteSection(depths, tuple(placements)))
    return n, sections, draw(st.integers(0, len(sections)))


@settings(max_examples=300, deadline=None)
@given(section_lists())
@example((2, [FiniteSection((0, 0), ()), FiniteSection((1, 0), ()),
              FiniteSection((0, 2), (Placement("CNOT", (1, 0), (2, 2)),)),
              FiniteSection((1, 1), (Placement("H", (2, 1)),)),
              Gate("INF_Z", (2,), pp("1+D")), FiniteSection((0, 0), ()),
              FiniteSection((0, 1), ()), FiniteSection((0, 0), (Placement("P", (1, 0)),))],
          3))
@example((1, [Gate("INF_X", (1,), pp("1+D^2")), FiniteSection((2,), ()),
              Gate("INF_Z", (1,), pp("1+D"))], 1))
def test_section_layout_equals_run_merging(case):
    # cascade and reduce_memory lay sections out through _cascade_all; the
    # reference merges them run by run
    n, sections, cut = case
    c1 = ShiftRegisterCircuit(n, tuple(sections[:cut]))
    c2 = ShiftRegisterCircuit(n, tuple(sections[cut:]))
    assert cascade(c1, c2) == _merge_runs(sections, n)
    circ = ShiftRegisterCircuit(n, tuple(sections))
    if sections and isinstance(sections[0], FiniteSection):
        if _outcome(circuit_mod.check_schedule, sections[0]) is not None:
            return  # reduce_memory takes causal schedules only
        sections = [_greedy_reduce_section(sections[0])] + sections[1:]
    assert reduce_memory(circ) == _merge_runs(sections, n)


@st.composite
def block_lists(draw):
    """(n, blocks): the sections of ``section_lists`` with gates of every kind spliced in.

    CNOT and CPHASE taps have up to three exponents in D^-4..D^4, or none
    (the zero polynomial, which lays out nothing).
    """
    n, blocks, _ = draw(section_lists())
    wire = st.integers(1, n)
    for _ in range(draw(st.integers(0, 4))):
        kinds = ("CNOT", "CPHASE", "CPHASE1", "H", "P", "DELAY", "INF_Z", "INF_X")
        kind = draw(st.sampled_from(kinds if n > 1 else kinds[2:]))  # CNOT needs two wires
        i = draw(wire)
        if kind in ("CNOT", "CPHASE"):
            taps = draw(st.lists(st.integers(-4, 4), max_size=3))
            g = Gate(kind, (i, draw(wire.filter(lambda w: w != i))), LaurentPoly(taps))
        elif kind == "DELAY":
            g = Gate(kind, (i,), LaurentPoly.monomial(draw(st.integers(0, 2))))
        else:
            g = Gate(kind, (i,), {"CPHASE1": pp("D"), "INF_Z": pp("1+D"),
                                  "INF_X": pp("1+D^2")}.get(kind))
        blocks.insert(draw(st.integers(0, len(blocks))), g)
    return n, blocks


@settings(max_examples=200, deadline=None)
@given(block_lists())
@example((2, [FiniteSection((1, 1), (Placement("CNOT", (1, 1), (2, 0)),)),
              Gate("INF_Z", (1,), pp("1+D")), Gate("CNOT", (2, 1), pp("D"))]))
def test_cascade_all_lays_out_gates_and_sections_together(case):
    # each gate is its primitive block; the run after a feedback block is
    # laid out afresh even when it has the shape of the run before it
    n, blocks = case
    expected = [sec for b in blocks
                for sec in (_primitive_sections(b, n) if isinstance(b, Gate) else [b])]
    assert circuit_mod._cascade_all(blocks, n) == _merge_runs(expected, n)


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
    pos = _kahn_positions(edges, n)
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
        placed, _ = synthesis._earliest_stages(_edge_taps(order, edges))
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


def _topological_orders_unique(edges, n):
    """Whether the wire graph of ``edges`` (acyclic) has exactly one topological order.

    That holds exactly when its Kahn order joins each wire to the next by an edge.
    """
    pos = _kahn_positions(edges, n)
    order = sorted(pos, key=pos.get)
    return all((v, w) in edges for v, w in zip(order, order[1:]))


def _kahn_positions(edges, n):
    """Wire -> position in a first-in first-out Kahn queue started lowest first."""
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
    return pos


def test_dag_candidate_equals_exhaustive_orderings_on_wide_graphs():
    # more than five edges use the four orderings sorted by topological
    # position; on 5-7 wires most such graphs have several topological
    # orders, so the candidate's order must be the test's Kahn queue's
    rng = random.Random(6062)
    ambiguous = 0
    while ambiguous < 50:
        n = rng.randint(5, 7)
        order = rng.sample(range(1, n + 1), n)
        ops = []
        for _ in range(rng.randint(6, 9)):
            a, b = sorted(rng.sample(range(n), 2))
            f = LaurentPoly(rng.sample(range(-3, 4), rng.randint(1, 3)))
            ops.append(Gate("CNOT", (order[a], order[b]), f))
        total = sequence_transfer(ops, n)
        expected = _dag_exhaustive(ops, n, total)
        if not expected:
            continue
        assert synthesis._cnot_dag_candidate(ops, n, total) == expected[0]
        x = total.x_block()
        edges = {(i, j) for i in range(n) for j in range(n) if i != j and x[i][j]}
        ambiguous += len(edges) > 5 and not _topological_orders_unique(edges, n)


def _unit_acyclic(x, n):
    """Whether x has unit diagonal and its off-diagonal wire graph has no cycle."""
    if any(x[i][i] != ONE for i in range(n)):
        return False
    left = set(range(n))
    while left:
        # wires with no edge into them from the wires left
        sources = {j for j in left if not any(x[i][j] for i in left if i != j)}
        if not sources:
            return False
        left -= sources
    return True


@settings(max_examples=300, deadline=None)
@given(cnot_gate_lists())
@example((4, parse_sequence("CNOT 4 2 D^-2\nCNOT 2 1 D^-3+D^-1+1\n"
                            "CNOT 3 2 D^-4+D^2+D^4\nCNOT 4 1 D\n")))
# acyclic, but the diagonal is D^-2, D^2
@example((2, parse_sequence("CNOT 1 2 D^-1\nCNOT 2 1 D^-1+D\nCNOT 1 2 D\n")))
def test_dag_candidate_exists_exactly_for_unit_acyclic_products(case):
    # the ordering with every edge out of a wire before every edge into it
    # has no cross terms, so a unit, acyclic X block always gets a candidate
    n, gates = case
    total = sequence_transfer(gates, n)
    dag = synthesis._cnot_dag_candidate(gates, n, total)
    if _unit_acyclic(total.x_block(), n):
        assert dag is not None and sequence_transfer(dag, n) == total
    else:
        assert dag is None


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
        plan = css_encoder(*code)
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


def _causal_floor(ops, total):
    """Least m of any candidate ``compile_sequence`` can build, or None.

    It is defined only when every gate is CNOT, CPHASE, CPHASE1, H or P
    (no DELAY, no feedback); every candidate built from such a list has
    only these kinds too.  Each candidate then cascades to one section of
    equal depth on every wire whose tap product is exactly ``total``, the
    gate product; reduction keeps that product and keeps the depths
    equal, so the reduced transfer is ``total``·D^m.  Causality
    (certified by ``check_schedule``) makes every exponent of it at
    least 0, so m is at least ``-e.delay`` for every nonzero entry e of
    ``total``.
    """
    if any(g.kind not in ("CNOT", "CPHASE", "CPHASE1", "H", "P") for g in ops):
        return None
    return -total.min_delay()


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


def _matrix_entries():
    """Zero, Laurent and rational entries, the rational ones zero at times."""
    laurent = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(LaurentPoly)
    den = st.sets(st.integers(1, 3), min_size=1).map(lambda s: LaurentPoly({0} | s))
    rational = st.builds(RationalTransfer, st.one_of(st.just(ZERO), laurent), den)
    return st.one_of(st.just(ZERO), st.just(ZERO), laurent, laurent, rational)


@st.composite
def symp_matrices(draw, entries):
    n = draw(st.integers(1, 3))
    return SympMatrix(n, [[draw(entries) for _ in range(2 * n)] for _ in range(2 * n)])


def _abs_deg_per_entry(m):
    best = 0
    for row in m.rows:
        for e in row:
            if isinstance(e, RationalTransfer):
                raise ValueError("absolute degree requires polynomial entries")
            best = max(best, e.abs_deg)
    return best


@settings(max_examples=200, deadline=None)
@given(st.one_of(symp_matrices(_matrix_entries()),
                 symp_matrices(st.lists(st.integers(-4, 4), max_size=3).map(LaurentPoly))))
def test_abs_deg_and_causal_floor_match_per_entry_references(m):
    assert _outcome(m.abs_deg) == _outcome(_abs_deg_per_entry, m)
    expected = max((-e.delay for row in m.rows for e in row if e), default=0)
    assert _causal_floor([Gate("H", (1,))], m) == expected
    assert _causal_floor([Gate("DELAY", (1,), pp("D"))], m) is None


@settings(max_examples=200, deadline=None)
@given(st.one_of(cnot_gate_lists(), finite_gate_lists().map(_floor_gates),
                 mixed_gate_lists().map(_floor_gates)))
def test_causal_floor_bounds_every_candidate(case):
    n, gates = case
    total = sequence_transfer(gates, n)
    floor = _causal_floor(gates, total)
    assert floor is not None
    for v in _compile_candidates(gates, n, total):
        if v is not gates and sequence_transfer(v, n) != total:
            continue  # compile_sequence never takes it
        reduced = reduce_memory(circuit_mod._cascade_all(v, n))
        assert floor <= reduced.m
        # the reduced circuit's absolute transfer is the product delayed by m
        t, lat = circuit_transfer(reduced)
        assert t.shifted(lat) == total.shifted(reduced.m)
        # so the one-cycle impulse test that stops the search marks the floor
        assert responds_at_once(reduced) == (reduced.m == floor)


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
    assert _causal_floor(ops, sequence_transfer(ops, 2)) == 3
    calls = _count_compile_steps(monkeypatch)
    circ = compile_sequence(ops, 2)
    assert circ.m == 3
    # the gates as given reach the floor: one reduction, no other candidate
    assert calls == {"reduce_memory": 1}


def _count_products(monkeypatch):
    """Record the gate lists multiplied out and the products handed to the factorizations."""
    products, given = [], []

    def counted(ops, n, _fn=synthesis.sequence_transfer):
        products.append(list(ops))
        return _fn(ops, n)
    monkeypatch.setattr(synthesis, "sequence_transfer", counted)
    for name in ("_cnot_dag_candidate", "_cnot_euclid_candidate"):
        def seen(ops, n, total, _fn=getattr(synthesis, name)):
            given.append(total)
            return _fn(ops, n, total)
        monkeypatch.setattr(synthesis, name, seen)
    return products, given


def test_compile_at_the_floor_multiplies_no_gate_product(monkeypatch):
    products, given = _count_products(monkeypatch)
    assert compile_sequence(parse_sequence("CNOT 1 2 D^3\n"), 2).m == 3
    assert products == given == []


@pytest.mark.parametrize("text, wires, m, factorizations", [
    # the DAG candidate reaches the floor m = 5, so Euclid is never built
    ("CNOT 4 2 D^-2\nCNOT 2 1 D^-3+D^-1+1\nCNOT 3 2 D^-4+D^2+D^4\nCNOT 4 1 D\n", 4, 5, 1),
    # both factorizations are built; the product is multiplied once for both
    ("CNOT 1 2 D^-3+D^3\nCNOT 2 4 D+D^2\nCNOT 1 2 D+D^2\n", 4, 4, 2),
], ids=["dag-reaches-floor", "dag-and-euclid"])
def test_compile_multiplies_the_gate_product_once(monkeypatch, text, wires, m, factorizations):
    ops = parse_sequence(text)
    products, given = _count_products(monkeypatch)
    assert compile_sequence(ops, wires).m == m
    assert len(given) == factorizations
    assert all(total is given[0] for total in given)
    # the product of the gates as given, then the winner check of the one
    # later candidate that reduced below the best so far
    assert len(products) == 2 and products[0] == ops and products[1] != ops


def test_compile_names_the_gate_past_the_last_wire():
    with pytest.raises(ValueError, match=r"^gate CNOT 1 5 1 references a wire beyond 4$"):
        compile_sequence(parse_sequence("CNOT 1 5 1\n"), 4)


def test_compile_at_the_floor_keeps_no_cell_per_frame():
    # 200 wires of 99999 frames: a dense one-cycle state would hold 2e7 cells
    ops = parse_sequence("CNOT 1 2 D^99999\n")
    start = time.perf_counter()
    assert compile_sequence(ops, 200).m == 99999
    assert time.perf_counter() - start < 0.5
    tracemalloc.start()
    try:
        compile_sequence(ops, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # bytes; 2e7 cells at even 8 bytes each are 160 MB


@pytest.mark.parametrize("text", [
    "CNOT 1 2 D^3\nDELAY 2 1\n",
    "INFZ 2 1+D\nCNOT 1 2 D^3\n",
    "INFX 1 1+D^2\n",
], ids=["delay", "inf-z", "inf-x"])
def test_compile_without_causal_floor_tries_every_candidate(monkeypatch, text):
    ops = parse_sequence(text)
    assert _causal_floor(ops, sequence_transfer(ops, 2)) is None
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
    plan = css_encoder(hx, hz)  # an encoded code is never catastrophic
    fresh = unencoded_stabilizer(n, len(hx), len(hz))
    replay = fresh
    for g in plan.ops:
        replay = replay.apply(gate_matrix(g, n))
    assert row_space_equiv(replay, StabilizerMatrix.from_css(hx, hz))
    circ = plan.circuit()
    transfer, _ = circuit_transfer(circ)
    assert row_space_equiv(fresh.apply(transfer), StabilizerMatrix.from_css(hx, hz))
    assert circ.m >= _causal_floor(plan.ops, plan.b_overall)


def _golden_cascades():
    """200 seeded CNOT cascades in the shapes of the benchmark's compile cells.

    Cells are (wires, gates) in (3, 3), (3, 4), (4, 4), (4, 5), each with
    delay-free taps (exponents 0..4) and signed ones (-4..4), 25 per cell;
    every tap polynomial has 1 to 3 distinct exponents.
    """
    rng = random.Random("golden-cascades")
    for n, count in ((3, 3), (3, 4), (4, 4), (4, 5)):
        for lo in (0, -4):
            for _ in range(25):
                ops = []
                for _ in range(count):
                    i, j = rng.sample(range(1, n + 1), 2)
                    terms = rng.sample(range(lo, 5), rng.randint(1, 3))
                    ops.append(Gate("CNOT", (i, j), LaurentPoly(terms)))
                yield ops, n


# sha256 over m and circuit_to_text of every compiled golden cascade,
# recorded before the scheduling kernel was rewritten on per-wire frontiers
GOLDEN_CASCADE_DIGEST = "2c93e6c493e1248e23cd3397258ba6c772aaf368a1549c118a0c1f02a3786985"


def test_compiled_cascades_match_golden_digest():
    digest = hashlib.sha256()
    for ops, n in _golden_cascades():
        c = compile_sequence(ops, n)
        digest.update(f"{c.m}\n{circuit_to_text(c)}".encode())
    assert digest.hexdigest() == GOLDEN_CASCADE_DIGEST


def _golden_layout_lists():
    """200 seeded (ops, n) gate lists over every gate kind; every third has feedback.

    Kinds and wires follow ``mixed_gate_lists``.  CNOT and CPHASE taps
    have 0 to 3 exponents in D^-4..D^4 (none is the zero polynomial),
    CPHASE1 lags are 1..4 and DELAYs 0..3, and every third list holds one
    INF_Z or INF_X gate.
    """
    rng = random.Random("golden-layout")
    for k in range(200):
        n = rng.randint(2, 4)
        ops = []
        for _ in range(rng.randint(1, 8)):
            kind = rng.choice(("CNOT", "CNOT", "CPHASE", "CPHASE1", "H", "P", "DELAY"))
            i = rng.randint(1, n)
            if kind in ("CNOT", "CPHASE"):
                j = rng.choice([w for w in range(1, n + 1) if w != i])
                taps = [rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
                ops.append(Gate(kind, (i, j), LaurentPoly(taps)))
            elif kind == "CPHASE1":
                lags = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
                ops.append(Gate(kind, (i,), LaurentPoly(lags)))
            elif kind == "DELAY":
                ops.append(Gate(kind, (i,), LaurentPoly.monomial(rng.randint(0, 3))))
            else:
                ops.append(Gate(kind, (i,)))
        if k % 3 == 2:
            rest = rng.sample(range(1, 4), rng.randint(1, 3))
            ops.insert(rng.randint(0, len(ops)),
                       Gate(rng.choice(("INF_Z", "INF_X")), (rng.randint(1, n),),
                            LaurentPoly([0] + rest)))
        yield ops, n


# sha256 over the text of the layout, of its reduction and of the compiled
# circuit of every golden layout list, recorded before the layout pass read
# taps off set bits and kept one run depth
GOLDEN_LAYOUT_DIGEST = "cf36b07b6e5cf73a628a3cf248774ededd9e66d92091953ade73162f0c0e0601"


def test_layout_pass_matches_golden_digest():
    digest = hashlib.sha256()
    for ops, n in _golden_layout_lists():
        laid = circuit_mod._cascade_all(ops, n)
        for c in (laid, reduce_memory(laid), compile_sequence(ops, n)):
            digest.update(circuit_to_text(c).encode())
    assert digest.hexdigest() == GOLDEN_LAYOUT_DIGEST


def _golden_css_codes():
    """200 seeded codes from ``_random_css_code``: 3 to 6 wires, encoders of
    1 to 4 CNOTs with exponents 0..3."""
    rng = random.Random("golden-css")
    codes = []
    while len(codes) < 200:
        n = rng.randint(3, 6)
        s_x = rng.randint(1, n - 2)
        code = _random_css_code(rng, n, s_x, rng.randint(1, n - 1 - s_x), 4, 3)
        if code is not None:
            codes.append(code)
    return codes


def _split_css_digests(codes, changed, named):
    """Digests of the codes outside and inside ``changed``, and the rejection classes.

    Each code adds its plan's gate list, memory bound, compiled m, circuit
    text and encoding matrix to its part's sha256, or its rejection message
    (after its class name when ``named``).  ``changed`` maps the index of
    every code whose record the Laurent-ring Smith form changed to the m it
    compiled to under the GF(2)[D] form, or None where that form refused
    it.  A changed code must keep being encoded if it was, must pass the
    row-space oracle when it is, and the m of the codes the old form
    encoded must not sum higher than it did.
    """
    same, moved = hashlib.sha256(), hashlib.sha256()
    kinds = set()
    m_before = m_after = 0
    for k, (hx, hz) in enumerate(codes):
        digest = moved if k in changed else same
        try:
            plan = css_encoder(hx, hz)
        except SynthesisError as exc:
            assert changed.get(k) is None
            kinds.add(type(exc))
            digest.update(f"rejected {type(exc).__name__ + ' ' if named else ''}{exc}\n".encode())
            continue
        c = plan.circuit()
        digest.update(f"{format_sequence(plan.ops)}\n{plan.memory_bound}\n{c.m}\n"
                      f"{circuit_to_text(c)}{plan.b_overall.to_text()}".encode())
        if k in changed:
            assert _encodes(plan, hx, hz)
        if changed.get(k, c.m) is not None:
            m_before += changed.get(k, c.m)
            m_after += c.m
    assert m_after <= m_before
    return same.hexdigest(), moved.hexdigest(), kinds


# golden codes whose record the Laurent-ring Smith form changed: index -> m
# under the GF(2)[D] form, None where it refused the code as catastrophic
# (18 codes, all of them encoded now); the 182 codes it encoded sum to m 304
# there and 291 here
GOLDEN_CSS_CHANGED = {
    8: None, 9: 1, 12: None, 16: 3, 17: 2, 18: 3, 20: 3, 21: 7, 28: 3, 30: None,
    34: None, 43: 2, 50: 6, 51: 1, 52: 5, 55: 4, 56: 3, 66: None, 73: 1, 75: 3,
    78: None, 81: None, 83: None, 85: 3, 87: 3, 90: 3, 92: 1, 93: 8, 96: 4, 97: 5,
    103: 2, 105: None, 106: 3, 114: None, 118: 3, 123: None, 131: 13, 133: 3,
    138: 2, 144: None, 145: None, 146: 2, 147: 6, 148: 6, 157: 3, 161: 3, 162: 3,
    164: 4, 167: None, 168: 3, 169: 2, 174: None, 175: 9, 176: None, 178: 1,
    180: None, 192: 3, 196: 3, 197: None,
}
# sha256 over the records of the other 141 golden codes, recorded under the
# GF(2)[D] Smith form; and over the records of the changed ones
GOLDEN_CSS_DIGEST = "5bcd03db232507c55b3e1437457a8846350b657c2ae19b22f0e6b47948b9074a"
GOLDEN_CSS_CHANGED_DIGEST = "cf160c0162fc42e930cd75db79ee99c336b8676aecbd5fc068b1fb7388a957ea"


def test_css_encoders_match_golden_digest():
    same, moved, kinds = _split_css_digests(_golden_css_codes(), GOLDEN_CSS_CHANGED, False)
    assert kinds == set()
    assert same == GOLDEN_CSS_DIGEST
    assert moved == GOLDEN_CSS_CHANGED_DIGEST


# css-synth population codes whose compiled m rose when the Smith form moved
# from GF(2)[D] to the Laurent ring, keyed by the benchmark cell (n x gates)
# and index in that cell's population: (m under the GF(2)[D] form, m now, X
# check rows, Z check rows), rows separated by " / ".  Every one now compiles
# within its plan's memory bound; the encoder search of ROADMAP item 2 is to
# bring each back to its old m or below.
M_ROSE_UNDER_LAURENT_SMITH = {
    "3x3#116": (2, 3, "1 D+D^2 D", "1+D+D^2 D^3 D"),
    "3x3#139": (4, 5, "1 0 1+D^2", "1+D^3+D^4+D^5 D^5 D^2+D^4+D^5"),
    "3x3#141": (3, 6, "1 0 D^3", "1+D+D^2 D^6 D^3+D^4+D^5"),
    "3x3#199": (3, 4, "1 0 D^2", "1+D+D^2 D^4 D^2+D^3+D^4"),
    "3x3#214": (3, 5, "1 0 D^2", "1+D^3 D^5 D^2+D^5"),
    "4x3#6": (4, 5, "1 0 0 1+D^2+D^3", "1+D^4+D^5 D^5 0 D^3+D^4+D^5 / 0 0 1 0"),
    "4x3#107": (3, 5, "1 0 0 0", "0 D^5 D^3 1+D+D^3"),
    "4x3#110": (4, 7, "1 0 D^3 0 / 0 1 0 D+D^3", "D^4 1+D^2 D^7 D^3"),
    "4x3#123": (3, 4, "1 D 0 D+D^2+D^3", "1+D+D^2+D^3 D^4 0 D^3 / 0 0 1 0"),
    "4x3#140": (2, 3, "1 0 0 0", "0 D^3 D^2 1+D+D^2"),
    "4x3#168": (4, 6, "1 0 1+D+D^2+D^3 0", "1+D+D^4+D^5 D^6 D^3+D^5 0"),
    "4x3#188": (3, 5, "1 0 D^3 1+D+D^3 / 0 1 0 0", "1+D^3 0 D^5 D^3"),
    "4x4#3": (2, 3, "1 0 1+D+D^2 0", "1+D^3 D^3 D^2+D^3 0"),
    "4x4#61": (3, 6, "1 1+D+D^3 1+D^3 0", "1+D^5+D^6 D^6 D^3 D^3 / 1+D^3 0 D^3 0"),
    "4x4#124": (3, 6, "1 0 0 D^3", "1 D^6 0 D^3"),
    "4x4#125": (5, 6, "1 D+D^3 0 D^2+D^3", "1+D^5 D^6 0 D^3+D^4+D^5"),
    "4x4#199": (5, 8, "1 D^2+D^3 1+D^2+D^3 D^3+D^4", "1+D^2+D^3+D^4+D^5+D^6 D^8 D^3+D^4 0"),
    "5x3#4": (3, 5, "1 0 0 D+D^3 0", "1+D+D^2+D^3 D^5 0 D^3+D^4 D^2+D^3"),
    "5x3#17": (4, 5, "1 0 0 0 1+D^2+D^3 / 0 1 0 0 0", "1+D^2+D^3+D^4 0 D^5 D^2+D^4 D^3+D^4"),
    "5x3#29": (3, 6, "1 0 0 0 D^3 / 0 1 0 0 0 / 0 0 1 0 0", "1 0 0 D^6 D^3"),
    "5x3#103": (3, 6, "1 0 0 0 1+D^3 / 0 1 0 0 0 / 0 0 1 0 0",
                "1+D+D^2+D^3+D^4+D^5 0 0 D^6 D^3+D^4+D^5"),
    "5x3#117": (4, 5, "1 0 0 0 1+D^2", "0 1 0 0 0 / 1+D^3+D^4+D^5 0 D^5 0 D^2+D^4+D^5"),
    "5x3#154": (3, 6, "1 0 0 0 D+D^3", "1+D^2 D^6 0 0 D^3 / 0 0 1 0 0"),
    "5x4#114": (3, 6, "1 0 1+D+D^2 D+D^2+D^3 0 / 0 1 0 0 0", "1+D^2+D^5+D^6 0 D^6 D^3+D^4+D^5 D^3"),
    "5x4#117": (4, 6, "1 0 0 0 1+D+D^3 / D 1 0 D^2 D+D^2+D^4 / 0 0 1 0 0",
                "1+D^3+D^4+D^5 D^4 0 D^6 D^3+D^5"),
    "5x4#166": (3, 4, "1 0 0 D+D^2 0 / 0 1 0 0 0", "1+D+D^2+D^3 0 D^4 D^2+D^4 D"),
    "5x4#205": (3, 6, "1 0 0 D^3 1+D+D^3 / 0 1 0 0 0 / 0 0 1 0 0", "1+D^2 0 0 D^6 D^3"),
    "6x4#1": (3, 4, "1 0 0 0 0 0 / 0 1 0 0 0 0", "0 0 D^4 D 1+D+D^2+D^3 0"),
    "6x4#91": (3, 5, "1 0 0 0 1+D 0 / 0 1 0 0 0 1+D^2", "0 1+D^2+D^3+D^5 D^5 0 0 D^2+D^5"),
    "6x4#130": (4, 5, "1 0 0 0 0 1+D+D^3",
                "0 D^3 0 0 1+D 0 / 1+D^3+D^4+D^5 0 D^5 D^4+D^5 0 D^3+D^5"),
    "6x4#140": (3, 5, "1 0 0 0 0 0 / 0 1 0 0 0 D+D^2+D^3 / 0 1+D^2 1 0 0 D+D^2+D^4+D^5",
                "0 1+D^3 0 D^5 0 D^3+D^4"),
    "7x4#92": (4, 5, "1 0 0 0 0 0 0 / 0 1 0 0 0 0 1 / 0 1+D+D^3 1 0 0 0 0 / 0 0 0 1 0 0 0"
                     " / D+D^2 0 0 0 1 0 0", "0 D^3+D^4+D^5 1+D+D^5 0 0 D^5 D^3+D^4+D^5"),
    "7x4#183": (2, 3, "1 0 0 0 0 0 0 / 0 1 0 0 0 1+D+D^2 0 / 0 0 1 0 0 0 0"
                      " / 0 0 0 1+D^4 D^3 0 0 / 0 0 0 D 1 0 0", "0 1+D+D^2 0 0 0 D^2 0"),
}


def _check_rows(text):
    return [[pp(e) for e in row.split()] for row in text.split(" / ")]


def test_codes_whose_m_rose_under_laurent_smith():
    for key, (m_before, m_now, hx, hz) in M_ROSE_UNDER_LAURENT_SMITH.items():
        plan = css_encoder(_check_rows(hx), _check_rows(hz))
        m = plan.circuit().m
        assert (key, m) == (key, m_now) and m_now > m_before
        assert m <= plan.memory_bound, key


def test_code_newly_above_its_bound_under_laurent_smith():
    # css-synth population 4x4#16 compiled to m 13 against a bound of 13
    # under the GF(2)[D] Smith form; its m fell and its bound fell further
    plan = css_encoder(_check_rows("1+D+D^2+D^3+D^6 D+D^2+D^3+D^6 1+D+D^3+D^8+D^9 1+D+D^3"),
                       _check_rows("0 D^3 0 1+D^2 / 1+D+D^3 0 D^3 0"))
    assert (plan.circuit().m, plan.memory_bound) == (10, 9)


def _one_sided_css_codes():
    """100 seeded codes with check rows on one side only, 2 to 5 wires.

    Even draws come from ``_random_css_code`` with every ancilla in |+>,
    odd draws are random delay-free rows (some dependent, some
    catastrophic); each code keeps its rows as X checks or moves them to
    the Z side with even odds.
    """
    rng = random.Random("one-sided-css")
    codes = []
    while len(codes) < 100:
        n = rng.randint(2, 5)
        s = rng.randint(1, n)
        if len(codes) % 2:
            rows = [[LaurentPoly(rng.sample(range(3), rng.randint(0, 2))) for _ in range(n)]
                    for _ in range(s)]
        else:
            rows, _ = _random_css_code(rng, n, s, 0, 4, 3)
        codes.append((rows, []) if rng.random() < 0.5 else ([], rows))
    return codes


# one-sided codes whose record changed, as in GOLDEN_CSS_CHANGED: 6 codes
# refused by the GF(2)[D] form are encoded now, and 25 are still refused as
# catastrophic with the reworded message naming the factor; the 63 codes the
# old form encoded sum to m 119 there and 115 here
ONE_SIDED_CSS_CHANGED = {
    1: None, 3: None, 5: None, 7: 2, 11: None, 13: None, 15: 2, 17: None, 23: None,
    24: 2, 25: None, 27: 2, 29: None, 31: None, 33: None, 35: None, 37: 2, 39: None,
    41: 4, 43: None, 45: None, 47: 2, 51: None, 55: None, 57: None, 59: None,
    61: None, 63: None, 67: None, 71: None, 73: None, 75: None, 77: None, 79: None,
    85: 3, 89: None, 93: None, 97: None, 99: None,
}
# sha256 over the fields of GOLDEN_CSS_DIGEST, with each rejection's class, for
# the other 61 one-sided codes under the GF(2)[D] form; and for the changed ones
ONE_SIDED_CSS_DIGEST = "dea6f302fc8f042c1bef4f93d1d3c6184b8c04c1864438c5f95887e7372947a5"
ONE_SIDED_CSS_CHANGED_DIGEST = "cb8db42ccbe8fadde2ccd04aadb141a937302b37c6b69aea7c48dfb2307bbf31"


def test_one_sided_css_encoders_match_golden_digest():
    same, moved, kinds = _split_css_digests(_one_sided_css_codes(), ONE_SIDED_CSS_CHANGED, True)
    # dependent and catastrophic rows were both drawn
    assert kinds == {SynthesisError, CatastrophicCode}
    assert same == ONE_SIDED_CSS_DIGEST
    assert moved == ONE_SIDED_CSS_CHANGED_DIGEST
