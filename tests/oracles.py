"""Reference checks that only the tests read.

Each is kept out of the package it checks: the symplectic condition,
shift-invariant commutation, the pairing a(D) . b^T(D^-1) behind dual
containment, the GF(2)[D] gcd, the symplectic product of two streams,
one frame of a stream, and the replays of a Smith decomposition's column
record as b and b^-1.
"""

from qshift.gf2poly import ONE, ZERO, LaurentPoly, _gcd_bits, _ordinary_bits, _poly
from qshift.simulator import PauliStream
from qshift.symplectic import StabilizerMatrix, SympMatrix, add_row
from qshift.synthesis import _pmat_identity


# ---------------------------------------------------------------------------
# Symplectic matrices and stabilizers


def transpose_subst_inv(m: SympMatrix) -> SympMatrix:
    """Substitute D -> D^-1 entrywise, then transpose."""
    size = 2 * m.n
    return SympMatrix(m.n, [[m.rows[j][i].subst_inv()
                             for j in range(size)] for i in range(size)])


def lam(n: int) -> SympMatrix:
    """The symplectic form [[0, I], [I, 0]]."""
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = ONE
        rows[n + i][i] = ONE
    return SympMatrix(n, rows)


def is_symplectic(m: SympMatrix) -> bool:
    lam_ = lam(m.n)
    return (m @ lam_ @ transpose_subst_inv(m)) == lam_


def pairing(a_rows, b_rows) -> list:
    """The shift-invariant pairing a(D) . b^T(D^-1) of two row lists.

    Entry (i, j) is the sum over k of a_i[k] * b_j[k](D^-1).
    """
    return [[sum((x * y.subst_inv() for x, y in zip(ra, rb) if x and y), ZERO)
             for rb in b_rows] for ra in a_rows]


def dual_containing(hx, hz) -> bool:
    """True iff hx(D) . hz^T(D^-1) = 0."""
    return not any(any(row) for row in pairing(hx, hz))


def commutation_ok(stab: StabilizerMatrix) -> bool:
    """Shift-invariant commutation for every row pair (self included)."""
    n = stab.n
    swapped = [r[n:] + r[:n] for r in stab.rows]  # b . L for each row b
    return not any(any(row) for row in pairing(stab.rows, swapped))


# ---------------------------------------------------------------------------
# Polynomials and streams


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Greatest common divisor over GF(2)[D] (monic automatically)."""
    if not b:
        return a
    return _poly(_gcd_bits(_ordinary_bits(a), _ordinary_bits(b)), 0)


def symplectic_product(a: PauliStream, b: PauliStream) -> int:
    """0 if the two Pauli operator streams commute, 1 if they anticommute."""
    if a.n != b.n:
        raise ValueError("stream width mismatch")
    acc = 0
    for w in range(a.n):
        acc ^= len(a.zs[w].support & b.xs[w].support) & 1
        acc ^= len(a.xs[w].support & b.zs[w].support) & 1
    return acc


def stream_frame(stream: PauliStream, t: int) -> list:
    """The (z, x) bits of every wire at cycle t."""
    return [(p.coeff(t), q.coeff(t)) for p, q in zip(stream.zs, stream.xs)]


# ---------------------------------------------------------------------------
# Smith decompositions: the column record replayed


def b_matrix(sm) -> list:
    """``sm.col_ops`` replayed in order on I, each as the row operation it makes of b."""
    b = _pmat_identity(len(sm.s[0]))
    for src, dst, f in sm.col_ops:  # column dst += f column src: row src += f row dst
        add_row(b[src], b[dst], f)
    return b


def b_inverse(sm) -> list:
    """Identity with the recorded column operations replayed in order."""
    out = _pmat_identity(len(sm.s[0]))
    for src, dst, f in sm.col_ops:
        for row in out:
            if row[src]:
                row[dst] = row[dst] + f * row[src]
    return out
