"""Symplectic polynomial matrices over GF(2) in [Z|X] block layout.

A shift-invariant Clifford transformation on n qubits per frame acts on
a row vector (z_1 .. z_n | x_1 .. x_n) of Laurent polynomials by
postmultiplication.  Rows of a matrix are indexed by the input
generators Z_1..Z_n then X_1..X_n; columns split into the Z block then
the X block.  Wires are numbered from 1.

Closed-form matrices for every elementary gate are produced by
:func:`gate_matrix`; validity is the shift-invariant symplectic
condition  m . L . m^T(D^-1) = L  with L = [[0, I], [I, 0]].  The same
closed forms, kept as the few columns each gate changes
(:func:`gate_columns`), let :func:`apply_gates` multiply a transfer by
a gate sequence without dense matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2poly import (
    ONE,
    ZERO,
    LaurentPoly,
    ParseError,
    RationalTransfer,
    entry_add,
    entry_delay,
    entry_is_zero,
    entry_mul,
    entry_parse,
    entry_shift,
    entry_str,
    entry_subst_inv,
    parse_poly,
    ratio,
)

GATE_KINDS = ("CNOT", "CPHASE", "CPHASE1", "H", "P", "DELAY", "INF_Z", "INF_X")

# mnemonics used by the gate-sequence text format
_KIND_TO_TEXT = {"INF_Z": "INFZ", "INF_X": "INFX"}
_TEXT_TO_KIND = {"INFZ": "INF_Z", "INFX": "INF_X"}


@dataclass(frozen=True)
class Gate:
    """One elementary shift-invariant operation.

    ``poly`` holds the gate polynomial f(D); for DELAY it holds the
    monomial D^l encoding the shift amount.
    """

    kind: str
    wires: tuple
    poly: LaurentPoly | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        wires = tuple(self.wires)
        object.__setattr__(self, "wires", wires)
        if any(w < 1 for w in wires):
            raise ValueError("wires are numbered from 1")
        if self.kind in ("CNOT", "CPHASE"):
            if len(wires) != 2 or wires[0] == wires[1]:
                raise ValueError(f"{self.kind} needs two distinct wires")
            if self.poly is None:
                raise ValueError(f"{self.kind} needs a polynomial")
        elif self.kind == "CPHASE1":
            if len(wires) != 1:
                raise ValueError("CPHASE1 acts on one wire")
            if self.poly is None:
                raise ValueError("CPHASE1 needs a polynomial")
            if self.poly and self.poly.delay < 1:
                raise ValueError("self-phase at lag 0 is a P gate")
        elif self.kind in ("H", "P"):
            if len(wires) != 1:
                raise ValueError(f"{self.kind} acts on one wire")
            if self.poly is not None:
                raise ValueError(f"{self.kind} takes no polynomial")
        elif self.kind == "DELAY":
            if len(wires) != 1:
                raise ValueError("DELAY acts on one wire")
            if self.poly is None or not self.poly.is_monomial or self.poly.deg < 0:
                raise ValueError("DELAY needs a monomial D^l with l >= 0")
        else:  # INF_Z / INF_X
            if len(wires) != 1:
                raise ValueError(f"{self.kind} acts on one wire")
            f = self.poly
            if f is None or not f or f.delay != 0 or f.deg < 1:
                raise ValueError(
                    f"{self.kind} needs a monic feedback polynomial with "
                    "delay 0 and degree >= 1")

    @property
    def delay_amount(self) -> int:
        if self.kind != "DELAY":
            raise ValueError("delay_amount only applies to DELAY gates")
        return self.poly.deg

    def __str__(self) -> str:
        kind = _KIND_TO_TEXT.get(self.kind, self.kind)
        parts = [kind] + [str(w) for w in self.wires]
        if self.kind == "DELAY":
            parts.append(str(self.delay_amount))
        elif self.poly is not None:
            parts.append(str(self.poly))
        return " ".join(parts)


def parse_gate(line: str) -> Gate:
    """Parse one line of the gate-sequence format, e.g. ``CNOT 3 2 1+D^-1``."""
    fields = line.split()
    if not fields:
        raise ParseError("empty gate line")
    kind = _TEXT_TO_KIND.get(fields[0].upper(), fields[0].upper())
    if kind not in GATE_KINDS:
        raise ParseError(f"unknown gate mnemonic {fields[0]!r}")
    try:
        if kind in ("CNOT", "CPHASE"):
            if len(fields) != 4:
                raise ParseError(f"{kind} expects: {kind} i j f")
            return Gate(kind, (int(fields[1]), int(fields[2])), parse_poly(fields[3]))
        if kind in ("CPHASE1", "INF_Z", "INF_X"):
            if len(fields) != 3:
                raise ParseError(f"{kind} expects a wire and a polynomial")
            return Gate(kind, (int(fields[1]),), parse_poly(fields[2]))
        if kind == "DELAY":
            if len(fields) != 3:
                raise ParseError("DELAY expects a wire and a shift")
            return Gate(kind, (int(fields[1]),), LaurentPoly.monomial(int(fields[2])))
        if len(fields) != 2:
            raise ParseError(f"{kind} expects a single wire")
        return Gate(kind, (int(fields[1]),))
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad gate line {line!r}: {exc}") from exc


class SympMatrix:
    """2n x 2n polynomial (or rational) matrix acting by postmultiplication."""

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, rows):
        if len(rows) != 2 * n or any(len(r) != 2 * n for r in rows):
            raise ValueError(f"expected {2 * n}x{2 * n} entries")
        self.n = n
        self._rows = tuple(tuple(r) for r in rows)

    @classmethod
    def identity(cls, n: int) -> "SympMatrix":
        return cls(n, [[ONE if i == j else ZERO for j in range(2 * n)]
                       for i in range(2 * n)])

    @classmethod
    def block_diag_zx(cls, z_block, x_block) -> "SympMatrix":
        """Assemble [[Z, 0], [0, X]] from two n x n blocks."""
        n = len(z_block)
        rows = []
        for i in range(n):
            rows.append(list(z_block[i]) + [ZERO] * n)
        for i in range(n):
            rows.append([ZERO] * n + list(x_block[i]))
        return cls(n, rows)

    @property
    def rows(self) -> tuple:
        return self._rows

    def entry(self, i: int, j: int):
        return self._rows[i][j]

    @property
    def is_polynomial(self) -> bool:
        return all(isinstance(e, LaurentPoly) for row in self._rows for e in row)

    def z_block(self):
        n = self.n
        return [list(self._rows[i][:n]) for i in range(n)]

    def x_block(self):
        n = self.n
        return [list(self._rows[n + i][n:]) for i in range(n)]

    def __matmul__(self, other: "SympMatrix") -> "SympMatrix":
        if not isinstance(other, SympMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        size = 2 * self.n
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                acc = ZERO
                for k in range(size):
                    a = self._rows[i][k]
                    b = other._rows[k][j]
                    if entry_is_zero(a) or entry_is_zero(b):
                        continue
                    acc = entry_add(acc, entry_mul(a, b))
                row.append(acc)
            rows.append(row)
        return SympMatrix(self.n, rows)

    def transpose_subst_inv(self) -> "SympMatrix":
        """Substitute D -> D^-1 entrywise, then transpose."""
        size = 2 * self.n
        return SympMatrix(self.n, [[entry_subst_inv(self._rows[j][i])
                                    for j in range(size)] for i in range(size)])

    def shifted(self, c: int) -> "SympMatrix":
        if c == 0:
            return self
        return SympMatrix(self.n, [[entry_shift(e, c) for e in row]
                                   for row in self._rows])

    def is_symplectic(self) -> bool:
        lam_ = lam(self.n)
        return (self @ lam_ @ self.transpose_subst_inv()) == lam_

    def abs_deg(self) -> int:
        """Max over entries of max{deg, |delay|}; entries must be polynomial."""
        best = 0
        for row in self._rows:
            for e in row:
                if isinstance(e, RationalTransfer):
                    raise ValueError("absolute degree requires polynomial entries")
                best = max(best, e.abs_deg)
        return best

    def latency_shift(self) -> int:
        """Smallest global exponent L minimizing abs_deg of self * D^-L."""
        degs = []
        dels = []
        for row in self._rows:
            for e in row:
                if isinstance(e, RationalTransfer):
                    raise ValueError("latency normalization requires polynomial entries")
                if e:
                    degs.append(e.deg)
                    dels.append(e.delay)
        if not degs:
            return 0
        hi, lo = max(degs), min(dels)
        best_l, best_v = lo, None
        for lshift in range(lo, hi + 1):
            v = max(hi - lshift, lshift - lo)
            if best_v is None or v < best_v:
                best_l, best_v = lshift, v
        return best_l

    def min_delay(self) -> int:
        """Smallest series exponent over nonzero entries (rational-aware)."""
        vals = [entry_delay(e) for row in self._rows for e in row if not entry_is_zero(e)]
        if not vals:
            return 0
        return min(vals)

    def __eq__(self, other):
        if not isinstance(other, SympMatrix):
            return NotImplemented
        return self.n == other.n and all(
            a == b for ra, rb in zip(self._rows, other._rows) for a, b in zip(ra, rb))

    def __hash__(self):
        return hash((self.n, self._rows))

    def equal_mod_monomial(self, other: "SympMatrix"):
        """Return the shift c with self == other * D^c, or None."""
        if self.n != other.n:
            return None
        c = None
        for ra, rb in zip(self._rows, other._rows):
            for a, b in zip(ra, rb):
                za, zb = entry_is_zero(a), entry_is_zero(b)
                if za != zb:
                    return None
                if za:
                    continue
                if c is None:
                    c = entry_delay(a) - entry_delay(b)
                if a != entry_shift(b, c):
                    return None
        return 0 if c is None else c

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        for row in self._rows:
            lines.append(" ".join(entry_str(e) for e in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SympMatrix":
        lines = [ln for ln in (raw.strip() for raw in text.splitlines())
                 if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("n "):
            raise ParseError("matrix file must start with 'n <qubits>'")
        try:
            n = int(lines[0].split()[1])
        except (IndexError, ValueError) as exc:
            raise ParseError("bad matrix header") from exc
        if len(lines) != 1 + 2 * n:
            raise ParseError(f"expected {2 * n} matrix rows, found {len(lines) - 1}")
        rows = []
        for ln in lines[1:]:
            toks = ln.split()
            if len(toks) != 2 * n:
                raise ParseError(f"expected {2 * n} entries per row: {ln!r}")
            rows.append([entry_parse(t) for t in toks])
        return cls(n, rows)

    def __str__(self) -> str:
        n = self.n
        cells = [[entry_str(e) for e in row] for row in self._rows]
        width = max(len(c) for row in cells for c in row)
        out = []
        for i, row in enumerate(cells):
            left = " ".join(c.rjust(width) for c in row[:n])
            right = " ".join(c.rjust(width) for c in row[n:])
            out.append(f"[ {left} | {right} ]")
        return "\n".join(out)


def lam(n: int) -> SympMatrix:
    """The symplectic form [[0, I], [I, 0]]."""
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = ONE
        rows[n + i][i] = ONE
    return SympMatrix(n, rows)


def gate_columns(gate: Gate, n: int) -> dict:
    """The columns of the gate's closed-form matrix that differ from the identity.

    Maps a column index to ``{row index: entry}`` over that column's
    nonzero entries.  Every gate changes at most two columns, both on
    its own wires.
    """
    if any(w > n for w in gate.wires):
        raise ValueError(f"gate {gate} references a wire beyond {n}")
    i = gate.wires[0] - 1
    zi, xi = i, n + i  # row Z_i / column z_i, row X_i / column x_i
    kind = gate.kind
    f = gate.poly
    if kind in ("CNOT", "CPHASE"):
        j = gate.wires[1] - 1
        zj, xj = j, n + j
        if kind == "CNOT":  # x_j += f x_i, z_i += f(D^-1) z_j
            cols = {xj: {xj: ONE, xi: f}, zi: {zi: ONE, zj: f.subst_inv()}}
        else:  # z_j += f x_i, z_i += f(D^-1) x_j
            cols = {zj: {zj: ONE, xi: f}, zi: {zi: ONE, xj: f.subst_inv()}}
    elif kind == "CPHASE1":
        cols = {zi: {zi: ONE, xi: f + f.subst_inv()}}
    elif kind == "H":
        cols = {zi: {xi: ONE}, xi: {zi: ONE}}
    elif kind == "P":
        cols = {zi: {zi: ONE, xi: ONE}}
    elif kind == "DELAY":
        cols = {zi: {zi: f}, xi: {xi: f}}
    elif kind == "INF_Z":
        cols = {zi: {zi: ratio(ONE, f.subst_inv())}, xi: {xi: f}}
    else:  # INF_X
        cols = {zi: {zi: f}, xi: {xi: ratio(ONE, f.subst_inv())}}
    return {c: {r: e for r, e in col.items() if e} for c, col in cols.items()}


def gate_matrix(gate: Gate, n: int) -> SympMatrix:
    """The 2n x 2n closed-form matrix of one elementary gate."""
    rows = [[ONE if i == j else ZERO for j in range(2 * n)] for i in range(2 * n)]
    for c, col in gate_columns(gate, n).items():
        for r in range(2 * n):
            rows[r][c] = col.get(r, ZERO)
    return SympMatrix(n, rows)


def apply_gates(t: SympMatrix, gates) -> SympMatrix:
    """``t @ gate_matrix(g1) @ gate_matrix(g2) @ ...`` without dense products.

    Postmultiplying by a gate rewrites only the columns its matrix
    changes, each entry a sum over that column's nonzero entries: O(n)
    entry operations per gate instead of the O(n^3) of ``@``.  Entries
    are exact, so the result equals the dense product.
    """
    n = t.n
    rows = [list(r) for r in t.rows]
    for gate in gates:
        cols = [(c, tuple(col.items())) for c, col in gate_columns(gate, n).items()]
        for row in rows:
            new = []
            for _, col in cols:
                acc = None
                for k, g in col:
                    a = row[k]
                    if a:
                        term = a if g is ONE else entry_mul(a, g)
                        acc = term if acc is None else entry_add(acc, term)
                new.append(ZERO if acc is None else acc)
            for (c, _), e in zip(cols, new):
                row[c] = e
    return SympMatrix(n, rows)


class StabilizerMatrix:
    """(n-k) generator rows, each a 2n-vector of Laurent polynomials."""

    __slots__ = ("n", "_rows", "_css")

    def __init__(self, n: int, rows):
        self.n = n
        self._rows = tuple(tuple(r) for r in rows)
        for r in self._rows:
            if len(r) != 2 * n:
                raise ValueError(f"stabilizer rows must have {2 * n} entries")
        self._css = self._detect_css()

    def _detect_css(self):
        hx, hz = [], []
        n = self.n
        for r in self._rows:
            z_part, x_part = r[:n], r[n:]
            z_zero = all(not e for e in z_part)
            x_zero = all(not e for e in x_part)
            if z_zero and not x_zero:
                hx.append(x_part)
            elif x_zero and not z_zero:
                hz.append(z_part)
            elif z_zero and x_zero:
                continue
            else:
                return None
        return (tuple(hx), tuple(hz))

    @classmethod
    def from_css(cls, hx, hz) -> "StabilizerMatrix":
        """Build the stabilizer with X-type rows first, then Z-type rows."""
        widths = {len(r) for r in list(hx) + list(hz)}
        if len(widths) > 1:
            raise ValueError("check matrix rows disagree on width")
        n = widths.pop() if widths else 0
        rows = [[ZERO] * n + list(r) for r in hx]
        rows += [list(r) + [ZERO] * n for r in hz]
        return cls(n, rows)

    @property
    def rows(self) -> tuple:
        return self._rows

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def is_css(self) -> bool:
        return self._css is not None

    @property
    def css_parts(self):
        """(hx, hz) row tuples for a CSS-form stabilizer, else None."""
        return self._css

    def apply(self, m: SympMatrix) -> "StabilizerMatrix":
        """Postmultiply every generator row by ``m``."""
        if m.n != self.n:
            raise ValueError("dimension mismatch")
        size = 2 * self.n
        new_rows = []
        for r in self._rows:
            out = []
            for j in range(size):
                acc = ZERO
                for k in range(size):
                    if entry_is_zero(r[k]) or entry_is_zero(m.rows[k][j]):
                        continue
                    acc = entry_add(acc, entry_mul(r[k], m.rows[k][j]))
                out.append(acc)
            new_rows.append(out)
        return StabilizerMatrix(self.n, new_rows)

    def commutation_ok(self) -> bool:
        """Shift-invariant commutation for every row pair (self included)."""
        n = self.n
        for a in self._rows:
            for b in self._rows:
                acc = ZERO
                for w in range(n):
                    acc = acc + a[w] * b[n + w].subst_inv()
                    acc = acc + a[n + w] * b[w].subst_inv()
                if acc:
                    return False
        return True

    def to_text(self) -> str:
        if self._css is None:
            raise ValueError("only CSS-form stabilizers have a text form")
        hx, hz = self._css
        lines = [f"n {self.n}", "css"]
        for r in hx:
            lines.append("X: " + " ".join(str(e) for e in r))
        for r in hz:
            lines.append("Z: " + " ".join(str(e) for e in r))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "StabilizerMatrix":
        n = None
        hx, hz = [], []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("n "):
                try:
                    n = int(line.split()[1])
                except (IndexError, ValueError) as exc:
                    raise ParseError(f"line {lineno}: bad qubit count") from exc
                continue
            if line == "css":
                continue
            if line.startswith(("X:", "Z:")):
                if n is None:
                    raise ParseError(f"line {lineno}: row before 'n <qubits>' header")
                toks = line[2:].split()
                if len(toks) != n:
                    raise ParseError(f"line {lineno}: expected {n} polynomials")
                row = []
                for col, tok in enumerate(toks, start=1):
                    try:
                        row.append(parse_poly(tok))
                    except ParseError as exc:
                        raise ParseError(
                            f"line {lineno}, column {col}: {exc}") from exc
                (hx if line[0] == "X" else hz).append(row)
                continue
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
        if n is None:
            raise ParseError("missing 'n <qubits>' header")
        if not hx and not hz:
            raise ParseError("no stabilizer rows")
        return cls.from_css(hx, hz)

    def __str__(self) -> str:
        n = self.n
        cells = [[entry_str(e) for e in row] for row in self._rows]
        width = max((len(c) for row in cells for c in row), default=1)
        out = []
        for row in cells:
            left = " ".join(c.rjust(width) for c in row[:n])
            right = " ".join(c.rjust(width) for c in row[n:])
            out.append(f"[ {left} | {right} ]")
        return "\n".join(out)


def dual_containing(hx, hz) -> bool:
    """True iff hx(D) . hz^T(D^-1) = 0."""
    for rx in hx:
        for rz in hz:
            acc = ZERO
            for a, b in zip(rx, rz):
                acc = acc + a * b.subst_inv()
            if acc:
                return False
    return True


def _solve_combination(basis_rows, target):
    """Solve sum_k c_k * basis_rows[k] == target over GF(2)(D).

    Returns the coefficient list (entries LaurentPoly or RationalTransfer)
    or None when the target is outside the span.  Coefficients of free
    pivots are set to zero.
    """
    m = len(basis_rows)
    width = len(target)
    # columns: unknown index k; rows: equation per vector coordinate
    aug = [[basis_rows[k][j] for k in range(m)] + [target[j]] for j in range(width)]
    pivots = []
    row_at = 0
    for col in range(m):
        sel = None
        for r in range(row_at, width):
            if not entry_is_zero(aug[r][col]):
                sel = r
                break
        if sel is None:
            continue
        aug[row_at], aug[sel] = aug[sel], aug[row_at]
        inv = ratio(ONE, ONE)
        piv = aug[row_at][col]
        if isinstance(piv, LaurentPoly):
            inv = ratio(ONE, piv)
        else:
            inv = ratio(piv.den, piv.num)
        aug[row_at] = [entry_mul(e, inv) for e in aug[row_at]]
        for r in range(width):
            if r != row_at and not entry_is_zero(aug[r][col]):
                factor = aug[r][col]
                aug[r] = [entry_add(a, entry_mul(factor, b))
                          for a, b in zip(aug[r], aug[row_at])]
        pivots.append((row_at, col))
        row_at += 1
    # consistency: rows without pivots must have zero RHS
    for r in range(row_at, width):
        if not entry_is_zero(aug[r][m]):
            return None
    coeffs = [ZERO] * m
    for r, c in pivots:
        coeffs[c] = aug[r][m]
    return coeffs


def _laurent_span_contains(container_rows, candidate_rows) -> bool:
    for target in candidate_rows:
        coeffs = _solve_combination(container_rows, target)
        if coeffs is None:
            return False
        for c in coeffs:
            if isinstance(c, RationalTransfer) and not c.is_polynomial:
                return False
    return True


def row_space_equiv(a: StabilizerMatrix, b: StabilizerMatrix) -> bool:
    """True iff the two generator sets span the same shift-invariant group.

    Each row of one matrix must be a Laurent-polynomial combination of
    the rows of the other, in both directions; rational combinations
    with non-unit denominators do not preserve the generated group.
    """
    if a.n != b.n or a.num_rows != b.num_rows:
        return False
    return (_laurent_span_contains(b.rows, a.rows)
            and _laurent_span_contains(a.rows, b.rows))
