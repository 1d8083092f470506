"""Symplectic polynomial matrices over GF(2) in [Z|X] block layout.

A shift-invariant Clifford transformation on n qubits per frame acts on
a row vector (z_1 .. z_n | x_1 .. x_n) of Laurent polynomials by
postmultiplication.  Rows of a matrix are indexed by the input
generators Z_1..Z_n then X_1..X_n; columns split into the Z block then
the X block.  Wires are numbered from 1.

Closed-form matrices for every elementary gate are produced by
:func:`gate_matrix`; validity is the shift-invariant symplectic
condition  m . L . m^T(D^-1) = L  with L = [[0, I], [I, 0]].  The same
closed forms, written as one table of elementary column operations per
gate (:func:`gate_actions`: add g times one column to another, swap two,
or scale one), build :func:`gate_matrix`, let :func:`apply_gates`
multiply out a gate sequence in place on sparse columns without dense
matrix products, and let :func:`gates_commute` decide whether two gates
commute; the circuit layer decides placement commutation with it too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2poly import (
    ONE,
    ZERO,
    LaurentPoly,
    ParseError,
    RationalTransfer,
    content_lines,
    entry_parse,
    parse_poly,
    ratio,
)

# Each gate kind's shape: its wire count, and its last field, which is a
# polynomial f, a shift l (held as the monomial D^l) or nothing.  The gate
# constructor, ``parse_gate`` and the README's gate-sequence format follow it.
GATE_SHAPES = {
    "CNOT": (2, "f"), "CPHASE": (2, "f"), "CPHASE1": (1, "f"), "H": (1, None),
    "P": (1, None), "DELAY": (1, "l"), "INF_Z": (1, "f"), "INF_X": (1, "f"),
}
GATE_KINDS = tuple(GATE_SHAPES)

# Most wires a text file may declare, or a gate sequence reach: a transfer is
# a dense 2n x 2n matrix, so its work and memory grow with n^2.
MAX_WIRES = 1_000

# mnemonics used by the gate-sequence text format
_KIND_TO_TEXT = {"INF_Z": "INFZ", "INF_X": "INFX"}
_TEXT_TO_KIND = {"INFZ": "INF_Z", "INFX": "INF_X"}


@dataclass(slots=True, unsafe_hash=True)
class Gate:
    """One elementary shift-invariant operation.

    ``poly`` holds the gate polynomial f(D); for DELAY it holds the
    monomial D^l, so its shift l is ``poly.deg``.  A gate is a value: equal
    fields give equal, equally hashed gates, and nothing assigns to one
    after construction.
    """

    kind: str
    wires: tuple
    poly: LaurentPoly | None = None

    def __post_init__(self):
        kind, f = self.kind, self.poly
        if kind not in GATE_SHAPES:
            raise ValueError(f"unknown gate kind {kind!r}")
        count, last = GATE_SHAPES[kind]
        wires = self.wires = tuple(self.wires)
        if len(wires) != count or count == 2 and wires[0] == wires[1]:
            raise ValueError(f"{kind} acts on {'one wire' if count == 1 else 'two distinct wires'}")
        if wires[0] < 1 or wires[-1] < 1:
            raise ValueError("wires are numbered from 1")
        if last == "l":
            if f is None or not f.is_monomial or f.deg < 0:
                raise ValueError(f"{kind} needs a shift l, the monomial D^l with l >= 0")
        elif (f is None) != (last is None):
            raise ValueError(f"{kind} {'needs a polynomial f' if last else 'takes no polynomial'}")
        elif kind == "CPHASE1" and f and f.delay < 1:
            raise ValueError("self-phase at lag 0 is a P gate")
        elif kind in ("INF_Z", "INF_X") and (not f or f.delay != 0 or f.deg < 1):
            raise ValueError("feedback polynomial must have delay 0 and degree >= 1")

    def __str__(self) -> str:
        last = GATE_SHAPES[self.kind][1]
        arg = () if last is None else (self.poly.deg if last == "l" else self.poly,)
        return " ".join(map(str, (_KIND_TO_TEXT.get(self.kind, self.kind), *self.wires, *arg)))


def check_wire_count(n: int, lineno: int | None = None) -> None:
    """Refuse ``n`` wires below 1 or past MAX_WIRES, naming the line when it is given."""
    where = "" if lineno is None else f"line {lineno}: "
    if n < 1:
        raise ParseError(f"{where}{n} wires; a header needs at least 1")
    if n > MAX_WIRES:
        raise ParseError(f"{where}{n} wires exceed the limit of {MAX_WIRES} (MAX_WIRES)")


def read_header(text: str):
    """(n, content lines after the header) of a circuit, stream, code or matrix file.

    The first content line must be ``n <count>`` with a count that passes
    :func:`check_wire_count`; a later ``n <count>`` line is refused.  Every
    error names its line.
    """
    lines = list(content_lines(text))
    if not lines:
        raise ParseError("missing 'n <wires>' header")
    n_line, head = lines.pop(0)
    word, _, count = head.partition(" ")
    if word != "n":
        raise ParseError(f"line {n_line}: {head!r} before 'n <wires>' header")
    try:
        n = read_int(count, "wire count", signed=True)  # a count below 1 is named below
    except ParseError as exc:
        raise ParseError(f"line {n_line}: {exc}") from None
    check_wire_count(n, n_line)
    for lineno, line in lines:
        if line.startswith("n "):
            raise ParseError(f"line {lineno}: repeated 'n' header (first on line {n_line})")
    return n, lines


def read_int(text: str, what: str, signed: bool = False) -> int:
    """``text`` as an integer: ASCII digits, after one ``-`` if ``signed``.

    Anything else that ``int()`` would take, such as ``+1``, ``1_0``,
    surrounding spaces or non-ASCII digits, is refused with a ParseError
    that names ``text`` as a ``what``; no writer in the package emits it.
    """
    digits = text[1:] if signed and text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(f"bad {what} {text!r}")


def read_fields(words, keys: frozenset) -> dict:
    """The ``key=value`` words of a record line as a dict.

    A word without ``=``, a key outside ``keys`` or a repeated key is
    refused, since writing the record back would drop it; the first such
    word or key in the line is named.
    """
    try:
        kv = dict(w.split("=", 1) for w in words)
    except ValueError:  # a word without "=" splits into one item
        bare = next(w for w in words if "=" not in w)
        raise ParseError(f"field {bare!r} has no '='") from None
    if len(kv) != len(words) or not kv.keys() <= keys:
        named = [w.split("=", 1)[0] for w in words]
        key = next(k for k in named if k not in keys or named.count(k) > 1)
        kind = "unknown" if key not in keys else "repeated"
        raise ParseError(f"{kind} field {key!r}")
    return kv


def parse_gate(line: str) -> Gate:
    """Parse one line of the gate-sequence format, e.g. ``CNOT 3 2 1+D^-1``."""
    fields = line.split()
    if not fields:
        raise ParseError("empty gate line")
    word = fields[0].upper()
    kind = _TEXT_TO_KIND.get(word, word)
    if kind not in GATE_SHAPES:
        raise ParseError(f"unknown gate mnemonic {fields[0]!r}")
    count, last = GATE_SHAPES[kind]
    if len(fields) != 1 + count + (last is not None):
        usage = " ".join([word, "i j" if count == 2 else "w"] + [last] * (last is not None))
        raise ParseError(f"{word} expects: {usage}")
    try:
        wires = tuple(read_int(w, "wire") for w in fields[1:1 + count])
        if last is None:
            return Gate(kind, wires)
        arg = fields[-1]
        return Gate(kind, wires, parse_poly(arg) if last == "f" else LaurentPoly.monomial(int(arg)))
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"bad gate line {line!r}: {exc}") from exc


def row_times(row, rows) -> list:
    """The row vector ``row`` times the matrix whose rows are ``rows``.

    Entries may be polynomial or rational.  Terms with a zero factor are
    skipped, and each entry of the result sums its terms in row order.
    """
    out = [ZERO] * (len(rows[0]) if rows else 0)
    for a, b_row in zip(row, rows):
        if a:
            for j, b in enumerate(b_row):
                if b:
                    out[j] = out[j] + a * b
    return out


def add_row(dst_row, src_row, f) -> None:
    """``dst_row += f * src_row`` in place; zero entries of ``src_row`` are skipped."""
    for j, e in enumerate(src_row):
        if e:
            dst_row[j] = dst_row[j] + f * e


def add_column(rows, dst: int, src: int, f) -> None:
    """Column ``dst`` += ``f`` * column ``src`` of ``rows``, in place; zero entries are skipped."""
    for r in rows:
        if r[src]:
            r[dst] = r[dst] + f * r[src]


def _format_rows(rows, n: int) -> str:
    """One ``[ z part | x part ]`` line per row, every entry right-aligned to one width."""
    cells = [[str(e) for e in row] for row in rows]
    width = max((len(c) for row in cells for c in row), default=1)
    return "\n".join(f"[ {' '.join(c.rjust(width) for c in row[:n])} | "
                     f"{' '.join(c.rjust(width) for c in row[n:])} ]" for row in cells)


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

    @property
    def rows(self) -> tuple:
        return self._rows

    def entry(self, i: int, j: int):
        return self._rows[i][j]

    @property
    def is_polynomial(self) -> bool:
        return all(isinstance(e, LaurentPoly) for row in self._rows for e in row)

    def x_block(self):
        n = self.n
        return [list(self._rows[n + i][n:]) for i in range(n)]

    def __matmul__(self, other: "SympMatrix") -> "SympMatrix":
        if not isinstance(other, SympMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return SympMatrix(self.n, [row_times(r, other._rows) for r in self._rows])

    def transpose_subst_inv(self) -> "SympMatrix":
        """Substitute D -> D^-1 entrywise, then transpose."""
        size = 2 * self.n
        return SympMatrix(self.n, [[self._rows[j][i].subst_inv()
                                    for j in range(size)] for i in range(size)])

    def shifted(self, c: int) -> "SympMatrix":
        if c == 0:
            return self
        return _symp(self.n, [[e.shift(c) for e in row] for row in self._rows])

    def is_symplectic(self) -> bool:
        lam_ = lam(self.n)
        return (self @ lam_ @ self.transpose_subst_inv()) == lam_

    def abs_deg(self) -> int:
        """Max over entries of max{deg, |delay|}; entries must be polynomial.

        Zero entries count 0, so the shared ``ZERO`` entries are skipped
        unread; a rational entry, zero or not, is refused.
        """
        best = 0
        for row in self._rows:
            for e in row:
                if e is not ZERO:
                    if isinstance(e, RationalTransfer):
                        raise ValueError("absolute degree requires polynomial entries")
                    d = e.abs_deg
                    if d > best:
                        best = d
        return best

    def latency_shift(self) -> int:
        """Smallest global exponent L minimizing abs_deg of self * D^-L."""
        entries = [e for row in self._rows for e in row if e is not ZERO]
        if any(isinstance(e, RationalTransfer) for e in entries):
            raise ValueError("latency normalization requires polynomial entries")
        entries = [e for e in entries if e]
        if not entries:
            return 0
        # max(hi - L, L - lo) is least at the midpoint; on a tie (hi + lo
        # odd) the lower one
        return (max(e.deg for e in entries) + min(e.delay for e in entries)) // 2

    def min_delay(self) -> int:
        """Smallest series exponent over nonzero entries (rational-aware)."""
        return min((e.delay for row in self._rows for e in row if e), default=0)

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
                za, zb = not a, not b
                if za != zb:
                    return None
                if za:
                    continue
                if c is None:
                    c = a.delay - b.delay
                if a != b.shift(c):
                    return None
        return 0 if c is None else c

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        for row in self._rows:
            lines.append(" ".join(str(e) for e in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SympMatrix":
        n, lines = read_header(text)
        if len(lines) != 2 * n:
            # the first surplus row, else the last line read
            last = lines[min(len(lines), 2 * n + 1) - 1] if lines else next(content_lines(text))
            lineno = last[0]
            raise ParseError(
                f"line {lineno}: expected {2 * n} matrix rows, found {len(lines)}")
        rows = []
        for lineno, ln in lines:
            toks = ln.split()
            if len(toks) != 2 * n:
                raise ParseError(f"line {lineno}: expected {2 * n} entries per row: {ln!r}")
            row = []
            for col, tok in enumerate(toks, start=1):
                try:
                    row.append(entry_parse(tok))
                except (ValueError, ZeroDivisionError) as exc:  # ParseError, 1/0
                    raise ParseError(f"line {lineno}, column {col}: {exc}") from exc
            rows.append(row)
        return _symp(n, rows)  # 2n rows of 2n entries, each checked above

    def __str__(self) -> str:
        return _format_rows(self._rows, self.n)


def lam(n: int) -> SympMatrix:
    """The symplectic form [[0, I], [I, 0]]."""
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        rows[i][n + i] = ONE
        rows[n + i][i] = ONE
    return SympMatrix(n, rows)


def check_gate_wires(gate: Gate, n: int) -> None:
    """Refuse a gate on a wire past the last of ``n``, naming the gate."""
    if max(gate.wires) > n:
        raise ValueError(f"gate {gate} references a wire beyond {n}")


def gate_actions(gate: Gate, n: int) -> tuple:
    """The gate's closed-form matrix as elementary column operations on I.

    Each action is ``("add", dst, g, src)`` (column dst += g * column src),
    ``("swap", a, None, b)`` or ``("scale", c, g, c)``; adds of a zero
    polynomial and scales by 1 are left out.  No add reads a column that
    an action of the same gate writes, so the actions may be applied one
    after another, in place.
    """
    check_gate_wires(gate, n)
    i = gate.wires[0] - 1
    zi, xi = i, n + i  # column z_i, column x_i
    kind = gate.kind
    f = gate.poly
    if kind in ("CNOT", "CPHASE"):
        if not f:
            return ()
        j = gate.wires[1] - 1
        zj, xj = j, n + j
        if kind == "CNOT":  # x_j += f x_i, z_i += f(D^-1) z_j
            return (("add", xj, f, xi), ("add", zi, f.subst_inv(), zj))
        # z_j += f x_i, z_i += f(D^-1) x_j
        return (("add", zj, f, xi), ("add", zi, f.subst_inv(), xj))
    if kind == "CPHASE1":  # z_i += (f + f(D^-1)) x_i
        return (("add", zi, f + f.subst_inv(), xi),) if f else ()
    if kind == "P":  # z_i += x_i
        return (("add", zi, ONE, xi),)
    if kind == "H":  # exchange z_i and x_i
        return (("swap", zi, None, xi),)
    if kind == "DELAY":  # z_i and x_i times D^l
        return (("scale", zi, f, zi), ("scale", xi, f, xi)) if f != ONE else ()
    # INF_Z: z_i times 1/f(D^-1), x_i times f; INF_X the other way round
    inv = ratio(ONE, f.subst_inv())
    z, x = (inv, f) if kind == "INF_Z" else (f, inv)
    return (("scale", zi, z, zi), ("scale", xi, x, xi))


def gate_matrix(gate: Gate, n: int) -> SympMatrix:
    """The 2n x 2n closed-form matrix of one elementary gate: I with its actions."""
    return apply_gates((gate,), n)


def _symp(n: int, rows) -> SympMatrix:
    """``SympMatrix(n, rows)`` without its shape check; ``rows`` must be 2n x 2n."""
    m = SympMatrix.__new__(SympMatrix)
    m.n = n
    m._rows = tuple(tuple(r) for r in rows)
    return m


def apply_gates(gates, n: int) -> SympMatrix:
    """``gate_matrix(g1, n) @ gate_matrix(g2, n) @ ...`` without dense products.

    The product is held as sparse columns ``{row: entry}``, starting from
    the identity's, and laid out densely once, at the end, 2n x 2n by
    construction.
    """
    cols = _apply_actions([{c: ONE} for c in range(2 * n)], gates, n)
    rows = [[ZERO] * (2 * n) for _ in range(2 * n)]
    for c, col in enumerate(cols):
        for r, e in col.items():
            rows[r][c] = e
    return _symp(n, rows)


def _apply_actions(cols, gates, n: int):
    """Postmultiply the sparse columns ``cols`` by each gate in turn, in place.

    A gate's actions (``gate_actions``) run one after another: an add puts
    g times each entry of column src (the entry itself when g is 1) into
    column dst, a swap exchanges two columns, a scale multiplies one.  This
    is exact because no add reads a column that the same gate writes.  A
    gate so costs one entry operation per nonzero entry it reads, and with
    the monomial products of ``gf2poly`` most of those are shifts.
    """
    for gate in gates:
        for op, dst, g, src in gate_actions(gate, n):
            if op == "add":
                col = cols[dst]
                for r, a in cols[src].items():
                    if g is not ONE:
                        a = a * g
                    if r not in col:
                        col[r] = a
                    elif e := col[r] + a:
                        col[r] = e
                    else:
                        del col[r]
            elif op == "swap":
                cols[dst], cols[src] = cols[src], cols[dst]
            else:
                cols[dst] = {r: e * g for r, e in cols[dst].items()}
    return cols


def gates_commute(a: Gate, b: Gate, n: int) -> bool:
    """Do the closed-form matrices of two gates on ``n`` wires commute?

    The two products are multiplied out from the gates' actions, once in
    each order, on the columns of I that the actions read or write (the z
    and x columns of the gates' wires), and compared; no dense 2n x 2n
    matrix is built.
    """
    if not set(a.wires) & set(b.wires):
        return True  # each gate matrix differs from I only on its own wires
    own = {c for w in a.wires + b.wires for c in (w - 1, n + w - 1)}
    ab, ba = ({c: {c: ONE} for c in own} for _ in range(2))
    return _apply_actions(ab, (a, b), n) == _apply_actions(ba, (b, a), n)


class StabilizerMatrix:
    """(n-k) generator rows, each a 2n-vector of Laurent polynomials."""

    __slots__ = ("n", "_rows", "_css")

    def __init__(self, n: int, rows):
        self.n = n
        self._rows = tuple(tuple(r) for r in rows)
        for r in self._rows:
            if len(r) != 2 * n:
                raise ValueError(f"stabilizer rows must have {2 * n} entries")
            if not any(r):  # it generates nothing
                raise ValueError("zero generator row")
        self._css = self._detect_css()

    def _detect_css(self):
        hx, hz = [], []
        n = self.n
        for r in self._rows:
            z_part, x_part = r[:n], r[n:]
            if not any(z_part):
                hx.append(x_part)
            elif not any(x_part):
                hz.append(z_part)
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
    def css_parts(self):
        """(hx, hz) row tuples for a CSS-form stabilizer, else None."""
        return self._css

    def apply(self, m: SympMatrix) -> "StabilizerMatrix":
        """Postmultiply every generator row by ``m``."""
        if m.n != self.n:
            raise ValueError("dimension mismatch")
        return StabilizerMatrix(self.n, [row_times(r, m.rows) for r in self._rows])

    def commutation_ok(self) -> bool:
        """Shift-invariant commutation for every row pair (self included)."""
        n = self.n
        swapped = [r[n:] + r[:n] for r in self._rows]  # b . L for each row b
        return not any(any(row) for row in pairing(self._rows, swapped))

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
        n, lines = read_header(text)
        hx, hz = [], []
        for lineno, line in lines:
            if line == "css":
                continue
            if line.startswith(("X:", "Z:")):
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
                if not any(row):  # it generates nothing
                    raise ParseError(f"line {lineno}: zero generator row")
                (hx if line[0] == "X" else hz).append(row)
                continue
            raise ParseError(f"line {lineno}: unrecognized line {line!r}")
        if not hx and not hz:
            raise ParseError("no stabilizer rows")
        return cls.from_css(hx, hz)

    def __str__(self) -> str:
        return _format_rows(self._rows, self.n)


def pairing(a_rows, b_rows) -> list:
    """The shift-invariant pairing a(D) . b^T(D^-1) of two row lists.

    Entry (i, j) is the sum over k of a_i[k] * b_j[k](D^-1).
    """
    return [[sum((x * y.subst_inv() for x, y in zip(ra, rb) if x and y), ZERO)
             for rb in b_rows] for ra in a_rows]


def dual_containing(hx, hz) -> bool:
    """True iff hx(D) . hz^T(D^-1) = 0."""
    return not any(any(row) for row in pairing(hx, hz))


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
            if aug[r][col]:
                sel = r
                break
        if sel is None:
            continue
        aug[row_at], aug[sel] = aug[sel], aug[row_at]
        piv = aug[row_at][col]
        if isinstance(piv, LaurentPoly):
            inv = ratio(ONE, piv)
        else:
            inv = ratio(piv.den, piv.num)
        aug[row_at] = [e * inv for e in aug[row_at]]
        for r in range(width):
            if r != row_at and aug[r][col]:
                add_row(aug[r], aug[row_at], aug[r][col])
        pivots.append((row_at, col))
        row_at += 1
    # consistency: rows without pivots must have zero RHS
    for r in range(row_at, width):
        if aug[r][m]:
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
