"""Arithmetic for binary Laurent polynomials in the delay variable D.

A Laurent polynomial over GF(2) is stored as an int bit mask and an
offset: bit k of the mask is the coefficient of D^(offset + k).  A nonzero
mask is odd, so the offset is the lowest exponent; ``1 + D + D^2`` is
(0b111, 0), ``D^-1 + D^2`` is (0b1001, -1), and zero is (0, 0).  Negative
exponents (advances) are allowed everywhere.  Addition is an aligned XOR
and multiplication a carry-less shift-XOR; both are exact.  Units cost no
bit work: a product with a monomial D^k (the unit 1 included) is the
other factor shifted by k, D -> D^-1 of D^k is D^-k, and division by 1
returns the dividend with remainder 0.  A mask costs a bit per exponent
in its span deg - delay, so a polynomial built from exponents or read from
text may span at most ``MAX_SPAN`` (100,000), and arithmetic refuses,
before allocating, a result that would span more than ``MAX_ARITH_SPAN``
(1,000,000): a sum of two far-apart monomials, a product, an ordinary
polynomial held for division, or a series expansion.

``RationalTransfer`` represents a ratio of Laurent polynomials in reduced
form with a delay-free denominator.  Ratios appear as transfer-matrix
entries of feedback circuits and expand to formal power series with
:func:`series_expand`.

Textual syntax, shared by every file format in the package: terms joined
by ``+``, each term one of ``1``, ``D``, ``D^k``, ``D^-k`` with k in ASCII
digits.  Whitespace is ignored and duplicate terms cancel, e.g. ``1+D+D^2``
or ``D^-1+1``.
Every text format skips blank lines and ``#`` comments the same way
(:func:`content_lines`).
"""

from __future__ import annotations

import re


class ParseError(ValueError):
    """Raised for malformed textual input."""


# one term of the textual syntax, and a whole polynomial of such terms
_TERM = r"(?:1|D|D\^-?[0-9]+)"
_TERM_RE = re.compile(_TERM)
_POLY_RE = re.compile(rf"{_TERM}(?:\+{_TERM})*")

# Longest span deg - delay of a polynomial built from exponents or read from
# text: a mask holds one bit per exponent in the span.  No longer span can be
# simulated: the simulator's MAX_CYCLES is defined as MAX_SPAN.
MAX_SPAN = 100_000
# Longest span an arithmetic result may have: room for several products of
# such polynomials and a series expansion past them, while no mask exceeds
# 125 KB.  Monomials are free at any exponent, so without it the sum of two
# monomials read from text, 1 + D^(10^12), would ask for a 125 GB mask.
MAX_ARITH_SPAN = 10 * MAX_SPAN


def _check_arith_span(span: int) -> None:
    if span > MAX_ARITH_SPAN:
        raise ValueError(f"polynomial arithmetic span {span} exceeds the limit "
                         f"of {MAX_ARITH_SPAN} (MAX_ARITH_SPAN)")


class LaurentPoly:
    """An immutable binary Laurent polynomial, held as a bit mask and an offset.

    Bit k of ``_mask`` is the coefficient of D^(_off + k).  A nonzero mask
    is odd, so ``_off`` is the lowest exponent; zero is (0, 0).
    """

    __slots__ = ("_mask", "_off")

    def __init__(self, exponents=()):
        support = set()
        for e in exponents:
            if not isinstance(e, int):
                raise TypeError(f"exponent must be int, got {type(e).__name__}")
            if e in support:
                support.remove(e)  # duplicate terms cancel over GF(2)
            else:
                support.add(e)
        mask = off = 0
        if support:
            off, top = min(support), max(support)
            if top - off > MAX_SPAN:
                raise ValueError(f"polynomial span {top - off} exceeds the limit "
                                 f"of {MAX_SPAN} (MAX_SPAN)")
            for e in support:
                mask |= 1 << (e - off)
        self._mask = mask
        self._off = off

    @classmethod
    def monomial(cls, e: int) -> "LaurentPoly":
        return _poly(1, e)

    @property
    def support(self) -> frozenset:
        return frozenset(self.terms)

    @property
    def terms(self) -> tuple:
        """Exponents in ascending order."""
        if not self._mask:
            return ()
        bits = bin(self._mask)[:1:-1]  # bit k at index k
        off = self._off
        out = []
        k = 0
        while k >= 0:
            out.append(off + k)
            k = bits.find("1", k + 1)
        return tuple(out)

    def coeff(self, e: int) -> int:
        k = e - self._off
        return self._mask >> k & 1 if k >= 0 else 0

    def __bool__(self) -> bool:
        return self._mask != 0

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._mask == other._mask and self._off == other._off
        if isinstance(other, RationalTransfer):
            return other == self
        return NotImplemented

    def __hash__(self):
        return hash((self._mask, self._off))

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not other._mask:
            return self
        if not self._mask:
            return other
        a, b = (self, other) if self._off <= other._off else (other, self)
        if a._off == b._off:
            return _poly(a._mask ^ b._mask, a._off)  # the constant bits cancel
        k = b._off - a._off
        _check_arith_span(k + b._mask.bit_length() - 1)
        return _poly(a._mask ^ (b._mask << k), a._off, True)

    __radd__ = __add__
    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._mask, other._mask
        if not a or not b:
            return ZERO
        if a == 1:  # a monomial factor is a shift, and never widens the span
            return other if not self._off else _poly(b, other._off + self._off, True)
        if b == 1:
            return self if not other._off else _poly(a, self._off + other._off, True)
        _check_arith_span(a.bit_length() + b.bit_length() - 2)
        # odd times odd is odd
        return _poly(_clmul(a, b), self._off + other._off, True)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the monomial D^k."""
        if k == 0 or not self._mask:
            return self
        return _poly(self._mask, self._off + k, True)

    def subst_inv(self) -> "LaurentPoly":
        """Substitute D -> D^-1: negate every exponent (reverse the bits)."""
        if not self._mask:
            return self
        if self._mask == 1:
            return self if not self._off else _poly(1, -self._off, True)
        return _poly(int(bin(self._mask)[:1:-1], 2), -self.deg, True)

    @property
    def deg(self) -> int:
        """Highest exponent of the support."""
        if not self._mask:
            raise ValueError("degree of zero polynomial")
        return self._off + self._mask.bit_length() - 1

    @property
    def delay(self) -> int:
        """Lowest exponent of the support."""
        if not self._mask:
            raise ValueError("degree of zero polynomial")
        return self._off

    @property
    def abs_deg(self) -> int:
        """max{deg, |delay|}; 0 for the zero polynomial by convention."""
        mask, off = self._mask, self._off
        if not mask:
            return 0
        deg = off + mask.bit_length() - 1
        return deg if deg > -off else -off

    @property
    def is_monomial(self) -> bool:
        return self._mask == 1

    def truncated(self, horizon: int) -> "LaurentPoly":
        """Drop all terms with exponent above ``horizon``."""
        k = horizon - self._off + 1  # bits kept
        if k <= 0:
            return ZERO
        if self._mask.bit_length() <= k:
            return self
        return _poly(self._mask & ((1 << k) - 1), self._off, True)

    def __str__(self) -> str:
        if not self._mask:
            return "0"
        return "+".join(map(_term_text, self.terms))

    def __repr__(self) -> str:
        return f"<poly {self}>"


def _poly(mask: int, off: int, odd: bool = False) -> LaurentPoly:
    """The polynomial sum of D^(off + k) over the set bits k of ``mask``.

    ``odd`` promises that bit 0 is set, so there is nothing to normalize.
    """
    p = LaurentPoly.__new__(LaurentPoly)
    if not odd:
        if not mask:
            off = 0
        else:
            low = (mask & -mask).bit_length() - 1
            mask >>= low
            off += low
    p._mask = mask
    p._off = off
    return p


ZERO = LaurentPoly()
ONE = LaurentPoly((0,))
D = LaurentPoly((1,))


def content_lines(text: str):
    """(line number, stripped line) for each line that is not blank or a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def parse_poly(text: str) -> LaurentPoly:
    """Parse the textual polynomial syntax (whitespace-insensitive).

    The whole token is matched once; only a token that fails is split to
    name its first bad term.  A one-term token is built as its monomial.
    """
    if text == "0":  # most matrix entries; no compaction or regex needed
        return ZERO
    if text == "1":
        return ONE
    compact = "".join(text.split())
    if not _POLY_RE.fullmatch(compact):
        if not compact:
            raise ParseError("empty polynomial")
        if compact == "0":
            return ZERO
        bad = next(t for t in compact.split("+") if not _TERM_RE.fullmatch(t))
        raise ParseError(f"bad polynomial term {bad!r}")
    if "+" not in compact:
        return _poly(1, _term_exponent(compact), True)
    exps = [_term_exponent(t) for t in compact.split("+")]
    try:
        return LaurentPoly(exps)
    except ValueError as exc:  # span past MAX_SPAN
        raise ParseError(str(exc)) from exc


def _term_exponent(term: str) -> int:
    """The exponent of one term that matched ``_TERM``."""
    if term == "1":
        return 0
    if term == "D":
        return 1
    try:
        return int(term[2:])
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise ParseError(f"exponent of polynomial term {term[:10] + '...'!r} has "
                         f"{len(term) - 2} digits, too many to read") from None


def _term_text(e: int) -> str:
    """The term D^e as ``__str__`` writes it: ``1``, ``D`` or ``D^e``."""
    return "1" if e == 0 else "D" if e == 1 else f"D^{e}"


def _divmod_bits(a: int, b: int):
    """Quotient and remainder of GF(2)[D] polynomials held as ints (bit k: D^k)."""
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        k = a.bit_length() - db
        q |= 1 << k
        a ^= b << k
    return q, a


def _ordinary_bits(p: LaurentPoly) -> int:
    """``p`` as an int with bit k the coefficient of D^k; delay must be >= 0."""
    if p._mask and p._off < 0:
        raise ValueError("divmod operands must be ordinary polynomials (delay >= 0)")
    if p._off:
        _check_arith_span(p._off + p._mask.bit_length() - 1)
    return p._mask << p._off


def poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Euclidean division over GF(2)[D]; operands must have delay >= 0."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    bits = _ordinary_bits(a)  # refuses a negative delay or a span past the limit
    if b._mask == 1 and not b._off:  # division by the unit 1
        return a, ZERO
    q, r = _divmod_bits(bits, _ordinary_bits(b))
    return _poly(q, 0), _poly(r, 0)


def _gcd_bits(a: int, b: int) -> int:
    while b:
        a, b = b, _divmod_bits(a, b)[1]
    return a


class RationalTransfer:
    """A reduced ratio of Laurent polynomials with delay-free denominator.

    Canonical form: the denominator is an ordinary polynomial with
    delay 0 (hence constant term 1 over GF(2)) and shares no
    non-monomial factor with the numerator; monomial factors are folded
    into the Laurent numerator.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
            raise TypeError("RationalTransfer expects LaurentPoly operands")
        if not den:
            raise ZeroDivisionError("zero denominator")
        # a normalized mask is its polynomial divided by D^delay, so the
        # masks are the delay-free parts that the gcd is taken of
        nmask, dmask = num._mask, den._mask
        if nmask:
            g = _gcd_bits(nmask, dmask)
            if g != 1:
                nmask = _divmod_bits(nmask, g)[0]
                dmask = _divmod_bits(dmask, g)[0]
            self._num = _poly(nmask, num._off - den._off, True)
        else:
            dmask = 1
            self._num = ZERO
        self._den = _poly(dmask, 0, True)

    @property
    def num(self) -> LaurentPoly:
        return self._num

    @property
    def den(self) -> LaurentPoly:
        return self._den

    @property
    def is_polynomial(self) -> bool:
        return self._den == ONE

    def __bool__(self) -> bool:
        return bool(self._num)

    @property
    def delay(self) -> int:
        """Lowest exponent of the series expansion."""
        return self._num.delay  # denominator starts with 1

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._den == ONE and self._num == other
        if isinstance(other, RationalTransfer):
            return self._num == other._num and self._den == other._den
        return NotImplemented

    def __hash__(self):
        if self._den == ONE:
            return hash(self._num)
        return hash((self._num, self._den))

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ratio(self._num * other._den + other._num * self._den,
                     self._den * other._den)

    __radd__ = __add__

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ratio(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def shift(self, k: int) -> "RationalTransfer":
        return RationalTransfer(self._num.shift(k), self._den)

    def subst_inv(self):
        return ratio(self._num.subst_inv(), self._den.subst_inv())

    def __str__(self) -> str:
        return f"{self._num}/{self._den}"

    def __repr__(self) -> str:
        return f"<transfer {self}>"


def _coerce(x):
    if isinstance(x, RationalTransfer):
        return x
    if isinstance(x, LaurentPoly):
        return RationalTransfer(x, ONE)
    return NotImplemented


def ratio(num: LaurentPoly, den: LaurentPoly):
    """Reduced ratio, demoted to LaurentPoly when the denominator is trivial."""
    r = RationalTransfer(num, den)
    return r._num if r._den == ONE else r


def series_expand(r, horizon: int) -> LaurentPoly:
    """Truncated formal power series of ``r``, exact through exponent <= horizon.

    ``r`` may be a LaurentPoly, a RationalTransfer, or a (num, den) pair.
    A denominator with positive delay is normalized by folding its
    monomial factor into the numerator, keeping the expansion causal.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if isinstance(r, LaurentPoly):
        return r.truncated(horizon)
    if isinstance(r, tuple):
        num, den = r
        if not den:
            raise ZeroDivisionError("not delay-free: zero denominator")
        r = RationalTransfer(num, den)
    num, den = r.num, r.den
    if den == ONE:
        return num.truncated(horizon)
    if not num:
        return ZERO
    count = horizon - num.delay  # bit k of the result: D^(num.delay + k)
    if count < 0:
        return ZERO
    _check_arith_span(count)
    low = (1 << (count + 1)) - 1
    bits = _clmul(num._mask, _inverse_bits(den._mask, count + 1)) & low  # odd
    return _poly(bits, num.delay, True)


def _inverse_bits(den: int, width: int) -> int:
    """g with den * g = 1 mod D^width, for a mask ``den`` with constant term 1.

    Newton's step g <- den * g^2 doubles the exact width: if den * g =
    1 + D^k e, then den * (den * g^2) = (den * g)^2 = 1 + D^2k e^2.  Over
    GF(2) squaring spreads the bits of g apart.
    """
    g, k = 1, 1
    while k < width:
        k = min(2 * k, width)
        low = (1 << k) - 1
        square = int("0".join(bin(g)[2:]), 2)
        g = _clmul(den & low, square) & low
    return g


def _clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[D] polynomials held as ints.

    One shifted copy of the denser operand per set bit of the sparser one.
    """
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def entry_parse(token: str):
    """Parse a transfer entry: a polynomial, or ``num/den`` for a rational one."""
    if token == "0":
        return ZERO
    if token == "1":
        return ONE
    if "/" in token:
        num, _, den = token.partition("/")
        return ratio(parse_poly(num), parse_poly(den))
    return parse_poly(token)
