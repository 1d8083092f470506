"""Arithmetic for binary Laurent polynomials in the delay variable D.

A Laurent polynomial over GF(2) is stored sparsely as the set of integer
exponents whose coefficient is 1, so ``1 + D + D^2`` is ``{0, 1, 2}`` and
the zero polynomial is the empty set.  Negative exponents (advances) are
allowed everywhere.  Addition is symmetric difference of supports and
multiplication is convolution of exponents; both are exact.

``RationalTransfer`` represents a ratio of Laurent polynomials in reduced
form with a delay-free denominator.  Ratios appear as transfer-matrix
entries of feedback circuits and expand to formal power series with
:func:`series_expand`.

Textual syntax, shared by every file format in the package: terms joined
by ``+``, each term one of ``1``, ``D``, ``D^k``, ``D^-k``.  Whitespace
is ignored and duplicate terms cancel, e.g. ``1+D+D^2`` or ``D^-1+1``.
Every text format skips blank lines and ``#`` comments the same way
(:func:`content_lines`).
"""

from __future__ import annotations

import re


class ParseError(ValueError):
    """Raised for malformed textual input."""


_TERM_RE = re.compile(r"^(?:1|D|D\^(-?\d+))$")


class LaurentPoly:
    """An immutable binary Laurent polynomial."""

    __slots__ = ("_support",)

    def __init__(self, exponents=()):
        support = set()
        for e in exponents:
            if not isinstance(e, int):
                raise TypeError(f"exponent must be int, got {type(e).__name__}")
            if e in support:
                support.remove(e)  # duplicate terms cancel over GF(2)
            else:
                support.add(e)
        self._support = frozenset(support)

    @classmethod
    def _from_set(cls, support: frozenset) -> "LaurentPoly":
        p = cls.__new__(cls)
        p._support = support
        return p

    @classmethod
    def monomial(cls, e: int) -> "LaurentPoly":
        return cls._from_set(frozenset((e,)))

    @property
    def support(self) -> frozenset:
        return self._support

    @property
    def terms(self) -> tuple:
        """Exponents in ascending order."""
        return tuple(sorted(self._support))

    def coeff(self, e: int) -> int:
        return 1 if e in self._support else 0

    def __bool__(self) -> bool:
        return bool(self._support)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self._support == other._support
        if isinstance(other, RationalTransfer):
            return other == self
        return NotImplemented

    def __hash__(self):
        return hash(self._support)

    def __add__(self, other):
        if isinstance(other, LaurentPoly):
            return LaurentPoly._from_set(self._support ^ other._support)
        return NotImplemented

    __radd__ = __add__
    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = set()
        for a in self._support:
            for b in other._support:
                e = a + b
                if e in acc:
                    acc.remove(e)
                else:
                    acc.add(e)
        return LaurentPoly._from_set(frozenset(acc))

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by the monomial D^k."""
        if k == 0:
            return self
        return LaurentPoly._from_set(frozenset(e + k for e in self._support))

    def subst_inv(self) -> "LaurentPoly":
        """Substitute D -> D^-1: negate every exponent."""
        return LaurentPoly._from_set(frozenset(-e for e in self._support))

    @property
    def deg(self) -> int:
        """Highest exponent of the support."""
        if not self._support:
            raise ValueError("degree of zero polynomial")
        return max(self._support)

    @property
    def delay(self) -> int:
        """Lowest exponent of the support."""
        if not self._support:
            raise ValueError("degree of zero polynomial")
        return min(self._support)

    @property
    def abs_deg(self) -> int:
        """max{deg, |delay|}; 0 for the zero polynomial by convention."""
        if not self._support:
            return 0
        return max(max(self._support), abs(min(self._support)))

    @property
    def is_monomial(self) -> bool:
        return len(self._support) == 1

    def truncated(self, horizon: int) -> "LaurentPoly":
        """Drop all terms with exponent above ``horizon``."""
        return LaurentPoly._from_set(frozenset(e for e in self._support if e <= horizon))

    def __str__(self) -> str:
        if not self._support:
            return "0"
        out = []
        for e in sorted(self._support):
            if e == 0:
                out.append("1")
            elif e == 1:
                out.append("D")
            else:
                out.append(f"D^{e}")
        return "+".join(out)

    def __repr__(self) -> str:
        return f"<poly {self}>"


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
    """Parse the textual polynomial syntax (whitespace-insensitive)."""
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty polynomial")
    if compact == "0":
        return ZERO
    exps = []
    for term in compact.split("+"):
        if not _TERM_RE.match(term):
            raise ParseError(f"bad polynomial term {term!r}")
        if term == "1":
            exps.append(0)
        elif term == "D":
            exps.append(1)
        else:
            exps.append(int(term[2:]))
    return LaurentPoly(exps)


def poly_divmod(a: LaurentPoly, b: LaurentPoly):
    """Euclidean division over GF(2)[D]; operands must have delay >= 0."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    for p in (a, b):
        if p and p.delay < 0:
            raise ValueError("divmod operands must be ordinary polynomials (delay >= 0)")
    q = set()
    r = set(a.support)
    db = b.deg
    while r and max(r) >= db:
        k = max(r) - db
        q.add(k)
        for e in b.support:
            ek = e + k
            if ek in r:
                r.remove(ek)
            else:
                r.add(ek)
    return LaurentPoly._from_set(frozenset(q)), LaurentPoly._from_set(frozenset(r))


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Greatest common divisor over GF(2)[D] (monic automatically)."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def poly_div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    q, r = poly_divmod(a, b)
    if r:
        raise ValueError(f"{a} is not divisible by {b}")
    return q


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
        dshift = den.delay
        den = den.shift(-dshift)
        num = num.shift(-dshift)
        if num:
            nshift = num.delay
            g = poly_gcd(num.shift(-nshift), den)
            if g != ONE:
                num = poly_div_exact(num.shift(-nshift), g).shift(nshift)
                den = poly_div_exact(den, g)
        else:
            den = ONE
        self._num = num
        self._den = den

    @property
    def num(self) -> LaurentPoly:
        return self._num

    @property
    def den(self) -> LaurentPoly:
        return self._den

    @property
    def is_polynomial(self) -> bool:
        return self._den == ONE

    def as_poly(self) -> LaurentPoly:
        if not self.is_polynomial:
            raise ValueError(f"{self} is not polynomial")
        return self._num

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
    # inverse series of den (constant term 1): c_0 = 1, c_k = sum_{j in den, j>0} c_{k-j}
    count = horizon - num.delay
    if count < 0:
        return ZERO
    taps = sorted(e for e in den.support if e > 0)
    coeffs = [0] * (count + 1)
    coeffs[0] = 1
    for k in range(1, count + 1):
        acc = 0
        for j in taps:
            if j > k:
                break
            acc ^= coeffs[k - j]
        coeffs[k] = acc
    inv = LaurentPoly._from_set(frozenset(k for k, c in enumerate(coeffs) if c))
    return (num * inv).truncated(horizon)


def entry_parse(token: str):
    """Parse a transfer entry: a polynomial, or ``num/den`` for a rational one."""
    if "/" in token:
        num, _, den = token.partition("/")
        return ratio(parse_poly(num), parse_poly(den))
    return parse_poly(token)
