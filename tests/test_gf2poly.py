import random

import pytest
from hypothesis import given, settings, strategies as st

from qshift.gf2poly import (
    D,
    MAX_ARITH_SPAN,
    MAX_SPAN,
    LaurentPoly,
    ONE,
    ParseError,
    RationalTransfer,
    ZERO,
    _clmul,
    _divmod_bits,
    _poly,
    parse_poly,
    poly_divmod,
    ratio,
    series_expand,
)
from oracles import poly_gcd


def pp(text):
    return parse_poly(text)


def random_poly(rng, lo=-6, hi=6, terms=4):
    return LaurentPoly([rng.randint(lo, hi) for _ in range(rng.randint(0, terms))])


def test_parse_and_format_round_trip():
    for text in ("1+D+D^2", "D^-1+1", "0", "D", "D^5", "D^-3+D^-1+D^2"):
        assert str(pp(text)) == text
    assert pp(" 1 + D ") == pp("1+D")
    assert pp("D+D") == ZERO  # duplicate terms cancel
    with pytest.raises(ParseError):
        pp("1+E")
    with pytest.raises(ParseError):
        pp("")
    with pytest.raises(ParseError):
        pp("D^")


@pytest.mark.parametrize("text, term", [
    ("1+E+Q", "E"),
    ("D^2+D^+1", "D^"),  # a sign splits the term
    ("1+D^1_0", "D^1_0"),
    ("D^\u0661", "D^\u0661"),  # int() reads it as 1; a term's digits are ASCII
    ("D+D^\uff12", "D^\uff12"),
    ("1++D", ""),
])
def test_parse_errors_name_the_first_bad_term(text, term):
    with pytest.raises(ParseError) as exc:
        pp(text)
    assert str(exc.value) == f"bad polynomial term {term!r}"


def test_one_term_tokens_are_monomials():
    for text, e in (("1", 0), ("D", 1), ("D^0", 0), ("D^-0", 0), ("D^007", 7), ("D^-12", -12)):
        assert pp(text) == LaurentPoly.monomial(e) == LaurentPoly([e])


def test_add():
    assert pp("1+D") + pp("D+D^2") == pp("1+D^2")
    p = pp("D^-1+D^3")
    assert p + ZERO == p
    # entry f0 + f1 D + f2 D^2 with all coefficients 1
    assert pp("1+D") + pp("D^2") == pp("1+D+D^2")
    assert p + p == ZERO


def test_mul():
    assert pp("1+D") * pp("1+D") == pp("1+D^2")
    assert pp("D^-1") * D == ONE
    # direct convolution by hand: (1 + D^-1) * D = D + 1
    assert pp("1+D^-1") * D == pp("1+D")


def test_deg_delay():
    assert pp("1+D+D^2").deg == 2
    assert pp("D^-1+1").delay == -1
    assert pp("D^3").deg == 3 and pp("D^3").delay == 3
    with pytest.raises(ValueError):
        _ = ZERO.deg
    with pytest.raises(ValueError):
        _ = ZERO.delay


def test_abs_deg():
    assert pp("1+D+D^2").abs_deg == 2
    assert pp("D^-1+1").abs_deg == 1  # max{deg=0, |delay|=1}
    assert ZERO.abs_deg == 0
    assert ONE.abs_deg == 0
    assert pp("D^-2+D^3").abs_deg == 3


def test_subst_inv():
    assert pp("1+D").subst_inv() == pp("1+D^-1")
    assert ONE.subst_inv() == ONE
    assert pp("D^-2+D^3").subst_inv() == pp("D^2+D^-3")


def test_subst_inv_involution_and_homomorphism():
    rng = random.Random(101)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        assert a.subst_inv().subst_inv() == a
        assert (a + b).subst_inv() == a.subst_inv() + b.subst_inv()
        assert (a * b).subst_inv() == a.subst_inv() * b.subst_inv()


def test_product_degree_identities():
    rng = random.Random(55)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        if not a or not b:
            continue
        # leading/trailing coefficients are 1 over GF(2): no cancellation
        assert (a * b).deg == a.deg + b.deg
        assert (a * b).delay == a.delay + b.delay
        assert (a * b).abs_deg <= a.abs_deg + b.abs_deg


def _series_oracle(num, den, horizon):
    """Long-division oracle: coefficient recurrence done with plain lists."""
    shift = den.delay
    den_taps = sorted(e - shift for e in den.support)
    assert den_taps[0] == 0
    start = num.delay - shift
    coeffs = {}
    for k in range(start, horizon + 1):
        acc = num.coeff(k + shift)
        for t in den_taps[1:]:
            if k - t >= start:
                acc ^= coeffs.get(k - t, 0)
        coeffs[k] = acc
    return LaurentPoly([k for k, c in coeffs.items() if c])


def test_series_expand_examples():
    # frozen values computed first with the long-division oracle
    assert _series_oracle(D, pp("1+D"), 4) == pp("D+D^2+D^3+D^4")
    assert series_expand((D, pp("1+D")), 4) == pp("D+D^2+D^3+D^4")
    assert series_expand((ONE, ONE), 3) == ONE
    assert _series_oracle(ONE, pp("1+D"), 3) == pp("1+D+D^2+D^3")
    assert series_expand((ONE, pp("1+D")), 3) == pp("1+D+D^2+D^3")


def test_series_expand_against_oracle_randomized():
    rng = random.Random(7)
    for _ in range(150):
        num = random_poly(rng, -3, 5)
        den = LaurentPoly([rng.randint(0, 4) for _ in range(rng.randint(1, 3))])
        if not den or not num:
            continue
        horizon = rng.randint(0, 20)
        assert series_expand((num, den), horizon) == _series_oracle(num, den, horizon)


def test_series_expand_inverse_property():
    rng = random.Random(13)
    for _ in range(100):
        f = LaurentPoly([rng.randint(0, 4) for _ in range(rng.randint(1, 4))])
        if not f:
            continue
        h = rng.randint(0, 16)
        assert series_expand((f, f), h) == ONE.truncated(h)
        inv = series_expand((ONE, f), h)
        prod = inv * f
        window = h - f.deg
        assert prod.truncated(window) == ONE.truncated(window)


def test_series_expand_errors():
    with pytest.raises(ZeroDivisionError):
        series_expand((ONE, ZERO), 4)
    with pytest.raises(ValueError):
        series_expand(ONE, -1)


def test_poly_divmod():
    q, r = poly_divmod(pp("1+D^2"), pp("1+D"))
    assert (q, r) == (pp("1+D"), ZERO)
    assert poly_divmod(D, ONE) == (D, ZERO)
    with pytest.raises(ZeroDivisionError):
        poly_divmod(D, ZERO)
    with pytest.raises(ValueError):
        poly_divmod(pp("D^-1"), ONE)


def test_poly_divmod_round_trip_randomized():
    rng = random.Random(23)
    for _ in range(300):
        a = LaurentPoly([rng.randint(0, 8) for _ in range(rng.randint(0, 5))])
        b = LaurentPoly([rng.randint(0, 5) for _ in range(rng.randint(1, 4))])
        if not b:
            continue
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert not r or r.deg < b.deg


def test_poly_gcd():
    # Euclid by hand: gcd(1+D, D): 1+D = 1*D + 1; gcd(D, 1) = 1
    assert poly_gcd(pp("1+D"), D) == ONE
    assert poly_gcd(pp("1+D^2"), pp("1+D")) == pp("1+D")
    assert poly_gcd(ZERO, pp("1+D")) == pp("1+D")


def test_rational_canonical_form():
    r = RationalTransfer(D, pp("D+D^2"))  # D / D(1+D) -> 1/(1+D)
    assert r.num == ONE and r.den == pp("1+D")
    r2 = RationalTransfer(pp("1+D^2"), pp("1+D"))
    assert r2.is_polynomial and r2.num == pp("1+D")
    assert ratio(pp("1+D^2"), pp("1+D")) == pp("1+D")
    with pytest.raises(ZeroDivisionError):
        RationalTransfer(ONE, ZERO)


def test_rational_arithmetic():
    a = ratio(ONE, pp("1+D"))
    assert a * pp("1+D") == ONE
    assert a + a == ZERO
    b = ratio(D, pp("1+D"))
    assert a + b == ONE  # (1+D)/(1+D)
    s = ratio(ONE, pp("1+D^-1"))
    # 1/f(D^-1) normalizes to D^deg(f) over the reciprocal polynomial
    assert s.num == D and s.den == pp("1+D")
    assert s.delay == 1


def test_rational_subst_inv_round_trip():
    rng = random.Random(99)
    for _ in range(100):
        num = random_poly(rng, -3, 4)
        den = LaurentPoly([rng.randint(0, 3) for _ in range(rng.randint(1, 3))])
        if not den:
            continue
        r = ratio(num, den)
        back = r.subst_inv().subst_inv() if isinstance(r, RationalTransfer) else r.subst_inv().subst_inv()
        assert back == r


def test_span_limit():
    assert LaurentPoly([0, MAX_SPAN]).deg == MAX_SPAN
    with pytest.raises(ValueError, match="exceeds the limit of 100000 .MAX_SPAN."):
        LaurentPoly([0, MAX_SPAN + 1])
    with pytest.raises(ParseError, match="polynomial span 1000000000000 exceeds"):
        pp("1+D^1000000000000")
    # the limit is on the polynomial, after duplicate terms cancel
    assert pp("1+D^1000000000000+D^1000000000000") == ONE
    assert pp("D^1000000000000") == D.shift(10 ** 12 - 1)
    # arithmetic results may span past MAX_SPAN, up to MAX_ARITH_SPAN
    assert (pp("1") + pp("D^200000")).deg == 200000


def test_arith_span_limit():
    # a result past MAX_ARITH_SPAN is refused before its mask is allocated
    limit = MAX_ARITH_SPAN
    assert limit == 1_000_000
    far = ONE.shift(limit + 1)
    message = "polynomial arithmetic span 1000001 exceeds the limit of 1000000 .MAX_ARITH_SPAN."
    assert (ONE + ONE.shift(limit)).deg == limit
    assert far + far == ZERO  # equal offsets need no shift
    with pytest.raises(ValueError, match=message):
        ONE + far
    with pytest.raises(ValueError, match=message):
        far + ONE
    with pytest.raises(ValueError, match="span 1000000000000 exceeds"):
        ONE + pp("D^-1000000000000")
    half = ONE + ONE.shift(limit // 2)
    assert (half * half).deg == limit
    with pytest.raises(ValueError, match=message):
        half * (ONE + ONE.shift(limit // 2 + 1))
    assert (far * far).deg == 2 * limit + 2  # monomial products stay free
    # division holds ordinary polynomials from D^0, so the delay counts
    assert poly_divmod(ONE.shift(limit), D) == (ONE.shift(limit - 1), ZERO)
    with pytest.raises(ValueError, match=message):
        poly_divmod(far, D)
    with pytest.raises(ValueError, match=message):
        poly_gcd(D, far)
    # the expansion has one bit per exponent from the delay to the horizon
    assert series_expand((ONE, ONE + D), limit).deg == limit
    with pytest.raises(ValueError, match=message):
        series_expand((ONE, ONE + D), limit + 1)
    with pytest.raises(ValueError, match="span 1000000000000 exceeds"):
        series_expand((ONE.shift(-10 ** 12), ONE + D), 0)


# ---------------------------------------------------------------------------
# The set-of-exponents arithmetic that the masks replaced, kept as an oracle:
# a polynomial is the frozenset of its exponents.


def _set_of(exps):
    out = set()
    for e in exps:
        out ^= {e}
    return frozenset(out)


def _set_mul(a, b):
    return _set_of(x + y for x in a for y in b)


def _set_str(a):
    if not a:
        return "0"
    return "+".join("1" if e == 0 else "D" if e == 1 else f"D^{e}" for e in sorted(a))


def _set_divmod(a, b):
    q, r = set(), set(a)
    db = max(b)
    while r and max(r) >= db:
        k = max(r) - db
        q.add(k)
        r ^= {e + k for e in b}
    return frozenset(q), frozenset(r)


def _set_gcd(a, b):
    while b:
        a, b = b, _set_divmod(a, b)[1]
    return a


def _set_series(num, den, horizon):
    """num/den through exponent horizon by the coefficient recurrence."""
    shift = min(den)
    den = {e - shift for e in den}
    num = {e - shift for e in num}
    if not num or horizon - min(num) < 0:
        return frozenset()
    count = horizon - min(num)
    taps = sorted(e for e in den if e > 0)
    coeffs = [1] + [0] * count
    for k in range(1, count + 1):
        for j in taps:
            if j <= k:
                coeffs[k] ^= coeffs[k - j]
    inv = {k for k, c in enumerate(coeffs) if c}
    return frozenset(e for e in _set_mul(num, inv) if e <= horizon)


def _same(p, a):
    """LaurentPoly ``p`` holds the exponent set ``a``."""
    assert p.support == a
    assert p.terms == tuple(sorted(a))
    assert str(p) == _set_str(a)
    assert bool(p) == bool(a)
    assert p == LaurentPoly(a) and hash(p) == hash(LaurentPoly(a))


_EXPS = st.lists(st.integers(-40, 40), max_size=8)  # the empty list and monomials too
_ORDINARY = st.lists(st.integers(0, 40), max_size=8)


@settings(max_examples=400, deadline=None)
@given(_EXPS, _EXPS, st.integers(-50, 50), st.integers(-60, 60))
def test_mask_arithmetic_matches_sets(xs, ys, k, horizon):
    a, b = _set_of(xs), _set_of(ys)
    p, q = LaurentPoly(xs), LaurentPoly(ys)
    _same(p, a)
    _same(p + q, a ^ b)
    _same(p - q, a ^ b)
    _same(p * q, _set_mul(a, b))
    _same(p.shift(k), frozenset(e + k for e in a))
    _same(p.subst_inv(), frozenset(-e for e in a))
    _same(p.truncated(horizon), frozenset(e for e in a if e <= horizon))
    assert p.coeff(k) == (k in a)
    assert p.is_monomial == (len(a) == 1)
    assert p.abs_deg == (max(max(a), -min(a)) if a else 0)
    if a:
        assert (p.deg, p.delay) == (max(a), min(a))
    else:
        for prop in ("deg", "delay"):
            with pytest.raises(ValueError):
                getattr(p, prop)
    # equal values are equal and hash alike, however they were built
    assert (p == q) == (a == b)
    built = (p + LaurentPoly([k])) + LaurentPoly([k, k, k])
    assert built == p and hash(built) == hash(p)
    ratio_p = RationalTransfer(p, ONE)
    assert ratio_p == p and p == ratio_p and hash(ratio_p) == hash(p)
    den = LaurentPoly([0, 1 + abs(k) % 5])
    widened = RationalTransfer(p * den, den)
    assert widened == p and hash(widened) == hash(p) and widened.is_polynomial


@settings(max_examples=300, deadline=None)
@given(_ORDINARY, _ORDINARY)
def test_divmod_and_gcd_match_sets(xs, ys):
    a, b = _set_of(xs), _set_of(ys)
    if not b:
        with pytest.raises(ZeroDivisionError):
            poly_divmod(LaurentPoly(xs), LaurentPoly(ys))
        return
    qt, r = poly_divmod(LaurentPoly(xs), LaurentPoly(ys))
    sq, sr = _set_divmod(a, b)
    _same(qt, sq)
    _same(r, sr)
    _same(poly_gcd(LaurentPoly(xs), LaurentPoly(ys)), _set_gcd(a, b))


@settings(max_examples=300, deadline=None)
@given(_EXPS, _ORDINARY.filter(bool), st.integers(0, 60))
def test_series_expand_matches_sets(xs, ys, horizon):
    a, b = _set_of(xs), _set_of(ys)
    if not b:
        return
    got = series_expand((LaurentPoly(xs), LaurentPoly(ys)), horizon)
    _same(got, _set_series(a, b, horizon))
    r = ratio(LaurentPoly(xs), LaurentPoly(ys))
    _same(series_expand(r, horizon), _set_series(a, b, horizon))


# ---------------------------------------------------------------------------
# Unit and monomial fast paths against the bit-level references they skip.


def _bits_equal(p, mask, off):
    """``p`` is the polynomial with bit k of ``mask`` the coefficient of D^(off + k)."""
    ref = _poly(mask, off)
    assert (p._mask, p._off) == (ref._mask, ref._off)


@settings(max_examples=400, deadline=None)
@given(_EXPS, st.integers(-50, 50), st.booleans())
def test_unit_and_monomial_fast_paths_match_bit_references(xs, k, unit):
    p = LaurentPoly(xs)
    m = ONE if unit else LaurentPoly.monomial(k)
    for product in (p * m, m * p):
        _bits_equal(product, _clmul(p._mask, m._mask), p._off + m._off)
    if not m._off and p._mask > 1:  # times 1, a polynomial is returned as it is
        assert p * m is p and m * p is p
    _bits_equal(m.subst_inv(), int(bin(m._mask)[:1:-1], 2), -m.deg)
    o = LaurentPoly([abs(e) for e in xs])  # an ordinary polynomial
    q, r = _divmod_bits(o._mask << o._off, 1)
    quotient, remainder = poly_divmod(o, ONE)
    _bits_equal(quotient, q, 0)
    _bits_equal(remainder, r, 0)


def test_fast_paths_keep_the_refusals():
    # a monomial factor never widens the span, so the product limit is unchanged
    limit = MAX_ARITH_SPAN
    message = "polynomial arithmetic span 1000001 exceeds the limit of 1000000 .MAX_ARITH_SPAN."
    wide = ONE + ONE.shift(limit)
    assert (wide * D.shift(-7)).terms == (-6, limit - 6)
    assert ONE * wide is wide
    with pytest.raises(ValueError, match=message):
        (ONE + D) * wide
    # division by 1 still reads the dividend as an ordinary polynomial first
    with pytest.raises(ValueError, match=message):
        poly_divmod(ONE.shift(limit + 1), ONE)
    with pytest.raises(ValueError) as exc:
        poly_divmod(pp("D^-1+1"), ONE)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "divmod operands must be ordinary polynomials (delay >= 0)"
    with pytest.raises(ZeroDivisionError):
        poly_divmod(ONE, ZERO)
    assert poly_divmod(ZERO, ONE) == (ZERO, ZERO)
