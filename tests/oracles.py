"""Independent reference implementations the tests check against.

Everything here is written the slow, obvious way on purpose: pure
Python integers, schoolbook loops, explicit long division, Fraction
arithmetic.  Expected values must not come from the code under test.
"""

from fractions import Fraction


def centered_scan(value: int, modulus: int) -> int:
    """Centered residue found by scanning the whole interval [-m/2, m/2).

    Only sensible for small moduli; used as ground truth for the fast
    reduction.
    """
    lo = -(modulus // 2)
    matches = [c for c in range(lo, lo + modulus) if (value - c) % modulus == 0]
    assert len(matches) == 1
    return matches[0]


def center_mod(value: int, modulus: int) -> int:
    """Centered residue for large moduli (interval [-m/2, m/2))."""
    r = value % modulus
    return r - modulus if r >= (modulus + 1) // 2 else r


def negacyclic_mul_oracle(a: list[int], b: list[int], modulus: int) -> list[int]:
    """Schoolbook integer product, then long division by x^d + 1.

    The divisor is monic, so division is exact subtraction of
    c * (x^d + 1) * x^(k-d) from the highest term down.
    """
    d = len(a)
    assert len(b) == d
    full = [0] * (2 * d)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                full[i + j] += ai * bj
    for k in range(2 * d - 1, d - 1, -1):
        c = full[k]
        if c:
            full[k] = 0
            full[k - d] -= c
    return [center_mod(v, modulus) for v in full[:d]]


def hex_oracle(coeffs: list[int], modulus: int) -> str:
    """Per-coefficient fixed-width two's-complement hex, ceil(bits(m - 1) / 8) bytes each."""
    nbytes = ((modulus - 1).bit_length() + 7) // 8
    mask = (1 << (8 * nbytes)) - 1
    return "".join(format(c & mask, f"0{2 * nbytes}x") for c in coeffs)


def integer_encode_oracle(n: int, d: int) -> list[int]:
    """Bits of |n| in coefficients 0.. by shifting, each carrying the sign of n."""
    sign = 1 if n >= 0 else -1
    return [sign * ((abs(n) >> i) & 1) for i in range(d)]


def round_ratio_oracle(num: int, den: int) -> int:
    """Nearest integer to num/den, halves away from zero, via Fraction."""
    f = Fraction(num, den)
    floor = f.numerator // f.denominator
    frac = f - floor
    if frac > Fraction(1, 2):
        return floor + 1
    if frac < Fraction(1, 2):
        return floor
    return floor + 1 if f > 0 else floor


def reply_pairs_scan(noise: list[int], raw: list[int], m_a: int, t: int, q: int):
    """Every (r, m_b) with [r*(delta*(m_b - m_a) - noise)]_q = raw, by scanning.

    r runs over every nonzero centered residue mod t and must give
    -r*noise on each non-constant coefficient; m_b then runs over every
    centered residue mod t and must give the constant one.  Returns None
    when no r gives the tail.
    """
    delta = q // t
    scalars = range(-(t // 2), (t + 1) // 2)
    r_values = [
        r for r in scalars if r and all((r * n + x) % q == 0 for n, x in zip(noise[1:], raw[1:]))
    ]
    if not r_values:
        return None
    return [
        (r, m_b)
        for r in r_values
        for m_b in scalars
        if (r * (delta * (m_b - m_a) - noise[0]) - raw[0]) % q == 0
    ]
