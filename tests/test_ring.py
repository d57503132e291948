"""Ring arithmetic against independent oracles and frozen examples."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from bfvlab import BfvParams
from bfvlab.ring import (
    Polynomial,
    monomial,
    gaussian_tail,
    reduce_centered,
    sample_binary,
    sample_gaussian,
    sample_uniform,
)
from bfvlab import ring
from bfvlab.ring import (
    _TABLE_DFT,
    _TWIDDLE_ERROR,
    _UNIT_ROUNDOFF,
    _limb_plan,
    _mul_divmod,
    _roots,
    _stage_plan,
    _transform,
    _transform_error,
    _transform_tables,
)

from conftest import make_rng
from oracles import (
    center_mod,
    centered_scan,
    hex_oracle,
    negacyclic_mul_oracle,
)


# --- centered reduction -----------------------------------------------------


def test_reduce_centered_matches_interval_scan():
    for m in [2, 3, 4, 5, 7, 16, 17, 83, 97, 256]:
        for x in range(-3 * m - 1, 3 * m + 2):
            assert reduce_centered(x, m) == centered_scan(x, m), (x, m)


def test_reduce_centered_frozen_examples():
    assert reduce_centered(200, 256) == -56
    assert reduce_centered(0, 256) == 0
    assert reduce_centered(128, 256) == -128
    assert reduce_centered(127, 256) == 127
    assert reduce_centered(-128, 256) == -128
    assert reduce_centered(255, 256) == -1


def test_reduce_centered_characterisation_on_large_values():
    rng = make_rng(11)
    for _ in range(500):
        m = int(rng.integers(2, 2**61))
        x = int.from_bytes(rng.bytes(12), "big", signed=True)
        r = reduce_centered(x, m)
        assert -(m // 2) <= r < (m + 1) // 2
        assert (x - r) % m == 0


def test_reduce_centered_is_additive_after_reduction():
    rng = make_rng(12)
    for _ in range(200):
        m = int(rng.integers(2, 10**9))
        x = int(rng.integers(-(10**15), 10**15))
        y = int(rng.integers(-(10**15), 10**15))
        assert reduce_centered(x + y, m) == reduce_centered(
            reduce_centered(x, m) + reduce_centered(y, m), m
        )
        assert reduce_centered(reduce_centered(x, m), m) == reduce_centered(x, m)


def test_reduce_centered_rejects_tiny_modulus():
    # the one modulus rule of Polynomial and BfvParams: exactly an int, 2 <= modulus < 2**62
    for modulus in (1, 2**62, True, 97.0, np.int64(97)):
        with pytest.raises(ValueError, match=r"modulus must be an int with 2 <= modulus < 2\*\*62"):
            reduce_centered(5, modulus)
    assert reduce_centered(-1, 2**62 - 1) == -1
    # a value is an int or numpy signed integer, never a bool: 2.5 used to come
    # back as 2.5 and True as 1
    for value in (2.5, True, np.uint8(5)):
        with pytest.raises(ValueError, match="value must be an integer"):
            reduce_centered(value, 97)
    r = reduce_centered(np.int64(200), 256)
    assert r == -56 and type(r) is int


# --- construction ------------------------------------------------------------


def test_polynomial_centers_inputs():
    p = Polynomial([200, -300, 2**63 - 1, -(2**63)], 256)
    for c in p.to_coeff_list():
        assert -128 <= c < 128
    assert p.to_coeff_list() == [-56, -44, -1, 0]
    # 256 divides 2**64, so the row above never makes quotient * modulus
    # wrap in int64; these moduli do, at the int64 extremes
    extremes = [2**63 - 1, -(2**63), -(2**63) + 1, 2**63 - 2]
    for q in (3, 97, 2**30 - 35, 2**62 - 57):
        assert Polynomial(extremes, q).to_coeff_list() == [center_mod(x, q) for x in extremes], q
    # coefficients beyond int64 are refused, not reduced
    with pytest.raises(ValueError):
        Polynomial([200, -300, 2**90, -(2**90)], 256)


def test_polynomial_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Polynomial([], 97)
    with pytest.raises(ValueError):
        Polynomial([1, 2], 1)
    with pytest.raises(ValueError):
        Polynomial([[1, 2], [3, 4]], 97)
    # nothing is truncated or coerced into an integer; [1, True] used to load as [1, 1],
    # and a tuple or range is not the list intake
    for bad in (
        [1.9, 0], ["1", "0"], [None, 0], [True, False], [1, True], [True, 2], [np.True_, 1],
        [np.uint8(1), 0], [2**63, 0], (1, 2), range(1, 3), "10", None, [1, 2, 3],
    ):
        with pytest.raises(ValueError):
            Polynomial(bad, 97)
    mixed = [np.int32(-1), np.int64(2), 3, np.int16(-4)]
    assert Polynomial(mixed, 97).to_coeff_list() == [-1, 2, 3, -4]
    # the int64 bound: beyond it a scalar product divided by zero
    # (2**62 + 1) or overflowed int64 (2**63) instead of refusing
    for modulus in (2**62, 2**62 + 1, 2**63):
        with pytest.raises(ValueError, match=r"2 <= modulus < 2\*\*62"):
            Polynomial([3, -5, 7, 1], modulus)
    # a modulus is exactly an int: np.int64(97) used to fail later with AttributeError
    for modulus in (np.int64(97), 97.0, True):
        with pytest.raises(ValueError, match="modulus must be an int"):
            Polynomial([3, -5, 7, 1], modulus)


def test_polynomial_is_immutable():
    p = Polynomial([1, 2, 3, 4], 97)
    with pytest.raises(AttributeError):
        p.modulus = 5
    with pytest.raises(ValueError):
        p.coeffs[0] = 9


def test_ring_params_validation():
    # the ring checks now live in BfvParams, the one parameter type
    for d in (3, 0):
        with pytest.raises(ValueError, match="ring degree"):
            BfvParams(d=d, q=97, t=4)
    # one modulus rule, the one every Polynomial applies
    for q in (1, 2**62):
        with pytest.raises(ValueError, match="modulus must be an int with 2 <= modulus < 2"):
            BfvParams(d=8, q=q, t=4)
    BfvParams(d=8, q=2**62 - 1, t=4)


# --- additive operations ------------------------------------------------------


def test_add_sub_neg_match_coefficientwise_oracle():
    rng = make_rng(21)
    d, q = 8, 97
    for _ in range(200):
        a = [int(x) for x in rng.integers(-48, 49, d)]
        b = [int(x) for x in rng.integers(-48, 49, d)]
        pa, pb = Polynomial(a, q), Polynomial(b, q)
        assert (pa + pb).to_coeff_list() == [centered_scan(x + y, q) for x, y in zip(a, b)]
        assert (pa - pb).to_coeff_list() == [centered_scan(x - y, q) for x, y in zip(a, b)]
        assert (-pa).to_coeff_list() == [centered_scan(-x, q) for x in a]


def test_add_rejects_mismatched_operands():
    with pytest.raises(ValueError):
        Polynomial([1, 2], 97) + Polynomial([1, 2], 93)
    with pytest.raises(ValueError):
        Polynomial([1, 2], 97) + Polynomial([1, 2, 3, 4], 97)
    with pytest.raises(ValueError):
        Polynomial([1, 2], 97) * Polynomial([1, 2, 3, 4], 97)


# --- multiplication ------------------------------------------------------------


@pytest.mark.parametrize(
    "d,q,pairs",
    [
        (8, 97, 300),
        (8, 2**54, 100),
        (64, 2**54, 40),
        (64, (2**30) - 35, 40),
        (256, 2**54, 6),
        # one-bit digits in _mul_mod, and the widest digits
        (64, 2**62 - 57, 40),
        # the largest modulus a Polynomial accepts
        (8, 2**62 - 1, 100),
        (8, 3, 300),
        # the smallest transform lengths, n = 1, 2, 8 and 16, across the moduli
        (2, 97, 20),
        (4, 97, 100),
        (16, 2**54, 40),
        (16, 2**62 - 57, 40),
        (16, 3, 100),
        (32, (2**30) - 35, 40),
        # an odd modulus below 2**53 with three limbs a side
        (64, 2**50 - 27, 10),
        # saturated rows only, two 16-bit limbs a side: the bound 2**35 passes q, and the
        # high x high row's weight 2**32 mod q = q - 10 takes a second Horner digit in
        # _mul_divmod, which would pass 2**63 on a row the kernel left unreduced
        (32, 2**31 + 5, 0),
        # saturated rows only, at the cli-1024 and the largest deployed geometry
        (1024, 2**54, 0),
        (2048, 2**54, 0),
    ],
)
def test_mul_matches_bruteforce_oracle(d, q, pairs):
    rng = make_rng(d * 1000 + q % 997)
    lo, hi = -(q // 2), (q + 1) // 2
    for _ in range(pairs):
        a = [int(x) for x in rng.integers(lo, hi, d, dtype=np.int64)]
        b = [int(x) for x in rng.integers(lo, hi, d, dtype=np.int64)]
        got = (Polynomial(a, q) * Polynomial(b, q)).to_coeff_list()
        assert got == negacyclic_mul_oracle(a, b, q)
    for a, b in saturated_pairs(d, q):
        want = negacyclic_mul_oracle(a, b, q)
        assert (Polynomial(a, q) * Polynomial(b, q)).to_coeff_list() == want, (a[0], b[-1])
        assert (Polynomial(b, q) * Polynomial(a, q)).to_coeff_list() == want, (b[-1], a[0])


@pytest.mark.parametrize("d", [1, 3, 5, 6, 7, 12, 100])
def test_degrees_that_are_not_powers_of_two_are_refused(d):
    # every ring is x^d + 1 with d a power of two, at least 2: a vector of any
    # other length is refused when it is built, by the rule BfvParams applies
    q = 97
    for build in (
        lambda: Polynomial([1] * d, q),
        lambda: monomial(0, 1, d, q),
        lambda: sample_uniform(d, q, make_rng(d)),
        lambda: Polynomial.from_hex("01" * d, q),
        lambda: BfvParams(d=d, q=q, t=4),
    ):
        with pytest.raises(ValueError, match="ring degree"):
            build()


def saturated_pairs(d: int, q: int) -> list[tuple[list[int], list[int]]]:
    """Operands at the extremes of the modulus and of the kernel's limb plans.

    The kernel's error grows with ||x||_2 ||y||_2 <= d * La * Lb over its limb
    rows.  The plan rows take, for a wide operand beside a binary, a
    Gaussian-width and a wide one, the plan's widest limbs and put every limb
    of both operands at its largest value in all d coefficients
    (saturating_value), the largest norms that plan admits.  The first rows
    reach the largest centered residues, whose sums the recombination reduces.
    """
    half = (q - 1) // 2
    rows = [(-(q // 2), [-(q // 2)] * d), (half, [half] * d), (half, [1] * d)]
    bits = half.bit_length()
    for bits_b in sorted({1, min(5, bits), bits}):
        width_a, count_a, width_b, count_b, _ = _limb_plan(bits, bits_b, d)
        x = saturating_value(bits, width_a, count_a)
        y = saturating_value(bits_b, width_b, count_b)
        if max(x, y) <= half:
            rows.append((x, [y] * d))
    return [([x] * d, b) for x, b in rows]


def balanced_limbs(value: int, width: int, count: int) -> list[int]:
    """value's count balanced base-2**width digits, low first; the top one takes the rest."""
    limbs = []
    for _ in range(count - 1):
        low = (value + (1 << (width - 1))) % (1 << width) - (1 << (width - 1))
        limbs.append(low)
        value = (value - low) >> width
    return limbs + [value]


def top_limb(bits: int, width: int, count: int) -> int:
    """The largest top-limb magnitude of any value below 2**bits in magnitude: the
    top limb grows with the value, so one of the two extremes has it."""
    extremes = ((1 << bits) - 1, -((1 << bits) - 1))
    return max(abs(balanced_limbs(v, width, count)[-1]) for v in extremes)


def saturating_value(bits: int, width: int, count: int) -> int:
    """A bits-bit value whose limbs all sit at their largest magnitude: -2**(width - 1)
    in every low limb and, in the top one, the largest that any bits-bit value has."""
    if count == 1:
        return (1 << bits) - 1
    low = -sum(1 << (width - 1 + k * width) for k in range(count - 1))
    top = top_limb(bits, width, count)
    value = (top << ((count - 1) * width)) + low
    assert value.bit_length() == bits
    assert balanced_limbs(value, width, count) == [-(1 << (width - 1))] * (count - 1) + [top]
    return value


def test_mul_matches_bruteforce_oracle_at_full_size():
    # One pair at the largest deployed geometry; the limb plan depends on d.
    rng = make_rng(31)
    d, q = 2048, 2**54
    lo, hi = -(q // 2), (q + 1) // 2
    a = [int(x) for x in rng.integers(lo, hi, d, dtype=np.int64)]
    b = [int(x) for x in rng.integers(lo, hi, d, dtype=np.int64)]
    assert (Polynomial(a, q) * Polynomial(b, q)).to_coeff_list() == negacyclic_mul_oracle(a, b, q)


def test_mul_binary_operand_matches_oracle_at_full_size():
    # The wide-times-binary product is the decryption workhorse.
    rng = make_rng(32)
    d, q = 2048, 2**54
    a = [int(x) for x in rng.integers(-(q // 2), (q + 1) // 2, d, dtype=np.int64)]
    b = [int(x) for x in rng.integers(0, 2, d, dtype=np.int64)]
    assert (Polynomial(a, q) * Polynomial(b, q)).to_coeff_list() == negacyclic_mul_oracle(a, b, q)


def test_mul_wraparound_identities():
    d, q = 8, 97
    x = monomial(1, 1, d, q)
    top = monomial(d - 1, 1, d, q)
    assert (top * x).to_coeff_list() == [-1] + [0] * (d - 1)
    one_plus_x = Polynomial([1, 1] + [0] * (d - 2), q)
    one_minus_x = Polynomial([1, -1] + [0] * (d - 2), q)
    assert (one_plus_x * one_minus_x).to_coeff_list() == [1, 0, -1] + [0] * (d - 3)


def test_mul_algebraic_properties():
    rng = make_rng(33)
    d, q = 64, 2**54
    half = q // 2
    for _ in range(25):
        a = Polynomial(rng.integers(-half, half, d, dtype=np.int64), q)
        b = Polynomial(rng.integers(-half, half, d, dtype=np.int64), q)
        c = Polynomial(rng.integers(-half, half, d, dtype=np.int64), q)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
    one = monomial(0, 1, d, q)
    zero = monomial(0, 0, d, q)
    a = Polynomial(rng.integers(-half, half, d, dtype=np.int64), q)
    assert a * one == a
    assert (a * zero).is_zero()


def test_monomial_multiply_matches_oracle():
    rng = make_rng(34)
    d, q = 16, 2**54
    half = q // 2
    a = [int(x) for x in rng.integers(-half, half, d, dtype=np.int64)]
    pa = Polynomial(a, q)
    # index 0 is a scalar product; every other index runs the limb kernel
    for index in (0, 1, 7, d - 1):
        for coeff in (1, -1, 5, half - 1, -(half - 1)):
            mono = [0] * d
            mono[index] = coeff
            got = pa * Polynomial(mono, q)
            assert got.to_coeff_list() == negacyclic_mul_oracle(a, mono, q), (index, coeff)


@pytest.mark.parametrize("q", [97, 2**54, (2**30) - 35, 2**62 - 57, 2**62 - 1, 3])
def test_scalar_mul_matches_oracle(q):
    rng = make_rng(35)
    d = 16
    half = q // 2
    a = [int(x) for x in rng.integers(-half, (q + 1) // 2, d, dtype=np.int64)]
    pa = Polynomial(a, q)
    # |scalar| = half - 1 takes the most digits of the multiplier
    for scalar in (0, 1, -1, 2, 255, half - 1, -(half - 1)):
        got = (pa * scalar).to_coeff_list()
        assert got == [center_mod(c * scalar, q) for c in a], scalar
        assert got == (scalar * pa).to_coeff_list()
    # a factor is an int or numpy signed integer, on either side; True, 2.5 and
    # np.uint64(3) used to be read as 1, 2 and 3
    for bad in (True, 2.5, np.uint64(3), "3", None, np.array([3])):
        with pytest.raises(ValueError):
            pa * bad
        with pytest.raises(ValueError):
            bad * pa
    assert pa * np.int64(3) == np.int64(3) * pa == pa * 3
    # the helper behind it also carries the exact quotient
    # for signed x with |x| < q too: the floor quotient and a remainder in [0, q)
    residues = [c % q for c in a]
    for xs in (residues, a, [q - 1, -(q - 1)]):
        for c in (0, 1, 2, 255, half - 1, q - 1):
            quo, rem = _mul_divmod(np.array(xs, dtype=np.int64), c, q)
            got = [(int(x), int(y)) for x, y in zip(quo, rem)]
            assert got == [divmod(x * c, q) for x in xs], (xs, c)
    # at the top digit's width: bits(max|x|) + bits(c) = 62 and 63 fit one int64
    # multiply, 64 needs a second digit
    for bits_x in sorted({1, (q - 1).bit_length() // 2, (q - 1).bit_length()}):
        x_max = min((1 << bits_x) - 1, q - 1)
        xs = [x_max, -x_max, x_max // 3, -(x_max // 2), 1, -1, 0]
        for total in (62, 63, 64):
            bits_c = total - bits_x
            for c in (1 << (bits_c - 1), (1 << bits_c) - 1) if bits_c > 0 else ():
                quo, rem = _mul_divmod(np.array(xs, dtype=np.int64), c, q)
                got = [(int(x), int(y)) for x, y in zip(quo, rem)]
                assert got == [divmod(x * c, q) for x in xs], (bits_x, c)


def limb_maximum(bits: int, width: int, count: int) -> int:
    """The largest limb magnitude of any value below 2**bits in magnitude."""
    if count == 1:
        return (1 << bits) - 1
    return max(top_limb(bits, width, count), 1 << (width - 1))


def test_limb_plan_keeps_the_error_bound_below_one_half():
    rng = make_rng(36)
    degrees = set()
    for _ in range(600):
        bits_a = int(rng.integers(1, 62))
        bits_b = int(rng.integers(1, bits_a + 1))
        d = 1 << int(rng.integers(1, 13))
        degrees.add(d)
        width_a, count_a, width_b, count_b, bound = _limb_plan(bits_a, bits_b, d)
        maxima = []
        for bits, width, count in ((bits_a, width_a, count_a), (bits_b, width_b, count_b)):
            # count limbs carry every value below 2**bits, and the same count of
            # one-bit-narrower limbs would not
            if count > 1:
                assert count * (width - 1) - 1 < bits <= count * width - 1, (bits, width, count)
            else:
                assert width == bits
            for v in ((1 << bits) - 1, -((1 << bits) - 1), 1, -1):
                limbs = balanced_limbs(v, width, count)
                assert sum(limb << (k * width) for k, limb in enumerate(limbs)) == v
            maxima.append(limb_maximum(bits, width, count))
        # every limb pair's outputs are integers of at most the plan's bound, and
        # the transform's error on them stays below 1/2
        error = _transform_error(d // 2)
        assert bound == d * maxima[0] * maxima[1]
        assert bound * error < 0.5, (bits_a, bits_b, d)
        # and a has as few limbs as that allows: one fewer would break it
        if count_a > 1:
            fewer = count_a - 1
            widest = (1 << bits_a) - 1 if fewer == 1 else 1 << -(-(bits_a + 1) // fewer) - 1
            assert d * widest * maxima[1] * error >= 0.5, (bits_a, bits_b, d)
    # every transform length n = d / 2 from 1 to 2048
    assert degrees == {1 << k for k in range(1, 13)}


def test_limb_plan_at_the_deployed_geometry(monkeypatch):
    # q = 2**54: a 53-bit wide operand times a binary one is two balanced
    # 27-bit limbs against one, at d = 2048 and at d = 1024; a Gaussian (tail
    # 19, 5 bits) times a binary operand is one limb each
    assert _limb_plan(53, 1, 2048) == (27, 2, 1, 1, 2048 * 2**26)
    assert _limb_plan(53, 1, 1024) == (27, 2, 1, 1, 1024 * 2**26)
    assert _limb_plan(5, 1, 2048) == (5, 1, 1, 1, 2048 * 31)
    # the kernel runs the plan it states: each wide x binary product the
    # benchmark times, in either order, is one forward transform of the three
    # limb rows and one inverse transform of the two limb pairs
    seen, transform = [], ring._transform

    def counted(v, inverse):
        seen.append((v.shape, inverse))
        return transform(v, inverse)

    monkeypatch.setattr(ring, "_transform", counted)
    for d in (2048, 1024):
        wide, binary = sample_uniform(d, 2**54, make_rng(d)), sample_binary(d, 2**54, make_rng(d))
        assert wide.max_abs().bit_length() == 53
        for product in (lambda: wide * binary, lambda: binary * wide):
            seen.clear()
            product()
            assert seen == [((3, d // 2), False), ((2, d // 2), True)], d


U, BETA = Fraction(_UNIT_ROUNDOFF), Fraction(_TWIDDLE_ERROR)


def gamma(k: int) -> Fraction:
    return k * U / (1 - k * U)


def sqrt_up(k: int) -> Fraction:
    return Fraction(math.isqrt(k * 10**40) + 1, 10**20)


MU = sqrt_up(2) * gamma(2)  # a complex product
NU = (1 + BETA) * (1 + MU) - 1  # a product with a table entry


def tau(r: int) -> Fraction:
    """tau_r of the kernel's docstring: the relative error of an r-point table application."""
    return sqrt_up(r) * (BETA + sqrt_up(2) * gamma(2 * r) * (1 + BETA))


def exact_transform_eta(n: int) -> Fraction:
    """eta(n) of the kernel's docstring, the relative 2-norm error of one
    length-n transform, in exact rational arithmetic, square roots rounded up."""
    # each twiddled stage of radix r, then the last m-point table DFT
    eta = 1 + tau(min(n, _TABLE_DFT))
    for radix, _ in _stage_plan(n):
        eta *= (1 + tau(radix)) * (1 + NU)
    return eta - 1


def exact_transform_error(n: int) -> Fraction:
    """C(n) of the kernel's docstring in exact rational arithmetic, square roots rounded up."""
    eta = exact_transform_eta(n)
    kappa = (1 + eta) * (1 + NU) - 1
    return (1 + NU) * (1 + MU) * (1 + kappa) ** 2 * (1 + sqrt_up(n) * eta) - 1


def natural_order(n: int) -> np.ndarray:
    """The frequency each output position of a forward _transform holds: a block
    of r h split by a radix-r stage holds frequency k1 + r k2 in row k1, at the
    position of k2 in the row's own transform."""
    radices = [radix for radix, _ in _stage_plan(n)] + [min(n, _TABLE_DFT)]
    freq = np.zeros(1, dtype=np.int64)
    for r in reversed(radices):
        freq = np.concatenate([k1 + r * freq for k1 in range(r)])
    return freq


def test_transform_meets_its_stated_error():
    # every length the kernel runs, against numpy's FFT in extended precision
    # (eps 2**-63, so the reference errs by far less than the bound allows)
    assert np.finfo(np.longdouble).eps <= 2.0**-63
    # a leading stage of radix 2**(log2(n / 8) mod 3), then 8-point stages
    assert _stage_plan(2048) == ((4, 512), (8, 64), (8, 8))
    assert _stage_plan(1024) == ((2, 512), (8, 64), (8, 8))
    assert _stage_plan(512) == ((8, 64), (8, 8))
    assert _stage_plan(8) == _stage_plan(4) == ()
    rng = make_rng(37)
    for n in (1 << k for k in range(12)):
        eta = float(exact_transform_eta(n))
        freq = natural_order(n)
        assert sorted(freq) == list(range(n))
        parts = rng.integers(-(2**26), 2**26, size=(2, 4, n), endpoint=True)
        x = parts[0] + 1j * parts[1]
        exact = np.fft.ifft(x.astype(np.clongdouble), axis=1) * n  # sum_j x_j w**(jk)
        got = _transform(x.copy(), inverse=False)
        natural = np.empty_like(got)
        natural[:, freq] = got
        norms = np.linalg.norm(x.astype(np.clongdouble), axis=1)
        error = np.linalg.norm(natural.astype(np.clongdouble) - exact, axis=1)
        assert (error <= eta * math.sqrt(n) * norms).all(), n
        # the inverse of the computed spectrum: its own error plus the forward
        # error carried through a map of norm sqrt(n)
        back = _transform(got, inverse=True)
        error = np.linalg.norm(back.astype(np.clongdouble) - n * x, axis=1)
        assert (error <= ((1 + eta) ** 2 - 1) * n * norms).all(), n


def test_error_bound_arithmetic_for_every_deployed_and_grid_plan():
    # every kernel product the workloads and the CLI make is a 53-bit operand
    # times a binary one at d = 2048 or 1024; the grid adds the operand widths
    # of every modulus and every degree up to 4096, so every n from 1 to 2048
    deployed = [(53, 1, 2048), (53, 1, 1024)]
    widths = (1, 2, 5, 8, 20, 27, 40, 53, 54, 61)
    degrees = [1 << k for k in range(1, 13)]
    grid = [(a, b, d) for d in degrees for a in widths for b in widths if b <= a]
    exact = {}
    for bits_a, bits_b, d in deployed + grid:
        n = d // 2
        if n not in exact:
            exact[n] = exact_transform_error(n)
            # the float evaluation in ring agrees with the exact one
            assert abs(Fraction(_transform_error(n)) / exact[n] - 1) < Fraction(1, 10**12), n
        bound = _limb_plan(bits_a, bits_b, d)[4]
        assert bound * exact[n] < Fraction(1, 2), (bits_a, bits_b, d)
    # the deployed plans, with the margin the kernel's docstring states
    assert round(exact[1024] / Fraction(_UNIT_ROUNDOFF)) == 7983
    assert 2048 * 2**26 * exact[1024] < Fraction(122, 1000)
    assert 1024 * 2**26 * exact[512] < Fraction(413, 10000)


def test_twiddle_tables_are_within_their_stated_error():
    # _TWIDDLE_ERROR is proven by enumeration: every entry of every table the
    # kernel reads, for every transform length up to n = 4096 (d = 8192),
    # against exp(2 pi i k / L) at 50 significant digits
    largest = 16384
    with localcontext() as ctx:
        ctx.prec = 50
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097")
        # cos and sin of 2 pi / largest by their Taylor series, then each
        # root as a power of that one
        x, cos, sin, term = 2 * pi / largest, Decimal(0), Decimal(0), Decimal(1)
        for k in range(30):
            if k % 2:
                sin += term if k % 4 == 1 else -term
            else:
                cos += term if k % 4 == 0 else -term
            term = term * x / (k + 1)
        reference, re, im = [], Decimal(1), Decimal(0)
        for _ in range(largest):
            reference.append((re, im))
            re, im = re * cos - im * sin, re * sin + im * cos
        worst = Decimal(0)
        for count in (1 << j for j in range(largest.bit_length())):
            table = _roots(count)
            assert table.shape == (count,)
            for entry, (re, im) in zip(table.tolist(), reference[:: largest // count]):
                error = (Decimal(entry.real) - re) ** 2 + (Decimal(entry.imag) - im) ** 2
                worst = max(worst, error)
        assert worst.sqrt() <= Decimal(_TWIDDLE_ERROR), float(worst.sqrt())
    # and every other table is made of those entries, conjugated or scaled by 1/n
    for n in (1 << j for j in range((largest // 4).bit_length())):
        stages, stages_conj, last, last_conj, twist, untwist = _transform_tables(n)
        roots, m = _roots(n), min(n, _TABLE_DFT)

        def dft_table(r):  # entry (k, p) is exp(2 pi i k p / r), the _roots(n) entry k p n / r
            return [[roots[k * p % r * n // r] for p in range(r)] for k in range(r)]

        plan = _stage_plan(n)
        assert len(stages) == len(stages_conj) == len(plan)
        for (radix, h), (table, t), (table_conj, t_conj) in zip(plan, stages, stages_conj):
            assert table.shape == (radix, radix) and t.shape == (radix, h)
            assert np.array_equal(table, dft_table(radix))
            assert np.array_equal(table_conj, table.conj())
            # row p of a stage on blocks of radix * h turns entry j by
            # exp(2 pi i j p / (radix h)), the _roots(n) entry j p n / (radix h)
            for p in range(radix):
                assert np.array_equal(t[p], [roots[j * p * n // (radix * h)] for j in range(h)])
            assert np.array_equal(t_conj, t.conj())
        assert np.array_equal(last, dft_table(m))
        assert np.array_equal(last_conj, last.conj())
        assert np.array_equal(twist, _roots(4 * n)[:n])
        assert np.array_equal(untwist * n, twist.conj())


# --- monomial constructor -----------------------------------------------------


def test_monomial_constructor():
    d, q = 8, 97
    assert monomial(0, 1, d, q).to_coeff_list() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert monomial(3, -5, d, q).to_coeff_list() == [0, 0, 0, -5, 0, 0, 0, 0]
    assert monomial(2, 97, d, q).is_zero()
    with pytest.raises(ValueError):
        monomial(8, 1, d, q)
    with pytest.raises(ValueError):
        monomial(-1, 1, d, q)
    # True used to index every coefficient as a numpy mask, 1.0 raised IndexError
    # and a coefficient of 2.7 was truncated to 2
    for index in (True, 1.0, np.uint8(1)):
        with pytest.raises(ValueError, match="monomial index"):
            monomial(index, 5, d, q)
    for coeff in (True, 2.7):
        with pytest.raises(ValueError):
            monomial(1, coeff, d, q)
    assert monomial(np.int64(1), np.int64(5), d, q) == monomial(1, 5, d, q)
    # so is d: 8.0 and True used to raise numpy's TypeError
    for size in (8.0, True, np.uint8(8)):
        with pytest.raises(ValueError, match="d must be an integer"):
            monomial(0, 1, size, q)
    assert monomial(0, 1, np.int64(d), q) == monomial(0, 1, d, q)


# --- samplers -------------------------------------------------------------------


def test_samplers_are_deterministic_per_seed():
    d, q = 128, 2**54
    for sampler in (
        lambda n, r: sample_uniform(n, q, r),
        lambda n, r: sample_binary(n, q, r),
        lambda n, r: sample_gaussian(n, q, 3.2, r),
    ):
        assert sampler(d, make_rng(77)) == sampler(d, make_rng(77))
        assert sampler(d, make_rng(77)) != sampler(d, make_rng(78))
        # d is an integer: 4.0 and True used to raise numpy's TypeError
        assert sampler(np.int64(d), make_rng(77)) == sampler(d, make_rng(77))
        for size in (4.0, True, np.uint8(4)):
            with pytest.raises(ValueError, match="d must be an integer"):
                sampler(size, make_rng(77))


def test_sample_binary_range():
    p = sample_binary(512, 2**54, make_rng(41))
    assert set(p.to_coeff_list()) <= {0, 1}


def test_sample_uniform_is_centered_and_spread():
    q = 2**54
    p = sample_uniform(4096, q, make_rng(42))
    coeffs = np.array(p.to_coeff_list())
    assert coeffs.min() >= -(q // 2) and coeffs.max() < q // 2
    assert coeffs.min() < -q // 4 and coeffs.max() > q // 4
    assert abs(float(np.mean(coeffs / q))) < 0.02


def test_sample_gaussian_tail_and_moments():
    sigma = 3.2
    draws = []
    for seed in range(8):
        draws.extend(sample_gaussian(4096, 2**54, sigma, make_rng(seed)).to_coeff_list())
    arr = np.array(draws, dtype=np.float64)
    assert np.abs(arr).max() <= gaussian_tail(sigma) == 19
    assert abs(arr.mean()) < 0.1
    assert abs(arr.std() / sigma - 1.0) < 0.1


def test_sample_gaussian_rejects_bad_sigma():
    # one sigma rule, the one BfvParams applies: True used to sample at sigma 1
    # and np.float32(3.2) was accepted; "3", inf and 10**400 raised TypeError,
    # OverflowError and a numpy size error
    for sigma in (0.0, -1.0, 0, float("nan"), float("inf"), True, np.float32(3.2), np.float64(3.2),
                  10**400, "3", None):
        with pytest.raises(ValueError, match="sigma must be a positive finite number"):
            sample_gaussian(8, 97, sigma, make_rng(1))
    # a valid sigma draws what it drew before, an int as its float
    assert sample_gaussian(64, 97, 3, make_rng(1)) == sample_gaussian(64, 97, 3.0, make_rng(1))
    assert sample_gaussian(8, 97, 3.2, make_rng(1)).to_coeff_list() == [0, 5, -3, 5, -2, -1, 3, -1]


# --- text forms ------------------------------------------------------------------


def test_hex_roundtrip_various_moduli():
    rng = make_rng(51)
    # q = 2**62 - 57 has eight-byte fields, so no sign padding
    for q in (3, 97, 256, 2**16, 2**30, 2**54, 2**62 - 57):
        d = 32
        coeffs = rng.integers(-(q // 2), (q + 1) // 2, d, dtype=np.int64)
        coeffs[:2] = -(q // 2), (q - 1) // 2
        p = Polynomial(coeffs, q)
        assert p.to_hex() == hex_oracle(p.to_coeff_list(), q)
        assert Polynomial.from_hex(p.to_hex(), q) == p


def test_hex_frozen_examples():
    # one byte per coefficient at modulus 256, two's complement
    assert Polynomial([1, -1], 256).to_hex() == "01ff"
    # seven bytes per coefficient at q = 2**54
    assert Polynomial([1, 0], 2**54).to_hex() == "00000000000001" + "00000000000000"


def test_from_hex_rejects_bad_lengths():
    with pytest.raises(ValueError):
        Polynomial.from_hex("", 256)
    with pytest.raises(ValueError):
        Polynomial.from_hex("0f0", 256)
    # int(field, 16) used to accept each of these as 10 (or -10)
    for field in ("0x0a", "+00a", " 00a", "0_0a", "00a\n", "-00a"):
        with pytest.raises(ValueError):
            Polynomial.from_hex(field, 2**16)
    # the modulus rule runs before the field width is read: np.int64(97) used
    # to raise AttributeError, and True and 1 made zero-byte fields
    for modulus in (np.int64(97), 97.0, True, 1, 2**62):
        with pytest.raises(ValueError, match="modulus must be an int"):
            Polynomial.from_hex("01", modulus)
    # text that is not a str used to raise TypeError
    for text in (b"01", 1, None, ["01"]):
        with pytest.raises(ValueError, match="hex text must be a str"):
            Polynomial.from_hex(text, 256)


def test_with_modulus_lifts_and_reduces():
    p = Polynomial([5, -3, 0, 1], 83)
    lifted = Polynomial(p.coeffs, 2**54)
    assert lifted.modulus == 2**54
    assert lifted.to_coeff_list() == [5, -3, 0, 1]
    wide = Polynomial([200, -300, 0, 50], 2**54)
    reduced = Polynomial(wide.coeffs, 256)
    assert reduced.to_coeff_list() == [centered_scan(c, 256) for c in [200, -300, 0, 50]]


def test_misc_accessors():
    p = Polynomial([0, -7, 3, 0], 97)
    assert p.d == 4
    assert p.max_abs() == 7
    assert not p.is_zero()
    assert monomial(0, 0, 4, 97).is_zero()
    assert monomial(0, 99, 4, 97).to_coeff_list() == [2, 0, 0, 0]
    assert "Polynomial" in repr(p)
    # comparing with a non-polynomial is left to Python: unequal, not an error
    assert (Polynomial([1, 2], 7) == 3) is False
    assert (Polynomial([1, 2], 7) != "x") is True
