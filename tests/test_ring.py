"""Ring arithmetic against independent oracles and frozen examples."""

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
from bfvlab.ring import _limb_plan, _mul_divmod

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
    with pytest.raises(ValueError):
        reduce_centered(5, 1)
    # a value is an int or numpy signed integer, never a bool, and a modulus is
    # exactly an int: 2.5 used to come back as 2.5 and True as 1
    for value, modulus in ((2.5, 97), (True, 97), (np.uint8(5), 97), (5, 97.0), (5, np.int64(97))):
        with pytest.raises(ValueError):
            reduce_centered(value, modulus)
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
    extremes = [2**63 - 1, -(2**63), -(2**63) + 1]
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
        [np.uint8(1), 0], [2**63, 0], (1, 2), range(1, 3), "10", None,
    ):
        with pytest.raises(ValueError):
            Polynomial(bad, 97)
    assert Polynomial([np.int32(-1), np.int64(2), 3], 97).to_coeff_list() == [-1, 2, 3]
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
    for q in (1, 2**62):
        with pytest.raises(ValueError, match="coefficient modulus"):
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
        # an odd modulus below 2**53 with three limbs a side: the saturated rows'
        # high pairs need their sums reduced before the weight multiplies them
        (64, 2**50 - 27, 10),
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


def saturated_pairs(d: int, q: int) -> list[tuple[list[int], list[int]]]:
    """Operands whose limb sums reach the kernel's bounds.

    Every output coefficient sums d limb products, so random operands,
    whose sums stay about sqrt(d) below a bound, cannot show a float
    budget one bit too large; these do.  The bound rows take, for a
    binary and a Gaussian-width b, the widest all-ones a the plan
    convolves as one float32 and as one float64 pair (pair_types), and set b[0] = 0:
    output d - 1 is then (d - 1) * a * b, odd, and one budget bit more
    would put it above 2**24 or 2**53, where the type holds no odd integer.
    The high-limb row keeps only the top limb of each operand, so output d - 1
    is the top pair's convolution at its full d * La * Lb, at the largest weight.
    """
    bits = (q // 2).bit_length()
    width_a, width_b, bounds = _limb_plan(bits, bits, d)
    half = (q - 1) // 2
    shift_a, shift_b = width_a * (len(bounds) - 1), width_b * (len(bounds[0]) - 1)
    rows = [
        (-(q // 2), [-(q // 2)] * d),
        (half, [half] * d),
        ((1 << width_a) - 1, [(1 << width_b) - 1] * d),
        (half, [1] * d),
        (half >> shift_a << shift_a, [half >> shift_b << shift_b] * d),
    ]
    top = ((q - 1) // 2 + 1).bit_length() - 1  # 2**top - 1 is a centered residue
    for bits_b in (1, 5):
        y = (1 << bits_b) - 1
        if y > (q - 1) // 2:
            continue
        for dtype in (np.float32, np.float64):
            single = [k for k in range(1, top + 1) if pair_types(k, bits_b, d) == ((dtype,),)]
            if single:
                rows.append(((1 << max(single)) - 1, [0] + [y] * (d - 1)))
    return [([x] * d, b) for x, b in rows]


def pair_types(bits_a: int, bits_b: int, d: int) -> tuple:
    """The float type the kernel runs each limb pair in: float32 when its bound is within 2**24."""
    bounds = _limb_plan(bits_a, bits_b, d)[2]
    return tuple(tuple(np.float32 if x <= 2**24 else np.float64 for x in row) for row in bounds)


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


def limb_maxima(bits: int, width: int, count: int) -> list[int]:
    """Largest value of each limb: 2**width - 1, or less for the narrower top limb."""
    return [min((1 << width) - 1, ((1 << bits) - 1) >> (k * width)) for k in range(count)]


def test_limb_plan_keeps_each_pair_within_its_float_budget():
    rng = make_rng(36)
    for n in range(600):
        bits_a = int(rng.integers(1, 62))
        bits_b = int(rng.integers(1, 62))
        # half the degrees are any d up to 4096, not only powers of two
        d = 1 << int(rng.integers(1, 13)) if n % 2 else int(rng.integers(1, 4097))
        width_a, width_b, bounds = _limb_plan(bits_a, bits_b, d)
        max_a = limb_maxima(bits_a, width_a, len(bounds))
        max_b = limb_maxima(bits_b, width_b, len(bounds[0]))
        assert width_a * (len(max_a) - 1) < bits_a <= width_a * len(max_a)
        assert width_b * (len(max_b) - 1) < bits_b <= width_b * len(max_b)
        # every partial sum of pair (i, j) is an integer of at most d * La_i * Lb_j
        assert bounds == tuple(tuple(d * la * lb for lb in max_b) for la in max_a)
        assert max(map(max, bounds)) <= 2**53, (bits_a, bits_b, d)
        # and a is as wide as that allows: one more bit would break it
        if width_a < bits_a:
            assert d * ((2 << width_a) - 1) * max_b[0] > 2**53, (bits_a, bits_b, d)


def test_limb_plan_at_the_deployed_geometry(monkeypatch):
    # q = 2**54: a 53-bit wide operand times a binary one is one float64 pair
    # and one float32 pair, with a 42-bit low limb at d = 2048 and a 43-bit one
    # at d = 1024; a Gaussian (tail 19, 5 bits) times a binary operand, in
    # either order, is one float32 pair
    assert _limb_plan(53, 1, 2048) == (42, 1, ((2048 * (2**42 - 1),), (2048 * (2**11 - 1),)))
    assert _limb_plan(53, 1, 1024) == (43, 1, ((1024 * (2**43 - 1),), (1024 * (2**10 - 1),)))
    assert pair_types(53, 1, 2048) == pair_types(53, 1, 1024) == ((np.float64,), (np.float32,))
    assert _limb_plan(5, 1, 2048) == (5, 1, ((2048 * 31,),))
    assert _limb_plan(1, 5, 2048) == (1, 5, ((2048 * 31,),))
    assert pair_types(5, 1, 2048) == pair_types(1, 5, 2048) == ((np.float32,),)
    # the kernel runs the types its plan gives: the wide x binary products the
    # benchmark times are one float64 and one float32 convolution each
    seen, convolve = [], np.convolve
    monkeypatch.setattr(np, "convolve", lambda x, y, m: seen.append(x.dtype) or convolve(x, y, m))
    for d in (2048, 1024):
        wide, binary = sample_uniform(d, 2**54, make_rng(d)), sample_binary(d, 2**54, make_rng(d))
        assert wide.max_abs().bit_length() == 53
        seen.clear()
        wide * binary
        assert seen == [np.float64, np.float32], d


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
    with pytest.raises(ValueError):
        sample_gaussian(8, 97, 0.0, make_rng(1))


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
