"""Exact arithmetic in Z_m[x] / (x^d + 1) with centered coefficients.

Coefficients are int64 centered residues in [-m/2, m/2), for m < 2**62.
A constant operand, zero included, multiplies through _mul_divmod, whose
first digit is as wide as the other operand allows, so a product that fits
int64 is one multiply.  Every other product runs one limb kernel: "valid"
convolutions of [-a, a] limbs with b limbs.  A pair of limbs of largest values
La, Lb sums to at most d * La * Lb, and the limb widths come from the one
inequality d * La * Lb <= 2**53 (see _limb_plan); a pair runs in float32 when
its bound is within 2**24.  _mul_divmod recombines the sums mod m in int64,
straight from the signed sums when a pair's bound is below m; decryption
rounds with its quotient.  Every array reduction is one floor division
(_divmod, _center).  Sampled values stay integer too; there is no NTT.  A
value a caller passes (coefficient, factor, index, degree) is an int or numpy
signed integer, never a bool (_is_int), and a modulus is exactly an int.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "Polynomial",
    "reduce_centered",
    "monomial",
    "sample_uniform",
    "sample_binary",
    "gaussian_tail",
    "sample_gaussian",
]

# Residues and the _mul_divmod recombination are int64, so q < 2**62; float32
# and float64 hold every integer up to 2**24 and 2**53, the limb sum bounds.
_INT64_BUDGET = 62
_FLOAT32_EXACT = 1 << 24
_FLOAT64_EXACT = 1 << 53


def _is_int(kind: type) -> bool:
    """The one rule for an integer value: its type is int or a numpy signed integer, not bool."""
    return issubclass(kind, (int, np.signedinteger)) and kind is not bool


def _as_int(value, name: str) -> int:
    """value as a Python int if _is_int allows its type; otherwise ValueError naming it."""
    if not _is_int(type(value)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def _check_modulus(modulus: int) -> None:
    if type(modulus) is not int or not 2 <= modulus < (1 << _INT64_BUDGET):
        raise ValueError(f"modulus must be an int with 2 <= modulus < 2**62, not {modulus!r}")


def reduce_centered(value: int, modulus: int) -> int:
    """Return the residue of value mod modulus lying in [-modulus/2, modulus/2), as an int."""
    if type(modulus) is not int or modulus < 2:
        raise ValueError(f"modulus must be an int of at least 2, not {modulus!r}")
    r = _as_int(value, "value") % modulus
    if r >= (modulus + 1) // 2:
        r -= modulus
    return r


def _divmod(x: np.ndarray, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """(x // modulus, x mod modulus in [0, modulus)) for an int64 array x."""
    # // by a scalar runs through libdivide, about 3x faster than % or np.divmod;
    # a wrap in quo * modulus cancels exactly: the true remainder fits in int64
    quo = x // modulus
    return quo, x - quo * modulus


def _center(x: np.ndarray, modulus: int) -> np.ndarray:
    """x mod modulus in [-modulus/2, modulus/2), for int64 x below 2**63 - modulus/2."""
    return x - (x + modulus // 2) // modulus * modulus


def _int64_list(values: list) -> np.ndarray:
    """The one intake of integer lists: a list of _is_int values as int64, else ValueError."""
    if not isinstance(values, list) or not all(map(_is_int, set(map(type, values)))):
        raise ValueError(f"expected a list of integers, not {values!r:.40}")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("integers must fit in int64") from None


class Polynomial:
    """Length-d coefficient vector with centered residues mod `modulus`.

    Instances are immutable by convention: all operations return new
    polynomials.  Coefficients are int64, which the bound 2 <= modulus < 2**62
    (_INT64_BUDGET) keeps lossless; the modulus is exactly an int.  `coeffs` is a
    non-empty 1-D signed-integer ndarray or a list _int64_list takes in, and a
    scalar factor is an int or numpy signed integer, never a bool.  Anything else
    (floats, bools, unsigned or out-of-range values, tuples, None) raises ValueError.
    """

    __slots__ = ("coeffs", "modulus")
    __array_ufunc__ = None  # so np.uint64(3) * p reaches __rmul__ and is refused

    def __init__(self, coeffs, modulus: int):
        _check_modulus(modulus)
        arr = _int64_list(coeffs) if isinstance(coeffs, list) else coeffs
        if (
            not isinstance(arr, np.ndarray) or arr.dtype.kind != "i" or arr.ndim != 1 or not arr.size
        ):
            raise ValueError(f"coefficients must be a non-empty 1-D integer vector: {coeffs!r:.40}")
        arr = arr.astype(np.int64)  # a copy: never alias the caller's array
        low, high = arr.min(), arr.max()
        if low < -(modulus // 2) or high >= (modulus + 1) // 2:  # free when centered
            if high > np.iinfo(np.int64).max - modulus // 2:  # would wrap in _center
                arr = _divmod(arr, modulus)[1]
            arr = _center(arr, modulus)
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def d(self) -> int:
        return int(self.coeffs.size)

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.modulus != other.modulus:
            raise ValueError("polynomials have different moduli")
        if self.coeffs.size != other.coeffs.size:
            raise ValueError("polynomials have different degrees")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return Polynomial(self.coeffs + other.coeffs, self.modulus)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        return Polynomial(self.coeffs - other.coeffs, self.modulus)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-self.coeffs, self.modulus)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            return self._ring_mul(other)
        return self._scalar_mul(other)

    __rmul__ = __mul__

    def _scalar_mul(self, scalar: int) -> "Polynomial":
        # sign and magnitude of the centered scalar keep the digit count low
        scalar = reduce_centered(scalar, self.modulus)
        product = _mul_divmod(self.coeffs, abs(scalar), self.modulus)[1]
        return Polynomial(product if scalar >= 0 else -product, self.modulus)

    def _ring_mul(self, other: "Polynomial") -> "Polynomial":
        """A constant operand (zero included) is a scalar; any other product runs the kernel."""
        for a, b in ((self, other), (other, self)):
            if not b.coeffs[1:].any():
                return a._scalar_mul(b.coeffs[0])
        product = _negacyclic_mul(self.coeffs, other.coeffs, self.modulus)
        return Polynomial(product, self.modulus)

    def max_abs(self) -> int:
        """Infinity norm of the centered coefficient vector."""
        return int(np.abs(self.coeffs).max())

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def to_coeff_list(self) -> list[int]:
        return self.coeffs.tolist()

    def to_hex(self) -> str:
        """Fixed-width two's-complement hex: the low _hex_field_bytes(modulus)
        big-endian bytes of each coefficient."""
        nbytes = _hex_field_bytes(self.modulus)
        fields = self.coeffs.astype(">i8").view(np.uint8).reshape(-1, 8)
        return fields[:, 8 - nbytes :].tobytes().hex()

    @classmethod
    def from_hex(cls, text: str, modulus: int) -> "Polynomial":
        """Inverse of to_hex; anything but whole fields of hex digits raises ValueError."""
        _check_modulus(modulus)
        nbytes = _hex_field_bytes(modulus)
        data = bytes.fromhex(text)
        # fromhex skips whitespace, so the length check also rejects it
        if not data or 2 * len(data) != len(text) or len(data) % nbytes:
            raise ValueError(f"hex text must be whole fields of {2 * nbytes} hex digits")
        fields = np.frombuffer(data, dtype=np.uint8).reshape(-1, nbytes)
        wide = np.empty((fields.shape[0], 8), dtype=np.uint8)
        wide[:, : 8 - nbytes] = np.where(fields[:, :1] >= 0x80, 0xFF, 0)
        wide[:, 8 - nbytes :] = fields
        return cls(wide.view(">i8").ravel().astype(np.int64), modulus)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.coeffs.size == other.coeffs.size
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __repr__(self) -> str:
        head = ", ".join(str(int(c)) for c in self.coeffs[:8])
        tail = ", ..." if self.d > 8 else ""
        return f"Polynomial(d={self.d}, modulus={self.modulus}, [{head}{tail}])"


def _hex_field_bytes(modulus: int) -> int:
    return ((modulus - 1).bit_length() + 7) // 8


@cache
def _limb_plan(bits_a: int, bits_b: int, d: int) -> tuple[int, int, tuple]:
    """Limb widths from the float64 bound d * La * Lb <= 2**53, and each pair's bound.

    La and Lb are the largest values of a limb of a and of b: 2**width - 1, or less
    for a narrower top limb.  With a budget of 53 - ceil(log2 d) bits, b keeps its
    full width when a fits beside it and otherwise takes at most half the budget;
    a then takes the widest limbs with d * La * max(Lb) <= 2**53.  Returns
    (width_a, width_b, bounds), bounds[i][j] = d * La_i * Lb_j for limb pair (i, j).
    """
    def maxima(bits: int, width: int) -> list[int]:  # the largest value of each limb
        return [min((1 << width) - 1, ((1 << bits) - 1) >> s) for s in range(0, bits, width)]
    budget = 53 - (d - 1).bit_length()
    width_b = min(bits_b, max(budget - bits_a, budget // 2))
    width_a = min(bits_a, (_FLOAT64_EXACT // (d * ((1 << width_b) - 1)) + 1).bit_length() - 1)
    max_a, max_b = maxima(bits_a, width_a), maxima(bits_b, width_b)
    return width_a, width_b, tuple(tuple(d * la * lb for lb in max_b) for la in max_a)


def _split_limbs(arr: np.ndarray, width: int, count: int) -> list[np.ndarray]:
    """Sign-magnitude base-2**width limbs; each limb keeps the coefficient sign."""
    if count == 1:
        return [arr]
    mag = np.abs(arr)
    sign = np.sign(arr)
    mask = (1 << width) - 1
    return [((mag >> (k * width)) & mask) * sign for k in range(count)]


def _mul_divmod(x: np.ndarray, c: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """(x * c // modulus, x * c % modulus) for int64 x with |x| < modulus, c >= 0.

    The quotient is the floor, so the remainder lies in [0, modulus) for
    either sign of x.  Horner over the digits of c: the top digit is
    63 - bits(max|x|) bits wide, never narrower than the k = 63 - bits(modulus - 1)
    of every later digit, so a c of at most that many bits is one multiply and
    one floor division.  |x * digit| stays below 2**63 for the top digit and
    for each later one, rem * 2**k stays below 2**63, the sum of two residues
    stays below 2 * modulus < 2**63, and |quotient| <= c because |x| < modulus,
    so c must be below 2**63 as well.
    """
    k = 63 - (modulus - 1).bit_length()
    top_bits = 63 - int(np.abs(x).max()).bit_length()
    steps = -(-max(c.bit_length() - top_bits, 0) // k)  # the later digits
    quo, rem = _divmod(x * (c >> steps * k), modulus)
    mask = (1 << k) - 1
    for shift in range((steps - 1) * k, -1, -k):
        high, rem = _divmod(rem << k, modulus)
        quo = (quo << k) + high
        digit = (c >> shift) & mask
        if digit:
            high, low = _divmod(x * digit, modulus)
            carry, rem = _divmod(rem + low, modulus)
            quo = quo + high + carry
    return quo, rem


def _negacyclic_mul(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Exact centered negacyclic product of two nonzero centered int64 vectors.

    Each "valid" convolution of an a-limb [-a[1:], a] with a b-limb gives output
    k = sum_j b[j] * (a[k-j] if j <= k else -a[k-j+d]) directly: d limb products of
    at most La * Lb each, so every partial sum, in any BLAS order (FMA too), is an
    integer of at most d * La * Lb, the pair's bound from _limb_plan, which keeps
    it within 2**53.  A pair runs in float32 when its bound is within 2**24 and in
    float64 otherwise: both types hold it exactly.  When the bound is below the
    modulus, the signed sum is already a _mul_divmod operand (|x| < modulus) and
    is recombined unreduced.
    """
    d = int(a.size)
    bits_a, bits_b = (int(np.abs(x).max()).bit_length() for x in (a, b))
    width_a, width_b, bounds = _limb_plan(bits_a, bits_b, d)
    limbs_b = _split_limbs(b, width_b, len(bounds[0]))
    acc = np.zeros(d, dtype=np.int64)
    for i, la in enumerate(_split_limbs(a, width_a, len(bounds))):
        la = np.concatenate((-la[1:], la))
        for j, (lb, bound) in enumerate(zip(limbs_b, bounds[i])):
            dtype = np.float32 if bound <= _FLOAT32_EXACT else np.float64
            conv = np.convolve(la.astype(dtype), lb.astype(dtype), "valid").astype(np.int64)
            if bound >= modulus:  # the pair's bound, not a pass over conv
                conv = _divmod(conv, modulus)[1]
            weight = pow(2, i * width_a + j * width_b, modulus)
            if weight != 1:
                conv = _mul_divmod(conv, weight, modulus)[1]
            acc = _center(acc + conv, modulus)
    return acc


def monomial(index: int, coeff: int, d: int, modulus: int) -> Polynomial:
    """The polynomial coeff * x^index in Z_modulus[x] / (x^d + 1)."""
    index, d = _as_int(index, "monomial index"), _as_int(d, "d")
    if not 0 <= index < d:
        raise ValueError(f"monomial index {index} outside [0, {d})")
    coeffs = np.zeros(d, dtype=np.int64)
    coeffs[index] = reduce_centered(coeff, modulus)
    return Polynomial(coeffs, modulus)


def sample_uniform(d: int, modulus: int, rng: np.random.Generator) -> Polynomial:
    """Uniform polynomial over Z_modulus, one independent draw per coefficient."""
    raw = rng.integers(0, modulus, size=_as_int(d, "d"), dtype=np.int64)
    return Polynomial(raw, modulus)


def sample_binary(d: int, modulus: int, rng: np.random.Generator) -> Polynomial:
    """Polynomial with independent uniform {0, 1} coefficients."""
    raw = rng.integers(0, 2, size=_as_int(d, "d"), dtype=np.int64)
    return Polynomial(raw, modulus)


def gaussian_tail(sigma: float) -> int:
    """floor(6 * sigma): the largest |c| sample_gaussian can return.

    Every noise bound in the library is derived from this one.
    """
    return int(6 * sigma)


def sample_gaussian(
    d: int, modulus: int, sigma: float, rng: np.random.Generator
) -> Polynomial:
    """Discrete Gaussian coefficients via an inverse-CDF table.

    The support is cut at gaussian_tail(sigma); weights are proportional
    to exp(-x^2 / (2 sigma^2)) on the retained support.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    tail = gaussian_tail(sigma)
    support = np.arange(-tail, tail + 1, dtype=np.int64)
    weights = np.exp(-(support.astype(np.float64) ** 2) / (2.0 * sigma * sigma))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(_as_int(d, "d"))
    values = support[np.searchsorted(cdf, draws, side="right")]
    return Polynomial(values, modulus)
