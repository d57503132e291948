"""Exact arithmetic in Z_m[x] / (x^d + 1) with centered coefficients.

Coefficients are int64 centered residues in [-m/2, m/2), for m < 2**62.
Multiplication takes "valid" convolutions of [-a, a] limbs with b limbs, in
float32 where every sum stays within 2**24 and in float64 within 2**53 (see
_limb_plan); _mul_divmod recombines them mod m in int64, and decryption
rounds with its quotient.  Every array reduction is one floor division
(_divmod, _center).  Sampled values stay integer too; there is no NTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "RingParams",
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


def reduce_centered(value: int, modulus: int) -> int:
    """Return the residue of value mod modulus lying in [-modulus/2, modulus/2)."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    r = value % modulus
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


@dataclass(frozen=True)
class RingParams:
    """Degree and coefficient modulus of Z_q[x] / (x^d + 1)."""

    d: int
    q: int

    def __post_init__(self) -> None:
        if self.d < 2 or self.d & (self.d - 1):
            raise ValueError("ring degree must be a power of two, at least 2")
        if not 2 <= self.q < (1 << _INT64_BUDGET):
            raise ValueError("coefficient modulus must satisfy 2 <= q < 2**62")


class Polynomial:
    """Length-d coefficient vector with centered residues mod `modulus`.

    Instances are immutable by convention: all operations return new
    polynomials.  Coefficients are stored as int64, which the modulus
    bound in RingParams guarantees is lossless.  `coeffs` must become a
    1-D, non-empty signed-integer array under np.asarray; floats, strings,
    None, bools and values outside int64 raise ValueError, never coerced.
    """

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        arr = np.asarray(coeffs)
        if arr.dtype.kind != "i" or arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"coefficients must be a non-empty 1-D integer vector: {arr!r:.40}")
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

    @classmethod
    def zero(cls, d: int, modulus: int) -> "Polynomial":
        return cls(np.zeros(d, dtype=np.int64), modulus)

    @classmethod
    def constant(cls, value: int, d: int, modulus: int) -> "Polynomial":
        coeffs = np.zeros(d, dtype=np.int64)
        coeffs[0] = reduce_centered(value, modulus)
        return cls(coeffs, modulus)

    @property
    def d(self) -> int:
        return int(self.coeffs.size)

    def with_modulus(self, modulus: int) -> "Polynomial":
        """Re-center the same coefficient values under a different modulus."""
        return Polynomial(self.coeffs, modulus)

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
        if isinstance(other, (int, np.integer)):
            return self._scalar_mul(int(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, np.integer)):
            return self._scalar_mul(int(other))
        return NotImplemented

    def _scalar_mul(self, scalar: int) -> "Polynomial":
        # sign and magnitude of the centered scalar keep the digit count low
        scalar = reduce_centered(scalar, self.modulus)
        product = _mul_divmod(_divmod(self.coeffs, self.modulus)[1], abs(scalar), self.modulus)[1]
        return Polynomial(product if scalar >= 0 else -product, self.modulus)

    def _ring_mul(self, other: "Polynomial") -> "Polynomial":
        for a, b in ((self, other), (other, self)):
            if np.count_nonzero(b.coeffs) > 1:
                continue
            nz = np.flatnonzero(b.coeffs)
            if nz.size == 0:
                return Polynomial.zero(self.d, self.modulus)
            return a._mul_monomial(int(nz[0]), int(b.coeffs[nz[0]]))
        product = _negacyclic_mul(self.coeffs, other.coeffs, self.modulus)
        return Polynomial(product, self.modulus)

    def _mul_monomial(self, index: int, coeff: int) -> "Polynomial":
        """Multiply by coeff * x^index using x^d = -1."""
        scaled = self._scalar_mul(coeff)
        if index == 0:
            return scaled
        d = self.d
        rotated = np.empty(d, dtype=np.int64)
        rotated[:index] = -scaled.coeffs[d - index:]
        rotated[index:] = scaled.coeffs[: d - index]
        return Polynomial(rotated, self.modulus)

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

    def __hash__(self):
        return hash((self.modulus, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        head = ", ".join(str(int(c)) for c in self.coeffs[:8])
        tail = ", ..." if self.d > 8 else ""
        return f"Polynomial(d={self.d}, modulus={self.modulus}, [{head}{tail}])"


def _hex_field_bytes(modulus: int) -> int:
    bits = (modulus - 1).bit_length()
    return (bits + 7) // 8


@cache
def _limb_plan(bits_a: int, bits_b: int, d: int) -> tuple[int, int, tuple]:
    """Choose limb widths and a float type per limb pair so every convolution is exact.

    A limb's largest value L is 2**width - 1, or less for the narrower top limb;
    pair (i, j) runs in float32 when d * La_i * Lb_j <= 2**24 and in float64 when
    it is <= 2**53, the bounds _negacyclic_mul proves.  Returns (width_a, width_b,
    types), types[i][j] the type of pair (i, j), at the least cost, a float64
    convolution counting as two float32 ones; ties go to fewer convolutions.
    """
    def maxima(bits: int, width: int) -> list[int]:  # the largest value of each limb
        return [min((1 << width) - 1, ((1 << bits) - 1) >> s) for s in range(0, bits, width)]
    best = ((float("inf"),),)
    limbs_b = [maxima(bits_b, width) for width in range(bits_b, 0, -1)]
    for max_a in (maxima(bits_a, width) for width in range(bits_a, 0, -1)):
        for max_b in limbs_b:
            # the low limbs are the largest, and every pair costs at least 1
            pairs = len(max_a) * len(max_b)
            if d * max_a[0] * max_b[0] > _FLOAT64_EXACT or pairs > best[0][0]:
                continue
            types = tuple(
                tuple(np.float32 if d * la * lb <= _FLOAT32_EXACT else np.float64 for lb in max_b)
                for la in max_a
            )
            cost = (sum(1 if t is np.float32 else 2 for row in types for t in row), pairs)
            if cost <= best[0]:  # then to the narrower widths
                best = (cost, max_a[0].bit_length(), max_b[0].bit_length(), types)
    return best[1:]


def _split_limbs(arr: np.ndarray, width: int, count: int) -> list[np.ndarray]:
    """Sign-magnitude base-2**width limbs; each limb keeps the coefficient sign."""
    if count == 1:
        return [arr]
    mag = np.abs(arr)
    sign = np.sign(arr)
    mask = (1 << width) - 1
    return [((mag >> (k * width)) & mask) * sign for k in range(count)]


def _mul_divmod(x: np.ndarray, c: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """(x * c // modulus, x * c % modulus) for int64 x in [0, modulus), c >= 0.

    Horner over base-2**k digits of c with k = 63 - bits(modulus - 1):
    x * digit and rem * 2**k stay below 2**63, the sum of two residues
    stays below 2 * modulus < 2**63, and the quotient never exceeds
    x * c // modulus < c, so c must be below 2**63 as well.
    """
    k = 63 - (modulus - 1).bit_length()
    mask = (1 << k) - 1
    quo = rem = np.zeros_like(x)
    for shift in range((c.bit_length() - 1) // k * k, -1, -k):
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
    integer of at most d * La * Lb, which _limb_plan keeps within 2**24 for a
    float32 pair and 2**53 for a float64 pair: both types hold it exactly.
    """
    d = int(a.size)
    width_a, width_b, types = _limb_plan(
        int(np.abs(a).max()).bit_length(), int(np.abs(b).max()).bit_length(), d
    )
    limbs_b = _split_limbs(b, width_b, len(types[0]))
    acc = np.zeros(d, dtype=np.int64)
    for i, la in enumerate(_split_limbs(a, width_a, len(types))):
        la = np.concatenate((-la[1:], la))
        for j, (lb, dtype) in enumerate(zip(limbs_b, types[i])):
            conv = np.convolve(la.astype(dtype), lb.astype(dtype), "valid")
            head = _divmod(conv.astype(np.int64), modulus)[1]
            weight = pow(2, i * width_a + j * width_b, modulus)
            if weight != 1:
                head = _mul_divmod(head, weight, modulus)[1]
            acc = _center(acc + head, modulus)
    return acc


def monomial(index: int, coeff: int, params: RingParams) -> Polynomial:
    """The polynomial coeff * x^index in Z_q[x] / (x^d + 1)."""
    if not 0 <= index < params.d:
        raise ValueError(f"monomial index {index} outside [0, {params.d})")
    coeffs = np.zeros(params.d, dtype=np.int64)
    coeffs[index] = reduce_centered(coeff, params.q)
    return Polynomial(coeffs, params.q)


def sample_uniform(params: RingParams, rng: np.random.Generator) -> Polynomial:
    """Uniform polynomial over Z_q, one independent draw per coefficient."""
    raw = rng.integers(0, params.q, size=params.d, dtype=np.int64)
    return Polynomial(raw, params.q)


def sample_binary(params: RingParams, rng: np.random.Generator) -> Polynomial:
    """Polynomial with independent uniform {0, 1} coefficients."""
    raw = rng.integers(0, 2, size=params.d, dtype=np.int64)
    return Polynomial(raw, params.q)


def gaussian_tail(sigma: float) -> int:
    """floor(6 * sigma): the largest |c| sample_gaussian can return.

    Every noise bound in the library is derived from this one.
    """
    return int(6 * sigma)


def sample_gaussian(
    params: RingParams, sigma: float, rng: np.random.Generator
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
    draws = rng.random(params.d)
    values = support[np.searchsorted(cdf, draws, side="right")]
    return Polynomial(values, params.q)
