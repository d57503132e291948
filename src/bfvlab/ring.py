"""Exact arithmetic in Z_m[x] / (x^d + 1) with centered coefficients.

Coefficients are int64 centered residues in [-m/2, m/2), for m < 2**62.
A constant operand, zero included, multiplies through _mul_divmod, whose
first digit is as wide as the other operand allows, so a product that fits
int64 is one multiply.  Every other product runs one exact FFT kernel
(_negacyclic_mul): balanced limbs, folded to complex length d/2 with the
twist exp(i pi / d), one batched forward and one batched inverse transform
of our own (table stages of one kind: a matmul with a DFT table of radix at
most 8 and one twiddle multiply each), then np.rint.
Its docstring derives the error bound C(n) * d * La * Lb for limbs of largest
values La, Lb, and _limb_plan picks the fewest limbs that keep it below 1/2, so
the rounding is exact: two 27-bit limbs for a 53-bit operand times a binary
one at d = 1024 and 2048.  _mul_divmod recombines the limb pairs mod m in
int64; decryption rounds with its quotient.  Every array reduction is one
floor division (_divmod, _center).  Sampled values stay integer too; there is
no NTT.  A value a caller passes (coefficient, factor, index, degree) is an
int or numpy signed integer, never a bool (_is_int), a modulus is exactly an
int, and a noise width is a positive finite int or float (_as_sigma).
"""

from __future__ import annotations

import math
import sys
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

# Residues and the _mul_divmod recombination are int64, so q < 2**62.
_INT64_BUDGET = 62
# The product kernel's arithmetic: binary64 rounding to nearest, every
# twiddle-table entry within 2**-52 of its root (a test enumerates them),
# and DFTs of up to 8 points applied as one matmul with a table.
_UNIT_ROUNDOFF = 2.0**-53
_TWIDDLE_ERROR = 2.0**-52
_TABLE_DFT = 8


def _is_int(kind: type) -> bool:
    """The one rule for an integer value: its type is int or a numpy signed integer, not bool."""
    return issubclass(kind, (int, np.signedinteger)) and kind is not bool


def _as_int(value, name: str) -> int:
    """value as a Python int if _is_int allows its type; otherwise ValueError naming it."""
    if not _is_int(type(value)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


def _as_sigma(sigma) -> float:
    """The one rule for a noise width: an int or float, not a bool, positive and
    finite, as a float; anything else raises ValueError."""
    # the bound also rejects nan, inf and ints too large for a float
    if type(sigma) not in (int, float) or not 0 < sigma <= sys.float_info.max:
        raise ValueError(f"sigma must be a positive finite number, not {sigma!r:.40}")
    return float(sigma)


def _check_degree(d: int) -> None:
    """The one ring-degree rule, for Polynomial and BfvParams: a power of two, at least 2."""
    if d < 2 or d & (d - 1):
        raise ValueError(f"ring degree must be a power of two, at least 2, not {d}")


def _check_modulus(modulus: int) -> None:
    if type(modulus) is not int or not 2 <= modulus < (1 << _INT64_BUDGET):
        raise ValueError(f"modulus must be an int with 2 <= modulus < 2**62, not {modulus!r}")


def reduce_centered(value: int, modulus: int) -> int:
    """Return the residue of value mod modulus lying in [-modulus/2, modulus/2), as an int."""
    _check_modulus(modulus)
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
    1-D signed-integer ndarray or a list _int64_list takes in, its length d a
    power of two of at least 2 (_check_degree), and a scalar factor is an int or
    numpy signed integer, never a bool.  Anything else (floats, bools, unsigned
    or out-of-range values, tuples, None, other lengths) raises ValueError.
    """

    __slots__ = ("coeffs", "modulus")
    __array_ufunc__ = None  # so np.uint64(3) * p reaches __rmul__ and is refused

    def __init__(self, coeffs, modulus: int):
        _check_modulus(modulus)
        arr = _int64_list(coeffs) if isinstance(coeffs, list) else coeffs
        if not isinstance(arr, np.ndarray) or arr.dtype.kind != "i" or arr.ndim != 1:
            raise ValueError(f"coefficients must be a 1-D integer vector: {coeffs!r:.40}")
        _check_degree(arr.size)
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
        if not isinstance(text, str):
            raise ValueError(f"hex text must be a str, not {type(text).__name__}")
        nbytes = _hex_field_bytes(modulus)
        data = bytes.fromhex(text)
        # fromhex skips whitespace, so the length check also rejects it
        if 2 * len(data) != len(text) or len(data) % nbytes:
            raise ValueError(f"hex text must be whole fields of {2 * nbytes} hex digits")
        fields = np.frombuffer(data, dtype=np.uint8).reshape(-1, nbytes)
        wide = np.empty((fields.shape[0], 8), dtype=np.uint8)
        wide[:, : 8 - nbytes] = np.where(fields[:, :1] >= 0x80, 0xFF, 0)
        wide[:, 8 - nbytes :] = fields
        return cls(wide.view(">i8").ravel().astype(np.int64), modulus)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        # array_equal is False for arrays of different lengths
        return self.modulus == other.modulus and bool(np.array_equal(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        head = ", ".join(str(int(c)) for c in self.coeffs[:8])
        tail = ", ..." if self.d > 8 else ""
        return f"Polynomial(d={self.d}, modulus={self.modulus}, [{head}{tail}])"


def _hex_field_bytes(modulus: int) -> int:
    return ((modulus - 1).bit_length() + 7) // 8


def _roots(count: int) -> np.ndarray:
    """exp(2 pi i k / count) for k < count, count a power of two.

    cos and sin are evaluated on [0, pi/4] only; the rest of the circle is
    exact swaps and sign changes of those entries.
    """
    eighth = max(count // 8, 1)
    angle = np.pi / 4 * np.arange(eighth + 1) / eighth
    first = np.cos(angle) + 1j * np.sin(angle)
    quarter = np.concatenate((first, 1j * first[eighth - 1 : 0 : -1].conj()))
    return np.concatenate((quarter, 1j * quarter, -quarter, -1j * quarter))[:: 8 * eighth // count]


def _stage_plan(n: int) -> tuple[tuple[int, int], ...]:
    """The twiddled stages of a length-n transform, outermost first, as (radix, h).

    Each stage splits every block of radix * h values into radix rows of h,
    applies the radix-point DFT across the rows and multiplies row p by
    exp(2 pi i j p / (radix h)).  A leading stage of radix 2**(log2(n / m) mod
    3) takes what m-point stages cannot, m = min(n, 8); the rest are m-point
    stages, and every transform ends with the untwiddled m-point DFT on blocks
    of m, which is not listed.
    """
    m = min(n, _TABLE_DFT)
    passes = (n // m).bit_length() - 1  # log2(n / m) radix-2 passes in all
    lead = passes % 3
    first = ((1 << lead, n >> lead),) if lead else ()
    return first + tuple((m, n >> (lead + 3 * k)) for k in range(1, passes // 3 + 1))


@cache
def _transform_tables(n: int) -> tuple:
    """Every table the length-n transforms read, made once per length from _roots(n)
    entries: per _stage_plan stage its radix-point DFT table and (radix, h)
    twiddles, the last m-point DFT table, all of them conjugated for the
    inverse, and the twist theta**j and untwist theta**-j / n, theta = exp(i pi / 2n)."""
    roots = _roots(n)

    def powers(rows: int, cols: int, order: int) -> np.ndarray:
        """Entry (p, j) is exp(2 pi i p j / order), order dividing n."""
        return roots[np.outer(np.arange(rows), np.arange(cols)) % order * (n // order)]

    m = min(n, _TABLE_DFT)
    stages = tuple((powers(r, r, r), powers(r, h, r * h)) for r, h in _stage_plan(n))
    stages_conj = tuple((table.conj(), twiddles.conj()) for table, twiddles in stages)
    last = powers(m, m, m)
    twist = _roots(4 * n)[:n].copy()
    tables = stages, stages_conj, last, last.conj(), twist, twist.conj() / n
    for array in (*(a for stage in stages + stages_conj for a in stage), *tables[2:]):
        array.flags.writeable = False  # cached, so shared by every caller
    return tables


def _transform(v: np.ndarray, inverse: bool) -> np.ndarray:
    """The DFT of each row of v in one fixed permuted order, or (inverse) n times its inverse.

    Forward, decimation in frequency through the _stage_plan stages: each
    views blocks of r h as (r, h), makes one matmul with the r-point DFT table
    and multiplies entry (p, j) by exp(2 pi i j p / r h).  Then one matmul
    with the m-point table, m = min(n, 8), on blocks of m.  So output k1 + r k2
    of a block of r h sits in row k1 at the position of k2: the order is a
    mixed-radix digit reversal, and only the inverse reads it.  Inverse: every
    step undone in reverse order with the conjugate tables.  Neither direction
    writes to v.
    """
    rows, n = v.shape
    stages, stages_conj, last, last_conj = _transform_tables(n)[:4]
    m = last.shape[0]
    if inverse:
        v = v.reshape(-1, m) @ last_conj
        for table, twiddles in reversed(stages_conj):
            blocks = v.reshape(-1, *twiddles.shape)
            blocks *= twiddles
            v = np.matmul(table, blocks)
        return v.reshape(rows, n)
    for table, twiddles in stages:
        v = np.matmul(table, v.reshape(-1, *twiddles.shape))
        v *= twiddles
    return (v.reshape(-1, m) @ last).reshape(rows, n)


@cache
def _transform_error(n: int) -> float:
    """C(n): a product through length-n transforms errs by at most C(n) ||x||_2 ||y||_2.

    The terms are derived in _negacyclic_mul's docstring.  Each factor (1 + x)
    is summed as log1p(x), so no step subtracts 1 from a rounded product.
    """
    u, beta = _UNIT_ROUNDOFF, _TWIDDLE_ERROR
    mu = math.sqrt(2) * 2 * u / (1 - 2 * u)  # a complex product
    nu = math.log1p(beta) + math.log1p(mu)  # a product with a table entry

    def tau(r: int) -> float:  # an r-point table application
        gamma = 2 * r * u / (1 - 2 * r * u)
        return math.log1p(math.sqrt(r) * (beta + math.sqrt(2) * gamma * (1 + beta)))

    eta = sum(tau(r) + nu for r, _ in _stage_plan(n)) + tau(min(n, _TABLE_DFT))  # a transform
    kappa = eta + nu  # the twist and a forward transform
    inverse = math.log1p(math.sqrt(n) * math.expm1(eta))
    return math.expm1(nu + math.log1p(mu) + 2 * kappa + inverse)


@cache
def _limb_plan(bits_a: int, bits_b: int, d: int) -> tuple[int, int, int, int, int]:
    """Balanced limbs for a product of a bits_a-bit and a bits_b-bit operand, bits_a >= bits_b:
    (width_a, count_a, width_b, count_b, bound).

    Every output of a limb pair is an integer of at most bound = d * La * Lb, for
    La, Lb the largest limb values, and the kernel errs by at most
    C(n) * bound (_transform_error, n = d / 2); the plan keeps that
    below 1/2.  b keeps one limb when it is within the square root of the
    largest La * Lb this admits, and otherwise takes limbs within it; a then
    takes limbs within what is left.  An operand that does not fit in one limb
    gets the fewest that the widest admissible width needs, k, each as narrow
    as k allows: width ceil((bits + 1) / k), every limb at most 2**(width - 1)
    in magnitude.  So 53 bits beside a binary operand are two 27-bit limbs.
    """
    cap = math.ceil(0.5 / (d * _transform_error(d // 2))) - 1  # La * Lb <= cap

    def limbs(bits: int, limit: int) -> tuple[int, int, int]:  # (width, count, largest limb)
        if (1 << bits) - 1 <= limit:
            return bits, 1, (1 << bits) - 1
        count = -(-(bits + 1) // limit.bit_length())
        width = -(-(bits + 1) // count)
        return width, count, 1 << (width - 1)

    width_b, count_b, max_b = limbs(bits_b, math.isqrt(cap))
    width_a, count_a, max_a = limbs(bits_a, cap // max_b)
    return width_a, count_a, width_b, count_b, d * max_a * max_b


def _split_limbs(arr: np.ndarray, width: int, count: int) -> np.ndarray:
    """count balanced base-2**width limbs of arr, one row each, low first: arr is
    the sum of limb k * 2**(k * width), every limb but the top one in
    [-2**(width - 1), 2**(width - 1))."""
    limbs = np.empty((count, arr.size), dtype=np.int64)
    half, mask = 1 << (width - 1), (1 << width) - 1
    for k in range(count - 1):
        limbs[k] = ((arr + half) & mask) - half
        arr = (arr - limbs[k]) >> width
    limbs[count - 1] = arr
    return limbs


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

    The product runs over C.  Each operand splits into balanced limbs
    (_limb_plan, _split_limbs).  A limb row x of length d becomes the
    n = d/2 values X_j = (x_j + i x_{j+n}) theta**j, theta = exp(i pi / d):
    R[x]/(x^d + 1) is C[y]/(y^n - i), and y = theta z makes its product a
    cyclic convolution of length n (R. Crandall and B. Fagin, Math. Comp. 62,
    1994).  One forward _transform of every limb row, one pointwise product
    per limb pair, one inverse _transform, the untwist theta**-j / n and
    np.rint give each pair's negacyclic convolution as integers.  The pairs
    recombine mod m through _mul_divmod and _center, reduced first when the
    plan's bound reaches m: _mul_divmod needs |x| < m.

    Why np.rint is exact.  Binary64 rounds to nearest with unit roundoff
    u = 2**-53; gamma_k = k u / (1 - k u).  A complex sum errs by at most
    u |exact|, a complex product by mu |a| |b| with mu = sqrt(2) gamma_2
    (N. Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.5; its
    componentwise argument holds with an FMA too), and a table entry by
    beta = _TWIDDLE_ERROR, which a test proves entry by entry against
    40-digit values.  A product with a table entry then errs by
    nu = (1 + beta)(1 + mu) - 1 relative, and scaling by 1/n, a power of two,
    is exact.  Each step below is sqrt(r) or 1 times a unitary map, so
    errors carry through in the 2-norm as in C. Percival, Math. Comp. 72 (2003):
      - an r-point table application is a matmul; BLAS forms each real
        output from its 2r real products in any order, with or without FMA,
        within gamma_2r of their absolute sum, so, with the table's own
        error, it errs by tau_r = sqrt(r) (beta + sqrt(2) gamma_2r (1 + beta))
        relative, and a stage's twiddles add nu.  Every table entry, the
        2-point table's +-1 included, is a _roots(n) entry;
      - a transform through the twiddled stages of radix r (_stage_plan),
        then the last m-point DFT, errs by
        eta = prod_r ((1 + tau_r)(1 + nu)) (1 + tau_m) - 1, and the twist
        with it by kappa = (1 + eta)(1 + nu) - 1, against sqrt(n) ||x||_2.
    An output z_j = (1/n) sum_k P_k w**-jk takes the forward and pointwise
    errors through Cauchy-Schwarz, at most ((1 + mu)(1 + kappa)**2 - 1) ||x|| ||y||,
    and the inverse's own error in the 2-norm, at most eta ||P||_2 / sqrt(n) <=
    sqrt(n) eta (1 + mu)(1 + kappa)**2 ||x|| ||y|| for the computed products P;
    |z_j| <= ||x|| ||y||, and the untwist adds nu.  So each coefficient is off
    by at most
        C(n) ||x||_2 ||y||_2 <= C(n) d La Lb,
        C(n) = (1 + nu)(1 + mu)(1 + kappa)**2 (1 + sqrt(n) eta) - 1,
    which _limb_plan keeps below 1/2.  A sum that underflows is exact, and a
    product that underflows errs by at most 2**-1075, far inside that margin.
    At d = 2048 the radices are 2, 8 and 8, so C(1024) = 7983 u, and two
    27-bit limbs of a 53-bit operand times a binary one are off by at most
    2048 * 2**26 * C = 0.122; at d = 1024, 1024 * 2**26 * C(512) = 0.0412.
    """
    bits_a, bits_b = (int(np.abs(x).max()).bit_length() for x in (a, b))
    if bits_b > bits_a:  # the plan takes the wider operand first
        a, b, bits_a, bits_b = b, a, bits_b, bits_a
    d = int(a.size)
    n = d // 2
    width_a, count_a, width_b, count_b, bound = _limb_plan(bits_a, bits_b, d)
    limbs = np.concatenate((_split_limbs(a, width_a, count_a), _split_limbs(b, width_b, count_b)))
    twist, untwist = _transform_tables(n)[4:]
    spec = np.empty((limbs.shape[0], n), dtype=np.complex128)
    spec.real, spec.imag = limbs[:, :n], limbs[:, n:]
    spec *= twist
    spec = _transform(spec, inverse=False)
    pairs = (spec[:count_a, None] * spec[None, count_a:]).reshape(-1, n)
    out = _transform(pairs, inverse=True)
    out *= untwist
    parts = np.rint(out.view(np.float64)).reshape(-1, n, 2)  # (c_j, c_{j+n}) pairs
    conv = parts.transpose(0, 2, 1).astype(np.int64).reshape(-1, d)
    if bound >= modulus:
        conv = _divmod(conv, modulus)[1]
    acc = np.zeros(d, dtype=np.int64)
    for (i, j), row in zip(np.ndindex(count_a, count_b), conv):
        weight = pow(2, i * width_a + j * width_b, modulus)
        if weight != 1:
            row = _mul_divmod(row, weight, modulus)[1]
        acc = _center(acc + row, modulus)
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

    Every noise bound in the library is derived from this one.  It is
    exact: a float sigma is the ratio n/den of two integers, so the floor
    is 6*n // den, where int(6 * sigma) would round the product first
    (6 * (1/3) is 2.0).  sigma goes through _as_sigma.
    """
    n, den = _as_sigma(sigma).as_integer_ratio()
    return 6 * n // den


def sample_gaussian(
    d: int, modulus: int, sigma: float, rng: np.random.Generator
) -> Polynomial:
    """Discrete Gaussian coefficients via an inverse-CDF table.

    The support is cut at gaussian_tail(sigma); weights are proportional
    to exp(-x^2 / (2 sigma^2)) on the retained support.
    """
    tail = gaussian_tail(sigma)  # refuses a sigma that _as_sigma refuses
    support = np.arange(-tail, tail + 1, dtype=np.int64)
    weights = np.exp(-(support.astype(np.float64) ** 2) / (2.0 * sigma * sigma))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(_as_int(d, "d"))
    values = support[np.searchsorted(cdf, draws, side="right")]
    return Polynomial(values, modulus)
