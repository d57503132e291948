"""Textbook BFV over Z_q[x]/(x^d + 1): key generation, encryption,
decryption and the additive homomorphic operations.

The scheme is kept deliberately small and exact.  Only what the attack
experiments need is implemented: no relinearisation keys, no
ciphertext-ciphertext multiplication, no modulus switching.  Secret
keys and encryption randomness u are binary, noise is discrete
Gaussian, and decryption scales by t/q with round-half-away-from-zero.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .ring import (
    _INT64_BUDGET,
    Polynomial,
    _mul_divmod,
    gaussian_tail,
    sample_binary,
    sample_gaussian,
    sample_uniform,
)

__all__ = [
    "BfvParams",
    "PARAM_SETS",
    "get_params",
    "SecretKey",
    "PublicKey",
    "Ciphertext",
    "plaintext",
    "keygen",
    "encrypt",
    "decrypt",
    "decrypt_raw",
    "round_raw",
    "add",
    "sub_from_plain",
    "mul_plain",
    "check_decrypt_margin",
    "encrypt_zero_flood",
    "noise",
    "SCHEME_TAG",
    "secret_key_to_json",
    "secret_key_from_json",
    "public_key_to_json",
    "public_key_from_json",
    "ciphertext_to_json",
    "ciphertext_from_json",
]


@dataclass(frozen=True)
class BfvParams:
    """Scheme parameters: ring degree d, coefficient modulus q of
    Z_q[x] / (x^d + 1), plaintext modulus t, noise width sigma."""

    d: int
    q: int
    t: int
    sigma: float = 3.2

    def __post_init__(self) -> None:
        if self.d < 2 or self.d & (self.d - 1):
            raise ValueError("ring degree must be a power of two, at least 2")
        if not 2 <= self.q < (1 << _INT64_BUDGET):
            raise ValueError("coefficient modulus must satisfy 2 <= q < 2**62")
        if not 1 < self.t < self.q:
            raise ValueError("plaintext modulus must satisfy 1 < t < q")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")

    @property
    def delta(self) -> int:
        """Message scaling factor floor(q / t)."""
        return self.q // self.t


PARAM_SETS: dict[str, BfvParams] = {
    "cca-1024": BfvParams(d=1024, q=2**54, t=256),
    "bitleak-2048": BfvParams(d=2048, q=2**54, t=256),
    "psi-83": BfvParams(d=2048, q=2**54, t=83),
}


def get_params(name: str) -> BfvParams:
    try:
        return PARAM_SETS[name]
    except KeyError:
        known = ", ".join(sorted(PARAM_SETS))
        raise ValueError(f"unknown parameter set {name!r} (known: {known})") from None


@dataclass(frozen=True)
class SecretKey:
    """Binary secret polynomial s, stored mod q."""

    s: Polynomial

    def __post_init__(self) -> None:
        if ((self.s.coeffs != 0) & (self.s.coeffs != 1)).any():
            raise ValueError("secret key coefficients must be binary")


@dataclass(frozen=True)
class PublicKey:
    """Pair (pk0, pk1) = (-(a*s + e), a) mod q."""

    pk0: Polynomial
    pk1: Polynomial


@dataclass(frozen=True)
class Ciphertext:
    """Pair (c0, c1) of mod-q polynomials; decrypts via c0 + c1*s."""

    c0: Polynomial
    c1: Polynomial


def keygen(
    params: BfvParams, rng: np.random.Generator
) -> tuple[SecretKey, PublicKey]:
    """Sample a key pair.

    Draw order is s, a, e so that fixed-seed runs are reproducible:
        s binary, a uniform over Z_q, e discrete Gaussian,
        pk = (-(a*s + e), a).
    """
    s = sample_binary(params.d, params.q, rng)
    a = sample_uniform(params.d, params.q, rng)
    e = sample_gaussian(params.d, params.q, params.sigma, rng)
    pk0 = -(a * s + e)
    return SecretKey(s), PublicKey(pk0, a)


def plaintext(values: list, params: BfvParams) -> Polynomial:
    """The message mod t from a list of at most d integers, zero-padded to d.

    Each value v must satisfy -(t // 2) <= v < t; one of t // 2 or more
    reads as v - t, so t - 1 is -1.  Any other value raises ValueError.
    """
    coeffs = _coeff_array(values)
    if coeffs.size > params.d:
        raise ValueError("too many plaintext coefficients for the ring degree")
    low, t = -(params.t // 2), params.t
    if ((coeffs < low) | (coeffs >= t)).any():
        raise ValueError(f"plaintext coefficients must lie in [{low}, {t}) for t = {t}")
    return Polynomial(np.pad(coeffs, (0, params.d - coeffs.size)), params.t)


def _lift(m: Polynomial, params: BfvParams) -> Polynomial:
    """The message m, a polynomial mod t, re-centered mod q; any other modulus raises ValueError."""
    if m.modulus != params.t:
        raise ValueError(f"message modulus {m.modulus} is not the plaintext modulus t = {params.t}")
    return m.with_modulus(params.q)


def encrypt(
    pk: PublicKey, m: Polynomial, params: BfvParams, rng: np.random.Generator
) -> Ciphertext:
    """Encrypt the message m (mod t) under pk.

    Draw order is u, e1, e2.  The ciphertext is
        c0 = pk0*u + e1 + delta*m,  c1 = pk1*u + e2  (mod q)
    with delta = floor(q/t), so its noise is e1 + e2*s - e*u.
    """
    u = sample_binary(params.d, params.q, rng)
    e1 = sample_gaussian(params.d, params.q, params.sigma, rng)
    e2 = sample_gaussian(params.d, params.q, params.sigma, rng)
    c0 = pk.pk0 * u + e1 + _lift(m, params) * params.delta
    c1 = pk.pk1 * u + e2
    return Ciphertext(c0, c1)


def decrypt_raw(sk: SecretKey, ct: Ciphertext) -> Polynomial:
    """The pre-rounding value [c0 + c1*s]_q, i.e. delta*m + noise."""
    return ct.c0 + ct.c1 * sk.s


def decrypt(sk: SecretKey, ct: Ciphertext, params: BfvParams) -> Polynomial:
    """Decrypt to the message mod t: round_raw of decrypt_raw."""
    return round_raw(decrypt_raw(sk, ct), params)


def round_raw(raw: Polynomial, params: BfvParams) -> Polynomial:
    """Scale a raw decryption [c0 + c1*s]_q by t/q, round half away from zero, reduce mod t."""
    quo, rem = _mul_divmod(raw.coeffs, params.t, params.q)
    # quo is the floor: a tie rounds up when raw >= 0 and down when raw < 0
    return Polynomial(quo + (2 * rem >= params.q + (raw.coeffs < 0)), params.t)


def add(ct1: Ciphertext, ct2: Ciphertext) -> Ciphertext:
    """Homomorphic addition: componentwise sum mod q."""
    return Ciphertext(ct1.c0 + ct2.c0, ct1.c1 + ct2.c1)


def sub_from_plain(m: Polynomial, ct: Ciphertext, params: BfvParams) -> Ciphertext:
    """Encrypt the message m minus the message of ct: (delta*m - c0, -c1)."""
    return Ciphertext(_lift(m, params) * params.delta - ct.c0, -ct.c1)


def mul_plain(ct: Ciphertext, r: Polynomial, params: BfvParams) -> Ciphertext:
    """Multiply the encrypted message by the message r: (r*c0, r*c1)."""
    r_q = _lift(r, params)
    return Ciphertext(r_q * ct.c0, r_q * ct.c1)


def check_decrypt_margin(
    noise: int, params: BfvParams, name: str, error: type[Exception] = ValueError
) -> None:
    """Raise `error` unless every noise v with |v| <= noise decrypts correctly
    under every centered message m: unless 2t*noise + t*(q mod t) < q.

    As q = t*delta + (q mod t), decryption rounds t*(delta*m + v)/q =
    m + (t*v - (q mod t)*m)/q, and for |m| <= t/2 that error stays below 1/2.
    """
    t, q = params.t, params.q
    lhs = 2 * t * noise + t * (q % t)
    if lhs >= q:
        raise error(
            f"{name} = {noise} misses the decrypt margin: "
            f"2t*{noise} + t*(q mod t) = {lhs} >= q = {q}"
        )


def encrypt_zero_flood(
    pk: PublicKey, params: BfvParams, flood_bound: int, rng: np.random.Generator
) -> Ciphertext:
    """Encryption of zero whose c0-noise is uniform on [-flood_bound, flood_bound].

    Adding this to a ciphertext drowns the structured evaluation noise
    that the circuit-privacy attack relies on.  Its whole noise
    flood - e*u + e2*s stays within flood_bound + 2d*tail, and a bound
    whose total misses the decrypt margin raises ValueError.
    """
    if flood_bound < 0:
        raise ValueError("flood_bound must be non-negative")
    tail = gaussian_tail(params.sigma)
    check_decrypt_margin(flood_bound + 2 * params.d * tail, params, "flood_bound + 2d*tail")
    u = sample_binary(params.d, params.q, rng)
    flood = rng.integers(-flood_bound, flood_bound + 1, size=params.d, dtype=np.int64)
    e2 = sample_gaussian(params.d, params.q, params.sigma, rng)
    c0 = pk.pk0 * u + Polynomial(flood, params.q)
    c1 = pk.pk1 * u + e2
    return Ciphertext(c0, c1)


def noise(
    sk: SecretKey, ct: Ciphertext, expected_m: Polynomial, params: BfvParams
) -> Polynomial:
    """The noise [c0 + c1*s - delta*expected_m]_q of ct as an encryption of expected_m."""
    return decrypt_raw(sk, ct) - _lift(expected_m, params) * params.delta


# ---------------------------------------------------------------------------
# JSON forms.  Every object embeds the parameters it was made with, so a
# file is self-describing:
#   {"scheme": "bfv-toy", "d": ..., "q": ..., "t": ..., "sigma": ...,
#    "payload": [[coeffs], ...]}

SCHEME_TAG = "bfv-toy"


def _header(params: BfvParams) -> dict:
    return {"scheme": SCHEME_TAG, **asdict(params)}


def _params_from_header(obj: dict) -> BfvParams:
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object")
    if obj.get("scheme") != SCHEME_TAG:
        raise ValueError(f"unsupported scheme tag {obj.get('scheme')!r}")
    try:
        d, q, t, sigma = obj["d"], obj["q"], obj["t"], obj["sigma"]
    except KeyError as missing:
        raise ValueError(f"missing field {missing} in serialized object") from None
    for name, value in (("d", d), ("q", q), ("t", t)):
        if type(value) is not int:
            raise ValueError(f"field {name!r} must be an integer, not {value!r}")
    # the bound also rejects nan, inf and ints too large for a float
    if type(sigma) not in (int, float) or not abs(sigma) <= sys.float_info.max:
        raise ValueError(f"field 'sigma' must be a finite number, not {sigma!r}")
    return BfvParams(d=d, q=q, t=t, sigma=float(sigma))


def _coeff_array(values) -> np.ndarray:
    """The one intake of JSON coefficient lists: int elements (not bools) within int64."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise ValueError("coefficients must be a JSON array of integers")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValueError("coefficients must fit in int64") from None


def _to_json(obj, params: BfvParams) -> dict:
    """Header plus one coefficient list per field of a key or ciphertext."""
    payload = [getattr(obj, f.name).to_coeff_list() for f in fields(obj)]
    return {**_header(params), "payload": payload}


def _from_json(cls, obj: dict):
    """Inverse of _to_json for the dataclass `cls`, whose fields are mod q."""
    params = _params_from_header(obj)
    allowed = {*_header(params), "payload"}
    unknown = [key for key in obj if key not in allowed]
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r} in serialized object")
    count = len(fields(cls))
    payload = obj.get("payload")
    if not isinstance(payload, list) or len(payload) != count:
        raise ValueError(f"payload must hold exactly {count} coefficient vectors")
    vectors = [_coeff_array(values) for values in payload]
    if any(v.size != params.d for v in vectors):
        raise ValueError("payload vectors must match the ring degree")
    return cls(*(Polynomial(v, params.q) for v in vectors)), params


def secret_key_to_json(sk: SecretKey, params: BfvParams) -> dict:
    return _to_json(sk, params)


def secret_key_from_json(obj: dict) -> tuple[SecretKey, BfvParams]:
    return _from_json(SecretKey, obj)


def public_key_to_json(pk: PublicKey, params: BfvParams) -> dict:
    return _to_json(pk, params)


def public_key_from_json(obj: dict) -> tuple[PublicKey, BfvParams]:
    return _from_json(PublicKey, obj)


def ciphertext_to_json(ct: Ciphertext, params: BfvParams) -> dict:
    return _to_json(ct, params)


def ciphertext_from_json(obj: dict) -> tuple[Ciphertext, BfvParams]:
    return _from_json(Ciphertext, obj)
