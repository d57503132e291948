"""Attacks against the toy BFV scheme.

Four experiments, each with the oracle or side information it needs:

* cca_one_query        - a single chosen ciphertext through a full
                         decryption oracle returns the secret key.
* bit_leak_attack      - d chosen ciphertexts through a decrypts-to-zero
                         oracle recover the key one bit per query.
* circuit_privacy_recover - the encryptor of c_a, reading its noise with
                         her key, reads Bob's scalar r and input m_b
                         out of r*(m_b - c_a) because plain evaluation
                         adds no fresh noise.
* run_encoder_leak_demo - homomorphic sums of integer-encoded inputs
                         decrypt to coefficient vectors that reveal more
                         than the encoded sum.

Each run_* harness generates its own ground truth, executes the attack
through a counting oracle and returns an AttackReport.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import bfv
from .bfv import BfvParams, Ciphertext, PublicKey, SecretKey
from .encoders import integer_decode, integer_encode
from .ring import Polynomial, _as_int, gaussian_tail, monomial, reduce_centered

__all__ = [
    "AttackError",
    "InsufficientNoiseStructureError",
    "FloodedOrMalformedError",
    "DecryptionOracle",
    "ZeroCheckOracle",
    "AttackReport",
    "cca_one_query",
    "bit_leak_offset",
    "bit_leak_probe",
    "bit_leak_attack",
    "random_multiplier",
    "bob_reply",
    "evaluation_noise",
    "circuit_privacy_recover",
    "run_cca_attack",
    "run_bit_leak_attack",
    "run_circuit_privacy_attack",
    "run_encoder_leak_demo",
]


class AttackError(RuntimeError):
    """An attack could not complete against the given oracle or inputs."""


class InsufficientNoiseStructureError(AttackError):
    """The known evaluation noise has no usable nonzero non-constant coefficient."""


class FloodedOrMalformedError(AttackError):
    """The response is inconsistent with noise-free plain evaluation.

    Raised when the exact divisions or the final re-derivation fail,
    which is what noise flooding (or a malformed response) produces.
    """


class DecryptionOracle:
    """Decryption oracle that counts its queries."""

    def __init__(self, fn: Callable[[Ciphertext], Polynomial]):
        self._fn = fn
        self.calls = 0

    def __call__(self, ct: Ciphertext) -> Polynomial:
        self.calls += 1
        return self._fn(ct)

    @classmethod
    def honest(cls, sk: SecretKey, params: BfvParams) -> "DecryptionOracle":
        """Decrypt with sk; params other than sk's raise ValueError."""
        bfv.same_params(sk, params)
        return cls(lambda ct: bfv.decrypt(sk, ct))


class ZeroCheckOracle(DecryptionOracle):
    """Decrypts-to-zero oracle: a DecryptionOracle whose answer is a bool."""

    @classmethod
    def honest(cls, sk: SecretKey, params: BfvParams) -> "ZeroCheckOracle":
        bfv.same_params(sk, params)
        return cls(lambda ct: bfv.decrypt(sk, ct).is_zero())


def cca_one_query(oracle: DecryptionOracle, params: BfvParams) -> SecretKey:
    """Recover the secret key with a single decryption query.

    The chosen ciphertext (0, delta) decrypts to round(delta*s * t/q)
    = s coefficient-wise, so the oracle's answer is the key.  The
    answer is read mod t, which also covers t = 2 where the centered
    representative of 1 is -1.
    """
    probe = Ciphertext(
        monomial(0, 0, params.d, params.q), monomial(0, params.delta, params.d, params.q), params
    )
    bits = oracle(probe).coeffs % params.t
    if (bits > 1).any():
        raise AttackError(
            "oracle answer has coefficients outside {0, 1}; "
            "not an honest decryption of (0, delta)"
        )
    return SecretKey(Polynomial(bits, params.q), params)


def bit_leak_offset(params: BfvParams) -> int:
    """The probe amplitude M = floor(delta/4) + tail + 1 used by bit_leak_probe.

    tail = gaussian_tail(sigma) bounds every |e_j| of the key relation.
    Raises AttackError, before any probe is built, unless M + tail is
    within the decrypt margin.
    """
    tail = gaussian_tail(params.sigma)
    m_val = params.delta // 4 + tail + 1
    bfv.check_decrypt_margin(m_val + tail, params, "probe amplitude M + tail", AttackError)
    return m_val


def bit_leak_probe(pk: PublicKey, index: int, params: BfvParams) -> Ciphertext:
    """Chosen ciphertext whose decryption is zero exactly when s_index = 0.

    With M = bit_leak_offset(params) the probe (pk0 + M*x^index, pk1 + M)
    satisfies c0 + c1*s = -e + M*x^index + M*s.  Every coefficient but
    the target is -e_j + M*s_j, and the target is M - e_index when
    s_index = 0: all have |v| <= M + tail, within the decrypt margin, so
    they decrypt to zero.  When s_index = 1 the target is
    2M - e_index >= delta/2 + tail + 1/2, so 2t*(2M - e_index) > q and it
    rounds to 1.  params other than pk's raise ValueError.
    """
    bfv.same_params(pk, params)
    m_val = bit_leak_offset(params)
    c0 = pk.pk0 + monomial(index, m_val, params.d, params.q)
    c1 = pk.pk1 + monomial(0, m_val, params.d, params.q)
    return Ciphertext(c0, c1, params)


def bit_leak_attack(oracle: ZeroCheckOracle, pk: PublicKey, params: BfvParams) -> SecretKey:
    """Recover all d key bits with exactly d zero-check queries; params
    other than pk's raise ValueError at the first probe, before any query."""
    bits = []
    for index in range(params.d):
        decrypts_to_zero = oracle(bit_leak_probe(pk, index, params))
        bits.append(0 if decrypts_to_zero else 1)
    return SecretKey(Polynomial(bits, params.q), params)


def random_multiplier(params: BfvParams, rng: np.random.Generator) -> int:
    """Bob's blinding scalar r: uniform over the centered units mod t.

    A nonzero r is not enough: when gcd(r, t) > 1, r*(m_b - m_a) is 0 mod t
    for some m_b != m_a (an even r times t/2, at an even t), so unequal
    inputs answer Equal and the recovered m_b is ambiguous.  Draws from
    [1, t) repeat until one is a unit; at a prime t the first one is.
    """
    r = int(rng.integers(1, params.t))
    while math.gcd(r, params.t) != 1:
        r = int(rng.integers(1, params.t))
    return reduce_centered(r, params.t)


def bob_reply(
    c_a: Ciphertext,
    m_b: Polynomial,
    r: Polynomial,
    pk: PublicKey,
    rng: np.random.Generator,
    flood_bound: Optional[int] = None,
) -> Ciphertext:
    """Bob's equality-protocol reply r*(m_b - c_a), computed with plain
    operations only, so it keeps Alice's encryption noise scaled by r, plus
    an encryption of zero under pk with uniform noise on [-flood_bound,
    flood_bound] when a bound is given.  A c_a and pk with different
    parameters raise ValueError, and so does a bound that is not an integer
    or whose reply_noise_bound plus flood_noise_bound (bfv) misses the
    decrypt margin, before any draw.
    """
    params = bfv.same_params(c_a, pk)
    reply = bfv.mul_plain(bfv.sub_from_plain(m_b, c_a), r)
    if flood_bound is None:
        return reply
    flood_bound = _as_int(flood_bound, "flood_bound")
    r_norm = int(np.abs(r.coeffs).sum())
    worst = bfv.reply_noise_bound(params, r_norm) + bfv.flood_noise_bound(params, flood_bound)
    bfv.check_decrypt_margin(worst, params, "flooded reply noise")
    return bfv.add(reply, bfv.encrypt_zero_flood(pk, flood_bound, rng))


def evaluation_noise(sk: SecretKey, c_a: Ciphertext, m_a: Polynomial) -> Polynomial:
    """The noise n = [c0 + c1*s - delta*m_a]_q of Alice's query c_a.

    Her key alone reads it; for a fresh encryption it equals
    e1 + e2*s - e*u, but she needs none of that randomness.
    """
    return bfv.noise(sk, c_a, m_a)


def circuit_privacy_recover(
    sk: SecretKey, c_a: Ciphertext, m_a: Polynomial, c_ab: Ciphertext
) -> tuple[Polynomial, Polynomial]:
    """Recover Bob's scalar multiplier r and scalar input m_b from c_ab.

    Assumes c_ab is an unflooded bob_reply, r * (m_b - c_a) computed
    with plain operations only, where c_a is Alice's encryption of the
    scalar m_a.  Then [c_ab0 + c_ab1*s]_q = [r*(delta*(m_b - m_a) - n)]_q
    with n = evaluation_noise(sk, c_a, m_a), which Alice reads
    with her key.  Nothing is rounded: r ranges over the nonzero centered
    residues mod t and must give -r*n on the first nonzero non-constant
    coefficient of n, then on the whole non-constant tail; m_b ranges
    over the centered residues mod t and must give the constant
    coefficient.  Both are linear congruences mod q, solved rather
    than scanned, so scaled noise that wraps mod q is still read exactly.  Raises
    FloodedOrMalformedError unless exactly one pair (r, m_b) reproduces
    the response (noise flooding, or inputs the response cannot tell
    apart), InsufficientNoiseStructureError when n has no nonzero
    non-constant coefficient, and ValueError when the key and
    ciphertexts have different parameters.
    """
    if m_a.coeffs[1:].any():
        raise ValueError("recovery assumes a scalar (constant) message m_a")
    params = bfv.same_params(sk, c_a, c_ab)
    noise = evaluation_noise(sk, c_a, m_a)
    raw = bfv.decrypt_raw(sk, c_ab).coeffs
    pairs = _reply_pairs(noise, raw, int(m_a.coeffs[0]), params)
    if len(pairs) != 1:
        raise FloodedOrMalformedError(
            f"{len(pairs)} scalar pairs (r, m_b) reproduce the response exactly, not one"
        )
    [(r_value, m_b_value)] = pairs
    d, t = params.d, params.t
    return monomial(0, r_value, d, t), monomial(0, m_b_value, d, t)


def _reply_pairs(
    noise: Polynomial, raw: np.ndarray, m_a_value: int, params: BfvParams
) -> list[tuple[int, int]]:
    """Every scalar pair (r, m_b) with r*(delta*(m_b - m_a) - noise) = raw mod q.

    r solves r*n_j = -raw_j at the first nonzero non-constant coefficient j
    and must give the whole tail; m_b solves r*delta*m_b = raw_0 +
    r*(delta*m_a + n_0), the full integer product plain evaluation computes.
    """
    t, q, delta = params.t, params.q, params.delta
    nonzero = np.flatnonzero(noise.coeffs[1:])
    if not nonzero.size:
        raise InsufficientNoiseStructureError(
            "evaluation noise has no nonzero non-constant coefficient"
        )
    j = int(nonzero[0]) + 1
    r_values = [
        r
        for r in _centered_solutions(int(noise.coeffs[j]), -int(raw[j]), q, t)
        if r and np.array_equal((noise * -r).coeffs[1:], raw[1:])
    ]
    if not r_values:
        raise FloodedOrMalformedError(
            f"response tail is not -r times the known noise for any nonzero scalar r mod {t}"
        )
    noise_0, raw_0 = int(noise.coeffs[0]), int(raw[0])
    return [
        (r, m_b)
        for r in r_values
        for m_b in _centered_solutions(r * delta, raw_0 + r * (delta * m_a_value + noise_0), q, t)
    ]


def _centered_solutions(a: int, b: int, modulus: int, t: int) -> range:
    """Every x in [-(t // 2), (t + 1) // 2) with a*x = b (mod modulus).

    With g = gcd(a, modulus) there is none unless g divides b; otherwise
    the solutions are one residue class mod modulus // g.
    """
    g = math.gcd(a, modulus)
    if b % g:
        return range(0)
    step = modulus // g
    first = b // g * pow(a // g, -1, step)
    low = -(t // 2)
    return range(low + (first - low) % step, (t + 1) // 2, step)


@dataclass
class AttackReport:
    """Outcome of one attack run: what was recovered, at what query cost."""

    attack: str
    parameter_set: dict
    oracle_calls: int
    recovered: dict
    success: bool
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def _describe_params(params: BfvParams) -> dict:
    """The parameters, with the name of the bfv.PARAM_SETS entry they equal, if any."""
    name = next((name for name, known in bfv.PARAM_SETS.items() if known == params), None)
    return asdict(params) if name is None else {**asdict(params), "name": name}


def run_cca_attack(params: BfvParams, rng: np.random.Generator) -> AttackReport:
    """Generate a key pair, run the one-query recovery, compare to ground truth."""
    sk, _pk = bfv.keygen(params, rng)
    oracle = DecryptionOracle.honest(sk, params)
    recovered = cca_one_query(oracle, params)
    return AttackReport(
        attack="cca-one-query",
        parameter_set=_describe_params(params),
        oracle_calls=oracle.calls,
        recovered={"secret_key": recovered.s.to_hex()},
        success=recovered.s == sk.s and oracle.calls == 1,
        details={"key_bits": params.d},
    )


def run_bit_leak_attack(params: BfvParams, rng: np.random.Generator) -> AttackReport:
    """Generate a key pair, recover it through a zero-check oracle bit by bit."""
    sk, pk = bfv.keygen(params, rng)
    oracle = ZeroCheckOracle.honest(sk, params)
    recovered = bit_leak_attack(oracle, pk, params)
    return AttackReport(
        attack="bit-leak",
        parameter_set=_describe_params(params),
        oracle_calls=oracle.calls,
        recovered={"secret_key": recovered.s.to_hex()},
        success=recovered.s == sk.s and oracle.calls == params.d,
        details={"key_bits": params.d, "queries_per_bit": 1},
    )


def run_circuit_privacy_attack(
    params: BfvParams,
    rng: np.random.Generator,
    flood_bound: Optional[int] = None,
    trials: int = 1,
) -> AttackReport:
    """Play both sides of the scalar product r*(m_b - c_a) and try the recovery.

    Each trial draws a fresh key pair, fresh scalars m_a, m_b and a fresh
    unit multiplier r (random_multiplier).  Without flooding the recovery
    must return the exact (r, m_b); with flooding it is expected to fail,
    and the report counts blocked trials.  Decryption correctness of the
    (possibly flooded) response is checked in every trial.
    """
    trials = _as_int(trials, "trials")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    recoveries = 0
    blocked = 0
    correctness_failures = 0
    last_recovered: dict = {}
    for _ in range(trials):
        sk, pk = bfv.keygen(params, rng)
        m_a_value = reduce_centered(rng.integers(0, params.t), params.t)  # uniform mod t
        m_b_value = (
            m_a_value if rng.random() < 0.5 else reduce_centered(rng.integers(0, params.t), params.t)
        )
        r_value = random_multiplier(params, rng)
        m_a = monomial(0, m_a_value, params.d, params.t)
        m_b = monomial(0, m_b_value, params.d, params.t)
        c_a = bfv.encrypt(pk, m_a, rng)
        r = monomial(0, r_value, params.d, params.t)
        response = bob_reply(c_a, m_b, r, pk, rng, flood_bound)

        # The response must still decrypt to r*(m_b - m_a) regardless of flooding.
        expected = reduce_centered(r_value * (m_b_value - m_a_value), params.t)
        raw = bfv.decrypt_raw(sk, response)
        if bfv.round_raw(raw, params) != monomial(0, expected, params.d, params.t):
            correctness_failures += 1

        # (raw, 0) has the response's raw decryption, so recovery needs no second c1*s
        trivial = Ciphertext(raw, monomial(0, 0, params.d, params.q), params)
        try:
            r_rec, m_b_rec = circuit_privacy_recover(sk, c_a, m_a, trivial)
        except AttackError:
            blocked += 1
            continue
        if r_rec == r and m_b_rec == m_b:
            recoveries += 1
            last_recovered = {"r": r_rec.to_hex(), "m_b": m_b_rec.to_hex()}
    success = recoveries == trials and correctness_failures == 0
    return AttackReport(
        attack="circuit-privacy",
        parameter_set=_describe_params(params),
        oracle_calls=0,
        recovered=last_recovered,
        success=success,
        details={
            "trials": trials,
            "recoveries": recoveries,
            "blocked": blocked,
            "correctness_failures": correctness_failures,
            "flood_bound": flood_bound,
        },
    )


def run_encoder_leak_demo(params: BfvParams, rng: np.random.Generator) -> AttackReport:
    """Millionaires'-style sums for the input pairs (1, 3) and (2, 2).

    Both pairs sum to 4, yet the decrypted polynomials differ (x + 2
    versus 2x), so the key holder learns more than the sum.  The report's
    details["pairs"] holds one record per pair with the decrypted
    polynomial and its decode.
    """
    records = []
    for pair in ((1, 3), (2, 2)):
        sk, pk = bfv.keygen(params, rng)
        ct_sum = None
        for value in pair:
            ct = bfv.encrypt(pk, integer_encode(value, params), rng)
            ct_sum = ct if ct_sum is None else bfv.add(ct_sum, ct)
        decrypted = bfv.decrypt(sk, ct_sum)
        records.append(
            {
                "inputs": list(pair),
                "decrypted_hex": decrypted.to_hex(),
                "decrypted_coeffs_head": decrypted.to_coeff_list()[:4],
                "decoded": integer_decode(decrypted),
            }
        )
    first, second = records
    polynomials_differ = first["decrypted_hex"] != second["decrypted_hex"]
    decodes_agree = first["decoded"] == second["decoded"]
    return AttackReport(
        attack="encoder-leak",
        parameter_set=_describe_params(params),
        oracle_calls=0,
        recovered={
            "sum_of_1_3": first["decrypted_hex"],
            "sum_of_2_2": second["decrypted_hex"],
        },
        success=polynomials_differ and decodes_agree,
        details={
            "pairs": records,
            "polynomials_differ": polynomials_differ,
            "decodes_agree": decodes_agree,
        },
    )
