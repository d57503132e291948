"""Scheme-level behavior: parameters, key relations, noise identities,
roundtrips, homomorphic operations, flooding, serialization."""

import itertools
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import bfvlab.bfv as bfv
from bfvlab import (
    BfvParams,
    Ciphertext,
    PARAM_SETS,
    Polynomial,
    PublicKey,
    SecretKey,
    attacks,
    gaussian_tail,
    get_params,
    integer_encode,
    monomial,
    psi,
    reduce_centered,
    sample_gaussian,
)
from bfvlab.ring import _center

from conftest import encrypt_draws, make_rng
from oracles import center_mod, round_ratio_oracle

GAUSS_TAIL = 19  # floor(6 * 3.2)


# --- parameters -----------------------------------------------------------------


def test_named_parameter_sets_are_exact():
    assert set(PARAM_SETS) == {"cca-1024", "bitleak-2048", "psi-83"}
    p1 = get_params("cca-1024")
    assert (p1.d, p1.q, p1.t, p1.sigma) == (1024, 2**54, 256, 3.2)
    p2 = get_params("bitleak-2048")
    assert (p2.d, p2.q, p2.t, p2.sigma) == (2048, 2**54, 256, 3.2)
    p3 = get_params("psi-83")
    assert (p3.d, p3.q, p3.t, p3.sigma) == (2048, 2**54, 83, 3.2)
    with pytest.raises(ValueError):
        get_params("nope")


def test_delta():
    assert get_params("cca-1024").delta == 2**46
    assert get_params("bitleak-2048").delta == 2**46
    assert get_params("psi-83").delta == 2**54 // 83


def test_params_validation():
    for t in (1, 97):
        with pytest.raises(ValueError, match="plaintext modulus"):
            BfvParams(d=8, q=97, t=t)
    # True used to be accepted and written as "sigma": true, which no loader
    # reads back; np.float32(3.2) was kept as a numpy scalar; 10**400 and "3"
    # raised OverflowError and TypeError
    for sigma in (-1.0, 0, float("nan"), float("inf"), True, np.float32(3.2), 10**400, "3"):
        with pytest.raises(ValueError, match="sigma must be a positive finite number"):
            BfvParams(d=8, q=97, t=4, sigma=sigma)
    # an int sigma is kept as a float
    assert type(BfvParams(d=8, q=97, t=4, sigma=3).sigma) is float
    # d, q and t are exactly ints: t = 16.0 used to give a float delta
    for field, value in (("t", 16.0), ("q", 2.0**30), ("d", 8.0), ("t", np.int64(16)), ("d", True)):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            BfvParams(**{"d": 8, "q": 2**30, "t": 16, field: value})


# --- key generation ----------------------------------------------------------------


def test_keygen_public_key_relation(small_params):
    sk, pk = bfv.keygen(small_params, make_rng(1))
    assert set(sk.s.to_coeff_list()) <= {0, 1}
    e = -(pk.pk0 + pk.pk1 * sk.s)
    assert 0 < e.max_abs() <= GAUSS_TAIL


def test_keygen_is_deterministic_per_seed(small_params):
    sk1, pk1 = bfv.keygen(small_params, make_rng(5))
    sk2, pk2 = bfv.keygen(small_params, make_rng(5))
    sk3, _ = bfv.keygen(small_params, make_rng(6))
    assert sk1.s == sk2.s and pk1.pk0 == pk2.pk0 and pk1.pk1 == pk2.pk1
    assert sk1.s != sk3.s


def test_secret_key_rejects_non_binary():
    with pytest.raises(ValueError):
        SecretKey(Polynomial([0, 1, 2, 0], 97), BfvParams(d=4, q=97, t=2))


@pytest.mark.parametrize("cls", [SecretKey, PublicKey, Ciphertext])
@pytest.mark.parametrize(
    "d,q,match",
    [(8, 97, "degree 8 .* d = 4"), (4, 101, "modulus 101, not .* q = 97")],
    ids=["degree", "modulus"],
)
def test_keys_and_ciphertexts_refuse_polynomials_outside_their_ring(cls, d, q, match):
    params = BfvParams(d=4, q=97, t=2)
    count = len(fields(cls)) - 1
    with pytest.raises(ValueError, match=match):
        cls(*[monomial(0, 0, d, q)] * count, params)
    cls(*[monomial(0, 0, 4, 97)] * count, params)


# --- encryption / decryption ---------------------------------------------------------


def test_roundtrip_random_plaintexts(small_params):
    rng = make_rng(7)
    sk, pk = bfv.keygen(small_params, rng)
    t, d = small_params.t, small_params.d
    for _ in range(100):
        m = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        ct = bfv.encrypt(pk, m, rng)
        assert bfv.decrypt(sk, ct) == m


@pytest.mark.parametrize("name", ["cca-1024", "bitleak-2048", "psi-83"])
def test_roundtrip_at_named_sets(name):
    params = get_params(name)
    rng = make_rng(sum(name.encode()))
    sk, pk = bfv.keygen(params, rng)
    for _ in range(10):
        m = Polynomial(rng.integers(0, params.t, params.d, dtype=np.int64), params.t)
        ct = bfv.encrypt(pk, m, rng)
        assert bfv.decrypt(sk, ct) == m


def test_noise_respects_componentwise_bound(small_params):
    rng = make_rng(9)
    sk, pk = bfv.keygen(small_params, rng)
    e = -(pk.pk0 + pk.pk1 * sk.s)
    d, t = small_params.d, small_params.t
    for _ in range(20):
        m = monomial(0, int(rng.integers(0, t)), d, t)
        u, e1, e2 = encrypt_draws(small_params, rng)
        ct = bfv.encrypt(pk, m, rng)
        bound = (e * u).max_abs() + e1.max_abs() + (e2 * sk.s).max_abs()
        assert bfv.noise(sk, ct, m).max_abs() <= bound


def test_fresh_noise_below_parameter_bound():
    params = get_params("bitleak-2048")
    rng = make_rng(10)
    sk, pk = bfv.keygen(params, rng)
    m = monomial(0, 3, params.d, params.t)
    ct = bfv.encrypt(pk, m, rng)
    assert bfv.noise(sk, ct, m).max_abs() <= GAUSS_TAIL * (2 * params.d + 1)


@pytest.mark.parametrize(
    "q,t",
    [
        (3, 2),
        (97, 2),
        (97, 96),
        (2**30, 256),
        (2**30 - 35, 83),
        (2**54, 256),
        (2**54, 83),
        (2**62 - 57, 2**40 + 1),
        (2**62 - 1, 2**62 - 2),
    ],
)
def test_decrypt_is_rounding_of_raw(q, t):
    # A ciphertext (c0, 0) has raw decryption c0 under any key, so the raw
    # values are chosen: +-(q//2), both sides of every tie (q/(2t) an
    # integer) that fits, and uniform draws.
    d = 64
    params = BfvParams(d=d, q=q, t=t)
    sk = SecretKey(monomial(0, 0, d, q), params)
    chosen = [q // 2, -(q // 2), 0, 1, -1]
    if q % (2 * t) == 0:
        tie = q // (2 * t)
        for k in (1, 3, t - 1):
            if k % 2 and k * tie <= q // 2:
                chosen += [sign * (k * tie + e) for sign in (1, -1) for e in (-1, 0, 1)]
    rng = make_rng(11)
    for _ in range(20):
        drawn = rng.integers(-(q // 2), (q + 1) // 2, d - len(chosen), dtype=np.int64)
        raw = chosen + [int(x) for x in drawn]
        ct = Ciphertext(Polynomial(raw, q), monomial(0, 0, d, q), params)
        expected = [center_mod(round_ratio_oracle(center_mod(c, q) * t, q), t) for c in raw]
        assert bfv.decrypt(sk, ct).to_coeff_list() == expected


def test_decrypt_noiseless_ciphertexts(small_params):
    # (delta*m, 0) decrypts to m; (0, delta) decrypts to the key itself.
    rng = make_rng(12)
    sk, _ = bfv.keygen(small_params, rng)
    d, q, t, delta = (
        small_params.d,
        small_params.q,
        small_params.t,
        small_params.delta,
    )
    m = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
    ct = Ciphertext(Polynomial(m.coeffs, q) * delta, monomial(0, 0, d, q), small_params)
    assert bfv.decrypt(sk, ct) == m
    ct_key = Ciphertext(
        monomial(0, 0, d, q), monomial(0, delta, d, q), small_params
    )
    assert bfv.decrypt(sk, ct_key).to_coeff_list() == sk.s.to_coeff_list()


def _largest_admitted_noise(params):
    """Scan upwards for the largest noise check_decrypt_margin admits (-1 if none)."""
    noise = 0
    while True:
        try:
            bfv.check_decrypt_margin(noise, params, "noise")
        except ValueError:
            return noise - 1
        noise += 1


@pytest.mark.parametrize(
    "pairs",
    [
        [(q, t) for q in range(3, 140) for t in range(2, q)],
        [(q, t) for q in (2**16, 2**16 + 1) for t in (2, 3, 7, 83, 255, 256, 257, 4093, 2**15)],
    ],
    ids=["all-q-below-140", "q-2^16-and-2^16+1"],
)
def test_decrypt_margin_is_sound_exhaustively(pairs):
    # Every (message, noise) pair the check admits decrypts to the message
    # under the library's own decrypt.  Where t | q the next noise up
    # already decrypts 0 wrongly, so there the check is also tight.
    tight = 0
    for q, t in pairs:
        largest = _largest_admitted_noise(BfvParams(d=2, q=q, t=t))
        messages = range(-(t // 2), (t + 1) // 2)
        noises = range(-largest, largest + 1)
        raw = [q // t * m + v for m in messages for v in noises] + [largest + 1]
        # one ciphertext in the power-of-two ring that holds raw, zero-padded
        n = 1 << max(1, (len(raw) - 1).bit_length())
        params = BfvParams(d=n, q=q, t=t)
        zero = monomial(0, 0, n, q)
        ct = Ciphertext(Polynomial(raw + [0] * (n - len(raw)), q), zero, params)
        got = bfv.decrypt(SecretKey(zero, params), ct).to_coeff_list()[: len(raw)]
        assert got[:-1] == [m for m in messages for _ in noises], (q, t)
        if q % t == 0:
            assert got[-1] != 0, (q, t)
            tight += 1
    assert tight


# --- the noise-bound chain -------------------------------------------------------
#
# Each step of bfv's chain is checked against every extreme draw at tiny sets with
# tail = gaussian_tail(0.5) = 3: s and u binary, and e, e1 and e2 at +-tail.  The noise
# is linear in e, e1 and e2, so its largest |coefficient| over the box [-tail, tail]^d
# sits at a corner.  Each set admits an honest reply (alice_init accepts it), so every
# bound is below q/2: each test asserts that the largest noise equals the bound, sound
# and reached.  The enumeration runs in numpy.  bfv.noise, through the library with its
# samplers scripted, measures each worst draw, and for fresh and flooded encryptions a
# seeded sample of other draws too: each reads what the enumeration computed.

CHAIN_SETS = [
    BfvParams(d=d, q=q, t=t, sigma=0.5)
    for d, q, t in [(2, 2**10, 7), (2, 12289, 3), (4, 2**10, 3), (4, 12289, 4), (4, 12289, 7)]
]


def _set_id(params):
    return f"d{params.d}-q{params.q}-t{params.t}"


def _corners(d, values):
    """Every vector of length d over values, one per row."""
    return np.array(list(itertools.product(values, repeat=d)), dtype=np.int64)


def _products(a, b):
    """The negacyclic product over Z of each row of a with each row of b, as [row of a, row of b]."""
    d = a.shape[1]
    i, j = np.indices((d, d))
    # (x*y)_i = sum_j x_j y_(i-j); x^d = -1 negates the terms with j > i
    return np.einsum("aj,bij->abi", a, b[:, (i - j) % d] * np.where(j <= i, 1, -1))


def _extreme_draws(params, first):
    """The draws s, e, u, first and e2: s and u binary, e and e2 at +-tail."""
    tail = gaussian_tail(params.sigma)
    binary, signs = _corners(params.d, (0, 1)), _corners(params.d, (-tail, tail))
    return binary, signs, binary, first, signs


def _extreme_noise(params, first):
    """first + e2*s - e*u, centered mod q, for every draw of _extreme_draws: one axis
    per draw, in its order, then the coefficients."""
    binary, signs = _extreme_draws(params, first)[:2]
    by_noise = _products(signs, binary)  # e*u as [e, u], e2*s as [e2, s]
    e2_s = by_noise.transpose(1, 0, 2)[:, None, None, None, :]
    e_u = by_noise[None, :, :, None, None]
    return _center(first[None, None, None, :, None] + e2_s - e_u, params.q)


def _worst_and_sampled(noise, count=40):
    """Indices into the draw axes of noise: the draw with the largest |coefficient|,
    then count draws picked by a seeded generator."""
    worst = np.abs(noise).max(axis=-1)
    picks = [worst.argmax(), *make_rng(count).integers(0, worst.size, count)]
    return [np.unravel_index(pick, worst.shape) for pick in picks]


@pytest.fixture
def scripted(monkeypatch):
    """A list whose entries bfv's binary and Gaussian samplers return in turn, mod q."""
    queue = []

    def draw(d, q, *rest):
        return Polynomial(queue.pop(0).tolist(), q)

    monkeypatch.setattr(bfv, "sample_binary", draw)
    monkeypatch.setattr(bfv, "sample_gaussian", draw)
    return queue


def _scripted_keys(params, scripted, s, e):
    scripted[:] = [s, e]
    return bfv.keygen(params, make_rng(0))


def test_gaussian_tail_is_the_end_of_the_samplers_support():
    # the inverse CDF maps rng.random()'s [0, 1) onto the support, so the smallest
    # and largest draws give -tail and tail, and no draw lies beyond them
    ends = SimpleNamespace(random=lambda size: np.array([0.0, np.nextafter(1.0, 0.0)]))
    for sigma in (0.5, 3.2, 200):
        tail = gaussian_tail(sigma)
        assert sample_gaussian(2, 2**20, sigma, ends).to_coeff_list() == [-tail, tail]
    # the tail is floor(6 * sigma) exactly: int(6 * sigma) read 2 and 4 here
    assert (gaussian_tail(1 / 3), gaussian_tail(2 / 3)) == (1, 3)
    # and these read 777777, -6 and 6
    for bad in ("7", -1.0, True):
        with pytest.raises(ValueError, match="sigma must be a positive finite number"):
            gaussian_tail(bad)


@pytest.mark.parametrize("params", CHAIN_SETS, ids=_set_id)
def test_fresh_noise_bound_is_sound_and_reached(params, scripted):
    tail = gaussian_tail(params.sigma)
    noise = _extreme_noise(params, _corners(params.d, (-tail, tail)))
    assert np.abs(noise).max() == bfv.fresh_noise_bound(params)
    draws = _extreme_draws(params, _corners(params.d, (-tail, tail)))
    for index in _worst_and_sampled(noise):
        s, e, u, e1, e2 = (draw[k] for draw, k in zip(draws, index))
        sk, pk = _scripted_keys(params, scripted, s, e)
        scripted[:] = [u, e1, e2]
        m = monomial(0, int(sum(index)), params.d, params.t)  # the noise is the same for any m
        assert bfv.noise(sk, bfv.encrypt(pk, m, None), m).to_coeff_list() == noise[index].tolist()


@pytest.mark.parametrize("params", CHAIN_SETS, ids=_set_id)
def test_reply_noise_bound_is_sound_and_reached(params, scripted):
    # the reply r*(m_b - c_a) to an encryption of m_a has noise -r*n - (q mod t)*k at
    # x^0 and -r*n elsewhere, for c_a's noise n and r*(m_b - m_a) = m + t*k: every
    # m_a, m_b and r enter through r and k alone.  r, m_a and m_b are constants, as in psi.
    d, q, t = params.d, params.q, params.t
    tail = gaussian_tail(params.sigma)
    fresh = _extreme_noise(params, _corners(d, (-tail, tail)))
    draws = _extreme_draws(params, _corners(d, (-tail, tail)))
    messages = range(-(t // 2), (t + 1) // 2)
    for r in (r for r in messages if r):
        carries = {}
        for m_a, m_b in itertools.product(messages, repeat=2):
            product = r * (m_b - m_a)
            carries[(product - reduce_centered(product, t)) // t] = (m_a, m_b)
        rest = np.abs(_center(-r * fresh[..., 1:], q)).max()
        worst, at = rest, None
        for k, (m_a, m_b) in carries.items():
            lead = np.abs(_center(-r * fresh[..., 0] - (q % t) * k, q))
            if lead.max() > worst:
                worst, at = lead.max(), (np.unravel_index(lead.argmax(), lead.shape), m_a, m_b)
        assert worst == bfv.reply_noise_bound(params, abs(r)), r
        # bfv.noise of bob_reply measures the worst case
        index, m_a, m_b = at
        s, e, u, e1, e2 = (draw[k] for draw, k in zip(draws, index))
        sk, pk = _scripted_keys(params, scripted, s, e)
        scripted[:] = [u, e1, e2]
        c_a = bfv.encrypt(pk, monomial(0, m_a, d, t), None)
        reply = attacks.bob_reply(c_a, monomial(0, m_b, d, t), monomial(0, r, d, t), pk, None)
        measured = bfv.noise(sk, reply, monomial(0, r * (m_b - m_a), d, t))
        assert measured.max_abs() == worst, r


@pytest.mark.parametrize("params", CHAIN_SETS, ids=_set_id)
def test_flood_noise_bound_is_sound_and_reached(params, scripted):
    # at the largest flood bound F that encrypt_zero_flood admits, with the flood at +-F
    flood = _largest_admitted_noise(params) - bfv.flood_noise_bound(params, 0)
    floods = _corners(params.d, (-flood, flood))
    noise = _extreme_noise(params, floods)
    assert flood > 0 and np.abs(noise).max() == bfv.flood_noise_bound(params, flood)
    draws = _extreme_draws(params, floods)
    zero = monomial(0, 0, params.d, params.t)
    for index in _worst_and_sampled(noise):
        s, e, u, f, e2 = (draw[k] for draw, k in zip(draws, index))
        sk, pk = _scripted_keys(params, scripted, s, e)
        scripted[:] = [u, e2]
        rng = SimpleNamespace(integers=lambda *args, **kwargs: f)
        ct = bfv.encrypt_zero_flood(pk, flood, rng)
        assert bfv.noise(sk, ct, zero).to_coeff_list() == noise[index].tolist()


@pytest.mark.parametrize("params", [*CHAIN_SETS, BfvParams(d=2, q=97, t=7, sigma=0.5)], ids=_set_id)
def test_bit_leak_attack_recovers_every_extreme_key_it_accepts(params, scripted):
    # the probe decrypts -e_j + M*s_j, plus M at its target, and decryption rounds
    # monotonically, so the corners e_j = +-tail decide every e_j between them
    tail = gaussian_tail(params.sigma)
    binary, signs = _corners(params.d, (0, 1)), _corners(params.d, (-tail, tail))
    try:
        attacks.bit_leak_offset(params)
    except attacks.AttackError:
        sk, pk = _scripted_keys(params, scripted, binary[-1], signs[0])
        oracle = attacks.ZeroCheckOracle.honest(sk, params)
        with pytest.raises(attacks.AttackError, match="probe amplitude M"):
            attacks.bit_leak_attack(oracle, pk, params)
        assert oracle.calls == 0
        return
    for s, e in itertools.product(binary, signs):
        sk, pk = _scripted_keys(params, scripted, s, e)
        oracle = attacks.ZeroCheckOracle.honest(sk, params)
        assert attacks.bit_leak_attack(oracle, pk, params) == sk
        assert oracle.calls == params.d


# --- homomorphic operations ------------------------------------------------------------


def test_addition_of_one_and_three():
    params = get_params("psi-83")
    rng = make_rng(13)
    sk, pk = bfv.keygen(params, rng)
    ct1 = bfv.encrypt(pk, monomial(0, 1, params.d, params.t), rng)
    ct3 = bfv.encrypt(pk, monomial(0, 3, params.d, params.t), rng)
    total = bfv.add(ct1, ct3)
    assert bfv.decrypt(sk, total) == monomial(0, 4, params.d, params.t)


def test_addition_is_homomorphic_mod_t(small_params):
    rng = make_rng(14)
    sk, pk = bfv.keygen(small_params, rng)
    t, d = small_params.t, small_params.d
    for _ in range(50):
        ma = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        mb = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        ca = bfv.encrypt(pk, ma, rng)
        cb = bfv.encrypt(pk, mb, rng)
        assert bfv.decrypt(sk, bfv.add(ca, cb)) == ma + mb


def test_addition_noise_is_subadditive(small_params):
    rng = make_rng(15)
    sk, pk = bfv.keygen(small_params, rng)
    ma = monomial(0, 5, small_params.d, small_params.t)
    mb = monomial(0, 9, small_params.d, small_params.t)
    ca = bfv.encrypt(pk, ma, rng)
    cb = bfv.encrypt(pk, mb, rng)
    msum = ma + mb
    sum_noise = bfv.noise(sk, bfv.add(ca, cb), msum).max_abs()
    assert sum_noise <= (
        bfv.noise(sk, ca, ma).max_abs()
        + bfv.noise(sk, cb, mb).max_abs()
    )


def test_plain_operand_ops_agree_with_plaintext_arithmetic(small_params):
    # sub_from_plain / mul_plain against mod-t expectations.
    rng = make_rng(16)
    sk, pk = bfv.keygen(small_params, rng)
    t, d = small_params.t, small_params.d
    for _ in range(500):
        ma = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        mb = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        ct = bfv.encrypt(pk, ma, rng)
        assert bfv.decrypt(sk, bfv.sub_from_plain(mb, ct)) == mb - ma
    for _ in range(500):
        ma = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        r = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        ct = bfv.encrypt(pk, ma, rng)
        assert bfv.decrypt(sk, bfv.mul_plain(ct, r)) == r * ma


@pytest.mark.parametrize("op", ["encrypt", "sub_from_plain", "mul_plain", "noise"])
@pytest.mark.parametrize("modulus", ["q", "another-t"])
def test_message_under_any_modulus_but_t_is_refused(op, modulus):
    # a message is a polynomial mod t; the same coefficients mod q, or mod
    # bitleak-2048's t = 256 at psi-83's t = 83, used to be lifted silently
    params = get_params("psi-83")
    sk, pk = bfv.keygen(params, make_rng(30))
    ct = bfv.encrypt(pk, integer_encode(1, params), make_rng(31))
    run = {
        "encrypt": lambda m: bfv.encrypt(pk, m, make_rng(32)),
        "sub_from_plain": lambda m: bfv.sub_from_plain(m, ct),
        "mul_plain": lambda m: bfv.mul_plain(ct, m),
        "noise": lambda m: bfv.noise(sk, ct, m),
    }[op]
    if modulus == "q":
        m = monomial(0, 5, params.d, params.q)
    else:
        m = integer_encode(5, get_params("bitleak-2048"))
    with pytest.raises(ValueError, match=f"modulus {m.modulus} is not the plaintext modulus"):
        run(m)
    run(Polynomial(m.coeffs, params.t))  # the same coefficients mod t are accepted


@pytest.mark.parametrize(
    "op",
    [
        "decrypt",
        "decrypt_raw",
        "noise",
        "add",
        "evaluation_noise",
        "circuit_privacy_recover",
        "DecryptionOracle.honest",
        "ZeroCheckOracle.honest",
        "bit_leak_probe",
        "bit_leak_attack",
        "alice_init",
    ],
)
def test_operands_from_another_parameter_set_are_refused(op):
    # psi-83 and bitleak-2048 differ only in t; a psi-83 encryption of 5
    # used to decrypt under the bitleak-2048 parameters to 15, silently
    params = get_params("psi-83")
    sk, pk = bfv.keygen(params, make_rng(40))
    m = monomial(0, 5, params.d, params.t)
    ct = bfv.encrypt(pk, m, make_rng(41))
    r, m_b = (monomial(0, v, params.d, params.t) for v in (2, 7))
    reply = attacks.bob_reply(ct, m_b, r, pk, make_rng(42))
    foreign = get_params("bitleak-2048")
    sk_f, pk_f = bfv.keygen(foreign, make_rng(43))
    ct_f = bfv.encrypt(pk_f, monomial(0, 5, foreign.d, foreign.t), make_rng(44))
    answers_zero = attacks.ZeroCheckOracle(lambda _: True)
    # each call takes its other operand, or its params, from o
    run = {
        "decrypt": lambda o: bfv.decrypt(o.sk, ct),
        "decrypt_raw": lambda o: bfv.decrypt_raw(o.sk, ct),
        "noise": lambda o: bfv.noise(o.sk, ct, m),
        "add": lambda o: bfv.add(ct, o.ct),
        "evaluation_noise": lambda o: attacks.evaluation_noise(o.sk, ct, m),
        "circuit_privacy_recover": lambda o: attacks.circuit_privacy_recover(o.sk, ct, m, reply),
        "DecryptionOracle.honest": lambda o: attacks.DecryptionOracle.honest(sk, o.params),
        "ZeroCheckOracle.honest": lambda o: attacks.ZeroCheckOracle.honest(sk, o.params),
        "bit_leak_probe": lambda o: attacks.bit_leak_probe(pk, 0, o.params),
        "bit_leak_attack": lambda o: attacks.bit_leak_attack(answers_zero, pk, o.params),
        "alice_init": lambda o: psi.alice_init(o.params, 1, make_rng(45), (sk, pk)),
    }[op]
    with pytest.raises(ValueError, match="different parameters") as refused:
        run(SimpleNamespace(sk=sk_f, ct=ct_f, params=foreign))
    assert "t=83" in str(refused.value) and "t=256" in str(refused.value)  # both sets named
    assert answers_zero.calls == 0  # bit_leak_attack refuses before its first query
    run(SimpleNamespace(sk=sk, ct=ct, params=params))  # matching operands pass


def test_same_params_returns_the_shared_set(small_params):
    sk, pk = bfv.keygen(small_params, make_rng(46))
    ct = bfv.encrypt(pk, monomial(0, 1, small_params.d, small_params.t), make_rng(47))
    assert bfv.same_params(sk, pk, ct, small_params) is small_params
    with pytest.raises(ValueError, match="different parameters"):
        bfv.same_params(ct, BfvParams(d=64, q=2**30, t=257))


def test_sub_from_plain_of_equal_messages_is_zero(small_params):
    rng = make_rng(18)
    sk, pk = bfv.keygen(small_params, rng)
    m = monomial(0, 42, small_params.d, small_params.t)
    ct = bfv.encrypt(pk, m, rng)
    diff = bfv.sub_from_plain(m, ct)
    assert bfv.decrypt(sk, diff).is_zero()


def test_mul_plain_scales_message_and_noise(small_params):
    rng = make_rng(19)
    sk, pk = bfv.keygen(small_params, rng)
    m = monomial(0, 3, small_params.d, small_params.t)
    ct = bfv.encrypt(pk, m, rng)
    base_noise = bfv.noise(sk, ct, m).max_abs()

    one = monomial(0, 1, small_params.d, small_params.t)
    assert bfv.decrypt(sk, bfv.mul_plain(ct, one)) == m

    two = monomial(0, 2, small_params.d, small_params.t)
    doubled = bfv.mul_plain(ct, two)
    m2 = monomial(0, 6, small_params.d, small_params.t)
    assert bfv.decrypt(sk, doubled) == m2
    # noise grows by at most the l1 norm of the multiplier (= 2 here; t | q)
    assert bfv.noise(sk, doubled, m2).max_abs() <= 2 * base_noise


# --- noise flooding -----------------------------------------------------------------


def test_flooded_zero_decrypts_to_zero_at_full_size():
    params = get_params("psi-83")
    rng = make_rng(20)
    sk, pk = bfv.keygen(params, rng)
    for _ in range(5):
        ct = bfv.encrypt_zero_flood(pk, 2**30, rng)
        assert bfv.decrypt(sk, ct).is_zero()


def test_flooded_zero_with_zero_bound_degenerates(small_params):
    rng = make_rng(21)
    sk, pk = bfv.keygen(small_params, rng)
    ct = bfv.encrypt_zero_flood(pk, 0, rng)
    assert bfv.decrypt(sk, ct).is_zero()
    zero = monomial(0, 0, small_params.d, small_params.t)
    assert bfv.noise(sk, ct, zero).max_abs() <= GAUSS_TAIL * (
        2 * small_params.d + 1
    )


def _largest_flood_bound(params):
    """The largest F with 2t*(F + 2d*tail) + t*(q mod t) < q."""
    q, t, d = params.q, params.t, params.d
    return (q - t * (q % t) - 1) // (2 * t) - 2 * d * GAUSS_TAIL


def test_flood_bound_validation(small_params):
    rng = make_rng(22)
    _, pk = bfv.keygen(small_params, rng)
    delta = small_params.delta
    largest = _largest_flood_bound(small_params)
    assert largest == 2**21 - 1 - 2 * 64 * GAUSS_TAIL
    for unsound in (largest + 1, delta // 2 - 1, delta // 2, delta, -1):
        with pytest.raises(ValueError):
            bfv.encrypt_zero_flood(pk, unsound, rng)
    bfv.encrypt_zero_flood(pk, largest, rng)
    # 2.5 used to be accepted as a bound
    for not_int in (2.5, True, np.uint32(7), "7"):
        with pytest.raises(ValueError, match="flood_bound must be an integer"):
            bfv.encrypt_zero_flood(pk, not_int, rng)
    bfv.encrypt_zero_flood(pk, np.int64(largest), rng)


def test_flooded_zeros_at_largest_bound_decrypt_to_zero(small_params):
    rng = make_rng(25)
    sk, pk = bfv.keygen(small_params, rng)
    largest = _largest_flood_bound(small_params)
    for _ in range(20000):
        ct = bfv.encrypt_zero_flood(pk, largest, rng)
        assert bfv.decrypt(sk, ct).is_zero()


def test_adding_flooded_zero_preserves_decryption(small_params):
    rng = make_rng(23)
    sk, pk = bfv.keygen(small_params, rng)
    t, d = small_params.t, small_params.d
    bound = 2**10  # well below delta/2 = 2**21
    for _ in range(100):
        m = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        ct = bfv.encrypt(pk, m, rng)
        flooded = bfv.add(ct, bfv.encrypt_zero_flood(pk, bound, rng))
        assert bfv.decrypt(sk, flooded) == m


def test_adding_flooded_zero_preserves_decryption_at_full_size():
    params = get_params("psi-83")
    rng = make_rng(24)
    sk, pk = bfv.keygen(params, rng)
    for value in (0, 1, -41, 41):
        m = monomial(0, value, params.d, params.t)
        ct = bfv.encrypt(pk, m, rng)
        flooded = bfv.add(ct, bfv.encrypt_zero_flood(pk, 2**30, rng))
        assert bfv.decrypt(sk, flooded) == m


# --- serialization ---------------------------------------------------------------------


def test_json_roundtrips(small_params):
    rng = make_rng(25)
    sk, pk = bfv.keygen(small_params, rng)
    m = monomial(0, 9, small_params.d, small_params.t)
    ct = bfv.encrypt(pk, m, rng)

    sk2 = bfv.secret_key_from_json(bfv.secret_key_to_json(sk))
    pk2 = bfv.public_key_from_json(bfv.public_key_to_json(pk))
    ct2 = bfv.ciphertext_from_json(bfv.ciphertext_to_json(ct))

    assert sk2.s == sk.s and pk2.pk0 == pk.pk0 and pk2.pk1 == pk.pk1
    assert ct2.c0 == ct.c0 and ct2.c1 == ct.c1
    assert sk2.params == pk2.params == ct2.params == small_params
    assert bfv.decrypt(sk2, ct2) == m


@pytest.mark.parametrize("name", sorted(PARAM_SETS))
def test_key_file_header_is_the_params_fields(name):
    # the header names BfvParams' four fields, so a renamed or added field
    # would change the file format; this pins it
    params = get_params(name)
    sk, pk = bfv.keygen(params, make_rng(27))
    for obj, load in (
        (bfv.secret_key_to_json(sk), bfv.secret_key_from_json),
        (bfv.public_key_to_json(pk), bfv.public_key_from_json),
    ):
        assert set(obj) == {"scheme", "d", "q", "t", "sigma", "payload"}
        assert load(obj).params == params


def test_json_validation_errors(small_params):
    rng = make_rng(26)
    sk, _ = bfv.keygen(small_params, rng)
    obj = bfv.secret_key_to_json(sk)
    bad_scheme = {**obj, "scheme": "other"}
    with pytest.raises(ValueError):
        bfv.secret_key_from_json(bad_scheme)
    missing = {k: v for k, v in obj.items() if k != "t"}
    with pytest.raises(ValueError):
        bfv.secret_key_from_json(missing)
    short_payload = {**obj, "payload": [obj["payload"][0][:-1]]}
    with pytest.raises(ValueError):
        bfv.secret_key_from_json(short_payload)
    wrong_count = {**obj, "payload": obj["payload"] * 2}
    with pytest.raises(ValueError):
        bfv.secret_key_from_json(wrong_count)
    with pytest.raises(ValueError):
        bfv.ciphertext_from_json(obj)
    with pytest.raises(ValueError, match="unknown field 'extra'"):
        bfv.secret_key_from_json({**obj, "extra": 1})
    for loader in (bfv.secret_key_from_json, bfv.public_key_from_json, bfv.ciphertext_from_json):
        with pytest.raises(ValueError, match="expected a JSON object"):
            loader([1])


@pytest.mark.parametrize(
    "field,value",
    [
        ("d", "64"),
        ("d", True),
        ("q", 2.0**30),
        ("t", 256.9),
        ("sigma", float("nan")),
        ("sigma", float("inf")),
        ("sigma", "3.2"),
        ("sigma", True),
        ("sigma", 0),
        pytest.param("sigma", 10**400, id="sigma-10**400"),
    ],
)
def test_json_header_is_strict(small_params, field, value):
    obj = bfv.secret_key_to_json(SecretKey(monomial(0, 0, 64, 2**30), small_params))
    with pytest.raises(ValueError):
        bfv.secret_key_from_json({**obj, field: value})


@pytest.mark.parametrize("value", [1.9, "1", None, 2**70, 2**63, True, False])
def test_json_payload_is_strict(small_params, value):
    # 1.9, "1" and True used to load as the key bit 1
    obj = bfv.secret_key_to_json(SecretKey(monomial(0, 0, 64, 2**30), small_params))
    vec = list(obj["payload"][0])
    vec[3] = value
    with pytest.raises(ValueError):
        bfv.secret_key_from_json({**obj, "payload": [vec]})
    with pytest.raises(ValueError):
        bfv.ciphertext_from_json({**obj, "payload": [vec, obj["payload"][0]]})


# --- message helpers ----------------------------------------------------------------


def test_plaintext_helpers(small_params):
    d, t = small_params.d, small_params.t
    p = bfv.plaintext([1, 2, t - 1, -(t // 2)], small_params)
    assert (p.d, p.modulus) == (d, t)
    assert p.to_coeff_list()[:5] == [1, 2, -1, -(t // 2), 0]
    # 300 used to be reduced mod t = 256 and encrypt 44 without a word
    for value in (300, t, -(t // 2) - 1):
        with pytest.raises(ValueError, match=rf"\[{-(t // 2)}, {t}\) for t = {t}"):
            bfv.plaintext([1, value], small_params)
    assert monomial(0, 0, d, t).is_zero()
    assert monomial(0, 200, d, t).to_coeff_list()[:2] == [-56, 0]
    assert bfv.plaintext([], small_params) == monomial(0, 0, d, t)
    for bad in ([0] * (d + 1), [1, True], [1.0], "12"):
        with pytest.raises(ValueError):
            bfv.plaintext(bad, small_params)
