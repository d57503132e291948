"""Scheme-level behavior: parameters, key relations, noise identities,
roundtrips, homomorphic operations, flooding, serialization."""

import numpy as np
import pytest

import bfvlab.bfv as bfv
from bfvlab import (
    BfvParams,
    Ciphertext,
    PARAM_SETS,
    Plaintext,
    Polynomial,
    RingParams,
    SecretKey,
    get_params,
)

from conftest import make_rng
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
    ring = RingParams(d=8, q=97)
    with pytest.raises(ValueError):
        BfvParams(ring=ring, t=1)
    with pytest.raises(ValueError):
        BfvParams(ring=ring, t=97)
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            BfvParams(ring=ring, t=4, sigma=sigma)


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
        SecretKey(Polynomial([0, 1, 2, 0], 97))


# --- encryption / decryption ---------------------------------------------------------


def test_roundtrip_random_plaintexts(small_params):
    rng = make_rng(7)
    sk, pk = bfv.keygen(small_params, rng)
    t, d = small_params.t, small_params.d
    for _ in range(100):
        m = Plaintext(Polynomial(rng.integers(0, t, d, dtype=np.int64), t))
        ct, _ = bfv.encrypt(pk, m, small_params, rng)
        assert bfv.decrypt(sk, ct, small_params).poly == m.poly


@pytest.mark.parametrize("name", ["cca-1024", "bitleak-2048", "psi-83"])
def test_roundtrip_at_named_sets(name):
    params = get_params(name)
    rng = make_rng(sum(name.encode()))
    sk, pk = bfv.keygen(params, rng)
    for _ in range(10):
        m = Plaintext(
            Polynomial(rng.integers(0, params.t, params.d, dtype=np.int64), params.t)
        )
        ct, _ = bfv.encrypt(pk, m, params, rng)
        assert bfv.decrypt(sk, ct, params).poly == m.poly


def test_raw_decryption_equals_predicted_noise(small_params):
    rng = make_rng(8)
    sk, pk = bfv.keygen(small_params, rng)
    e = -(pk.pk0 + pk.pk1 * sk.s)
    zero = Plaintext.constant(0, small_params)
    for _ in range(20):
        ct, w = bfv.encrypt(pk, zero, small_params, rng)
        predicted = w.e1 + w.e2 * sk.s - e * w.u
        assert bfv.decrypt_raw(sk, ct, small_params) == predicted


def test_noise_respects_componentwise_bound(small_params):
    rng = make_rng(9)
    sk, pk = bfv.keygen(small_params, rng)
    e = -(pk.pk0 + pk.pk1 * sk.s)
    for _ in range(20):
        m = Plaintext.constant(int(rng.integers(0, small_params.t)), small_params)
        ct, w = bfv.encrypt(pk, m, small_params, rng)
        bound = (
            (e * w.u).max_abs() + w.e1.max_abs() + (w.e2 * sk.s).max_abs()
        )
        assert bfv.noise_norm(sk, ct, m, small_params) <= bound


def test_fresh_noise_below_parameter_bound():
    params = get_params("bitleak-2048")
    rng = make_rng(10)
    sk, pk = bfv.keygen(params, rng)
    m = Plaintext.constant(3, params)
    ct, _ = bfv.encrypt(pk, m, params, rng)
    assert bfv.noise_norm(sk, ct, m, params) <= GAUSS_TAIL * (2 * params.d + 1)


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
    params = BfvParams(ring=RingParams(d=d, q=q), t=t)
    sk = SecretKey(Polynomial.zero(d, q))
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
        ct = Ciphertext(Polynomial(raw, q), Polynomial.zero(d, q))
        expected = [center_mod(round_ratio_oracle(center_mod(c, q) * t, q), t) for c in raw]
        assert bfv.decrypt(sk, ct, params).poly.to_coeff_list() == expected


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
    m = Plaintext(Polynomial(rng.integers(0, t, d, dtype=np.int64), t))
    ct = Ciphertext(m.poly.with_modulus(q) * delta, Polynomial.zero(d, q))
    assert bfv.decrypt(sk, ct, small_params).poly == m.poly
    ct_key = Ciphertext(Polynomial.zero(d, q), Polynomial.constant(delta, d, q))
    assert (
        bfv.decrypt(sk, ct_key, small_params).poly.to_coeff_list()
        == sk.s.to_coeff_list()
    )


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
        params = BfvParams(ring=RingParams(d=2, q=q), t=t)
        largest = _largest_admitted_noise(params)
        messages = range(-(t // 2), (t + 1) // 2)
        noises = range(-largest, largest + 1)
        raw = [params.delta * m + v for m in messages for v in noises] + [largest + 1]
        n = len(raw)
        ct = Ciphertext(Polynomial(raw, q), Polynomial.zero(n, q))
        got = bfv.decrypt(SecretKey(Polynomial.zero(n, q)), ct, params).poly.to_coeff_list()
        assert got[:-1] == [m for m in messages for _ in noises], (q, t)
        if q % t == 0:
            assert got[-1] != 0, (q, t)
            tight += 1
    assert tight


# --- homomorphic operations ------------------------------------------------------------


def test_addition_of_one_and_three():
    params = get_params("psi-83")
    rng = make_rng(13)
    sk, pk = bfv.keygen(params, rng)
    ct1, _ = bfv.encrypt(pk, Plaintext.constant(1, params), params, rng)
    ct3, _ = bfv.encrypt(pk, Plaintext.constant(3, params), params, rng)
    total = bfv.add(ct1, ct3)
    assert bfv.decrypt(sk, total, params).poly == Polynomial.constant(4, params.d, params.t)


def test_addition_is_homomorphic_mod_t(small_params):
    rng = make_rng(14)
    sk, pk = bfv.keygen(small_params, rng)
    t, d = small_params.t, small_params.d
    for _ in range(50):
        ma = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        mb = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        ca, _ = bfv.encrypt(pk, Plaintext(ma), small_params, rng)
        cb, _ = bfv.encrypt(pk, Plaintext(mb), small_params, rng)
        assert bfv.decrypt(sk, bfv.add(ca, cb), small_params).poly == ma + mb


def test_addition_noise_is_subadditive(small_params):
    rng = make_rng(15)
    sk, pk = bfv.keygen(small_params, rng)
    ma = Plaintext.constant(5, small_params)
    mb = Plaintext.constant(9, small_params)
    ca, _ = bfv.encrypt(pk, ma, small_params, rng)
    cb, _ = bfv.encrypt(pk, mb, small_params, rng)
    msum = Plaintext(ma.poly + mb.poly)
    assert bfv.noise_norm(sk, bfv.add(ca, cb), msum, small_params) <= bfv.noise_norm(
        sk, ca, ma, small_params
    ) + bfv.noise_norm(sk, cb, mb, small_params)


def test_plain_operand_ops_agree_with_plaintext_arithmetic(small_params):
    # sub_from_plain / mul_plain against mod-t expectations.
    rng = make_rng(16)
    sk, pk = bfv.keygen(small_params, rng)
    t, d = small_params.t, small_params.d
    for _ in range(500):
        ma = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        mb = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        ct, _ = bfv.encrypt(pk, Plaintext(ma), small_params, rng)
        assert (
            bfv.decrypt(
                sk, bfv.sub_from_plain(Plaintext(mb), ct, small_params), small_params
            ).poly
            == mb - ma
        )
    for _ in range(500):
        ma = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        r = Polynomial(rng.integers(0, t, d, dtype=np.int64), t)
        ct, _ = bfv.encrypt(pk, Plaintext(ma), small_params, rng)
        assert (
            bfv.decrypt(sk, bfv.mul_plain(ct, Plaintext(r), small_params), small_params).poly
            == r * ma
        )


def test_sub_from_plain_of_equal_messages_is_zero(small_params):
    rng = make_rng(18)
    sk, pk = bfv.keygen(small_params, rng)
    m = Plaintext.constant(42, small_params)
    ct, _ = bfv.encrypt(pk, m, small_params, rng)
    diff = bfv.sub_from_plain(m, ct, small_params)
    assert bfv.decrypt(sk, diff, small_params).is_zero()


def test_mul_plain_scales_message_and_noise(small_params):
    rng = make_rng(19)
    sk, pk = bfv.keygen(small_params, rng)
    m = Plaintext.constant(3, small_params)
    ct, _ = bfv.encrypt(pk, m, small_params, rng)
    base_noise = bfv.noise_norm(sk, ct, m, small_params)

    one = Plaintext.constant(1, small_params)
    assert bfv.decrypt(sk, bfv.mul_plain(ct, one, small_params), small_params).poly == m.poly

    two = Plaintext.constant(2, small_params)
    doubled = bfv.mul_plain(ct, two, small_params)
    m2 = Plaintext.constant(6, small_params)
    assert bfv.decrypt(sk, doubled, small_params).poly == m2.poly
    # noise grows by at most the l1 norm of the multiplier (= 2 here; t | q)
    assert bfv.noise_norm(sk, doubled, m2, small_params) <= 2 * base_noise


# --- noise flooding -----------------------------------------------------------------


def test_flooded_zero_decrypts_to_zero_at_full_size():
    params = get_params("psi-83")
    rng = make_rng(20)
    sk, pk = bfv.keygen(params, rng)
    for _ in range(5):
        ct = bfv.encrypt_zero_flood(pk, params, 2**30, rng)
        assert bfv.decrypt(sk, ct, params).is_zero()


def test_flooded_zero_with_zero_bound_degenerates(small_params):
    rng = make_rng(21)
    sk, pk = bfv.keygen(small_params, rng)
    ct = bfv.encrypt_zero_flood(pk, small_params, 0, rng)
    assert bfv.decrypt(sk, ct, small_params).is_zero()
    zero = Plaintext.constant(0, small_params)
    assert bfv.noise_norm(sk, ct, zero, small_params) <= GAUSS_TAIL * (
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
            bfv.encrypt_zero_flood(pk, small_params, unsound, rng)
    bfv.encrypt_zero_flood(pk, small_params, largest, rng)


def test_flooded_zeros_at_largest_bound_decrypt_to_zero(small_params):
    rng = make_rng(25)
    sk, pk = bfv.keygen(small_params, rng)
    largest = _largest_flood_bound(small_params)
    for _ in range(20000):
        ct = bfv.encrypt_zero_flood(pk, small_params, largest, rng)
        assert bfv.decrypt(sk, ct, small_params).is_zero()


def test_adding_flooded_zero_preserves_decryption(small_params):
    rng = make_rng(23)
    sk, pk = bfv.keygen(small_params, rng)
    t, d = small_params.t, small_params.d
    bound = 2**10  # well below delta/2 = 2**21
    for _ in range(100):
        m = Plaintext(Polynomial(rng.integers(0, t, d, dtype=np.int64), t))
        ct, _ = bfv.encrypt(pk, m, small_params, rng)
        flooded = bfv.add(ct, bfv.encrypt_zero_flood(pk, small_params, bound, rng))
        assert bfv.decrypt(sk, flooded, small_params).poly == m.poly


def test_adding_flooded_zero_preserves_decryption_at_full_size():
    params = get_params("psi-83")
    rng = make_rng(24)
    sk, pk = bfv.keygen(params, rng)
    for value in (0, 1, -41, 41):
        m = Plaintext.constant(value, params)
        ct, _ = bfv.encrypt(pk, m, params, rng)
        flooded = bfv.add(ct, bfv.encrypt_zero_flood(pk, params, 2**30, rng))
        assert bfv.decrypt(sk, flooded, params).poly == m.poly


# --- serialization ---------------------------------------------------------------------


def test_json_roundtrips(small_params):
    rng = make_rng(25)
    sk, pk = bfv.keygen(small_params, rng)
    m = Plaintext.constant(9, small_params)
    ct, _ = bfv.encrypt(pk, m, small_params, rng)

    sk2, p_sk = bfv.secret_key_from_json(bfv.secret_key_to_json(sk, small_params))
    pk2, p_pk = bfv.public_key_from_json(bfv.public_key_to_json(pk, small_params))
    ct2, p_ct = bfv.ciphertext_from_json(bfv.ciphertext_to_json(ct, small_params))

    assert sk2.s == sk.s and pk2.pk0 == pk.pk0 and pk2.pk1 == pk.pk1
    assert ct2.c0 == ct.c0 and ct2.c1 == ct.c1
    assert p_sk == p_pk == p_ct == small_params
    assert bfv.decrypt(sk2, ct2, p_ct).poly == m.poly


def test_json_validation_errors(small_params):
    rng = make_rng(26)
    sk, _ = bfv.keygen(small_params, rng)
    obj = bfv.secret_key_to_json(sk, small_params)
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
        pytest.param("sigma", 10**400, id="sigma-10**400"),
    ],
)
def test_json_header_is_strict(small_params, field, value):
    obj = bfv.secret_key_to_json(SecretKey(Polynomial.zero(64, 2**30)), small_params)
    with pytest.raises(ValueError):
        bfv.secret_key_from_json({**obj, field: value})


@pytest.mark.parametrize("value", [1.9, "1", None, 2**70, 2**63, True, False])
def test_json_payload_is_strict(small_params, value):
    # 1.9, "1" and True used to load as the key bit 1
    obj = bfv.secret_key_to_json(SecretKey(Polynomial.zero(64, 2**30)), small_params)
    vec = list(obj["payload"][0])
    vec[3] = value
    with pytest.raises(ValueError):
        bfv.secret_key_from_json({**obj, "payload": [vec]})
    with pytest.raises(ValueError):
        bfv.ciphertext_from_json({**obj, "payload": [vec, obj["payload"][0]]})


# --- plaintext helpers ----------------------------------------------------------------


def test_plaintext_helpers(small_params):
    p = Plaintext.from_coeffs([1, 2, 3], small_params)
    assert p.poly.d == small_params.d
    assert p.poly.to_coeff_list()[:4] == [1, 2, 3, 0]
    assert Plaintext.constant(0, small_params).is_zero()
    assert not Plaintext.constant(200, small_params).is_zero()
    with pytest.raises(ValueError):
        Plaintext.from_coeffs([0] * (small_params.d + 1), small_params)
