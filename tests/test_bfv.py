"""Scheme-level behavior: parameters, key relations, noise identities,
roundtrips, homomorphic operations, flooding, serialization."""

from types import SimpleNamespace

import numpy as np
import pytest

import bfvlab.bfv as bfv
from bfvlab import (
    BfvParams,
    Ciphertext,
    PARAM_SETS,
    Polynomial,
    SecretKey,
    attacks,
    get_params,
    integer_encode,
    psi,
)

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
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="sigma"):
            BfvParams(d=8, q=97, t=4, sigma=sigma)


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
        m = Polynomial.constant(int(rng.integers(0, t)), d, t)
        u, e1, e2 = encrypt_draws(small_params, rng)
        ct = bfv.encrypt(pk, m, rng)
        bound = (e * u).max_abs() + e1.max_abs() + (e2 * sk.s).max_abs()
        assert bfv.noise(sk, ct, m).max_abs() <= bound


def test_fresh_noise_below_parameter_bound():
    params = get_params("bitleak-2048")
    rng = make_rng(10)
    sk, pk = bfv.keygen(params, rng)
    m = Polynomial.constant(3, params.d, params.t)
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
    sk = SecretKey(Polynomial.constant(0, d, q), params)
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
        ct = Ciphertext(Polynomial(raw, q), Polynomial.constant(0, d, q), params)
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
    ct = Ciphertext(m.with_modulus(q) * delta, Polynomial.constant(0, d, q), small_params)
    assert bfv.decrypt(sk, ct) == m
    ct_key = Ciphertext(
        Polynomial.constant(0, d, q), Polynomial.constant(delta, d, q), small_params
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
        params = BfvParams(d=2, q=q, t=t)
        largest = _largest_admitted_noise(params)
        messages = range(-(t // 2), (t + 1) // 2)
        noises = range(-largest, largest + 1)
        raw = [params.delta * m + v for m in messages for v in noises] + [largest + 1]
        n = len(raw)
        ct = Ciphertext(Polynomial(raw, q), Polynomial.constant(0, n, q), params)
        got = bfv.decrypt(SecretKey(Polynomial.constant(0, n, q), params), ct).to_coeff_list()
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
    ct1 = bfv.encrypt(pk, Polynomial.constant(1, params.d, params.t), rng)
    ct3 = bfv.encrypt(pk, Polynomial.constant(3, params.d, params.t), rng)
    total = bfv.add(ct1, ct3)
    assert bfv.decrypt(sk, total) == Polynomial.constant(4, params.d, params.t)


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
    ma = Polynomial.constant(5, small_params.d, small_params.t)
    mb = Polynomial.constant(9, small_params.d, small_params.t)
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
        m = Polynomial.constant(5, params.d, params.q)
    else:
        m = integer_encode(5, get_params("bitleak-2048"))
    with pytest.raises(ValueError, match=f"modulus {m.modulus} is not the plaintext modulus"):
        run(m)
    run(m.with_modulus(params.t))  # the same coefficients mod t are accepted


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
    m = Polynomial.constant(5, params.d, params.t)
    ct = bfv.encrypt(pk, m, make_rng(41))
    r, m_b = (Polynomial.constant(v, params.d, params.t) for v in (2, 7))
    reply = attacks.bob_reply(ct, m_b, r, pk, make_rng(42))
    foreign = get_params("bitleak-2048")
    sk_f, pk_f = bfv.keygen(foreign, make_rng(43))
    ct_f = bfv.encrypt(pk_f, Polynomial.constant(5, foreign.d, foreign.t), make_rng(44))
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
    ct = bfv.encrypt(pk, Polynomial.constant(1, small_params.d, small_params.t), make_rng(47))
    assert bfv.same_params(sk, pk, ct, small_params) is small_params
    with pytest.raises(ValueError, match="different parameters"):
        bfv.same_params(ct, BfvParams(d=64, q=2**30, t=257))


def test_sub_from_plain_of_equal_messages_is_zero(small_params):
    rng = make_rng(18)
    sk, pk = bfv.keygen(small_params, rng)
    m = Polynomial.constant(42, small_params.d, small_params.t)
    ct = bfv.encrypt(pk, m, rng)
    diff = bfv.sub_from_plain(m, ct)
    assert bfv.decrypt(sk, diff).is_zero()


def test_mul_plain_scales_message_and_noise(small_params):
    rng = make_rng(19)
    sk, pk = bfv.keygen(small_params, rng)
    m = Polynomial.constant(3, small_params.d, small_params.t)
    ct = bfv.encrypt(pk, m, rng)
    base_noise = bfv.noise(sk, ct, m).max_abs()

    one = Polynomial.constant(1, small_params.d, small_params.t)
    assert bfv.decrypt(sk, bfv.mul_plain(ct, one)) == m

    two = Polynomial.constant(2, small_params.d, small_params.t)
    doubled = bfv.mul_plain(ct, two)
    m2 = Polynomial.constant(6, small_params.d, small_params.t)
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
    zero = Polynomial.constant(0, small_params.d, small_params.t)
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
        m = Polynomial.constant(value, params.d, params.t)
        ct = bfv.encrypt(pk, m, rng)
        flooded = bfv.add(ct, bfv.encrypt_zero_flood(pk, 2**30, rng))
        assert bfv.decrypt(sk, flooded) == m


# --- serialization ---------------------------------------------------------------------


def test_json_roundtrips(small_params):
    rng = make_rng(25)
    sk, pk = bfv.keygen(small_params, rng)
    m = Polynomial.constant(9, small_params.d, small_params.t)
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
    # the header is built from BfvParams' fields, so a renamed or added
    # field would change the file format; this pins it
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
    obj = bfv.secret_key_to_json(SecretKey(Polynomial.constant(0, 64, 2**30), small_params))
    with pytest.raises(ValueError):
        bfv.secret_key_from_json({**obj, field: value})


@pytest.mark.parametrize("value", [1.9, "1", None, 2**70, 2**63, True, False])
def test_json_payload_is_strict(small_params, value):
    # 1.9, "1" and True used to load as the key bit 1
    obj = bfv.secret_key_to_json(SecretKey(Polynomial.constant(0, 64, 2**30), small_params))
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
    assert Polynomial.constant(0, d, t).is_zero()
    assert Polynomial.constant(200, d, t).to_coeff_list()[:2] == [-56, 0]
    assert bfv.plaintext([], small_params) == Polynomial.constant(0, d, t)
    for bad in ([0] * (d + 1), [1, True], [1.0], "12"):
        with pytest.raises(ValueError):
            bfv.plaintext(bad, small_params)
