"""The four attacks at unit level: exact recoveries, query counts,
probe structure, error paths, and report plumbing."""

import copy

import numpy as np
import pytest

import bfvlab.bfv as bfv
from bfvlab import (
    PARAM_SETS,
    BfvParams,
    Ciphertext,
    Polynomial,
    PublicKey,
    SecretKey,
    get_params,
    monomial,
)
from bfvlab.attacks import (
    AttackError,
    DecryptionOracle,
    FloodedOrMalformedError,
    InsufficientNoiseStructureError,
    ZeroCheckOracle,
    _reply_pairs,
    bit_leak_attack,
    bit_leak_offset,
    bit_leak_probe,
    bob_reply,
    cca_one_query,
    circuit_privacy_recover,
    evaluation_noise,
    random_multiplier,
    run_bit_leak_attack,
    run_cca_attack,
    run_circuit_privacy_attack,
    run_encoder_leak_demo,
)
from bfvlab.ring import reduce_centered, sample_gaussian, sample_uniform

from conftest import encrypt_draws, make_rng
from oracles import center_mod, reply_pairs_scan


# --- one-query chosen-ciphertext recovery ----------------------------------------


def test_cca_recovers_exact_key_at_full_size():
    params = get_params("cca-1024")
    for seed in range(20):
        sk, _ = bfv.keygen(params, make_rng(seed))
        oracle = DecryptionOracle.honest(sk, params)
        recovered = cca_one_query(oracle, params)
        assert recovered.s == sk.s
        assert oracle.calls == 1


def test_cca_works_with_binary_plaintext_modulus():
    # t = 2 centers 1 to -1; reading the answer mod t must still work.
    params = BfvParams(d=64, q=2**30, t=2)
    sk, _ = bfv.keygen(params, make_rng(3))
    oracle = DecryptionOracle.honest(sk, params)
    assert cca_one_query(oracle, params).s == sk.s


def test_cca_rejects_dishonest_oracle(small_params):
    junk = monomial(0, 5, small_params.d, small_params.t)
    oracle = DecryptionOracle(lambda ct: junk)
    with pytest.raises(AttackError):
        cca_one_query(oracle, small_params)


# --- bit-leak probes --------------------------------------------------------------


def test_probe_raw_decryption_identity():
    params = get_params("bitleak-2048")
    rng = make_rng(5)
    sk, pk = bfv.keygen(params, rng)
    e = -(pk.pk0 + pk.pk1 * sk.s)
    m_val = bit_leak_offset(params)
    assert m_val == 2**44 + 20
    for index in (0, 1, 1000, params.d - 1):
        probe = bit_leak_probe(pk, index, params)
        raw = bfv.decrypt_raw(sk, probe)
        assert raw == -e + monomial(index, m_val, params.d, params.q) + m_val * sk.s


def test_probe_against_all_zero_key():
    params = BfvParams(d=64, q=2**30, t=256)
    rng = make_rng(6)
    # force s = 0: pk = (-e, a) decrypts like a key pair with zero key
    a = sample_uniform(params.d, params.q, rng)
    e = sample_gaussian(params.d, params.q, params.sigma, rng)
    sk = SecretKey(monomial(0, 0, params.d, params.q), params)
    pk = PublicKey(-e, a, params)
    for index in range(params.d):
        assert bfv.decrypt(sk, bit_leak_probe(pk, index, params)).is_zero()


def test_probe_rounding_margins_sampled():
    params = get_params("bitleak-2048")
    rng = make_rng(7)
    sk, pk = bfv.keygen(params, rng)
    t, q = params.t, params.q
    m_val = bit_leak_offset(params)
    s = sk.s.to_coeff_list()
    for index in map(int, rng.integers(0, params.d, 50)):
        raw = bfv.decrypt_raw(sk, bit_leak_probe(pk, index, params))
        coeffs = raw.to_coeff_list()
        decrypted = bfv.decrypt(sk, bit_leak_probe(pk, index, params))
        dec = decrypted.to_coeff_list()
        for j, c in enumerate(coeffs):
            if j == index:
                assert dec[j] == s[j]
            else:
                assert 2 * abs(c) * t < q  # rounds to zero
                assert dec[j] == 0


def test_bit_leak_recovers_full_key_small(small_params):
    for seed in range(10):
        sk, pk = bfv.keygen(small_params, make_rng(seed + 100))
        oracle = ZeroCheckOracle.honest(sk, small_params)
        recovered = bit_leak_attack(oracle, pk, small_params)
        assert recovered.s == sk.s
        assert oracle.calls == small_params.d


def test_bit_leak_works_when_t_does_not_divide_q(small_prime_t_params):
    sk, pk = bfv.keygen(small_prime_t_params, make_rng(8))
    oracle = ZeroCheckOracle.honest(sk, small_prime_t_params)
    assert bit_leak_attack(oracle, pk, small_prime_t_params).s == sk.s


@pytest.mark.parametrize("sigma", [3.2, 16, 64])
def test_bit_leak_recovers_full_key_across_sigma(sigma):
    # The probe amplitude follows the sampler's tail, so wider noise
    # still leaves every probe on its side of the rounding threshold.
    params = BfvParams(d=256, q=2**54, t=256, sigma=sigma)
    for seed in range(3):
        sk, pk = bfv.keygen(params, make_rng(seed + 200))
        oracle = ZeroCheckOracle.honest(sk, params)
        assert bit_leak_attack(oracle, pk, params).s == sk.s
        assert oracle.calls == params.d


def test_bit_leak_refuses_unsound_parameters_before_any_query():
    # tail = 1200 at sigma = 200, so M + tail = 1024 + 1201 + 1200 = 3425
    # against a margin of (2^20 - 1) // 512 = 2047.
    params = BfvParams(d=64, q=2**20, t=256, sigma=200)
    sk, pk = bfv.keygen(params, make_rng(25))
    oracle = ZeroCheckOracle.honest(sk, params)
    with pytest.raises(AttackError, match=r"probe amplitude M \+ tail = 3425 misses"):
        bit_leak_attack(oracle, pk, params)
    assert oracle.calls == 0


def test_bit_leak_probe_takes_an_integer_index(small_params):
    # True used to index every coefficient as a numpy mask, probing all key bits at once
    _, pk = bfv.keygen(small_params, make_rng(30))
    for bad in (True, 1.0, np.uint8(1)):
        with pytest.raises(ValueError, match="monomial index"):
            bit_leak_probe(pk, bad, small_params)
    assert bit_leak_probe(pk, np.int64(1), small_params) == bit_leak_probe(pk, 1, small_params)


def test_bit_leak_at_full_size_spot_indices():
    params = get_params("bitleak-2048")
    sk, pk = bfv.keygen(params, make_rng(9))
    oracle = ZeroCheckOracle.honest(sk, params)
    s = sk.s.to_coeff_list()
    for index in (0, 1, 512, 2047):
        zero = oracle(bit_leak_probe(pk, index, params))
        assert (0 if zero else 1) == s[index]


# --- circuit-privacy recovery ------------------------------------------------------


def _honest_exchange(params, rng, m_a_value, m_b_value, r_value):
    sk, pk = bfv.keygen(params, rng)
    m_a = monomial(0, m_a_value, params.d, params.t)
    c_a = bfv.encrypt(pk, m_a, rng)
    response = bfv.mul_plain(
        bfv.sub_from_plain(monomial(0, m_b_value, params.d, params.t), c_a),
        monomial(0, r_value, params.d, params.t),
    )
    return sk, c_a, m_a, response


def test_circuit_privacy_recovery_exact():
    params = get_params("psi-83")
    rng = make_rng(10)
    for _ in range(10):
        m_a = int(rng.integers(-41, 42))
        m_b = int(rng.integers(-41, 42))
        r = int(rng.integers(1, 83))
        r = r - 83 if r > 41 else r
        sk, c_a, m_a_pt, response = _honest_exchange(params, rng, m_a, m_b, r)
        r_rec, m_b_rec = circuit_privacy_recover(sk, c_a, m_a_pt, response)
        assert r_rec.to_coeff_list()[0] == r
        assert m_b_rec.to_coeff_list()[0] == m_b


def test_circuit_privacy_recovery_edge_multipliers():
    params = get_params("psi-83")
    rng = make_rng(11)
    for r in (1, -1, 41, -41):
        sk, c_a, m_a_pt, response = _honest_exchange(params, rng, 7, -29, r)
        r_rec, m_b_rec = circuit_privacy_recover(sk, c_a, m_a_pt, response)
        assert r_rec.to_coeff_list()[0] == r
        assert m_b_rec.to_coeff_list()[0] == -29


def test_circuit_privacy_recovery_equal_inputs():
    params = get_params("psi-83")
    rng = make_rng(12)
    sk, c_a, m_a_pt, response = _honest_exchange(params, rng, 13, 13, 5)
    r_rec, m_b_rec = circuit_privacy_recover(sk, c_a, m_a_pt, response)
    assert r_rec.to_coeff_list()[0] == 5
    assert m_b_rec.to_coeff_list()[0] == 13


def test_circuit_privacy_recovers_every_honest_trial_when_noise_wraps():
    # At q = 97 the scaled noise r*n_j wraps mod q and the rounding by
    # delta is off, yet the reply still determines (r, m_b) exactly.
    params = BfvParams(d=8, q=97, t=7)
    report = run_circuit_privacy_attack(params, make_rng(26), trials=750)
    assert report.details["recoveries"] == 750
    assert report.details["blocked"] == 0


def test_circuit_privacy_recovers_every_honest_trial_at_even_t(small_params):
    # at t = 256 with t | q, an even r makes m_b and m_b + t/2 give the same
    # reply, so only a unit r leaves one pair (r, m_b) to recover
    report = run_circuit_privacy_attack(small_params, make_rng(29), trials=16)
    assert report.details["recoveries"] == 16
    assert report.success
    # a reply whose constant term is off by one fits the tail's r and no m_b
    sk, c_a, m_a, response = _honest_exchange(small_params, make_rng(29), 7, -29, 1)
    c0 = response.c0 + monomial(0, 1, small_params.d, small_params.q)
    with pytest.raises(FloodedOrMalformedError, match="^0 scalar pairs"):
        circuit_privacy_recover(sk, c_a, m_a, Ciphertext(c0, response.c1, small_params))


def test_reply_pairs_match_the_residue_scan():
    # q = 2**k: a noise coefficient sharing 2**e with q leaves up to 2**e
    # candidate r, so even t and non-unit r give several pairs or none
    rng = make_rng(37)
    d = 4
    seen = set()
    for _ in range(400):
        k = int(rng.integers(6, 12))
        q = 1 << k
        t = int(rng.integers(2, min(q, 80)))
        params = BfvParams(d=d, q=q, t=t)
        e = int(rng.integers(0, k))
        noise = [center_mod(int(v) << e, q) for v in rng.integers(-3, 4, d)]
        if not any(noise[1:]):
            noise[1] = 1 << e if e < k - 1 else -(1 << e)
        m_a, m_b, r = (int(v) for v in rng.integers(-(t // 2), (t + 1) // 2, 3))
        raw = [center_mod(r * (params.delta * (m_b - m_a) - noise[0]), q)]
        raw += [center_mod(-r * n, q) for n in noise[1:]]
        if rng.random() < 0.3:  # a reply no honest evaluation gives
            raw[int(rng.integers(0, d))] += int(rng.integers(1, 4))
        expected = reply_pairs_scan(noise, raw, m_a, t, q)
        noise_poly, raw_coeffs = Polynomial(noise, q), Polynomial(raw, q).coeffs
        if expected is None:
            with pytest.raises(FloodedOrMalformedError, match="response tail"):
                _reply_pairs(noise_poly, raw_coeffs, m_a, params)
            seen.add("no r")
        else:
            assert sorted(_reply_pairs(noise_poly, raw_coeffs, m_a, params)) == expected
            seen.add(min(len(expected), 2))
    assert seen == {"no r", 0, 1, 2}


def test_random_multiplier_draws_once_at_prime_t(small_prime_t_params):
    t = small_prime_t_params.t
    for seed in range(20):
        rng = make_rng(seed)
        replay = copy.deepcopy(rng)
        r = random_multiplier(small_prime_t_params, rng)
        assert r == reduce_centered(int(replay.integers(1, t)), t)
        assert rng.bit_generator.state == replay.bit_generator.state


def test_circuit_trial_multiplies_its_response_by_s_once(small_prime_t_params, monkeypatch):
    # two products c1*s per trial: one reads the query's noise, and the
    # correctness check and the recovery share the response's one
    multiplied = []
    decrypt_raw = bfv.decrypt_raw

    def counting(sk, ct):
        if not ct.c1.is_zero():
            multiplied.append(ct)
        return decrypt_raw(sk, ct)

    monkeypatch.setattr(bfv, "decrypt_raw", counting)
    report = run_circuit_privacy_attack(small_prime_t_params, make_rng(28), trials=5)
    assert report.success and len(multiplied) == 10
    # the list keeps every ciphertext alive, so distinct ids are distinct ciphertexts
    assert len({id(ct) for ct in multiplied}) == 10


def test_bob_reply_refuses_flood_its_reply_cannot_carry(small_prime_t_params):
    params = small_prime_t_params
    q, t, d = params.q, params.t, params.d
    rng = make_rng(27)
    sk, pk = bfv.keygen(params, rng)
    m_a, m_b, r = (monomial(0, v, params.d, params.t) for v in (-41, 41, 41))
    c_a = bfv.encrypt(pk, m_a, rng)
    # worst case |r|*((2d+1)*tail + (q mod t)) + F + 2d*tail within the margin
    margin = (q - t * (q % t) - 1) // (2 * t)
    largest = margin - 41 * ((2 * d + 1) * 19 + q % t) - 2 * d * 19
    with pytest.raises(ValueError, match="flooded reply noise"):
        bob_reply(c_a, m_b, r, pk, rng, largest + 1)
    bfv.encrypt_zero_flood(pk, largest + 1, rng)  # the zero alone is fine
    # the bound is checked before it is added to: "7", [1] and b"x" raised TypeError
    for not_int in (2.5, "7", [1], b"x"):
        with pytest.raises(ValueError, match="flood_bound must be an integer"):
            bob_reply(c_a, m_b, r, pk, rng, not_int)
        with pytest.raises(ValueError, match="flood_bound must be an integer"):
            run_circuit_privacy_attack(params, make_rng(28), flood_bound=not_int)
    expected = monomial(0, 41 * 82, params.d, params.t)
    for _ in range(100):
        reply = bob_reply(c_a, m_b, r, pk, rng, largest)
        assert bfv.decrypt(sk, reply) == expected


def test_circuit_privacy_blocked_by_flooding():
    params = get_params("psi-83")
    rng = make_rng(13)
    for bound in (50, 2**20, 2**30):
        sk, pk = bfv.keygen(params, rng)
        m_a = monomial(0, 3, params.d, params.t)
        c_a = bfv.encrypt(pk, m_a, rng)
        response = bfv.mul_plain(
            bfv.sub_from_plain(monomial(0, 10, params.d, params.t), c_a),
            monomial(0, 4, params.d, params.t),
        )
        flooded = bfv.add(response, bfv.encrypt_zero_flood(pk, bound, rng))
        with pytest.raises(FloodedOrMalformedError):
            circuit_privacy_recover(sk, c_a, m_a, flooded)


def test_circuit_privacy_needs_noise_structure():
    params = get_params("psi-83")
    rng = make_rng(14)
    sk, _ = bfv.keygen(params, rng)
    d, q, delta = params.d, params.q, params.delta
    # noiseless encryption of m_a = 3: n = 0 identically
    m_a = monomial(0, 3, params.d, params.t)
    c_a = Ciphertext(Polynomial(m_a.coeffs, q) * delta, monomial(0, 0, d, q), params)
    response = bfv.mul_plain(
        bfv.sub_from_plain(monomial(0, 9, params.d, params.t), c_a),
        monomial(0, 2, params.d, params.t),
    )
    with pytest.raises(InsufficientNoiseStructureError):
        circuit_privacy_recover(sk, c_a, m_a, response)


def test_circuit_privacy_rejects_non_scalar_m_a():
    params = get_params("psi-83")
    rng = make_rng(15)
    sk, pk = bfv.keygen(params, rng)
    m_a = bfv.plaintext([1, 2], params)
    c_a = bfv.encrypt(pk, m_a, rng)
    with pytest.raises(ValueError):
        circuit_privacy_recover(sk, c_a, m_a, c_a)


def test_evaluation_noise_is_the_encryption_randomness_combination():
    # the key alone reads n = e1 + e2*s - e*u, with e = -(pk0 + pk1*s) and
    # u, e1, e2 replayed from a copy of the generator encrypt draws from;
    # at q = 97 the identity holds mod q, where n can exceed q/2
    wrapping = BfvParams(d=8, q=97, t=7)
    for params, trials in ((get_params("psi-83"), 3), (wrapping, 50)):
        rng = make_rng(16)
        sk, pk = bfv.keygen(params, rng)
        e = -(pk.pk0 + pk.pk1 * sk.s)
        for _ in range(trials):
            m_a = monomial(0, int(rng.integers(0, params.t)), params.d, params.t)
            u, e1, e2 = encrypt_draws(params, rng)
            c_a = bfv.encrypt(pk, m_a, rng)
            assert evaluation_noise(sk, c_a, m_a) == e1 + e2 * sk.s - e * u


# --- encoder leak ---------------------------------------------------------------------


def test_encoder_leak_demo_exact_polynomials():
    params = get_params("cca-1024")
    first, second = run_encoder_leak_demo(params, make_rng(17)).details["pairs"]
    assert first["inputs"] == [1, 3]
    assert second["inputs"] == [2, 2]
    x_plus_2 = Polynomial([2, 1] + [0] * (params.d - 2), params.t)
    two_x = Polynomial([0, 2] + [0] * (params.d - 2), params.t)
    assert first["decrypted_hex"] == x_plus_2.to_hex()
    assert second["decrypted_hex"] == two_x.to_hex()
    assert first["decoded"] == second["decoded"] == 4


# --- harnesses and reports -------------------------------------------------------------


def test_run_cca_attack_report(small_params):
    report = run_cca_attack(small_params, make_rng(18))
    assert report.success
    assert report.oracle_calls == 1
    assert report.attack == "cca-one-query"
    assert report.parameter_set["d"] == small_params.d


def test_reports_name_the_set_their_params_equal(small_params):
    # the name is looked up in PARAM_SETS, so no caller passes it
    report = run_cca_attack(get_params("cca-1024"), make_rng(18))
    assert report.parameter_set["name"] == "cca-1024"
    assert "name" not in run_cca_attack(small_params, make_rng(18)).parameter_set
    # the lookup names one set only because no two sets are equal
    assert len(set(PARAM_SETS.values())) == len(PARAM_SETS)


def test_run_bit_leak_attack_report(small_params):
    report = run_bit_leak_attack(small_params, make_rng(19))
    assert report.success
    assert report.oracle_calls == small_params.d


def test_run_circuit_privacy_attack_counts(small_prime_t_params):
    report = run_circuit_privacy_attack(small_prime_t_params, make_rng(20), trials=25)
    assert report.success
    assert report.details["recoveries"] == 25
    assert report.details["blocked"] == 0
    assert report.details["correctness_failures"] == 0

    flooded = run_circuit_privacy_attack(
        small_prime_t_params, make_rng(20), flood_bound=2**10, trials=25
    )
    assert not flooded.success
    assert flooded.details["blocked"] == 25
    assert flooded.details["correctness_failures"] == 0
    with pytest.raises(ValueError):
        run_circuit_privacy_attack(small_prime_t_params, make_rng(20), trials=0)
    # True used to write "trials": true into the report, and 2.5 raised TypeError
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match="trials must be an integer"):
            run_circuit_privacy_attack(small_prime_t_params, make_rng(20), trials=bad)
    one = run_circuit_privacy_attack(small_prime_t_params, make_rng(20), trials=np.int64(1))
    assert type(one.details["trials"]) is int


def test_run_encoder_leak_demo_report():
    report = run_encoder_leak_demo(get_params("cca-1024"), make_rng(21))
    assert report.success
    assert report.details["polynomials_differ"]
    assert report.details["decodes_agree"]
    assert report.oracle_calls == 0


def test_reports_are_deterministic_per_seed(small_params):
    a = run_cca_attack(small_params, make_rng(22)).to_json()
    b = run_cca_attack(small_params, make_rng(22)).to_json()
    assert a == b


def test_oracle_counters_track_every_call(small_params):
    sk, pk = bfv.keygen(small_params, make_rng(23))
    dec = DecryptionOracle.honest(sk, small_params)
    zc = ZeroCheckOracle.honest(sk, small_params)
    one = monomial(0, 1, small_params.d, small_params.t)
    ct = bfv.encrypt(pk, one, make_rng(24))
    for expected in (1, 2, 3):
        dec(ct)
        assert dec.calls == expected
    assert zc(ct) is False
    assert zc.calls == 1
