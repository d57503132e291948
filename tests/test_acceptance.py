"""Full-size demonstrations at the published parameter sets.

Each test prints one PASS/FAIL line so a run doubles as a checklist.
Runtime is a few minutes; the bit-oracle sweep dominates.
"""

import json
import time

import numpy as np

import bfvlab.bfv as bfv
import bfvlab.psi as psi
from bfvlab import Ciphertext, cli, get_params
from bfvlab.attacks import (
    AttackError,
    bit_leak_offset,
    bit_leak_probe,
    circuit_privacy_recover,
    run_encoder_leak_demo,
)
from bfvlab.ring import Polynomial, gaussian_tail, monomial, reduce_centered

from conftest import make_rng
from oracles import negacyclic_mul_oracle, round_ratio_oracle


def _report(capsys, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_one_query_key_recovery_at_full_size(tmp_path, capsys):
    params = get_params("cca-1024")
    exact = 0
    worst = 0.0
    for seed in range(20):
        out = tmp_path / f"cca-{seed}.json"
        start = time.perf_counter()
        rc = cli.main(["attack", "cca", "--seed", str(seed), "--out", str(out)])
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        report = json.loads(out.read_text())
        sk, _ = bfv.keygen(params, np.random.default_rng(seed))
        if (
            rc == 0
            and report["oracle_calls"] == 1
            and report["recovered"]["secret_key"] == sk.s.to_hex()
            and elapsed < 5.0
        ):
            exact += 1
    _report(
        capsys,
        exact == 20,
        f"one-query decryption oracle: {exact}/20 seeds gave the exact "
        f"1024-bit key in one call (worst run {worst:.2f}s)",
    )


def test_bit_oracle_full_key_recovery(tmp_path, capsys):
    params = get_params("bitleak-2048")
    exact = 0
    worst = 0.0
    for seed in range(10):
        out = tmp_path / f"bitleak-{seed}.json"
        start = time.perf_counter()
        rc = cli.main(["attack", "bitleak", "--seed", str(seed), "--out", str(out)])
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        report = json.loads(out.read_text())
        sk, _ = bfv.keygen(params, np.random.default_rng(seed))
        if (
            rc == 0
            and report["oracle_calls"] == 2048
            and report["recovered"]["secret_key"] == sk.s.to_hex()
            and elapsed < 60.0
        ):
            exact += 1
    _report(
        capsys,
        exact == 10,
        f"zero-check oracle: {exact}/10 seeds recovered all 2048 key bits "
        f"in exactly 2048 queries (worst run {worst:.1f}s)",
    )


def _random_pair(rng):
    m_a = int(rng.integers(-41, 42))
    m_b = m_a if rng.random() < 0.5 else int(rng.integers(-41, 42))
    return m_a, m_b


def test_circuit_privacy_recovery_and_flooding_defense(capsys):
    params = get_params("psi-83")
    t = params.t

    recovered = 0
    honest_outcomes = 0
    rng = make_rng(2026)
    for _ in range(500):
        m_a, m_b = _random_pair(rng)
        transcript = psi.run_session(params, m_a, m_b, rng.spawn(1)[0])
        alice, bob = transcript.alice, transcript.bob
        expected = "equal" if reduce_centered(m_a - m_b, t) == 0 else "not-equal"
        if transcript.outcome == expected:
            honest_outcomes += 1
        c_a, _ = bfv.ciphertext_from_json(transcript.frames[1]["body"])
        c_ab, _ = bfv.ciphertext_from_json(transcript.frames[2]["body"])
        try:
            r_rec, m_b_rec = circuit_privacy_recover(alice.sk, c_a, alice.m_a, c_ab, params)
        except AttackError:
            continue
        if (
            r_rec == bob.r
            and m_b_rec.to_coeff_list()[0] == reduce_centered(m_b, t)
        ):
            recovered += 1

    flood_recovered = 0
    flood_outcomes = 0
    rng = make_rng(2027)
    for _ in range(500):
        m_a, m_b = _random_pair(rng)
        transcript = psi.run_session(
            params, m_a, m_b, rng.spawn(1)[0], strategy=psi.Flooding(bound=2**30)
        )
        alice, bob = transcript.alice, transcript.bob
        expected = "equal" if reduce_centered(m_a - m_b, t) == 0 else "not-equal"
        if transcript.outcome == expected:
            flood_outcomes += 1
        c_a, _ = bfv.ciphertext_from_json(transcript.frames[1]["body"])
        c_ab, _ = bfv.ciphertext_from_json(transcript.frames[2]["body"])
        try:
            r_rec, m_b_rec = circuit_privacy_recover(alice.sk, c_a, alice.m_a, c_ab, params)
        except AttackError:
            continue
        if (
            r_rec == bob.r
            and m_b_rec.to_coeff_list()[0] == reduce_centered(m_b, t)
        ):
            flood_recovered += 1

    ok = (
        recovered == 500
        and honest_outcomes == 500
        and flood_recovered <= 1
        and flood_outcomes == 500
    )
    _report(
        capsys,
        ok,
        f"response transcripts: honest sessions leaked Bob's (r, input) "
        f"{recovered}/500; flooded sessions leaked {flood_recovered}/500 "
        f"while keeping all {flood_outcomes}/500 outcomes correct",
    )


def test_encoder_sum_leak_is_bit_exact(capsys):
    params = get_params("cca-1024")
    first, second = run_encoder_leak_demo(params, make_rng(7)).details["pairs"]
    x_plus_2 = bfv.plaintext([2, 1], params)
    two_x = bfv.plaintext([0, 2], params)
    ok = (
        first["decrypted_hex"] == x_plus_2.to_hex()
        and second["decrypted_hex"] == two_x.to_hex()
        and first["decoded"] == 4
        and second["decoded"] == 4
        and first["decrypted_hex"] != second["decrypted_hex"]
    )
    _report(
        capsys,
        ok,
        "encoder leak: 1+3 decrypts to exactly x+2 and 2+2 to exactly 2x, "
        "both decoding to 4",
    )


def test_scheme_roundtrip_and_additive_homomorphism(capsys):
    totals = []
    for name in ("cca-1024", "bitleak-2048", "psi-83"):
        params = get_params(name)
        rng = make_rng(sum(name.encode()))
        sk, pk = bfv.keygen(params, rng)
        good = 0
        for _ in range(1000):
            a = bfv.plaintext(
                [int(c) for c in rng.integers(0, params.t, size=params.d)], params
            )
            b = bfv.plaintext(
                [int(c) for c in rng.integers(0, params.t, size=params.d)], params
            )
            ct_a = bfv.encrypt(pk, a, params, rng)
            ct_b = bfv.encrypt(pk, b, params, rng)
            if (
                bfv.decrypt(sk, ct_a, params) == a
                and bfv.decrypt(sk, ct_b, params) == b
                and bfv.decrypt(sk, bfv.add(ct_a, ct_b), params) == a + b
            ):
                good += 1
        totals.append((name, good))
    ok = all(good == 1000 for _, good in totals)
    summary = ", ".join(f"{name} {good}/1000" for name, good in totals)
    _report(capsys, ok, f"roundtrip and additive homomorphism: {summary}")


def test_ring_multiplication_against_bruteforce_oracle(capsys):
    rng = make_rng(41)
    good = 0
    for _ in range(1000):
        a = [int(c) for c in rng.integers(-48, 49, size=8)]
        b = [int(c) for c in rng.integers(-48, 49, size=8)]
        product = Polynomial(a, 97) * Polynomial(b, 97)
        if product.to_coeff_list() == negacyclic_mul_oracle(a, b, 97):
            good += 1
    _report(
        capsys,
        good == 1000,
        f"ring multiplication matches the schoolbook oracle: {good}/1000 pairs",
    )


def test_probe_rounding_margins(capsys):
    params = get_params("bitleak-2048")
    q, t, d = params.q, params.t, params.d
    m_val = bit_leak_offset(params)
    # noise never exceeds the sampler's tail; the probe adds tail + 1 of slack
    tail = gaussian_tail(params.sigma)
    checked = 0
    good = 0
    sampled_ok = True
    for seed in range(5):
        rng = make_rng(900 + seed)
        sk, pk = bfv.keygen(params, rng)
        s = sk.s.to_coeff_list()
        # raw decryption of every probe differs from this base only at
        # the probed coefficient, where m_val is added
        base_ct = Ciphertext(pk.pk0, pk.pk1 + monomial(0, m_val, params.d, params.q))
        base = bfv.decrypt_raw(sk, base_ct).to_coeff_list()

        for index in rng.choice(d, size=16, replace=False):
            ct = bit_leak_probe(pk, int(index), params)
            raw = bfv.decrypt_raw(sk, ct).to_coeff_list()
            expected = list(base)
            expected[index] = reduce_centered(base[index] + m_val, q)
            sampled_ok = sampled_ok and raw == expected
            decrypted = bfv.decrypt(sk, ct, params).to_coeff_list()
            target_only = all(
                c == (s[index] if j == index else 0) for j, c in enumerate(decrypted)
            )
            sampled_ok = sampled_ok and target_only

        non_target_ok = all(2 * abs(c) * t < q for c in base)
        for index in range(d):
            checked += 1
            value = reduce_centered(base[index] + m_val, q)
            noise = abs(value - m_val * (1 + s[index]))
            margin = abs(2 * value * t - q)
            if (
                non_target_ok
                and noise <= tail
                and margin >= 2 * (tail + 1 - noise) * t > 0
                and round_ratio_oracle(value * t, q) == s[index]
            ):
                good += 1
    _report(
        capsys,
        good == checked == 5 * d and sampled_ok,
        f"probe rounding margins: {good}/{checked} probes stay clear of the "
        f"rounding boundary by the guaranteed slack",
    )
