"""The whole lab, byte for byte, against the schoolbook ring product.

Every attack harness and every kind of psi session runs twice on the same
seed: once as it is, and once with Polynomial._ring_mul replaced by
oracles.negacyclic_mul_oracle, so that no product goes through the FFT kernel
or the scalar path.  Reports, transcripts, raised errors and the generator's
final state must agree.  So must the exit codes and written files of the
five commands the cli-1024 benchmark runs, here at a small explicit set.
"""

import json

import numpy as np
import pytest

from bfvlab import BfvParams, Polynomial, attacks, cli, psi, ring

from oracles import negacyclic_mul_oracle

# d = 32 and 64 run the kernel's radix-2 and radix-4 leading stages (n = 16,
# 32); the odd moduli and every modulus here reach the kernel's reduction
# before recombining, since d * La * Lb >= q for a one-limb plan.  d = 2, 4,
# 8 and 16 are the smallest transforms, n = 1, 2, 4 and 8
PARAMS = [
    BfvParams(d=2, q=2**14, t=7, sigma=0.5),
    BfvParams(d=4, q=12289, t=3, sigma=0.5),
    BfvParams(d=8, q=2**16 + 1, t=5, sigma=1.0),
    BfvParams(d=16, q=2**20, t=16),
    BfvParams(d=32, q=2**30, t=256),
    BfvParams(d=64, q=2**30 - 35, t=83),
]


def oracle_ring_mul(self: Polynomial, other: Polynomial) -> Polynomial:
    product = negacyclic_mul_oracle(self.to_coeff_list(), other.to_coeff_list(), self.modulus)
    return Polynomial(product, self.modulus)


def run_lab(params: BfvParams, seed: int) -> tuple[list, dict]:
    """Every harness and session on one generator: their JSON forms, or the
    type and message of what they raised, and the generator's final state."""
    rng = np.random.default_rng(seed)
    flood = params.q // (16 * params.t)
    runs = [
        lambda: attacks.run_cca_attack(params, rng),
        lambda: attacks.run_bit_leak_attack(params, rng),
        lambda: attacks.run_circuit_privacy_attack(params, rng, trials=3),
        lambda: attacks.run_circuit_privacy_attack(params, rng, flood_bound=flood, trials=2),
        lambda: attacks.run_encoder_leak_demo(params, rng),
        lambda: psi.run_session(params, 1, 1, rng),
        lambda: psi.run_session(params, 1, -1, rng),
        lambda: psi.run_session(params, 1, 1, rng, strategy=psi.Flooding(flood)),
        lambda: psi.run_session(params, 1, 0, rng, strategy=psi.MaliciousBitProbe(params.d - 1)),
    ]
    results = []
    for run in runs:
        try:
            results.append(run().to_json())
        except (ValueError, attacks.AttackError, psi.ProtocolError) as exc:
            results.append((type(exc).__name__, str(exc)))
    return results, rng.bit_generator.state


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"d{p.d}-q{p.q}-t{p.t}")
def test_lab_is_identical_with_the_schoolbook_product(params, monkeypatch):
    kernel_calls, kernel = [], ring._negacyclic_mul

    def counted(a, b, modulus):
        kernel_calls.append(a.size)
        return kernel(a, b, modulus)

    with monkeypatch.context() as patch:
        patch.setattr(ring, "_negacyclic_mul", counted)
        fast = run_lab(params, params.d)
    with monkeypatch.context() as patch:
        patch.setattr(Polynomial, "_ring_mul", oracle_ring_mul)
        slow = run_lab(params, params.d)
    assert fast == slow
    # the comparison is not vacuous: the kernel ran, and every harness and session finished
    assert set(kernel_calls) == {params.d}
    assert all(isinstance(result, dict) for result in fast[0])


def run_cli(work) -> tuple[list[int], dict[str, bytes]]:
    """keygen, encrypt, decrypt, attack cca and attack encoder through cli.main in
    work: their exit codes and the bytes of every file in work afterwards."""
    work.mkdir()
    (work / "m.json").write_text(json.dumps([1, -2, 3, 0, 5]))
    explicit = ["--d", "16", "--q", str(2**16 + 1), "--t", "16"]
    key, m, ct, out, cca, encoder = (
        str(work / name) for name in ("alice", "m.json", "ct.json", "out.json", "cca.json", "encoder.json")
    )
    commands = [
        ["keygen", *explicit, "--seed", "1", "--out", key],
        ["encrypt", "--key", key + ".pk.json", "--in", m, "--out", ct, "--seed", "2"],
        ["decrypt", "--key", key + ".sk.json", "--in", ct, "--out", out],
        ["attack", "cca", *explicit, "--seed", "3", "--out", cca],
        ["attack", "encoder", *explicit, "--seed", "4", "--out", encoder],
    ]
    codes = [cli.main(argv) for argv in commands]
    return codes, {file.name: file.read_bytes() for file in sorted(work.iterdir())}


def test_cli_is_identical_with_the_schoolbook_product(tmp_path, monkeypatch):
    kernel_calls, kernel = [], ring._negacyclic_mul

    def counted(a, b, modulus):
        kernel_calls.append(a.size)
        return kernel(a, b, modulus)

    with monkeypatch.context() as patch:
        patch.setattr(ring, "_negacyclic_mul", counted)
        fast = run_cli(tmp_path / "kernel")
    with monkeypatch.context() as patch:
        patch.setattr(Polynomial, "_ring_mul", oracle_ring_mul)
        slow = run_cli(tmp_path / "oracle")
    assert fast == slow
    assert kernel_calls and fast[0] == [0] * 5
    assert json.loads(fast[1]["out.json"]) == [1, -2, 3, 0, 5] + [0] * 11
