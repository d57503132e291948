"""The whole lab, byte for byte, against the schoolbook ring product.

Every attack harness and every kind of psi session runs twice on the same
seed: once as it is, and once with Polynomial._ring_mul replaced by
oracles.negacyclic_mul_oracle, so that no product goes through the FFT kernel
or the scalar path.  Reports, transcripts, raised errors and the generator's
final state must agree.
"""

import numpy as np
import pytest

from bfvlab import BfvParams, Polynomial, attacks, psi, ring

from oracles import negacyclic_mul_oracle

# d = 32 and 64 run the kernel's radix-2 and radix-4 leading stages (n = 16,
# 32); the odd moduli and every modulus here reach the kernel's reduction
# before recombining, since d * La * Lb >= q for a one-limb plan
PARAMS = [
    BfvParams(d=4, q=12289, t=3, sigma=0.5),
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
