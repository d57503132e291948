"""Two-party equality via blinded homomorphic subtraction, and how a
curious Alice reads Bob's input out of the response unless Bob floods
the ciphertext with extra noise."""

import numpy as np

import bfvlab.bfv as bfv
import bfvlab.psi as psi
from bfvlab import get_params
from bfvlab.attacks import FloodedOrMalformedError, circuit_privacy_recover

params = get_params("psi-83")
rng = np.random.default_rng(3)

# honest run: Bob returns Enc(r * (m_b - m_a)), Alice learns only equal/not
transcript = psi.run_session(params, 17, 17, rng.spawn(1)[0])
print(f"m_a = 17, m_b = 17  ->  {transcript.outcome}")
transcript = psi.run_session(params, 17, 29, rng.spawn(1)[0])
print(f"m_a = 17, m_b = 29  ->  {transcript.outcome}")

# but the response reuses the noise of Alice's own query, scaled by r.
# Alice reads that noise off her query with her key alone, so she can
# strip the blinding; the transcript carries both parties' final states
# for the comparison
transcript = psi.run_session(params, 17, 29, rng.spawn(1)[0])
alice, bob = transcript.alice, transcript.bob
query_ct, _ = bfv.ciphertext_from_json(transcript.frames[1]["body"])
response_ct, _ = bfv.ciphertext_from_json(transcript.frames[2]["body"])
r, m_b = circuit_privacy_recover(alice.sk, query_ct, alice.m_a, response_ct, params)
print(f"recovered blinding r = {r.to_coeff_list()[0]}"
      f" (truth {bob.r.to_coeff_list()[0]})")
print(f"recovered Bob input = {m_b.to_coeff_list()[0]}"
      f" (truth {bob.m_b.to_coeff_list()[0]})")

# countermeasure: Bob adds fresh uniform noise far above the old noise
# but still far below delta/2, drowning the structure the attack needs
transcript = psi.run_session(
    params, 17, 29, rng.spawn(1)[0], strategy=psi.Flooding(bound=2**30)
)
alice = transcript.alice
print(f"flooded session outcome: {transcript.outcome} (still correct)")
query_ct, _ = bfv.ciphertext_from_json(transcript.frames[1]["body"])
response_ct, _ = bfv.ciphertext_from_json(transcript.frames[2]["body"])
try:
    circuit_privacy_recover(alice.sk, query_ct, alice.m_a, response_ct, params)
    print("recovery still worked (unexpected)")
except FloodedOrMalformedError as exc:
    print(f"recovery failed: {exc}")
