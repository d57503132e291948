"""Even a single bit of decryption feedback leaks the key: one
"did this decrypt to zero?" answer per key bit."""

import time

import numpy as np

import bfvlab.bfv as bfv
from bfvlab import gaussian_tail, get_params
from bfvlab.attacks import ZeroCheckOracle, bit_leak_attack, bit_leak_offset, bit_leak_probe

params = get_params("bitleak-2048")
rng = np.random.default_rng(2)
sk, pk = bfv.keygen(params, rng)
oracle = ZeroCheckOracle.honest(sk, params)

# probe i shifts the public key by M at coefficient i with M just above
# delta/4 + tail: the sum M*(1 + s_i) rounds to zero exactly when s_i = 0
m_val = bit_leak_offset(params)
tail = gaussian_tail(params.sigma)
print(f"probe amplitude M = delta/4 + tail + 1 = {m_val} (sampler tail {tail})")
for index in (0, 1, 2, 3):
    answer = oracle(bit_leak_probe(pk, index, params))
    print(f"bit {index}: decrypts to zero = {answer}  ->  s_{index} = {int(not answer)}"
          f"  (truth {sk.s.to_coeff_list()[index]})")

# the full sweep asks one question per coefficient
oracle = ZeroCheckOracle.honest(sk, params)
start = time.perf_counter()
recovered = bit_leak_attack(oracle, pk, params)
elapsed = time.perf_counter() - start

print(f"queries: {oracle.calls} for {params.d} key bits")
print(f"recovered == secret key: {recovered.s == sk.s}  ({elapsed:.1f}s)")
