"""Key generation, encryption, decryption and additive homomorphism
at the cca-1024 parameter set."""

import numpy as np

import bfvlab.bfv as bfv
from bfvlab import gaussian_tail, get_params

params = get_params("cca-1024")
print(f"ring degree d = {params.d}, ciphertext modulus q = 2^{params.q.bit_length() - 1}")
print(f"plaintext modulus t = {params.t}, scaling factor delta = q // t = {params.delta}")

rng = np.random.default_rng(0)
sk, pk = bfv.keygen(params, rng)

# the public key hides the secret: pk0 + pk1 * s = -e for a short e
e = -(pk.pk0 + pk.pk1 * sk.s)
print(f"key relation noise: max |e_i| = {e.max_abs()} (tail bound {gaussian_tail(params.sigma)})")

m = bfv.plaintext([7, 1, 255], params)
ct = bfv.encrypt(pk, m, params, rng)
decrypted = bfv.decrypt(sk, ct, params)
print(f"plaintext  {m.to_coeff_list()[:4]} ...")
print(f"decrypted  {decrypted.to_coeff_list()[:4]} ...  (255 centers to -1 mod 256)")

# before rounding, the raw decryption is delta * m plus a small noise term
raw = bfv.decrypt_raw(sk, ct)
noise = bfv.noise(sk, ct, m, params).max_abs()
print(f"raw[0] = {raw.to_coeff_list()[0]} = delta * 7 + {raw.to_coeff_list()[0] - 7 * params.delta}")
print(f"noise after encryption: {noise} of a q/2t budget of {params.q // (2 * params.t)}")

# ciphertext addition is plaintext addition
a = bfv.plaintext([3, 10], params)
b = bfv.plaintext([4, 20], params)
ct_a = bfv.encrypt(pk, a, params, rng)
ct_b = bfv.encrypt(pk, b, params, rng)
total = bfv.decrypt(sk, bfv.add(ct_a, ct_b), params)
print(f"Dec(Enc(3 + 10x) + Enc(4 + 20x)) = {total.to_coeff_list()[:3]} ...")
