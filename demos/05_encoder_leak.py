"""The integer encoder leaks more than the decoded value: different
summands leave different polynomials behind."""

import numpy as np

import bfvlab.bfv as bfv
from bfvlab import get_params
from bfvlab.encoders import integer_decode, integer_encode

params = get_params("cca-1024")
rng = np.random.default_rng(4)
sk, pk = bfv.keygen(params, rng)

# two parties contribute private values; the key holder is only meant
# to learn the sum.  1 + 3 and 2 + 2 both sum to 4
for pair in ((1, 3), (2, 2)):
    ct_sum = None
    for value in pair:
        ct = bfv.encrypt(pk, integer_encode(value, params), rng)
        ct_sum = ct if ct_sum is None else bfv.add(ct_sum, ct)
    decrypted = bfv.decrypt(sk, ct_sum)
    coeffs = decrypted.to_coeff_list()[:4]
    decoded = integer_decode(decrypted)
    print(f"{pair[0]} + {pair[1]}: decrypted polynomial {coeffs} ..., decodes to {decoded}")

# 1+3 gives x + 2 (bits 01 + 11 added coefficient-wise), 2+2 gives 2x:
# the decrypted polynomial reveals which addends produced the sum.
# binary encodings add without carries, so coefficient patterns survive
