"""bfvlab: a toy-but-exact BFV scheme and the attacks it invites.

The scheme (ring arithmetic, key generation, encryption, additive
homomorphic operations) is implemented with exact integer arithmetic
at the original parameter sizes.  On top of it sit four experiments:
a one-query chosen-ciphertext key recovery, a key-bit leak through a
decrypts-to-zero oracle, plaintext recovery through missing circuit
privacy in a two-party equality protocol, and the many-to-one integer
encoder that leaks inputs through homomorphic sums.  Noise flooding is
included as the countermeasure for the circuit-privacy leak.
"""

from .ring import (
    Polynomial,
    monomial,
    reduce_centered,
    gaussian_tail,
    sample_binary,
    sample_gaussian,
    sample_uniform,
)
from .bfv import (
    PARAM_SETS,
    BfvParams,
    Ciphertext,
    PublicKey,
    SecretKey,
    add,
    check_decrypt_margin,
    decrypt,
    decrypt_raw,
    encrypt,
    encrypt_zero_flood,
    get_params,
    keygen,
    mul_plain,
    plaintext,
    sub_from_plain,
)
from .encoders import integer_decode, integer_encode
from . import attacks, psi

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "monomial",
    "reduce_centered",
    "gaussian_tail",
    "sample_binary",
    "sample_gaussian",
    "sample_uniform",
    "PARAM_SETS",
    "BfvParams",
    "Ciphertext",
    "PublicKey",
    "SecretKey",
    "add",
    "check_decrypt_margin",
    "decrypt",
    "decrypt_raw",
    "encrypt",
    "encrypt_zero_flood",
    "get_params",
    "keygen",
    "mul_plain",
    "plaintext",
    "sub_from_plain",
    "integer_decode",
    "integer_encode",
    "attacks",
    "psi",
    "__version__",
]
