"""Base-2 integer encoder in the style of SEAL's IntegerEncoder.

encode writes the bits of |n| into the low coefficients of a plaintext
polynomial (negated for n < 0); decode evaluates the polynomial at
x = 2 over the integers, using centered coefficient lifts.  The map is
deliberately many-to-one on the decode side: distinct polynomials such
as x + 2 and 2x both evaluate to 4, which is exactly the ambiguity the
encoder-leakage experiment exploits.
"""

from __future__ import annotations

import numpy as np

from .bfv import BfvParams
from .ring import Polynomial, _as_int

__all__ = ["integer_encode", "integer_decode"]


def integer_encode(n: int, params: BfvParams) -> Polynomial:
    """Encode the integer n as a 0/1 (or 0/-1) coefficient polynomial.

    Requires |n| < 2**d so the bits fit, and t > 2 whenever a sign or a
    carry-free sum must survive reduction mod t; coefficients are
    stored centered mod t.
    """
    n = _as_int(n, "n")
    magnitude = abs(n)
    if magnitude.bit_length() > params.d:
        raise OverflowError(
            f"{n} needs {magnitude.bit_length()} bits but the ring degree is {params.d}"
        )
    # centered residues mod 2 are {-1, 0}: no bit value survives t <= 2
    if n != 0 and params.t <= 2:
        raise ValueError("nonzero values are not representable with t <= 2")
    bits = np.unpackbits(
        np.frombuffer(magnitude.to_bytes((params.d + 7) // 8, "little"), dtype=np.uint8),
        count=params.d,
        bitorder="little",
    ).astype(np.int64)
    return Polynomial(bits if n >= 0 else -bits, params.t)


def integer_decode(m: Polynomial) -> int:
    """Evaluate the message m (mod t) at x = 2 using centered coefficients;
    only the nonzero ones are summed."""
    nonzero = np.flatnonzero(m.coeffs)
    return sum(c << i for i, c in zip(nonzero.tolist(), m.coeffs[nonzero].tolist()))
