"""Integer encoder: binary expansion, decode at x = 2, the deliberate
many-to-one collisions, and overflow handling."""

import numpy as np
import pytest

from bfvlab import BfvParams, Polynomial, integer_decode, integer_encode

from conftest import make_rng
from oracles import integer_encode_oracle


@pytest.fixture
def params():
    return BfvParams(d=64, q=2**30, t=256)


def test_encode_frozen_examples(params):
    assert integer_encode(0, params).is_zero()
    assert integer_encode(1, params).to_coeff_list()[:3] == [1, 0, 0]
    assert integer_encode(3, params).to_coeff_list()[:3] == [1, 1, 0]
    assert integer_encode(2, params).to_coeff_list()[:3] == [0, 1, 0]
    assert integer_encode(4, params).to_coeff_list()[:4] == [0, 0, 1, 0]
    assert integer_encode(-3, params).to_coeff_list()[:3] == [-1, -1, 0]


@pytest.mark.parametrize("d", [2, 4, 8, 64, 1024])
@pytest.mark.parametrize("t", [3, 256])
def test_encode_matches_bit_loop_oracle(d, t):
    params = BfvParams(d=d, q=2**30, t=t)
    rng = make_rng(d + t)
    top = 2**d - 1
    drawn = int.from_bytes(rng.bytes((d + 7) // 8), "little") & top
    values = [0, 1, -1, top, -top, top >> 1, -(top >> 1), drawn, -drawn]
    for n in values:
        assert integer_encode(n, params).to_coeff_list() == integer_encode_oracle(n, d)


def test_decode_matches_the_dense_loop():
    # decode sums only the nonzero coefficients; it must equal the loop over
    # every coefficient that it replaced
    def dense(m):
        total = 0
        for i, c in enumerate(m.to_coeff_list()):
            total += c << i
        return total

    rng = make_rng(5)
    d, t = 1024, 256
    sparse = np.zeros(d, dtype=np.int64)
    sparse[[0, 7, 511, 1023]] = [3, -1, 127, -128]
    for coeffs in (
        rng.integers(-(t // 2), t // 2, d),  # dense
        sparse,
        -np.abs(rng.integers(-(t // 2), t // 2, d)),  # negative
        np.zeros(d, dtype=np.int64),
        np.eye(1, d, d - 1, dtype=np.int64)[0],
    ):
        m = Polynomial(coeffs, t)
        assert integer_decode(m) == dense(m)
        assert type(integer_decode(m)) is int
    assert integer_decode(Polynomial(np.zeros(d, dtype=np.int64), t)) == 0


def test_decode_frozen_examples(params):
    x_plus_2 = Polynomial([2, 1] + [0] * 62, params.t)
    two_x = Polynomial([0, 2] + [0] * 62, params.t)
    assert integer_decode(x_plus_2) == 4
    assert integer_decode(two_x) == 4
    assert x_plus_2 != two_x


def test_roundtrip_exhaustive_small_range(params):
    for n in range(-1000, 1001):
        assert integer_decode(integer_encode(n, params)) == n


def test_roundtrip_full_stated_range(params):
    # every |n| <= 10**5
    for n in range(-(10**5), 10**5 + 1):
        assert integer_decode(integer_encode(n, params)) == n


def test_decode_is_additive_without_coefficient_wrap(params):
    rng = make_rng(61)
    for _ in range(500):
        a = int(rng.integers(-(2**20), 2**20))
        b = int(rng.integers(-(2**20), 2**20))
        pa, pb = integer_encode(a, params), integer_encode(b, params)
        total = pa + pb
        assert integer_decode(total) == a + b


def test_encode_overflow():
    tight = BfvParams(d=8, q=2**30, t=256)
    assert integer_decode(integer_encode(255, tight)) == 255
    assert integer_decode(integer_encode(-255, tight)) == -255
    with pytest.raises(OverflowError):
        integer_encode(256, tight)
    with pytest.raises(OverflowError):
        integer_encode(-256, tight)


def test_encode_takes_integers_only(params):
    # 2.5 and np.int64(3) used to raise AttributeError, and True encoded as 1
    for bad in (2.5, True, np.uint8(3), "3"):
        with pytest.raises(ValueError, match="n must be an integer"):
            integer_encode(bad, params)
    assert integer_encode(np.int64(-3), params) == integer_encode(-3, params)


def test_encode_needs_room_for_a_bit_value():
    # centered residues mod 2 are {-1, 0}, so no nonzero value encodes
    binary_t = BfvParams(d=8, q=2**30, t=2)
    with pytest.raises(ValueError):
        integer_encode(-1, binary_t)
    with pytest.raises(ValueError):
        integer_encode(5, binary_t)
    assert integer_decode(integer_encode(0, binary_t)) == 0
