import copy

import numpy as np
import pytest

from bfvlab import BfvParams, Polynomial, sample_binary, sample_gaussian


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def encrypt_draws(
    params: BfvParams, rng: np.random.Generator
) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The u, e1, e2 that bfv.encrypt will draw next from rng, replayed from a copy."""
    replay = copy.deepcopy(rng)
    u = sample_binary(params.d, params.q, replay)
    e1 = sample_gaussian(params.d, params.q, params.sigma, replay)
    e2 = sample_gaussian(params.d, params.q, params.sigma, replay)
    return u, e1, e2


@pytest.fixture
def small_params() -> BfvParams:
    """Fast parameters with t | q, so plaintext scaling is exact."""
    return BfvParams(d=64, q=2**30, t=256)


@pytest.fixture
def small_prime_t_params() -> BfvParams:
    """Fast parameters with a prime t that does not divide q."""
    return BfvParams(d=64, q=2**30, t=83)
