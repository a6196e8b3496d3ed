import numpy as np
import pytest

from qmeasure import DensityOperator, LinearOperator, PureState


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_hermitian(rng, dim: int) -> LinearOperator:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return LinearOperator(m + m.conj().T)


def random_state(rng, dim: int) -> PureState:
    return PureState(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_density(rng, dim: int) -> DensityOperator:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return DensityOperator(m / np.trace(m))


def near_boundary_density(rng) -> DensityOperator:
    """A dim-10 rho with five eigenvalues at -5e-11, inside the constructor's -1e-10 bound.

    The other five sum to 1 + 2.5e-10, so the trace is 1: weights that drop
    the negative eigenvalues without rescaling the rest sum to 1 + 2.5e-10.
    """
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    positive = rng.uniform(0.5, 1.5, 5)
    evals = np.concatenate([np.full(5, -5e-11), positive / positive.sum() * (1 + 2.5e-10)])
    m = (q * evals) @ q.conj().T
    return DensityOperator((m + m.conj().T) / 2)


def random_projector(rng, dim: int, rank: int) -> LinearOperator:
    q, _ = np.linalg.qr(rng.standard_normal((dim, rank))
                        + 1j * rng.standard_normal((dim, rank)))
    return LinearOperator(q @ q.conj().T)
