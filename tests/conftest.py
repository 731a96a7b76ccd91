import numpy as np
import pytest

from cavitydd import CouplingSet, designer, gaussian, hermitian, shapes


def random_couplings(rng, dim, scale=0.35):
    """Random bounded Hermitian coupling quadruple."""
    mats = []
    for _ in range(4):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = (m + m.conj().T) / 2
        mats.append(scale * m / max(1.0, np.linalg.norm(m, 2)))
    return CouplingSet(*mats)


def chemical_shift(delta):
    """Scalar coupling set with Az = delta/2 (single-qubit NMR test model).

    ``delta`` is an absolute angular frequency; the non-qubit factor is
    one-dimensional.
    """
    one = np.eye(1, dtype=complex)
    zero = np.zeros((1, 1), dtype=complex)
    return CouplingSet(a0=zero, ax=zero, ay=zero, az=(delta / 2) * one)


def cosine_average(shape):
    """<cos phi(t)> over the pulse from the quadrature phase samples; it
    vanishes for symmetric pi shapes."""
    n = shapes.DEFAULT_N_QUAD
    phi = shapes._sampled(shape, n)[2]
    return shapes._simpson(np.cos(phi), shape.taup / n) / shape.taup


@pytest.fixture(scope="session")
def g10():
    return gaussian(0.10)


@pytest.fixture(scope="session")
def h05():
    return hermitian(0.05)


@pytest.fixture(scope="session")
def q1_shape():
    return designer.design_named("Q1").shape


@pytest.fixture(scope="session")
def s1_shape():
    return designer.design_named("S1").shape
