import numpy as np
import pytest

import nesslab as nl


def _dense_evolve(A, basis, t):
    """Dense oracle A(t) = U A U^H, U = exp(iHt) = V exp(iEt) V^H from an eigenbasis of H."""
    V = basis.vectors
    U = (V * np.exp(1j * basis.energies * t)) @ V.conj().T
    return U @ A @ U.conj().T


@pytest.fixture(scope="session")
def dense_evolve():
    return _dense_evolve


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def xx_model():
    return nl.build_xx_model()


@pytest.fixture(scope="session")
def chain10():
    return nl.ChainConfig(10, 2)


@pytest.fixture(scope="session")
def chain12():
    return nl.ChainConfig(12, 2)


@pytest.fixture(scope="session")
def xx10_state(xx_model, chain10):
    phi, spec = xx_model
    return nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5), chain10)


@pytest.fixture(scope="session")
def xx12_state(xx_model, chain12):
    """The acceptance-scale biased XX state; built once per session."""
    phi, spec = xx_model
    return nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5), chain12)
