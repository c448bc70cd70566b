"""The exact free-fermion oracle against exact diagonalization of the XX ring."""

import numpy as np
import pytest

import nesslab as nl
from free_fermion import FreeFermionXX

TS = np.array([-1.3, -0.4, 0.0, 0.7, 1.5])


def _agree(state, chain, lam, M, L, window):
    """sum_rule_check's lhs and rhs and the kernel's C(t) match the oracle to 1e-12."""
    phi, spec = nl.build_xx_model()
    geom = nl.CurrentGeometry(L, M, 1)
    kernel = nl.correlation_kernel(state, phi, spec, geom, chain)
    ed = nl.sum_rule_check(state, phi, spec, geom, window, chain, kernel=kernel)
    oracle = FreeFermionXX(chain.n_sites, 1.0, lam, M)
    want = oracle.sum_rule(M, L, window)
    assert abs(ed["lhs"] - want["lhs"]) < 1e-12
    assert abs(ed["rhs"] - want["rhs"]) < 1e-12
    assert np.max(np.abs(kernel.curve(TS) - oracle.curve(M, L, TS))) < 1e-12


@pytest.mark.parametrize("n, lam, M, L, kind", [
    (8, 0.5, 2, 4, "hann"),
    (8, 0.0, 2, 4, "hann"),
    (10, 0.5, 3, 5, "hann"),
    (10, 0.5, 2, 6, "truncated_gaussian"),
    (10, 0.0, 3, 5, "hann"),
    (10, -0.8, 2, 4, "hann"),
])
def test_small_rings(n, lam, M, L, kind):
    phi, spec = nl.build_xx_model()
    chain = nl.ChainConfig(n, 2)
    state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=lam), chain)
    _agree(state, chain, lam, M, L, nl.WindowFunction(kind, 1.5))


@pytest.mark.parametrize("M, L", [(3, 7), (2, 6), (4, 6)])
def test_acceptance_ring(xx12_state, chain12, M, L):
    # (4, 6) sits at the wrap limit L + M + r = n - 1 of the known red test
    _agree(xx12_state, chain12, 0.5, M, L, nl.WindowFunction("hann", 2.0))
