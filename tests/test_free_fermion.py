"""The exact free-fermion oracle against exact diagonalization of the XX ring."""

import numpy as np
import pytest

import nesslab as nl
from free_fermion import FreeFermionXX, lr_norm

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


def _spectral_functionals(sf, n):
    """Total weight, derivative-identity terms and singularity fractions of weights sf."""
    win = nl.WindowFunction("hann", 2.0)
    out = {"total": sf.total()}
    for Y in range(1, (n - 1) // 2 + 1):
        res = nl.momentum_derivative_check(sf, win, Y, current_value=0.1)
        out.update({(key, Y): res[key] for key in ("lhs", "tail_term", "count_term")})
    diag = nl.singularity_diagnostic(sf, [0.2, 0.5, 1.0], z_halfwidth=(n - 4) // 2 - 1)
    out["mass"] = diag["total_mass"]
    out.update(diag["fractions"])
    return out


def _spectral_agree(state, n, lam):
    phi, spec = nl.build_xx_model()
    ed = _spectral_functionals(nl.spectral_function_rho(state, phi, spec), n)
    oracle = _spectral_functionals(FreeFermionXX(n, 1.0, lam, n // 2).spectral(), n)
    assert ed.keys() == oracle.keys()
    for key, value in ed.items():
        if value is None:  # a state without current has no fractions
            assert oracle[key] is None, key
        else:
            assert abs(value - oracle[key]) < 1e-12, key


@pytest.mark.parametrize("n, lam", [(8, 0.5), (8, 0.0), (10, 0.5), (10, 0.0), (10, -0.8)])
def test_spectral_weights_small_rings(n, lam):
    phi, spec = nl.build_xx_model()
    state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=lam), nl.ChainConfig(n, 2))
    _spectral_agree(state, n, lam)


def test_spectral_weights_acceptance_ring(xx12_state):
    _spectral_agree(xx12_state, 12, 0.5)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_lr_scan_matches_oracle(n):
    # the sigma_z scan of the CLI on every live point of its default grid
    phi, _ = nl.build_xx_model()
    sz = nl.LocalOperator((0,), nl.models.PAULI_Z, hermitian=True)
    rows = nl.lr_scan(phi, sz, sz, [3, 4, 5], [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
                      nl.ChainConfig(n, 2))
    live = [r for r in rows if not r.excluded]
    assert live
    for r in live:
        exact = lr_norm(n, r.x, r.t)
        assert abs(r.empirical - exact) < 1e-13, (r.x, r.t)
        if exact > 1e-6:
            assert abs(r.empirical - exact) < 1e-8 * exact, (r.x, r.t)
