"""Biased Gibbs construction and the three steady-state conditions."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.linalg as sla

import nesslab as nl
from nesslab.errors import PreconditionError
from nesslab.steady_state import StationaryState, state_summary


class TestConstruction:
    def test_residual_invariants(self, xx10_state, xx_model, chain10):
        # the certificates of [rho, H], [rho, T] and [rho, N_tot] are far below 1e-10
        phi, spec = xx_model
        basis = xx10_state.basis
        assert basis.residual(nl.hamiltonian(phi, chain10, sparse=True)) <= 1e-12
        assert basis.residual(nl.shift_unitary(chain10)) <= 1e-12
        assert basis.residual(nl.models.charge_sparse(spec, (0, 9), chain10)) <= 1e-12
        assert abs(xx10_state.probs.sum() - 1.0) <= 1e-12
        assert np.all(xx10_state.probs >= 0)

    def test_thermal_state_no_current(self, xx_model, chain10):
        phi, spec = xx_model
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.0), chain10)
        j0 = nl.current_local(phi, spec, chain10)
        assert abs(state.expect(j0)) < 1e-12

    def test_infinite_temperature_limit(self, xx_model):
        phi, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1e-8, lam=0.5), chain)
        assert np.max(np.abs(state.probs - 1.0 / chain.dim)) < 1e-8
        j0 = nl.current_local(phi, spec, chain)
        assert abs(state.expect(j0)) < 1e-7

    def test_noncommuting_bias_refused(self):
        phi, spec = nl.build_xxz_model(0.5)
        chain = nl.ChainConfig(8, 2)
        with pytest.raises(PreconditionError):
            nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.3), chain)

    @pytest.mark.parametrize("model", ["xxz", "fermion"])
    def test_unbiased_gibbs_of_interacting_models(self, model):
        # exp(-beta H) is stationary whether or not J_tot commutes with H
        phi, spec = (nl.build_xxz_model(0.5) if model == "xxz"
                     else nl.build_fermion_model(1.0, [0.5]))
        chain = nl.ChainConfig(8, 2)
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.0), chain)
        assert state.basis.bias_values is None
        rep = nl.verify_ness(state, phi, spec, chain)
        assert rep.is_stationary and rep.is_translation_invariant and not rep.is_ness
        assert abs(rep.current_value) < 1e-12
        H = nl.hamiltonian(phi, chain)
        rho = sla.expm(-H)
        rho /= np.trace(rho).real
        E = nl.embed(nl.energy_density(phi, chain), chain)
        assert abs(state.expect(E) - np.trace(rho @ E)) < 1e-10

    def test_open_chain_refused(self, xx_model):
        phi, spec = xx_model
        with pytest.raises(PreconditionError):
            nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.3),
                                  nl.ChainConfig(6, 2, "open"))

    def test_bias_spec_validation(self):
        with pytest.raises(ValueError):
            nl.BiasSpec(beta=-1.0)
        with pytest.raises(ValueError):
            nl.BiasSpec(beta=float("inf"))


class TestExpectation:
    def test_identity(self, xx10_state, chain10):
        assert abs(xx10_state.expect(np.eye(chain10.dim)) - 1.0) < 1e-12

    def test_linearity(self, xx10_state, chain10, rng):
        A = rng.standard_normal((chain10.dim, chain10.dim))
        B = rng.standard_normal((chain10.dim, chain10.dim))
        lhs = xx10_state.expect(2.5 * A + 0.5j * B)
        rhs = 2.5 * xx10_state.expect(A) + 0.5j * xx10_state.expect(B)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_hermitian_gives_real(self, xx10_state, xx_model, chain10):
        phi, _ = xx_model
        H = nl.hamiltonian(phi, chain10)
        assert abs(xx10_state.expect(H).imag) <= 1e-12

    def test_thermodynamic_identity(self, xx_model):
        # <H> = -d log Z / d beta at lambda = 0, by finite differences
        phi, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        H = nl.hamiltonian(phi, chain)
        evals = np.linalg.eigvalsh(H)
        beta, h = 1.0, 1e-6

        def logZ(b):
            w = -b * evals
            m = w.max()
            return m + np.log(np.exp(w - m).sum())

        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=beta, lam=0.0), chain)
        fd = -(logZ(beta + h) - logZ(beta - h)) / (2 * h)
        assert abs(state.expect(H).real - fd) < 1e-4

    def test_matches_expm_oracle(self, xx_model, xx10_state, chain10):
        # independently coded dense path: expm of the tilted Hamiltonian
        phi, spec = xx_model
        H = nl.hamiltonian(phi, chain10)
        J = nl.total_current(phi, spec, chain10)
        rho = sla.expm(-1.0 * (H - 0.5 * J))
        rho /= np.trace(rho).real
        j0 = nl.embed(nl.current_local(phi, spec, chain10), chain10)
        oracle = np.trace(rho @ j0).real
        assert abs(xx10_state.expect(j0).real - oracle) < 1e-8

    def test_stationary_in_expectation(self, xx10_state, xx_model, chain10, rng, dense_evolve):
        phi, _ = xx_model
        ctx = nl.JointBasis.for_interaction(phi, chain10)
        A = rng.standard_normal((chain10.dim, chain10.dim))
        A = A + A.T
        base = xx10_state.expect(A)
        for t in (0.5, 1.0):
            assert abs(xx10_state.expect(dense_evolve(A, ctx, t)) - base) < 1e-9


class TestVerifyNess:
    def test_biased_state_is_ness(self, xx10_state, xx_model, chain10):
        phi, spec = xx_model
        rep = nl.verify_ness(xx10_state, phi, spec, chain10)
        assert rep.is_ness
        assert rep.stationarity_residual <= 1e-10
        assert rep.translation_residual <= 1e-10
        assert rep.symmetry_residual <= 1e-10
        assert abs(rep.current_value) > 1e-3

    def test_builder_residuals_reused(self, xx_model):
        # the report depends on the basis, the probabilities and phi's value only
        phi, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5), chain)
        rep = nl.verify_ness(state, phi, spec, chain)
        bare = StationaryState(basis=state.basis, probs=state.probs)
        assert nl.verify_ness(bare, phi, spec, chain) == rep
        other, _ = nl.build_xx_model()  # an equal model, but another object
        assert nl.verify_ness(state, other, spec, chain) == rep

    def test_other_interaction_not_stationary(self, xx10_state, chain10):
        # the XX state under an XXZ(0.5) H: the certificate is not vacuous
        phi, spec = nl.build_xxz_model(0.5)
        rep = nl.verify_ness(xx10_state, phi, spec, chain10)
        assert not rep.is_stationary and not rep.is_ness
        assert rep.stationarity_residual > 1e-3
        assert rep.translation_residual <= 1e-12 and rep.symmetry_residual <= 1e-12

    def test_thermal_not_ness(self, xx_model, chain10):
        phi, spec = xx_model
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.0), chain10)
        rep = nl.verify_ness(state, phi, spec, chain10)
        assert rep.is_stationary and rep.is_translation_invariant
        assert not rep.is_ness
        assert abs(rep.current_value) < 1e-10

    def test_current_odd_in_bias(self, xx_model, chain10, xx10_state):
        phi, spec = xx_model
        minus = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=-0.5), chain10)
        cur_p = nl.verify_ness(xx10_state, phi, spec, chain10).current_value
        cur_m = nl.verify_ness(minus, phi, spec, chain10).current_value
        assert abs(cur_p + cur_m) < 1e-10

    def test_flat_current_profile(self, xx10_state, xx_model, chain10):
        phi, spec = xx_model
        j0 = nl.current_local(phi, spec, chain10)
        vals = [xx10_state.expect(nl.translate(j0, x, chain10)).real
                for x in range(chain10.n_sites)]
        assert max(vals) - min(vals) <= 1e-10

    def test_momentum_mixed_eigenstate_not_translation_invariant(self, xx_model):
        # mixing two degenerate H-eigenvectors of opposite momentum stays
        # stationary but breaks translation invariance
        phi, _ = xx_model
        chain = nl.ChainConfig(8, 2)
        H = nl.hamiltonian(phi, chain, sparse=True)
        basis = nl.joint_spectrum(H, chain)
        E, k = basis.energies, basis.momenta
        pair = None
        for a in range(len(E)):
            for b in range(a + 1, len(E)):
                if abs(E[a] - E[b]) < 1e-10 and abs(k[a] + k[b]) < 1e-12 and k[a] > 0.1:
                    pair = (a, b)
                    break
            if pair:
                break
        assert pair is not None
        v = (basis.vectors[:, pair[0]] + basis.vectors[:, pair[1]]) / np.sqrt(2)
        rho = np.outer(v, v.conj())
        Hd = H.toarray()
        T = nl.shift_unitary(chain).toarray()
        assert nl.comm_norm(rho, Hd) <= 1e-10
        assert nl.comm_norm(rho, T) > 1e-3  # would be classified not-NESS


class TestSummary:
    def test_json_ready(self, xx10_state, xx_model, chain10):
        phi, spec = xx_model
        rep = nl.verify_ness(xx10_state, phi, spec, chain10)
        doc = state_summary(xx10_state, rep)
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["n_sites"] == 10
        assert len(back["spectrum"]) == chain10.dim
        assert back["is_ness"] is True

    def test_probability_validation(self, xx10_state):
        basis = xx10_state.basis
        with pytest.raises(ValueError):
            StationaryState(basis=basis, probs=np.full(len(basis.energies), 0.5))
        nan = np.zeros(len(basis.energies))
        nan[:2] = np.nan, 1.0  # sums to nan, which no comparison refuses
        with pytest.raises(ValueError):
            StationaryState(basis=basis, probs=nan)

    def test_row_order_survives_degenerate_rounding(self, xx_model, rng):
        # an eigensolver that returns the same levels 1e-15 apart, with its
        # columns sorted by those raw energies, must give the same rows
        phi, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5), chain)
        b = state.basis
        E = b.energies + 1e-15 * rng.choice([-1.0, 1.0], size=len(b.energies))
        perm = np.lexsort((b.bias_values, b.mode, E))
        rank = np.empty_like(perm)
        rank[perm] = np.arange(len(perm))
        moved = dataclasses.replace(b, energies=E[perm], mode=b.mode[perm],
                                    bias_values=b.bias_values[perm],
                                    columns=tuple(rank[c] for c in b.columns))
        assert not np.array_equal(perm, np.arange(len(perm)))  # the columns did move
        rows = np.array(state.spectrum_rows())
        again = np.array(StationaryState(moved, state.probs[perm]).spectrum_rows())
        assert np.array_equal(rows[:, 1], again[:, 1])  # momenta in the same places
        assert np.allclose(rows, again, rtol=1e-12, atol=1e-14)
