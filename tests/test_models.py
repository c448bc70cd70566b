"""Model builders, window operators, currents, energy density, V(Phi)."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import nesslab as nl
from nesslab.errors import GeometryError, NumericalCheckError, PreconditionError
from nesslab.models import (
    FERMION_LOWER,
    FERMION_RAISE,
    PAULI_X,
    PAULI_Z,
    SPIN_HALF,
    charge_sparse,
    window_hamiltonian_sparse,
)
from nesslab.operators import sparse_fro_norm

S1, S2, S3 = SPIN_HALF


def xx_bond():
    return nl.kron_le([S1, S1]) + nl.kron_le([S2, S2])


def xx_current_matrix():
    # j_0 = -S2_0 S1_1 + S1_0 S2_1
    return -nl.kron_le([S2, S1]) + nl.kron_le([S1, S2])


def fermion_current_matrix(t_hop):
    # j_0 = i t (cdag_1 c_0 - cdag_0 c_1), string-free on adjacent sites
    return 1j * t_hop * (nl.kron_le([FERMION_LOWER, FERMION_RAISE])
                         - nl.kron_le([FERMION_RAISE, FERMION_LOWER]))


class TestBuilders:
    def test_xxz_bond_norm_isotropic(self):
        phi, _ = nl.build_xxz_model(1.0)
        # two-site Heisenberg coupling has eigenvalues {1/4 x3, -3/4}
        evals = np.sort(np.linalg.eigvalsh(phi.terms[0][1]))
        assert np.allclose(evals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)
        assert abs(nl.operator_norm(phi.terms[0][1]) - 0.75) < 1e-12

    def test_fermion_zero_model(self):
        phi, spec = nl.build_fermion_model(0.0, [0.0])
        chain = nl.ChainConfig(6, 2)
        assert np.linalg.norm(nl.hamiltonian(phi, chain)) == 0.0
        j0 = nl.current_local(phi, spec, chain)
        assert np.linalg.norm(j0.coeffs) < 1e-14

    def test_fermion_interaction_only_commutes(self):
        phi, spec = nl.build_fermion_model(0.0, [1.0])
        chain = nl.ChainConfig(6, 2)
        H = nl.hamiltonian(phi, chain)
        N = charge_sparse(spec, (0, 5), chain).toarray()
        assert nl.comm_norm(N, H) == 0.0  # diagonal operators commute exactly

    def test_fermion_long_range(self):
        phi, spec = nl.build_fermion_model(1.0, [0.5, 0.25])
        assert phi.r == 2
        assert phi.terms[1][0] == (0, 2)
        res = nl.check_conservation(phi, spec, nl.ChainConfig(8, 2))
        assert res <= 1e-12

    def test_fermion_check_stays_sparse(self):
        # eight couplings check the terms on 10 sites, where one dense operator
        # takes 16 MB; the sparse check stays far below that
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            phi, _ = nl.build_fermion_model(1.0, [0.1] * 8)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert phi.r == 8
        assert peak < 20 * 2**20

    def test_fermion_check_refuses_wrong_terms(self, monkeypatch):
        # density terms built from a wrong number operator differ from c^dag c
        monkeypatch.setattr(nl.models, "FERMION_NUMBER", 2 * nl.models.FERMION_NUMBER)
        with pytest.raises(NumericalCheckError, match="Jordan-Wigner"):
            nl.build_fermion_model(1.0, [0.5, 0.25])

    def test_interaction_validation(self):
        with pytest.raises(ValueError):
            nl.Interaction(2, 1, (((1, 2), np.eye(4)),))  # not anchored at 0
        with pytest.raises(ValueError):
            nl.Interaction(2, 1, (((0, 2), np.eye(4)),))  # diameter > r
        with pytest.raises(ValueError):
            nl.Interaction(2, 1, (((0,), PAULI_X + 1j * np.eye(2)),))  # not Hermitian


class TestWindowHamiltonian:
    def test_single_site_window_empty(self, xx_model):
        phi, _ = xx_model
        chain = nl.ChainConfig(6, 2)
        assert np.linalg.norm(window_hamiltonian_sparse(phi, (0, 0), chain).toarray()) == 0.0

    def test_two_site_window(self, xx_model):
        phi, _ = xx_model
        chain = nl.ChainConfig(6, 2)
        H = window_hamiltonian_sparse(phi, (0, 1), chain).toarray()
        expect = nl.embed(nl.LocalOperator((0, 1), xx_bond()), chain)
        assert np.linalg.norm(H - expect) < 1e-13

    def test_nesting(self, rng):
        # H_window2 - H_window1 contains exactly the translates not inside window1
        phi = nl.build_random_interaction(2, 2, rng)
        chain = nl.ChainConfig(8, 2)
        H1 = window_hamiltonian_sparse(phi, (-1, 2), chain).toarray()
        H2 = window_hamiltonian_sparse(phi, (-2, 3), chain).toarray()
        # term-enumeration oracle for the difference
        diff_expect = np.zeros_like(H1)
        for offsets, mat in phi.terms:
            for u in range(-2, 4 - offsets[-1]):
                sites = tuple(o + u for o in offsets)
                inside2 = sites[0] >= -2 and sites[-1] <= 3
                inside1 = sites[0] >= -1 and sites[-1] <= 2
                if inside2 and not inside1:
                    diff_expect += nl.embed(
                        nl.translate(nl.LocalOperator(offsets, mat), u, chain), chain)
        assert np.linalg.norm((H2 - H1) - diff_expect) < 1e-12

    def test_full_ring_translation_invariant(self, xx_model):
        phi, _ = xx_model
        chain = nl.ChainConfig(6, 2)
        H = window_hamiltonian_sparse(phi, (0, 5), chain).toarray()
        T = nl.shift_unitary(chain).toarray()
        assert nl.comm_norm(H, T) < 1e-12


def _assembly_model(name):
    if name == "xx":
        return nl.build_xx_model()
    if name == "xxz":
        return nl.build_xxz_model(0.5)
    if name == "fermion_r2":
        return nl.build_fermion_model(1.0, [0.5, 0.25])
    # range 2 on qutrits, with an on-site term; it conserves no charge
    phi = nl.build_random_interaction(2, 3, np.random.default_rng(7))
    return phi, nl.ChargeSpec(np.diag([1.0, 0.0, -1.0]))


def _embed_sum(ops, chain):
    """Oracle: the explicit sum of dense embeddings."""
    out = np.zeros((chain.dim, chain.dim), dtype=np.complex128)
    for op in ops:
        out += nl.embed(op, chain)
    return out


class TestAssembly:
    """Assembled operators against an explicit embed(translate(...)) sum."""

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("name", ["xx", "xxz", "fermion_r2", "random_r2_d3"])
    def test_against_embed_oracle(self, name, boundary):
        phi, spec = _assembly_model(name)
        chain = nl.ChainConfig(6 if phi.site_dim == 2 else 5, phi.site_dim, boundary)
        n = chain.n_sites

        def translates(anchors, hi=None):
            ops = []
            for offsets, mat in phi.terms:
                for u in anchors:
                    if hi is None or u + offsets[-1] <= hi:
                        ops.append(nl.translate(nl.LocalOperator(offsets, mat), u, chain))
            return ops

        H = _embed_sum(translates(range(n), None if chain.periodic else n - 1), chain)
        assert np.linalg.norm(nl.hamiltonian(phi, chain) - H) < 1e-12
        assert np.linalg.norm(nl.hamiltonian(phi, chain, sparse=True).toarray() - H) < 1e-12

        lo, hi = (-2, 1) if chain.periodic else (1, 4)
        H_w = _embed_sum(translates(range(lo, hi + 1), hi), chain)
        assert np.linalg.norm(window_hamiltonian_sparse(phi, (lo, hi), chain).toarray()
                              - H_w) < 1e-12

        N_w = _embed_sum([nl.LocalOperator((x % n,), spec.n0) for x in range(lo, hi + 1)],
                         chain)
        assert np.linalg.norm(charge_sparse(spec, (lo, hi), chain).toarray() - N_w) < 1e-12

        if chain.periodic and name != "random_r2_d3":
            j0 = nl.current_local(phi, spec, chain)
            J = _embed_sum([nl.translate(j0, x, chain) for x in range(n)], chain)
            assert np.linalg.norm(nl.total_current(phi, spec, chain) - J) < 1e-12
            assert np.linalg.norm(
                nl.total_current(phi, spec, chain, sparse=True).toarray() - J) < 1e-12


class TestCharge:
    def test_single_site(self, xx_model):
        _, spec = xx_model
        chain = nl.ChainConfig(6, 2)
        N = charge_sparse(spec, (2, 2), chain).toarray()
        assert np.allclose(N, nl.embed(nl.LocalOperator((2,), S3), chain))

    def test_full_chain_eigenvalues(self, xx_model):
        _, spec = xx_model
        chain = nl.ChainConfig(6, 2)
        N = charge_sparse(spec, (0, 5), chain).toarray()
        evals = np.unique(np.round(np.linalg.eigvalsh(N), 10))
        assert np.allclose(evals, np.arange(-3.0, 3.5, 1.0))

    def test_additivity(self, xx_model):
        _, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        whole = charge_sparse(spec, (-2, 3), chain).toarray()
        left = charge_sparse(spec, (-2, 0), chain).toarray()
        right = charge_sparse(spec, (1, 3), chain).toarray()
        assert np.linalg.norm(whole - left - right) == 0.0

    def test_translation_covariance(self, xx_model):
        _, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        N = charge_sparse(spec, (0, 2), chain).toarray()
        Nshift = charge_sparse(spec, (3, 5), chain).toarray()
        assert np.linalg.norm(nl.translate_global(N, 3, chain) - Nshift) < 1e-13


class TestConservation:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_xxz(self, lam, chain10):
        phi, spec = nl.build_xxz_model(lam)
        assert nl.check_conservation(phi, spec, chain10) <= 1e-12

    def test_fermion(self, chain10):
        phi, spec = nl.build_fermion_model(1.0, [0.5])
        assert nl.check_conservation(phi, spec, chain10) <= 1e-12

    def test_xx_exact_zero_needs_no_decomposition(self, monkeypatch, chain10):
        # every window commutator of XX is exactly zero: operator_norm returns 0.0
        # before any eigvalsh or svd
        def refuse(*args, **kwargs):
            raise AssertionError("a zero commutator was decomposed")

        for name in ("eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, refuse)
        phi, spec = nl.build_xx_model()
        assert nl.check_conservation(phi, spec, chain10) == 0.0

    def test_nonconserving_detected(self):
        # [sigma3, sigma1] = 2 i sigma2: residual grows with the window
        phi = nl.Interaction(2, 1, (((0,), PAULI_X),))
        spec = nl.ChargeSpec(PAULI_Z)
        res = nl.check_conservation(phi, spec, nl.ChainConfig(6, 2))
        assert res > 1.0


class TestCurrentOperator:
    def test_xx_closed_form(self, xx_model):
        phi, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        j0 = nl.current_operator(phi, spec, nl.CurrentGeometry(5, 2, 1), chain)
        assert j0.support == (0, 1)
        assert np.linalg.norm(j0.coeffs - xx_current_matrix()) < 1e-12

    def test_fermion_closed_form(self):
        phi, spec = nl.build_fermion_model(1.0, [0.5])
        chain = nl.ChainConfig(8, 2)
        j0 = nl.current_operator(phi, spec, nl.CurrentGeometry(5, 2, 1), chain)
        assert np.linalg.norm(j0.coeffs - fermion_current_matrix(1.0)) < 1e-12

    def test_geometry_invariance_chain20(self, xx_model):
        phi, spec = xx_model
        chain20 = nl.ChainConfig(20, 2)
        jA = nl.current_operator(phi, spec, nl.CurrentGeometry(7, 3, 1), chain20)
        jB = nl.current_operator(phi, spec, nl.CurrentGeometry(9, 4, 1), chain20)
        assert jA.support == jB.support
        assert np.linalg.norm(jA.coeffs - jB.coeffs) < 1e-12

    def test_geometry_invariance_range_two(self):
        phi, spec = nl.build_fermion_model(1.0, [0.5, 0.25])
        chain20 = nl.ChainConfig(20, 2)
        jA = nl.current_operator(phi, spec, nl.CurrentGeometry(8, 4, 2), chain20)
        jB = nl.current_operator(phi, spec, nl.CurrentGeometry(9, 5, 2), chain20)
        assert jA.support == jB.support == (0, 1, 2, 19)
        assert np.linalg.norm(jA.coeffs - jB.coeffs) < 1e-12

    def test_defining_commutator(self, xx_model):
        # j_0 really is i [N_[-L,0], H_[-M,M]] (dense check on a small ring)
        phi, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        geom = nl.CurrentGeometry(5, 2, 1)
        N = charge_sparse(spec, (-5, 0), chain).toarray()
        H = window_hamiltonian_sparse(phi, (-2, 2), chain).toarray()
        direct = 1j * nl.commutator(N, H)
        j0 = nl.current_operator(phi, spec, geom, chain)
        assert np.linalg.norm(direct - nl.embed(j0, chain)) < 1e-12

    def test_geometry_validation(self):
        with pytest.raises(GeometryError):
            nl.CurrentGeometry(L=5, M=1, r=1)  # M < 2r
        with pytest.raises(GeometryError):
            nl.CurrentGeometry(L=3, M=3, r=1)  # L <= M
        with pytest.raises(GeometryError):
            nl.CurrentGeometry(L=5, M=4, r=1)  # L - M < 2r
        geom = nl.CurrentGeometry(L=7, M=3, r=1)
        with pytest.raises(GeometryError):
            geom.validate_for_chain(nl.ChainConfig(10, 2))  # arc does not fit
        with pytest.raises(GeometryError):
            # fits as an arc but leaves no wrap clearance for correlations
            nl.CurrentGeometry(L=7, M=4, r=1).validate_for_chain(
                nl.ChainConfig(12, 2), wrap_clearance=True)

    def test_nonconserving_interaction_rejected(self):
        phi = nl.Interaction(2, 1, (((0,), PAULI_X), ((0, 1), xx_bond())))
        spec = nl.ChargeSpec(PAULI_Z)
        with pytest.raises(PreconditionError):
            nl.current_operator(phi, spec, nl.CurrentGeometry(5, 2, 1), nl.ChainConfig(8, 2))

    def test_total_current_conserved_xx(self, xx_model):
        phi, spec = xx_model
        for n in (6, 8):
            chain = nl.ChainConfig(n, 2)
            J = nl.total_current(phi, spec, chain)
            H = nl.hamiltonian(phi, chain)
            assert nl.comm_norm(H, J) <= 1e-12


class TestEnergyCurrents:
    def test_defining_identity(self, xx_model):
        phi, _ = xx_model
        chain = nl.ChainConfig(10, 2)
        M = 2
        Jp, Jm = nl.energy_current_operators(phi, M, chain)
        H_M = window_hamiltonian_sparse(phi, (-M, M), chain).toarray()
        H_big = window_hamiltonian_sparse(phi, (-M - 1, M + 1), chain).toarray()
        lhs = nl.embed(Jp, chain) - nl.embed(Jm, chain)
        assert np.linalg.norm(lhs - 1j * nl.commutator(H_M, H_big)) < 1e-12

    def test_defining_identity_range_two(self):
        phi, _ = nl.build_fermion_model(1.0, [0.5, 0.25])
        chain = nl.ChainConfig(13, 2)
        M, r = 4, 2
        Jp, Jm = nl.energy_current_operators(phi, M, chain)
        H_M = window_hamiltonian_sparse(phi, (-M, M), chain)
        H_big = window_hamiltonian_sparse(phi, (-M - r, M + r), chain)
        lhs = nl.embed_sparse(Jp, chain) - nl.embed_sparse(Jm, chain)
        assert sparse_fro_norm(lhs - 1j * (H_M @ H_big - H_big @ H_M)) < 1e-12

    def test_heisenberg_derivative(self, xx_model):
        # i [H_big, H_M] equals the exact generator of H_M(t) on the full ring
        phi, _ = xx_model
        chain = nl.ChainConfig(10, 2)
        M = 2
        Jp, Jm = nl.energy_current_operators(phi, M, chain)
        H_M = window_hamiltonian_sparse(phi, (-M, M), chain).toarray()
        H_full = nl.hamiltonian(phi, chain)
        generator = 1j * nl.commutator(H_full, H_M)
        assert np.linalg.norm(
            generator - (nl.embed(Jm, chain) - nl.embed(Jp, chain))) < 1e-12

    def test_supports(self, xx_model):
        phi, _ = xx_model
        chain = nl.ChainConfig(12, 2)
        M, r = 3, 1
        Jp, Jm = nl.energy_current_operators(phi, M, chain)
        plus_window = set(nl.arc_sites(M - 2 * r + 1, M + r, chain))
        minus_window = set(nl.arc_sites(-M - r, -M + 2 * r - 1, chain))
        assert set(Jp.support) <= plus_window
        assert set(Jm.support) <= minus_window
        # disjoint from the charge window [-L, 0] used with it
        charge_window = set(nl.arc_sites(-7, 0, chain))
        assert not (set(Jp.support) & charge_window)

    def test_reflection_relation(self, xx_model):
        # the two boundary currents are mirror images: R J_plus R = -J_minus
        phi, _ = xx_model
        chain = nl.ChainConfig(10, 2)
        Jp, Jm = nl.energy_current_operators(phi, 3, chain)
        n, d, D = chain.n_sites, 2, chain.dim
        idx = np.arange(D)
        digits = (idx[:, None] // d ** np.arange(n)) % d
        refl = digits @ (d ** ((-np.arange(n)) % n))
        R = np.zeros((D, D))
        R[refl, idx] = 1.0
        assert np.linalg.norm(R @ nl.embed(Jp, chain) @ R.T + nl.embed(Jm, chain)) < 1e-12

    def test_charge_commutes_with_boundary_currents(self, xx_model):
        # spacelike commutativity and the Jacobi cancellation on the ring; the
        # Frobenius norm of the sparse commutator bounds its operator norm
        phi, spec = xx_model
        chain = nl.ChainConfig(12, 2)
        for (L, M) in ((7, 3), (5, 2)):
            Jp, Jm = nl.energy_current_operators(phi, M, chain)
            N = charge_sparse(spec, (-L, 0), chain)
            for J in (Jp, Jm):
                Js = nl.embed_sparse(J, chain)
                assert spla.norm(N @ Js - Js @ N) <= 1e-12

    def test_geometry_errors(self, xx_model):
        phi, _ = xx_model
        with pytest.raises(GeometryError):
            nl.energy_current_operators(phi, 1, nl.ChainConfig(10, 2))  # M < 2r
        with pytest.raises(GeometryError):
            nl.energy_current_operators(phi, 4, nl.ChainConfig(8, 2))  # window too big


class TestEnergyDensity:
    def test_xx_density(self, xx_model):
        phi, _ = xx_model
        chain = nl.ChainConfig(8, 2)
        h = nl.energy_density(phi, chain)
        assert h.support == (0, 1)
        assert np.linalg.norm(h.coeffs - xx_bond()) < 1e-13

    def test_onsite_collapse(self):
        phi = nl.Interaction(2, 1, (((0,), PAULI_Z),))
        chain = nl.ChainConfig(8, 2)
        h = nl.energy_density(phi, chain)
        assert h.support == (0,)
        assert np.array_equal(h.coeffs, PAULI_Z)
        cm, cp = nl.boundary_complements(phi, 3, chain)
        assert np.linalg.norm(cm.coeffs) == 0.0
        assert np.linalg.norm(cp.coeffs) == 0.0

    def test_matches_paper_telescoping(self, rng):
        # oracle: the inclusion-exclusion telescoping of window Hamiltonians
        # Psi_1 = H_{0}; Psi_{2m} and Psi_{2m+1} collect the terms spanning
        # the grown window; their sum reproduces the recentred-class density
        phi = nl.build_random_interaction(3, 2, rng)
        chain = nl.ChainConfig(10, 2)
        h = nl.energy_density(phi, chain)
        d = phi.site_dim

        def window_embed(lo, hi):
            if hi < lo:
                return np.zeros((chain.dim, chain.dim), dtype=complex)
            return window_hamiltonian_sparse(phi, (lo, hi), chain).toarray()

        total = window_embed(0, 0)
        for m in range(1, phi.r + 1):
            # even step: window [-m+1, m]
            total += (window_embed(-m + 1, m) - window_embed(-m + 1, m - 1)
                      - window_embed(-m + 2, m) + window_embed(-m + 2, m - 1))
            # odd step: window [-m, m]
            total += (window_embed(-m, m) - window_embed(-m, m - 1)
                      - window_embed(-m + 1, m) + window_embed(-m + 1, m - 1))
        assert np.linalg.norm(total - nl.embed(h, chain)) < 1e-12

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_reconstruction_random(self, r, rng):
        phi = nl.build_random_interaction(r, 2, rng)
        chain = nl.ChainConfig(10, 2)
        M = 4
        H_M = window_hamiltonian_sparse(phi, (-M, M), chain).toarray()
        h = nl.energy_density(phi, chain)
        r_eff = phi.max_diameter()
        S = np.zeros_like(H_M)
        for y in range(-M + r_eff, M - r_eff + 1):
            S += nl.embed(nl.translate(h, y, chain), chain)
        cm, cp = nl.boundary_complements(phi, M, chain)
        S += nl.embed(cm, chain) + nl.embed(cp, chain)
        assert np.linalg.norm(S - H_M) < 1e-12

    def test_complement_supports(self, rng):
        phi = nl.build_random_interaction(2, 2, rng)
        chain = nl.ChainConfig(12, 2)
        M, r = 4, 2
        cm, cp = nl.boundary_complements(phi, M, chain)
        assert set(cm.support) <= set(nl.arc_sites(-M, -M + 2 * r, chain))
        assert set(cp.support) <= set(nl.arc_sites(M - 2 * r, M, chain))


class TestSymmetry:
    def test_charge_rotation_invariance(self):
        # U_theta H U_theta^dag = H for the built-in charge-conserving models
        theta = 0.37
        for phi, spec in (nl.build_xxz_model(0.7), nl.build_fermion_model(1.0, [0.5])):
            chain = nl.ChainConfig(6, 2)
            H = nl.hamiltonian(phi, chain)
            N = charge_sparse(spec, (0, 5), chain).toarray()
            evals, vecs = np.linalg.eigh(N)
            U = (vecs * np.exp(1j * theta * evals)) @ vecs.conj().T
            assert np.linalg.norm(U @ H @ U.conj().T - H) < 1e-12


class TestVelocityConstant:
    def test_zero_interaction(self):
        assert nl.lr_velocity(nl.Interaction(2, 1, ())) == 0.0

    def test_xx_value(self, xx_model):
        phi, _ = xx_model
        # ||Phi|| = 1/2 from eigenvalues {+-1/2, 0, 0}; each site in 2 translates
        evals = np.sort(np.linalg.eigvalsh(phi.terms[0][1]))
        assert np.allclose(evals, [-0.5, 0.0, 0.0, 0.5], atol=1e-12)
        assert abs(nl.lr_velocity(phi) - 32 * math.e) < 1e-9

    def test_onsite_value(self):
        phi = nl.Interaction(2, 1, (((0,), PAULI_Z),))
        assert abs(nl.lr_velocity(phi) - 4 * math.e) < 1e-12
