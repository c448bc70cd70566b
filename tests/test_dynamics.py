"""Heisenberg evolution, the locality bound, scans, and the deviation bound Z."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

import nesslab as nl
from nesslab.errors import PreconditionError
from nesslab.models import PAULI_X, PAULI_Z
from nesslab.spectral import empirical_velocity, wrap_horizon


@pytest.fixture(scope="module")
def xx8():
    phi, spec = nl.build_xx_model()
    chain = nl.ChainConfig(8, 2)
    ctx = nl.JointBasis.for_interaction(phi, chain)
    return phi, spec, chain, ctx


def _dense_basis(H):
    """Reference: one dense eigh of the whole H."""
    evals, evecs = np.linalg.eigh(H)
    return SimpleNamespace(energies=evals, vectors=evecs)


class TestEvolutionContext:
    """JointBasis.for_interaction, the basis the LR scan evolves in."""

    def test_sector_path_matches_dense(self, xx8, dense_evolve):
        phi, _, chain, ctx = xx8
        H = nl.hamiltonian(phi, chain)
        dense = _dense_basis(H)
        assert np.allclose(ctx.energies, dense.energies, atol=1e-10)
        assert ctx.mode is None and ctx.bias_values is None
        # same unitary evolution regardless of eigenvector phase conventions
        A = nl.embed(nl.LocalOperator((2,), PAULI_Z), chain)
        t = 0.37
        assert np.linalg.norm(dense_evolve(A, ctx, t) - dense_evolve(A, dense, t)) < 1e-9

    def test_reconstruction_validated(self, rng):
        # a random interaction on 3 sites: one sector over all 8 states
        chain = nl.ChainConfig(3, 2)
        phi = nl.build_random_interaction(1, 2, rng)
        H = nl.hamiltonian(phi, chain)
        ctx = nl.JointBasis.for_interaction(phi, chain)
        rebuilt = (ctx.vectors * ctx.energies) @ ctx.vectors.conj().T
        assert np.linalg.norm(rebuilt - H) <= 1e-10 * np.linalg.norm(H)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_single_sector_fallback(self, rng, boundary, dense_evolve):
        # an interaction that conserves nothing leaves H one connected block
        phi = nl.build_random_interaction(1, 2, rng)
        chain = nl.ChainConfig(6, 2, boundary)
        ctx = nl.JointBasis.for_interaction(phi, chain)
        dense = _dense_basis(nl.hamiltonian(phi, chain))
        assert len(ctx.sectors) == 1
        assert np.allclose(ctx.energies, dense.energies, atol=1e-10)
        A = nl.embed(nl.LocalOperator((2,), PAULI_X), chain)
        assert np.linalg.norm(dense_evolve(A, ctx, 0.37) - dense_evolve(A, dense, 0.37)) < 1e-9

    def test_charge_sectors(self):
        phi, _ = nl.build_xxz_model(0.5)
        chain = nl.ChainConfig(8, 2)
        ctx = nl.JointBasis.for_interaction(phi, chain)
        assert len(ctx.sectors) > 1
        assert sorted(np.concatenate([s.index for s in ctx.sectors])) == list(range(256))
        # the assembled D x D eigenvectors reproduce H in ascending order
        H = nl.hamiltonian(phi, chain)
        rebuilt = (ctx.vectors * ctx.energies) @ ctx.vectors.conj().T
        assert np.all(np.diff(ctx.energies) >= 0)
        assert np.linalg.norm(rebuilt - H) <= 1e-10 * np.linalg.norm(H)


def _interaction(name, rng):
    if name == "xx":
        return nl.build_xx_model()[0]
    if name == "xxz":
        return nl.build_xxz_model(0.5)[0]
    if name == "fermion":
        return nl.build_fermion_model(1.0, [0.5])[0]
    return nl.build_random_interaction(1, 2, rng)


class TestRealStorage:
    """A real H leaves for_interaction's eigenvectors in float64 storage, which
    evolves and scans bit for bit as their complex form."""

    @pytest.mark.parametrize("name, dtype", [("xx", np.float64), ("xxz", np.float64),
                                             ("fermion", np.float64),
                                             ("random", np.complex128)])
    def test_vector_dtype(self, rng, name, dtype):
        ctx = nl.JointBasis.for_interaction(_interaction(name, rng), nl.ChainConfig(8, 2))
        for s in ctx.sectors:
            assert s.vectors.dtype == dtype and s.vectors.flags.c_contiguous

    @pytest.mark.parametrize("name, op", [("xx", PAULI_Z), ("xxz", PAULI_X), ("random", PAULI_X)])
    def test_scan_matches_complex_copy(self, rng, name, op):
        phi, chain = _interaction(name, rng), nl.ChainConfig(8, 2)
        ctx = nl.JointBasis.for_interaction(phi, chain)
        as_complex = dataclasses.replace(ctx, sectors=tuple(
            dataclasses.replace(s, vectors=s.vectors.astype(np.complex128)) for s in ctx.sectors))
        A = nl.LocalOperator((0,), op, hermitian=True)
        args = (phi, A, A, [3, 4], [0.0, 0.1, 0.3, 0.5], chain)
        csv = [nl.lr_scan_csv(nl.lr_scan(*args, ctx=c, v_emp=1e-6)) for c in (ctx, as_complex)]
        assert csv[0] == csv[1]

    @pytest.mark.parametrize("name", ["xx", "xxz", "fermion", "random"])
    def test_sectors_in_component_order(self, rng, name):
        # the largest sector is diagonalized first, yet every component keeps its
        # slot, and its eigh gives the energies it gives in component order
        phi, chain = _interaction(name, rng), nl.ChainConfig(8, 2)
        ctx = nl.JointBasis.for_interaction(phi, chain)
        H = nl.hamiltonian(phi, chain, sparse=True)
        n_comp, comp = nl.operators.connected_components(abs(H))
        index = [np.flatnonzero(comp == c) for c in range(n_comp)]
        images = [int(comp[chain.dim - 1 - idx[0]]) for idx in index]
        assert ctx.images == (None if name in ("fermion", "random") else tuple(images))
        assert len(ctx.sectors) == n_comp
        for c, s in enumerate(ctx.sectors):
            p = c if ctx.images is None else ctx.images[c]
            if p < c:
                assert np.array_equal(s.index, chain.dim - 1 - ctx.sectors[p].index)
                assert s.energies is ctx.sectors[p].energies
            else:
                assert np.array_equal(s.index, index[c])
                H_c = H[index[c]][:, index[c]].toarray()
                assert np.array_equal(s.energies, np.linalg.eigh(H_c)[0])


class TestEvolve:
    """Heisenberg evolution in the sectored basis, through the dense oracle."""

    def test_energy_conserved(self, xx8, dense_evolve):
        phi, _, chain, ctx = xx8
        H = nl.hamiltonian(phi, chain)
        for t in (0.5, 2.0):
            assert np.linalg.norm(dense_evolve(H, ctx, t) - H) < 1e-9

    def test_time_zero(self, xx8, rng, dense_evolve):
        _, _, chain, ctx = xx8
        A = rng.standard_normal((chain.dim, chain.dim))
        assert np.linalg.norm(dense_evolve(A, ctx, 0.0) - A) < 1e-10

    def test_group_property(self, xx8, rng, dense_evolve):
        _, _, chain, ctx = xx8
        A = rng.standard_normal((chain.dim, chain.dim)) \
            + 1j * rng.standard_normal((chain.dim, chain.dim))
        once = dense_evolve(dense_evolve(A, ctx, 0.3), ctx, 0.7)
        direct = dense_evolve(A, ctx, 1.0)
        assert np.linalg.norm(once - direct) < 1e-9

    def test_norm_and_trace_preserved(self, xx8, rng, dense_evolve):
        _, _, chain, ctx = xx8
        A = rng.standard_normal((chain.dim, chain.dim)) \
            + 1j * rng.standard_normal((chain.dim, chain.dim))
        At = dense_evolve(A, ctx, 0.8)
        assert abs(np.trace(At) - np.trace(A)) < 1e-10 * abs(np.trace(A) + 1)
        assert abs(nl.operator_norm(At) - nl.operator_norm(A)) < 1e-10 * nl.operator_norm(A)

    def test_against_expm(self, xx8, dense_evolve):
        phi, _, chain, ctx = xx8
        H = nl.hamiltonian(phi, chain)
        A = nl.embed(nl.LocalOperator((0,), PAULI_Z), chain)
        t = 0.45
        U = sla.expm(1j * H * t)
        assert np.linalg.norm(dense_evolve(A, ctx, t) - U @ A @ U.conj().T) < 1e-9


class TestLRBound:
    def test_zero_norm(self):
        p = nl.LRBoundParams(d1=1, d2=1, x=10, normA=0.0, normB=1.0, V=5.0, site_dim=2)
        assert nl.lr_bound(p, 3.0) == 0.0

    def test_worked_value(self):
        # 2 * (N+1)^2 * d1 d2 * exp(-(10 - 2)) at t = 0
        p = nl.LRBoundParams(d1=1, d2=1, x=10, normA=1.0, normB=1.0, V=5.0, site_dim=2)
        assert abs(nl.lr_bound(p, 0.0) - 8.0 * math.exp(-8.0)) < 1e-15
        assert abs(nl.lr_bound(p, 0.0) - 2.684e-3) < 2e-5

    def test_monotone_in_time(self):
        p = nl.LRBoundParams(d1=1, d2=1, x=6, normA=1.0, normB=1.0, V=2.0, site_dim=2)
        assert nl.lr_bound(p, 1.0) > nl.lr_bound(p, 0.0)

    def test_separation_precondition(self):
        with pytest.raises(PreconditionError):
            nl.LRBoundParams(d1=2, d2=2, x=4, normA=1.0, normB=1.0, V=1.0, site_dim=2)


class TestLRScan:
    def test_small_chain_against_expm(self, xx8):
        phi, _, chain, ctx = xx8
        sz = nl.LocalOperator((0,), PAULI_Z, hermitian=True)
        rows = nl.lr_scan(phi, sz, sz, [3], [0.0, 0.2, 0.4], chain, ctx=ctx)
        H = nl.hamiltonian(phi, chain)
        for r in rows:
            if r.excluded:
                continue
            U = sla.expm(1j * H * r.t)
            At = U @ nl.embed(sz, chain) @ U.conj().T
            Bx = nl.embed(nl.translate(sz, r.x, chain), chain)
            ref = nl.operator_norm(At @ Bx - Bx @ At)
            assert abs(r.empirical - ref) < 1e-8 * max(1e-12, ref)
            assert r.empirical <= r.bound

    def test_disjoint_at_time_zero(self, xx8):
        phi, _, chain, ctx = xx8
        sz = nl.LocalOperator((0,), PAULI_Z, hermitian=True)
        rows = nl.lr_scan(phi, sz, sz, [3], [0.0], chain, ctx=ctx)
        assert rows[0].empirical == 0.0
        assert rows[0].bound > 0.0

    def test_growth_and_ceiling(self, xx8):
        phi, _, chain, ctx = xx8
        sz = nl.LocalOperator((0,), PAULI_Z, hermitian=True)
        rows = nl.lr_scan(phi, sz, sz, [3], [0.0, 0.1, 0.2, 0.4], chain, ctx=ctx)
        emp = [r.empirical for r in rows if not r.excluded]
        assert all(a <= b + 1e-12 for a, b in zip(emp, emp[1:]))  # pre-saturation growth
        assert max(emp) <= 2.0 * sz.norm() ** 2 + 1e-12

    def test_wrap_exclusion(self, xx8):
        phi, _, chain, ctx = xx8
        sz = nl.LocalOperator((0,), PAULI_Z, hermitian=True)
        v = empirical_velocity(phi)
        t_wrap = (chain.n_sites - 3) / (2 * v) + 0.1
        rows = nl.lr_scan(phi, sz, sz, [3], [0.0, t_wrap], chain, ctx=ctx)
        flagged = [r for r in rows if r.t == t_wrap]
        assert flagged[0].excluded and math.isnan(flagged[0].empirical)
        with pytest.raises(PreconditionError):
            nl.lr_scan(phi, sz, sz, [7], [10.0], chain, ctx=ctx)

    def test_open_chain_scan(self, xx_model):
        # no wrap on an open chain; B is placed at +x and evolution uses the
        # open-boundary Hamiltonian
        phi, _ = xx_model
        chain = nl.ChainConfig(8, 2, "open")
        sz = nl.LocalOperator((0,), PAULI_Z, hermitian=True)
        rows = nl.lr_scan(phi, sz, sz, [3, 4], [0.0, 0.3], chain)
        H = nl.hamiltonian(phi, chain)
        for r in rows:
            U = sla.expm(1j * H * r.t)
            At = U @ nl.embed(sz, chain) @ U.conj().T
            Bx = nl.embed(nl.translate(sz, r.x, chain), chain)
            ref = nl.operator_norm(At @ Bx - Bx @ At)
            assert abs(r.empirical - ref) < 1e-8 * max(1e-12, ref)
            assert r.empirical <= r.bound

    def test_blockwise_norms_need_no_svd(self, xx_model, monkeypatch):
        # every commutator block is exactly anti-Hermitian, so operator_norm
        # takes its eigvalsh path instead of falling back to an SVD
        phi, _ = xx_model
        chain = nl.ChainConfig(8, 2)
        sz = nl.LocalOperator((0,), PAULI_Z, hermitian=True)

        def no_svd(*args, **kwargs):
            raise AssertionError("a commutator block fell back to an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        rows = nl.lr_scan(phi, sz, sz, [3, 4], [0.1, 0.3], chain)
        assert all(r.empirical > 0 for r in rows)

    @staticmethod
    def assert_matches_expm(phi, A, rows, chain, B=None):
        # lr_scan places B at -x on a ring and at +x on an open chain
        H = nl.hamiltonian(phi, chain)
        step = -1 if chain.periodic else 1
        for r in rows:
            U = sla.expm(1j * H * r.t)
            At = U @ nl.embed(A, chain) @ U.conj().T
            Bx = nl.embed(nl.translate(A if B is None else B, step * r.x, chain), chain)
            ref = nl.operator_norm(At @ Bx - Bx @ At)
            assert abs(r.empirical - ref) < 1e-8 * max(1e-12, ref)
            assert r.empirical <= r.bound

    @pytest.mark.parametrize("context", [None, "interaction", "joint"])
    def test_offdiagonal_against_expm(self, context):
        # sigma_x couples neighbouring charge sectors of XXZ
        phi, _ = nl.build_xxz_model(0.5)
        chain = nl.ChainConfig(8, 2)
        ctx = None
        if context == "interaction":
            ctx = nl.JointBasis.for_interaction(phi, chain)
        elif context == "joint":
            ctx = nl.joint_spectrum(nl.hamiltonian(phi, chain, sparse=True), chain)
        sx = nl.LocalOperator((0,), PAULI_X, hermitian=True)
        rows = nl.lr_scan(phi, sx, sx, [3], [0.0, 0.2, 0.4], chain, ctx=ctx)
        assert len(rows) == 3 and not any(r.excluded for r in rows)
        assert rows[0].empirical == 0.0  # disjoint supports commute exactly
        self.assert_matches_expm(phi, sx, rows, chain)

    def test_offdiagonal_open_chain_against_expm(self, xx_model):
        phi, _ = xx_model
        chain = nl.ChainConfig(8, 2, "open")
        sx = nl.LocalOperator((0,), PAULI_X, hermitian=True)
        rows = nl.lr_scan(phi, sx, sx, [3], [0.0, 0.2, 0.4], chain)
        self.assert_matches_expm(phi, sx, rows, chain)

    def test_sector_without_b_entries(self, xx_model):
        # n_j vanishes on the all-down sector, which sigma_z couples to no
        # other sector: that sector's commutator block is exactly zero
        phi, _ = xx_model
        chain = nl.ChainConfig(8, 2)
        sz = nl.LocalOperator((0,), PAULI_Z, hermitian=True)
        nj = nl.LocalOperator((0,), np.diag([0.0, 1.0]), hermitian=True)
        rows = nl.lr_scan(phi, sz, nj, [3], [0.0, 0.2, 0.4], chain)
        assert rows[0].empirical == 0.0 and rows[1].empirical > 0
        self.assert_matches_expm(phi, sz, rows, chain, B=nj)

    def test_offdiagonal_norms_need_no_svd(self, monkeypatch):
        # sigma_x twin of test_blockwise_norms_need_no_svd: the commutator on
        # every sector group is built exactly anti-Hermitian
        phi, _ = nl.build_xxz_model(0.5)
        chain = nl.ChainConfig(8, 2)
        sx = nl.LocalOperator((0,), PAULI_X, hermitian=True)

        def no_svd(*args, **kwargs):
            raise AssertionError("a commutator block fell back to an SVD")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        rows = nl.lr_scan(phi, sx, sx, [3, 4], [0.1, 0.3], chain)
        assert all(r.empirical > 0 for r in rows)

    def test_csv_round_trip_floats(self, xx8):
        phi, _, chain, ctx = xx8
        sz = nl.LocalOperator((0,), PAULI_Z, hermitian=True)
        rows = nl.lr_scan(phi, sz, sz, [3], [0.0, 0.2], chain, ctx=ctx)
        csv = nl.lr_scan_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "x,t,empirical_norm,bound,excluded_flag"
        got = lines[1].split(",")
        assert float(got[3]) == rows[0].bound  # repr round trip is exact


class TestDeviationBound:
    def norms(self):
        return {"n": 0.5, "J": 0.25, "j": 0.5, "J0": 0.25}

    def test_zero_at_time_zero(self, xx_model):
        phi, _ = xx_model
        assert nl.deviation_bound_Z(phi, 4, 9, 0.0, self.norms()) == 0.0

    def test_monotonicity(self, xx_model):
        phi, _ = xx_model
        n = self.norms()
        zs = [nl.deviation_bound_Z(phi, 4, 9, t, n) for t in (0.0, 0.1, 0.2, 0.5)]
        assert all(a < b for a, b in zip(zs, zs[1:]))
        # decreasing in M at fixed t
        z_m = [nl.deviation_bound_Z(phi, M, M + 5, 0.3, n) for M in (3, 4, 5)]
        assert all(a > b for a, b in zip(z_m, z_m[1:]))

    def test_term_by_term_oracle(self, rng):
        # independent re-implementation of the two summands; t kept small so
        # the exponential of the (large) group velocity stays representable
        phi = nl.build_random_interaction(2, 2, rng)
        norms = {"n": 0.7, "J": 1.3, "j": 0.9, "J0": 1.1}
        M, L, t = 4, 9, 0.002
        r, d = phi.r, float(phi.site_dim)
        V = nl.lr_velocity(phi)
        grow = (math.exp(2 * V * t) - 1.0) / (2.0 * V)
        first = (2.0 * d ** (2 * r - 1) * norms["n"] * norms["J"] * (2 * r - 1)
                 * math.exp(-M) / (1 - 1 / math.e) * math.exp(2 * r - 1) * grow)
        second = (2.0 * norms["j"] * norms["J0"] * d ** (4 * r - 4)
                  * (2 * r - 2) ** 2 * math.exp(4 * r - 4)
                  * (math.exp(-M) + math.exp(-(L - M))) * (grow - t) / (2 * V))
        assert abs(nl.deviation_bound_Z(phi, M, L, t, norms) - (first + second)) \
            < 1e-12 * (first + second)

    def test_range_one_second_term_vanishes(self, xx_model):
        # (2r-2)^2 = 0 kills the second summand for nearest-neighbour models
        phi, _ = xx_model
        norms = {"n": 0.5, "J": 0.25, "j": 0.5, "J0": 1e9}
        a = nl.deviation_bound_Z(phi, 4, 9, 0.5, norms)
        norms["J0"] = 0.0
        assert nl.deviation_bound_Z(phi, 4, 9, 0.5, norms) == a

    def test_degenerate_velocity_series(self):
        phi = nl.Interaction(2, 1, ())  # V = 0
        norms = {"n": 1.0, "J": 1.0, "j": 1.0, "J0": 1.0}
        z = nl.deviation_bound_Z(phi, 4, 9, 0.5, norms)
        assert math.isfinite(z) and z > 0.0

    def test_measured_norms(self, xx_model, chain12):
        phi, spec = xx_model
        norms = nl.z_norms(phi, spec, 3, chain12)
        assert abs(norms["n"] - 0.5) < 1e-12   # ||S3||
        assert abs(norms["j"] - 0.5) < 1e-12   # eigenvalues of j_0 are {+-1/2, 0, 0}
        assert abs(norms["J"] - 0.25) < 1e-12  # ||i[Phi, Phi']|| at the boundary
        assert abs(norms["J0"] - 0.25) < 1e-12

    def test_geometry_guard(self, xx_model):
        phi, _ = xx_model
        with pytest.raises(PreconditionError):
            nl.deviation_bound_Z(phi, 5, 4, 0.1, self.norms())


class TestHorizon:
    def test_wrap_horizon_value(self, xx_model):
        phi, _ = xx_model
        chain = nl.ChainConfig(12, 2)
        assert abs(empirical_velocity(phi) - 2.0) < 1e-12  # 4 * r * max||Phi||
        assert abs(wrap_horizon(phi, chain) - 3.0) < 1e-12
