"""Joint spectrum, window functions, C(t), sum rule, spectral function, checks."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.sparse as sp

import nesslab as nl
from nesslab.errors import NumericalCheckError, PreconditionError
from nesslab.models import SPIN_HALF
from nesslab.spectral import (
    CommutatorKernel,
    SQRT_2PI,
    WindowFunction,
    _transfer_table,
    centered_mode,
    momentum_sector_basis,
    translation_orbits,
)
from nesslab.operators import shift_index_map
from nesslab.steady_state import StationaryState

S1, S2, S3 = SPIN_HALF


def table_kernel(state, A, B):
    """C(t) = <i [A, B(t)]> from the generic transfer table of (A, B)."""
    _, de, s = _transfer_table(state, A, B)
    return CommutatorKernel(de, s[0] - s[1])


@pytest.fixture(scope="module")
def xx8_basis():
    phi, _ = nl.build_xx_model()
    chain = nl.ChainConfig(8, 2)
    H = nl.hamiltonian(phi, chain, sparse=True)
    return chain, H, nl.joint_spectrum(H, chain)


class TestJointSpectrum:
    def test_eigen_property(self, xx8_basis):
        chain, H, basis = xx8_basis
        V = basis.vectors
        assert np.linalg.norm(H.toarray() @ V - V * basis.energies) < 1e-10
        T = nl.shift_unitary(chain)
        lam = np.exp(-1j * basis.momenta)
        assert np.linalg.norm(T @ V - V * lam) < 1e-10
        assert np.linalg.norm(V.conj().T @ V - np.eye(chain.dim)) < 1e-10

    def test_momentum_labels_are_roots_of_unity(self, xx8_basis):
        chain, _, basis = xx8_basis
        T = nl.shift_unitary(chain)
        lam = np.exp(-1j * basis.momenta)
        assert np.allclose(lam ** chain.n_sites, 1.0, atol=1e-12)
        k = basis.momenta
        assert np.all(k > -math.pi - 1e-12) and np.all(k <= math.pi + 1e-12)
        m = centered_mode(basis.mode, chain.n_sites)
        assert np.allclose(k, 2 * math.pi * m / chain.n_sites)

    def test_space_time_unitary_action(self, xx8_basis):
        # U(x, t) |n> = exp(i (E_n t - k_n x)) |n>
        chain, H, basis = xx8_basis
        x, t = 3, 0.7
        T = nl.shift_unitary(chain).toarray()
        Uxt = scipy.linalg.expm(1j * t * H.toarray()) @ np.linalg.matrix_power(T, x)
        phase = np.exp(1j * (basis.energies * t - basis.momenta * x))
        assert np.linalg.norm(Uxt @ basis.vectors - basis.vectors * phase) < 1e-10

    def test_zero_hamiltonian(self):
        chain = nl.ChainConfig(6, 2)
        H = sp.csr_matrix((chain.dim, chain.dim), dtype=complex)
        basis = nl.joint_spectrum(H, chain)
        assert np.all(basis.energies == 0.0)
        T = nl.shift_unitary(chain)
        lam = np.exp(-1j * basis.momenta)
        assert np.linalg.norm(T @ basis.vectors - basis.vectors * lam) < 1e-10

    @pytest.mark.parametrize("builder", ["joint_spectrum", "for_interaction"])
    def test_eigen_residual_certified(self, xx_model, monkeypatch, builder):
        # eigenvalues off by 1e-6 fail ||H_c W - W E|| <= 1e-10 max(1, ||H_c||) in both builders
        phi, _ = xx_model
        chain = nl.ChainConfig(6, 2)
        H = nl.hamiltonian(phi, chain, sparse=True)
        eigh = np.linalg.eigh

        def off_eigh(a):
            w, v = eigh(a)
            return w + 1e-6, v

        monkeypatch.setattr(np.linalg, "eigh", off_eigh)
        with pytest.raises(NumericalCheckError):
            if builder == "joint_spectrum":
                nl.joint_spectrum(H, chain)
            else:
                nl.JointBasis.for_interaction(phi, chain)

    def test_vectors_is_a_fresh_array(self, rng):
        # a one-sector basis without a frame: writing into the assembled matrix
        # must leave the sector's eigenvectors as they are
        phi = nl.build_random_interaction(1, 2, rng)
        basis = nl.JointBasis.for_interaction(phi, nl.ChainConfig(3, 2))
        assert len(basis.sectors) == 1 and basis.sectors[0].frame is None
        W = basis.sectors[0].vectors.copy()
        V = basis.vectors
        assert np.array_equal(V, W)
        V[:] = 0.0
        assert np.array_equal(basis.sectors[0].vectors, W)

    def test_non_invariant_rejected(self, rng):
        chain = nl.ChainConfig(4, 2)
        H = rng.standard_normal((16, 16))
        H = H + H.T
        with pytest.raises(PreconditionError):
            nl.joint_spectrum(H, chain)

    def test_bias_refinement_diagonalizes(self, xx_model):
        phi, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        H = nl.hamiltonian(phi, chain, sparse=True)
        J = nl.total_current(phi, spec, chain, sparse=True)
        basis = nl.joint_spectrum(H, chain, bias=J)
        V = basis.vectors
        Jt = V.conj().T @ (J @ V)
        assert np.linalg.norm(Jt - np.diag(basis.bias_values)) < 1e-9


def _sectored_case(name):
    """(chain, H, bias, basis) for the oracle checks of the sectored basis."""
    phi, spec = nl.build_xx_model()
    chain = nl.ChainConfig(8, 2)
    bias = None
    if name == "xx":
        bias = nl.total_current(phi, spec, chain, sparse=True)
    elif name == "xxz":
        phi, _ = nl.build_xxz_model(0.5)
    elif name == "random":
        chain = nl.ChainConfig(6, 2)
        phi = nl.build_random_interaction(2, 2, np.random.default_rng(11))
    H = nl.hamiltonian(phi, chain, sparse=True)
    if name == "zero":
        chain = nl.ChainConfig(6, 2)
        H = sp.csr_matrix((chain.dim, chain.dim), dtype=complex)
    return chain, H, bias, nl.joint_spectrum(H, chain, bias=bias)


def _probe_operators(chain):
    """Charge-conserving N_w, H_M, T, n_0 and the charge-coupling sigma_x."""
    phi, spec = nl.build_xx_model()
    return {
        "N_w": nl.models.charge_sparse(spec, (-3, 0), chain),
        "H_M": nl.models.window_hamiltonian_sparse(phi, (-1, 1), chain),
        "T": nl.shift_unitary(chain),
        "n_0": nl.LocalOperator((0,), spec.n0),
        "sigma_x": nl.LocalOperator((0,), nl.models.PAULI_X),
    }


def _orbits_by_loop(chain):
    """Reference: follow the shift from each not yet visited state."""
    t = shift_index_map(chain)
    seen = np.zeros(chain.dim, dtype=bool)
    orbits = []
    for start in range(chain.dim):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        nxt = t[start]
        while nxt != start:
            orbit.append(int(nxt))
            seen[nxt] = True
            nxt = t[nxt]
        orbits.append(orbit)
    return orbits


def _block_ids_by_loop(E, tol=1e-8):
    """Reference: walk the sorted energies, opening a block at each gap > tol."""
    ids = np.empty(len(E), dtype=np.int64)
    blk, prev = 0, None
    for idx in np.argsort(E, kind="stable"):
        if prev is not None and E[idx] - prev > tol:
            blk += 1
        ids[idx] = blk
        prev = E[idx]
    return ids


@pytest.mark.parametrize("n, d", [(6, 2), (8, 2), (4, 3), (5, 3)])
def test_translation_orbits_match_loop(n, d):
    chain = nl.ChainConfig(n, d)
    assert [o.tolist() for o in translation_orbits(chain)] == _orbits_by_loop(chain)


def test_energy_block_ids_match_loop(xx10_state):
    basis = xx10_state.basis
    assert np.array_equal(basis.energy_block_ids(), _block_ids_by_loop(basis.energies))


def _momentum_basis_by_loop(dim, n_sites, mode, orbits):
    """Reference: one column per orbit whose length admits the momentum."""
    k = 2.0 * math.pi * mode / n_sites
    rows, cols, data = [], [], []
    col = 0
    for orbit in orbits:
        ell = len(orbit)
        if (mode * ell) % n_sites != 0:
            continue
        rows.extend(orbit.tolist())
        cols.extend([col] * ell)
        data.extend((np.exp(1j * k * np.arange(ell)) / math.sqrt(ell)).tolist())
        col += 1
    return sp.coo_matrix((data, (rows, cols)), shape=(dim, col)).tocsc()


@pytest.mark.parametrize("n, d", [(6, 2), (8, 2), (4, 3)])
def test_momentum_sector_basis_matches_loop(n, d):
    chain = nl.ChainConfig(n, d)
    orbits = translation_orbits(chain)
    for mode in range(n):
        got = momentum_sector_basis(chain.dim, n, mode, orbits)
        want = _momentum_basis_by_loop(chain.dim, n, mode, orbits)
        assert got.shape == want.shape and (got != want).nnz == 0


@pytest.mark.parametrize("name", ["xx", "xxz", "zero", "random"])
class TestSectoredBasis:
    def test_sectors_partition_basis_states(self, name):
        chain, _, _, basis = _sectored_case(name)
        index = np.concatenate([s.index for s in basis.sectors])
        assert np.array_equal(np.sort(index), np.arange(chain.dim))
        columns = np.concatenate(basis.columns)
        assert np.array_equal(np.sort(columns), np.arange(chain.dim))
        for s, cols in zip(basis.sectors, basis.columns):
            W = np.hstack([W for _, W in s.column_slabs()])
            assert W.shape == (len(s.index), len(cols))
            assert np.array_equal(s.energies, basis.energies[cols])
        if name in ("xx", "xxz"):
            assert len(basis.sectors) == chain.n_sites + 1  # the charge sectors
        if name == "random":
            assert len(basis.sectors) == 1

    def test_assembled_vectors(self, name):
        chain, H, bias, basis = _sectored_case(name)
        V = basis.vectors
        assert np.linalg.norm(H.toarray() @ V - V * basis.energies) < 1e-10
        T = nl.shift_unitary(chain)
        assert np.linalg.norm(T @ V - V * np.exp(-1j * basis.momenta)) < 1e-10
        assert np.linalg.norm(V.conj().T @ V - np.eye(chain.dim)) < 1e-10
        if bias is not None:
            Jt = V.conj().T @ (bias @ V)
            assert np.linalg.norm(Jt - np.diag(basis.bias_values)) < 1e-9
        assert np.all(np.diff(basis.energies) >= 0)

    def test_blocks_match_dense_products(self, name):
        chain, _, _, basis = _sectored_case(name)
        V = basis.vectors
        for label, A in _probe_operators(chain).items():
            Ad = nl.embed(A, chain) if isinstance(A, nl.LocalOperator) else A.toarray()
            dense = V.conj().T @ Ad @ V
            covered = np.zeros(dense.shape, dtype=bool)
            pairs = set()
            for c, k, rows, X in basis.blocks(A, basis.coupled_pairs(A)):
                cell = np.ix_(basis.columns[c][rows], basis.columns[k])
                assert np.max(np.abs(X - dense[cell])) < 1e-12, label
                assert not covered[cell].any(), label  # each row slab comes once
                covered[cell] = True
                pairs.add((c, k))
            # every pair of sectors left out carries no matrix element
            assert np.max(np.abs(dense[~covered]), initial=0.0) < 1e-12, label
            if label == "sigma_x" and name != "random":
                assert all(c != k for c, k in pairs)  # sigma_x changes the charge
            diag = basis.diagonal(A)
            assert np.max(np.abs(diag - np.diag(dense))) < 1e-12, label

    def test_residual_bounds_commutator(self, name):
        # residual(A) is the norm of V^H A V without its diagonal, and bounds
        # ||[rho, A]||_F for every rho = V diag(p) V^H with 0 <= p <= 1
        chain, _, _, basis = _sectored_case(name)
        rng = np.random.default_rng(3)
        V = basis.vectors
        for label, A in _probe_operators(chain).items():
            Ad = nl.embed(A, chain) if isinstance(A, nl.LocalOperator) else A.toarray()
            X = V.conj().T @ Ad @ V
            off_diagonal = np.linalg.norm(X - np.diag(np.diag(X)))
            cert = basis.residual(A)
            assert abs(cert - off_diagonal) < 1e-12 * max(1.0, off_diagonal), label
            for _ in range(3):
                rho = (V * rng.random(chain.dim)) @ V.conj().T
                dense = np.linalg.norm(rho @ Ad - Ad @ rho)
                assert dense <= cert * (1.0 + 1e-12) + 1e-14, label


def _frame_case(model, n):
    """(phi, spec, chain, state): biased XX, XXZ(0.5) at lambda = 0, or fermions
    with a density interaction at lambda = 0, on n sites."""
    chain = nl.ChainConfig(n, 2)
    if model == "xx":
        (phi, spec), lam = nl.build_xx_model(), 0.5
    elif model == "xxz":
        (phi, spec), lam = nl.build_xxz_model(0.5), 0.0
    else:
        (phi, spec), lam = nl.build_fermion_model(1.0, [0.5]), 0.0
    return phi, spec, chain, nl.build_biased_gibbs(phi, spec, nl.BiasSpec(1.0, lam), chain)


@pytest.fixture(scope="module", params=[(m, n) for m in ("xx", "xxz", "fermion") for n in (6, 8)],
                ids=lambda case: f"{case[0]}-{case[1]}")
def frame_case(request):
    return _frame_case(*request.param)


class TestOrbitFrame:
    """The state basis kept per sector as a sparse orbit-momentum frame times the
    eigenvectors of each momentum block, against the dense V = basis.vectors."""

    def test_dense_vectors_diagonalize_h_and_the_bias(self, frame_case):
        phi, spec, chain, state = frame_case
        basis = state.basis
        V = basis.vectors
        assert np.linalg.norm(V.conj().T @ V - np.eye(chain.dim)) < 1e-12
        H = nl.hamiltonian(phi, chain)
        assert np.linalg.norm(H @ V - V * basis.energies) < 1e-12
        T = nl.shift_unitary(chain)
        assert np.linalg.norm(T @ V - V * np.exp(-1j * basis.momenta)) < 1e-12
        if state.meta["lambda"] != 0:
            J = nl.total_current(phi, spec, chain)
            assert np.linalg.norm(V.conj().T @ J @ V - np.diag(basis.bias_values)) < 1e-12

    def test_blocks_diagonal_residual_match_dense(self, frame_case):
        phi, spec, chain, state = frame_case
        basis = state.basis
        V = basis.vectors
        probes = [nl.LocalOperator((0,), spec.n0), nl.LocalOperator((0,), nl.models.PAULI_X),
                  nl.current_local(phi, spec, chain), nl.hamiltonian(phi, chain, sparse=True),
                  nl.shift_unitary(chain)]
        probes += [nl.LocalOperator(offsets, mat) for offsets, mat in phi.terms]
        for i, A in enumerate(probes):
            Ad = nl.embed(A, chain) if isinstance(A, nl.LocalOperator) else A.toarray()
            dense = V.conj().T @ Ad @ V
            covered = np.zeros(dense.shape, dtype=bool)
            for c, k, rows, X in basis.blocks(A, basis.coupled_pairs(A)):
                cell = np.ix_(basis.columns[c][rows], basis.columns[k])
                assert np.max(np.abs(X - dense[cell])) < 1e-12, i
                covered[cell] = True
            assert np.max(np.abs(dense[~covered]), initial=0.0) < 1e-12, i
            assert np.max(np.abs(basis.diagonal(A) - np.diag(dense))) < 1e-12, i
            off_diagonal = np.linalg.norm(dense - np.diag(np.diag(dense)))
            assert abs(basis.residual(A) - off_diagonal) < 1e-12 * max(1.0, off_diagonal), i

    def test_no_sector_holds_dense_vectors(self, frame_case):
        # each sector stores sum_m d_m^2 eigenvector entries, d_m the number of its
        # orbits that carry momentum 2 pi m / n, and a frame with one entry per
        # basis state of each such orbit and momentum
        _, _, chain, state = frame_case
        n = chain.n_sites
        orbits = translation_orbits(chain)
        for s in state.basis.sectors:
            mine = [o for o in orbits if o[0] in set(s.index.tolist())]
            d_m = [sum((m * len(o)) % n == 0 for o in mine) for m in range(n)]
            assert isinstance(s.vectors, tuple)
            assert [E.shape for E in s.vectors] == [(d, d) for d in d_m if d]
            assert sum(E.size for E in s.vectors) == sum(d * d for d in d_m)
            assert s.frame.nnz == sum(len(o) for o in mine for m in range(n)
                                      if (m * len(o)) % n == 0)
            assert s.frame.shape == (len(s.index), len(s.index))


class TestWindowFunction:
    def test_support_truncation(self):
        win = WindowFunction("hann", 2.0)
        ts = np.array([-2.5, -2.0, 0.0, 1.9, 2.0, 2.1])
        vals = win.value(ts)
        assert vals[0] == 0.0 and vals[-1] == 0.0
        assert vals[2] == 1.0

    def test_hann_closed_form_vs_quadrature(self):
        win = WindowFunction("hann", 2.0)
        for eps in (0.0, 0.3, math.pi / 2, math.pi / 2 + 1e-9, 2.2, 7.0):
            quad = scipy.integrate.quad(
                lambda t: win.value(t) * math.cos(eps * t), -2, 2, limit=200)[0]
            assert abs(win.fourier(eps) - quad / SQRT_2PI) < 1e-10

    def test_fourier_zero(self):
        win = WindowFunction("hann", 2.0)
        assert abs(win.fourier0() - 2.0 / SQRT_2PI) < 1e-14

    def test_inverse_transform_recovers_window(self):
        # (1/sqrt(2 pi)) int ft(eps) exp(-i eps t) d eps == f(t) to 1e-6
        win = WindowFunction("hann", 2.0)
        eps = np.linspace(-1000.0, 1000.0, 2_000_001)
        ft = win.fourier(eps)
        for t in (0.0, 0.5, 1.3, 1.9):
            val = np.trapezoid(ft * np.exp(-1j * eps * t), eps) / SQRT_2PI
            assert abs(val - win.value(t)) < 1e-6

    def test_truncated_gaussian(self):
        win = WindowFunction("truncated_gaussian", 1.5)
        assert win.value(1.6) == 0.0
        quad = scipy.integrate.quad(lambda t: win.value(t), -1.5, 1.5)[0]
        assert abs(win.fourier0() - quad / SQRT_2PI) < 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowFunction("boxcar", 1.0)
        with pytest.raises(ValueError):
            WindowFunction("hann", -1.0)


def gauss_legendre(curve, window, tol=1e-10, order=16, panels=16, max_rounds=8):
    """Oracle: int f_T(t) curve(t) dt by composite Gauss-Legendre, panels
    doubled until two successive estimates agree to tol."""
    T = window.T
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)

    def run(n_panels):
        edges = np.linspace(-T, T, n_panels + 1)
        mid, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
        ts = (mid[:, None] + half[:, None] * base_nodes).ravel()
        vals = (curve(ts) * window.value(ts)).reshape(n_panels, order)
        return float(np.sum(half * (vals @ base_weights)))

    last = run(panels)
    for _ in range(max_rounds):
        panels *= 2
        cur = run(panels)
        if abs(cur - last) <= tol * (1.0 + abs(cur)):
            return cur
        last = cur
    raise AssertionError("quadrature oracle did not converge")


class TestQuadrature:
    def test_oscillatory_integral(self):
        win = WindowFunction("hann", 2.0)
        omega = 7.3

        def curve(ts):
            return np.cos(omega * ts)

        ref = scipy.integrate.quad(lambda t: math.cos(omega * t) * win.value(t),
                                   -2, 2, limit=400)[0]
        assert abs(gauss_legendre(curve, win) - ref) < 1e-8

    @pytest.mark.parametrize("T", [1.5, 2.0])
    def test_hann_removable_singularity(self, T):
        # ft has a removable singularity at |eps T / pi| = 1; the series branch
        # covers |1 - |u|| < 1e-6 and must join the direct formula smoothly
        win = WindowFunction("hann", T)
        for u in (1.0, -1.0, 1.0 + 5e-7, 1.0 - 5e-7, 1.0 + 2e-6, 1.0 - 2e-6, 1.0 + 1e-12):
            eps = u * math.pi / T
            ref = gauss_legendre(lambda ts: np.cos(eps * ts), win, tol=1e-14) / SQRT_2PI
            assert abs(win.fourier(eps) - ref) < 1e-12

    @pytest.mark.parametrize("kind", ["hann", "truncated_gaussian"])
    def test_closed_form_windowed_integral(self, xx10_state, xx_model, chain10, kind):
        # sqrt(2 pi) sum W ft(dE) against quadrature of the kernel's own curve
        phi, spec = xx_model
        geom = nl.CurrentGeometry(4, 2, 1)
        win = WindowFunction(kind, 1.5)
        kernel = nl.correlation_kernel(xx10_state, phi, spec, geom)
        ref = gauss_legendre(kernel.curve, win)
        assert abs(kernel.windowed_integral(win) - ref) < 1e-9 * (1.0 + abs(ref))


class TestCorrelation:
    def test_c_zero_equals_current(self, xx10_state, xx_model, chain10):
        phi, spec = xx_model
        geom = nl.CurrentGeometry(4, 2, 1)
        j0 = nl.current_local(phi, spec, chain10)
        c0 = nl.correlation_kernel(xx10_state, phi, spec, geom).at(0.0)
        assert abs(c0 - xx10_state.expect(j0).real) < 1e-10

    def test_zero_current_state_flat_zero(self, xx_model, chain10):
        phi, spec = xx_model
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.0), chain10)
        kernel = nl.correlation_kernel(state, phi, spec, nl.CurrentGeometry(4, 2, 1))
        assert np.max(np.abs(kernel.curve(np.linspace(0, 1.5, 7)))) < 1e-10

    def test_forward_backward_consistency(self, xx10_state, xx_model, chain10):
        # <i[N, H_M(t)]> = <i[N(-t), H_M]> for a stationary state
        phi, spec = xx_model
        geom = nl.CurrentGeometry(4, 2, 1)
        from nesslab.models import charge_sparse, window_hamiltonian_sparse

        N = charge_sparse(spec, (-geom.L, 0), chain10)
        H_M = window_hamiltonian_sparse(phi, (-geom.M, geom.M), chain10)
        forward = table_kernel(xx10_state, N, H_M)
        backward = table_kernel(xx10_state, H_M, N)
        ts = np.linspace(0.0, 1.2, 5)
        assert np.max(np.abs(forward.curve(ts) + backward.curve(-ts))) < 1e-9

    def test_curve_matches_dense_commutator(self, xx_model, dense_evolve):
        # the reduced C(t) against i Tr(rho [N, H_M(t)]) with H_M(t) evolved densely
        phi, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5), chain)
        N = nl.models.charge_sparse(spec, (-4, 0), chain)
        H_M = nl.models.window_hamiltonian_sparse(phi, (-2, 2), chain)
        kernel = nl.correlation_kernel(state, phi, spec, nl.CurrentGeometry(4, 2, 1))
        V = state.basis.vectors
        rho = (V * state.probs) @ V.conj().T
        N, H_M = N.toarray(), H_M.toarray()
        for t in (-1.1, 0.4, 1.3):
            H_t = dense_evolve(H_M, state.basis, t)
            direct = 1j * np.trace(rho @ (N @ H_t - H_t @ N))
            assert abs(direct.imag) < 1e-12
            assert abs(kernel.at(t) - direct.real) < 1e-12

    def test_flatness_within_bound(self, xx10_state, xx_model, chain10):
        phi, spec = xx_model
        geom = nl.CurrentGeometry(4, 2, 1)
        kernel = nl.correlation_kernel(xx10_state, phi, spec, geom)
        norms = nl.z_norms(phi, spec, geom.M, chain10)
        ts = np.linspace(0.0, 1.0, 6)
        C = kernel.curve(ts)
        for t, c in zip(ts[1:], C[1:]):
            assert abs(c - C[0]) <= nl.deviation_bound_Z(phi, geom.M, geom.L, t, norms)


class TestSumRule:
    def test_zero_current_state(self, xx_model, chain10):
        phi, spec = xx_model
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.0), chain10)
        res = nl.sum_rule_check(state, phi, spec, nl.CurrentGeometry(4, 2, 1),
                                WindowFunction("hann", 1.5), chain10)
        assert abs(res["lhs"]) < 1e-9 and abs(res["rhs"]) < 1e-9

    def test_biased_state_small_chain(self, xx10_state, xx_model, chain10):
        phi, spec = xx_model
        res = nl.sum_rule_check(xx10_state, phi, spec, nl.CurrentGeometry(4, 2, 1),
                                WindowFunction("hann", 1.5), chain10)
        assert res["rel_err"] <= 0.05
        assert abs(res["rhs"] - SQRT_2PI * res["current"] * 1.5 / SQRT_2PI) < 1e-12

    def test_window_beyond_horizon_refused(self, xx10_state, xx_model, chain10):
        phi, spec = xx_model
        with pytest.raises(PreconditionError):
            nl.sum_rule_check(xx10_state, phi, spec, nl.CurrentGeometry(4, 2, 1),
                              WindowFunction("hann", 4.0), chain10)

    def test_chain_other_than_the_state_refused(self, xx_model):
        # the state's tables reduced on a 10-site ring would give lhs 0.1332, not 0.0866
        phi, spec = xx_model
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5),
                                      nl.ChainConfig(8, 2))
        args = (state, phi, spec, nl.CurrentGeometry(4, 2, 1), WindowFunction("hann", 1.5))
        with pytest.raises(PreconditionError):
            nl.sum_rule_check(*args, nl.ChainConfig(10, 2))
        assert nl.sum_rule_check(*args, nl.ChainConfig(8, 2))["rel_err"] <= 0.05

    def test_analyses_take_no_chain(self, xx10_state, xx_model, chain10):
        # the chain of an old positional call is refused, not taken for the tables
        phi, spec = xx_model
        geom, win = nl.CurrentGeometry(4, 2, 1), WindowFunction("hann", 1.5)
        with pytest.raises(TypeError):
            nl.correlation_kernel(xx10_state, phi, spec, geom, chain10)
        with pytest.raises(TypeError):
            nl.boundary_commutator_integral(xx10_state, phi, spec, geom, win, chain10)
        with pytest.raises(TypeError):
            nl.verify_ness(xx10_state, phi, spec, chain10)


@pytest.fixture(scope="module")
def xx10_spectral(request):
    phi, spec = nl.build_xx_model()
    chain = nl.ChainConfig(10, 2)
    state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5), chain)
    return chain, state, nl.spectral_function_rho(state, phi, spec)


def xx_with_field():
    """XX plus an on-site field: two term classes, one of span 0."""
    phi, spec = nl.build_xx_model()
    return nl.Interaction(site_dim=2, r=1, terms=phi.terms + (((0,), 0.3 * S3),)), spec


def complement_table_gap(state, phi, spec, L, M, chain, tables, win):
    """|boundary_commutator_integral - the same integral from the generic table
    of (N_[-L,0], C_-M + C_M)|."""
    geom = nl.CurrentGeometry(L, M, phi.r)
    N = nl.models.charge_sparse(spec, (-L, 0), chain)
    cm, cp = nl.boundary_complements(phi, M, chain)
    C = nl.embed_sparse(cm, chain) + nl.embed_sparse(cp, chain)
    bc = nl.boundary_commutator_integral(state, phi, spec, geom, win, tables=tables)
    return abs(bc - table_kernel(state, N, C).windowed_integral(win))


def assert_spectral_matches_table(state, phi, spec, chain, tables):
    """spectral_function_rho has the keys of the generic table of (n^, h^) and
    its weights to 1e-15."""
    n_op = nl.LocalOperator((0,), spec.n0)
    h_op = nl.energy_density(phi, chain)
    n_hat, h_hat = (nl.embed_sparse(op, chain) - state.expect(op) * sp.identity(chain.dim)
                    for op in (n_op, h_op))
    dk, de, (w, w_n) = _transfer_table(state, n_hat, h_hat)
    sf = nl.spectral_function_rho(state, phi, spec, tables=tables)
    assert np.array_equal(sf.dk_index, dk)
    assert np.array_equal(sf.de, np.round(de, nl.spectral.DE_DECIMALS) + 0.0)
    assert np.max(np.abs(sf.weights - w)) < 1e-15


class TestTermTables:
    """Every windowed sum reduced from the per-term tables against the generic
    table of its assembled operator pair."""

    @pytest.mark.parametrize("model", [nl.build_xx_model, xx_with_field])
    def test_reductions_match_assembled_operators(self, model):
        phi, spec = model()
        chain = nl.ChainConfig(8, 2)
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5), chain)
        tables = nl.spectral.term_tables(state, phi, spec)
        assert len(tables) == len(phi.terms)
        win = WindowFunction("hann", 1.5)
        ts = np.linspace(-1.5, 1.5, 13)
        geometries = [(L, M) for M in range(2, 8) for L in range(M + 2, 8)
                      if L + M + 1 < chain.n_sites]
        assert geometries == [(4, 2)]
        for L, M in geometries:
            geom = nl.CurrentGeometry(L, M, 1)
            N = nl.models.charge_sparse(spec, (-L, 0), chain)
            H_M = nl.models.window_hamiltonian_sparse(phi, (-M, M), chain)
            ref = table_kernel(state, N, H_M)
            kernel = nl.correlation_kernel(state, phi, spec, geom, tables=tables)
            assert abs(kernel.windowed_integral(win) - ref.windowed_integral(win)) < 1e-15
            assert np.max(np.abs(kernel.curve(ts) - ref.curve(ts))) < 1e-15
            assert complement_table_gap(state, phi, spec, L, M, chain, tables, win) < 1e-15
        assert_spectral_matches_table(state, phi, spec, chain, tables)

    def test_reductions_beyond_range_one(self, rng):
        # classes of span 0, 1 and 2, anchored in h at 0, 0 and -1; (L, M) = (8, 4)
        # is the smallest r = 2 geometry, and N_[-8,0] needs a ring of 9 sites
        phi = nl.build_random_interaction(2, 2, rng)
        spec = nl.models.ChargeSpec(S3)
        chain = nl.ChainConfig(9, 2)
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.0), chain)
        tables = nl.spectral.term_tables(state, phi, spec)
        win = WindowFunction("hann", 1.5)
        assert complement_table_gap(state, phi, spec, 8, 4, chain, tables, win) < 1e-14
        assert_spectral_matches_table(state, phi, spec, chain, tables)

    def test_zero_term_class_changes_nothing(self):
        # v = [0.5, 0.0] carries a zero (0, 2) class: h, C_-M, C_M and the
        # spectral weights are those of v = [0.5], bit for bit
        (phi, spec), (ref, _) = (nl.build_fermion_model(1.0, v) for v in ([0.5, 0.0], [0.5]))
        chain = nl.ChainConfig(8, 2)
        pairs = [(nl.energy_density(phi, chain), nl.energy_density(ref, chain))]
        for M in (1, 2, 3):
            pairs += zip(nl.boundary_complements(phi, M, chain),
                         nl.boundary_complements(ref, M, chain))
        for a, b in pairs:
            assert a.support == b.support and np.array_equal(a.coeffs, b.coeffs)
        got, want = (nl.spectral_function_rho(
            nl.build_biased_gibbs(p, spec, nl.BiasSpec(beta=1.0, lam=0.0), chain), p, spec)
            for p in (phi, ref))
        assert np.array_equal(got.dk_index, want.dk_index)
        assert np.array_equal(got.de, want.de)
        assert np.array_equal(got.weights, want.weights)


class TestSpectralFunction:
    def test_completeness(self, xx10_spectral, xx_model):
        chain, state, sf = xx10_spectral
        phi, spec = xx_model
        n_op = nl.LocalOperator((0,), spec.n0)
        h_op = nl.energy_density(phi, chain)
        nbar = state.expect(n_op)
        hbar = state.expect(h_op)
        n_hat = nl.embed(n_op, chain) - nbar * np.eye(chain.dim)
        h_hat = nl.embed(h_op, chain) - hbar * np.eye(chain.dim)
        direct = 1j * state.expect(n_hat @ h_hat)
        assert abs(sf.total() - direct) < 1e-10

    def test_position_round_trip(self, xx10_spectral, xx_model, dense_evolve):
        # two independent computation paths for rho(z, t)
        chain, state, sf = xx10_spectral
        phi, spec = xx_model
        n_op = nl.LocalOperator((0,), spec.n0)
        h_op = nl.energy_density(phi, chain)
        nbar = state.expect(n_op)
        hbar = state.expect(h_op)
        n_hat = nl.embed(n_op, chain) - nbar * np.eye(chain.dim)
        for (z, t) in ((2, 0.4), (0, 0.0), (-3, 1.1)):
            h_t = dense_evolve(nl.embed(h_op, chain), state.basis, -t)
            h_zt = nl.translate_global(h_t, -z, chain) - hbar * np.eye(chain.dim)
            direct = state.expect(1j * (n_hat @ h_zt)) / (2 * math.pi * SQRT_2PI)
            assert abs(sf.rho_position(z, t) - direct) < 1e-9

    def test_infinite_temperature_energy_symmetry(self, xx_model):
        # maximally mixed state of the XX basis; the energy density of an on-site
        # interaction equal to the charge makes n^ = h^: weights symmetric under de -> -de
        phi, spec = xx_model
        chain = nl.ChainConfig(8, 2)
        H = nl.hamiltonian(phi, chain, sparse=True)
        basis = nl.joint_spectrum(H, chain)
        flat = StationaryState(basis=basis, probs=np.full(chain.dim, 1.0 / chain.dim))
        onsite = nl.Interaction(site_dim=2, r=1, terms=(((0,), spec.n0),))
        sf = nl.spectral_function_rho(flat, onsite, spec)
        table = {(int(k), round(float(d), 9)): w
                 for k, d, w in zip(sf.dk_index, sf.de, sf.weights)}
        for (k, d), w in table.items():
            assert abs(w - table.get((k, -d), 0.0)) < 1e-12

    def test_csv_format(self, xx10_spectral):
        _, _, sf = xx10_spectral
        lines = sf.to_csv().strip().split("\n")
        assert lines[0] == "dk_index,dk_value,de_value,weight_re,weight_im"
        cols = lines[1].split(",")
        assert len(cols) == 5
        assert float(cols[3]) == sf.weights[0].real  # repr round trip


class TestMomentumDerivative:
    def test_zero_current_state(self, xx_model, chain10):
        phi, spec = xx_model
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.0), chain10)
        sf = nl.spectral_function_rho(state, phi, spec)
        res = nl.momentum_derivative_check(sf, WindowFunction("hann", 1.5), 1,
                                           current_value=0.0)
        assert abs(res["lhs"]) < 1e-9 and abs(res["rhs"]) < 1e-9

    def test_biased_state_matches_current(self, xx10_spectral, xx_model):
        chain, state, sf = xx10_spectral
        phi, spec = xx_model
        cur = state.expect(nl.current_local(phi, spec, chain)).real
        res = nl.momentum_derivative_check(sf, WindowFunction("hann", 1.5), 1,
                                           current_value=cur)
        assert res["rel_err"] <= 0.10

    def test_correlator_decomposition_consistency(self, xx10_spectral, xx_model):
        # the derivative term equals the windowed correlator minus the tail,
        # count and boundary-complement terms, up to small ring-wrap leftovers
        chain, state, sf = xx10_spectral
        phi, spec = xx_model
        win = WindowFunction("hann", 1.5)
        cur = state.expect(nl.current_local(phi, spec, chain)).real
        scale = abs(SQRT_2PI * cur * win.fourier0())
        geom = nl.CurrentGeometry(4, 2, 1)
        sr = nl.sum_rule_check(state, phi, spec, geom, win, chain)
        md = nl.momentum_derivative_check(sf, win, geom.M - geom.r, current_value=cur)
        bc = nl.boundary_commutator_integral(state, phi, spec, geom, win)
        resid = abs(md["derivative_term"] - (sr["lhs"] - md["tail_term"] - md["count_term"] - bc))
        assert resid <= 0.05 * scale

    def test_boundary_terms_decay_with_window(self, xx10_spectral):
        chain, state, sf = xx10_spectral
        win = WindowFunction("hann", 1.5)
        tails, counts = [], []
        for Y in (1, 2, 3):
            res = nl.momentum_derivative_check(sf, win, Y, current_value=0.1)
            tails.append(abs(res["tail_term"]))
            counts.append(abs(res["count_term"]))
        assert tails[0] > tails[1] > tails[2]
        assert counts[0] > counts[1] > counts[2]


class TestSingularity:
    def test_full_window_fraction_one(self, xx10_spectral):
        _, _, sf = xx10_spectral
        diag = nl.singularity_diagnostic(sf, [math.inf], z_halfwidth=2)
        assert diag["fractions"][math.inf] == 1.0

    def test_no_current_flagged(self, xx_model, chain10):
        phi, spec = xx_model
        state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.0), chain10)
        sf = nl.spectral_function_rho(state, phi, spec)
        diag = nl.singularity_diagnostic(sf, [0.2], z_halfwidth=2)
        assert diag["no_current"]
        assert diag["fractions"][0.2] is None

    def test_total_mass_matches_current(self, xx10_spectral, xx_model):
        # the estimator's total mass reproduces the current expectation
        chain, state, sf = xx10_spectral
        phi, spec = xx_model
        cur = state.expect(nl.current_local(phi, spec, chain)).real
        diag = nl.singularity_diagnostic(sf, [0.2], z_halfwidth=3)
        assert abs(diag["total_mass"] - cur) < 0.05 * abs(cur)
