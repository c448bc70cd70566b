"""Operator algebra: embeddings, translations, commutators, norms, matrix units."""

import numpy as np
import pytest
import scipy.sparse as sp

import nesslab as nl
from nesslab.models import PAULI_X, PAULI_Y, PAULI_Z
from nesslab.operators import shift_index_map
from nesslab.errors import PreconditionError


def kron_oracle(mats_by_site, chain):
    """Brute-force little-endian embedding: site 0 is the last kron factor."""
    d = chain.site_dim
    facs = [mats_by_site.get(x, np.eye(d)) for x in range(chain.n_sites)]
    out = facs[-1]
    for f in reversed(facs[:-1]):
        out = np.kron(out, f)
    return out


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            nl.ChainConfig(1, 2)
        with pytest.raises(ValueError):
            nl.ChainConfig(4, 1)
        with pytest.raises(ValueError):
            nl.ChainConfig(4, 2, "moebius")

    def test_one_site_open_chain(self):
        # the one-site window; a ring still needs two sites
        assert nl.ChainConfig(1, 3, "open").dim == 3
        with pytest.raises(ValueError):
            nl.ChainConfig(0, 2, "open")

    def test_arc_sites(self):
        chain = nl.ChainConfig(6, 2)
        assert nl.arc_sites(-2, 1, chain) == (4, 5, 0, 1)
        assert nl.arc_sites(0, 5, chain) == (0, 1, 2, 3, 4, 5)
        with pytest.raises(PreconditionError):
            nl.arc_sites(3, 2, chain)
        with pytest.raises(PreconditionError):
            nl.arc_sites(0, 6, chain)
        open_chain = nl.ChainConfig(6, 2, "open")
        with pytest.raises(PreconditionError):
            nl.arc_sites(-1, 2, open_chain)


class TestEmbed:
    def test_identity(self):
        chain = nl.ChainConfig(4, 2)
        op = nl.LocalOperator((3,), np.eye(2))
        assert np.allclose(nl.embed(op, chain), np.eye(16))

    def test_matrix_unit_little_endian(self):
        # E(0,1) on site 0 of a 2-site chain: site 0 is the fast digit, so the
        # global matrix is the 2x2 block-diagonal repetition of E(0,1)
        chain = nl.ChainConfig(2, 2)
        E01 = np.array([[0, 1], [0, 0]], dtype=complex)
        G = nl.embed(nl.LocalOperator((0,), E01), chain)
        expected = np.kron(np.eye(2), E01)
        assert np.array_equal(G, expected)

    def test_against_kron_oracle(self, rng):
        chain = nl.ChainConfig(5, 2)
        for sites in [(0,), (2,), (4,), (1, 3), (0, 4), (0, 1, 2)]:
            mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    for _ in sites]
            op = nl.product_operator(sites, mats)
            assert np.allclose(nl.embed(op, chain),
                               kron_oracle(dict(zip(sites, mats)), chain), atol=1e-13)

    def test_norm_preservation(self, rng):
        # tensoring with identity preserves the operator norm
        chain = nl.ChainConfig(6, 2)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A = A + A.conj().T
        op = nl.LocalOperator((2, 3), A, hermitian=True)
        local = np.max(np.abs(np.linalg.eigvalsh(A)))
        assert abs(nl.operator_norm(nl.embed(op, chain)) - local) < 1e-12

    def test_homomorphism(self, rng):
        chain = nl.ChainConfig(5, 2)
        for _ in range(3):
            A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            opA, opB = nl.LocalOperator((1, 3), A), nl.LocalOperator((1, 3), B)
            prod = nl.embed(nl.LocalOperator((1, 3), A @ B), chain)
            assert np.linalg.norm(prod - nl.embed(opA, chain) @ nl.embed(opB, chain)) < 1e-12

    def test_sparse_matches_dense(self, rng):
        chain = nl.ChainConfig(5, 3)
        M = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        op = nl.LocalOperator((0, 3), M)
        assert np.allclose(nl.embed_sparse(op, chain).toarray(), nl.embed(op, chain))

    def test_errors(self):
        chain = nl.ChainConfig(4, 2)
        with pytest.raises(PreconditionError):
            nl.embed(nl.LocalOperator((5,), np.eye(2)), chain)
        with pytest.raises(ValueError):
            nl.embed(nl.LocalOperator((0, 1), np.eye(2)), chain)


class TestTranslate:
    def test_charge_translate(self):
        chain = nl.ChainConfig(6, 2)
        n0 = nl.LocalOperator((0,), PAULI_Z)
        n3 = nl.translate(n0, 3, chain)
        assert n3.support == (3,)
        assert np.array_equal(n3.coeffs, PAULI_Z)

    def test_identity_and_group(self, rng):
        chain = nl.ChainConfig(8, 2)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = nl.LocalOperator((2, 4), M)
        same = nl.translate(op, 0, chain)
        assert same.support == op.support and np.array_equal(same.coeffs, op.coeffs)
        back = nl.translate(nl.translate(op, 2, chain), -2, chain)
        assert back.support == op.support
        assert np.linalg.norm(back.coeffs - op.coeffs) < 1e-14
        # tau_x tau_y = tau_{x+y}
        one = nl.translate(nl.translate(op, 3, chain), 4, chain)
        two = nl.translate(op, 7, chain)
        assert one.support == two.support
        assert np.linalg.norm(one.coeffs - two.coeffs) < 1e-14

    def test_conjugation_by_shift(self, rng):
        chain = nl.ChainConfig(5, 2)
        T = nl.shift_unitary(chain).toarray()
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = nl.LocalOperator((1, 3), M)
        G = nl.embed(op, chain)
        for x in range(1, 6):
            Gx = G
            for _ in range(x % 5):
                Gx = T @ Gx @ T.conj().T
            assert np.linalg.norm(nl.embed(nl.translate(op, x, chain), chain) - Gx) < 1e-12
            assert np.linalg.norm(nl.translate_global(G, x, chain) - Gx) < 1e-12

    def test_spectrum_preserved_under_wrap(self, rng):
        chain = nl.ChainConfig(6, 2)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        M = M + M.conj().T
        op = nl.LocalOperator((4, 5), M, hermitian=True)
        wrapped = nl.translate(op, 1, chain)  # support wraps to (0, 5)
        assert wrapped.support == (0, 5)
        ev1 = np.sort(np.linalg.eigvalsh(op.coeffs))
        ev2 = np.sort(np.linalg.eigvalsh(wrapped.coeffs))
        assert np.allclose(ev1, ev2, atol=1e-12)
        assert abs(op.norm() - wrapped.norm()) < 1e-12

    def test_open_chain_range(self):
        chain = nl.ChainConfig(4, 2, "open")
        op = nl.LocalOperator((2, 3), np.eye(4))
        with pytest.raises(PreconditionError):
            nl.translate(op, 1, chain)


class TestCommutatorsAndNorms:
    def test_self_commutator(self, rng):
        A = rng.standard_normal((8, 8))
        assert np.linalg.norm(nl.commutator(A, A)) == 0.0

    def test_disjoint_supports(self):
        chain = nl.ChainConfig(4, 2)
        A = nl.embed(nl.LocalOperator((0,), PAULI_X), chain)
        B = nl.embed(nl.LocalOperator((2,), PAULI_Y), chain)
        assert nl.comm_norm(A, B) <= 1e-14

    def test_pauli_commutator(self):
        # [sigma1, sigma2] = 2 i sigma3, checked by direct arithmetic
        chain = nl.ChainConfig(3, 2)
        A = nl.embed(nl.LocalOperator((0,), PAULI_X), chain)
        B = nl.embed(nl.LocalOperator((0,), PAULI_Y), chain)
        direct = nl.embed(nl.LocalOperator((0,), 2j * PAULI_Z), chain)
        assert np.linalg.norm(nl.commutator(A, B) - direct) < 1e-13
        assert abs(nl.comm_norm(A, B) - 2.0) < 1e-12

    def test_norm_values(self):
        assert nl.operator_norm(np.eye(7)) == 1.0
        assert abs(nl.operator_norm(PAULI_Z / 2) - 0.5) < 1e-14
        E01 = np.array([[0, 1], [0, 0]], dtype=complex)
        assert abs(nl.operator_norm(E01) - 1.0) < 1e-14
        # anti-Hermitian: the eigvalsh path on i A
        assert abs(nl.operator_norm(0.3j * PAULI_Z + 0.4 * (E01 - E01.T)) - 0.5) < 1e-14
        with pytest.raises(ValueError):
            nl.operator_norm(np.ones((2, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            nl.commutator(np.eye(2), np.eye(4))


class TestExtractLocal:
    def test_round_trip(self, rng):
        chain = nl.ChainConfig(5, 2)
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        op = nl.LocalOperator((1, 3), M)
        back = nl.extract_local(nl.embed(op, chain), (1, 3), chain)
        assert np.linalg.norm(back.coeffs - M) < 1e-13

    def test_wrong_support_raises(self):
        chain = nl.ChainConfig(4, 2)
        G = nl.embed(nl.LocalOperator((0,), PAULI_X), chain)
        with pytest.raises(PreconditionError):
            nl.extract_local(G, (1, 2), chain)


class TestShift:
    def test_unitary_and_charge_action(self):
        chain = nl.ChainConfig(4, 3)
        T = nl.shift_unitary(chain).toarray()
        assert np.allclose(T @ T.conj().T, np.eye(chain.dim))
        n_loc = np.diag([0.0, 1.0, 2.0])
        n0 = nl.embed(nl.LocalOperator((0,), n_loc), chain)
        n1 = nl.embed(nl.LocalOperator((1,), n_loc), chain)
        assert np.allclose(T @ n0 @ T.conj().T, n1)
        # period n_sites
        t = shift_index_map(chain)
        cur = np.arange(chain.dim)
        for _ in range(chain.n_sites):
            cur = t[cur]
        assert np.array_equal(cur, np.arange(chain.dim))


class TestSparseGraphHelpers:
    """The connected-components helper and the sparse Frobenius norm; scipy's csgraph
    and sparse.linalg serve here only as oracles."""

    @staticmethod
    def _assert_same_components(G):
        from scipy.sparse import csgraph

        n, labels = nl.operators.connected_components(G)
        n_ref, ref = csgraph.connected_components(G, directed=False)
        assert n == n_ref
        np.testing.assert_array_equal(labels, ref)

    def test_random_graphs(self, rng):
        # sparse random edges in one direction leave isolated vertices and many components
        for _ in range(200):
            n = int(rng.integers(1, 80))
            m = int(rng.integers(0, 2 * n))
            rows, cols = rng.integers(0, n, m), rng.integers(0, n, m)
            self._assert_same_components(sp.csr_matrix((np.ones(m), (rows, cols)), shape=(n, n)))

    def test_star_edges_of_sector_sets(self, rng):
        # the lr_scan cluster graph: each set of sectors joins its smallest to the others
        for _ in range(100):
            n = int(rng.integers(1, 40))
            sets = [np.unique(rng.integers(0, n, rng.integers(1, 4)))
                    for _ in range(int(rng.integers(0, n)))]
            edges = np.array([(S[0], s) for S in sets for s in S], dtype=np.int64).reshape(-1, 2)
            self._assert_same_components(sp.csr_matrix((np.ones(len(edges)), edges.T),
                                                       shape=(n, n)))

    def test_explicit_zeros_are_edges(self):
        G = sp.csr_matrix((np.array([0.0, 1.0]), (np.array([0, 3]), np.array([2, 1]))),
                          shape=(5, 5))
        assert G.nnz == 2
        self._assert_same_components(G)
        np.testing.assert_array_equal(nl.operators.connected_components(G)[1], [0, 1, 0, 1, 2])

    def test_frobenius_norm_matches_scipy(self, rng):
        from scipy.sparse.linalg import norm

        # duplicate entries are summed before the norm, as scipy does
        rows, cols = rng.integers(0, 6, 30), rng.integers(0, 6, 30)
        vals = rng.normal(size=30) + 1j * rng.normal(size=30)
        A = sp.coo_matrix((vals, (rows, cols)), shape=(6, 6))
        assert nl.operators.sparse_fro_norm(A.copy()) == norm(A.copy())
        H = nl.hamiltonian(nl.build_xxz_model(0.5)[0], nl.ChainConfig(6, 2), sparse=True)
        assert nl.operators.sparse_fro_norm(H.copy()) == norm(H)


def test_import_loads_no_csgraph_or_sparse_linalg():
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(nl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, nesslab; "
            "print(sorted(m for m in ('scipy.sparse.csgraph', 'scipy.sparse.linalg') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
