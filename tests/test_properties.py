"""Property tests of the operator algebra on small chains (n <= 6, d in {2, 3})
and of the Lieb-Robinson scan against dense evolution (n <= 7)."""

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import nesslab as nl
from nesslab.errors import PreconditionError

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def chains(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 6))
    return nl.ChainConfig(n, d, draw(st.sampled_from(["periodic", "open"])))


@st.composite
def local_ops(draw, chain, diagonal=None):
    """A random complex LocalOperator on 1-3 sites of ``chain``."""
    m = draw(st.integers(1, min(3, chain.n_sites)))
    support = draw(st.lists(st.integers(0, chain.n_sites - 1), min_size=m, max_size=m,
                            unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = chain.site_dim ** m
    if diagonal is None:
        diagonal = draw(st.booleans())
    if diagonal:
        coeffs = np.diag(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    else:
        coeffs = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return nl.LocalOperator(tuple(sorted(support)), coeffs)


@st.composite
def translation_case(draw):
    chain = draw(chains())
    op = draw(local_ops(chain))
    n = chain.n_sites
    if chain.periodic:
        return chain, op, draw(st.integers(-2 * n, 2 * n)), draw(st.integers(-2 * n, 2 * n))
    # open chain: both shifts keep the support on the chain
    lo, hi = op.support[0], op.support[-1]
    a = draw(st.integers(-lo, n - 1 - hi))
    b = draw(st.integers(-(lo + a), n - 1 - (hi + a)))
    return chain, op, a, b


@PROPERTY
@given(translation_case())
def test_translate_composes(case):
    chain, op, a, b = case
    twice = nl.translate(nl.translate(op, a, chain), b, chain)
    once = nl.translate(op, a + b, chain)
    assert twice.support == once.support
    np.testing.assert_array_equal(nl.embed(twice, chain), nl.embed(once, chain))
    if chain.periodic:
        back = nl.translate(once, -(a + b) + 3 * chain.n_sites, chain)
        np.testing.assert_array_equal(nl.embed(back, chain), nl.embed(op, chain))


@st.composite
def support_op(draw):
    """A chain and a random LocalOperator on any 1-3 of its sites."""
    chain = draw(chains())
    return chain, draw(local_ops(chain))


@PROPERTY
@given(support_op())
def test_extract_local_inverts_embed(case):
    chain, op = case
    back = nl.extract_local(nl.embed(op, chain), op.support, chain)
    assert back.support == op.support
    assert np.linalg.norm(back.coeffs - op.coeffs) <= 1e-13 * np.linalg.norm(op.coeffs)


@st.composite
def basis_case(draw):
    """An interaction (XX, XXZ, random of range 1 or 2 for d = 2, or zero), a chain and
    the builder under test; joint_spectrum gets rings only, XX optionally with
    the total-current bias."""
    name = draw(st.sampled_from(["xx", "xxz", "random", "zero"]))
    d = 2 if name in ("xx", "xxz") else draw(st.sampled_from([2, 3]))
    r = draw(st.integers(1, 2)) if name == "random" and d == 2 else 1
    n = draw(st.integers(2 * r + 1, 7 if d == 2 else 4))
    builder = draw(st.sampled_from(["for_interaction", "joint_spectrum"]))
    boundary = "periodic" if builder == "joint_spectrum" else draw(
        st.sampled_from(["periodic", "open"]))
    chain = nl.ChainConfig(n, d, boundary)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = None
    if name == "xx":
        phi, spec = nl.build_xx_model()
    elif name == "xxz":
        phi = nl.build_xxz_model(rng.uniform(-1, 1))[0]
    elif name == "random":
        phi = nl.build_random_interaction(r, d, rng)
    else:
        phi = nl.Interaction(d, 1, ())
    bias = None
    if builder == "joint_spectrum" and spec is not None and draw(st.booleans()):
        bias = nl.total_current(phi, spec, chain, sparse=True)
    return phi, chain, builder, bias


@PROPERTY
@given(basis_case())
def test_sectored_basis_is_complete(case):
    phi, chain, builder, bias = case
    H = nl.hamiltonian(phi, chain, sparse=True)
    if builder == "joint_spectrum":
        basis = nl.joint_spectrum(H, chain, bias=bias)
    else:
        basis = nl.JointBasis.for_interaction(phi, chain)
    D = chain.dim
    # sector indices and columns each partition the D states
    assert np.array_equal(np.sort(np.concatenate([s.index for s in basis.sectors])), np.arange(D))
    assert np.array_equal(np.sort(np.concatenate(basis.columns)), np.arange(D))
    for s, cols in zip(basis.sectors, basis.columns):
        assert np.hstack([W for _, W in s.column_slabs()]).shape == (len(s.index), len(cols))
        assert np.array_equal(s.energies, basis.energies[cols])
    V = basis.vectors
    assert np.linalg.norm(H @ V - V * basis.energies) <= 1e-10
    assert np.linalg.norm(V.conj().T @ V - np.eye(D)) <= 1e-10
    assert np.all(np.diff(basis.energies) >= 0)
    if builder == "joint_spectrum":
        T = nl.shift_unitary(chain)
        assert np.linalg.norm(T @ V - V * np.exp(-1j * basis.momenta)) <= 1e-10
    if bias is not None:
        assert np.linalg.norm(V.conj().T @ (bias @ V) - np.diag(basis.bias_values)) <= 1e-9
    else:
        assert basis.bias_values is None


def _spin_one_xx() -> nl.Interaction:
    """Spin-1 XX bond (S+ S- + S- S+) / 2: conserves S3, so H has charge sectors."""
    up = np.diag([np.sqrt(2.0), np.sqrt(2.0)], k=-1)  # raises the site state index
    bond = (nl.kron_le([up, up.T]) + nl.kron_le([up.T, up])) / 2
    return nl.Interaction(site_dim=3, r=1, terms=(((0, 1), bond),))


def _random_unitary(rng, k: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _reversal_basis(rng, d: int) -> np.ndarray:
    """Unitary whose columns are eigenvectors of the local reversal u: i -> d-1-i,
    rotated at random inside each of u's two eigenspaces."""
    vals, vecs = np.linalg.eigh(np.eye(d, dtype=np.complex128)[::-1])
    for space in (vals < 0, vals > 0):
        vecs[:, space] = vecs[:, space] @ _random_unitary(rng, int(space.sum()))
    return vecs


@st.composite
def lr_case(draw):
    """A model, a random Hermitian A on one or two sites at 0 (diagonal or
    not), and a one-site B = u diag(b) u^H with two distinct eigenvalues (one
    doubly degenerate for d = 3), u a diagonal phase or a random unitary.  An
    F-even draw makes A and B equal their local reversal c[::-1, ::-1], so the
    scan folds by spin inversion when the model is XXZ or spin-1 XX."""
    d = draw(st.sampled_from([2, 3]))
    width = draw(st.integers(1, 2))
    n = draw(st.integers(width + 3, 7 if d == 2 else 5))
    chain = nl.ChainConfig(n, d, draw(st.sampled_from(["periodic", "open"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # charge-conserving: several sectors
        phi = nl.build_xxz_model(rng.uniform(-1, 1))[0] if d == 2 else _spin_one_xx()
    else:  # conserves nothing: one sector
        phi = nl.build_random_interaction(1, d, rng)
    even = draw(st.booleans())
    a = rng.standard_normal((d**width, d**width)) + 1j * rng.standard_normal((d**width,) * 2)
    # a diagonal A couples no two charge sectors; an F-even diagonal one-site A
    # would be a multiple of the identity, with a commutator of exactly 0
    if draw(st.booleans()) and not (even and width == 1):
        a = np.diag(a.diagonal().real)
    a = (a + a.conj().T) / 2
    if even:
        a = (a + a[::-1, ::-1]) / 2
    A = nl.LocalOperator(tuple(range(width)), a, hermitian=True)
    b1, b2 = rng.uniform(-2, 2, size=2)
    vals = [b1, b2] if d == 2 else draw(st.permutations([b1, b1, b2]))
    if even:
        u = _reversal_basis(rng, d)
    elif draw(st.booleans()):
        u = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)))
    else:
        u = _random_unitary(rng, d)
    b = u @ np.diag(vals) @ u.conj().T
    b = (b + b.conj().T) / 2
    if even:
        b = (b + b[::-1, ::-1]) / 2
    B = nl.LocalOperator((0,), b, hermitian=True)
    # 1e-10 relative needs norms far above the ~1e-15 absolute rounding floor:
    # x within two sites of the first admissible separation, t >= 0.5
    x = draw(st.integers(width + 2, min(width + 3, n - 1)))
    t = draw(st.floats(0.5, 1.5))
    return phi, chain, A, B, x, t


def _dense_lr_norm(phi, A, B, chain, x, t) -> float:
    """||[A(t), tau(B)]|| from expm, with B at -x on a ring and at +x on an open chain."""
    H = nl.hamiltonian(phi, chain)
    U = sla.expm(1j * t * H)
    At = U @ nl.embed(A, chain) @ U.conj().T
    Bx = nl.embed(nl.translate(B, -x if chain.periodic else x, chain), chain)
    return np.linalg.norm(At @ Bx - Bx @ At, 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lr_case())
def test_lr_scan_matches_dense_evolution(case):
    phi, chain, A, B, x, t = case
    # a tiny v_emp keeps every point inside the wrap horizon
    rows = nl.lr_scan(phi, A, B, [x], [t], chain, v_emp=1e-6)
    ref = _dense_lr_norm(phi, A, B, chain, x, t)
    assert abs(rows[0].empirical - ref) <= 1e-10 * ref


def _scan_with_eigvalsh_sizes(monkeypatch, phi, A, B, chain, x_values, t_values):
    """lr_scan rows and the size of every matrix it passes to eigvalsh."""
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    rows = nl.lr_scan(phi, A, B, x_values, t_values, chain, v_emp=1e-6)
    monkeypatch.undo()
    return rows, sizes


SX = nl.LocalOperator((0,), nl.models.PAULI_X, hermitian=True)
SZ = nl.LocalOperator((0,), nl.models.PAULI_Z, hermitian=True)


def _xx_with_field() -> nl.Interaction:
    """XX plus an on-site field h sigma_z: conserves S3, but sigma_z is F-odd."""
    bond = nl.build_xx_model()[0].terms[0][1]
    return nl.Interaction(2, 1, (((0,), 0.3 * nl.models.PAULI_Z), ((0, 1), bond)))


class TestSpinInversionImages:
    """for_interaction diagonalizes one sector of each F pair; the other shares its arrays."""

    @staticmethod
    def images(basis) -> list:
        """The sectors c whose F image (s -> D-1-s) is an earlier sector, with that sector."""
        D, S = basis.chain.dim, basis.sectors
        pairs = [(c, basis.labels[D - 1 - s.index[0]]) for c, s in enumerate(S)]
        return [(c, p) for c, p in pairs if p < c]

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("phi", [nl.build_xx_model()[0], nl.build_xxz_model(0.5)[0]],
                             ids=["xx", "xxz"])
    def test_image_sectors_share_arrays(self, phi, boundary):
        chain = nl.ChainConfig(8, 2, boundary)
        basis = nl.JointBasis.for_interaction(phi, chain)
        S = basis.sectors
        assert len(S) == 9 and len(self.images(basis)) == 4  # q = 5..8 mirror q = 3..0
        for c, p in self.images(basis):
            assert S[c].vectors is S[p].vectors and S[c].energies is S[p].energies
            assert np.array_equal(S[c].index, chain.dim - 1 - S[p].index)
        # the recorded pairing: an involution that pairs exactly the sectors sharing arrays
        assert [(c, p) for c, p in enumerate(basis.images) if p < c] == self.images(basis)
        assert all(basis.images[p] == c for c, p in enumerate(basis.images))
        assert basis.images[4] == 4  # q = 4 maps onto itself
        H = nl.hamiltonian(phi, chain)
        V = basis.vectors
        assert np.linalg.norm(H @ V - V * basis.energies) <= 1e-10
        assert np.linalg.norm(V.conj().T @ V - np.eye(chain.dim)) <= 1e-10

    def test_spin_one_ring(self):
        chain = nl.ChainConfig(4, 3)
        basis = nl.JointBasis.for_interaction(_spin_one_xx(), chain)
        assert len(basis.sectors) == 9 and len(self.images(basis)) == 4  # S3 = -4..4
        for c, p in self.images(basis):
            assert basis.sectors[c].vectors is basis.sectors[p].vectors
        H = nl.hamiltonian(_spin_one_xx(), chain)
        V = basis.vectors
        assert np.linalg.norm(H @ V - V * basis.energies) <= 1e-10

    @pytest.mark.parametrize("phi", [nl.build_fermion_model(1.0, [0.5])[0], _xx_with_field()],
                             ids=["fermion", "xx_field"])
    def test_no_images_without_symmetry(self, phi):
        basis = nl.JointBasis.for_interaction(phi, nl.ChainConfig(8, 2))
        assert len(basis.sectors) == 9 and basis.images is None
        assert len({id(s.vectors) for s in basis.sectors}) == 9


class TestReversalFold:
    """The spin-inversion fold of the half block, against dense evolution."""

    @staticmethod
    def assert_matches_expm(phi, A, B, chain, rows):
        for r in rows:
            ref = _dense_lr_norm(phi, A, B, chain, r.x, r.t)
            assert abs(r.empirical - ref) <= 1e-10 * ref

    @pytest.mark.parametrize("n, boundary", [(6, "periodic"), (8, "periodic"),
                                             (6, "open"), (8, "open")])
    def test_xxz_sigma_x(self, n, boundary):
        phi = nl.build_xxz_model(0.5)[0]
        chain = nl.ChainConfig(n, 2, boundary)
        rows = nl.lr_scan(phi, SX, SX, [3, 4], [0.5, 1.0], chain, v_emp=1e-6)
        self.assert_matches_expm(phi, SX, SX, chain, rows)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_spin_one_degenerate_b(self, monkeypatch, boundary):
        # B projects on the middle local state: its other eigenspace is
        # degenerate, and d = 3 leaves states that F maps to themselves
        phi = _spin_one_xx()
        chain = nl.ChainConfig(6, 3, boundary)
        sx = np.diag([np.sqrt(2.0), np.sqrt(2.0)], k=-1)
        A = nl.LocalOperator((0,), (sx + sx.T) / 2, hermitian=True)
        B = nl.LocalOperator((0,), np.diag([0.0, 1.0, 0.0]), hermitian=True)
        rows, sizes = _scan_with_eigvalsh_sizes(monkeypatch, phi, A, B, chain, [3, 4], [0.5, 1.0])
        self.assert_matches_expm(phi, A, B, chain, rows)
        assert max(sizes) == 122  # (3^5 + 1) / 2 F-even columns, not 3^5

    def test_fold_halves_the_eigenproblem(self, monkeypatch):
        phi = nl.build_xxz_model(0.5)[0]
        chain = nl.ChainConfig(8, 2)
        rows, sizes = _scan_with_eigvalsh_sizes(monkeypatch, phi, SX, SX, chain, [3], [0.5])
        assert rows[0].empirical > 0
        assert max(sizes) == 64  # two F blocks of the 128 x 128 half block

    def test_groups_that_f_swaps_stay_whole(self):
        # a diagonal Ising H has one sector per basis state; with A = sx sx and
        # B = sx every group of the half block has a distinct F image, so
        # nothing folds even though F is exact: each group is computed whole,
        # and its F image, which has the same singular values, is skipped
        phi = nl.Interaction(2, 1, (((0, 1), np.diag([1.0, -1.0, -1.0, 1.0])),))
        chain = nl.ChainConfig(6, 2)
        A = nl.LocalOperator((0, 1), nl.kron_le([nl.models.PAULI_X] * 2), hermitian=True)
        rows = nl.lr_scan(phi, A, SX, [4], [0.5, 1.0], chain, v_emp=1e-6)
        assert all(r.empirical > 0.1 for r in rows)
        self.assert_matches_expm(phi, A, SX, chain, rows)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("A, B", [(SZ, SZ), (SX, SZ), (SZ, SX)], ids=["zz", "xz", "zx"])
    def test_f_odd_operators(self, A, B, boundary):
        # sigma_z is F-odd: F maps each group onto a group with the same
        # singular values, and no group folds; an F-even A still shares the
        # blocks of image sector pairs
        phi = nl.build_xxz_model(0.5)[0]
        chain = nl.ChainConfig(8, 2, boundary)
        rows = nl.lr_scan(phi, A, B, [3, 4], [0.5, 1.0], chain, v_emp=1e-6)
        self.assert_matches_expm(phi, A, B, chain, rows)

    def test_image_pairs_take_their_mirror_block(self, monkeypatch):
        # sigma_x couples q to q +- 1: 16 pairs of sectors at n = 8; the 12 pairs
        # of two image sectors (q, q' != 4) form 6 F pairs, so A's blocks are
        # formed for 6 + 4 pairs
        phi = nl.build_xxz_model(0.5)[0]
        chain = nl.ChainConfig(8, 2)
        formed, blocks = [], nl.JointBasis.blocks

        def recording(self, A, pairs):
            formed.extend(pairs)
            return blocks(self, A, pairs)

        monkeypatch.setattr(nl.JointBasis, "blocks", recording)
        rows = nl.lr_scan(phi, SX, SX, [3, 4], [0.5], chain, v_emp=1e-6)
        monkeypatch.undo()
        assert len(formed) == len(set(formed)) == 10
        self.assert_matches_expm(phi, SX, SX, chain, rows)

    def test_sigma_z_scans_one_group_per_f_pair(self, monkeypatch):
        # on XX each charge sector is a group; F maps the group with m flipped
        # spins onto the one with 8 - m, so only m = 1, ..., 4 get a Gram
        # eigvalsh, of size min(C(7, m - 1), C(7, m)), and m = 5, 6, 7 none
        # (the norms of A, B and the bond term take the sizes 2, 2 and 4)
        phi = nl.build_xx_model()[0]
        chain = nl.ChainConfig(8, 2)
        rows, sizes = _scan_with_eigvalsh_sizes(monkeypatch, phi, SZ, SZ, chain, [3], [0.5])
        self.assert_matches_expm(phi, SZ, SZ, chain, rows)
        assert sorted(sizes) == [1, 2, 2, 4, 7, 21, 35]

    def test_fermions_with_interaction_do_not_fold(self, monkeypatch):
        # the density interaction is not reversal-symmetric, so F is no symmetry
        phi = nl.build_fermion_model(1.0, [0.5])[0]
        chain = nl.ChainConfig(8, 2)
        rows, sizes = _scan_with_eigvalsh_sizes(monkeypatch, phi, SX, SX, chain, [3], [0.5, 1.0])
        self.assert_matches_expm(phi, SX, SX, chain, rows)
        assert max(sizes) == 128


def test_lr_scan_two_eigenvalue_requirement(xx_model):
    phi, _ = xx_model
    chain = nl.ChainConfig(6, 2)
    sz = nl.LocalOperator((0,), nl.models.PAULI_Z, hermitian=True)
    three = nl.LocalOperator((0, 1), np.diag([1.0, 2.0, 2.0, 3.0]), hermitian=True)
    with pytest.raises(PreconditionError):
        nl.lr_scan(phi, sz, three, [4], [0.3], chain)
    # one eigenvalue: B is a multiple of the identity and commutes with everything
    flat = nl.LocalOperator((0,), 0.7 * np.eye(2), hermitian=True)
    rows = nl.lr_scan(phi, sz, flat, [3], [0.0, 0.3], chain)
    assert [r.empirical for r in rows] == [0.0, 0.0]
