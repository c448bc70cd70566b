"""Finite-chain operator algebra: dense operators on a 1-d lattice of qudits.

Conventions fixed here and relied on by every other module:

* Sites are labelled 0 .. n_sites-1.  The global Hilbert space is the tensor
  product of one ``site_dim``-dimensional factor per site.
* Composite basis indices are little-endian in the site index: site 0 is the
  fastest-varying digit, i.e. global index = sum_x s_x * site_dim**x.
* A LocalOperator stores its coefficient matrix in the same convention
  restricted to its support: the smallest support site is the fastest digit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import PreconditionError

HERMITICITY_TOL = 1e-12


def check_hermitian(mat: np.ndarray, what: str) -> None:
    """Raise ValueError naming ``what`` if ||mat - mat^H||_F > HERMITICITY_TOL max(1, ||mat||_F)."""
    dev = np.linalg.norm(mat - mat.conj().T)
    if dev > HERMITICITY_TOL * max(1.0, np.linalg.norm(mat)):
        raise ValueError(f"{what} is not Hermitian (dev {dev:.2e})")


@dataclass(frozen=True)
class ChainConfig:
    """Finite chain of qudits; fixes the Hilbert space everything acts on.

    A ring needs two sites; an open chain may have one (a one-site window).
    """

    n_sites: int
    site_dim: int
    boundary: str = "periodic"

    def __post_init__(self):
        if self.n_sites < (2 if self.boundary == "periodic" else 1):
            raise ValueError(f"n_sites must be >= 2 on a ring, >= 1 open, got {self.n_sites}")
        if self.site_dim < 2:
            raise ValueError(f"site_dim must be >= 2, got {self.site_dim}")
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"boundary must be 'periodic' or 'open', got {self.boundary!r}")

    @property
    def dim(self) -> int:
        return self.site_dim**self.n_sites

    @property
    def periodic(self) -> bool:
        return self.boundary == "periodic"


@dataclass(frozen=True)
class LocalOperator:
    """Operator on a tensor factor: ordered support sites plus coefficient matrix.

    ``coeffs`` is indexed little-endian in the support position (the smallest
    support site varies fastest).  If ``hermitian`` is set the matrix is
    verified to be Hermitian at construction.
    """

    support: tuple
    coeffs: np.ndarray = field(repr=False)
    hermitian: bool = False

    def __post_init__(self):
        supp = tuple(int(s) for s in self.support)
        object.__setattr__(self, "support", supp)
        if any(s < 0 for s in supp):
            raise ValueError(f"support sites must be nonnegative: {supp}")
        if any(b <= a for a, b in zip(supp, supp[1:])):
            raise ValueError(f"support must be strictly increasing: {supp}")
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=np.complex128))
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"coeffs must be a square matrix, got shape {c.shape}")
        c.flags.writeable = False  # values are shared freely across threads
        object.__setattr__(self, "coeffs", c)
        if self.hermitian:
            check_hermitian(c, f"operator on {supp} flagged hermitian")

    def width(self) -> int:
        """Number of sites in the support hull (diameter + 1)."""
        return self.support[-1] - self.support[0] + 1

    def norm(self) -> float:
        return operator_norm(self.coeffs)

    def validate_for(self, chain: ChainConfig) -> None:
        if self.support[-1] >= chain.n_sites:
            raise PreconditionError(
                f"support {self.support} does not fit a chain of {chain.n_sites} sites"
            )
        want = chain.site_dim ** len(self.support)
        if self.coeffs.shape[0] != want:
            raise ValueError(
                f"coeffs dimension {self.coeffs.shape[0]} != site_dim^|support| = {want}"
            )


def kron_le(mats) -> np.ndarray:
    """Tensor product of per-position factors, little-endian (position 0 fastest)."""
    out = np.asarray(mats[0], dtype=np.complex128)
    for m in mats[1:]:
        out = np.kron(np.asarray(m, dtype=np.complex128), out)
    return out


def product_operator(support, mats, hermitian: bool = False) -> LocalOperator:
    """LocalOperator equal to the product of single-site matrices on ``support``."""
    if len(support) != len(mats):
        raise ValueError("one matrix per support site required")
    return LocalOperator(tuple(support), kron_le(list(mats)), hermitian=hermitian)


def _reversal_parity(c: np.ndarray) -> int:
    """1 or -1 when the local reversal c[::-1, ::-1] (every site's basis reversed,
    i -> d-1-i) equals c or -c exactly, else 0."""
    r = c[::-1, ::-1]
    return 1 if np.array_equal(r, c) else -1 if np.array_equal(r, -c) else 0


def _global_indices(support, chain: ChainConfig):
    """Index array g[a, b]: global basis index for support digits a, rest digits b."""
    d, L = chain.site_dim, chain.n_sites
    supp = list(support)
    rest = [x for x in range(L) if x not in supp]
    m = len(supp)

    def composite(sites):
        k = len(sites)
        idx = np.arange(d**k)
        digits = (idx[:, None] // d ** np.arange(k)) % d
        return digits @ (d ** np.array(sites, dtype=np.int64))

    ga = composite(supp)
    gb = composite(rest) if rest else np.zeros(1, dtype=np.int64)
    return ga[:, None] + gb[None, :]  # shape (d^m, d^(L-m))


def embed(op: LocalOperator, chain: ChainConfig) -> np.ndarray:
    """Embed a LocalOperator into the full chain: op tensor identity on the rest."""
    op.validate_for(chain)
    g = _global_indices(op.support, chain)
    D = chain.dim
    G = np.zeros((D, D), dtype=np.complex128)
    G[g[:, None, :], g[None, :, :]] = op.coeffs[:, :, None]
    return G


def embedded_entries(op: LocalOperator, chain: ChainConfig) -> tuple:
    """(rows, cols, values) of the nonzero entries of embed(op)."""
    op.validate_for(chain)
    g = _global_indices(op.support, chain)
    mS, mR = g.shape
    rows = np.broadcast_to(g[:, None, :], (mS, mS, mR)).ravel()
    cols = np.broadcast_to(g[None, :, :], (mS, mS, mR)).ravel()
    data = np.broadcast_to(op.coeffs[:, :, None], (mS, mS, mR)).ravel()
    keep = data != 0
    return rows[keep], cols[keep], data[keep]


def assemble_sparse(ops, chain: ChainConfig) -> sp.csr_matrix:
    """Sum of embedded local operators, built as one COO matrix; zeros are dropped."""
    D = chain.dim
    entries = [embedded_entries(op, chain) for op in ops]
    if not entries:
        return sp.csr_matrix((D, D), dtype=np.complex128)
    rows, cols, data = (np.concatenate(part) for part in zip(*entries))
    out = sp.coo_matrix((data, (rows, cols)), shape=(D, D)).tocsr()
    out.eliminate_zeros()
    return out


def embed_sparse(op: LocalOperator, chain: ChainConfig) -> sp.csr_matrix:
    """Sparse CSR variant of :func:`embed`; zero entries of coeffs are dropped."""
    return assemble_sparse([op], chain)


def sparse_fro_norm(A) -> np.float64:
    """||A||_F of a sparse matrix, as scipy.sparse.linalg.norm: duplicates summed in place."""
    A.sum_duplicates()
    return np.linalg.norm(A.data)


def connected_components(graph) -> tuple:
    """(count, labels) of the undirected graph of a sparse matrix's stored entries, numbered
    by smallest vertex as in scipy's csgraph: roots hook onto their smallest neighbour root."""
    g, parent = graph.tocoo(), np.arange(graph.shape[0])
    while not np.array_equal(a := parent[g.row], b := parent[g.col]):
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
    roots, labels = np.unique(parent, return_inverse=True)
    return len(roots), labels


def _digit_permutation_matrix(perm, d: int) -> np.ndarray:
    """Permutation matrix relabelling digit positions: new digit j = old digit perm[j]."""
    m = len(perm)
    old = np.arange(d**m)
    old_digits = (old[:, None] // d ** np.arange(m)) % d
    new_idx = old_digits[:, perm] @ (d ** np.arange(m))
    P = np.zeros((d**m, d**m))
    P[new_idx, old] = 1.0
    return P


def translate(op: LocalOperator, x: int, chain: ChainConfig) -> LocalOperator:
    """Shift an operator by x sites (mod n_sites on a periodic chain)."""
    op.validate_for(chain)
    L = chain.n_sites
    if chain.periodic:
        raw = [(s + x) % L for s in op.support]
    else:
        raw = [s + x for s in op.support]
        if any(s < 0 or s >= L for s in raw):
            raise PreconditionError(
                f"translate by {x} leaves the open chain: {op.support} -> {raw}"
            )
    order = np.argsort(raw)  # raw entries are distinct
    new_support = tuple(raw[j] for j in order)
    if list(order) == list(range(len(raw))):
        coeffs = op.coeffs
    else:
        P = _digit_permutation_matrix(list(order), chain.site_dim)
        coeffs = P @ op.coeffs @ P.T
    return LocalOperator(new_support, coeffs, hermitian=op.hermitian)


def shift_index_map(chain: ChainConfig) -> np.ndarray:
    """Index map t of the one-site shift: T e_i = e_{t(i)} with T n_x T^dag = n_{x+1}."""
    if not chain.periodic:
        raise PreconditionError("shift unitary requires a periodic chain")
    d, L = chain.site_dim, chain.n_sites
    idx = np.arange(chain.dim)
    digits = (idx[:, None] // d ** np.arange(L)) % d
    # configuration pattern moves right by one site
    weights = d ** ((np.arange(L) + 1) % L)
    return digits @ weights


def shift_unitary(chain: ChainConfig) -> sp.csr_matrix:
    """One-site translation unitary T (conjugation by T implements tau_1), sparse."""
    t = shift_index_map(chain)
    D = chain.dim
    return sp.coo_matrix((np.ones(D), (t, np.arange(D))), shape=(D, D)).tocsr()


def extract_local(G: np.ndarray, support, chain: ChainConfig) -> LocalOperator:
    """Reduce a full-chain operator to a LocalOperator on ``support``.

    Requires G to act as identity outside the support: raises if the reduction
    does not reproduce G to 1e-12 relative to max(1, ||G||_F).
    """
    support = tuple(sorted(int(s) for s in support))
    g = _global_indices(support, chain)
    mR = g.shape[1]
    block = G[g[:, None, :], g[None, :, :]]  # (mS, mS, mR)
    coeffs = block.sum(axis=2) / mR
    op = LocalOperator(support, coeffs)
    dev = np.linalg.norm(embed(op, chain) - G)
    scale = max(1.0, np.linalg.norm(G))
    if dev > 1e-12 * scale:
        raise PreconditionError(f"operator is not supported on {support}: residual {dev:.3e}")
    return op


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """AB - BA."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A @ B - B @ A


def operator_norm(A) -> float:
    """Operator 2-norm (largest singular value), by a dense decomposition:
    ``eigvalsh`` for a Hermitian or anti-Hermitian matrix, else an SVD; none
    for a zero matrix."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"operator_norm expects a square matrix, got {A.shape}")
    fro = float(np.linalg.norm(A))
    if fro == 0.0:
        return 0.0
    if np.linalg.norm(A - A.conj().T) <= 1e-13 * fro:
        return float(np.max(np.abs(np.linalg.eigvalsh(A))))
    if np.linalg.norm(A + A.conj().T) <= 1e-13 * fro:
        return float(np.max(np.abs(np.linalg.eigvalsh(1j * A))))
    return float(np.linalg.svd(A, compute_uv=False)[0])


def comm_norm(A: np.ndarray, B: np.ndarray) -> float:
    """Operator norm of the commutator [A, B]."""
    return operator_norm(commutator(A, B))


def arc_sites(lo: int, hi: int, chain: ChainConfig) -> tuple:
    """Sites of the interval [lo, hi] mapped onto the chain.

    On a periodic chain the interval is reduced mod n_sites and must be shorter
    than the full ring unless it covers it exactly; on an open chain the bounds
    must already lie in range.
    """
    if hi < lo:
        raise PreconditionError(f"empty window [{lo}, {hi}]")
    length = hi - lo + 1
    L = chain.n_sites
    if chain.periodic:
        if length > L:
            raise PreconditionError(
                f"window [{lo}, {hi}] has {length} sites, chain only {L}"
            )
        return tuple((x % L) for x in range(lo, hi + 1))
    if lo < 0 or hi >= L:
        raise PreconditionError(f"window [{lo}, {hi}] outside open chain of {L} sites")
    return tuple(range(lo, hi + 1))
