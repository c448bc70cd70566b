"""Energy-momentum analysis on the periodic chain.

A translation-invariant Hamiltonian is diagonalized jointly with the one-site
shift, giving every eigenvector an (energy, momentum) label.  On top of that
basis live the discrete surrogate of the space-time spectral measure, the
windowed current correlator C(t), the sum rule it satisfies, and the
momentum-derivative identity whose delta mass at zero energy transfer is the
artifact's main diagnostic.

Momenta are quantized as 2 pi m / n_sites with m reduced into (-n/2, n/2];
the shift eigenvalue of a momentum-k eigenvector is exp(-i k).  The same
sectored basis without shift labels, on any chain, is what the Lieb-Robinson
scan evolves in (:meth:`JointBasis.for_interaction`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import NumericalCheckError, PreconditionError
from .operators import (ChainConfig, LocalOperator, _reversal_parity, connected_components,
                        embed_sparse, shift_index_map, shift_unitary, sparse_fro_norm)
from . import models

SQRT_2PI = math.sqrt(2.0 * math.pi)
COMMUTE_TOL = 1e-10     # [A, B] residual, relative to the scale of A, below which A and B commute
DEGENERACY_TOL = 1e-8   # energies closer than this (in sorted order) share a degenerate block
DE_DECIMALS = 10        # energy transfers are keyed rounded to this many decimals
NO_CURRENT_TOL = 1e-9   # |<j_0>| or |derivative-identity mass| below which a state carries no current
_CURVE_CHUNK = 4096     # energy transfers per exp(i de t) batch of CommutatorKernel.curve
_SLAB_COLUMNS = 32      # small momentum blocks of a sector are joined into slabs this wide


def centered_mode(m, n_sites: int):
    """Reduce a mode index into (-n/2, n/2]."""
    m = np.asarray(m)
    return np.where(m > n_sites // 2, m - n_sites, m)


# ---------------------------------------------------------------------------
# sectors and the joint eigenbasis of (H, shift)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sector:
    """Basis states ``index`` spanning an H-invariant subspace, with the
    eigenpairs of H restricted to it.

    Without a ``frame``, ``vectors`` is the eigenvector matrix W in the
    sector's own basis.  With one, W = frame @ block_diag(*vectors): ``frame``
    is a sparse isometry onto the sector's orbit-momentum states, momentum
    block by momentum block (:func:`momentum_sector_basis`), and ``vectors``
    holds each block's eigenvectors, so no dense W is stored.  Consumers
    read W slab by slab (:meth:`column_slabs`), a slab being one momentum
    block or consecutive small ones up to _SLAB_COLUMNS columns.
    """

    index: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray | tuple = field(repr=False)
    frame: sp.csc_matrix | None = field(repr=False, default=None)

    @cached_property
    def slabs(self) -> tuple:
        """(cols, group, Q) per slab of a sector with a frame: consecutive
        momentum blocks (``group``, indices into ``vectors``) joined up to
        _SLAB_COLUMNS columns (a larger block stands alone), their columns and
        the frame's columns as a CSR isometry."""
        groups, width = [[]], 0
        for i, E in enumerate(self.vectors):
            if groups[-1] and width + len(E) > _SLAB_COLUMNS:
                groups.append([])
                width = 0
            groups[-1].append(i)
            width += len(E)
        ends = np.cumsum([0] + [len(E) for E in self.vectors]).tolist()
        cols = [slice(ends[g[0]], ends[g[-1] + 1]) for g in groups]
        return tuple((c, g, self.frame[:, c].tocsr()) for c, g in zip(cols, groups))

    def slab_vectors(self, group: list) -> np.ndarray:
        """The eigenvectors of the momentum blocks ``group`` on one dense
        diagonal (a single block as it is stored)."""
        if len(group) == 1:
            return self.vectors[group[0]]
        blocks = [self.vectors[i] for i in group]
        ends = np.cumsum([0] + [len(E) for E in blocks])
        out = np.zeros((ends[-1], ends[-1]), dtype=np.complex128)
        for E, a, b in zip(blocks, ends[:-1], ends[1:]):
            out[a:b, a:b] = E
        return out

    def column_slabs(self):
        """Yield (cols, W[:, cols]) in the sector's own basis, dense, one slab
        at a time (W whole, without a frame)."""
        if self.frame is None:
            yield slice(0, len(self.energies)), self.vectors
            return
        for cols, group, Q in self.slabs:
            yield cols, Q @ self.slab_vectors(group)

    def propagator(self, t: float) -> np.ndarray:
        """W exp(iEt): the sector block of exp(iHt) is propagator(t) @ W^H."""
        return self.vectors * np.exp(1j * self.energies * t)


def _as_sparse(A, chain: ChainConfig) -> sp.csr_matrix:
    """CSR form of a dense, sparse or LocalOperator full-chain operator."""
    if isinstance(A, LocalOperator):
        return embed_sparse(A, chain)
    return A.tocsr() if sp.issparse(A) else sp.csr_matrix(A)


def _block_residual(A: sp.csr_matrix, vectors: np.ndarray, values=None) -> float:
    """||A W - W diag(values)||_F of one sector block, one sparse product; for
    unitary W this is ||W^H A W - diag(values)||_F.  ``values`` defaults to the
    diagonal of W^H A W, which leaves its off-diagonal part."""
    AW = A @ vectors
    if values is None:
        values = np.einsum("in,in->n", vectors.conj(), AW)
    AW -= vectors * values
    return float(np.linalg.norm(AW))


def _dense_block(A: sp.csr_matrix, rows: slice, cols: slice) -> np.ndarray:
    """A[rows, cols] as a dense array, for a CSR A without duplicate entries."""
    ptr = A.indptr[rows.start:rows.stop + 1]
    i = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    j = A.indices[ptr[0]:ptr[-1]] - cols.start
    keep = (j >= 0) & (j < cols.stop - cols.start)
    X = np.zeros((len(ptr) - 1, cols.stop - cols.start), dtype=np.complex128)
    X[i[keep], j[keep]] = A.data[ptr[0]:ptr[-1]][keep]
    return X


def _row_slab(QAQ: sp.csr_matrix, rows: slice, E: np.ndarray, right: list) -> np.ndarray:
    """E^H QAQ[rows] block_diag(F), one slab (cols, F) of ``right`` at a time: a
    row slab of a block in the eigenbases, from the block in the orbit-momentum
    frames."""
    X = _dense_block(QAQ, rows, slice(0, QAQ.shape[1]))
    EH = E.conj().T
    for cols, F in right:
        X[:, cols] = EH @ (X[:, cols] @ F)
    return X


def _certify(H: sp.csr_matrix, sector: Sector) -> None:
    """Refuse the eigenpairs of one sector unless ||H W - W E||_F <= 1e-10 max(1, ||H||_F),
    measured in the sector's own basis one slab of W at a time."""
    res = math.hypot(*(_block_residual(H, W, sector.energies[cols])
                       for cols, W in sector.column_slabs()))
    if res > 1e-10 * max(1.0, sparse_fro_norm(H)):
        raise NumericalCheckError(f"eigendecomposition residual {res:.3e} too large")


def translation_orbits(chain: ChainConfig) -> list:
    """Orbits of the computational basis under the one-site shift, each listed
    from its smallest state s as s, t(s), t(t(s)), ..."""
    t = shift_index_map(chain)
    P = [np.arange(chain.dim)]  # P[j] = t^j, up to t^n = identity
    for _ in range(chain.n_sites):
        P.append(t[P[-1]])
    P = np.array(P)
    reps = np.flatnonzero(P.min(axis=0) == P[0])
    periods = 1 + np.argmax(P[1:, reps] == reps, axis=0)
    return [P[:ell, s] for s, ell in zip(reps, periods)]


def momentum_sector_basis(dim: int, n_sites: int, mode: int, orbits) -> sp.csc_matrix:
    """Orthonormal basis of the momentum-(2 pi mode / n) states the orbits carry,
    sparse columns over ``dim`` basis states."""
    keep = [o for o in orbits if (mode * len(o)) % n_sites == 0]
    ell = np.array([len(o) for o in keep], dtype=np.int64)
    pos = np.arange(ell.sum()) - np.repeat(np.cumsum(ell) - ell, ell)  # place in its orbit
    data = np.exp(1j * (2.0 * math.pi * mode / n_sites) * pos) / np.sqrt(np.repeat(ell, ell))
    rows = np.concatenate(keep) if keep else pos
    return sp.coo_matrix((data, (rows, np.repeat(np.arange(len(keep)), ell))),
                         shape=(dim, len(keep))).tocsc()


@dataclass(frozen=True)
class JointBasis:
    """Eigenbasis of the Hamiltonian, kept per H-invariant sector.

    Column n has H eigenvalue energies[n].  A basis from :func:`joint_spectrum`
    also labels it by its shift eigenvalue exp(-i 2 pi mode[n] / n_sites) and,
    in ``bias_values``, by the eigenvalue of an optional third commuting
    operator diagonalized inside degenerate blocks; one from
    :meth:`for_interaction` leaves both None.  Sector c holds the columns
    ``columns[c]``, supported on the basis states ``sectors[c].index``:
    ascending for a sector without a frame, momentum block by momentum block
    (each block ascending) for one with a frame (:class:`Sector`).
    ``images[c]`` is the sector that spin inversion maps sector c onto, or
    ``images`` is None (see :meth:`for_interaction`).
    """

    chain: ChainConfig
    sectors: tuple = field(repr=False)
    columns: tuple = field(repr=False)
    energies: np.ndarray = field(repr=False)
    mode: np.ndarray | None = field(repr=False, default=None)
    bias_values: np.ndarray | None = field(repr=False, default=None)
    images: tuple | None = field(repr=False, default=None)

    @classmethod
    def for_interaction(cls, phi: models.Interaction, chain: ChainConfig) -> "JointBasis":
        """Eigenbasis of the full-chain Hamiltonian of ``phi`` on a periodic or
        open chain, columns in ascending energy.

        The sectors are the connected components of H's sparsity graph: the
        charge sectors of the XX, XXZ and fermion models, a single sector for
        an interaction that conserves nothing.  When every term equals its local
        reversal c[::-1, ::-1], the spin inversion F: s -> D-1-s commutes with H;
        a component that F maps onto an earlier one gets index D-1-index of that
        one, row for row, so the same block of H and the same energies and
        vectors (shared arrays); ``images`` records the pairing.  The others get
        one complex eigh each, the largest first (ties by component number), so
        the largest eigh's workspace is the only sector held while it runs; all
        are certified.  Eigenvectors whose imaginary parts are all exactly zero,
        as a real H gives, are kept as real float64 arrays: every product with
        them rounds as with their complex form.
        """
        H = models.hamiltonian(phi, chain, sparse=True)
        n_comp, comp = connected_components(abs(H))
        mirror = all(_reversal_parity(m) == 1 for _, m in phi.terms)
        index = [np.flatnonzero(comp == c) for c in range(n_comp)]
        images = [int(comp[chain.dim - 1 - idx[0]]) if mirror else c
                  for c, idx in enumerate(index)]
        parts = [None] * n_comp
        for c in sorted(range(n_comp), key=lambda c: (-len(index[c]), c)):
            idx = index[c]
            if images[c] < c:  # the partner is as large, so it is built already
                p = parts[images[c]]
                idx, evals, evecs = chain.dim - 1 - p.index, p.energies, p.vectors
            H_c = H[idx][:, idx]
            if images[c] >= c:
                evals, evecs = np.linalg.eigh(H_c.toarray())
                if not np.any(evecs.imag):
                    evecs = np.ascontiguousarray(evecs.real)
            parts[c] = Sector(idx, evals, evecs)
            _certify(H_c, parts[c])
        return _ordered_basis(chain, parts, images=tuple(images) if mirror else None)

    @property
    def momenta(self) -> np.ndarray:
        return 2.0 * math.pi * centered_mode(self.mode, self.chain.n_sites) / self.chain.n_sites

    @property
    def vectors(self) -> np.ndarray:
        """The D x D eigenvector matrix, assembled from the sectors on every call."""
        D = self.chain.dim
        V = np.zeros((D, D), dtype=np.complex128)
        for s, cols in zip(self.sectors, self.columns):
            for sl, W in s.column_slabs():
                V[np.ix_(s.index, cols[sl])] = W
        return V

    def unframed(self) -> "JointBasis":
        """This basis with every sector's eigenvectors held whole (W dense)."""
        if all(s.frame is None for s in self.sectors):
            return self
        sectors = tuple(Sector(s.index, s.energies, np.hstack([W for _, W in s.column_slabs()]))
                        for s in self.sectors)
        return dataclasses.replace(self, sectors=sectors)

    @cached_property
    def labels(self) -> np.ndarray:
        """Sector number of every basis state."""
        labels = np.empty(self.chain.dim, dtype=np.int64)
        for c, s in enumerate(self.sectors):
            labels[s.index] = c
        return labels

    def per_sector(self, values) -> list:
        """Split a per-column array into one array per sector."""
        return [np.asarray(values)[cols] for cols in self.columns]

    def coupled_pairs(self, A) -> list:
        """The pairs of sectors (c, k) that A couples (A[c, k] != 0), by c, then k."""
        coo, n = _as_sparse(A, self.chain).tocoo(), len(self.sectors)
        C = sp.csr_matrix((np.ones(coo.nnz), (self.labels[coo.row], self.labels[coo.col])),
                          shape=(n, n)).tocoo()
        return list(zip(C.row.tolist(), C.col.tolist()))

    def blocks(self, A, pairs):
        """Yield (c, k, rows, (W_c^H A[c, k] W_k)[rows]), the <m|A|n> with m in
        sector c and n in sector k, for ``pairs`` in their order (those of
        :meth:`coupled_pairs`, or a subset).  A may be dense, sparse or a
        LocalOperator; a consumer holds only the blocks it keeps.

        Without frames each pair comes whole (``rows`` all of sector c).  With
        them, each pair comes in row slabs (one momentum block m of sector c,
        or a few small ones; :class:`Sector`) at a time, formed per slab m'
        of sector k as E_m^H (Q_m^H A[c, k] Q_m') E_m'."""
        A, S = _as_sparse(A, self.chain), self.sectors
        for c, k in pairs:
            A_ck = A[S[c].index][:, S[k].index]
            if S[c].frame is None:
                yield (c, k, slice(0, len(S[c].energies)),
                       (S[c].vectors.conj().T @ A_ck) @ S[k].vectors)
                continue
            QAQ = (S[c].frame.conj().T @ A_ck @ S[k].frame).tocsr()  # A_ck in the frames
            right = [(cols, S[k].slab_vectors(group)) for cols, group, _ in S[k].slabs]
            for rows, group, _ in S[c].slabs:  # the slab is the consumer's alone
                yield c, k, rows, _row_slab(QAQ, rows, S[c].slab_vectors(group), right)

    def diagonal(self, A) -> np.ndarray:
        """<n|A|n> for every column n, from the diagonal sector blocks of A."""
        A = _as_sparse(A, self.chain)
        out = np.empty(self.chain.dim, dtype=np.complex128)
        for s, cols in zip(self.sectors, self.columns):
            A_cc = A[s.index][:, s.index]
            for sl, W in s.column_slabs():
                out[cols[sl]] = np.einsum("in,in->n", W.conj(), A_cc @ W)
        return out

    def residual(self, A) -> float:
        """sqrt(sum_c ||A_cc W_c - W_c diag(W_c^H A_cc W_c)||_F^2 + ||A off the sector
        blocks||_F^2): the Frobenius norm of V^H A V without its diagonal.

        ``V^H [rho, A] V`` has entries (p_m - p_n) (V^H A V)_mn and no diagonal, so
        this certifies ||[rho, A]||_F <= residual(A) for every state
        rho = V diag(p) V^H with 0 <= p <= 1.  It is measured against A in the
        computational basis, one slab of each sector's W at a time.
        """
        A = _as_sparse(A, self.chain)
        coo = A.tocoo()
        off = np.abs(coo.data[self.labels[coo.row] != self.labels[coo.col]])
        sq = float(np.dot(off, off))
        for s in self.sectors:
            A_cc = A[s.index][:, s.index]
            sq += sum(_block_residual(A_cc, W) ** 2 for _, W in s.column_slabs())
        return math.sqrt(sq)

    def energy_block_ids(self) -> np.ndarray:
        """Group (sorted) energies into degenerate blocks; returns a block id per state."""
        order = np.argsort(self.energies, kind="stable")
        ids = np.empty(len(order), dtype=np.int64)
        ids[order] = np.cumsum(np.diff(self.energies[order], prepend=-np.inf) > DEGENERACY_TOL) - 1
        return ids


def _component_eigenbasis(H: sp.csr_matrix, bias, orbits, n_sites: int) -> tuple:
    """(energies, vectors, frame, mode, bias) of H on one shift-invariant
    component: the orbit-momentum frame of a :class:`Sector` with the
    eigenvectors of each momentum block, degenerate energy levels refined by
    ``bias``, and the column labels."""
    dim = H.shape[0]
    frames = [momentum_sector_basis(dim, n_sites, m, orbits) for m in range(n_sites)]
    sizes = [Q.shape[1] for Q in frames]
    frame = sp.hstack([Q for Q in frames if Q.shape[1]], format="csc")
    FH = frame.conj().T.tocsr()
    HF = (FH @ (H @ frame)).tocsr()  # momentum block diagonal, as is BF
    BF = None if bias is None else (FH @ (bias @ frame)).tocsr()
    vectors, evals, bias_vals, start = [], [], np.zeros(frame.shape[1]), 0
    for dm in filter(None, sizes):
        rows = slice(start, start + dm)
        start += dm
        Hm = _dense_block(HF, rows, rows)
        Hm = (Hm + Hm.conj().T) / 2
        e, evecs = np.linalg.eigh(Hm)
        if BF is not None:
            # refine each degenerate energy block with the bias operator (1 x 1: no eigh)
            BE = _dense_block(BF, rows, rows) @ evecs
            cuts = np.flatnonzero(np.diff(e) > DEGENERACY_TOL) + 1
            for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, dm]):
                W = evecs[:, lo:hi]
                Jblk = W.conj().T @ BE[:, lo:hi]
                if hi - lo == 1:
                    bias_vals[rows.start + lo] = Jblk[0, 0].real
                    continue
                jv, ju = np.linalg.eigh((Jblk + Jblk.conj().T) / 2)
                evecs[:, lo:hi] = W @ ju
                bias_vals[rows.start + lo:rows.start + hi] = jv
        vectors.append(evecs)
        evals.append(e)
    mode = np.repeat(np.arange(n_sites, dtype=np.int64), sizes)
    return np.concatenate(evals), tuple(vectors), frame, mode, bias_vals


def joint_spectrum(H, chain: ChainConfig, bias=None) -> JointBasis:
    """Diagonalize a translation-invariant H block by block.

    The blocks are the connected components of the sparsity graph of
    |H| + |bias| + |T| (the charge sectors of a charge-conserving model, one
    block for a model that conserves nothing); each splits into momentum
    sectors before ``eigh`` and keeps its eigenvectors in that orbit-momentum
    frame (:class:`Sector`).  ``H`` (and ``bias``, if given) may be dense or
    sparse; bias must commute with both H and the shift and is diagonalized
    inside every degenerate (energy, momentum) block to pin the basis
    deterministically.  Columns are ordered by energy, then momentum mode,
    then bias value.
    """
    if not chain.periodic:
        raise PreconditionError("joint spectrum requires a periodic chain")
    H_sp = _as_sparse(H, chain)
    T = shift_unitary(chain)
    scale = max(1.0, abs(H_sp).max() if H_sp.nnz else 0.0)
    res = float(sparse_fro_norm(H_sp @ T - T @ H_sp))
    if res > COMMUTE_TOL * scale * chain.dim**0.5:
        raise PreconditionError(
            f"[H, T] residual {res:.3e} exceeds tolerance; H is not translation invariant"
        )
    bias_sp = None
    graph = abs(H_sp) + abs(T)
    if bias is not None:
        bias_sp = _as_sparse(bias, chain)
        graph = graph + abs(bias_sp)
    n_comp, comp = connected_components(graph)

    orbits = [[] for _ in range(n_comp)]
    for orbit in translation_orbits(chain):
        orbits[comp[orbit[0]]].append(orbit)
    local = np.empty(chain.dim, dtype=np.int64)
    parts, labels = [], []
    for c in range(n_comp):
        idx = np.flatnonzero(comp == c)
        local[idx] = np.arange(len(idx))
        H_c = H_sp[idx][:, idx]
        sub = None if bias_sp is None else bias_sp[idx][:, idx]
        evals, vectors, frame, *col_labels = _component_eigenbasis(
            H_c, sub, [local[o] for o in orbits[c]], chain.n_sites)
        sector = Sector(idx, evals, vectors, frame)
        _certify(H_c, sector)
        parts.append(sector)
        labels.append(col_labels)
    mode, bias_all = (np.concatenate(x) for x in zip(*labels))
    return _ordered_basis(chain, parts, mode, None if bias_sp is None else bias_all)


def _ordered_basis(chain: ChainConfig, sectors, mode=None, bias_values=None,
                   images=None) -> JointBasis:
    """JointBasis of the per-component ``sectors``, its columns ordered by
    energy, then ``mode``, then ``bias_values`` (per-column labels in the order
    of ``sectors``, or None)."""
    E = np.concatenate([s.energies for s in sectors])
    if len(E) != chain.dim:
        raise NumericalCheckError("the sectors do not span the full space")
    order = np.lexsort(tuple(k for k in (bias_values, mode, E) if k is not None))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    columns = np.split(rank, np.cumsum([len(s.index) for s in sectors])[:-1])
    return JointBasis(chain=chain, sectors=tuple(sectors), columns=tuple(columns),
                      energies=E[order], mode=None if mode is None else mode[order],
                      bias_values=None if bias_values is None else bias_values[order],
                      images=images)


def _matched_blocks(basis: JointBasis, A, B):
    """Yield (c, k, rows, X), X_mn = A_mn B_nm in the eigenbasis for m in the
    rows ``rows`` of sector c and n in sector k, for every pair that A couples
    and B couples back, slab by slab as :meth:`JointBasis.blocks` forms them.
    B[k, c]^T is the conjugate of (B^H)[c, k], so X is A's slab times the
    conjugate of the same slab of B^H; B^H's slab goes at once, and X before
    the next slab is formed."""
    A = _as_sparse(A, basis.chain)
    BH = _as_sparse(B, basis.chain).conj().T.tocsr()
    BH_pairs = set(basis.coupled_pairs(BH))
    pairs = [ck for ck in basis.coupled_pairs(A) if ck in BH_pairs]
    BH_slabs = basis.blocks(BH, pairs)
    for c, k, rows, X in basis.blocks(A, pairs):
        Y = next(BH_slabs)[3]
        X *= np.conjugate(Y, out=Y)
        Y = None
        yield c, k, rows, X
        X = None


def _class_runs(ids: np.ndarray) -> tuple:
    """The start of each run of equal classes in ``ids``, and the class of each run."""
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])
    return starts, ids[starts]


def _by_transfer(dk: np.ndarray, de: np.ndarray, sums: np.ndarray) -> tuple:
    """Group by transfer: the distinct keys (dk, de rounded to DE_DECIMALS),
    sorted by dk, then de, each with the first of its exact de and with the
    columns of ``sums`` added up in their given order."""
    key = np.round(de, DE_DECIMALS)
    order = np.lexsort((key, dk))
    dk, key = dk[order], key[order]
    starts = np.flatnonzero(np.r_[True, (np.diff(dk) != 0) | (np.diff(key) != 0)])
    return dk[starts], de[order[starts]], np.add.reduceat(sums[:, order], starts, axis=1)


def _transfer_table(state, A, B) -> tuple:
    """The weights i p_m A_mn B_nm and i p_n A_mn B_nm of a state, summed by
    transfer (:func:`_by_transfer`): (dk, de, s) with one key per column of s;
    s[0] sums the p_m weights and s[1] the p_n weights.

    dk = k_n - k_m is the centered mode transfer and de = E_n - E_m the energy
    transfer, both read off one representative of each (energy block,
    momentum) class.  Each slab of a pair of sectors (:func:`_matched_blocks`)
    is summed over the runs of equal class of its rows and of its columns, in
    place (a class split over two runs meets itself again in the merge by
    transfer), and added onto the keys before the next slab is formed, so no
    slab outlives its reduction.
    """
    basis = state.basis
    n = basis.chain.n_sites
    p = basis.per_sector(state.probs)
    cls = basis.energy_block_ids() * n + basis.mode
    _, first, cls_idx = np.unique(cls, return_index=True, return_inverse=True)
    E, mode = basis.energies[first], basis.mode[first]
    cls_idx = basis.per_sector(cls_idx)
    runs = [_class_runs(ids) for ids in cls_idx]
    dk, de, s = np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros((2, 0), dtype=np.complex128)
    for c, k, rows, X in _matched_blocks(basis, A, B):
        (sc, uc), (sk, uk) = _class_runs(cls_idx[c][rows]), runs[k]
        s_m = np.add.reduceat(X, sk, axis=1)
        s_m *= p[c][rows, None]
        s_n = np.add.reduceat(X, sc, axis=0)
        del X
        s_n *= p[k]
        slab = np.stack([np.add.reduceat(s_m, sc, axis=0).ravel(),
                         np.add.reduceat(s_n, sk, axis=1).ravel()])
        slab_dk = centered_mode((mode[uk][None, :] - mode[uc][:, None]) % n, n).ravel()
        slab_de = (E[uk][None, :] - E[uc][:, None]).ravel()
        dk, de, s = _by_transfer(np.r_[dk, slab_dk], np.r_[de, slab_de], np.hstack([s, slab]))
    return dk, de, 1j * s


def term_tables(state, phi: models.Interaction, spec: models.ChargeSpec) -> list:
    """[(span, dk, de, s)]: the :func:`_transfer_table` of n_0 against each term
    class of ``phi`` at the origin.  In the joint basis a translate is a phase,
    <m|tau_x(O)|n> = e^{i k x} O_mn, so these give the table of every window
    sum of n_0 and the terms (:func:`_reduce`)."""
    n0 = LocalOperator((0,), spec.n0)
    return [(offsets[-1], *_transfer_table(state, n0, LocalOperator(offsets, mat)))
            for offsets, mat in phi.terms]


def _phase_sum(dk_idx: np.ndarray, n_sites: int, zs, weights=1.0) -> np.ndarray:
    """sum_z weights_z e^{i k z} over the sites zs, for each k = 2 pi dk / n."""
    return (np.exp(1j * np.outer(2.0 * math.pi * dk_idx / n_sites, zs)) * weights).sum(axis=1)


def _reduce(tables: list, n_sites: int, anchors) -> tuple:
    """The table of (sum_x tau_x(n_0), sum_c sum_u tau_u(term_c)), (xs, us) =
    anchors(span_c): each key of class c weighted by sum_x e^{ikx} sum_u e^{-iku}."""
    parts = []
    for span, dk, de, s in tables:
        xs, us = anchors(span)
        weight = _phase_sum(dk, n_sites, xs) * _phase_sum(dk, n_sites, np.negative(us))
        parts.append((dk, de, s * weight))
    return _by_transfer(*(np.concatenate(p, axis=-1) for p in zip(*parts)))


# ---------------------------------------------------------------------------
# window functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowFunction:
    """Real test function supported exactly on [-T, T].

    Fourier convention: ft(eps) = (1/sqrt(2 pi)) int f(t) exp(i eps t) dt.
    """

    kind: str = "hann"
    T: float = 2.0

    def __post_init__(self):
        if self.kind not in ("hann", "truncated_gaussian"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if not self.T > 0:
            raise ValueError("window half-support T must be positive")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) <= self.T
        if self.kind == "hann":
            vals = np.cos(np.pi * t / (2 * self.T)) ** 2
        else:
            sigma = self.T / 3.0
            vals = np.exp(-(t**2) / (2 * sigma**2))
        return np.where(inside, vals, 0.0)

    def fourier(self, eps):
        """ft(eps); the hann transform is evaluated in closed form."""
        scalar = np.ndim(eps) == 0
        eps = np.atleast_1d(np.asarray(eps, dtype=float))
        if self.kind == "hann":
            # sinc(a) / (1 - a^2) = sinc(a - 1) / (a (a + 1)); the second form
            # has no cancellation at the removable singularity a = 1
            a = np.abs(eps) * self.T / np.pi
            lo, hi = np.minimum(a, 0.5), np.maximum(a, 0.5)
            g = np.where(a <= 0.5, np.sinc(lo) / (1.0 - lo**2),
                         np.sinc(hi - 1.0) / (hi * (hi + 1.0)))
            out = (self.T / SQRT_2PI) * g
        else:
            nodes, weights = np.polynomial.legendre.leggauss(200)
            ts = nodes * self.T
            w = weights * self.T
            f = self.value(ts)
            out = (f * w) @ np.exp(1j * np.outer(ts, eps)) / SQRT_2PI
            out = np.real(out)
        return float(out[0]) if scalar else out

    def fourier0(self) -> float:
        return float(self.fourier(0.0))


# ---------------------------------------------------------------------------
# windowed commutator correlator
# ---------------------------------------------------------------------------

class CommutatorKernel:
    """Evaluates C(t) = <i [A, B(t)]> for a state diagonal in a joint basis.

    Writing K = i [rho, A], the trace identity C(t) = Tr(K B(t)) gives
    C(t) = sum_mn W_mn exp(i (E_n - E_m) t) with W_mn = i (p_m - p_n) A_mn B_nm.
    Built from the energy transfers ``de`` of a table of (A, B) and its p_m
    minus p_n sums ``w`` (:func:`_transfer_table`), it keeps only the sums of
    W per energy transfer, so a time costs one exp per distinct transfer.
    """

    def __init__(self, de: np.ndarray, w: np.ndarray):
        _, self._de, (self._w,) = _by_transfer(np.zeros(len(de), dtype=np.int64), de, w[None])

    def curve(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        vals = np.zeros(len(ts), dtype=np.complex128)
        for i in range(0, len(self._de), _CURVE_CHUNK):
            chunk = slice(i, i + _CURVE_CHUNK)
            vals += np.einsum("k,kj->j", self._w[chunk], np.exp(1j * np.outer(self._de[chunk], ts)))
        if np.max(np.abs(vals.imag)) > 1e-9 * max(1.0, np.max(np.abs(vals.real))):
            raise NumericalCheckError("commutator correlator came out complex")
        return vals.real

    def at(self, t: float) -> float:
        return float(self.curve([t])[0])

    def windowed_integral(self, window: WindowFunction) -> float:
        """int C(t) f_T(t) dt = sqrt(2 pi) sum_mn W_mn ft(E_n - E_m), in closed form,
        with ft evaluated once per distinct energy transfer."""
        return SQRT_2PI * float(np.dot(self._w.real, window.fourier(self._de)))


def wrap_horizon(phi: models.Interaction, chain: ChainConfig) -> float:
    """Time for the fastest empirical signal to cross half the ring."""
    return chain.n_sites / (2.0 * empirical_velocity(phi))


def empirical_velocity(phi: models.Interaction) -> float:
    """Configured safe estimate of the physical signal speed, 4 r max||Phi||."""
    return 4.0 * phi.r * phi.max_term_norm()


def correlation_kernel(state, phi: models.Interaction, spec: models.ChargeSpec,
                       geom: models.CurrentGeometry, chain: ChainConfig,
                       tables: list | None = None) -> CommutatorKernel:
    """C(t) of A = N_[-L,0] and B = H_[-M,M], reduced from the :func:`term_tables`
    of the state (built here when not given)."""
    geom.validate_for_chain(chain, wrap_clearance=True)
    tables = term_tables(state, phi, spec) if tables is None else tables
    _, de, s = _reduce(tables, chain.n_sites, lambda span: (
        np.arange(-geom.L, 1), np.arange(-geom.M, geom.M - span + 1)))
    return CommutatorKernel(de, s[0] - s[1])


def _compared(lhs: float, rhs: float) -> dict:
    """The head of a check's report: lhs, rhs and their absolute and relative errors."""
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0 else (0.0 if abs_err < 1e-12 else math.inf)
    return {"lhs": lhs, "rhs": rhs, "abs_err": abs_err, "rel_err": rel_err}


def sum_rule_check(state, phi, spec, geom, window: WindowFunction, chain: ChainConfig,
                   kernel: CommutatorKernel | None = None) -> dict:
    """Windowed current sum rule: int C(t) f_T(t) dt against sqrt(2 pi) w(j_0) ft(0).

    ``kernel`` is the :func:`correlation_kernel` of the same arguments, built
    here when not given.  ``no_current`` flags |w(j_0)| < NO_CURRENT_TOL, where
    both sides are rounding noise and ``rel_err`` says nothing.
    """
    horizon = wrap_horizon(phi, chain)
    if window.T > horizon:
        raise PreconditionError(
            f"window support T = {window.T} exceeds the wrap horizon {horizon:.3f}"
        )
    if kernel is None:
        kernel = correlation_kernel(state, phi, spec, geom, chain)
    lhs = kernel.windowed_integral(window)
    j0 = models.current_local(phi, spec, chain)
    current = float(np.real(state.expect(j0)))
    rhs = SQRT_2PI * current * window.fourier0()
    return {**_compared(lhs, rhs), "current": current,
            "no_current": abs(current) < NO_CURRENT_TOL, "horizon": horizon, "T": window.T,
            "M": geom.M, "L": geom.L}


# ---------------------------------------------------------------------------
# spectral function rho~(k, eps) and the momentum-derivative identity
# ---------------------------------------------------------------------------

@dataclass
class SpectralFunction:
    """Discrete (momentum transfer, energy transfer) weights of <i n^ E(.) h^>."""

    n_sites: int
    dk_index: np.ndarray  # centered integer momentum transfer
    de: np.ndarray
    weights: np.ndarray

    @property
    def dk_values(self) -> np.ndarray:
        return 2.0 * math.pi * self.dk_index / self.n_sites

    def total(self) -> complex:
        return complex(self.weights.sum())

    def rho_position(self, z, t) -> complex:
        """rho(z, t), the inverse transform (1/(2 pi sqrt(2 pi))) sum w e^{i(dk z - de t)}."""
        phase = np.exp(1j * (self.dk_values * z - self.de * t))
        return complex((self.weights * phase).sum() / (2.0 * math.pi * SQRT_2PI))

    def to_csv(self) -> str:
        lines = ["dk_index,dk_value,de_value,weight_re,weight_im"]
        for idx, dkv, de, w in zip(self.dk_index, self.dk_values, self.de, self.weights):
            lines.append(
                f"{int(idx)},{float(dkv)!r},{float(de)!r},{float(w.real)!r},{float(w.imag)!r}"
            )
        return "\n".join(lines) + "\n"


def spectral_function_rho(state, phi: models.Interaction, spec: models.ChargeSpec,
                          tables: list | None = None) -> SpectralFunction:
    """Weights w(dk, de) = sum p_m i <m|n^|n><n|h^|m> grouped by transfer, for
    n^ = n_0 - <n_0> and h^ = h - <h>, h the energy density of ``phi``.

    h sums the term classes anchored at -(span_c // 2), so w is the p_m sum of
    the :func:`term_tables` (built here when not given) with those phases, one
    row per transfer that occurs; the means move only w(0, 0), by -i <n_0> <h>.
    Two checks always run: the weights add up to i <n^ h^> (completeness), and
    the p_n sums pair with them as the hermiticity of n^ and h^ requires,
    conj(w(dk, de)) = -w_n(-dk, -de).
    """
    chain = state.chain
    n = chain.n_sites
    tables = term_tables(state, phi, spec) if tables is None else tables
    dk, de, s = _reduce(tables, n, lambda span: ((0,), (-(span // 2),)))
    de = np.round(de, DE_DECIMALS) + 0.0  # the key, written without a sign on zero
    N, H = (embed_sparse(op, chain)
            for op in (LocalOperator((0,), spec.n0), models.energy_density(phi, chain)))
    means = 1j * state.expect(N) * state.expect(H)
    s[:, (dk == 0) & (de == 0)] -= means
    w, w_n = s
    out = SpectralFunction(n_sites=n, dk_index=dk, de=de, weights=w)
    total, direct = out.total(), 1j * state.expect(N @ H) - means
    if abs(total - direct) > 1e-10 * max(1.0, abs(direct)):
        raise NumericalCheckError(f"spectral completeness violated: {total} vs {direct}")
    # the negated keys, sorted, are the keys themselves: neg[j] is the key whose negation is key j
    neg_dk = centered_mode(-dk % n, n)
    neg = np.lexsort((-de, neg_dk))
    if not (np.array_equal(neg_dk[neg], dk) and np.array_equal(-de[neg], de)):
        raise NumericalCheckError("hermitian pairing violated: a transfer has no negated partner")
    pairing_dev = np.max(np.abs(w[neg].conj() + w_n), initial=0.0)
    if pairing_dev > 1e-10 * max(1.0, np.max(np.abs(w), initial=0.0)):
        raise NumericalCheckError(f"hermitian pairing violated: {pairing_dev:.3e}")
    return out


def _transfer_kernels(dk_idx: np.ndarray, n_sites: int, y_halfwidth: int):
    """Dirichlet-type z sums over the ring for each momentum transfer.

    Returns (S, D, tail): sum z e^{ikz}, sum e^{ikz} over |z| <= Y, and the sum
    of e^{ikz} over the remaining representatives z < -Y of the centered range.
    """
    zs = np.arange(-((n_sites - 1) // 2), n_sites // 2 + 1)
    inner = zs[np.abs(zs) <= y_halfwidth]
    return (_phase_sum(dk_idx, n_sites, inner, inner), _phase_sum(dk_idx, n_sites, inner),
            _phase_sum(dk_idx, n_sites, zs[zs < -y_halfwidth]))


def momentum_derivative_check(spectral: SpectralFunction, window: WindowFunction,
                              y_halfwidth: int, current_value: float) -> dict:
    """Integrated momentum-derivative identity at k = 0.

    The derivative is taken in position form, -sum_z z rho(z, -t) over the
    window reconstruction range |z| <= Y = y_halfwidth, then integrated against the test
    function and compared against current * ft(0).  The two boundary sums
    split off along the way (the constant-weighted tail over z < -Y and the
    (Y+1)-weighted window count) are returned alongside so their decay with
    growing windows can be tracked.
    """
    n, Y = spectral.n_sites, y_halfwidth
    if Y < 0 or 2 * Y + 1 > n:
        raise PreconditionError(f"invalid position window halfwidth Y = {Y}")
    S, Dk, tail = _transfer_kernels(spectral.dk_index, n, Y)
    de, inv = np.unique(spectral.de, return_inverse=True)  # ft once per distinct transfer
    ft = np.asarray(window.fourier(de))[inv]
    w = spectral.weights
    derivative_term = -2.0 * SQRT_2PI * float(np.real(np.sum(w * ft * S)))
    count_term = 2.0 * SQRT_2PI * (Y + 1) * float(np.real(np.sum(w * ft * Dk)))
    tail_term = 2.0 * SQRT_2PI * (2 * Y + 1) * float(np.real(np.sum(w * ft * tail)))
    lhs = derivative_term / SQRT_2PI
    rhs = current_value * window.fourier0()
    return {**_compared(lhs, rhs), "tail_term": tail_term, "count_term": count_term,
            "derivative_term": derivative_term, "Y": Y}


def boundary_commutator_integral(state, phi, spec, geom, window: WindowFunction,
                                 chain: ChainConfig, tables: list | None = None) -> float:
    """Windowed <i [N_[-L,0], (C_-M + C_M)(t)]>, the boundary-complement piece of
    C(t), reduced from the :func:`term_tables` (built here when not given): the
    complements (:func:`models.boundary_complements`) hold the translates of
    each class at :func:`models.complement_anchors`."""
    tables = term_tables(state, phi, spec) if tables is None else tables
    r_eff = phi.max_diameter()
    _, de, s = _reduce(tables, chain.n_sites, lambda span: (
        np.arange(-geom.L, 1), models.complement_anchors(span, geom.M, r_eff)))
    return CommutatorKernel(de, s[0] - s[1]).windowed_integral(window)


def singularity_diagnostic(spectral: SpectralFunction, epsilon_windows,
                           z_halfwidth: int) -> dict:
    """Concentration of the derivative-identity mass near zero energy transfer.

    For each eps0 reports the fraction of the position-weighted k-derivative
    mass carried by |de| < eps0; a delta-like component at the origin shows up
    as fractions approaching one.  States with no current carry no mass and
    are flagged instead of divided by zero.
    """
    S, _, _ = _transfer_kernels(spectral.dk_index, spectral.n_sites, z_halfwidth)
    mass = -2.0 * np.real(spectral.weights * S)
    total = float(mass.sum())
    out = {"total_mass": total, "z_halfwidth": z_halfwidth, "fractions": {}, "no_current": False}
    if abs(total) < NO_CURRENT_TOL:
        out["no_current"] = True
        out["fractions"] = {float(e): None for e in epsilon_windows}
        return out
    for eps0 in epsilon_windows:
        if math.isinf(eps0):
            out["fractions"][float(eps0)] = 1.0
            continue
        sel = np.abs(spectral.de) < eps0
        out["fractions"][float(eps0)] = float(mass[sel].sum()) / total
    return out
