"""Heisenberg-picture evolution, the locality (group-velocity) bound and the
deviation bound Z_{M,L}(t).

Evolution is conjugation in the Hamiltonian eigenbasis, exact to rounding at
these dimensions.  Empirical light-cone scans compare commutator norms of
separated, evolved local operators against the closed-form bound; on a
periodic chain only pre-wrap points are admitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import NumericalCheckError, PreconditionError
from .operators import (
    ChainConfig,
    LocalOperator,
    apply_local,
    comm_norm,
    embed,
    embed_sparse,
    operator_norm,
    translate,
)
from . import models
from .spectral import (JointBasis, Sector, empirical_velocity, sector_blocks, sector_couplings,
                       sector_labels)


def _eigh_checked(H, residual_tol: float) -> tuple:
    """eigh of a dense or sparse Hermitian H, certified by ||H W - W E||_F, which
    equals ||H - W E W^H||_F for unitary W and costs a sparse product."""
    Hd = H.toarray() if sp.issparse(H) else np.asarray(H)
    evals, evecs = np.linalg.eigh(Hd)
    res = np.linalg.norm(H @ evecs - evecs * evals)
    if res > residual_tol * max(1.0, np.linalg.norm(Hd)):
        raise NumericalCheckError(f"eigendecomposition residual {res:.3e} too large")
    return evals, evecs


class EvolutionContext:
    """Eigendecomposition of a Hamiltonian, kept per H-invariant ``sectors``.

    Every context holds ``sectors`` and ``chain`` only; ``energies``
    (ascending) and the D x D ``vectors`` are views of the single sector of a
    full eigendecomposition and are assembled on first use otherwise.  A
    joint basis lends its sectors as they are.
    """

    def __init__(self, energies, vectors, chain: ChainConfig):
        E = np.asarray(energies, dtype=float)
        if np.any(np.diff(E) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        self._set(chain, (Sector(np.arange(len(E)), E, np.asarray(vectors)),))

    def _set(self, chain: ChainConfig, sectors: tuple) -> "EvolutionContext":
        self.chain, self.sectors = chain, sectors
        return self

    @classmethod
    def from_dense(cls, H: np.ndarray, chain: ChainConfig,
                   residual_tol: float = 1e-10) -> "EvolutionContext":
        evals, evecs = _eigh_checked(H, residual_tol)
        return cls(energies=evals, vectors=evecs, chain=chain)

    @classmethod
    def from_joint(cls, basis: JointBasis) -> "EvolutionContext":
        return cls.__new__(cls)._set(basis.chain, basis.sectors)

    @classmethod
    def for_interaction(cls, phi: models.Interaction, chain: ChainConfig) -> "EvolutionContext":
        """Context for the full-chain Hamiltonian, diagonalized sector by sector.

        The sectors are the connected components of H's sparsity graph: the
        charge sectors of the XX, XXZ and fermion models, a single sector for
        an interaction that conserves nothing.
        """
        H = models.hamiltonian(phi, chain, sparse=True)
        n_comp, labels = csgraph.connected_components(abs(H), directed=False)
        return cls.__new__(cls)._set(chain, tuple(
            Sector(idx, *_eigh_checked(H[idx][:, idx], 1e-10))
            for idx in (np.flatnonzero(labels == c) for c in range(n_comp))))

    @cached_property
    def energies(self) -> np.ndarray:
        if len(self.sectors) == 1:  # identity index, ascending energies
            return self.sectors[0].energies
        return np.sort(np.concatenate([s.energies for s in self.sectors]), kind="stable")

    @cached_property
    def vectors(self) -> np.ndarray:
        """Eigenvectors as D x D columns, in the order of ``energies``."""
        if len(self.sectors) == 1:
            return self.sectors[0].vectors
        rank = np.argsort(np.argsort(np.concatenate([s.energies for s in self.sectors]),
                                     kind="stable"))
        V = np.zeros((len(rank), len(rank)), dtype=np.complex128)
        start = 0
        for s in self.sectors:
            V[np.ix_(s.index, rank[start:start + len(s.index)])] = s.vectors
            start += len(s.index)
        return V

    def unitary(self, t: float) -> np.ndarray:
        D = sum(len(s.index) for s in self.sectors)
        U = np.zeros((D, D), dtype=np.complex128)
        for s in self.sectors:
            U[np.ix_(s.index, s.index)] = s.propagator(t) @ s.vectors.conj().T
        return U


def evolve(A, ctx: EvolutionContext, t: float) -> np.ndarray:
    """A(t) = exp(iHt) A exp(-iHt); accepts dense matrices or LocalOperators."""
    U = ctx.unitary(t)
    if isinstance(A, LocalOperator):
        AUdag = apply_local(U.conj().T, A, ctx.chain, side="left")
        return U @ AUdag
    A = np.asarray(A)
    if A.shape != U.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {U.shape}")
    return U @ A @ U.conj().T


@dataclass(frozen=True)
class LRBoundParams:
    """Inputs of the group-velocity bound.

    d1, d2 count the sites of each operator's support hull (a single site
    counts 1); the bound applies only for separations |x| > d1 + d2.
    """

    d1: int
    d2: int
    x: int
    normA: float
    normB: float
    V: float
    site_dim: int

    def __post_init__(self):
        if abs(self.x) - (self.d1 + self.d2) <= 0:
            raise PreconditionError(
                f"bound needs |x| > d1 + d2, got |x|={abs(self.x)}, d1+d2={self.d1 + self.d2}"
            )
        if self.V <= 0:
            raise ValueError("V must be positive")


def lr_bound(p: LRBoundParams, t: float) -> float:
    """2 (N+1)^(d1+d2) |A||B| d1 d2 exp(-(|x| - d1 - d2) + 2V|t|).

    The exponent is the algebraically simplified form, so t = 0 needs no
    limit handling.
    """
    pref = 2.0 * float(p.site_dim) ** (p.d1 + p.d2) * p.normA * p.normB * p.d1 * p.d2
    if pref == 0.0:
        return 0.0
    exponent = -(abs(p.x) - p.d1 - p.d2) + 2.0 * p.V * abs(t)
    if exponent > 700.0:
        return math.inf
    return pref * math.exp(exponent)


@dataclass(frozen=True)
class LRScanRow:
    x: int
    t: float
    empirical: float
    bound: float
    excluded: bool


def _sector_couplings(op: sp.spmatrix, labels: np.ndarray, n_sectors: int) -> sp.csr_matrix:
    """Symmetric S with S[c, k] > 0 where op has an entry between sectors c and k."""
    S = sector_couplings(op, labels, n_sectors)
    return S + S.T


def _sector_groups(sectors, labels: np.ndarray, S_A: sp.csr_matrix,
                   B: sp.csr_matrix) -> list:
    """The blocks of [A, B] over groups R of sectors, as (shape, placements, B[R, K]).

    The groups are the connected components of the sector graph of A.B + B.A.
    K holds the sectors B couples to R, so on R the commutator is Z^H - Z with
    Z = B[R, K] A(t)[K, R], exactly anti-Hermitian; a placement puts block
    A(t)[k, r] at (k, r, rows, cols).
    A group with empty K, where the commutator is exactly 0, is left out.
    """
    S_B = _sector_couplings(B, labels, len(sectors))
    n_grp, glabels = csgraph.connected_components(S_A @ S_B + S_B @ S_A, directed=False)
    groups = []
    for g in range(n_grp):
        R = np.flatnonzero(glabels == g)
        K = np.flatnonzero(np.asarray(S_B[:, R].sum(axis=1)).ravel())
        if K.size == 0:
            continue
        row0 = np.cumsum([0] + [len(sectors[k].index) for k in K])
        col0 = np.cumsum([0] + [len(sectors[r].index) for r in R])
        place = [(k, r, slice(row0[i], row0[i + 1]), slice(col0[j], col0[j + 1]))
                 for i, k in enumerate(K) for j, r in enumerate(R) if S_A[k, r]]
        idx_R, idx_K = (np.concatenate([sectors[c].index for c in cs]) for cs in (R, K))
        groups.append(((row0[-1], col0[-1]), place, B[idx_R][:, idx_K]))
    return groups


def _group_commutator(group, at: dict) -> np.ndarray:
    """The Hermitian 1j (Z^H - Z), whose eigenvalues give the norm of Z^H - Z."""
    shape, place, B_RK = group
    A_KR = np.zeros(shape, dtype=np.complex128)
    for k, r, rows, cols in place:
        A_KR[rows, cols] = at[k, r]
    Z = B_RK @ A_KR  # sparse rows times a C-ordered block: no transposed copy
    return 1j * (Z.conj().T - Z)


def _local_comm_norm(A: LocalOperator, B: LocalOperator, site_dim: int) -> float:
    """||[A, B]|| on the union of the two supports; exactly 0 when disjoint."""
    sites = sorted(set(A.support) | set(B.support))
    hull = ChainConfig(max(2, len(sites)), site_dim)
    a, b = (embed(LocalOperator(tuple(sites.index(s) for s in op.support), op.coeffs), hull)
            for op in (A, B))
    return comm_norm(a, b)


def lr_scan(phi: models.Interaction, A: LocalOperator, B: LocalOperator,
            x_values, t_values, chain: ChainConfig,
            ctx: EvolutionContext | None = None,
            v_emp: float | None = None) -> list:
    """Empirical commutator norms ||[tau_x alpha_t(A), B]|| against the bound.

    Runs per sector of ``ctx`` (built from ``phi`` if omitted): A(t) is kept
    as its blocks between the sectors A couples, and each norm is a maximum
    over the groups of sectors that [A(t), tau_x B] leaves invariant.  t = 0
    takes the local commutator, exactly 0 for disjoint supports.  Points
    whose light cones could wrap the ring (|x| + 2 v_emp |t| >= n_sites) are
    excluded from the comparison and flagged in the output.
    """
    if not (A.hermitian and B.hermitian):
        raise PreconditionError("scan operators must be flagged Hermitian")
    if v_emp is None:
        v_emp = empirical_velocity(phi)
    if ctx is None:
        ctx = EvolutionContext.for_interaction(phi, chain)
    V = models.lr_velocity(phi)
    d1, d2 = A.width(), B.width()
    normA, normB = A.norm(), B.norm()
    n = chain.n_sites
    # periodic: ||[tau_x alpha_t(A), B]|| = ||[alpha_t(A), tau_{-x}(B)]||;
    # open chains have no translation automorphism, so B is placed at +x there
    step = -1 if chain.periodic else 1
    shifted = {x: translate(B, step * x, chain) for x in x_values}

    sectors = ctx.sectors
    labels = sector_labels(sectors, chain.dim)
    A_sp = embed_sparse(A, chain)
    S_A = _sector_couplings(A_sp, labels, len(sectors))
    pairs = sp.triu(S_A).tocoo()
    A_eig = sector_blocks(A_sp, sectors, zip(pairs.row, pairs.col))
    groups = {x: _sector_groups(sectors, labels, S_A, embed_sparse(op, chain))
              for x, op in shifted.items()}

    rows = []
    for t in sorted(set(float(t) for t in t_values)):
        live = [x for x in x_values if abs(x) + 2.0 * v_emp * abs(t) < n]
        at = {}
        if t != 0.0 and live:
            P = [s.propagator(t) for s in sectors]
            for (c, k), M in A_eig.items():
                X = (P[c] @ M) @ P[k].conj().T
                if c == k:  # exactly Hermitian A(t): no norm falls back to an SVD
                    at[c, c] = (X + X.conj().T) / 2
                else:
                    at[c, k], at[k, c] = X, X.conj().T
        for x in x_values:
            params = LRBoundParams(d1=d1, d2=d2, x=x, normA=normA, normB=normB,
                                   V=V, site_dim=chain.site_dim)
            if x not in live:
                emp = math.nan
            elif t == 0.0:
                emp = _local_comm_norm(A, shifted[x], chain.site_dim)
            else:
                emp = max((float(np.max(np.abs(np.linalg.eigvalsh(_group_commutator(g, at)))))
                           for g in groups[x]), default=0.0)
            rows.append(LRScanRow(x=x, t=t, empirical=emp, bound=lr_bound(params, t),
                                  excluded=x not in live))
    if rows and all(r.excluded for r in rows):
        raise PreconditionError("every requested scan point lies beyond the wrap horizon")
    rows.sort(key=lambda r: (r.x, r.t))
    return rows


def lr_scan_csv(rows) -> str:
    lines = ["x,t,empirical_norm,bound,excluded_flag"]
    for r in rows:
        emp = "nan" if math.isnan(r.empirical) else repr(r.empirical)
        lines.append(f"{r.x},{r.t!r},{emp},{r.bound!r},{int(r.excluded)}")
    return "\n".join(lines) + "\n"


def _expm_growth(v: float, t: float) -> float:
    """(exp(2V|t|) - 1) / (2V), with the V -> 0 limit taken by series."""
    x = 2.0 * v * abs(t)
    if x < 1e-8:
        return abs(t) * (1.0 + x / 2.0 + x * x / 6.0)
    if x > 700.0:
        return math.inf
    return (math.exp(x) - 1.0) / (2.0 * v)


def _expm_growth_integrated(v: float, t: float) -> float:
    """((exp(2V|t|) - 1)/(2V) - |t|) / (2V), with the small-V series limit."""
    x = 2.0 * v * abs(t)
    if x < 1e-6:
        return abs(t) ** 2 * (0.5 + x / 6.0 + x * x / 24.0)
    return (_expm_growth(v, t) - abs(t)) / (2.0 * v)


def deviation_bound_Z(phi: models.Interaction, M: int, L: int, t: float,
                      norms: dict) -> float:
    """Deviation bound Z_{M,L}(t) for |C(t) - C(0)|.

    ``norms`` carries the measured operator norms {"n", "J", "j", "J0"} of the
    single-site charge, the translated energy currents J = tau_{-L}(J_+) and
    J0 = tau_M(J_-), and the current j_0.
    """
    if M <= 0 or L <= M:
        raise PreconditionError(f"need L > M > 0, got L={L}, M={M}")
    r = phi.r
    d = float(phi.site_dim)
    V = models.lr_velocity(phi)
    for key in ("n", "J", "j", "J0"):
        if key not in norms:
            raise ValueError(f"missing norm {key!r}")
    term1 = (
        2.0 * d ** (2 * r - 1) * norms["n"] * norms["J"] * (2 * r - 1)
        * math.exp(-M) / (1.0 - math.exp(-1.0)) * math.exp(2 * r - 1)
        * _expm_growth(V, t)
    )
    term2 = (
        2.0 * norms["j"] * norms["J0"] * d ** (4 * r - 4) * (2 * r - 2) ** 2
        * math.exp(4 * r - 4)
        * (math.exp(-M) + math.exp(-(L - M)))
        * _expm_growth_integrated(V, t)
    )
    return term1 + term2


def z_norms(phi: models.Interaction, spec: models.ChargeSpec, M: int,
            chain: ChainConfig) -> dict:
    """Measure the operator norms entering Z from the constructed operators."""
    j_plus, j_minus = models.energy_current_operators(phi, M, chain)
    j0 = models.current_local(phi, spec, chain)
    return {
        "n": operator_norm(spec.n0),
        "J": j_plus.norm(),
        "j": j0.norm(),
        "J0": j_minus.norm(),
    }
