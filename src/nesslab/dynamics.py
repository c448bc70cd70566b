"""Heisenberg-picture evolution, the locality (group-velocity) bound and the
deviation bound Z_{M,L}(t).

Evolution is conjugation in the Hamiltonian eigenbasis, exact to rounding at
these dimensions.  Empirical light-cone scans compare commutator norms of
separated, evolved local operators against the closed-form bound; on a
periodic chain only pre-wrap points are admitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalCheckError, PreconditionError
from .operators import (
    ChainConfig,
    LocalOperator,
    apply_local,
    commutator_with_local,
    embed,
    embedded_diagonal,
    operator_norm,
    translate,
)
from . import models
from .spectral import JointBasis, empirical_velocity, joint_spectrum


@dataclass(frozen=True)
class EvolutionContext:
    """Eigendecomposition of a Hamiltonian, reused across evolution calls."""

    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    chain: ChainConfig

    def __post_init__(self):
        E = np.asarray(self.energies, dtype=float)
        if np.any(np.diff(E) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "energies", E)

    @classmethod
    def from_dense(cls, H: np.ndarray, chain: ChainConfig,
                   residual_tol: float = 1e-10) -> "EvolutionContext":
        H = np.asarray(H)
        evals, evecs = np.linalg.eigh(H)
        res = np.linalg.norm((evecs * evals) @ evecs.conj().T - H)
        if res > residual_tol * max(1.0, np.linalg.norm(H)):
            raise NumericalCheckError(f"eigendecomposition residual {res:.3e} too large")
        return cls(energies=evals, vectors=evecs, chain=chain)

    @classmethod
    def from_joint(cls, basis: JointBasis) -> "EvolutionContext":
        order = np.argsort(basis.energies, kind="stable")
        return cls(
            energies=basis.energies[order],
            vectors=np.ascontiguousarray(basis.vectors[:, order]),
            chain=basis.chain,
        )

    @classmethod
    def for_interaction(cls, phi: models.Interaction, chain: ChainConfig) -> "EvolutionContext":
        """Context for the full-chain Hamiltonian; periodic chains go sector-wise."""
        if chain.periodic:
            H = models.hamiltonian(phi, chain, sparse=True)
            return cls.from_joint(joint_spectrum(H, chain))
        return cls.from_dense(models.hamiltonian(phi, chain), chain)

    def unitary(self, t: float) -> np.ndarray:
        phases = np.exp(1j * self.energies * t)
        return (self.vectors * phases) @ self.vectors.conj().T


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


def _lr_scan_blockwise(phi, chain, A, shifted, x_values, t_values, v_emp, V,
                       d1, d2, normA, normB):
    """Scan kernel for diagonal observables.

    The evolution unitary is block diagonal over the connected components of
    the Hamiltonian's sparsity graph (the conserved-charge sectors of the
    built-in models), and diagonal observables never couple components, so
    every commutator norm is a maximum over small dense blocks.
    """
    import scipy.sparse.csgraph as csgraph

    H = models.hamiltonian(phi, chain, sparse=True)
    pattern = (abs(H) + abs(H).T).tocsr()
    n_comp, labels = csgraph.connected_components(pattern, directed=False)
    comps = [np.flatnonzero(labels == c) for c in range(n_comp)]
    Hd = H.toarray()
    blocks = []
    a_diag = embedded_diagonal(A, chain)
    for idx in comps:
        Hc = Hd[np.ix_(idx, idx)]
        evals, vecs = np.linalg.eigh(Hc)
        blocks.append((idx, evals, vecs, a_diag[idx]))
    b_diags = {x: embedded_diagonal(op, chain) for x, op in shifted.items()}

    rows = []
    n = chain.n_sites
    for t in sorted(set(float(t) for t in t_values)):
        live = [x for x in x_values if abs(x) + 2.0 * v_emp * abs(t) < n]
        at_blocks = None
        if t != 0.0 and live:
            at_blocks = []
            for idx, evals, vecs, a_c in blocks:
                ph = np.exp(1j * evals * t)
                W = vecs * ph
                M = (vecs.conj().T * a_c) @ vecs
                X = W @ M @ W.conj().T
                # W M W^H is Hermitian only to rounding, and the commutator
                # below cancels its diagonal, which lifts the relative deviation
                # over operator_norm's 1e-13 test; symmetrized, every block is
                # exactly anti-Hermitian and takes the eigvalsh path, not an SVD
                at_blocks.append((X + X.conj().T) / 2)
        for x in x_values:
            params = LRBoundParams(d1=d1, d2=d2, x=x, normA=normA, normB=normB,
                                   V=V, site_dim=chain.site_dim)
            if x not in live:
                rows.append(LRScanRow(x=x, t=t, empirical=math.nan,
                                      bound=lr_bound(params, t), excluded=True))
                continue
            if t == 0.0:
                # diagonal operators commute exactly
                rows.append(LRScanRow(x=x, t=t, empirical=0.0,
                                      bound=lr_bound(params, t), excluded=False))
                continue
            bd = b_diags[x]
            emp = 0.0
            for (idx, _, _, _), At_c in zip(blocks, at_blocks):
                b_c = bd[idx]
                C = At_c * (b_c[None, :] - b_c[:, None])
                emp = max(emp, operator_norm(C))
            rows.append(LRScanRow(x=x, t=t, empirical=emp,
                                  bound=lr_bound(params, t), excluded=False))
    return rows


def lr_scan(phi: models.Interaction, A: LocalOperator, B: LocalOperator,
            x_values, t_values, chain: ChainConfig,
            ctx: EvolutionContext | None = None,
            v_emp: float | None = None) -> list:
    """Empirical commutator norms ||[tau_x alpha_t(A), B]|| against the bound.

    Grid points whose light cones could wrap the ring (|x| + 2 v_emp |t| >=
    n_sites) are excluded from the comparison and flagged in the output.
    """
    if not (A.hermitian and B.hermitian):
        raise PreconditionError("scan operators must be flagged Hermitian")
    if v_emp is None:
        v_emp = empirical_velocity(phi)
    V = models.lr_velocity(phi)
    d1, d2 = A.width(), B.width()
    normA, normB = A.norm(), B.norm()
    n = chain.n_sites
    # periodic: ||[tau_x alpha_t(A), B]|| = ||[alpha_t(A), tau_{-x}(B)]||;
    # open chains have no translation automorphism, so B is placed at +x there
    step = -1 if chain.periodic else 1
    shifted = {x: translate(B, step * x, chain) for x in x_values}
    if (ctx is None and embedded_diagonal(A, chain) is not None
            and all(embedded_diagonal(op, chain) is not None for op in shifted.values())):
        rows = _lr_scan_blockwise(phi, chain, A, shifted, x_values, t_values,
                                  v_emp, V, d1, d2, normA, normB)
        if rows and all(r.excluded for r in rows):
            raise PreconditionError(
                "every requested scan point lies beyond the wrap horizon")
        rows.sort(key=lambda r: (r.x, r.t))
        return rows
    if ctx is None:
        ctx = EvolutionContext.for_interaction(phi, chain)
    rows = []
    Vb = ctx.vectors
    A_eig = Vb.conj().T @ apply_local(Vb, A, chain, side="left")
    for t in sorted(set(float(t) for t in t_values)):
        live = [x for x in x_values if abs(x) + 2.0 * v_emp * abs(t) < n]
        if t == 0.0:
            At = embed(A, chain)
        elif live:
            phases = np.exp(1j * ctx.energies * t)
            At = (Vb * phases) @ A_eig @ (Vb * phases).conj().T
        for x in x_values:
            params = LRBoundParams(d1=d1, d2=d2, x=x, normA=normA, normB=normB,
                                   V=V, site_dim=chain.site_dim)
            if x not in live:
                rows.append(LRScanRow(x=x, t=t, empirical=math.nan,
                                      bound=lr_bound(params, t), excluded=True))
                continue
            C = commutator_with_local(At, shifted[x], chain)
            rows.append(LRScanRow(x=x, t=t, empirical=operator_norm(C),
                                  bound=lr_bound(params, t), excluded=False))
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
