"""Finite-size stationary, translation-invariant, current-carrying states.

The construction is a generalized Gibbs ensemble exp(-beta (H - lambda J_tot)):
whenever the total current commutes with H (it does for the XX chain) the
state is exactly stationary and translation invariant at finite size, and the
bias tilts it into a current-carrying one.  States are stored spectrally: a
joint (H, shift, bias) eigenbasis plus one probability per eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NumericalCheckError, PreconditionError
from .operators import ChainConfig, shift_unitary, sparse_fro_norm
from . import models
from .spectral import COMMUTE_TOL, JointBasis, joint_spectrum

RESIDUAL_TOL = 1e-10
CURRENT_THRESHOLD = 1e-6  # |<j_0>| a steady state must exceed to count as current-carrying


@dataclass(frozen=True)
class BiasSpec:
    """Inverse temperature plus a current bias along the total current."""

    beta: float
    lam: float = 0.0

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")


@dataclass(frozen=True)
class StationaryState:
    """Density operator diagonal in a joint (H, shift) eigenbasis."""

    basis: JointBasis
    probs: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < -1e-15):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probs", p)

    @property
    def chain(self) -> ChainConfig:
        return self.basis.chain

    def expect(self, A) -> complex:
        """sum_n p_n <n|A|n>; A may be dense, sparse or a LocalOperator."""
        return complex(np.dot(self.probs, self.basis.diagonal(A)))

    def spectrum_rows(self):
        """Per-eigenvector (energy, momentum, probability) rows, ordered by
        degenerate energy block, then momentum mode, then bias value, so that
        rounding inside a degenerate level does not reorder them."""
        b = self.basis
        bias = np.zeros(len(b.mode)) if b.bias_values is None else b.bias_values
        o = np.lexsort((bias, b.mode, b.energy_block_ids()))
        return list(zip(b.energies[o].tolist(), b.momenta[o].tolist(), self.probs[o].tolist()))


def biased_generator(phi: models.Interaction, spec: models.ChargeSpec, lam: float,
                     chain: ChainConfig) -> tuple:
    """(H, J_tot) of exp(-beta (H - lambda J_tot)), sparse; J_tot is None at lambda = 0.

    Refuses an open chain, and for lambda != 0 a total current that fails to
    commute with H (the state would not be stationary).
    """
    if not chain.periodic:
        raise PreconditionError("biased Gibbs construction requires a periodic chain")
    H = models.hamiltonian(phi, chain, sparse=True)
    if lam == 0:
        return H, None
    J = models.total_current(phi, spec, chain, sparse=True)
    comm_res = sparse_fro_norm(H @ J - J @ H)
    if not comm_res <= COMMUTE_TOL * max(1.0, sparse_fro_norm(H)):
        raise PreconditionError(
            f"bias operator does not commute with H (residual {comm_res:.3e}); "
            "the biased ensemble would not be stationary"
        )
    return H, J


def build_biased_gibbs(phi: models.Interaction, spec: models.ChargeSpec,
                       bias: BiasSpec, chain: ChainConfig) -> StationaryState:
    """rho proportional to exp(-beta (H - lambda J_tot)) on the periodic chain.

    Refuses what :func:`biased_generator` refuses; at lambda = 0 the state is
    the Gibbs state of any translation-invariant H.  The basis of the returned
    state is certified by :meth:`JointBasis.residual` of H and of the shift.
    """
    H, J = biased_generator(phi, spec, bias.lam, chain)
    basis = joint_spectrum(H, chain, bias=J)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        tilt = 0.0 if basis.bias_values is None else bias.lam * basis.bias_values
        logw = -bias.beta * (basis.energies - tilt)
    if not np.all(np.isfinite(logw)):
        raise NumericalCheckError(
            f"the weights exp(-beta (E - lambda J)) overflow at beta = {bias.beta!r}, "
            f"lambda = {bias.lam!r}"
        )
    stat, trans = basis.residual(H), basis.residual(shift_unitary(chain))
    if not (stat <= RESIDUAL_TOL and trans <= RESIDUAL_TOL):
        raise NumericalCheckError(
            f"constructed state violates residual tolerances: [rho,H] {stat:.2e}, "
            f"[rho,T] {trans:.2e}"
        )
    logw -= logw.max()
    p = np.exp(logw)
    p /= p.sum()
    return StationaryState(basis=basis, probs=p, meta={"beta": bias.beta, "lambda": bias.lam})


@dataclass(frozen=True)
class NessReport:
    stationarity_residual: float
    translation_residual: float
    current_value: float
    symmetry_residual: float
    is_stationary: bool
    is_translation_invariant: bool
    is_ness: bool
    current_threshold: float


def verify_ness(state: StationaryState, phi: models.Interaction,
                spec: models.ChargeSpec, chain: ChainConfig) -> NessReport:
    """Check the three defining conditions plus the charge-symmetry residual.

    Each residual is the certified bound :meth:`JointBasis.residual` on
    ||[rho, A]||_F, for A = H(phi), the shift and N_chain.  The state is
    classified as a steady current-carrying state iff both invariance
    residuals pass and the current expectation clears the threshold; the
    symmetry residual decides whether the symmetric-branch momentum-derivative
    identity applies to it.
    """
    basis = state.basis
    stat = basis.residual(models.hamiltonian(phi, chain, sparse=True))
    trans = basis.residual(shift_unitary(chain))
    j0 = models.current_local(phi, spec, chain)
    current = state.expect(j0)
    if not abs(current.imag) <= 1e-10:
        raise NumericalCheckError(f"current expectation came out complex: {current}")
    sym = basis.residual(models.charge_sparse(spec, (0, chain.n_sites - 1), chain))
    is_stationary = stat <= RESIDUAL_TOL
    is_trans = trans <= RESIDUAL_TOL
    is_ness = is_stationary and is_trans and abs(current.real) > CURRENT_THRESHOLD
    return NessReport(
        stationarity_residual=stat,
        translation_residual=trans,
        current_value=float(current.real),
        symmetry_residual=sym,
        is_stationary=is_stationary,
        is_translation_invariant=is_trans,
        is_ness=is_ness,
        current_threshold=CURRENT_THRESHOLD,
    )


def state_summary(state: StationaryState, report: NessReport | None = None) -> dict:
    """JSON-ready summary: sizes, bias, current, residuals and the spectrum."""
    doc = {
        "n_sites": state.chain.n_sites,
        "site_dim": state.chain.site_dim,
        "beta": state.meta.get("beta"),
        "lambda": state.meta.get("lambda"),
        "spectrum": [[e, k, p] for e, k, p in state.spectrum_rows()],
    }
    if report is not None:
        doc.update(asdict(report))
    return doc
