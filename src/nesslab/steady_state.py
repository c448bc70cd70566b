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
from functools import cached_property

import numpy as np

from .errors import NumericalCheckError, PreconditionError
from .operators import ChainConfig, shift_unitary, sparse_fro_norm
from . import models
from .spectral import COMMUTE_TOL, JointBasis, joint_spectrum, term_tables

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
    """Density operator diagonal in a joint (H, shift) eigenbasis, with its model and bias."""

    basis: JointBasis
    probs: np.ndarray = field(repr=False)
    phi: models.Interaction
    spec: models.ChargeSpec
    bias: BiasSpec | None = None

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

    @cached_property
    def certificates(self) -> tuple:
        """Bounds on ||[rho, H(phi)]||_F and ||[rho, shift]||_F (:meth:`JointBasis.residual`)."""
        H = models.hamiltonian(self.phi, self.chain, sparse=True)
        return self.basis.residual(H), self.basis.residual(shift_unitary(self.chain))

    @cached_property
    def current(self) -> float:
        """<j_0>, the current of ``phi`` and ``spec`` at the origin."""
        value = self.expect(models.current_local(self.phi, self.spec, self.chain))
        if not abs(value.imag) <= 1e-10:
            raise NumericalCheckError(f"current expectation came out complex: {value}")
        return float(value.real)

    @cached_property
    def tables(self) -> list:
        """The :func:`~nesslab.spectral.term_tables` of n_0 against each term class of
        ``phi``, from which every windowed analysis of the state reduces."""
        return term_tables(self)

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
    the Gibbs state of any translation-invariant H.  The returned state is
    refused unless both of its :attr:`StationaryState.certificates` pass.
    """
    H, J = biased_generator(phi, spec, bias.lam, chain)
    basis = joint_spectrum(H, chain, bias=J)
    with np.errstate(over="ignore"):  # an overflow is refused just below
        tilt = 0.0 if basis.bias_values is None else bias.lam * basis.bias_values
        logw = -bias.beta * (basis.energies - tilt)
    if not np.all(np.isfinite(logw)):
        raise NumericalCheckError(f"the weights exp(-beta (E - lambda J)) overflow at "
                                  f"beta = {bias.beta!r}, lambda = {bias.lam!r}")
    p = np.exp(logw - logw.max())
    state = StationaryState(basis=basis, probs=p / p.sum(), phi=phi, spec=spec, bias=bias)
    stat, trans = state.certificates
    if not (stat <= RESIDUAL_TOL and trans <= RESIDUAL_TOL):
        raise NumericalCheckError(f"constructed state violates residual tolerances: "
                                  f"[rho,H] {stat:.2e}, [rho,T] {trans:.2e}")
    return state


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


def verify_ness(state: StationaryState) -> NessReport:
    """Check the three defining conditions plus the charge-symmetry residual.

    The invariance residuals and the current are the state's own (its
    certificates and <j_0>), the symmetry residual is :meth:`JointBasis.residual`
    of N_chain.  The state is a steady current-carrying state iff both invariance
    residuals pass and the current clears the threshold; the symmetry residual
    decides whether the symmetric-branch momentum-derivative identity applies.
    """
    chain = state.chain
    stat, trans = state.certificates
    sym = state.basis.residual(models.charge_sparse(state.spec, (0, chain.n_sites - 1), chain))
    is_stationary, is_trans = stat <= RESIDUAL_TOL, trans <= RESIDUAL_TOL
    return NessReport(
        stationarity_residual=stat,
        translation_residual=trans,
        current_value=state.current,
        symmetry_residual=sym,
        is_stationary=is_stationary,
        is_translation_invariant=is_trans,
        is_ness=is_stationary and is_trans and abs(state.current) > CURRENT_THRESHOLD,
        current_threshold=CURRENT_THRESHOLD,
    )


def state_summary(state: StationaryState, report: NessReport) -> dict:
    """JSON-ready summary: sizes, bias, current, residuals and the spectrum."""
    return {
        "n_sites": state.chain.n_sites,
        "site_dim": state.chain.site_dim,
        "beta": getattr(state.bias, "beta", None),  # None for a state given no bias
        "lambda": getattr(state.bias, "lam", None),
        "spectrum": [[e, k, p] for e, k, p in state.spectrum_rows()],
        **asdict(report),
    }
