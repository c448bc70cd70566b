"""Energy-momentum analysis on the periodic chain.

A translation-invariant Hamiltonian is diagonalized jointly with the one-site
shift, giving every eigenvector an (energy, momentum) label.  On top of that
basis live the discrete surrogate of the space-time spectral measure, the
windowed current correlator C(t), the sum rule it satisfies, and the
momentum-derivative identity whose delta mass at zero energy transfer is the
artifact's main diagnostic.

Momenta are quantized as 2 pi m / n_sites with m reduced into (-n/2, n/2];
the shift eigenvalue of a momentum-k eigenvector is exp(-i k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import NumericalCheckError, PreconditionError
from .operators import ChainConfig, LocalOperator, apply_local, shift_index_map
from . import models

SQRT_2PI = math.sqrt(2.0 * math.pi)


def centered_mode(m, n_sites: int):
    """Reduce a mode index into (-n/2, n/2]."""
    m = np.asarray(m)
    return np.where(m > n_sites // 2, m - n_sites, m)


# ---------------------------------------------------------------------------
# joint eigenbasis of (H, shift)
# ---------------------------------------------------------------------------

def translation_orbits(chain: ChainConfig) -> list:
    """Orbits of the computational basis under the one-site shift."""
    t = shift_index_map(chain)
    D = chain.dim
    seen = np.zeros(D, dtype=bool)
    orbits = []
    for start in range(D):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        nxt = t[start]
        while nxt != start:
            orbit.append(int(nxt))
            seen[nxt] = True
            nxt = t[nxt]
        orbits.append(np.array(orbit, dtype=np.int64))
    return orbits


def momentum_sector_basis(chain: ChainConfig, mode: int, orbits) -> sp.csc_matrix:
    """Orthonormal basis of the momentum-(2 pi mode / n) sector, sparse columns."""
    n = chain.n_sites
    k = 2.0 * math.pi * mode / n
    rows, cols, data = [], [], []
    col = 0
    for orbit in orbits:
        ell = len(orbit)
        if (mode * ell) % n != 0:
            continue
        phases = np.exp(1j * k * np.arange(ell)) / math.sqrt(ell)
        rows.extend(orbit.tolist())
        cols.extend([col] * ell)
        data.extend(phases.tolist())
        col += 1
    return sp.coo_matrix((data, (rows, cols)), shape=(chain.dim, col)).tocsc()


@dataclass(frozen=True)
class JointBasis:
    """Simultaneous eigenbasis of the Hamiltonian and the shift.

    vectors[:, n] has H eigenvalue energies[n] and shift eigenvalue
    exp(-i 2 pi mode[n] / n_sites); bias_values holds the eigenvalue of an
    optional third commuting operator diagonalized inside degenerate blocks.
    """

    chain: ChainConfig
    vectors: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)
    mode: np.ndarray = field(repr=False)
    bias_values: np.ndarray | None = field(repr=False, default=None)

    @property
    def momenta(self) -> np.ndarray:
        return 2.0 * math.pi * centered_mode(self.mode, self.chain.n_sites) / self.chain.n_sites

    def matrix_elements(self, A) -> np.ndarray:
        """<m|A|n> over the basis vectors; A may be dense, sparse or a LocalOperator."""
        V = self.vectors
        return V.conj().T @ _apply_to_vectors(A, V, self.chain)

    def energy_block_ids(self, tol: float = 1e-8) -> np.ndarray:
        """Group (sorted) energies into degenerate blocks; returns a block id per state."""
        E = self.energies
        order = np.argsort(E, kind="stable")
        ids = np.empty(len(E), dtype=np.int64)
        blk = 0
        prev = None
        for idx in order:
            if prev is not None and E[idx] - prev > tol:
                blk += 1
            ids[idx] = blk
            prev = E[idx]
        return ids


def _shift_commutator_residual(H: sp.spmatrix, chain: ChainConfig) -> float:
    t = shift_index_map(chain)
    tinv = np.empty_like(t)
    tinv[t] = np.arange(len(t))
    A = H.tocsr()
    HT = A[:, t]
    TH = A[tinv, :]
    return float(sp.linalg.norm(HT - TH))


def joint_spectrum(H, chain: ChainConfig, bias=None,
                   comm_tol: float = 1e-10, degeneracy_tol: float = 1e-8) -> JointBasis:
    """Diagonalize a translation-invariant H sector by momentum sector.

    ``H`` (and ``bias``, if given) may be dense or sparse; bias must commute
    with both H and the shift and is diagonalized inside every degenerate
    (energy, momentum) block to pin the basis deterministically.
    """
    if not chain.periodic:
        raise PreconditionError("joint spectrum requires a periodic chain")
    H_sp = sp.csr_matrix(H) if not sp.issparse(H) else H.tocsr()
    scale = max(1.0, abs(H_sp).max() if H_sp.nnz else 0.0)
    res = _shift_commutator_residual(H_sp, chain)
    if res > comm_tol * scale * chain.dim**0.5:
        raise PreconditionError(
            f"[H, T] residual {res:.3e} exceeds tolerance; H is not translation invariant"
        )
    bias_sp = None
    if bias is not None:
        bias_sp = sp.csr_matrix(bias) if not sp.issparse(bias) else bias.tocsr()

    orbits = translation_orbits(chain)
    n = chain.n_sites
    vec_parts, E_parts, mode_parts, bias_parts = [], [], [], []
    total_dim = 0
    for m in range(n):
        Q = momentum_sector_basis(chain, m, orbits)
        dm = Q.shape[1]
        if dm == 0:
            continue
        total_dim += dm
        Hm = (Q.conj().T @ (H_sp @ Q)).toarray()
        Hm = (Hm + Hm.conj().T) / 2
        evals, evecs = np.linalg.eigh(Hm)
        vectors = Q @ evecs  # dense (D, dm)
        bias_vals = None
        if bias_sp is not None:
            bias_vals = np.zeros(dm)
            # refine each degenerate energy block with the bias operator
            start = 0
            while start < dm:
                stop = start + 1
                while stop < dm and evals[stop] - evals[stop - 1] <= degeneracy_tol:
                    stop += 1
                W = vectors[:, start:stop]
                Jblk = W.conj().T @ (bias_sp @ W)
                Jblk = (Jblk + Jblk.conj().T) / 2
                jv, ju = np.linalg.eigh(Jblk)
                vectors[:, start:stop] = W @ ju
                bias_vals[start:stop] = jv
                start = stop
        vec_parts.append(vectors)
        E_parts.append(evals)
        mode_parts.append(np.full(dm, m, dtype=np.int64))
        if bias_vals is not None:
            bias_parts.append(bias_vals)

    if total_dim != chain.dim:
        raise NumericalCheckError("momentum sectors do not span the full space")
    V = np.concatenate(vec_parts, axis=1)
    E = np.concatenate(E_parts)
    mode = np.concatenate(mode_parts)
    bias_all = np.concatenate(bias_parts) if bias_parts else None

    keys = [mode, E] if bias_all is None else [bias_all, mode, E]
    order = np.lexsort(tuple(keys))
    V = np.ascontiguousarray(V[:, order])
    E = E[order]
    mode = mode[order]
    if bias_all is not None:
        bias_all = bias_all[order]
    return JointBasis(chain=chain, vectors=V, energies=E, mode=mode, bias_values=bias_all)


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
            u = eps * self.T / np.pi
            near = np.abs(1.0 - np.abs(u)) < 1e-6
            u_safe = np.where(near, 2.0, u)
            direct = np.sinc(u_safe) / (1.0 - u_safe**2)
            # removable singularity at |u| = 1
            du = np.abs(u) - 1.0
            au = np.where(near, np.abs(u), 1.0)
            series = (1.0 - (np.pi**2) * du**2 / 6.0) / (au * (au + 1.0))
            g = np.where(near, series, direct)
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


def integrate_windowed(curve, window: WindowFunction, tol: float = 1e-8,
                       nodes_per_unit: int = 64, max_rounds: int = 5) -> float:
    """int f_T(t) curve(t) dt by composite Gauss-Legendre with refinement.

    ``curve`` maps an array of times to an array of values; panels are doubled
    until two successive estimates agree to tol.
    """
    T = window.T
    order = 16
    n_panels = max(2, int(math.ceil(2 * T * nodes_per_unit / order)))
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)

    def run(panels: int) -> float:
        edges = np.linspace(-T, T, panels + 1)
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            ts = mid + half * base_nodes
            total += half * float(np.dot(base_weights, curve(ts) * window.value(ts)))
        return total

    last = run(n_panels)
    for _ in range(max_rounds):
        n_panels *= 2
        cur = run(n_panels)
        if abs(cur - last) <= tol * (1.0 + abs(cur)):
            return cur
        last = cur
    return last


# ---------------------------------------------------------------------------
# windowed commutator correlator
# ---------------------------------------------------------------------------

def _apply_to_vectors(A, V: np.ndarray, chain: ChainConfig) -> np.ndarray:
    if isinstance(A, LocalOperator):
        return apply_local(V, A, chain, side="left")
    if sp.issparse(A):
        return A @ V
    return np.asarray(A) @ V


class CommutatorKernel:
    """Evaluates C(t) = <i [A, B(t)]> for a state diagonal in a joint basis.

    Writing K = i [rho, A], the trace identity C(t) = Tr(K B(t)) reduces every
    evaluation to phase sums over the precomputed matrix W = K~ * B~^T in the
    energy eigenbasis; a batch of times costs one thin matrix product.
    """

    def __init__(self, state, A, B):
        basis = state.basis
        p = np.asarray(state.probs)
        At = basis.matrix_elements(A)
        Bt = basis.matrix_elements(B)
        K = 1j * (p[:, None] - p[None, :]) * At
        self._W = K * Bt.T
        self._E = basis.energies

    def curve(self, ts) -> np.ndarray:
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        P = np.exp(1j * np.outer(self._E, ts))
        WP = self._W @ P
        vals = np.einsum("nj,nj->j", P.conj(), WP)
        if np.max(np.abs(vals.imag)) > 1e-9 * max(1.0, np.max(np.abs(vals.real))):
            raise NumericalCheckError("commutator correlator came out complex")
        return vals.real

    def at(self, t: float) -> float:
        return float(self.curve([t])[0])


def wrap_horizon(phi: models.Interaction, chain: ChainConfig, v_emp: float | None = None) -> float:
    """Time for the fastest empirical signal to cross half the ring."""
    v = empirical_velocity(phi) if v_emp is None else v_emp
    return chain.n_sites / (2.0 * v)


def empirical_velocity(phi: models.Interaction) -> float:
    """Configured safe estimate of the physical signal speed, 4 r max||Phi||."""
    return 4.0 * phi.r * phi.max_term_norm()


def correlation_kernel(state, phi: models.Interaction, spec: models.ChargeSpec,
                       geom: models.CurrentGeometry, chain: ChainConfig) -> CommutatorKernel:
    geom.validate_for_chain(chain, wrap_clearance=True)
    N_w = models.charge_sparse(spec, (-geom.L, 0), chain)
    H_M = models.window_hamiltonian_sparse(phi, (-geom.M, geom.M), chain)
    return CommutatorKernel(state, N_w, H_M)


def correlation_C(state, phi, spec, geom, t: float, chain: ChainConfig,
                  kernel: CommutatorKernel | None = None) -> float:
    """C(t) = <i [N_[-L,0], H_[-M,M](t)]>, refusing times beyond the wrap horizon."""
    horizon = wrap_horizon(phi, chain)
    if abs(t) > horizon:
        raise PreconditionError(
            f"|t| = {abs(t)} exceeds the wrap horizon {horizon:.3f} of this chain"
        )
    if kernel is None:
        kernel = correlation_kernel(state, phi, spec, geom, chain)
    return kernel.at(t)


def sum_rule_check(state, phi, spec, geom, window: WindowFunction, chain: ChainConfig,
                   quad_tol: float = 1e-8, kernel: CommutatorKernel | None = None) -> dict:
    """Windowed current sum rule: int C(t) f_T(t) dt against sqrt(2 pi) w(j_0) ft(0).

    ``kernel`` is the :func:`correlation_kernel` of the same arguments, built
    here when not given.
    """
    horizon = wrap_horizon(phi, chain)
    if window.T > horizon:
        raise PreconditionError(
            f"window support T = {window.T} exceeds the wrap horizon {horizon:.3f}"
        )
    if kernel is None:
        kernel = correlation_kernel(state, phi, spec, geom, chain)
    lhs = integrate_windowed(kernel.curve, window, tol=quad_tol)
    j0 = models.current_local(phi, spec, chain)
    current = float(np.real(state.expect(j0)))
    rhs = SQRT_2PI * current * window.fourier0()
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0 else (0.0 if abs_err < 1e-12 else math.inf)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "abs_err": abs_err,
        "rel_err": rel_err,
        "current": current,
        "horizon": horizon,
        "T": window.T,
        "M": geom.M,
        "L": geom.L,
    }


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
    meta: dict = field(default_factory=dict)

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


def _centered(op: LocalOperator, state) -> LocalOperator:
    mean = complex(state.expect(op))
    dim = op.coeffs.shape[0]
    return LocalOperator(op.support, op.coeffs - mean * np.eye(dim))


def spectral_function_rho(state, n_op: LocalOperator, h_op: LocalOperator,
                          basis: JointBasis | None = None, verify: bool = True,
                          de_decimals: int = 10) -> SpectralFunction:
    """Weights w(dk, de) = sum p_n i <n|n^|m><m|h^|n> grouped by transfer.

    Means are subtracted internally (n^ = n - w(n) etc.).  With ``verify`` the
    completeness sum and the conjugate pairing against the swapped product are
    checked at construction.
    """
    basis = state.basis if basis is None else basis
    chain = basis.chain
    p = np.asarray(state.probs)
    Nt = basis.matrix_elements(_centered(n_op, state))
    Ht = basis.matrix_elements(_centered(h_op, state))
    W = 1j * p[:, None] * Nt * Ht.T

    # aggregate by (energy block, momentum) classes first, then by transfer
    blk = basis.energy_block_ids()
    n_blk = int(blk.max()) + 1
    n = chain.n_sites
    cls = blk * n + basis.mode
    n_cls = n_blk * n
    order = np.argsort(cls, kind="stable")
    bounds = np.flatnonzero(np.diff(cls[order])) + 1
    starts = np.concatenate(([0], bounds))
    present = cls[order][starts]
    Wo = W[order][:, order]
    Wrow = np.add.reduceat(Wo, starts, axis=0)
    Wcls = np.add.reduceat(Wrow, starts, axis=1)  # (n_present, n_present)

    # representative labels per present class
    mode_rep = present % n
    E_rep = basis.energies[order[starts]]

    dE = E_rep[None, :] - E_rep[:, None]
    dmode = (mode_rep[None, :] - mode_rep[:, None]) % n
    dk_idx = centered_mode(dmode, n)
    keys_de = np.round(dE, de_decimals)
    flat_w = Wcls.reshape(-1)
    flat_de = keys_de.reshape(-1)
    flat_dk = dk_idx.reshape(-1)
    uniq, inv = np.unique(np.stack([flat_dk, flat_de]), axis=1, return_inverse=True)
    agg = np.zeros(uniq.shape[1], dtype=np.complex128)
    np.add.at(agg.real, inv, flat_w.real)
    np.add.at(agg.imag, inv, flat_w.imag)

    out = SpectralFunction(
        n_sites=n,
        dk_index=uniq[0].astype(np.int64),
        de=uniq[1],
        weights=agg,
        meta={"n_support": n_op.support, "h_support": h_op.support},
    )
    if verify:
        total = out.total()
        direct = 1j * complex(
            np.sum(p * np.einsum("nm,mn->n", Nt, Ht))
        )
        if abs(total - direct) > 1e-10 * max(1.0, abs(direct)):
            raise NumericalCheckError(
                f"spectral completeness violated: {total} vs {direct}"
            )
        # conjugate pairing: conj(w_AB(dk, de)) = -w_BA(dk, de)
        W_ba = 1j * p[:, None] * Ht * Nt.T
        Wo_ba = W_ba[order][:, order]
        Wcls_ba = np.add.reduceat(np.add.reduceat(Wo_ba, starts, axis=0), starts, axis=1)
        dev = np.max(np.abs(np.conj(Wcls) + Wcls_ba))
        scale = max(1.0, np.max(np.abs(Wcls)))
        if dev > 1e-10 * scale:
            raise NumericalCheckError(f"hermitian pairing violated: {dev:.3e}")
    return out


def _transfer_kernels(dk_idx: np.ndarray, n_sites: int, y_halfwidth: int):
    """Dirichlet-type z sums over the ring for each momentum transfer.

    Returns (S, D, tail): sum z e^{ikz}, sum e^{ikz} over |z| <= Y, and the sum
    of e^{ikz} over the remaining representatives z < -Y of the centered range.
    """
    n = n_sites
    k = 2.0 * math.pi * dk_idx / n
    zs = np.arange(-((n - 1) // 2), n // 2 + 1)
    inner = np.abs(zs) <= y_halfwidth
    tail_mask = zs < -y_halfwidth
    phase = np.exp(1j * np.outer(k, zs))
    S = (phase[:, inner] * zs[inner]).sum(axis=1)
    Dk = phase[:, inner].sum(axis=1)
    tail = phase[:, tail_mask].sum(axis=1)
    return S, Dk, tail


def momentum_derivative_check(state, spectral: SpectralFunction, window: WindowFunction,
                              geom: models.CurrentGeometry, chain: ChainConfig,
                              current_value: float,
                              y_halfwidth: int | None = None,
                              r_eff: int | None = None) -> dict:
    """Integrated momentum-derivative identity at k = 0.

    The derivative is taken in position form, -sum_z z rho(z, -t) over the
    window reconstruction range |z| <= Y, then integrated against the test
    function and compared against current * ft(0).  The two boundary sums
    split off along the way (the constant-weighted tail over z < -Y and the
    (Y+1)-weighted window count) are returned alongside so their decay with
    growing windows can be tracked.
    """
    n = chain.n_sites
    if r_eff is None:
        r_eff = geom.r
    Y = geom.M - r_eff if y_halfwidth is None else y_halfwidth
    if Y < 0 or 2 * Y + 1 > n:
        raise PreconditionError(f"invalid position window halfwidth Y = {Y}")
    S, Dk, tail = _transfer_kernels(spectral.dk_index, n, Y)
    ft = np.asarray(window.fourier(spectral.de))
    w = spectral.weights
    derivative_term = -2.0 * SQRT_2PI * float(np.real(np.sum(w * ft * S)))
    count_term = 2.0 * SQRT_2PI * (Y + 1) * float(np.real(np.sum(w * ft * Dk)))
    tail_term = 2.0 * SQRT_2PI * (2 * Y + 1) * float(np.real(np.sum(w * ft * tail)))
    lhs = derivative_term / SQRT_2PI
    rhs = current_value * window.fourier0()
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / abs(rhs) if rhs != 0 else (0.0 if abs_err < 1e-12 else math.inf)
    return {
        "lhs": lhs,
        "rhs": rhs,
        "abs_err": abs_err,
        "rel_err": rel_err,
        "tail_term": tail_term,
        "count_term": count_term,
        "derivative_term": derivative_term,
        "Y": Y,
    }


def boundary_commutator_integral(state, phi, spec, geom, window: WindowFunction,
                                 chain: ChainConfig, quad_tol: float = 1e-8) -> float:
    """Windowed <i [N_[-L,0], (C_-M + C_M)(t)]>, the boundary-complement piece of C(t)."""
    N_w = models.charge_sparse(spec, (-geom.L, 0), chain)
    cm, cp = models.boundary_complements(phi, geom.M, chain)
    from .operators import embed_sparse

    C_ops = embed_sparse(cm, chain) + embed_sparse(cp, chain)
    kernel = CommutatorKernel(state, N_w, C_ops)
    return integrate_windowed(kernel.curve, window, tol=quad_tol)


def singularity_diagnostic(spectral: SpectralFunction, epsilon_windows,
                           z_halfwidth: int, current_tol: float = 1e-9) -> dict:
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
    if abs(total) < current_tol:
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
