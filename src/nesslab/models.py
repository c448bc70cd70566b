"""Translation-invariant finite-range interactions and derived operators.

Builds the objects the bounds and sum rules are stated in terms of: window
Hamiltonians, window charges, the charge current at the origin, the energy
currents at a window boundary, the telescoped energy density, and the
interaction-dependent group-velocity constant.

Window intervals are given in signed coordinates (lo, hi) and mapped onto the
chain as arcs, so a periodic chain can host the conventional windows [-L, 0]
and [-M, M] centred at site 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, NumericalCheckError, PreconditionError
from .operators import (
    ChainConfig,
    LocalOperator,
    arc_sites,
    assemble_sparse,
    check_hermitian,
    commutator,
    embed_sparse,
    extract_local,
    kron_le,
    operator_norm,
    sparse_fro_norm,
    translate,
)

# single-site spin-1/2 and hard-core fermion matrices
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
SPIN_HALF = (PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2)
# occupation basis |0>, |1>; lowering maps |1> -> |0>
FERMION_LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
FERMION_RAISE = FERMION_LOWER.conj().T
FERMION_NUMBER = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)

MAX_CONSERVATION_WINDOW = 8  # check_conservation checks windows of up to this many sites


@dataclass(frozen=True)
class Interaction:
    """Finite-range translation-invariant interaction.

    ``terms`` holds one canonical representative per translation class: a
    strictly increasing offset tuple starting at 0 with diameter <= r, and a
    Hermitian matrix on those offsets (little-endian, offset 0 fastest).
    """

    site_dim: int
    r: int
    terms: tuple = field(repr=False)

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"range must be a positive integer, got {self.r}")
        if self.site_dim < 2:
            raise ValueError("site_dim must be >= 2")
        seen = set()
        canon = []
        for offsets, mat in self.terms:
            offsets = tuple(int(o) for o in offsets)
            if not offsets or offsets[0] != 0:
                raise ValueError(f"offset set must be anchored at 0: {offsets}")
            if any(b <= a for a, b in zip(offsets, offsets[1:])):
                raise ValueError(f"offsets must be strictly increasing: {offsets}")
            if offsets[-1] > self.r:
                raise ValueError(
                    f"offset set {offsets} has diameter {offsets[-1]} > range {self.r}"
                )
            if offsets in seen:
                raise ValueError(f"duplicate canonical offset set {offsets}")
            seen.add(offsets)
            mat = np.ascontiguousarray(np.asarray(mat, dtype=np.complex128))
            want = self.site_dim ** len(offsets)
            if mat.shape != (want, want):
                raise ValueError(
                    f"term on {offsets} must be {want}x{want}, got {mat.shape}"
                )
            check_hermitian(mat, f"term on {offsets}")
            mat.flags.writeable = False
            canon.append((offsets, mat))
        object.__setattr__(self, "terms", tuple(canon))

    def __eq__(self, other):  # in value: the generated __eq__ cannot compare the matrices
        if not isinstance(other, Interaction):
            return NotImplemented
        a, b = ([p.site_dim, p.r, [(o, m.tolist()) for o, m in p.terms]] for p in (self, other))
        return a == b

    def max_diameter(self) -> int:
        """Largest diameter among terms that are actually nonzero."""
        diam = 0
        for offsets, mat in self.terms:
            if np.any(mat):
                diam = max(diam, offsets[-1])
        return diam

    def max_term_norm(self) -> float:
        norms = [operator_norm(mat) for _, mat in self.terms]
        return max(norms) if norms else 0.0


@dataclass(frozen=True)
class ChargeSpec:
    """Single-site charge n_0; n_x is its translate and N_window the arc sum."""

    n0: np.ndarray = field(repr=False)

    def __post_init__(self):
        n0 = np.ascontiguousarray(np.asarray(self.n0, dtype=np.complex128))
        if n0.ndim != 2 or n0.shape[0] != n0.shape[1]:
            raise ValueError("n0 must be a square matrix")
        check_hermitian(n0, "charge n0")
        n0.flags.writeable = False
        object.__setattr__(self, "n0", n0)

    def __eq__(self, other):  # in value, as Interaction's
        return isinstance(other, ChargeSpec) and self.n0.tolist() == other.n0.tolist()


@dataclass(frozen=True)
class CurrentGeometry:
    """Window sizes for the current definition j_0 = i [N_[-L,0], H_[-M,M]].

    Requires L > M >= 2r and L - M >= 2r, the separations the boundary-current
    machinery needs.  The fit on a concrete chain (arc [-L, M] shorter than
    the ring, with an extra r sites of wrap clearance for correlation work)
    is checked separately.
    """

    L: int
    M: int
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise GeometryError("range must be positive")
        if self.M < 2 * self.r:
            raise GeometryError(f"need M >= 2r, got M={self.M}, r={self.r}")
        if self.L <= self.M:
            raise GeometryError(f"need L > M, got L={self.L}, M={self.M}")
        if self.L - self.M < 2 * self.r:
            raise GeometryError(
                f"need L - M >= 2r, got L-M={self.L - self.M}, r={self.r}"
            )

    def validate_for_chain(self, chain: ChainConfig, wrap_clearance: bool = False) -> None:
        """Reject windows the chain cannot host.

        With ``wrap_clearance`` the stronger condition L + M + r < n_sites is
        enforced: the boundary energy currents at the right window edge must
        stay r sites clear of the charge window's wrapped left edge, else the
        spacelike-commutativity cancellations fail on the ring.
        """
        if self.L + self.M + 1 > chain.n_sites:
            raise GeometryError(
                f"arc [-{self.L}, {self.M}] needs {self.L + self.M + 1} sites, "
                f"chain has {chain.n_sites}"
            )
        if wrap_clearance and self.L + self.M + self.r >= chain.n_sites:
            raise GeometryError(
                f"correlation geometry needs L + M + r < n_sites, got "
                f"{self.L}+{self.M}+{self.r} on {chain.n_sites} sites"
            )


def build_xxz_model(lambda_aniso: float):
    """Spin-1/2 XXZ chain: bond term S1 S1 + S2 S2 + lambda S3 S3, charge S3."""
    s1, s2, s3 = SPIN_HALF
    bond = (
        kron_le([s1, s1]) + kron_le([s2, s2]) + lambda_aniso * kron_le([s3, s3])
    )
    phi = Interaction(site_dim=2, r=1, terms=(((0, 1), bond),))
    return phi, ChargeSpec(s3)


def build_xx_model():
    """XX chain, the lambda = 0 point of the XXZ family."""
    return build_xxz_model(0.0)


def build_fermion_model(t_hop: float, v) -> tuple:
    """Spinless fermions with nearest-neighbour hopping and density interactions.

    Terms are stored in their Jordan-Wigner spin image, which is string-free
    for nearest-neighbour hopping and for the diagonal density products; the
    builder verifies this against an explicit string-dressed construction.
    """
    v = [float(x) for x in v]
    r = max(1, len(v))
    hop = -t_hop * (kron_le([FERMION_LOWER, FERMION_RAISE])
                    + kron_le([FERMION_RAISE, FERMION_LOWER]))
    nn = kron_le([FERMION_NUMBER, FERMION_NUMBER])
    terms = [((0, 1), hop + (v[0] if v else 0.0) * nn)]
    for s in range(2, r + 1):
        coupling = v[s - 1]
        mat = coupling * kron_le([FERMION_NUMBER, FERMION_NUMBER])
        terms.append(((0, s), mat))

    # string-cancellation check on an open scratch chain, with sparse operators
    n_check = r + 2
    chain = ChainConfig(n_check, 2, "open")

    def c_op(x: int):
        out = embed_sparse(LocalOperator((x,), FERMION_LOWER), chain)
        for y in range(x):
            out = embed_sparse(LocalOperator((y,), PAULI_Z), chain) @ out
        return out

    c0, c1 = c_op(0), c_op(1)
    n_ops = [c_op(x).conj().T @ c_op(x) for x in range(n_check)]
    dressed = -t_hop * (c1.conj().T @ c0 + c0.conj().T @ c1)
    if v:
        dressed = dressed + v[0] * n_ops[0] @ n_ops[1]
    checks = [(dressed, terms[0])]
    checks += [(v[s - 1] * n_ops[0] @ n_ops[s], terms[s - 1]) for s in range(2, r + 1)]
    for want, (offsets, mat) in checks:
        if not sparse_fro_norm(want - embed_sparse(LocalOperator(offsets, mat), chain)) < 1e-12:
            raise NumericalCheckError(
                f"Jordan-Wigner string failed to cancel on the term at {offsets}")

    phi = Interaction(site_dim=2, r=r, terms=tuple(terms))
    return phi, ChargeSpec(FERMION_NUMBER)


def build_random_interaction(r: int, site_dim: int, rng) -> Interaction:
    """Random Hermitian interaction of exact range r (on-site, bond and spanning terms)."""
    def herm(dim):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = (a + a.conj().T) / 2
        return a / max(1.0, operator_norm(a))

    terms = [((0,), herm(site_dim))]
    if r >= 2:
        terms.append(((0, 1), herm(site_dim**2)))
    # a spanning term of diameter exactly r keeps max_diameter() == r
    terms.append(((0, r), herm(site_dim**2)))
    return Interaction(site_dim=site_dim, r=r, terms=tuple(terms))


def _zone_sum(terms, lo: int, width: int, phi: Interaction, chain: ChainConfig) -> LocalOperator:
    """Sum of the translates tau_u(term) of the (offsets, mat, u) in ``terms``, built
    on the open zone of ``width`` sites starting at lo and placed there on the chain."""
    zone = [LocalOperator(tuple(o + u - lo for o in offsets), mat) for offsets, mat, u in terms]
    acc = assemble_sparse(zone, ChainConfig(width, phi.site_dim, "open")).toarray()
    return translate(LocalOperator(tuple(range(width)), acc), lo, chain)


def hamiltonian(phi: Interaction, chain: ChainConfig, sparse: bool = False):
    """Full-chain Hamiltonian, the window of the whole chain (on a ring every
    translate wraps in)."""
    if phi.site_dim != chain.site_dim:
        raise ValueError("interaction and chain site dimensions differ")
    H = window_hamiltonian_sparse(phi, (0, chain.n_sites - 1), chain)
    return H if sparse else H.toarray()


def window_hamiltonian_sparse(phi: Interaction, window, chain: ChainConfig):
    """Sparse H_window = sum of all interaction translates contained in the window.

    ``window`` is an inclusive interval (lo, hi) in signed coordinates.  On a
    periodic chain a window covering the whole ring includes the wrapped
    translates, so the result is the translation-invariant Hamiltonian.
    """
    lo, hi = int(window[0]), int(window[1])
    width = len(arc_sites(lo, hi, chain))
    wrap = chain.periodic and width == chain.n_sites
    return assemble_sparse([translate(LocalOperator(offsets, mat), lo + u, chain)
                            for offsets, mat in phi.terms
                            for u in range(width if wrap else width - offsets[-1])], chain)


def charge_sparse(spec: ChargeSpec, window, chain: ChainConfig):
    """Sparse N_window = sum of the single-site charge over the window arc."""
    sites = arc_sites(int(window[0]), int(window[1]), chain)
    return assemble_sparse([LocalOperator((x,), spec.n0) for x in sites], chain)


def check_conservation(phi: Interaction, spec: ChargeSpec, chain: ChainConfig) -> float:
    """Max over window sizes up to MAX_CONSERVATION_WINDOW of ||[N_w, H_w]||.

    Both operators translate covariantly, so only the window size matters and
    each commutator is evaluated on the window factor alone.
    """
    worst = 0.0
    top = min(MAX_CONSERVATION_WINDOW, chain.n_sites - 1 if chain.periodic else chain.n_sites)
    for w in range(1, top + 1):
        wchain = ChainConfig(w, phi.site_dim, "open")
        H = hamiltonian(phi, wchain)
        N = charge_sparse(spec, (0, w - 1), wchain).toarray()
        worst = max(worst, operator_norm(commutator(N, H)))
    return worst


def _current(phi: Interaction, spec: ChargeSpec, M: int, chain: ChainConfig) -> LocalOperator:
    """j_0 on [1-r, r], computed as i [N_[-M,0], H_[-M,r]] on the open window [-M, r].

    The translates of H_[-M,M] that meet the charge window lie in [-M, r].  A
    translate that misses [-M, 0] commutes with N; those inside it cancel for
    a conserving interaction, which leaves the sum supported on [1-r, r].
    """
    r = phi.r
    wchain = ChainConfig(M + r + 1, phi.site_dim, "open")  # window site 0 is -M
    N = charge_sparse(spec, (0, M), wchain).toarray()
    j = 1j * commutator(N, hamiltonian(phi, wchain))
    try:
        block = extract_local(j, tuple(range(M + 1 - r, M + r + 1)), wchain)
    except PreconditionError as exc:
        raise PreconditionError(
            "current is not supported on [1-r, r]; the interaction does not "
            f"conserve the given charge ({exc})"
        ) from exc
    return translate(LocalOperator(tuple(range(2 * r)), block.coeffs), 1 - r, chain)


def current_operator(phi: Interaction, spec: ChargeSpec, geom: CurrentGeometry,
                     chain: ChainConfig) -> LocalOperator:
    """Charge current at the origin, j_0 = i [N_[-L,0], H_[-M,M]].

    The result is reduced to its true support [1-r, r] (chain coordinates mod
    n_sites); it does not depend on the admissible choice of L and M.
    """
    if geom.r != phi.r:
        raise GeometryError(f"geometry range {geom.r} != interaction range {phi.r}")
    geom.validate_for_chain(chain)
    return _current(phi, spec, geom.M, chain)


def current_local(phi: Interaction, spec: ChargeSpec, chain: ChainConfig) -> LocalOperator:
    """j_0 on the given chain, computed with the minimal admissible window M = 2r.

    Usable on chains too short to host any admissible (L, M) pair directly;
    the current is a fixed local operator on [1-r, r] regardless.
    """
    if 2 * phi.r > chain.n_sites:
        raise GeometryError("chain shorter than the current's support")
    return _current(phi, spec, 2 * phi.r, chain)


def total_current(phi: Interaction, spec: ChargeSpec, chain: ChainConfig,
                  sparse: bool = False):
    """J_tot = sum over all sites of the translated current j_x."""
    if not chain.periodic:
        raise PreconditionError("total current is defined on the periodic chain")
    j0 = current_local(phi, spec, chain)
    J = assemble_sparse([translate(j0, x, chain) for x in range(chain.n_sites)], chain)
    return J if sparse else J.toarray()


def energy_current_operators(phi: Interaction, M: int, chain: ChainConfig):
    """Boundary energy currents: i [H_[-M,M], H_[-M-r,M+r]] = J_plus - J_minus.

    Each translate sticking out of the right end of [-M, M] lies in
    W = [M-2r+1, M+r], and the translates of [-M, M] it touches lie in the
    first 2r sites of W: J_plus = i [H_[M-2r+1,M], H_W].  J_minus mirrors it
    on [-M-r, -M+2r-1].  With M >= 2r no translate sticks out of both ends.
    """
    r = phi.r
    if M < 2 * r:
        raise GeometryError(f"need M >= 2r for separated boundary zones, got M={M}, r={r}")
    if 2 * (M + r) + 1 > chain.n_sites:
        raise GeometryError(
            f"window [-M-r, M+r] needs {2 * (M + r) + 1} sites, chain has {chain.n_sites}"
        )
    wchain = ChainConfig(3 * r, phi.site_dim, "open")
    H = hamiltonian(phi, wchain)
    right, left = (window_hamiltonian_sparse(phi, (lo, lo + 2 * r - 1), wchain).toarray()
                   for lo in (0, r))
    support = tuple(range(3 * r))
    return (translate(LocalOperator(support, 1j * commutator(right, H)), M - 2 * r + 1, chain),
            translate(LocalOperator(support, 1j * commutator(H, left)), -M - r, chain))


def energy_density(phi: Interaction, chain: ChainConfig) -> LocalOperator:
    """Telescoped local energy density h on [-(r_eff // 2), r_eff - r_eff // 2].

    Every nonzero term class enters once, anchored at -(span // 2) so its
    window sits symmetrically about the origin; the window Hamiltonian then
    splits into translates of h plus boundary complements (see
    boundary_complements).
    """
    r_eff = phi.max_diameter()
    return _zone_sum([(offsets, mat, -(offsets[-1] // 2)) for offsets, mat in phi.terms
                      if np.any(mat)], -(r_eff // 2), r_eff + 1, phi, chain)


def complement_anchors(span: int, M: int, r_eff: int) -> np.ndarray:
    """The anchors u in [-M, M - span] of the translates of a class of ``span`` in
    H_[-M,M] whose position in the h sum, y = u + span // 2, lies outside
    [-M + r_eff, M - r_eff]: C_-M holds those with y < 0, C_M those with y > 0."""
    u = np.arange(-M, M - span + 1)
    return u[np.abs(u + span // 2) > M - r_eff]


def boundary_complements(phi: Interaction, M: int, chain: ChainConfig):
    """Complements C_{-M}, C_M with H_[-M,M] = sum_y tau_y(h) + C_{-M} + C_M.

    The translate sum runs over y in [-M + r_eff, M - r_eff] with r_eff the
    largest nonzero term diameter; the complements are the translates of
    :func:`complement_anchors` and live on [-M, -M + 2 r_eff] and
    [M - 2 r_eff, M].
    """
    r_eff = phi.max_diameter()
    if M < r_eff:
        raise GeometryError(f"need M >= interaction diameter, got M={M}")
    terms = [(offsets, mat, u) for offsets, mat in phi.terms if np.any(mat)
             for u in complement_anchors(offsets[-1], M, r_eff)]
    return tuple(_zone_sum([(o, m, u) for o, m, u in terms if side * (u + o[-1] // 2) > 0],
                           lo, 2 * r_eff + 1, phi, chain)
                 for side, lo in ((-1, -M), (1, M - 2 * r_eff)))


def lr_velocity(phi: Interaction) -> float:
    """Group-velocity constant V of the locality bound.

    V = sup_x sum over translates X containing x of |X| (N+1)^(2|X|) e^r ||Phi(X)||;
    translation invariance turns the sup into a count of |X| translates per class.
    """
    d = phi.site_dim
    total = 0.0
    for offsets, mat in phi.terms:
        k = len(offsets)
        total += k * k * float(d) ** (2 * k) * math.exp(phi.r) * operator_norm(mat)
    return total

