"""Heisenberg-picture evolution, the locality (group-velocity) bound and the
deviation bound Z_{M,L}(t).

Evolution is conjugation in the Hamiltonian eigenbasis, exact to rounding at
these dimensions.  Empirical light-cone scans compare commutator norms of
separated, evolved local operators against the closed-form bound; on a
periodic chain only pre-wrap points are admitted.  A basis from
:meth:`JointBasis.for_interaction` of an interaction whose terms equal their
local reversal c[::-1, ::-1] (XX or XXZ; not fermions with v != 0) records as
``images`` how the spin inversion F = u^(x)n, u: i -> d-1-i, pairs its
sectors.  When A and B each equal +-their reversal (sigma_x or sigma_z), F
maps the half block's groups of sectors onto groups with the same singular
values, and only one group of each such pair is computed.  For an F-even A,
pairs of image sectors share one block of A; when B is F-even too, each group
that F maps onto itself splits into two F blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import PreconditionError
from .operators import (ChainConfig, LocalOperator, _global_indices, _reversal_parity,
                        comm_norm, connected_components, embed, embed_sparse,
                        embedded_entries, operator_norm, translate)
from . import models
from .spectral import JointBasis, empirical_velocity


# the benchmark harness (perfbench/child.py) traces and calls
# EvolutionContext.for_interaction and reads its .vectors under this name
EvolutionContext = JointBasis


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


def _eigenspaces(B: LocalOperator, fold: bool = False) -> tuple:
    """(b2 - b1, U1, U2) for B = b1 P1 + b2 P2, with P_i = U_i U_i^H.

    U_i keeps the local eigenvectors of eigenspace i in their own columns and
    zeros elsewhere; a diagonal B keeps exact unit vectors, and ``fold`` makes
    them eigenvectors of the local reversal too.  A B with one eigenvalue
    leaves U2 empty; three or more eigenvalues are refused.
    """
    c = B.coeffs
    if np.count_nonzero(c - np.diag(np.diag(c))):
        vals, vecs = np.linalg.eigh(c)
    else:
        vals, vecs = np.diag(c).real, np.eye(len(c), dtype=np.complex128)
    order = np.argsort(vals, kind="stable")
    cuts = np.flatnonzero(np.diff(vals[order]) > 1e-12 * max(1.0, np.max(np.abs(vals))))
    if len(cuts) > 1:
        raise PreconditionError(
            f"B needs at most two distinct eigenvalues, got {len(cuts) + 1}")
    low = vals <= vals[order[cuts[0] if len(cuts) else -1]]  # eigenspace 1
    for space in (low, ~low) if fold else ():
        W = vecs[:, space]
        vecs[:, space] = W @ np.linalg.eigh(W.conj().T @ W[::-1])[1]
    return float(vals[order[-1]] - vals[order[0]]), vecs * low, vecs * ~low


def _reversal_map(op: LocalOperator, chain: ChainConfig) -> tuple:
    """(pi, s) with F Q e_j = s[j] Q e_pi[j], Q = embed(op), for an op whose local
    columns are eigenvectors of the local reversal: pi complements the digits
    off the support, s is the reversal eigenvalue of the local column."""
    c, g = op.coeffs, _global_indices(op.support, chain)
    pi, s = np.empty(chain.dim, dtype=np.int64), np.empty(chain.dim)
    pi[g], s[g] = g[:, ::-1], np.rint(np.einsum("ba,ba->a", c.conj(), c[::-1]).real)[:, None]
    return pi, s


def _sector_isometries(sectors, labels, pos, op: LocalOperator, chain: ChainConfig) -> tuple:
    """(G, cols, T) for Q = embed(op): G[c] is Q^H on the columns cols[c]
    (ascending) that have a row in sector c, and on that sector's states;
    T[c, j] > 0 where column j has a row in sector c."""
    r, j, v = embedded_entries(op, chain)
    o = np.lexsort((pos[r], j, labels[r]))
    lab, j, p, v = labels[r][o], j[o], pos[r][o], v[o].conj()
    first = np.r_[True, (lab[1:] != lab[:-1]) | (j[1:] != j[:-1])]
    cuts = np.searchsorted(lab, np.arange(len(sectors) + 1))
    G, cols = [], []
    for s, a, b in zip(sectors, cuts[:-1], cuts[1:]):
        starts = np.flatnonzero(first[a:b])
        cols.append(j[a:b][starts])
        G.append(sp.csr_matrix((v[a:b], p[a:b], np.r_[starts, b - a]),
                               shape=(len(starts), len(s.index))))
    return G, cols, sp.csr_matrix((np.ones(len(lab)), (lab, j)), shape=(len(sectors), chain.dim))


def _half_block_groups(sectors, labels, pos, ck, ops, chain: ChainConfig, image,
                       fold: bool) -> tuple:
    """(G1, G2, groups) for the half block Q1^H A(t) Q2, Q_i = embed(ops[i]).  A group
    joins the sectors A couples (pairs ``ck``) or whose rows share a column of Q1
    or Q2; (shape, [(c, k, rows, cols)], plan) puts G1[c] A(t)[c, k] G2[k]^H at
    (rows, cols).  G2[k] is (G, read): the states ``read`` of sector k that Q2^H
    touches, and Q2^H's block G on them, its entries in their order.  With the
    sector images ``image`` of F, a group that F maps onto an earlier group is
    left out; with ``fold`` too a group that F maps onto itself keeps one row per
    F orbit and gets a _fold_plan.  Groups without columns of Q1 or Q2 are zero."""
    (G1, cols1, T1), (G2, cols2, T2) = (_sector_isometries(sectors, labels, pos, op, chain)
                                        for op in ops)
    S_A = sp.csr_matrix((np.ones(len(ck)), (ck[:, 0], ck[:, 1])), shape=(len(sectors),) * 2)
    n_grp, glabels = connected_components(S_A + T1 @ T1.T + T2 @ T2.T)
    maps = [_reversal_map(op, chain) for op in ops] if fold else None
    groups = []
    for g in range(n_grp):
        S = np.flatnonzero(glabels == g)
        partner = g if image is None else glabels[image[S[0]]]  # the group F maps g onto
        C1, C2 = ([c for c in S if len(ci[c])] for ci in (cols1, cols2))
        if not (C1 and C2) or partner < g:
            continue
        J1, J2 = (np.unique(np.concatenate([ci[c] for c in C]))
                  for ci, C in ((cols1, C1), (cols2, C2)))
        plan = None
        if fold and partner == g:
            for c in C1:  # keep one row per F orbit
                keep = cols1[c] <= maps[0][0][cols1[c]]
                G1[c], cols1[c] = G1[c][keep], cols1[c][keep]
            J1 = J1[J1 <= maps[0][0][J1]]
            plan = _fold_plan(J1, J2, maps)
        pairs = [(c, k, np.searchsorted(J1, cols1[c]), np.searchsorted(J2, cols2[k]))
                 for c, k in ck.tolist() if glabels[c] == g and len(cols1[c]) and len(cols2[k])]
        groups.append(((len(J1), len(J2)), pairs, plan))
    reads = [np.unique(G.indices) for G in G2]
    G2 = [(sp.csr_matrix((G.data, np.searchsorted(read, G.indices), G.indptr),
                         shape=(G.shape[0], len(read))), read) for G, read in zip(G2, reads)]
    return G1, G2, groups


def _fold_plan(J1, J2, maps) -> tuple:
    """(C, PC, sC, w): with rows J1 (one per F orbit) and columns J2, the F blocks in an
    orthonormal F-adapted basis are (X[:, C] + e sC X[:, PC]) * outer(*w[i]), e = +1, -1;
    a row or column that F fixes weighs 1/sqrt(2), a fixed row of the other sign 0."""
    (pi1, s1), (pi2, s2) = maps
    C = np.flatnonzero(J2 <= pi2[J2])
    PC = np.searchsorted(J2, pi2[J2[C]])
    fixed1, fixed2 = pi1[J1] == J1, PC == C
    w = [(np.where(fixed1, math.sqrt(0.5) * (s1[J1] == e), 1.0),
          np.where(fixed2, math.sqrt(0.5), 1.0)) for e in (1.0, -1.0)]
    return C, PC, s2[J2[C]], w


def _clusters(halves: dict, n_sectors: int) -> list:
    """One {(c, k): [(i, x, group, rows, cols)]} per cluster (the union of the sector
    sets of every group at every separation): the groups i that use each block of A,
    keyed in ``ck`` order.  A group without pairs is zero and is left out."""
    grouped = [(x, g, sorted({s for c, k, _, _ in g[1] for s in (c, k)}))
               for x, (_, _, groups) in halves.items() for g in groups if g[1]]
    edges = np.array([(S[0], s) for _, _, S in grouped for s in S], dtype=np.int64).reshape(-1, 2)
    label = connected_components(sp.csr_matrix(
        (np.ones(len(edges)), edges.T), shape=(n_sectors, n_sectors)))[1]
    clusters = {}
    for i, (x, g, S) in enumerate(grouped):
        uses = clusters.setdefault(label[S[0]], {})
        for c, k, rows, cols in g[1]:
            uses.setdefault((c, k), []).append((i, x, g, rows, cols))
    return [dict(sorted(uses.items())) for uses in clusters.values()]


def _group_sigma_max(acc: dict, key, plan) -> float:
    """Largest singular value of the half block ``acc.pop(key)`` (of its two F blocks,
    formed in place of its column halves, if folded), from the smaller Gram matrices."""
    blocks = [acc.pop(key)]
    if plan is not None:
        C, PC, sC, w = plan
        XC, XP = blocks[0][:, C], blocks.pop()[:, PC]  # the half block goes with the pop
        XP *= sC
        blocks = [XC + XP, np.subtract(XC, XP, out=XC)]
        XC = XP = None
        for Z, we in zip(blocks, w):
            Z *= np.outer(*we)
    tops = []
    while blocks:  # each block goes once its Gram matrix is formed
        Z = blocks.pop(0)
        g = Z @ Z.conj().T if Z.shape[0] <= Z.shape[1] else Z.conj().T @ Z
        Z = None
        tops.append(float(np.linalg.eigvalsh(g)[-1]))
    return math.sqrt(max(max(tops), 0.0))


def _local_comm_norm(A: LocalOperator, B: LocalOperator, site_dim: int) -> float:
    """||[A, B]|| on the union of the two supports; exactly 0 when disjoint."""
    sites = sorted(set(A.support) | set(B.support))
    hull = ChainConfig(max(2, len(sites)), site_dim)
    a, b = (embed(LocalOperator(tuple(sites.index(s) for s in op.support), op.coeffs), hull)
            for op in (A, B))
    return comm_norm(a, b)


def lr_scan(phi: models.Interaction, A: LocalOperator, B: LocalOperator,
            x_values, t_values, chain: ChainConfig,
            ctx: JointBasis | None = None,
            v_emp: float | None = None) -> list:
    """Empirical commutator norms ||[tau_x alpha_t(A), B]|| against the bound.

    B must have at most two distinct eigenvalues, B = b1 P1 + b2 P2; then
    ||[A(t), B]|| = |b2 - b1| sigma_max(P1 A(t) P2).  The scan runs per sector
    of ``ctx`` (built from ``phi`` if omitted) and one cluster of sectors at a
    time (see :func:`_clusters`): A enters the eigenbasis once per pair of
    sectors it couples (once per F pair of them if ``ctx`` records ``images``),
    and each norm is a maximum over the groups of sectors of the half block
    P1 A(t) P2 (one group of each F pair), or over their two F blocks (see the
    module docstring).  With P_s(t) = W_s exp(iE_s t), so that exp(iHt) on
    sector s is P_s(t) W_s^H, it holds per time and pair (c, k) of sectors
    P_c(t) A[c, k] and, per use, only the rows of P_k(t) that P2's isometry
    reads; a group of one pair takes that pair's product as its half block.
    The sector vectors may be real or complex; both give the same bits.
    t = 0 takes the local commutator, exactly 0 for disjoint supports.  Points
    whose light cones could wrap the ring (|x| + 2 v_emp |t| >= n_sites) are
    excluded from the comparison and flagged in the output.  A bad grid is
    refused before any diagonalization.
    """
    if not (A.hermitian and B.hermitian):
        raise PreconditionError("scan operators must be flagged Hermitian")
    if v_emp is None:
        v_emp = empirical_velocity(phi)
    V = models.lr_velocity(phi)
    normA, normB = A.norm(), B.norm()
    params = {x: LRBoundParams(d1=A.width(), d2=B.width(), x=x, normA=normA, normB=normB,
                               V=V, site_dim=chain.site_dim) for x in x_values}
    ts = sorted(set(float(t) for t in t_values))
    live = {t: [x for x in x_values if abs(x) + 2.0 * v_emp * abs(t) < chain.n_sites]
            for t in ts}
    if params and ts and not any(live.values()):
        raise PreconditionError("every requested scan point lies beyond the wrap horizon")
    parity = [_reversal_parity(op.coeffs) for op in (A, B)]
    gap, U1, U2 = _eigenspaces(B, parity == [1, 1])
    # the scan evolves whole sector blocks: a basis kept in momentum frames is assembled
    ctx = JointBasis.for_interaction(phi, chain) if ctx is None else ctx.unframed()
    image = ctx.images if all(parity) else None
    fold = image is not None and parity == [1, 1]
    mates = {c: f for c, f in enumerate(image or ()) if f != c} if parity[0] == 1 else {}
    # periodic: ||[tau_x alpha_t(A), B]|| = ||[alpha_t(A), tau_{-x}(B)]||;
    # open chains have no translation automorphism, so B is placed at +x there
    step = -1 if chain.periodic else 1

    sectors = ctx.sectors
    A_sp = embed_sparse(A, chain)
    ck = np.array(ctx.coupled_pairs(A_sp), dtype=np.int64).reshape(-1, 2)
    pos = np.empty(chain.dim, dtype=np.int64)  # place of each basis state in its sector
    for s in sectors:
        pos[s.index] = np.arange(len(s.index))
    halves = {x: _half_block_groups(sectors, ctx.labels, pos, ck, [
        translate(LocalOperator(B.support, U), step * x, chain) for U in (U1, U2)], chain,
        image, fold) for x in x_values}

    sigmas = {(x, t): [] for t in ts if t != 0.0 for x in live[t]}
    for uses in _clusters(halves, len(sectors)):
        # each pair of two mates takes the block of its mirror pair, if that comes first
        twin = {(c, k): (mates[c], mates[k]) for c, k in uses if c in mates and k in mates}
        twin = {ck: m for ck, m in twin.items() if m < ck and m in uses}
        own = [ck for ck in uses if ck not in twin]
        blocks = {(c, k): M for c, k, _, M in ctx.blocks(A_sp, own)}
        A_eig = [(c, k, blocks[twin.get((c, k), (c, k))]) for c, k in uses]
        blocks = None
        for t in sorted({t for _, t in sigmas}):
            acc = {}  # half blocks of the groups between their first and last pair
            for c, k, M in A_eig:
                users = [u for u in uses[c, k] if u[1] in live[t]]
                if not users:
                    continue
                PM = (sectors[c].vectors * np.exp(1j * sectors[c].energies * t)) @ M  # P_c(t) M
                phase = np.exp(1j * sectors[k].energies * t)
                for i, x, (shape, group_pairs, plan), rows, cols in users:
                    # the rows of G2 P_k(t), from the states G2 reads
                    G2, read = halves[x][1][k]
                    np.conjugate(R := G2 @ (sectors[k].vectors[read] * phase), out=R)
                    Y = (halves[x][0][c] @ PM) @ R.T
                    R = None
                    if len(group_pairs) == 1 and Y.shape == shape:
                        acc[i] = Y  # the pair fills its group's half block
                    else:
                        if i not in acc:
                            acc[i] = np.zeros(shape, dtype=np.complex128)
                        acc[i][np.ix_(rows, cols)] += Y
                    Y = None
                    if group_pairs[-1][:2] == (c, k):
                        sigmas[x, t].append(_group_sigma_max(acc, i, plan))
                PM = None  # release this pair's product before building the next
        A_eig = None

    rows = []
    for t in ts:
        for x in x_values:
            if x not in live[t]:
                emp = math.nan
            elif t == 0.0:
                emp = _local_comm_norm(A, translate(B, step * x, chain), chain.site_dim)
            else:
                emp = gap * max(sigmas[x, t], default=0.0)
            rows.append(LRScanRow(x=x, t=t, empirical=emp, bound=lr_bound(params[x], t),
                                  excluded=x not in live[t]))
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
