"""Exact free-fermion oracle for the biased XX ring, O(n^3) in the ring length.

The Jordan-Wigner map c_j^dag = (prod_{l<j} (-1)^{n_l}) S^+_j turns the XX
ring into hopping fermions.  The ring is cut on bond (M, M+1), outside every
operator of a sum-rule geometry: site M + 1 becomes fermion 0 and site M
fermion n - 1.  On the sector of fermion parity P = (-1)^N the closing bond
carries an extra factor -P (periodic fermions for odd N, antiperiodic for
even N), and every other operator is a plain quadratic form c^dag x c + x0.
With Pi_P = (1 + P (-1)^N) / 2 and Q_P = H_P - lambda J_P,

    Tr(rho X) = sum_P Tr(Pi_P exp(-beta Q_P) X) / Z,
    Tr(s^N exp(-beta Q) c^dag x c) = tr(x Phi diag(g_s) Phi^H),
    g_s[k] = s exp(-beta eps_k) prod_{l != k} (1 + s exp(-beta eps_l)),

for s = +1, -1 and q = Phi diag(eps) Phi^H; every trace is an n x n matrix
product (Lieb, Schultz & Mattis 1961; Peschel 2003).

The modes of sector P are plane waves with e^{i k n} = -P, so the spectral
weights of <i n^ E(.) h^> follow from Wick's theorem mode pair by mode pair
(:meth:`FreeFermionXX.spectral`), and the Lieb-Robinson norm
||[sigma^z_0(t), sigma^z_x]|| from one entry of exp(-i h_P t) (:func:`lr_norm`).

Run as a script, this prints the sum-rule rel_err table of the M-trend
geometries for n = 12 .. 32, the criterion-8 terms and criterion-9 fraction
for n = 8 .. 40, and the Lieb-Robinson floor point x = 5, t = 0.1:
``python tests/free_fermion.py``.
"""

import math

import numpy as np

import nesslab as nl
from nesslab.spectral import DE_DECIMALS, SQRT_2PI, SpectralFunction, centered_mode


def _one_body(coeffs: np.ndarray, occupied: int, empty: int):
    """(x, x0) with X = c^dag x c + x0 on the support positions of a local,
    number-conserving, quadratic operator: x from its one-particle states."""
    k = round(math.log2(coeffs.shape[0]))
    vacuum = empty * (2**k - 1)
    single = [vacuum + (occupied - empty) * 2**a for a in range(k)]
    x0 = coeffs[vacuum, vacuum]
    return coeffs[np.ix_(single, single)] - x0 * np.eye(k), x0


class FreeFermionXX:
    """exp(-beta (H - lambda J_tot)) of the XX ring of ``n`` sites, cut after site ``cut``."""

    def __init__(self, n: int, beta: float, lam: float, cut: int):
        phi, spec = nl.build_xx_model()
        n0 = np.real(np.diag(spec.n0))
        self.n, self.cut, self.beta, self.lam = n, cut, beta, lam
        self._occ = int(np.argmax(n0)), int(np.argmin(n0))
        (_, bond), = phi.terms
        j0 = nl.current_local(phi, spec, nl.ChainConfig(4, 2))
        assert j0.support == (0, 1)
        self.bond, self.n0 = _one_body(bond, *self._occ), _one_body(spec.n0, *self._occ)
        self.j0 = _one_body(j0.coeffs, *self._occ)
        self.sectors = []  # per parity P: (P, Z_P, R_P, energies and eigenvectors of h_P)
        for P in (1, -1):
            h = self._ring(self.bond[0], P)
            eps, phi_q = np.linalg.eigh(h - lam * self._ring(self.j0[0], P))
            z, g = [], []
            for s in (1.0, -1.0):
                f = 1.0 + s * np.exp(-beta * eps)
                z.append(np.prod(f))
                g.append(np.array([s * np.exp(-beta * e) * np.prod(np.delete(f, i))
                                   for i, e in enumerate(eps)]))
            R = (phi_q * ((g[0] + P * g[1]) / 2)) @ phi_q.conj().T
            self.sectors.append((P, (z[0] + P * z[1]) / 2, R, *np.linalg.eigh(h)))
        self.Z = sum(zP for _, zP, *_ in self.sectors)

    def pos(self, site: int) -> int:
        """Fermion index of a chain site (signed coordinates)."""
        return (site - self.cut - 1) % self.n

    def _place(self, x: np.ndarray, first_site: int, P: int = -1) -> np.ndarray:
        """n x n matrix of a one-body block on sites first_site, first_site + 1, ...;
        a bond across the cut (fermions n - 1 and 0) takes the factor -P on its hops."""
        idx = [self.pos(first_site + a) for a in range(len(x))]
        out = np.zeros((self.n, self.n), dtype=np.complex128)
        out[np.ix_(idx, idx)] = x
        if idx != sorted(idx):
            assert len(idx) == 2
            out[idx[0], idx[1]] *= -P
            out[idx[1], idx[0]] *= -P
        return out

    def _ring(self, x: np.ndarray, P: int) -> np.ndarray:
        return sum(self._place(x, site, P) for site in range(self.n))

    def _window(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Sum of the blocks of x that start on lo .. hi, none across the cut."""
        assert all(self.pos(s) <= self.pos(s + len(x) - 1) for s in range(lo, hi + 1))
        return sum(self._place(x, site) for site in range(lo, hi + 1))

    def expect(self, x: np.ndarray, x0: complex = 0.0) -> complex:
        """<c^dag x c + x0> for x off the cut."""
        return x0 + sum(np.trace(x @ R) for _, _, R, *_ in self.sectors) / self.Z

    def current(self) -> float:
        x, x0 = self.j0
        return self.expect(self._window(x, 0, 0), x0).real

    def _weights(self, M: int, L: int):
        """Per parity sector: the energy transfers e_l - e_m of h_P and the weights
        i A_lm K_ml / Z, A = h_M and K = [R_P, n_w] in h_P's eigenbasis."""
        n_w = self._window(self.n0[0], -L, 0)
        h_M = self._window(self.bond[0], -M, M - 1)
        for _, _, R, e, psi in self.sectors:
            A = psi.conj().T @ h_M @ psi
            K = psi.conj().T @ (R @ n_w - n_w @ R) @ psi
            yield np.subtract.outer(e, e), 1j * A * K.T / self.Z

    def curve(self, M: int, L: int, ts) -> np.ndarray:
        """C(t) = <i [N_[-L,0], H_[-M,M](t)]> at the times ts."""
        ts = np.asarray(ts, dtype=float)
        return sum(np.einsum("lm,lmt->t", w, np.exp(1j * de[..., None] * ts))
                   for de, w in self._weights(M, L)).real

    def sum_rule(self, M: int, L: int, window) -> dict:
        """lhs = int C(t) f_T(t) dt in closed form, rhs = sqrt(2 pi) <j_0> ft(0)."""
        lhs = SQRT_2PI * sum(np.sum(w * window.fourier(de.ravel()).reshape(de.shape))
                             for de, w in self._weights(M, L)).real
        rhs = SQRT_2PI * self.current() * window.fourier0()
        rel_err = abs(lhs - rhs) / abs(rhs) if rhs else math.inf
        return {"lhs": float(lhs), "rhs": float(rhs), "rel_err": float(rel_err)}

    def _plane_waves(self, P: int):
        """Mode indices m, energies eps (of h_P) and q (of Q_P), and the modes as
        columns: psi_m(j) = e^{i k_m j} / sqrt(n), k_m = 2 pi (m + theta) / n."""
        theta = 0.5 if P == 1 else 0.0
        m = np.arange(self.n)
        psi = np.exp(2j * np.pi * np.outer(np.arange(self.n), m + theta) / self.n) / np.sqrt(self.n)
        h = psi.conj().T @ self._ring(self.bond[0], P) @ psi
        q = h - self.lam * (psi.conj().T @ self._ring(self.j0[0], P) @ psi)
        assert np.max(np.abs(q - np.diag(np.diag(q)))) < 1e-12
        return m, np.diag(h).real, np.diag(q).real, psi

    def spectral(self) -> SpectralFunction:
        """The weights w(dk, de) of <i n^_0 E(.) h^> (n^ = n_0 - <n_0>, h^ the
        centred bond on sites 0, 1), one row per particle-hole transfer a -> b of
        each sector and s, plus one row at (0, 0) for the diagonal terms; de is
        rounded to DE_DECIMALS, as the program keys it.

        With G_s = s^N exp(-beta Q_P) and e_l = exp(-beta q_l), Wick's theorem
        gives Tr(G_s n_a (1 - n_b)) = s e_a prod_{l != a, b} (1 + s e_l) and
        Tr(G_s n_l n_l') = e_l e_l' prod_{l'' != l, l'} (1 + s e_l''); the sector
        takes (Tr G_+ X + P Tr G_- X) / 2.  Every trace stays a product, so
        Z_- = 0 (a mode with q_l = 0) needs no special case."""
        (x, x0), (y, y0) = self.n0, self.bond
        rows, moments = [], []  # moments: per sector and s, (weight, <n_l>, <n_l n_l'>)
        for P, *_ in self.sectors:
            m, eps, q, psi = self._plane_waves(P)
            X = psi.conj().T @ self._place(x, 0) @ psi
            Y = psi.conj().T @ self._place(y, 0) @ psi
            n = self.n
            for s in (1.0, -1.0):
                c = (1.0 if s == 1 else P) / (2 * self.Z)
                f = 1.0 + s * np.exp(-self.beta * q)
                e = np.exp(-self.beta * q)
                pair = np.ones((n, n))  # prod over l != a, b of f_l (l != a on the diagonal)
                for a in range(n):
                    for b in range(n):
                        pair[a, b] = np.prod(np.delete(f, [a, b] if a != b else [a]))
                occ = s * e * np.diag(pair)  # Tr(G_s n_l)
                both = np.outer(e, e) * pair  # Tr(G_s n_l n_l'), l != l'
                np.fill_diagonal(both, occ)
                moments.append((c, np.prod(f), occ, both, np.diag(X), np.diag(Y)))
                hop = c * 1j * X * Y.T * (s * e[:, None] * pair)  # a occupied, b empty
                np.fill_diagonal(hop, 0.0)
                rows.append((centered_mode((m[None, :] - m[:, None]) % n, n).ravel(),
                             np.subtract.outer(eps, eps).T.ravel(), hop.ravel()))
        nu = x0 + sum(c * xd @ occ for c, _, occ, _, xd, _ in moments)
        eta = y0 + sum(c * yd @ occ for c, _, occ, _, _, yd in moments)
        diag = 1j * sum(c * ((x0 - nu) * (y0 - eta) * z + (x0 - nu) * yd @ occ
                             + (y0 - eta) * xd @ occ + xd @ both @ yd)
                        for c, z, occ, both, xd, yd in moments)
        dk, de, w = (np.concatenate(part) for part in zip(*rows))
        return SpectralFunction(self.n, np.r_[dk, 0], np.round(np.r_[de, 0.0], DE_DECIMALS),
                                np.r_[w, diag])


def lr_norm(n: int, x: int, t: float, orders: int = 80) -> float:
    """||[sigma^z_0(t), sigma^z_x]|| on the XX ring of n sites.

    sigma^z = 2 c^dag c - 1 carries no string, so the commutator is the one-body
    form c^dag [Psi_P, E_x] c on each parity sector, of norm
    4 |u_P| sqrt(1 - |u_P|^2) with u_P = exp(-i h_P t)_{0x}.  u_P is summed as
    its Taylor series: every path from x to 0 of one length that does not wrap
    the ring has the same sign, so no terms cancel and u_P keeps its full
    relative precision where the norm is 1e-8.
    """
    ring = FreeFermionXX(n, 1.0, 0.0, cut=-1)  # fermion j is site j
    norm = 0.0
    for P in (1, -1):
        h = ring._ring(ring.bond[0], P)
        v = np.zeros(n, dtype=np.complex128)
        v[x % n] = 1.0
        u = v[0]
        for k in range(1, orders):  # v = (-i t)^k h^k e_x / k!
            v = (-1j * t / k) * (h @ v)
            u += v[0]
        norm = max(norm, 4.0 * float(abs(u)) * math.sqrt(1.0 - abs(u) ** 2))
    return norm


def m_trend_table(ns=range(12, 33), beta=1.0, lam=0.5, window=None):
    """{n: {(L - M, M): rel_err or None}} over the M-trend geometries, hann T = 2;
    None where L + M + 1 >= n leaves no wrap clearance."""
    window = window or nl.WindowFunction("hann", 2.0)
    table = {}
    for n in ns:
        row = {}
        for gap in (4, 2):
            for M in (2, 3, 4):
                L = M + gap
                row[gap, M] = (None if L + M + 1 >= n else
                               FreeFermionXX(n, beta, lam, M).sum_rule(M, L, window)["rel_err"])
        table[n] = row
    return table


def spectral_table(ns=range(8, 41), beta=1.0, lam=0.5):
    """{n: (rel_err, tail_term, count_term, fraction)}: criterion 8's derivative
    identity at (M, L) = (3, 7), Y = M - r = 2, hann T = 2, and criterion 9's
    fraction of the derivative mass at |de| < 0.2, z_halfwidth = M_max - r."""
    window = nl.WindowFunction("hann", 2.0)
    table = {}
    for n in ns:
        oracle = FreeFermionXX(n, beta, lam, n // 2)
        sf = oracle.spectral()
        res = nl.momentum_derivative_check(sf, window, 2, current_value=oracle.current())
        fraction = nl.singularity_diagnostic(sf, [0.2], z_halfwidth=(n - 4) // 2 - 1)
        table[n] = (res["rel_err"], res["tail_term"], res["count_term"],
                    fraction["fractions"][0.2])
    return table


if __name__ == "__main__":
    print("n   L-M=4: M=2, 3, 4               L-M=2: M=2, 3, 4")
    for n, row in m_trend_table().items():
        cells = ["n/a" if v is None else f"{v:.4g}" for v in row.values()]
        print(f"{n:<3} {', '.join(cells[:3]):<30} {', '.join(cells[3:])}")
    print("\nn   criterion 8: rel_err, tail_term, count_term   criterion 9: fraction(|de| < 0.2)")
    for n, (rel_err, tail, count, fraction) in spectral_table().items():
        print(f"{n:<3} {rel_err:.4g}, {tail:.4g}, {count:.4g}{'':<12} {fraction:.4f}")
    print("\nn   ||[sigma^z_0(t), sigma^z_x]|| at x = 5, t = 0.1")
    for n in (10, 12, 14):
        print(f"{n:<3} {lr_norm(n, 5, 0.1)!r}")
