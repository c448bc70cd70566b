"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 7's strict M-trend clause is implemented faithfully and is
expected to fail at this chain size; see notes in the repository README and
the failure message for the measured mechanism.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.linalg as sla

import nesslab as nl
import nesslab.cli as cli
from nesslab.errors import GeometryError
from nesslab.models import PAULI_Z
from nesslab.spectral import WindowFunction


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def xx12_spectral(xx12_state):
    return nl.spectral_function_rho(xx12_state)


def test_criterion_1_conservation(chain10):
    """Charge conservation for every built-in model, windows up to 8 sites."""
    t0 = time.monotonic()
    models_under_test = {
        "xx": nl.build_xx_model(),
        "xxz(0.5)": nl.build_xxz_model(0.5),
        "xxz(1.0)": nl.build_xxz_model(1.0),
        "fermion(t=1, v=0.5)": nl.build_fermion_model(1.0, [0.5]),
    }
    worst = 0.0
    for name, (phi, spec) in models_under_test.items():
        res = nl.check_conservation(phi, spec, chain10)
        worst = max(worst, res)
        assert res <= 1e-12, f"{name}: residual {res:.3e}"
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    report(1, ok, f"max ||[N,H]|| = {worst:.2e} over 4 models in {elapsed:.1f} s")
    assert elapsed < 10.0


def test_criterion_2_current_identity(xx_model):
    """Closed-form currents and independence of the window choice."""
    phi, spec = xx_model
    chain = nl.ChainConfig(8, 2)
    S1, S2, _ = nl.models.SPIN_HALF
    j_xx = nl.current_operator(phi, spec, nl.CurrentGeometry(5, 2, 1), chain)
    expect_xx = -nl.kron_le([S2, S1]) + nl.kron_le([S1, S2])
    dev_xx = np.linalg.norm(j_xx.coeffs - expect_xx)
    assert dev_xx <= 1e-12

    phif, specf = nl.build_fermion_model(1.0, [0.5])
    j_f = nl.current_operator(phif, specf, nl.CurrentGeometry(5, 2, 1), chain)
    from nesslab.models import FERMION_LOWER, FERMION_RAISE

    expect_f = 1j * (nl.kron_le([FERMION_LOWER, FERMION_RAISE])
                     - nl.kron_le([FERMION_RAISE, FERMION_LOWER]))
    dev_f = np.linalg.norm(j_f.coeffs - expect_f)
    assert dev_f <= 1e-12

    chain20 = nl.ChainConfig(20, 2)
    jA = nl.current_operator(phi, spec, nl.CurrentGeometry(7, 3, 1), chain20)
    jB = nl.current_operator(phi, spec, nl.CurrentGeometry(9, 4, 1), chain20)
    dev_inv = np.linalg.norm(jA.coeffs - jB.coeffs)
    assert jA.support == jB.support and dev_inv <= 1e-12
    report(2, True, f"closed forms to {max(dev_xx, dev_f):.1e}, "
                    f"(L,M) invariance to {dev_inv:.1e}")


def test_criterion_3_lieb_robinson(xx_model, chain12):
    """Zero bound violations on the full scan grid, within the time budget."""
    phi, _ = xx_model
    sz = nl.LocalOperator((0,), PAULI_Z, hermitian=True)
    t0 = time.monotonic()
    rows = nl.lr_scan(phi, sz, sz, [3, 4, 5],
                      [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], chain12)
    elapsed = time.monotonic() - t0
    live = [r for r in rows if not r.excluded]
    violations = [r for r in live if r.empirical > r.bound]
    ok = not violations and elapsed < 120.0
    report(3, ok, f"{len(live)} pre-wrap points, {len(violations)} violations, "
                  f"{elapsed:.0f} s")
    assert not violations
    assert elapsed < 120.0


def test_criterion_4_telescoping(chain12):
    """Window Hamiltonian reconstruction from the telescoped density, r = 1..3."""
    rng = np.random.default_rng(4)
    worst = 0.0
    M = 4
    for r in (1, 2, 3):
        phi = nl.build_random_interaction(r, 2, rng)
        H_M = nl.models.window_hamiltonian_sparse(phi, (-M, M), chain12).toarray()
        h = nl.energy_density(phi, chain12)
        r_eff = phi.max_diameter()
        S = np.zeros_like(H_M)
        for y in range(-M + r_eff, M - r_eff + 1):
            S += nl.embed(nl.translate(h, y, chain12), chain12)
        cm, cp = nl.boundary_complements(phi, M, chain12)
        S += nl.embed(cm, chain12) + nl.embed(cp, chain12)
        dev = np.linalg.norm(S - H_M)
        worst = max(worst, dev)
        assert dev <= 1e-12, f"r={r}: residual {dev:.3e}"
    report(4, True, f"max reconstruction residual {worst:.2e} for r in (1,2,3)")


def test_criterion_5_ness(xx_model, chain10, xx10_state):
    """Biased XX state: residuals, current size, oracle agreement, oddness."""
    phi, spec = xx_model
    rep = nl.verify_ness(xx10_state)
    assert rep.stationarity_residual <= 1e-10
    assert rep.translation_residual <= 1e-10
    assert abs(rep.current_value) > 1e-3

    H = nl.hamiltonian(phi, chain10)
    J = nl.total_current(phi, spec, chain10)
    rho = sla.expm(-1.0 * (H - 0.5 * J))
    rho /= np.trace(rho).real
    j0 = nl.embed(nl.current_local(phi, spec, chain10), chain10)
    oracle = np.trace(rho @ j0).real
    dev_oracle = abs(rep.current_value - oracle)
    assert dev_oracle <= 1e-8

    minus = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=-0.5), chain10)
    odd_dev = abs(rep.current_value + minus.expect(j0).real)
    assert odd_dev <= 1e-10
    report(5, True, f"current {rep.current_value:.6f}, oracle dev {dev_oracle:.1e}, "
                    f"odd-in-lambda dev {odd_dev:.1e}")


def test_criterion_6_flatness(xx12_state, xx_model, chain12):
    """|C(t) - C(0)| <= Z_{M,L}(t) on t in [0, 1] for the acceptance geometry."""
    phi, spec = xx_model
    geom = nl.CurrentGeometry(L=7, M=3, r=1)
    kernel = nl.correlation_kernel(xx12_state, geom)
    norms = nl.z_norms(phi, spec, geom.M, chain12)
    ts = np.linspace(0.0, 1.0, 11)
    C = kernel.curve(ts)
    worst_margin = math.inf
    for t, c in zip(ts, C):
        z = nl.deviation_bound_Z(phi, geom.M, geom.L, float(t), norms)
        dev = abs(c - C[0])
        assert dev <= z, f"t={t}: |C(t)-C(0)| = {dev:.3e} > Z = {z:.3e}"
        if t > 0:
            worst_margin = min(worst_margin, z / max(dev, 1e-300))
    report(6, True, f"max drift {np.max(np.abs(C - C[0])):.2e}, "
                    f"bound satisfied at all 11 samples")


def test_criterion_7_sum_rule(xx12_state, xx_model, chain12):
    """Windowed sum rule at the acceptance geometry, 5% relative tolerance."""
    phi, spec = xx_model
    t0 = time.monotonic()
    win = WindowFunction("hann", 2.0)
    res = nl.sum_rule_check(xx12_state, phi, spec, nl.CurrentGeometry(7, 3, 1),
                            win, chain12)
    elapsed = time.monotonic() - t0
    ok = res["rel_err"] <= 0.05 and elapsed < 300.0
    report(7, ok, f"rel_err = {res['rel_err']:.4f} at (M,L) = (3,7), T = 2 "
                  f"({elapsed:.0f} s)")
    assert res["rel_err"] <= 0.05
    assert elapsed < 300.0


def test_criterion_7_sum_rule_m_trend(xx12_state, xx_model, chain12):
    """Strict improvement of the sum rule over M in {2, 3, 4} at fixed L - M.

    Implemented as stated.  At L_tot = 12 the criterion is unattainable: the
    stated anchor family (L - M = 4) cannot host M = 4 at all (the arc [-8, 4]
    has 13 sites), and in the only family where all three M values are
    admissible (L - M = 2r) the finite ring makes the error at M = 4 regress,
    because the gap between the right boundary current and the wrapped end of
    the charge window shrinks as fast as M grows.  See the repository notes;
    three strictly improving points need n_sites >= 14.
    """
    phi, spec = xx_model
    win = WindowFunction("hann", 2.0)
    errs = {}
    family_note = "L-M=4"
    try:
        for M in (2, 3, 4):
            geom = nl.CurrentGeometry(L=M + 4, M=M, r=1)
            geom.validate_for_chain(chain12, wrap_clearance=True)
            errs[M] = nl.sum_rule_check(xx12_state, phi, spec, geom, win,
                                        chain12)["rel_err"]
    except GeometryError:
        errs = {}
        family_note = "L-M=2r (only family admitting all three M)"
        for M in (2, 3, 4):
            geom = nl.CurrentGeometry(L=M + 2, M=M, r=1)
            errs[M] = nl.sum_rule_check(xx12_state, phi, spec, geom, win,
                                        chain12)["rel_err"]
    strictly_improving = errs[2] > errs[3] > errs[4]
    report(7, strictly_improving,
           f"M-trend ({family_note}): rel_err = "
           f"{errs[2]:.5f} (M=2), {errs[3]:.5f} (M=3), {errs[4]:.5f} (M=4)")
    assert strictly_improving, (
        "sum-rule error does not strictly improve over M = 2, 3, 4 at fixed "
        f"L - M on a 12-site ring: {errs}; the M = 4 point is limited by the "
        "ring wrap (the gap n - L - M - 1 between the boundary energy current "
        "and the wrapped charge-window edge shrinks by 2 per M step), so three "
        "strictly improving points require n_sites >= 14, beyond the dimension "
        "and runtime budget; see the README notes on this known red test"
    )


def test_criterion_8_momentum_derivative(xx12_state, xx12_spectral, chain12):
    """Integrated derivative identity within 10%, boundary terms decay with M."""
    rep = nl.verify_ness(xx12_state)
    assert rep.symmetry_residual <= 1e-10  # symmetric-branch precondition
    win = WindowFunction("hann", 2.0)
    geom = nl.CurrentGeometry(7, 3, 1)
    res = nl.momentum_derivative_check(xx12_spectral, win, geom.M - geom.r,
                                       current_value=rep.current_value)
    assert res["rel_err"] <= 0.10

    tails, counts = [], []
    for M in (2, 3, 4):
        r = nl.momentum_derivative_check(xx12_spectral, win, M - 1,
                                         current_value=rep.current_value)
        tails.append(abs(r["tail_term"]))
        counts.append(abs(r["count_term"]))
    decaying = all(a > b for a, b in zip(tails, tails[1:])) and \
        all(a > b for a, b in zip(counts, counts[1:]))
    report(8, res["rel_err"] <= 0.10 and decaying,
           f"rel_err = {res['rel_err']:.4f}, boundary terms "
           f"tail_term {tails[0]:.1e}>{tails[1]:.1e}>{tails[2]:.1e}, "
           f"count_term {counts[0]:.1e}>{counts[1]:.1e}>{counts[2]:.1e}")
    assert decaying


def test_criterion_9_singularity_trend(xx_model, xx10_state, xx12_state):
    """Mass concentration at the origin grows with the chain length."""
    phi, spec = xx_model
    eps0 = 0.2
    fractions = []
    for n in (8, 10, 12):
        chain = nl.ChainConfig(n, 2)
        if n == 10:
            state = xx10_state
        elif n == 12:
            state = xx12_state
        else:
            state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5),
                                          chain)
        sf = nl.spectral_function_rho(state)
        # largest M with wrap clearance on this ring: L = M + 2r and
        # L + M + r < n, i.e. M = floor((n - 3r - 1) / 2)
        M_max = (n - 3 * phi.r - 1) // 2
        diag = nl.singularity_diagnostic(sf, [eps0], z_halfwidth=M_max - phi.r)
        fractions.append(diag["fractions"][eps0])
    ok = fractions[0] <= fractions[1] <= fractions[2]
    report(9, ok, "fraction(|de| < 0.2) = "
           + ", ".join(f"{f:.4f}" for f in fractions) + " over n = 8, 10, 12")
    assert ok, fractions


def test_criterion_10_determinism(tmp_path):
    """Two consecutive `all` runs on the acceptance config are byte-identical."""
    cfg_text = """\
[run]
schema_version = 1
label = acceptance

[model]
kind = xx

[chain]
n_sites = 12

[bias]
beta = 1.0
lambda = 0.5

[geometry]
M = 3
L = 7

[window]
kind = hann
T = 2.0

[scan]
x_values = 3, 4, 5
t_values = 0.0, 0.1, 0.2, 0.3, 0.4, 0.5
"""
    cfg_path = tmp_path / "acceptance.ini"
    cfg_path.write_text(cfg_text)
    out1, out2 = str(tmp_path / "run1"), str(tmp_path / "run2")
    assert cli.main(["all", "--config", str(cfg_path), "--out", out1]) == 0
    assert cli.main(["all", "--config", str(cfg_path), "--out", out2]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    diffs = []
    for name in names:
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        if a != b:
            diffs.append(name)
    report(10, not diffs, f"{len(names)} artifacts byte-identical" if not diffs
           else f"differing artifacts: {diffs}")
    assert not diffs
