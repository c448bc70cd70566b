"""The energy-momentum spectral function and its singularity at the origin.

The charge / energy-density spectral weights w(dk, de) encode the joint
spectral measure seen from the steady state.  In a current-carrying state the
momentum derivative at k = 0 concentrates a delta-like mass at zero energy
transfer: the integrated identity reproduces omega(j_0) f~(0), and the mass
fraction inside a fixed energy window grows with the chain length.
"""

import numpy as np

import nesslab as nl

BETA, LAM = 1.0, 0.5
EPS0 = 0.2
WINDOW = nl.WindowFunction("hann", 1.5)

phi, spec = nl.build_xx_model()

print("integrated momentum-derivative identity on 10 sites:")
chain = nl.ChainConfig(10, 2)
state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=BETA, lam=LAM), chain)
sf = nl.spectral_function_rho(state)
cur = state.current  # <j_0>, measured once and kept by the state
res = nl.momentum_derivative_check(sf, WINDOW, 1, current_value=cur)  # Y = M - r, M = 2
print(f"  spectral entries: {len(sf.weights)}")
print(f"  lhs = {res['lhs']:.6f}  vs  omega(j_0) f~(0) = {res['rhs']:.6f} "
      f"(rel_err {res['rel_err']:.4f})")
print(f"  boundary terms: tail = {res['tail_term']:.2e}, count = {res['count_term']:.2e}")

print(f"\nconcentration of the derivative mass in |de| < {EPS0}:")
for n in (8, 10):
    chain = nl.ChainConfig(n, 2)
    state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=BETA, lam=LAM), chain)
    sf = nl.spectral_function_rho(state)
    M_max = (n - 3 * phi.r - 1) // 2
    diag = nl.singularity_diagnostic(sf, [EPS0, 0.5, np.inf],
                                     z_halfwidth=M_max - phi.r)
    fr = diag["fractions"]
    print(f"  n = {n:2d}: fraction = {fr[EPS0]:.4f}  "
          f"(|de| < 0.5: {fr[0.5]:.4f}, total mass = {diag['total_mass']:.5f})")

print("\nthe fraction grows with n: the delta mass at (k, eps) = (0, 0) emerges")
print("in the large-chain limit (run the acceptance suite for the 12-site point)")
