"""The windowed current correlator and its sum rule.

C(t) = <i [N_[-L,0], H_[-M,M](t)]> equals the current expectation at t = 0 and
stays nearly flat inside the wrap horizon; integrating it against a test
function therefore recovers sqrt(2 pi) omega(j_0) f~(0).  The deviation bound
Z_{M,L}(t) certifies the flatness with room to spare.
"""

import numpy as np

import nesslab as nl

N_SITES = 10
GEOM = nl.CurrentGeometry(L=4, M=2, r=1)
WINDOW = nl.WindowFunction("hann", 1.5)

phi, spec = nl.build_xx_model()
chain = nl.ChainConfig(N_SITES, 2)
state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5), chain)

kernel = nl.correlation_kernel(state, phi, spec, GEOM)
ts = np.linspace(0.0, 1.5, 7)
C = kernel.curve(ts)
norms = nl.z_norms(phi, spec, GEOM.M, chain)

print(f"{'t':>5} {'C(t)':>12} {'|C(t)-C(0)|':>12} {'Z bound':>12}")
for t, c in zip(ts, C):
    z = nl.deviation_bound_Z(phi, GEOM.M, GEOM.L, float(t), norms)
    print(f"{t:>5.2f} {c:>12.8f} {abs(c - C[0]):>12.2e} {z:>12.3e}")

res = nl.sum_rule_check(state, phi, spec, GEOM, WINDOW, chain)
print(f"\nsum rule with a Hann window, T = {WINDOW.T}:")
print(f"  lhs  = int C(t) f_T(t) dt          = {res['lhs']:.8f}")
print(f"  rhs  = sqrt(2 pi) omega(j_0) f~(0) = {res['rhs']:.8f}")
print(f"  rel_err = {res['rel_err']:.5f}")
