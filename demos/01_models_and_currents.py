"""Build the three lattice models and inspect their derived operators.

For each model we print the canonical interaction term, the conserved-charge
residual max ||[N_window, H_window]||, the charge current at the origin
j_0 = i [N_[-L,0], H_[-M,M]], the telescoped energy density h, and the
group-velocity constant V(Phi) entering every locality bound.
"""

import numpy as np

import nesslab as nl

CHAIN = nl.ChainConfig(n_sites=8, site_dim=2)
GEOM = nl.CurrentGeometry(L=5, M=2, r=1)

MODELS = {
    "XX chain": nl.build_xx_model(),
    "XXZ chain (lambda = 0.5)": nl.build_xxz_model(0.5),
    "free fermions + nn repulsion (t = 1, v = 0.5)": nl.build_fermion_model(1.0, [0.5]),
}

for name, (phi, spec) in MODELS.items():
    print(f"\n=== {name} ===")
    print(f"range r = {phi.r}, site dimension = {phi.site_dim}")
    residual = nl.check_conservation(phi, spec, CHAIN)
    print(f"conservation residual max ||[N, H]||  = {residual:.2e}")
    j0 = nl.current_operator(phi, spec, GEOM, CHAIN)
    print(f"current j_0 supported on sites {j0.support}, ||j_0|| = {j0.norm():.4f}")
    with np.printoptions(precision=3, suppress=True):
        print("j_0 =\n", j0.coeffs)
    h = nl.energy_density(phi, CHAIN)
    print(f"energy density h supported on {h.support}, ||h|| = {h.norm():.4f}")
    print(f"group-velocity constant V(Phi) = {nl.lr_velocity(phi):.3f}")

print("\nThe current does not depend on the admissible window choice:")
phi, spec = nl.build_xx_model()
big = nl.ChainConfig(20, 2)  # windows never materialize globally
jA = nl.current_operator(phi, spec, nl.CurrentGeometry(7, 3, 1), big)
jB = nl.current_operator(phi, spec, nl.CurrentGeometry(9, 4, 1), big)
print(f"  |j(L=7,M=3) - j(L=9,M=4)| = {np.linalg.norm(jA.coeffs - jB.coeffs):.2e}")
