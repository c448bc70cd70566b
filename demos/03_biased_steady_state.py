"""Current-carrying steady states from a conserved-current bias.

On the XX ring the total current commutes with H, so exp(-beta (H - lambda J))
is exactly stationary and translation invariant, and lambda tilts it into a
nonequilibrium steady state.  We sweep lambda, verify the three defining
conditions at each point, and show the current is odd in the bias.  The two
residual columns are certified upper bounds on ||[rho, H]||_F and
||[rho, T]||_F: the norm of V^H A V off its diagonal, in the state's basis V.
"""


import nesslab as nl

N_SITES = 10
BETA = 1.0
LAMBDAS = [0.0, 0.1, 0.25, 0.5, 0.75, -0.5]

phi, spec = nl.build_xx_model()
chain = nl.ChainConfig(N_SITES, 2)

print(f"XX ring of {N_SITES} sites, beta = {BETA}")
print(f"\n{'lambda':>7} {'omega(j_0)':>12} {'stationary':>11} {'transl.':>9} {'NESS?':>6}")
for lam in LAMBDAS:
    state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=BETA, lam=lam), chain)
    rep = nl.verify_ness(state, phi, spec, chain)
    print(f"{lam:>7.2f} {rep.current_value:>12.6f} "
          f"{rep.stationarity_residual:>11.1e} {rep.translation_residual:>9.1e} "
          f"{str(rep.is_ness):>6}")

print("\nA model whose total current is not conserved takes no bias:")
phi_xxz, spec_xxz = nl.build_xxz_model(0.5)
try:
    nl.build_biased_gibbs(phi_xxz, spec_xxz, nl.BiasSpec(beta=1.0, lam=0.3), chain)
except nl.PreconditionError as exc:
    print(f"  XXZ(0.5): {exc}")
thermal = nl.build_biased_gibbs(phi_xxz, spec_xxz, nl.BiasSpec(beta=1.0, lam=0.0), chain)
rep = nl.verify_ness(thermal, phi_xxz, spec_xxz, chain)
print(f"  at lambda = 0 its Gibbs state is stationary ({rep.stationarity_residual:.1e}) "
      f"and carries no current ({rep.current_value:.1e})")
