"""Traced numpy peaks of the analyses that stream sector-pair blocks.

Each analysis holds only the blocks of one pair of sectors (or of one cluster
of sectors, for the Lieb-Robinson scan, or one row slab of a pair, for the
state's table pass) next to what it keeps.  The bounds are in units of whole
sector blocks, 16 sum_q C(n, q)^2 bytes, the size of one full set of sector
blocks (the state itself keeps about 1/n of that in its orbit-momentum
frames); building every block of an operator at once, next to its
temporaries, reads 5 to 9 units here.
"""

import math
import tracemalloc

import numpy as np
import pytest

import nesslab as nl


@pytest.fixture(scope="module")
def xx8():
    phi, spec = nl.build_xx_model()
    chain = nl.ChainConfig(8, 2)
    state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5), chain)
    unit = 16 * sum(math.comb(8, q) ** 2 for q in range(9))
    return phi, spec, chain, state, unit


def _traced_peak(run) -> int:
    """Peak traced bytes above what was allocated when ``run`` started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_lr_scan_holds_one_cluster(xx8):
    phi, _, chain, _, unit = xx8
    sz = nl.LocalOperator((0,), nl.models.PAULI_Z, hermitian=True)
    peak = _traced_peak(lambda: nl.lr_scan(phi, sz, sz, [3, 4],
                                           [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], chain))
    # the peak reads 2.5 units, 3.1 with complex sector vectors and whole propagators;
    # the scan's own eigenbasis, one real sector per F pair, is 0.35 units of it
    assert peak < 3.0 * unit


def test_lr_scan_streams_one_cluster_pair_by_pair(xx8):
    # sigma_x on XXZ joins every charge sector into one cluster with one group per x:
    # the eigenbasis, A's blocks and one half block per x stay, and each time's
    # products live one pair of sectors at a time; the peak reads 5.4 units (5.7
    # with complex sector vectors and whole propagators, 9.4 when every sector's
    # propagators and products were held at once)
    _, _, chain, _, unit = xx8
    phi, _ = nl.build_xxz_model(0.5)
    sx = nl.LocalOperator((0,), nl.models.PAULI_X, hermitian=True)
    peak = _traced_peak(lambda: nl.lr_scan(phi, sx, sx, [3, 4],
                                           [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], chain))
    assert peak < 6.0 * unit


def test_scan_basis_holds_one_sector_per_f_pair(xx8):
    # F maps the charge sector q onto 8 - q; the sectors q > 4 share their
    # partner's vectors, so sum_{q<=4} C(8, q)^2 = 8885 of the 12870 entries are
    # held, and the real H of XX leaves them in real storage, 8 bytes each
    phi, _, chain, _, _ = xx8
    ctx = nl.JointBasis.for_interaction(phi, chain)
    distinct = {id(s.vectors): s.vectors for s in ctx.sectors}.values()
    assert sum(W.size for W in distinct) == 8885
    assert all(W.dtype == np.float64 for W in distinct)


def test_sum_rule_holds_one_pair(xx8):
    phi, spec, chain, state, unit = xx8
    geom = nl.CurrentGeometry(L=4, M=2, r=1)

    def run():
        kernel = nl.correlation_kernel(state, phi, spec, geom, chain)
        nl.sum_rule_check(state, phi, spec, geom, nl.WindowFunction("hann", 1.5), chain,
                          kernel=kernel)

    assert _traced_peak(run) < 3.0 * unit


def test_kernel_keeps_no_blocks(xx8):
    # the kernel keeps its sums per energy transfer, not one weight per pair of eigenvectors
    phi, spec, chain, state, unit = xx8
    geom = nl.CurrentGeometry(L=4, M=2, r=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kernel = nl.correlation_kernel(state, phi, spec, geom, chain)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 0.25 * unit
    assert np.isfinite(kernel.curve([0.0, 1.0])).all()


def test_spectral_function_holds_one_pair(xx8):
    phi, spec, chain, state, unit = xx8
    sf = []
    peak = _traced_peak(lambda: sf.append(nl.spectral_function_rho(state, phi, spec)))
    assert peak < 4.0 * unit
    assert np.isfinite(sf[0].weights).all()


def test_table_pass_holds_momentum_slabs():
    # the state keeps each charge sector in its orbit-momentum frame, and the
    # table pass forms one row slab (one momentum block of rows) of A and of B^H
    # at a time: at n = 10 it peaks at 0.35 units above the state, where forming
    # whole sector-pair blocks read 1.69 (the largest block alone is 0.34)
    phi, spec = nl.build_xx_model()
    chain = nl.ChainConfig(10, 2)
    state = nl.build_biased_gibbs(phi, spec, nl.BiasSpec(beta=1.0, lam=0.5), chain)
    unit = 16 * sum(math.comb(10, q) ** 2 for q in range(11))
    tables = []
    peak = _traced_peak(lambda: tables.append(nl.spectral.term_tables(state, phi, spec)))
    assert peak < 0.5 * unit
    assert all(np.isfinite(s).all() for _, _, _, s in tables[0])
