"""Property tests of the operator algebra on small chains (n <= 6, d in {2, 3})."""

import numpy as np
from hypothesis import given, settings, strategies as st

import nesslab as nl
from nesslab.operators import apply_local, commutator_with_local

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def chains(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 6))
    return nl.ChainConfig(n, d, draw(st.sampled_from(["periodic", "open"])))


@st.composite
def local_ops(draw, chain, diagonal=None):
    """A random complex LocalOperator on 1-3 sites of ``chain``."""
    m = draw(st.integers(1, min(3, chain.n_sites)))
    support = draw(st.lists(st.integers(0, chain.n_sites - 1), min_size=m, max_size=m,
                            unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = chain.site_dim ** m
    if diagonal is None:
        diagonal = draw(st.booleans())
    if diagonal:
        coeffs = np.diag(rng.standard_normal(k) + 1j * rng.standard_normal(k))
    else:
        coeffs = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return nl.LocalOperator(tuple(sorted(support)), coeffs)


@st.composite
def chain_op_matrix(draw):
    chain = draw(chains())
    op = draw(local_ops(chain))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.standard_normal((chain.dim, chain.dim)) + 1j * rng.standard_normal((chain.dim, chain.dim))
    return chain, op, G


@PROPERTY
@given(chain_op_matrix())
def test_apply_local_matches_dense_products(case):
    chain, op, G = case
    E = nl.embed(op, chain)
    scale = np.linalg.norm(E) * np.linalg.norm(G)
    assert np.linalg.norm(apply_local(G, op, chain, side="left") - E @ G) <= 1e-13 * scale
    assert np.linalg.norm(apply_local(G, op, chain, side="right") - G @ E) <= 1e-13 * scale


@PROPERTY
@given(chain_op_matrix())
def test_commutator_with_local_matches_dense(case):
    chain, op, G = case
    E = nl.embed(op, chain)
    scale = np.linalg.norm(E) * np.linalg.norm(G)
    assert np.linalg.norm(commutator_with_local(G, op, chain) - (G @ E - E @ G)) <= 1e-13 * scale


@st.composite
def translation_case(draw):
    chain = draw(chains())
    op = draw(local_ops(chain))
    n = chain.n_sites
    if chain.periodic:
        return chain, op, draw(st.integers(-2 * n, 2 * n)), draw(st.integers(-2 * n, 2 * n))
    # open chain: both shifts keep the support on the chain
    lo, hi = op.support[0], op.support[-1]
    a = draw(st.integers(-lo, n - 1 - hi))
    b = draw(st.integers(-(lo + a), n - 1 - (hi + a)))
    return chain, op, a, b


@PROPERTY
@given(translation_case())
def test_translate_composes(case):
    chain, op, a, b = case
    twice = nl.translate(nl.translate(op, a, chain), b, chain)
    once = nl.translate(op, a + b, chain)
    assert twice.support == once.support
    np.testing.assert_array_equal(nl.embed(twice, chain), nl.embed(once, chain))
    if chain.periodic:
        back = nl.translate(once, -(a + b) + 3 * chain.n_sites, chain)
        np.testing.assert_array_equal(nl.embed(back, chain), nl.embed(op, chain))
