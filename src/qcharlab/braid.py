"""Braid-group operators on l-weight monomials and on dimension vectors.

The single source of truth is the generator rule

    S_i(Y_{j,x}) = Y_{j,x} * A_{i, x - d_i}^{-delta_ij}

extended multiplicatively; see :mod:`qcharlab.conventions` for why the shift
is downward.  Everything else (the closed form on dimension vectors, and the
A-level action the tests build from it) is a derived consequence, asserted
by tests.
"""

from __future__ import annotations

from functools import lru_cache

from .lweights import a_monomial_inverse


def apply_s(datum, i, monomial):
    """S_i: multiply by A_{i, b - d_i}^{-u} for each Y_{i,b}^{u} factor."""
    di = datum.di(i)
    out = monomial
    for b, u in monomial.node_exponents(i).items():
        out = out * a_monomial_inverse(datum, i, b - di) ** u
    return out


def apply_s_inverse(datum, i, monomial):
    """Two-sided inverse of S_i: the shift goes up instead of down."""
    di = datum.di(i)
    out = monomial
    for b, u in monomial.node_exponents(i).items():
        out = out * a_monomial_inverse(datum, i, b + di) ** u
    return out


def apply_s_word_inverse(datum, word, monomial):
    """S_w^{-1} for w = s_{i_t} ... s_{i_1} and word (i_1, ..., i_t): S_{i_t}^{-1}
    acts first."""
    for i in reversed(word):
        monomial = apply_s_inverse(datum, i, monomial)
    return monomial


@lru_cache(maxsize=None)
def _reflection_table(datum, i):
    """(d_i, ((j, offsets), ...)) for node i: offsets d_ij + t*d_ii, t = 1..-c_ij.

    One entry per neighbour j of i, so the closed form below reads the Cartan
    data once per (datum, node) instead of once per call.
    """
    dii = 2 * datum.di(i)
    return datum.di(i), tuple(
        (j, tuple(datum.b(i, j) + t * dii for t in range(1, -datum.c(i, j) + 1)))
        for j in datum.neighbors(i)
    )


def reflect_dimensions(datum, i, v, w):
    """Closed form of the induced action on dimension vectors.

    Entries away from node i are untouched;

        vbar_i^a = w_i^{a+d_i} - v_i^{a+d_ii}
                   + sum_{j ~ i} sum_{t=1}^{-c_ij} v_j^{a + d_ij + t*d_ii}

    ``v`` and ``w`` are plain dicts (node, param) -> int; the framing ``w``
    stays fixed (for an anchor Y_{k,0} it is the unit at (k, 0)).
    """
    di, neighbours = _reflection_table(datum, i)
    dii = 2 * di
    offsets_of = dict(neighbours)
    out = {key: mult for key, mult in v.items() if key[0] != i}

    positions = set()
    for (node, param), mult in w.items():
        if node == i and mult:
            positions.add(param - di)
    for (node, param), mult in v.items():
        if not mult:
            continue
        if node == i:
            positions.add(param - dii)
        else:
            for offset in offsets_of.get(node, ()):
                positions.add(param - offset)

    for a in positions:
        value = w.get((i, a + di), 0) - v.get((i, a + dii), 0)
        for j, offsets in neighbours:
            for offset in offsets:
                value += v.get((j, a + offset), 0)
        if value:
            out[(i, a)] = value
    return out


def unit_framing(k):
    """The framing of the fundamental anchor Y_{k,0}."""
    return {(k, 0): 1}
