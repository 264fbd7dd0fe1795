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

    One entry per neighbour j of i, so :func:`_reflect_rows` reads the Cartan
    data once per (datum, node) instead of once per call.
    """
    dii = 2 * datum.di(i)
    return datum.di(i), tuple(
        (j, tuple(datum.b(i, j) + t * dii for t in range(1, -datum.c(i, j) + 1)))
        for j in datum.neighbors(i)
    )


def _reflect_rows(table, rows, i, constants):
    """The node-i entries of S_i, by the closed form on dimension vectors:

        vbar_i^a = w_i^{a+d_i} - v_i^{a+d_ii}
                   + sum_{j ~ i} sum_{t=1}^{-c_ij} v_j^{a + d_ij + t*d_ii}

    ``table`` is :func:`_reflection_table` of node i, ``rows[j-1]`` maps a
    parameter a to the entry v_j^a, and ``constants`` maps a to the framing
    term w_i^{a+d_i}.  An entry may be one int or, in the cone verifier, a
    packed row of ints, one column per vector; the sums are the same.
    Returns {a: vbar_i^a} for every grade a that the sums reach, zeros
    included.
    """
    di, neighbours = table
    dii = 2 * di
    acc = dict(constants)
    get = acc.get
    for j, offsets in neighbours:
        for b, x in rows[j - 1].items():
            for offset in offsets:
                acc[b - offset] = get(b - offset, 0) + x
    for b, x in rows[i - 1].items():
        acc[b - dii] = get(b - dii, 0) - x
    return acc


def reflect_dimensions(datum, i, v, w):
    """S_i on a dimension vector: :func:`_reflect_rows` on plain dicts.

    ``v`` and ``w`` map (node, param) to an int, and the framing ``w`` stays
    fixed.  Entries away from node i are untouched; at node i every grade
    the closed form reaches is kept, zeros included.
    """
    rows = [{} for _ in datum.nodes]
    for (node, param), mult in v.items():
        rows[node - 1][param] = mult
    constants = {param - datum.di(i): mult for (node, param), mult in w.items()
                 if node == i}
    out = {key: mult for key, mult in v.items() if key[0] != i}
    table = _reflection_table(datum, i)
    for a, value in _reflect_rows(table, rows, i, constants).items():
        out[(i, a)] = value
    return out


def unit_framing(k):
    """The framing of the fundamental anchor Y_{k,0}."""
    return {(k, 0): 1}
