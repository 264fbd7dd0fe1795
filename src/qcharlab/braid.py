"""Chari's braid-group operators, computed on dimension vectors.

The convention is the generator rule on l-weight monomials

    S_i(Y_{j,x}) = Y_{j,x} * A_{i, x - d_i}^{-delta_ij}

extended multiplicatively; see :mod:`qcharlab.conventions` for why the shift
is downward.  The program computes with its closed form on A-monomial
vectors, :func:`_reflect_rows`; the tests hold the rule itself on Laurent
monomials as the oracle of that closed form.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def _reflection_table(datum, i):
    """(d_i, ((j, offset), ...)) for node i: one pair per neighbour j of i and
    t = 1..-c_ij, offset = d_ij + t*d_ii, in that order.

    So :func:`_reflect_rows` reads the Cartan data once per (datum, node)
    instead of once per call, and runs one loop per term.
    """
    dii = 2 * datum.di(i)
    return datum.di(i), tuple(
        (j, datum.b(i, j) + t * dii)
        for j in datum.neighbors(i) for t in range(1, -datum.c(i, j) + 1)
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
    di, terms = table
    dii = 2 * di
    acc = dict(constants)
    get = acc.get
    for j, offset in terms:
        for b, x in rows[j - 1].items():
            a = b - offset
            acc[a] = get(a, 0) + x
    for b, x in rows[i - 1].items():
        a = b - dii
        acc[a] = get(a, 0) - x
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


def _push_dims(datum, word, dims, framing):
    """S_w on one dimension vector by replaying the whole word; zeros dropped."""
    for i in word:
        dims = reflect_dimensions(datum, i, dims, framing)
    return {key: mult for key, mult in dims.items() if mult}


def unit_framing(k):
    """The framing of the fundamental anchor Y_{k,0}."""
    return {(k, 0): 1}
