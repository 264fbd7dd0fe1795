"""Sparse Laurent calculus for l-weights in the Y variables.

A monomial is a finitely supported exponent map (node, integer spectral
parameter) -> nonzero integer.  The A-monomial dictionary, the expansion of
an A-monomial vector into Y variables, and the classical-weight shadow live
here.  The index conventions are spelled out in :mod:`qcharlab.conventions`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter


def _accumulate(data, items, scale=1):
    """Add ``scale`` times each (key, exp) of ``items`` into ``data``, dropping zeros."""
    for key, exp in items:
        total = data.get(key, 0) + scale * exp
        if total:
            data[key] = total
        else:
            data.pop(key, None)
    return data


class LaurentMonomial(tuple):
    """Immutable product of Y_{i,a}^{e} factors: the tuple of its sorted
    ((node, param), exp) entries, none with exp 0.

    The constructor accumulates: a key given twice gets the sum of its
    exponents, so a product is the monomial of both factors' entries.
    """

    __slots__ = ()

    def __new__(cls, exps=()):
        items = exps.items() if hasattr(exps, "items") else exps
        return super().__new__(cls, sorted(_accumulate({}, items).items()))

    @classmethod
    def y(cls, node, param, exp=1):
        return cls({(node, param): exp})

    def items(self):
        """Entries ((node, param), exp) in canonical (node, param) order."""
        return tuple(self)

    def __repr__(self):
        if not self:
            return "1"
        parts = []
        for (node, param), exp in self:
            text = f"Y[{node},{param}]"
            if exp != 1:
                text += f"^{exp}"
            parts.append(text)
        return "*".join(parts)

    def to_pairs(self):
        return [[node, param, exp] for (node, param), exp in self]


class AMonomialVector(namedtuple("AMonomialVector", "anchor v")):
    """Anchor node k plus a sparse integer vector v over (node, parameter).

    Represents Y_{k,0} * prod A_{i,a}^{-v_i^a}; negative entries are allowed
    (cone membership is exactly "all entries >= 0").  The one stored form of
    v is its sorted items tuple, ((node, param), mult) with no mult 0.  The
    constructor accumulates and sorts; ``_make((anchor, items))`` takes items
    already in that form as they are.
    """

    __slots__ = ()

    def __new__(cls, anchor, v=None):
        items = () if v is None else v.items() if hasattr(v, "items") else v
        data = _accumulate({}, (((node, param), mult) for (node, param), mult in items))
        return super().__new__(cls, anchor, tuple(sorted(data.items())))

    def items(self):
        return self.v

    def entry(self, node, param):
        items = self.v
        k = bisect_left(items, ((node, param),))
        if k < len(items) and items[k][0] == (node, param):
            return items[k][1]
        return 0

    def support(self):
        """The (node, param) keys with a nonzero entry, in sorted order."""
        return tuple(map(itemgetter(0), self.v))

    def as_dict(self):
        return dict(self.v)

    def height(self):
        return sum(map(itemgetter(1), self.v))

    def add_entries(self, entries):
        """New vector with (node, param) -> mult increments applied."""
        items = entries.items() if hasattr(entries, "items") else entries
        data = _accumulate(dict(self.v), items)
        return self._make((self.anchor, tuple(sorted(data.items()))))

    def __add__(self, other):
        if not isinstance(other, AMonomialVector):
            return NotImplemented
        if other.anchor != self.anchor:
            raise ValueError("cannot add vectors with different anchors")
        return self.add_entries(other.v)

    def __repr__(self):
        body = ",".join(f"({i},{a}):{m}" for (i, a), m in self.v) or "0"
        return f"AVec[{self.anchor}|{body}]"

    def to_json_obj(self):
        return {
            "anchor": self.anchor,
            "v": [[i, a, m] for (i, a), m in self.v],
        }

    @classmethod
    def from_json_obj(cls, obj):
        return cls(
            int(obj["anchor"]),
            {(int(i), int(a)): int(m) for i, a, m in obj["v"]},
        )


class _AInverseTable(dict):
    """(i, a) -> the entries ((node, param), exp) of A_{i,a}^{-1}, filled on first use.

    Exponent -1 at (i, a +- d_i), and for each neighbor j exponent +1 at
    (j, a+s) with s running over the -c_ji values c_ji+1, c_ji+3, ...,
    -c_ji-1.  The classical weight of the result is -alpha_i.
    """

    def __init__(self, datum):
        super().__init__()
        self.datum = datum

    def __missing__(self, key):
        datum = self.datum
        i, a = key
        exps = {(i, a + datum.di(i)): -1, (i, a - datum.di(i)): -1}
        for j in datum.neighbors(i):
            cji = datum.c(j, i)
            for s in range(cji + 1, -cji, 2):
                exps[(j, a + s)] = exps.get((j, a + s), 0) + 1
        entries = self[key] = tuple(sorted(exps.items()))
        return entries


@lru_cache(maxsize=None)
def _a_inverse_table(datum):
    """The one table of A^{-1} expansions for ``datum``, shared by every caller."""
    return _AInverseTable(datum)


def expand_to_y(datum, vec):
    """Y_{anchor,0} times the product of A_{i,a}^{-v_i^a} over the support."""
    table = _a_inverse_table(datum)
    exps = {(vec.anchor, 0): 1}
    for key, mult in vec.items():
        _accumulate(exps, table[key], mult)
    return LaurentMonomial(exps)


def classical_weight(datum, monomial):
    """The shadow under Y_{i,a} -> omega_i, as fundamental-weight coordinates."""
    coords = [0] * datum.rank
    for (i, _), exp in monomial.items():
        coords[i - 1] += exp
    return tuple(coords)
