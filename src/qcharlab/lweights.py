"""Sparse Laurent calculus for l-weights in the Y variables.

A monomial is a finitely supported exponent map (node, integer spectral
parameter) -> nonzero integer.  The A-monomial dictionary, the expansion of
an A-monomial vector into Y variables, and the classical-weight shadow live
here.  The index conventions are spelled out in :mod:`qcharlab.conventions`.
"""

from __future__ import annotations

from functools import lru_cache


def _accumulate(data, items, scale=1):
    """Add ``scale`` times each (key, exp) of ``items`` into ``data``, dropping zeros."""
    for key, exp in items:
        total = data.get(key, 0) + scale * exp
        if total:
            data[key] = total
        else:
            data.pop(key, None)
    return data


class LaurentMonomial:
    """Immutable product of Y_{i,a}^{e} factors, stored as its sorted entries.

    The constructor accumulates: a key given twice gets the sum of its
    exponents, so a product is the monomial of both factors' entries.
    """

    __slots__ = ("_key",)

    def __init__(self, exps=()):
        items = exps.items() if hasattr(exps, "items") else exps
        object.__setattr__(self, "_key", tuple(sorted(_accumulate({}, items).items())))

    @classmethod
    def y(cls, node, param, exp=1):
        return cls({(node, param): exp})

    def items(self):
        """Entries ((node, param), exp) in canonical (node, param) order."""
        return self._key

    def __eq__(self, other):
        return isinstance(other, LaurentMonomial) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if not self._key:
            return "1"
        parts = []
        for (node, param), exp in self._key:
            text = f"Y[{node},{param}]"
            if exp != 1:
                text += f"^{exp}"
            parts.append(text)
        return "*".join(parts)

    def to_pairs(self):
        return [[node, param, exp] for (node, param), exp in self._key]


class AMonomialVector:
    """Anchor node k plus a sparse integer vector v over (node, parameter).

    Represents Y_{k,0} * prod A_{i,a}^{-v_i^a}; negative entries are allowed
    (cone membership is exactly "all entries >= 0").
    """

    __slots__ = ("anchor", "_v", "_key")

    def __init__(self, anchor, v=None):
        data = {}
        if v is not None:
            items = v.items() if hasattr(v, "items") else v
            for key, mult in items:
                if not mult:
                    continue
                node, param = key
                total = data.get((node, param), 0) + mult
                if total:
                    data[(node, param)] = total
                elif (node, param) in data:
                    del data[(node, param)]
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "_v", data)
        object.__setattr__(self, "_key", (anchor, tuple(sorted(data.items()))))

    def items(self):
        return self._key[1]

    def entry(self, node, param):
        return self._v.get((node, param), 0)

    def support(self):
        return self._v.keys()

    def as_dict(self):
        return dict(self._v)

    def height(self):
        return sum(self._v.values())

    @classmethod
    def _trusted(cls, anchor, items):
        """The vector of ``items``: ((node, param), mult) pairs already sorted
        by (node, param), none with mult 0, as :meth:`items` returns them."""
        result = cls.__new__(cls)
        object.__setattr__(result, "anchor", anchor)
        object.__setattr__(result, "_v", dict(items))
        object.__setattr__(result, "_key", (anchor, items))
        return result

    def add_entries(self, entries):
        """New vector with (node, param) -> mult increments applied."""
        items = entries.items() if hasattr(entries, "items") else entries
        data = _accumulate(dict(self._v), items)
        return self._trusted(self.anchor, tuple(sorted(data.items())))

    def __add__(self, other):
        if not isinstance(other, AMonomialVector):
            return NotImplemented
        if other.anchor != self.anchor:
            raise ValueError("cannot add vectors with different anchors")
        return self.add_entries(other._v)

    def __eq__(self, other):
        return isinstance(other, AMonomialVector) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        body = ",".join(f"({i},{a}):{m}" for (i, a), m in self._key[1]) or "0"
        return f"AVec[{self.anchor}|{body}]"

    def to_json_obj(self):
        return {
            "anchor": self.anchor,
            "v": [[i, a, m] for (i, a), m in self._key[1]],
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
