"""Sparse Laurent calculus for l-weights in the Y variables.

A monomial is a finitely supported exponent map (node, integer spectral
parameter) -> nonzero integer.  The A-monomial dictionary, its inverse
factorization, and the classical-weight shadow live here.  The index
conventions are spelled out in :mod:`qcharlab.conventions`.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotFactorable


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
    """Immutable product of Y_{i,a}^{e} factors, stored as a sparse map."""

    __slots__ = ("_exps", "_key")

    def __init__(self, exps=None):
        data = {}
        if exps is not None:
            items = exps.items() if hasattr(exps, "items") else exps
            for key, exp in items:
                if not exp:
                    continue
                node, param = key
                total = data.get((node, param), 0) + exp
                if total:
                    data[(node, param)] = total
                elif (node, param) in data:
                    del data[(node, param)]
        object.__setattr__(self, "_exps", data)
        object.__setattr__(self, "_key", tuple(sorted(data.items())))

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def y(cls, node, param, exp=1):
        return cls({(node, param): exp})

    def items(self):
        """Entries ((node, param), exp) in canonical (node, param) order."""
        return self._key

    def exponent(self, node, param):
        return self._exps.get((node, param), 0)

    def node_exponents(self, node):
        return {param: e for (n, param), e in self._exps.items() if n == node}

    def support(self):
        return self._exps.keys()

    def is_one(self):
        return not self._exps

    def __mul__(self, other):
        if not isinstance(other, LaurentMonomial):
            return NotImplemented
        small, large = self._exps, other._exps
        if len(small) > len(large):
            small, large = large, small
        data = _accumulate(dict(large), small.items())
        result = LaurentMonomial.__new__(LaurentMonomial)
        object.__setattr__(result, "_exps", data)
        object.__setattr__(result, "_key", tuple(sorted(data.items())))
        return result

    def __pow__(self, power):
        if power == 1:
            return self
        return LaurentMonomial({key: e * power for key, e in self._exps.items()})

    def inverse(self):
        return self ** -1

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


_ONE = LaurentMonomial()


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


def a_monomial_inverse(datum, i, a):
    """The Y-expansion of A_{i,a}^{-1}, read from :func:`_a_inverse_table`."""
    return LaurentMonomial(_a_inverse_table(datum)[i, a])


def expand_to_y(datum, vec):
    """Y_{anchor,0} times the product of A_{i,a}^{-v_i^a} over the support."""
    table = _a_inverse_table(datum)
    exps = {(vec.anchor, 0): 1}
    for key, mult in vec.items():
        _accumulate(exps, table[key], mult)
    return LaurentMonomial(exps)


def factor_to_a(datum, anchor, monomial):
    """Invert :func:`expand_to_y`: the unique v with expansion equal to the input.

    Works top-down: the highest surviving parameter b of the residual can only
    be produced by the leading Y_{i, a+d_i}^{-1} factor of A_{i, b-d_i}, so
    each step is forced.  The search window extends the input's parameter
    range downward by twice the pad R = (1 + max |c_ij|) * max d_i; if the
    residual is still nonempty there, no integer solution exists and
    NotFactorable is raised.
    """
    residual = monomial * LaurentMonomial.y(anchor, 0, -1)
    if residual.is_one():
        return AMonomialVector(anchor)
    params = [a for (_, a) in monomial.support()]
    params.append(0)
    pad = (1 + max(abs(c) for row in datum.cartan for c in row)) * max(datum.d)
    cutoff = min(params) - 2 * pad
    v = {}
    while not residual.is_one():
        top = max(a for (_, a) in residual.support())
        for i in datum.nodes:
            exp = residual.exponent(i, top)
            if not exp:
                continue
            a = top - datum.di(i)
            if a < cutoff:
                raise NotFactorable(
                    f"no A-monomial factorization of {monomial!r} with anchor "
                    f"{anchor} within the doubled window (floor {cutoff})"
                )
            v[(i, a)] = v.get((i, a), 0) - exp
            residual = residual * a_monomial_inverse(datum, i, a) ** exp
    return AMonomialVector(anchor, v)


def classical_weight(datum, monomial):
    """The shadow under Y_{i,a} -> omega_i, as fundamental-weight coordinates."""
    coords = [0] * datum.rank
    for (i, _), exp in monomial.items():
        coords[i - 1] += exp
    return tuple(coords)
