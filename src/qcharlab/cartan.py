"""Finite-type Cartan data, Weyl group enumeration, and weight reflections.

Node indices are 1-based.  Weight vectors are plain tuples of length ``rank``
over the fundamental-weight basis.  Everything is exact (ints / Fractions),
no floats.
"""

from __future__ import annotations

import re
from collections import deque, namedtuple
from functools import lru_cache

from .errors import CapExceeded, UnsupportedType

# |W(E6)|: the cone verifier walks every group up to E6 whole by default;
# E7 and E8 stop at the cap unless a larger one is given
DEFAULT_WEYL_CAP = 51840

_LABEL_RE = re.compile(r"^([A-G])_?([0-9]+)$")


def _chain(n):
    return [(i, i + 1) for i in range(1, n)]


def _layout(family, rank):
    """Edges of the Dynkin diagram and the symmetrizer d_i per node.

    Short roots carry d_i = 1.  In B_n node 1 is the single short node; in
    C_n node 1 is the single long node (the two families are transposes of
    each other under this labelling).
    """
    if family == "A" and 1 <= rank <= 8:
        return _chain(rank), [1] * rank
    if family == "B" and 2 <= rank <= 8:
        return _chain(rank), [1] + [2] * (rank - 1)
    if family == "C" and 2 <= rank <= 8:
        return _chain(rank), [2] + [1] * (rank - 1)
    if family == "D" and 4 <= rank <= 8:
        return _chain(rank - 1) + [(rank - 2, rank)], [1] * rank
    if family == "E" and 6 <= rank <= 8:
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if rank >= 7:
            edges.append((6, 7))
        if rank == 8:
            edges.append((7, 8))
        return edges, [1] * rank
    if family == "F" and rank == 4:
        return _chain(4), [1, 1, 2, 2]
    if family == "G" and rank == 2:
        return [(1, 2)], [1, 3]
    raise UnsupportedType(f"no finite type {family}{rank} in the supported range")


class CartanDatum(namedtuple("CartanDatum", "label rank sym cartan d m")):
    """Symmetrized Cartan data of a finite type.

    ``sym[i-1][j-1]`` is the symmetric pairing d_ij of simple roots,
    ``cartan[i-1][j-1]`` the Cartan entry c_ij = 2 d_ij / d_ii, ``d[i-1]``
    the half-length d_i = d_ii / 2, and ``m[i-1][j-1]`` the order of s_i s_j.
    """

    __slots__ = ()

    @property
    def nodes(self):
        return range(1, self.rank + 1)

    def c(self, i, j):
        return self.cartan[i - 1][j - 1]

    def b(self, i, j):
        return self.sym[i - 1][j - 1]

    def di(self, i):
        return self.d[i - 1]

    def neighbors(self, i):
        return tuple(j for j in self.nodes if j != i and self.c(i, j) != 0)

    def check_node(self, i):
        """Raise ValueError unless ``i`` is a node of this datum."""
        if i not in self.nodes:
            raise ValueError(f"{i!r} is not a node of {self.label}")

    def to_json_obj(self):
        return {
            "label": self.label,
            "d": [list(row) for row in self.sym],
            "c": [list(row) for row in self.cartan],
        }


_M_FROM_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6}


@lru_cache(maxsize=None)
def build_cartan(label):
    """Build the Cartan datum for a type label such as "A2", "B3" or "G2"."""
    match = _LABEL_RE.match(label.strip())
    if not match:
        raise UnsupportedType(f"cannot parse type label {label!r}")
    family, rank = match.group(1), int(match.group(2))
    edges, dvec = _layout(family, rank)
    adjacent = {frozenset(e) for e in edges}

    sym = []
    for i in range(1, rank + 1):
        row = []
        for j in range(1, rank + 1):
            if i == j:
                row.append(2 * dvec[i - 1])
            elif frozenset((i, j)) in adjacent:
                row.append(-max(dvec[i - 1], dvec[j - 1]))
            else:
                row.append(0)
        sym.append(tuple(row))
    cartan = tuple(
        tuple(2 * sym[i][j] // sym[i][i] for j in range(rank)) for i in range(rank)
    )
    m = tuple(
        tuple(
            1 if i == j else _M_FROM_PRODUCT[cartan[i][j] * cartan[j][i]]
            for j in range(rank)
        )
        for i in range(rank)
    )
    return CartanDatum(
        label=f"{family}{rank}",
        rank=rank,
        sym=tuple(sym),
        cartan=cartan,
        d=tuple(dvec),
        m=m,
    )


# ---------------------------------------------------------------------------
# Weyl group


class WeylElement(namedtuple("WeylElement", "word weight")):
    """A Weyl group element with one stored reduced word.

    ``word = (i_1, ..., i_t)`` denotes the element s_{i_t} ... s_{i_1}: the
    first letter of the word acts first.  ``weight`` is w.rho over the
    fundamental-weight basis, rho = (1, ..., 1); it identifies the element,
    and s_i is a left descent of w exactly when ``weight[i-1] < 0``.
    """

    __slots__ = ()

    @property
    def length(self):
        return len(self.word)


def _orbit_walk(datum, top, cap=None):
    """Breadth-first walk down the W-orbit of the dominant weight ``top``.

    Yields (word, weight) with weight = s_{i_t} ... s_{i_1} top.  A step s_i
    is taken only where ``weight[i-1] > 0``, which lowers the weight; every
    orbit point is reached that way, each first by its breadth-first word.
    Raises CapExceeded once more than ``cap`` points have been found.
    """
    words = {top: ()}
    queue = deque([top])
    while queue:
        weight = queue.popleft()
        word = words[weight]
        yield word, weight
        for i in datum.nodes:
            if weight[i - 1] <= 0:
                continue
            new = reflect_weight(datum, i, weight)
            if new in words:
                continue
            if cap is not None and len(words) >= cap:
                raise CapExceeded(
                    f"Weyl group of {datum.label} exceeds cap {cap}", cap=cap
                )
            words[new] = word + (i,)
            queue.append(new)


@lru_cache(maxsize=None)
def weyl_elements(datum, cap=DEFAULT_WEYL_CAP):
    """Enumerate the full Weyl group as the orbit of the regular weight rho.

    The identity comes first and each element carries its BFS word, which is
    automatically reduced.  Raises CapExceeded once more than ``cap`` distinct
    elements have been found.
    """
    return tuple(
        WeylElement(word=word, weight=weight)
        for word, weight in _orbit_walk(datum, (1,) * datum.rank, cap)
    )


def all_reduced_words(datum, element):
    """Every reduced word of a Weyl element, by recursion on its left descents."""

    def expand(weight):
        words = [
            word + (g,)
            for g in datum.nodes
            if weight[g - 1] < 0
            for word in expand(reflect_weight(datum, g, weight))
        ]
        return words or [()]

    return expand(element.weight)


# ---------------------------------------------------------------------------
# Weight vectors over the fundamental-weight basis


def reflect_weight(datum, i, theta):
    """s_i on fundamental-weight coordinates: theta_j -> theta_j - theta_i c_ji."""
    ti = theta[i - 1]
    return tuple(theta[j - 1] - ti * datum.c(j, i) for j in datum.nodes)


def _lower(datum, weight):
    """The antidominant W-conjugate of ``weight``, the A-height down to it,
    and the nodes reflected at, in order.

    Each step reflects at the first node with a positive coordinate, which
    lowers the weight by that coordinate times alpha_i and leaves one fewer
    positive root pairing positively with it, so the walk ends; the height
    is the sum of the coordinates reflected away.
    """
    height, word = 0, []
    while True:
        i = next((i for i in datum.nodes if weight[i - 1] > 0), None)
        if i is None:
            return weight, height, tuple(word)
        height += weight[i - 1]
        word.append(i)
        weight = reflect_weight(datum, i, weight)


def is_generic(datum, theta):
    """True iff theta avoids every root hyperplane.

    W permutes the hyperplanes, so theta avoids them iff its antidominant
    conjugate does.  That pairs negatively with every positive root unless
    one of its coordinates, its pairing with a simple root, is zero.
    """
    return all(_lower(datum, tuple(theta))[0])


def fundamental_weight(datum, k):
    return tuple(int(j == k) for j in datum.nodes)


def simple_root_weight_coords(datum, i):
    """alpha_i over the fundamental-weight basis: coefficient c_ji at node j."""
    return tuple(datum.c(j, i) for j in datum.nodes)

