"""Verifier for the extremal-cone bound on q-character monomials.

Every monomial of a fundamental q-character, pushed through the braid action
along any Weyl element, must stay inside the nonnegative cone; the cone
vertices are the images of the anchor under the inverse operators.  The
verifier walks the Weyl group depth first and holds the pushed q-character
as integer rows, one per (node, parameter) with one column per monomial,
each packed into one int; a step s_i rewrites only the node-i rows, and only
those are tested.  Braid well-definedness is never trusted: for small groups
each element is re-checked with a second reduced word when one exists.
"""

from __future__ import annotations

import time
from collections import namedtuple
from itertools import islice

from .braid import _push_dims, _reflect_rows, _reflection_table, unit_framing
from .cartan import (
    DEFAULT_WEYL_CAP,
    _orbit_walk,
    all_reduced_words,
    fundamental_weight,
    reflect_weight,
    weyl_elements,
)
from .errors import CapExceeded
from .lweights import AMonomialVector


ConeViolation = namedtuple("ConeViolation", "word vector image positions")


def _violation(word, vec, image):
    """The ConeViolation of ``vec`` under S_word, or None if its image is in the cone."""
    bad = tuple(sorted(pos for pos, mult in image.items() if mult < 0))
    if not bad:
        return None
    return ConeViolation(
        word=word, vector=vec, image=tuple(sorted(image.items())), positions=bad
    )


# ---------------------------------------------------------------------------
# the row walk


# the first lane width tried; the walks of the fundamental q-characters
# measured (F4/1 and /3, C4/2 and /3, D5/1, G2/1 and /2, B4/2, E6/3) stay
# below its bound of 2**(8-1-guard), and a row that outgrows it widens
_LANE_BITS = 8


class _LaneOverflow(Exception):
    """A row left the range its lanes are proven to hold; the walk widens them."""


class _Lanes:
    """A row of ``width`` integers held as one int, ``bits`` bits per column.

    The row (v_0, v_1, ...) is the int sum_c v_c * 2**(bits*c).  While every
    |v_c| < 2**(bits-1) that int determines the row, and sums and differences
    of rows are then plain int arithmetic.  The walk keeps every stored entry
    below ``half`` = 2**(bits-1-guard) in size, where 2**guard exceeds the
    number of terms of one reflection (see :func:`braid._reflect_rows`), so no
    new entry, even shifted by ``half``, can reach 2**(bits-1).  A row x holds
    entries in [0, half) exactly when ``x & low == x``; the walk tests
    each new row so, and :meth:`negative_columns` reads the rows that fail,
    raising _LaneOverflow when an entry reaches ``half``.
    """

    def __init__(self, width, bits, guard):
        self.width, self.bits = width, bits
        self.top = top = 1 << (bits - 1)
        self.half = top >> guard
        ones = ((1 << (bits * width)) - 1) // ((1 << bits) - 1)
        # with the bias added, column c holds v_c + top in [0, 2**bits)
        self.bias = top * ones
        self.shift = self.half * ones
        # entries in [0, half): the row is its lanes' bits, each below ``half``
        self.low = (self.half - 1) * ones
        # entries in [-half, half): with the bias and ``half`` added, all the
        # lane bits at or above 2 * half but the top one are clear, and the
        # top one is set
        self.small = (2 * top - 2 * self.half) * ones

    def pack(self, row):
        return sum(v << (self.bits * c) for c, v in enumerate(row) if v)

    def entry(self, x, col):
        lane = ((x + self.bias) >> (self.bits * col)) & ((1 << self.bits) - 1)
        return lane - self.top

    def negative_columns(self, rows):
        """The columns holding a negative entry in any of ``rows``."""
        low, bias = self.low, self.bias
        if all(x & low == x for x in rows):
            return frozenset()
        for x in rows:
            if ((x + bias + self.shift) & self.small) != bias:
                raise _LaneOverflow
        return frozenset(
            c for x in rows for c in range(self.width) if self.entry(x, c) < 0
        )


def _packed_walk(datum, lanes, rows, framing, cap):
    """The walk of :func:`_row_walk` on one lane width, yielding its stack items.

    Raises _LaneOverflow(n) when a row outgrows the lanes, n the number of
    elements yielded before it.
    """
    low, check = lanes.low, lanes.negative_columns
    steps = [
        (
            i,
            _reflection_table(datum, i),
            {param - datum.di(i): lanes.pack((m,) * lanes.width)
             for (node, param), m in framing.items() if node == i and m},
            # s_i w changes coordinate i and, by -w_i c_ji, those of the
            # neighbours j of i
            tuple((j - 1, datum.c(j, i)) for j in datum.neighbors(i)),
            *_below(datum, i),
        )
        for i in datum.nodes
    ]
    walked = 0
    try:
        negative = {}
        for j in datum.nodes:
            bad = check(rows[j - 1].values())
            if bad:
                negative[j] = bad
        stack = [((1,) * datum.rank, 0, (lanes, rows), negative)]
        while stack:
            item = stack.pop()
            walked += 1
            if cap is not None and walked > cap:
                raise CapExceeded(f"Weyl group of {datum.label} exceeds cap {cap}",
                                  cap=cap)
            yield item
            weight, length, (_, rows), negative = item
            for wi, step in zip(weight, steps):
                if wi <= 0:
                    continue
                i, table, constants, neighbours, others, near = step
                if not _smallest_descent(weight, wi, others, near):
                    continue
                # one pass keeps the nonzero entries and tests each against
                # [0, half); only a row that fails is read lane by lane
                new = {}
                clean = True
                for a, x in _reflect_rows(table, rows, i, constants).items():
                    if x:
                        new[a] = x
                        if x & low != x:
                            clean = False
                bad = None if clean else check(new.values())
                if negative or bad:
                    child_negative = {j: cols for j, cols in negative.items() if j != i}
                    if bad:
                        child_negative[i] = bad
                else:
                    child_negative = negative
                child = list(weight)
                child[i - 1] = -wi
                for j, c in neighbours:
                    child[j] -= wi * c
                stack.append((tuple(child), length + 1,
                              (lanes, rows[: i - 1] + (new,) + rows[i:]), child_negative))
    except _LaneOverflow:
        raise _LaneOverflow(walked) from None


def _below(datum, i):
    """The coordinates below i of s_i w for :func:`_smallest_descent`: those
    that s_i leaves alone, and the (coordinate, c_ji) of the neighbours j < i."""
    moved = {j - 1: datum.c(j, i) for j in datum.neighbors(i)}
    return (tuple(k for k in range(i - 1) if k not in moved),
            tuple((k, c) for k, c in moved.items() if k < i - 1))


def _smallest_descent(weight, wi, others, near):
    """Whether i is the smallest left descent of s_i w, for w.rho = ``weight``
    with coordinate ``wi`` > 0 at i and (``others``, ``near``) = :func:`_below`.

    Below i, s_i w.rho is w.rho but at a neighbour j, where it is
    w.rho_j - wi * c_ji; the first of these found negative decides, and no
    child weight is built.
    """
    for k in others:
        if weight[k] < 0:
            return False
    for k, c in near:
        if weight[k] < wi * c:
            return False
    return True


def _row_walk(datum, columns, framing, cap=None):
    """Yield (weight, length, image, negative) for every element w of W.

    ``columns`` holds one vector v per column as its items, ((node, param),
    mult) pairs.  ``weight`` is w.rho, ``length`` is l(w), and ``image``
    holds S_w(v) for every column as its lanes and packed rows (read a
    column back with :func:`_column`); ``negative`` maps each node whose
    rows hold a negative entry to those columns, so a column leaves the cone
    under w exactly when it appears in some value.  Rows of nodes other than
    i are shared with the parent, and only the rewritten rows are checked.

    The walk is depth first from rho: the child s_i w of w is taken when
    s_i lengthens w and i is the smallest left descent of s_i w, which makes
    a spanning tree of W with stack depth l(w_0) and no group in memory.
    When a row outgrows its lanes the walk starts over with lanes twice as
    wide and goes on from the element it had reached.  Raises CapExceeded
    once more than ``cap`` elements have been walked.
    """
    width = len(columns)
    by_node = [{} for _ in datum.nodes]
    for col, items in enumerate(columns):
        for (j, a), mult in items:
            by_node[j - 1].setdefault(a, [0] * width)[col] = mult
    # 2**guard exceeds the terms of one reflection: neighbour rows, own row, framing
    terms = max(-sum(datum.c(i, j) for j in datum.neighbors(i)) for i in datum.nodes)
    guard = (terms + 2).bit_length()
    largest = max([abs(m) for m in framing.values()]
                  + [abs(m) for items in columns for _, m in items])
    bits, yielded = _LANE_BITS, 0
    while True:
        lanes = _Lanes(width, bits, guard)
        if largest >= lanes.half:
            bits *= 2
            continue
        rows = tuple({a: lanes.pack(row) for a, row in node.items()} for node in by_node)
        try:
            yield from islice(_packed_walk(datum, lanes, rows, framing, cap), yielded, None)
            return
        except _LaneOverflow as overflow:
            yielded = overflow.args[0]
            bits *= 2


def _column(image, col):
    """The dimension vector of one column, as a dict (node, param) -> int."""
    lanes, rows = image
    out = {}
    for j, node in enumerate(rows, 1):
        for a, x in node.items():
            value = lanes.entry(x, col)
            if value:
                out[(j, a)] = value
    return out


# groups up to this order (G2 has 12, B3 48) re-check every element with a
# second reduced word; the second walk replays whole words, one per column
RECHECK_LIMIT = 48


class TheoremSummary(namedtuple(
    "TheoremSummary",
    "label node monomial_count group_order checks violations word_mismatches"
    " simple_reflection_violations longest_element_violations elapsed",
    defaults=(0.0,),
)):
    __slots__ = ()

    @property
    def ok(self):
        return not self.violations and self.word_mismatches == 0

    def to_json_obj(self):
        return {
            "type": self.label,
            "node": self.node,
            "monomials": self.monomial_count,
            "group_order": self.group_order,
            "checks": self.checks,
            "violations": [
                {
                    "word": list(v.word),
                    "vector": [[i, a, m] for (i, a), m in v.vector.items()],
                    "image": [[i, a, m] for (i, a), m in v.image],
                    "positions": [list(p) for p in v.positions],
                }
                for v in self.violations
            ],
            "word_mismatches": self.word_mismatches,
            "proven_subcases": {
                "simple_reflections": self.simple_reflection_violations,
                "longest_element": self.longest_element_violations,
            },
        }


def verify_theorem_main(qchar, weyl_cap=DEFAULT_WEYL_CAP):
    """Run the cone check for every Weyl element against one q-character.

    The elements come from :func:`_row_walk`.  A violation is reported under
    the word :func:`weyl_elements` gives its element, in that order; the
    words are looked up only when there is a violation.  The rank-one
    reflections and the longest element are tallied separately (those
    instances carry independent proofs and anchor the conventions).
    For groups of order <= ``RECHECK_LIMIT`` each element is recomputed with
    a reduced word ending in another letter, when it has one; any
    disagreement counts as a word mismatch.
    """
    start = time.perf_counter()
    datum, node = qchar.datum, qchar.anchor
    framing = unit_framing(node)
    longest = (-1,) * datum.rank  # w_0 rho = -rho
    # one column per row of the character; a vector is built only for a violation
    columns = [items for items, _ in qchar._item_rows()]

    found = []
    simple_bad = 0
    longest_bad = 0
    kept = {}
    group_order = 0
    for weight, length, image, negative in _row_walk(datum, columns, framing, weyl_cap):
        group_order += 1
        if group_order <= RECHECK_LIMIT:
            kept[weight] = image
        if negative:
            cols = frozenset().union(*negative.values())
            found.extend((weight, col, image) for col in cols)
            if length == 1:
                simple_bad += len(cols)
            if weight == longest:
                longest_bad += len(cols)

    violations = []
    if found:
        elements = weyl_elements(datum, weyl_cap)
        order = {element.weight: k for k, element in enumerate(elements)}
        found.sort(key=lambda item: (order[item[0]], item[1]))
        for weight, col, image in found:
            word = elements[order[weight]].word
            vec = AMonomialVector._make((node, columns[col]))
            violations.append(_violation(word, vec, _column(image, col)))

    word_mismatches = 0
    if group_order <= RECHECK_LIMIT:
        for element in weyl_elements(datum, weyl_cap):
            alt_words = all_reduced_words(datum, element)
            alt_word = next(
                (w for w in alt_words if w[-1:] != element.word[-1:]), None
            )
            if alt_word is None:
                continue
            image = kept[element.weight]
            for col, items in enumerate(columns):
                other = _push_dims(datum, alt_word, dict(items), framing)
                if other != _column(image, col):
                    word_mismatches += 1
    return TheoremSummary(
        label=datum.label,
        node=node,
        monomial_count=qchar.monomial_count(),
        group_order=group_order,
        checks=group_order * len(columns),
        violations=violations,
        word_mismatches=word_mismatches,
        simple_reflection_violations=simple_bad,
        longest_element_violations=longest_bad,
        elapsed=time.perf_counter() - start,
    )


def _negated(node, dims):
    """The vector of sigma(Y_{k,0} prod A_{i,a}^{-v_i^a}), v = ``dims``: a -> -a."""
    return AMonomialVector(node, {(i, -a): m for (i, a), m in dims.items()})


def cone_vertices(datum, node):
    """The vertex S_w^{-1}(anchor) of each Weyl cone, keyed by w^{-1} omega_k.

    S_j^{-1} fixes the anchor Y_{k,0} for j != k, so the vertex depends only
    on the coset w W_J, i.e. on the weight w^{-1} omega_k (see
    :func:`coset_weight`).

    Let sigma(Y_{i,a}) = Y_{i,-a}.  The A-monomial dictionary is symmetric
    about a, so sigma(A_{i,a}) = A_{i,-a}, hence sigma S_i sigma = S_i^{-1},
    and for every word (i_1, ..., i_t), reduced or not,

        S_{i_t}^{-1} ... S_{i_1}^{-1}(Y_{k,0})
            = sigma(S_{i_t} ... S_{i_1}(Y_{k,0})).

    The omega_k-orbit is walked breadth first by ``cartan._orbit_walk``; each
    orbit point takes one :func:`braid._push_dims` step from its
    parent's S-push of the zero vector (framing Y_{k,0}), and its vertex is
    that push with the parameters negated.
    """
    datum.check_node(node)
    framing = unit_framing(node)
    pushed = {}
    for word, weight in _orbit_walk(datum, fundamental_weight(datum, node)):
        parent = pushed[reflect_weight(datum, word[-1], weight)] if word else {}
        pushed[weight] = _push_dims(datum, word[-1:], parent, framing)
    return {weight: _negated(node, dims) for weight, dims in pushed.items()}


def word_vertex(datum, node, word):
    """S_w^{-1}(Y_{k,0}) for w = s_{i_t} ... s_{i_1} and word (i_1, ..., i_t),
    reduced or not, as its A-monomial vector.

    S_{i_t}^{-1} acts first, so by the sigma lemma of :func:`cone_vertices`
    this is the S-push of the zero vector along the reversed word with its
    parameters negated.
    """
    for i in (node, *word):
        datum.check_node(i)
    dims = _push_dims(datum, reversed(word), {}, unit_framing(node))
    return _negated(node, dims)


def coset_weight(datum, node, word):
    """w^{-1} omega_k for the element w with reduced word ``word``: its cone-vertex key."""
    weight = fundamental_weight(datum, node)
    for i in reversed(word):
        weight = reflect_weight(datum, i, weight)
    return weight
