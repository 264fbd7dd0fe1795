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
from dataclasses import dataclass, field

from .braid import _reflection_table, apply_s_inverse, reflect_dimensions, unit_framing
from .cartan import (
    DEFAULT_WEYL_CAP,
    _orbit_walk,
    all_reduced_words,
    fundamental_weight,
    reflect_weight,
    weyl_elements,
)
from .errors import CapExceeded
from .lweights import LaurentMonomial, factor_to_a


@dataclass(frozen=True)
class ConeViolation:
    word: tuple
    vector: object
    image: object
    positions: tuple


def _push_dims(datum, word, dims, framing):
    """S_w on one dimension vector by replaying the whole word."""
    for i in word:
        dims = reflect_dimensions(datum, i, dims, framing)
    return dims


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


# the first lane width tried; entries of fundamental q-characters stay far
# below its bound of 2**(16-1-guard)
_LANE_BITS = 16


class _LaneOverflow(Exception):
    """A row left the range its lanes are proven to hold; the walk widens them."""


class _Lanes:
    """A row of ``width`` integers held as one int, ``bits`` bits per column.

    The row (v_0, v_1, ...) is the int sum_c v_c * 2**(bits*c).  While every
    |v_c| < 2**(bits-1) that int determines the row, and sums and differences
    of rows are then plain int arithmetic.  The walk keeps every stored entry
    below ``half`` = 2**(bits-1-guard) in size, where 2**guard exceeds the
    number of terms of one reflection (see :func:`_reflect_rows`), so no new
    entry, even shifted by ``half``, can reach 2**(bits-1).  :meth:`negative_columns` checks each new
    row and raises _LaneOverflow when an entry reaches ``half``.
    """

    def __init__(self, width, bits, guard):
        self.width, self.bits = width, bits
        self.top = top = 1 << (bits - 1)
        self.half = top >> guard
        ones = ((1 << (bits * width)) - 1) // ((1 << bits) - 1)
        # with the bias added, column c holds v_c + top in [0, 2**bits)
        self.bias = top * ones
        self.shift = self.half * ones
        # entries in [0, half) / in [-half, half): all the lane bits at or
        # above ``half`` but the top one are clear, and the top one is set
        self.clean = (2 * top - self.half) * ones
        self.small = (2 * top - 2 * self.half) * ones

    def pack(self, row):
        return sum(v << (self.bits * c) for c, v in enumerate(row) if v)

    def entry(self, x, col):
        lane = ((x + self.bias) >> (self.bits * col)) & ((1 << self.bits) - 1)
        return lane - self.top

    def negative_columns(self, rows):
        """The columns holding a negative entry in any of ``rows``."""
        bias, clean = self.bias, self.clean
        if all(((x + bias) & clean) == bias for x in rows):
            return frozenset()
        for x in rows:
            if ((x + bias + self.shift) & self.small) != bias:
                raise _LaneOverflow
        return frozenset(
            c for x in rows for c in range(self.width) if self.entry(x, c) < 0
        )


def _reflect_rows(table, rows, i, constants):
    """The node-i rows of S_i applied to every column of ``rows``.

    ``rows[j-1]`` maps a parameter a to the packed row of entries (j, a),
    one per column, and ``constants[a]`` is the packed framing row
    w(i, a + d_i).  Column by column this is :func:`braid.reflect_dimensions`:

        new(i, a) = w(i, a + d_i) - row(i, a + d_ii)
                    + sum_{j ~ i} sum_t row(j, a + d_ij + t d_ii)

    Rows that come out all zero are dropped.
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
    return {a: x for a, x in acc.items() if x}


def _packed_walk(datum, lanes, rows, framing, cap):
    """The walk of :func:`_row_walk` on one lane width; may raise _LaneOverflow."""
    check = lanes.negative_columns
    negative = {}
    for j in datum.nodes:
        bad = check(rows[j - 1].values())
        if bad:
            negative[j] = bad
    steps = [
        (
            i,
            _reflection_table(datum, i),
            {param - datum.di(i): lanes.pack((m,) * lanes.width)
             for (node, param), m in framing.items() if node == i and m},
            # s_i changes coordinate i and those of the neighbours of i
            tuple((j - 1, datum.c(j, i)) for j in datum.neighbors(i)),
        )
        for i in datum.nodes
    ]

    stack = [((1,) * datum.rank, 0, rows, negative)]
    walked = 0
    while stack:
        weight, length, rows, negative = stack.pop()
        walked += 1
        if cap is not None and walked > cap:
            raise CapExceeded(f"Weyl group of {datum.label} exceeds cap {cap}", cap=cap)
        yield weight, length, rows, negative
        for i, table, constants, neighbours in steps:
            wi = weight[i - 1]
            if wi <= 0:
                continue
            child = list(weight)
            child[i - 1] = -wi
            for j, c in neighbours:
                child[j] -= wi * c
            if i > 1 and min(child[: i - 1]) < 0:
                continue
            new = _reflect_rows(table, rows, i, constants)
            bad = check(new.values())
            if negative or bad:
                child_negative = {j: cols for j, cols in negative.items() if j != i}
                if bad:
                    child_negative[i] = bad
            else:
                child_negative = negative
            stack.append((tuple(child), length + 1, rows[: i - 1] + (new,) + rows[i:],
                          child_negative))


def _row_walk(datum, vectors, framing, cap=None):
    """Yield (weight, length, image, negative) for every element w of W.

    ``weight`` is w.rho, ``length`` is l(w), and ``image`` holds S_w(v) for
    the ``vectors`` as packed rows (read a column back with
    :func:`_column`); ``negative`` maps each node whose rows hold a negative
    entry to those columns, so a column leaves the cone under w exactly when
    it appears in some value.  Rows of nodes other than i are shared with
    the parent, and only the rewritten rows are checked.

    The walk is depth first from rho: the child s_i w of w is taken when
    s_i lengthens w and i is the smallest left descent of s_i w, which makes
    a spanning tree of W with stack depth l(w_0) and no group in memory.
    When a row outgrows its lanes the walk starts over with lanes twice as
    wide and goes on from the element it had reached.  Raises CapExceeded
    once more than ``cap`` elements have been walked.
    """
    width = len(vectors)
    columns = [{} for _ in datum.nodes]
    for col, vec in enumerate(vectors):
        for (j, a), mult in vec.items():
            columns[j - 1].setdefault(a, [0] * width)[col] = mult
    # 2**guard exceeds the terms of one reflection: neighbour rows, own row, framing
    terms = max(-sum(datum.c(i, j) for j in datum.neighbors(i)) for i in datum.nodes)
    guard = (terms + 2).bit_length()
    largest = max([abs(m) for m in framing.values()]
                  + [abs(m) for vec in vectors for _, m in vec.items()])
    bits, yielded = _LANE_BITS, 0
    while True:
        lanes = _Lanes(width, bits, guard)
        if largest >= lanes.half:
            bits *= 2
            continue
        rows = tuple({a: lanes.pack(row) for a, row in node.items()} for node in columns)
        try:
            walk = _packed_walk(datum, lanes, rows, framing, cap)
            for k, (weight, length, rows, negative) in enumerate(walk):
                if k == yielded:
                    yielded += 1
                    yield weight, length, (lanes, rows), negative
            return
        except _LaneOverflow:
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


@dataclass
class TheoremSummary:
    label: str
    node: int
    monomial_count: int
    group_order: int
    checks: int
    violations: list
    word_mismatches: int
    simple_reflection_violations: int
    longest_element_violations: int
    elapsed: float = field(default=0.0)

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


def verify_theorem_main(qchar, weyl_cap=DEFAULT_WEYL_CAP, recheck_limit=48):
    """Run the cone check for every Weyl element against one q-character.

    The elements come from :func:`_row_walk`.  A violation is reported under
    the word :func:`weyl_elements` gives its element, in that order; the
    words are looked up only when there is a violation.  The rank-one
    reflections and the longest element are tallied separately (those
    instances carry independent proofs and anchor the conventions).
    For groups of order <= ``recheck_limit`` each element is recomputed with
    a reduced word ending in another letter, when it has one; any
    disagreement counts as a word mismatch.
    """
    start = time.perf_counter()
    datum, node = qchar.datum, qchar.anchor
    framing = unit_framing(node)
    longest = (-1,) * datum.rank  # w_0 rho = -rho
    vectors = list(qchar.entries)

    found = []
    simple_bad = 0
    longest_bad = 0
    kept = {}
    group_order = 0
    for weight, length, image, negative in _row_walk(datum, vectors, framing, weyl_cap):
        group_order += 1
        if group_order <= recheck_limit:
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
            violations.append(_violation(word, vectors[col], _column(image, col)))

    word_mismatches = 0
    if group_order <= recheck_limit:
        for element in weyl_elements(datum, weyl_cap):
            alt_words = all_reduced_words(datum, element)
            alt_word = next(
                (w for w in alt_words if w[-1:] != element.word[-1:]), None
            )
            if alt_word is None:
                continue
            image = kept[element.weight]
            for col, vec in enumerate(vectors):
                other = _push_dims(datum, alt_word, vec.as_dict(), framing)
                if other != _column(image, col):
                    word_mismatches += 1
    return TheoremSummary(
        label=datum.label,
        node=node,
        monomial_count=qchar.monomial_count(),
        group_order=group_order,
        checks=group_order * len(vectors),
        violations=violations,
        word_mismatches=word_mismatches,
        simple_reflection_violations=simple_bad,
        longest_element_violations=longest_bad,
        elapsed=time.perf_counter() - start,
    )


def cone_vertices(datum, node):
    """The vertex S_w^{-1}(anchor) of each Weyl cone, keyed by w^{-1} omega_k.

    S_j^{-1} fixes the anchor Y_{k,0} for j != k, so the vertex depends only
    on the coset w W_J, i.e. on the weight w^{-1} omega_k (see
    :func:`coset_weight`).  The omega_k-orbit is walked breadth first by
    ``cartan._orbit_walk``, with one inverse braid reflection per step.
    Propagates NotFactorable, which would indicate convention breakage: the
    inverse-braid images of the anchor always factor.
    """
    images = {}
    for word, weight in _orbit_walk(datum, fundamental_weight(datum, node)):
        if word:
            i = word[-1]
            parent = images[reflect_weight(datum, i, weight)]
            images[weight] = apply_s_inverse(datum, i, parent)
        else:
            images[weight] = LaurentMonomial.y(node, 0)
    return {weight: factor_to_a(datum, node, image) for weight, image in images.items()}


def coset_weight(datum, node, word):
    """w^{-1} omega_k for the element w with reduced word ``word``: its cone-vertex key."""
    weight = fundamental_weight(datum, node)
    for i in reversed(word):
        weight = reflect_weight(datum, i, weight)
    return weight
