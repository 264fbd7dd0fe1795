"""Iterative closure computing q-characters of fundamental modules.

Monomials are stored as anchored A-monomial vectors.  The closure processes
them in increasing A-height (sum of the vector entries), expanding every
node direction in which the monomial is dominant through the rank-one
string decomposition below.  It runs only up to L = floor(H/2), H being the
height ht(omega_k - w_0 omega_k) of the lowest monomial, and mirrors the
rest.  The lowest monomial is the extremal monomial T_{w_0}(Y_{k,0}) =
Y_{kbar,c}^{-1}, c = r^v h^v (Frenkel-Mukhin, Combinatorics of q-characters
of finite-dimensional representations of quantum affine algebras, CMP 216,
2001), and V(omega_k)* is again fundamental (Frenkel-Reshetikhin, The
q-characters of representations of quantum affine algebras, 1998), so the
q-character is invariant under v -> v_low - tau(v), tau(i, a) = (ibar,
c - a), with the same multiplicity; the map sends height h to H - h.
Every piece comes from the root datum, and nothing is expanded: v_low is
the S-push of the zero vector along the word of ``cartan._lower`` from
omega_k to w_0 omega_k (``braid._push_dims``, framing Y_{k,0}),
with its parameters negated; ibar is read off w_0 omega_i = -omega_ibar;
and c is the smallest plus the largest parameter of v_low.

Pending work is held in one level per height, and a target goes straight
into the level of its parent's height plus its pattern's exponent sum;
targets above L are left to the mirror.  Each level is keyed by v packed
into one exact int, a field of H.bit_length() bits per (i, a): every entry
lies between 0 and the height, at most H, so no field carries into the next
and the key names v.  A target's key is its parent's plus a delta cached
per (i, i-part, pattern), so a target already pending costs one addition
and one lookup.  Only a new target gets its Y-exponents, its parent's
times the few A^{-1} factors of the pattern, read from the shared table of
:mod:`qcharlab.lweights`, and its sorted items, the tuple
``AMonomialVector.items()`` returns: its parent's with the pattern's few
(i, a) entries raised in place, each found by bisection and taken from the
character's one pool of ((i, a), m) tuples, which the mirror reads too.
Entries only grow, so the tuple stays sorted and free of zeros.  The
closure builds no AMonomialVector and no dict: each height's (items, mu)
row, processed or mirrored, is appended to one list, and each level is
processed in the order of its tuples, so the rows come out in the
canonical order of :class:`QChar` without a sort of their own.  Within a
level the processing order is irrelevant, which the determinism tests
check by shuffling it; a shuffled closure sorts its rows, so it writes the
same canonical text.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import compress
from operator import itemgetter

from .braid import _push_dims, unit_framing
from .cartan import (
    _lower,
    fundamental_weight,
    lowest_weight_height,
    simple_root_weight_coords,
)
from .conventions import CONVENTIONS_VERSION
from .errors import CapExceeded
from .lweights import AMonomialVector, _a_inverse_table, _accumulate

DEFAULT_MAX_MONOMIALS = 200000


def sl2_expansion(d_i, multiset):
    """Rank-one character generator.

    ``multiset`` maps spectral parameters to positive multiplicities.  It is
    decomposed greedily (ascending) into maximal strings
    {b, b+2d_i, ..., b+2(l-1)d_i}; a string of length l contributes the l+1
    exponent patterns picking up A_{p + d_i}^{-1} factors from the top of the
    string downward.  The full output is the distributive product over
    strings, multiplicities added when patterns collide.  The empty pattern
    (the top term) is always present with multiplicity 1.
    """
    counts = {p: m for p, m in multiset.items() if m}
    if any(m < 0 for m in counts.values()):
        raise ValueError("multiset multiplicities must be positive")
    strings = []
    while counts:
        b = min(counts)
        string = []
        p = b
        while counts.get(p, 0) > 0:
            counts[p] -= 1
            if not counts[p]:
                del counts[p]
            string.append(p)
            p += 2 * d_i
        strings.append(string)

    # terms of one string: r = 0..l, picking the top r lowering positions
    def string_terms(string):
        length = len(string)
        terms = []
        for r in range(length + 1):
            pattern = {}
            for t in range(1, r + 1):
                pos = string[length - t] + d_i
                pattern[pos] = pattern.get(pos, 0) + 1
            terms.append(pattern)
        return terms

    result = {(): 1}
    for string in strings:
        new = {}
        for key, mult in result.items():
            base = dict(key)
            for pattern in string_terms(string):
                combined = dict(base)
                for pos, e in pattern.items():
                    combined[pos] = combined.get(pos, 0) + e
                ckey = tuple(sorted(combined.items()))
                new[ckey] = new.get(ckey, 0) + mult
        result = new
    return sorted(
        ((dict(key), mult) for key, mult in result.items()),
        key=lambda item: sorted(item[0].items()),
    )


class QChar:
    """A q-character: anchor node plus multiplicities over A-monomial vectors.

    It is stored as ``_rows``, one (items, mu) pair per monomial, items being
    the sorted items tuple of its A-vector, in canonical order: by A-height,
    then by items.  That is the order ``to_json_text`` writes and the order
    of ``entries``, the {AMonomialVector: mu} dict built on first read.
    """

    def __init__(self, datum, anchor, entries):
        self.datum = datum
        self.anchor = anchor
        self._rows = sorted(
            ((vec.items(), mu) for vec, mu in entries.items()), key=_row_order)

    @classmethod
    def _trusted(cls, datum, anchor, rows):
        """The q-character of ``rows``, (items, mu) pairs already in canonical
        order, with no two items equal, and not used after."""
        result = cls.__new__(cls)
        result.datum = datum
        result.anchor = anchor
        result._rows = rows
        return result

    @cached_property
    def entries(self):
        """{AMonomialVector: mu} in canonical order, one vector per row."""
        anchor = self.anchor
        return {AMonomialVector._trusted(anchor, items): mu for items, mu in self._rows}

    def multiplicity(self, vec):
        return self.entries.get(vec, 0)

    def monomial_count(self):
        return len(self._rows)

    def total_multiplicity(self):
        return sum(map(itemgetter(1), self._rows))

    def max_height(self):
        """The height of the last row: rows run by increasing height."""
        if not self._rows:
            raise ValueError("an empty q-character has no height")
        return _row_height(self._rows[-1])

    def __eq__(self, other):
        return (
            isinstance(other, QChar)
            and self.datum.label == other.datum.label
            and self.anchor == other.anchor
            and self._rows == other._rows
        )

    def __repr__(self):
        return (
            f"QChar({self.datum.label}, node {self.anchor}, "
            f"{self.monomial_count()} monomials)"
        )

    def to_json_text(self):
        """The canonical JSON of this q-character, without a trailing newline.

        It is what ``json.dumps`` writes with sorted keys and no spaces for
        {"conventions", "entries": [{"mu", "v": [[i, a, m], ...]}, ...],
        "node", "type"}, the join of :meth:`_json_chunks`.
        """
        return "".join(self._json_chunks())

    def _json_chunks(self):
        """The text of :meth:`to_json_text` in pieces: the envelope's head,
        one chunk per height (its rows joined, led by a comma after the
        first), and the envelope's tail.  Writing the pieces one by one
        never holds the whole text.  The few distinct "[i,a,m]" cells are
        formatted once each, and no object tree is built.
        """
        yield f'{{"conventions":{json.dumps(CONVENTIONS_VERSION)},"entries":['
        cells = _Cells()
        rows = self._rows
        start, lead = 0, ""
        while start < len(rows):
            end = bisect_right(rows, _row_height(rows[start]), lo=start,
                               key=_row_height)
            yield lead + ",".join([
                f'{{"mu":{mu},"v":[{",".join(map(cells.__getitem__, items))}]}}'
                for items, mu in rows[start:end]
            ])
            start, lead = end, ","
        yield f'],"node":{self.anchor},"type":{json.dumps(self.datum.label)}}}'

    @classmethod
    def from_json_obj(cls, datum, obj):
        """The q-character of a parsed ``to_json_text``, in canonical order
        whatever the order of the entries and cells read.  ValueError when
        the text was written for another type or under other conventions."""
        for key, expected in (("type", datum.label), ("conventions", CONVENTIONS_VERSION)):
            if obj.get(key) != expected:
                raise ValueError(f"the text's {key} is {obj.get(key)!r}, not {expected!r}")
        entries = {}
        for item in obj["entries"]:
            vec = AMonomialVector(
                int(obj["node"]), {(int(i), int(a)): int(m) for i, a, m in item["v"]}
            )
            entries[vec] = int(item["mu"])
        return cls(datum, int(obj["node"]), entries)


def _row_height(row):
    """The A-height of an (items, mu) row: the sum of its entries."""
    return sum(map(itemgetter(1), row[0]))


def _row_order(row):
    """The canonical sort key of a row: its height, then its items."""
    return _row_height(row), row[0]


class _Cells(dict):
    """((i, a), m) -> its JSON text "[i,a,m]", formatted on first use."""

    def __missing__(self, item):
        (i, a), m = item
        text = self[item] = f"[{i},{a},{m}]"
        return text


def fm_qchar(
    datum,
    node,
    max_monomials=DEFAULT_MAX_MONOMIALS,
    max_height=None,
    shuffle_rng=None,
):
    """q-character of the fundamental module anchored at Y_{node,0}.

    Frenkel-Mukhin closure: a monomial's multiplicity mu is the max over
    directions i of the multiplicity its i-strings already explain; processed
    in height order, it starts new strings with the excess only.  The closure
    stops at half the lowest height H = ht(omega_k - w_0 omega_k), and each
    height H - h above it is the mirror of height h (see :func:`_mirror`).
    Caps are hard errors (a truncated character would corrupt downstream
    checks), raised where and as a closure over every height raises them;
    the height cap defaults to H.
    """
    datum.check_node(node)
    bound = lowest_weight_height(datum, node)
    if max_height is None:
        max_height = bound
    half = bound // 2
    pool, mirrored = _mirror_map(datum, node)
    # a pending v is keyed by its entries packed into one int, a field of
    # bound.bit_length() bits per cell of v_low: every v lies below v_low,
    # and no entry passes the height, so no field carries into the next and
    # the key names v
    width = bound.bit_length()
    offsets = {cell: n * width for n, cell in enumerate(pool)}
    table = _a_inverse_table(datum)
    # (i, i-part) -> its moves, see _moves; (d_i, shifted i-part) -> its
    # nonempty sl2_expansion patterns
    moves = {}
    shapes = {}
    # (v as its sorted items, mu) for each v, by height and then by items
    rows = []
    # closed[h]: the part of rows of A-height h <= half
    closed = []
    # levels[h]: key of v -> (v as its sorted items, key, Y(v), {direction:
    # requirement}) for each pending v of A-height h <= half
    levels = {0: {0: ((), 0, {(node, 0): 1}, {0: 1})}}
    for height in range(bound + 1):
        if height > max_height:
            raise CapExceeded(
                f"height cap {max_height} exceeded computing {datum.label} "
                f"node {node} ({len(rows)} monomials so far)",
                monomials=len(rows),
                height=height,
            )
        if height > half:
            row = mirrored(closed[bound - height])
        else:
            level = sorted(levels.pop(height, {}).values(), key=itemgetter(0))
            if shuffle_rng is not None:
                shuffle_rng.shuffle(level)
            row = [(items, max(requirement.values()))
                   for items, _, _, requirement in level]
            closed.append(row)
        if len(rows) + len(row) > max_monomials:
            raise CapExceeded(
                f"monomial cap {max_monomials} exceeded computing "
                f"{datum.label} node {node} at height {height}",
                monomials=max_monomials + 1,
                height=height,
            )
        rows += row
        if height >= half:
            continue  # every target lies above half, where the mirror gives it
        room = half - height
        for (items, key, exps, requirement), (_, mu) in zip(level, row):
            parts = {}
            for (j, p), e in exps.items():
                parts.setdefault(j, {})[p] = e
            for i, part in parts.items():
                excess = mu - requirement.get(i, 0)
                # skip unless the monomial is i-dominant
                if not excess or min(part.values()) < 0:
                    continue
                move_key = (i, tuple(sorted(part.items())))
                targets = moves.get(move_key)
                if targets is None:
                    targets = moves[move_key] = _moves(
                        datum, table, shapes, offsets, pool, *move_key)
                for rise, delta, coeff, change, raise_cells in targets:
                    if rise > room:
                        break  # the mirror gives this target and the rest
                    level_up = levels.setdefault(height + rise, {})
                    target = key + delta
                    slot = level_up.get(target)
                    if slot is None:
                        slot = level_up[target] = (
                            _raised(items, raise_cells), target,
                            _accumulate(dict(exps), change), {})
                    slot[3][i] = slot[3].get(i, 0) + excess * coeff
    if shuffle_rng is not None:  # a shuffled level leaves its height out of order
        rows.sort(key=_row_order)
    return QChar._trusted(datum, node, rows)


def _moves(datum, table, shapes, offsets, pool, i, part):
    """The targets of the i-part ``part`` (sorted (a, exponent) pairs), by rise.

    One (rise, delta, coeff, change, cells) per nonempty ``sl2_expansion``
    pattern: ``cells`` the ((i, a), r, shared) entries the pattern raises,
    ``shared`` being the cell's list in ``pool`` (see :func:`_mirror_map`)
    and (i, a) its own cell object, ``rise`` the sum of the r, ``delta``
    what they add to a packed key (``offsets`` maps a cell to its field),
    and ``change`` what their A^{-r} factors multiply into Y(v).  The
    expansion commutes with shifting the i-part, so it is asked once per
    (d_i, i-part shifted to start at 0).
    """
    low = part[0][0]
    shape_key = (datum.di(i), tuple((p - low, e) for p, e in part))
    shape = shapes.get(shape_key)
    if shape is None:
        shape = shapes[shape_key] = [
            (tuple(pattern.items()), coeff)
            for pattern, coeff in sl2_expansion(shape_key[0], dict(shape_key[1]))
            if pattern  # the top term regenerates vec itself
        ]
    targets = []
    for pattern, coeff in shape:
        cells = []
        for p, r in pattern:
            shared = pool[i, low + p]
            cells.append((shared[0][0], r, shared))
        change = {}
        for cell, r, _ in cells:
            _accumulate(change, table[cell], r)
        targets.append((sum(r for _, r, _ in cells),
                        sum(r << offsets[cell] for cell, r, _ in cells),
                        coeff, tuple(change.items()), tuple(cells)))
    targets.sort(key=itemgetter(0))
    return targets


def _raised(items, cells):
    """The sorted items of v raised by r at each (cell, r, shared) of ``cells``.

    Each new entry is taken from ``shared``, the cell's pool list, never
    built.  Entries only grow, so no zero appears and the result stays
    canonical.
    """
    raised = list(items)
    for cell, r, shared in cells:
        at = bisect_left(raised, (cell,))
        if at < len(raised) and raised[at][0] == cell:
            raised[at] = shared[raised[at][1] + r]
        else:
            raised.insert(at, shared[r])
    return tuple(raised)


def _mirror(datum, node):
    """(v_low, bar, c): the data of the mirror v -> v_low - tau(v).

    v_low is the vector of the lowest monomial Y_{kbar,c}^{-1}, the S-push of
    the anchor along the word of ``cartan._lower`` from omega_k to w_0 omega_k
    on dimension vectors (zero v, framing Y_{k,0}), with its parameters
    negated.  bar maps each node i to ibar, where w_0 omega_i = -omega_ibar,
    and c = r^v h^v is the smallest plus the largest parameter of v_low.
    tau(i, a) = (ibar, c - a).  V(omega_k)* is again fundamental, so the
    q-character is invariant under v -> v_low - tau(v), multiplicities
    included, which sends height h to H - h.
    """
    word = _lower(datum, fundamental_weight(datum, node))[2]
    dims = _push_dims(datum, word, {}, unit_framing(node))
    lowest = {(i, -a): m for (i, a), m in dims.items()}
    bar = {i: _lower(datum, fundamental_weight(datum, i))[0].index(-1) + 1
           for i in datum.nodes}
    params = [a for _, a in lowest]
    return lowest, bar, min(params) + max(params)


def _mirror_map(datum, node):
    """The character's cell pool, and the map from the (items, mu) of a
    height h to those of height H - h, sorted by items.

    Every v lies below v_low: v_low - tau(v) lies in the cone, and tau fixes
    v_low.  So every entry ((i, a), m) of every v is found in the pool,
    which maps each cell (i, a) of v_low, in sorted order, to its list
    [((i, a), m) for m = 0 .. v_low's entry], one tuple per cell and value
    over one cell object.  The mirror reads each image off those lists, and
    the closure raises its entries to them, so equal entries are one object
    and sorts and lookups compare them by identity first.  No result
    depends on it: every comparison is by ``==``.
    """
    lowest, bar, centre = _mirror(datum, node)
    cells = sorted(lowest)
    base = [lowest[cell] for cell in cells]
    index = {cell: n for n, cell in enumerate(cells)}
    # tau is an involution of the cells: at[cell] is the index of tau(cell),
    # keyed by the pool's own cell objects
    at = {cell: index[bar[cell[0]], centre - cell[1]] for cell in cells}
    shared = [[(cell, m) for m in range(top + 1)] for cell, top in zip(cells, base)]

    def mirrored(row):
        level = []
        for items, mu in row:
            values = base.copy()
            for cell, m in items:
                values[at[cell]] -= m
            level.append(
                (tuple(compress(map(list.__getitem__, shared, values), values)), mu))
        level.sort(key=itemgetter(0))
        return level

    return dict(zip(cells, shared)), mirrored


def classical_character(qchar):
    """Pushforward of the multiplicities along the classical-weight shadow.

    Y_{k,0} prod A_{i,a}^{-v_i^a} has weight omega_k - sum_i (sum_a v_i^a) alpha_i.
    """
    datum = qchar.datum
    top = fundamental_weight(datum, qchar.anchor)
    alphas = [simple_root_weight_coords(datum, i) for i in datum.nodes]
    out = {}
    for items, mu in qchar._rows:
        weight = list(top)
        for (i, _), mult in items:
            for j, c in enumerate(alphas[i - 1]):
                weight[j] -= mult * c
        weight = tuple(weight)
        out[weight] = out.get(weight, 0) + mu
    return out
