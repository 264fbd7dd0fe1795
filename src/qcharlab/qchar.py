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
Every piece comes from the root datum, and nothing is expanded: one
lowering of omega_k gives both H and the word of ``cartan._lower`` from
omega_k to w_0 omega_k; v_low is the S-push of the zero vector along that
word (``braid._push_dims``, framing Y_{k,0}), with its parameters negated;
ibar is read off the one lowering w_0 x of the regular dominant
x = (1, 2, ..., r), which holds -i at ibar since w_0 omega_i = -omega_ibar;
and c is the smallest plus the largest parameter of v_low.  The mirror
starts every image from the codes of v_low, prebuilt once, and stores one
code per code of v at tau's cell, both read from lists indexed by code.

Pending work is held in one level per height, and a target goes straight
into the level of its parent's height plus its pattern's exponent sum;
targets above L are left to the mirror.  Each level is keyed by v packed
into one exact int, a field of H.bit_length() bits per (i, a): every entry
lies between 0 and the height, at most H, so no field carries into the next
and the key names v.  A target's key is its parent's plus a delta cached
per (i-part, pattern), so a target already pending costs one addition and
one lookup.  Y(v) is held as one part id per node, each naming an interned
(i, sorted (p, e) items) pair; a per-closure table tells per id whether the
part is not i-dominant, or else holds its targets, built on first use.  So
the dominance test is one list index per node, and the moves of a part are
found without a sort or a hash.  Each target carries, per node its A^{-r}
factors touch, the change there (read from the shared table of
:mod:`qcharlab.lweights`) and a map {old part id: new part id} shared by
every target with that change, filled the first time each transition is
used.  Only a new target gets its Y, its parent's list of ids with those
few swapped, and its codes: v's entries ((i, a), m) as their indices in the
character's pool, the flat list of every cell of v_low with m = 0 .. its
top in turn, in sorted order, so codes order as the entries do.  A
target's codes are its parent's with the pattern's few cells raised in
place, each found by bisecting ints and raised by adding r, every code
taken from one shared list of the pool's indices.  Entries only grow, so
the codes stay sorted and hold no m = 0.  The closure builds no
AMonomialVector and hashes no entry, and a pending v holds no dict but its
requirements: each height's (codes, mu) row, processed or mirrored, is
appended to one list, and each level is processed in the order of its
codes, so the rows come out in the canonical order of :class:`QChar`
without a sort of their own.
Within a level the processing order is irrelevant, which the determinism
tests check by shuffling it; a shuffled closure sorts its rows, so it
writes the same canonical text.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cached_property
from itertools import groupby, product
from operator import itemgetter

from .braid import _push_dims, unit_framing
from .cartan import _lower, fundamental_weight, simple_root_weight_coords
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
    string downward.  The full output is the product over strings, one
    pattern per choice of a term on each, multiplicities added when patterns
    collide, in ascending order of the sorted pattern.  The empty pattern
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

    # one term per pick of r = 0..l on each string: the top r positions of
    # the string, each shifted by d_i; picks whose patterns collide add up
    terms = Counter()
    for picks in product(*(range(len(string) + 1) for string in strings)):
        pattern = Counter(p + d_i for string, r in zip(strings, picks)
                          for p in string[len(string) - r:])
        terms[tuple(sorted(pattern.items()))] += 1
    return [(dict(key), mult) for key, mult in sorted(terms.items())]


class QChar:
    """A q-character: anchor node plus multiplicities over A-monomial vectors.

    It is stored as a pool and rows.  ``_pool`` is a sorted list of
    ((i, a), m) entries; ``_rows`` holds one (codes, mu) pair per monomial,
    codes being the indices in the pool of the sorted items of its
    A-vector, in canonical order: by A-height, then by items, which codes
    order as the entries do.  That is the order ``to_json_text`` writes and
    the order of ``entries``, the {AMonomialVector: mu} dict built on first
    read.  A character built from entries pools the entries they hold; the
    closure's pool is every entry below v_low (see :func:`_mirror_map`).
    """

    def __init__(self, datum, anchor, entries):
        self.datum = datum
        self.anchor = anchor
        self._pool = sorted({item for vec in entries for item in vec.items()})
        code = {item: n for n, item in enumerate(self._pool)}
        self._rows = sorted(
            ((tuple(map(code.__getitem__, vec.items())), mu)
             for vec, mu in entries.items()),
            key=_row_order(self._pool))

    @classmethod
    def _trusted(cls, datum, anchor, pool, rows):
        """The q-character of ``rows``, (codes, mu) pairs over ``pool``
        already in canonical order, with no two codes equal, and neither
        used after."""
        result = cls.__new__(cls)
        result.datum = datum
        result.anchor = anchor
        result._pool = pool
        result._rows = rows
        return result

    def _item_rows(self):
        """The (items, mu) of each row, items decoded as the pool's tuples."""
        decode = self._pool.__getitem__
        return [(tuple(map(decode, codes)), mu) for codes, mu in self._rows]

    @cached_property
    def entries(self):
        """{AMonomialVector: mu} in canonical order, one vector per row."""
        anchor = self.anchor
        return {AMonomialVector._make((anchor, items)): mu
                for items, mu in self._item_rows()}

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
        return _row_height(self._pool)(self._rows[-1])

    def __eq__(self, other):
        if not (isinstance(other, QChar)
                and self.datum.label == other.datum.label
                and self.anchor == other.anchor):
            return False
        return self._item_rows() == other._item_rows()

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
        never holds the whole text.  Each pool entry's "[i,a,m]" is
        formatted once, read by code, and no object tree is built.
        """
        yield f'{{"conventions":{json.dumps(CONVENTIONS_VERSION)},"entries":['
        texts = [f"[{i},{a},{m}]" for (i, a), m in self._pool]
        height = _row_height(self._pool)
        rows = self._rows
        start, lead = 0, ""
        while start < len(rows):
            end = bisect_right(rows, height(rows[start]), lo=start, key=height)
            yield lead + ",".join([
                f'{{"mu":{mu},"v":[{",".join(map(texts.__getitem__, codes))}]}}'
                for codes, mu in rows[start:end]
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


def _row_height(pool):
    """The A-height of a (codes, mu) row over ``pool``: the sum of its m."""
    values = list(map(itemgetter(1), pool))
    return lambda row: sum(map(values.__getitem__, row[0]))


def _row_order(pool):
    """The canonical sort key of a row over ``pool``: its height, then its
    codes."""
    height = _row_height(pool)
    return lambda row: (height(row), row[0])


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
    One lowering of omega_k gives both H and the word the mirror pushes.
    Y(v) is held as one part id per node (see :class:`_Parts`), so the
    dominance test is one list index per node and a new target's Y is its
    parent's list with the few ids its pattern changes swapped.  Caps are
    hard errors (a truncated character would corrupt downstream checks),
    raised where and as a closure over every height raises them; the height
    cap defaults to H.
    """
    datum.check_node(node)
    _, bound, word = _lower(datum, fundamental_weight(datum, node))
    if max_height is None:
        max_height = bound
    half = bound // 2
    pool, codes, spans, mirrored = _mirror_map(datum, node, word)
    # a pending v is keyed by its entries packed into one int, a field of
    # bound.bit_length() bits per cell of v_low: every v lies below v_low,
    # and no entry passes the height, so no field carries into the next and
    # the key names v
    width = bound.bit_length()
    offsets = {cell: n * width for n, cell in enumerate(spans)}
    table = _a_inverse_table(datum)
    parts = _Parts()
    built = parts.targets
    # (d_i, shifted i-part) -> its nonempty sl2_expansion patterns;
    # (j, change at node j) -> {old part id: new part id}
    shapes = {}
    steps = {}
    anchor_y = [parts.intern(i, ((0, 1),) if i == node else ())
                for i in datum.nodes]
    # (v as its codes, mu) for each v, by height and then by codes
    rows = []
    # closed[h]: the part of rows of A-height h <= half
    closed = []
    # levels[h]: key of v -> (v as its codes, key, Y(v) as part ids,
    # {direction: requirement}) for each pending v of A-height h <= half
    levels = [{} for _ in range(half + 1)]
    levels[0][0] = ((), 0, anchor_y, {0: 1})
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
            level = sorted(levels[height].values(), key=itemgetter(0))
            levels[height] = None
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
        for (items, key, y, requirement), (_, mu) in zip(level, row):
            for i, part in enumerate(y, 1):
                targets = built[part]
                # skip unless the monomial is i-dominant
                if targets is False:
                    continue
                excess = mu - requirement.get(i, 0)
                if not excess:
                    continue
                if targets is None:
                    targets = built[part] = _moves(
                        datum, table, shapes, steps, offsets, spans,
                        *parts.keys[part])
                for rise, delta, coeff, raises, changes in targets:
                    if rise > room:
                        break  # the mirror gives this target and the rest
                    level_up = levels[height + rise]
                    target = key + delta
                    slot = level_up.get(target)
                    if slot is None:
                        y_up = list(y)
                        for j, change, moved in changes:
                            old = y_up[j]
                            new = moved.get(old)
                            if new is None:
                                new = moved[old] = _shift(parts, old, change)
                            y_up[j] = new
                        slot = level_up[target] = (
                            _raised(items, raises, codes), target, y_up, {})
                    slot[3][i] = slot[3].get(i, 0) + excess * coeff
    if shuffle_rng is not None:  # a shuffled level leaves its height out of order
        rows.sort(key=_row_order(pool))
    return QChar._trusted(datum, node, pool, rows)


class _Parts:
    """The interned node parts of one closure.

    A part id names one (i, part) pair, ``part`` being the sorted (p, e)
    items of Y(v) at node i: ``ids`` maps the pair to its id and ``keys``
    the id back to the pair.  ``targets[id]`` is False when no v with that
    part is i-dominant (the part is empty or has an exponent below 0), None
    while the targets of a dominant part are not built, and then the list
    :func:`_moves` builds.  Equal Y(v) are one list of ids, whichever parent
    reached v first.
    """

    __slots__ = ("ids", "keys", "targets")

    def __init__(self):
        self.ids = {}
        self.keys = []
        self.targets = []

    def intern(self, i, part):
        """The id of (i, part), interned on first use."""
        key = (i, part)
        found = self.ids.get(key)
        if found is None:
            found = self.ids[key] = len(self.keys)
            self.keys.append(key)
            self.targets.append(
                False if not part or min(map(itemgetter(1), part)) < 0 else None)
        return found


def _shift(parts, old, change):
    """The id of part ``old`` times ``change``, (p, e) items at its node."""
    i, part = parts.keys[old]
    return parts.intern(i, tuple(sorted(_accumulate(dict(part), change).items())))


def _moves(datum, table, shapes, steps, offsets, spans, i, part):
    """The targets of the i-part ``part`` (sorted (a, exponent) pairs), by rise.

    One (rise, delta, coeff, raises, changes) per nonempty ``sl2_expansion``
    pattern: ``raises`` the (start, top, r) per cell the pattern raises by
    r, start and top being the codes of the cell's m = 0 and of its top
    (``spans``, see :func:`_mirror_map`), ``rise`` the sum of the r,
    ``delta`` what they add to a packed key (``offsets`` maps a cell to its
    field), and ``changes`` what their A^{-r} factors multiply into Y(v):
    one (j - 1, change, moved) per node j they touch, ``change`` the (p, e)
    items at j and ``moved`` the {old part id: new part id} that ``steps``
    shares among every target with that change at j, filled on first use.
    The expansion commutes with shifting the i-part, so it is asked once
    per (d_i, i-part shifted to start at 0).
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
        raises = []
        delta = 0
        change = {}
        for p, r in pattern:
            cell = (i, low + p)
            raises.append((*spans[cell], r))
            delta += r << offsets[cell]
            _accumulate(change, table[cell], r)
        changes = []
        for j, group in groupby(sorted(change.items()),
                                key=lambda item: item[0][0]):
            items = tuple((p, e) for (_, p), e in group)
            changes.append((j - 1, items, steps.setdefault((j, items), {})))
        targets.append((sum(r for _, r in pattern), delta, coeff,
                        tuple(raises), tuple(changes)))
    targets.sort(key=itemgetter(0))
    return targets


def _raised(items, raises, codes):
    """The codes of v raised by r at each (start, top, r) of ``raises``.

    A cell's codes run from start (its m = 0, never in a row) to top, so
    bisecting for start finds the cell's code if v holds one.  Each new
    code is taken from ``codes``, the pool's shared indices, never built.
    Entries only grow, so no m = 0 appears and the result stays canonical.
    """
    raised = list(items)
    for start, top, r in raises:
        at = bisect_left(raised, start)
        if at < len(raised) and raised[at] <= top:
            raised[at] = codes[raised[at] + r]
        else:
            raised.insert(at, codes[start + r])
    return tuple(raised)


def _mirror(datum, node, word):
    """(v_low, bar, c): the data of the mirror v -> v_low - tau(v).

    v_low is the vector of the lowest monomial Y_{kbar,c}^{-1}, the S-push of
    the anchor along ``word``, the word of ``cartan._lower`` from omega_k to
    w_0 omega_k, on dimension vectors (zero v, framing Y_{k,0}), with its
    parameters negated.  bar maps each node i to ibar, where
    w_0 omega_i = -omega_ibar: x = (1, 2, ..., r) is regular dominant, so
    its one lowering is w_0 x = -sum_i i omega_ibar, which holds -i at ibar.
    c = r^v h^v is the smallest plus the largest parameter of v_low.
    tau(i, a) = (ibar, c - a).  V(omega_k)* is again fundamental, so the
    q-character is invariant under v -> v_low - tau(v), multiplicities
    included, which sends height h to H - h.
    """
    dims = _push_dims(datum, word, {}, unit_framing(node))
    lowest = {(i, -a): m for (i, a), m in dims.items()}
    lowered = _lower(datum, tuple(datum.nodes))[0]
    bar = {-x: j for j, x in enumerate(lowered, 1)}
    params = [a for _, a in lowest]
    return lowest, bar, min(params) + max(params)


def _mirror_map(datum, node, word):
    """The character's pool, its codes, the span of each cell, and the map
    from the (codes, mu) of a height h to those of height H - h, sorted by
    codes.

    Every v lies below v_low: v_low - tau(v) lies in the cone, and tau fixes
    v_low.  So every entry ((i, a), m) of every v is found in the pool, the
    list of each cell (i, a) of v_low, in sorted order, with m = 0 .. v_low's
    entry in turn, one tuple per entry over one cell object.  An entry's
    code is its index there, and ``codes`` holds every code once, so rows
    share their int objects.  ``spans`` maps each cell, in order, to the
    codes of its m = 0 and of its top.  Three lists are built once: the
    codes of v_low, its top entries in cell order, and, indexed by code,
    the index of tau of the code's cell and the code's image there, v_low's
    entry minus its own, or None where that is 0.  Each image is then a
    copy of v_low's codes with one store per code of v, None dropped.
    """
    lowest, bar, centre = _mirror(datum, node, word)
    cells = sorted(lowest)
    pool = [(cell, m) for cell in cells for m in range(lowest[cell] + 1)]
    codes = list(range(len(pool)))
    spans = {}
    start = 0
    for cell in cells:
        spans[cell] = (codes[start], codes[start + lowest[cell]])
        start += lowest[cell] + 1
    full = [top for _, top in spans.values()]
    index = {cell: n for n, cell in enumerate(cells)}
    # tau fixes v_low, so a cell and tau of it have the same top
    taus = []
    images = []
    for cell, m in pool:
        at = index[bar[cell[0]], centre - cell[1]]
        taus.append(at)
        images.append(codes[full[at] - m] if m < lowest[cell] else None)

    def mirrored(row):
        level = []
        for items, mu in row:
            values = full.copy()
            for code in items:
                values[taus[code]] = images[code]
            # code 0 holds m = 0, so dropping it with None drops no entry
            level.append((tuple(filter(None, values)), mu))
        level.sort(key=itemgetter(0))
        return level

    return pool, codes, spans, mirrored


def classical_character(qchar):
    """Pushforward of the multiplicities along the classical-weight shadow.

    Y_{k,0} prod A_{i,a}^{-v_i^a} has weight omega_k - sum_i (sum_a v_i^a) alpha_i.
    """
    datum = qchar.datum
    top = fundamental_weight(datum, qchar.anchor)
    alphas = [simple_root_weight_coords(datum, i) for i in datum.nodes]
    out = {}
    for items, mu in qchar._item_rows():
        weight = list(top)
        for (i, _), mult in items:
            for j, c in enumerate(alphas[i - 1]):
                weight[j] -= mult * c
        weight = tuple(weight)
        out[weight] = out.get(weight, 0) + mu
    return out
