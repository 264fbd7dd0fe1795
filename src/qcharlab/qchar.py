"""Iterative closure computing q-characters of fundamental modules.

Monomials are stored as anchored A-monomial vectors.  The closure processes
them in increasing A-height (sum of the vector entries), expanding every
node direction in which the monomial is dominant through the rank-one
string decomposition below.  Pending work is held in one level per height,
and a target goes straight into the level of its parent's height plus its
pattern's exponent sum.  Each level is keyed by Y(v), the target's
Y-exponents: they name v, because the A_{i,a} are algebraically
independent, and they have a few times fewer entries than v.  They are
carried, not expanded: a target's exponents are its parent's times the few
A^{-1} factors that produced it, read from the shared table of
:mod:`qcharlab.lweights`.  Each AMonomialVector is built once, when its
level is processed, and each level is processed in sorted order, so the
entries come out in the canonical order of :class:`QChar` without a sort
of their own.  Within a level the processing order is irrelevant, which
the determinism tests check by shuffling it.
"""

from __future__ import annotations

import json

from .cartan import fundamental_weight, lowest_weight_height, simple_root_weight_coords
from .conventions import CONVENTIONS_VERSION
from .errors import CapExceeded
from .lweights import AMonomialVector, _a_inverse_table, _accumulate

DEFAULT_MAX_MONOMIALS = 200000
# names the closure rule in cache keys, so no cache serves another rule's output
CLOSURE_REVISION = "fm-excess"


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

    ``entries`` is kept in canonical order, by A-height and then by the
    vectors' sorted entries, which is the order ``to_json_text`` writes.
    """

    def __init__(self, datum, anchor, entries):
        self.datum = datum
        self.anchor = anchor
        self.entries = dict(
            sorted(entries.items(), key=lambda kv: (kv[0].height(), kv[0].items()))
        )

    @classmethod
    def _trusted(cls, datum, anchor, entries):
        """The q-character of ``entries``, already in canonical order and not
        used after."""
        result = cls.__new__(cls)
        result.datum = datum
        result.anchor = anchor
        result.entries = entries
        return result

    def multiplicity(self, vec):
        return self.entries.get(vec, 0)

    def monomial_count(self):
        return len(self.entries)

    def total_multiplicity(self):
        return sum(self.entries.values())

    def max_height(self):
        return max(vec.height() for vec in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, QChar)
            and self.datum.label == other.datum.label
            and self.anchor == other.anchor
            and self.entries == other.entries
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
        "node", "type"}, built as text: the few distinct "[i,a,m]" cells are
        formatted once each, and no object tree is built.
        """
        cells = _Cells()
        rows = ",".join([
            f'{{"mu":{mu},"v":[{",".join(map(cells.__getitem__, vec.items()))}]}}'
            for vec, mu in self.entries.items()
        ])
        return (f'{{"conventions":{json.dumps(CONVENTIONS_VERSION)},'
                f'"entries":[{rows}],"node":{self.anchor},'
                f'"type":{json.dumps(self.datum.label)}}}')

    @classmethod
    def from_json_obj(cls, datum, obj):
        """The q-character of a parsed ``to_json_text``; entries keep their
        order, which the cache's checksum over that text vouches for."""
        entries = {}
        for item in obj["entries"]:
            vec = AMonomialVector(
                int(obj["node"]), {(int(i), int(a)): int(m) for i, a, m in item["v"]}
            )
            entries[vec] = int(item["mu"])
        return cls._trusted(datum, int(obj["node"]), entries)


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
    in height order, it starts new strings with the excess only.  Caps are
    hard errors (a truncated character would corrupt downstream checks); the
    height cap defaults to the exact bound ht(omega_k - w_0 omega_k).
    """
    if node not in datum.nodes:
        raise ValueError(f"node {node} not in {datum.label}")
    if max_height is None:
        max_height = lowest_weight_height(datum, node)
    table = _a_inverse_table(datum)
    # (d_i, shifted i-part) -> (pattern, coeff, rise) for its nonempty
    # sl2_expansion patterns, rise being the pattern's exponent sum
    shapes = {}
    entries = {}
    # levels[h]: key of Y(v) -> (v as a dict, Y(v), {direction: requirement})
    # for each pending v of A-height h
    top = {(node, 0): 1}
    levels = {0: {frozenset(top.items()): ({}, top, {0: 1})}}
    height = 0
    while levels:
        if height > max_height:
            raise CapExceeded(
                f"height cap {max_height} exceeded computing {datum.label} "
                f"node {node} ({len(entries)} monomials so far)",
                monomials=len(entries),
                height=height,
            )
        level = [
            (AMonomialVector._trusted(node, v), exps, requirement)
            for v, exps, requirement in levels.pop(height, {}).values()
        ]
        level.sort(key=lambda item: item[0].items())
        if shuffle_rng is not None:
            shuffle_rng.shuffle(level)
        for vec, exps, requirement in level:
            mu = max(requirement.values())
            entries[vec] = mu
            if len(entries) > max_monomials:
                raise CapExceeded(
                    f"monomial cap {max_monomials} exceeded computing "
                    f"{datum.label} node {node} at height {height}",
                    monomials=len(entries),
                    height=height,
                )
            parts = {}
            for (j, p), e in exps.items():
                parts.setdefault(j, {})[p] = e
            for i, part in parts.items():
                excess = mu - requirement.get(i, 0)
                # skip unless the monomial is i-dominant
                if not excess or min(part.values()) < 0:
                    continue
                # the expansion commutes with shifting the i-part, so it is
                # computed once per (d_i, i-part shifted to start at 0)
                low = min(part)
                key = (datum.di(i),
                       tuple(sorted((p - low, e) for p, e in part.items())))
                shape = shapes.get(key)
                if shape is None:
                    shape = shapes[key] = [
                        (tuple(pattern.items()), coeff, sum(pattern.values()))
                        for pattern, coeff in sl2_expansion(key[0], dict(key[1]))
                        if pattern  # the top term regenerates vec itself
                    ]
                for pattern, coeff, rise in shape:
                    target_exps = dict(exps)
                    for p, r in pattern:
                        _accumulate(target_exps, table[i, low + p], r)
                    # Y(target) names target and is the smaller key
                    target_key = frozenset(target_exps.items())
                    level_up = levels.setdefault(height + rise, {})
                    slot = level_up.get(target_key)
                    if slot is None:
                        target_v = vec.as_dict()
                        for p, r in pattern:
                            target_v[i, low + p] = target_v.get((i, low + p), 0) + r
                        slot = level_up[target_key] = (target_v, target_exps, {})
                    slot[2][i] = slot[2].get(i, 0) + excess * coeff
        height += 1
    return QChar._trusted(datum, node, entries)


def classical_character(qchar):
    """Pushforward of the multiplicities along the classical-weight shadow.

    Y_{k,0} prod A_{i,a}^{-v_i^a} has weight omega_k - sum_i (sum_a v_i^a) alpha_i.
    """
    datum = qchar.datum
    top = fundamental_weight(datum, qchar.anchor)
    alphas = [simple_root_weight_coords(datum, i) for i in datum.nodes]
    out = {}
    for vec, mu in qchar.entries.items():
        weight = list(top)
        for (i, _), mult in vec.items():
            for j, c in enumerate(alphas[i - 1]):
                weight[j] -= mult * c
        weight = tuple(weight)
        out[weight] = out.get(weight, 0) + mu
    return out
