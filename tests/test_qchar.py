import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qcharlab import lweights
from qcharlab.braid import unit_framing
from qcharlab.cartan import (
    _lower,
    build_cartan,
    fundamental_weight,
    reflect_weight,
    weyl_elements,
)
from qcharlab.cli import _canonical_json
from qcharlab.errors import CapExceeded
from qcharlab.lweights import (
    AMonomialVector,
    LaurentMonomial,
    classical_weight,
    expand_to_y,
)
from qcharlab.qchar import (
    QChar,
    _mirror,
    _mirror_map,
    _raised,
    classical_character,
    fm_qchar,
    sl2_expansion,
)

from helpers import (
    apply_s_on_v,
    fm_qchar_by_expansion,
    i_dominant,
    in_cone,
    lowest_weight_height,
    perfbench_module,
    qchar_json_obj,
    sorted_entries,
    times,
)

Y = LaurentMonomial.y

ORACLE_LABELS = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                 "D4", "G2", "F4"]


def vec(anchor, *entries):
    return AMonomialVector(anchor, {(i, a): m for i, a, m in entries})


# ---------------------------------------------------------------------------
# dominance and the rank-one generator


def test_i_dominant():
    datum = build_cartan("A2")
    assert i_dominant(datum, Y(1, 0), 1)
    assert not i_dominant(datum, Y(1, 2, -1), 1)
    assert i_dominant(datum, times(Y(1, 2, -1), Y(2, 1)), 2)
    assert i_dominant(datum, Y(2, 1), 1)  # empty i-part counts as dominant


def test_sl2_expansion_singleton():
    assert sl2_expansion(1, {0: 1}) == [({}, 1), ({1: 1}, 1)]


def test_sl2_expansion_empty():
    assert sl2_expansion(1, {}) == [({}, 1)]


def test_sl2_expansion_string_of_two():
    terms = sl2_expansion(1, {0: 1, 2: 1})
    assert sorted(terms, key=lambda t: sorted(t[0].items())) == [
        ({}, 1),
        ({1: 1, 3: 1}, 1),
        ({3: 1}, 1),
    ]


def test_sl2_expansion_repeated_parameter():
    # {0,0} splits into two singleton strings; the middle term collides
    terms = dict()
    for pattern, mult in sl2_expansion(1, {0: 2}):
        terms[tuple(sorted(pattern.items()))] = mult
    assert terms == {(): 1, ((1, 1),): 2, ((1, 2),): 1}


def test_sl2_expansion_respects_step():
    # with d_i = 2 the string step is 4 and the lowering parameters shift by 2
    assert sl2_expansion(2, {0: 1}) == [({}, 1), ({2: 1}, 1)]
    terms = sl2_expansion(2, {0: 1, 4: 1})
    assert ({6: 1, 2: 1}, 1) in terms and len(terms) == 3


def test_sl2_expansion_long_node_of_g2():
    # d_i = 3: {0, 6} is one string of step 6 and {2} another, lowered at +3
    assert sl2_expansion(3, {0: 1, 2: 1, 6: 1}) == [
        ({}, 1),
        ({3: 1, 5: 1, 9: 1}, 1),
        ({3: 1, 9: 1}, 1),
        ({5: 1}, 1),
        ({5: 1, 9: 1}, 1),
        ({9: 1}, 1),
    ]


def test_sl2_expansion_strings_of_two_lengths_collide():
    # {0, 0, 2} splits into {0, 2} and {0}; {3} times {1} meets {1, 3} times {}
    assert sl2_expansion(1, {0: 2, 2: 1}) == [
        ({}, 1),
        ({1: 1}, 1),
        ({1: 1, 3: 1}, 2),
        ({1: 2, 3: 1}, 1),
        ({3: 1}, 1),
    ]


def test_sl2_expansion_rejects_negative_multiplicities():
    with pytest.raises(ValueError):
        sl2_expansion(1, {0: -1})


# ---------------------------------------------------------------------------
# the closure on fundamental modules


def test_a1_fundamental_exact():
    datum = build_cartan("A1")
    q = fm_qchar(datum, 1)
    assert q.entries == {vec(1): 1, vec(1, (1, 1, 1)): 1}


def test_a2_fundamental_exact():
    datum = build_cartan("A2")
    q = fm_qchar(datum, 1)
    assert q.entries == {
        vec(1): 1,
        vec(1, (1, 1, 1)): 1,
        vec(1, (1, 1, 1), (2, 2, 1)): 1,
    }


def test_bad_node_rejected():
    with pytest.raises(ValueError):
        fm_qchar(build_cartan("A2"), 3)


def test_caps_are_hard_errors():
    datum = build_cartan("B2")
    with pytest.raises(CapExceeded) as info:
        fm_qchar(datum, 2, max_monomials=2)
    assert info.value.diagnostics["monomials"] >= 2
    with pytest.raises(CapExceeded):
        fm_qchar(datum, 2, max_height=1)


def _expected_cap_error(label, node, counts, max_monomials, max_height):
    """The (message, diagnostics) of the first cap a closure over every
    height trips, from the monomial count of each height: the height cap at
    max_height + 1, the monomial cap at the first height whose running count
    passes it; None if neither trips."""
    total = 0
    for height, count in enumerate(counts):
        if height > max_height:
            return (f"height cap {max_height} exceeded computing {label} node "
                    f"{node} ({total} monomials so far)",
                    {"monomials": total, "height": height})
        total += count
        if total > max_monomials:
            return (f"monomial cap {max_monomials} exceeded computing {label} "
                    f"node {node} at height {height}",
                    {"monomials": max_monomials + 1, "height": height})
    return None


def _cap_error(datum, node, **caps):
    try:
        fm_qchar(datum, node, **caps)
    except CapExceeded as exc:
        return str(exc), exc.diagnostics
    return None


def _level_counts(q):
    counts = [0] * (q.max_height() + 1)
    for vec in q.entries:
        counts[vec.height()] += 1
    return counts


@pytest.mark.parametrize("label,node", [
    ("B2", 2), ("G2", 2), ("C3", 2), ("F4", 1), ("E6", 1),
])
def test_caps_trip_where_the_full_closure_trips_them(label, node):
    # the closure stops at half the height and mirrors the rest, yet a cap
    # reports what a closure over every height reports: both caps, every
    # height cap below H, every monomial count, and the two together
    datum = build_cartan(label)
    counts = _level_counts(fm_qchar_by_expansion(datum, node))
    bound = lowest_weight_height(datum, node)
    assert len(counts) == bound + 1
    total = sum(counts)
    for max_height in range(bound + 2):
        expected = _expected_cap_error(label, node, counts, total, max_height)
        assert (expected is None) == (max_height >= bound)
        assert _cap_error(datum, node, max_height=max_height) == expected
    for max_monomials in range(1, total + 2):
        for max_height in (bound // 2, bound - 1, bound):
            expected = _expected_cap_error(label, node, counts, max_monomials,
                                           max_height)
            assert _cap_error(datum, node, max_monomials=max_monomials,
                              max_height=max_height) == expected
        expected = _expected_cap_error(label, node, counts, max_monomials, bound)
        assert (expected is None) == (max_monomials >= total)
        assert _cap_error(datum, node, max_monomials=max_monomials) == expected


def test_caps_in_the_mirrored_half_on_e6_node_4():
    # H = 42: both caps trip above 21, where the closure stops and the
    # mirror gives every height
    datum = build_cartan("E6")
    assert lowest_weight_height(datum, 4) == 42
    assert _cap_error(datum, 4, max_height=41) == (
        "height cap 41 exceeded computing E6 node 4 (2924 monomials so far)",
        {"monomials": 2924, "height": 42})
    assert _cap_error(datum, 4, max_monomials=2000) == (
        "monomial cap 2000 exceeded computing E6 node 4 at height 24",
        {"monomials": 2001, "height": 24})


@pytest.mark.parametrize(
    "label,node,size",
    [("B2", 1, 4), ("B2", 2, 5), ("C2", 1, 5), ("C2", 2, 4),
     ("G2", 1, 7), ("G2", 2, 15), ("A3", 2, 6)],
)
def test_known_sizes(label, node, size):
    q = fm_qchar(build_cartan(label), node)
    assert q.monomial_count() == size
    assert q.total_multiplicity() == size


def test_e8_node_1_totals():
    # 3875 + 248 + 1: the dimension of the E8 fundamental module at node 1,
    # with maximum A-height 92 = ht(omega_1 - w_0 omega_1), the default cap
    q = fm_qchar(build_cartan("E8"), 1)
    assert q.monomial_count() == 3875
    assert q.total_multiplicity() == 4124
    assert q.max_height() == 92


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2", "D4"])
def test_structural_invariants(label):
    datum = build_cartan(label)
    for node in datum.nodes:
        q = fm_qchar(datum, node)
        assert q.multiplicity(AMonomialVector(node)) == 1
        for v, mu in q.entries.items():
            assert mu >= 1
            assert in_cone(v)
        _assert_w_invariant(q)


def _assert_w_invariant(q):
    # Weyl invariance of the restricted character
    character = classical_character(q)
    for i in q.datum.nodes:
        reflected = {
            reflect_weight(q.datum, i, weight): mult
            for weight, mult in character.items()
        }
        assert reflected == character, (q, i)


@pytest.fixture(scope="module")
def reference():
    """perfbench/reference.py: values from Dynkin data alone, no qcharlab call."""
    return perfbench_module("reference")


@pytest.mark.parametrize("label,node", [
    *((label, node) for label in ["A1", "A2", "A3", "A4", "B2", "C2", "C3",
                                 "C4", "G2"]
      for node in build_cartan(label).nodes),
    ("D4", 2),
])
def test_total_multiplicity_is_the_kr_dimension(reference, label, node):
    q = fm_qchar(build_cartan(label), node)
    assert q.total_multiplicity() == reference.kr_dimension(label, node)
    _assert_w_invariant(q)


# every node of A1-A6, D4-D6 and E6 (E6/4 holds 2925 monomials), then
# qchar-closure's E7/6, D8/4 and E8/1 (1539, 1820 and 3875)
WEYL_DIMENSION_CASES = [
    *((label, node) for label in ["A1", "A2", "A3", "A4", "A5", "A6", "D4",
                                 "D5", "D6", "E6"]
      for node in build_cartan(label).nodes),
    ("E7", 6), ("D8", 4), ("E8", 1),
]


@pytest.mark.parametrize("label,node", WEYL_DIMENSION_CASES)
def test_monomial_count_is_the_weyl_dimension(reference, label, node):
    # an observed fact in types A, D and E, pinned here and not claimed as a
    # theorem: B, C, F and G are left out, where it can fail
    q = fm_qchar(build_cartan(label), node)
    datum = reference.RootDatum(label)
    omega = tuple(int(j == node) for j in range(1, datum.rank + 1))
    assert q.monomial_count() == datum.weyl_dimension(omega)


@pytest.mark.parametrize(
    "label,node,total",
    [("F4", 1, 26), ("F4", 2, 299), ("F4", 3, 1703), ("F4", 4, 53),
     ("E6", 4, 3732)],
)
def test_closure_starts_strings_with_the_excess_only(label, node, total):
    # expanding with the full multiplicity instead of the excess over the
    # strings already through a monomial broke W-invariance on these nodes
    q = fm_qchar(build_cartan(label), node)
    _assert_w_invariant(q)
    assert q.total_multiplicity() == total


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "F4"],
)
def test_height_bound_is_attained(label):
    datum = build_cartan(label)
    for node in datum.nodes:
        bound = lowest_weight_height(datum, node)
        assert fm_qchar(datum, node).max_height() == bound, node


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_connectedness(label):
    # every non-anchor monomial is one lowering step above another member
    datum = build_cartan(label)
    for node in datum.nodes:
        q = fm_qchar(datum, node)
        for v in q.entries:
            if v.height() == 0:
                continue
            parents = []
            for (i, a), mult in v.items():
                if mult > 0:
                    parent = v.add_entries({(i, a): -1})
                    if parent in q.entries:
                        parents.append(parent)
            assert parents, (label, node, v)


@pytest.mark.parametrize("label", ["A4", "B4", "C4", "D4", "F4"])
def test_rank_four_terminates_within_default_caps(label):
    datum = build_cartan(label)
    for node in datum.nodes:
        q = fm_qchar(datum, node)
        assert q.monomial_count() >= 1


def test_d4_adjoint_slot_carries_multiplicity_two():
    q = fm_qchar(build_cartan("D4"), 2)
    assert q.total_multiplicity() == q.monomial_count() + 1
    assert max(q.entries.values()) == 2


@pytest.mark.parametrize("label,node", [
    ("A1", 1), ("B2", 2), ("G2", 2), ("C3", 2), ("F4", 3), ("E6", 4),
])
def test_max_height_is_the_highest_entry(label, node):
    # read off the last entry, against a scan over every entry
    datum = build_cartan(label)
    computed = [fm_qchar(datum, node),
                fm_qchar(datum, node, shuffle_rng=random.Random(label))]
    items = list(computed[0].entries.items())
    random.Random(node).shuffle(items)
    computed.append(QChar(datum, node, dict(items)))
    computed.append(QChar.from_json_obj(datum, json.loads(computed[0].to_json_text())))
    for q in computed:
        assert q.max_height() == max(vec.height() for vec in q.entries)


def test_max_height_of_an_empty_character_is_an_error():
    with pytest.raises(ValueError):
        QChar(build_cartan("A2"), 1, {}).max_height()


def test_shuffled_processing_order_is_irrelevant():
    for label, node in [("B2", 2), ("G2", 2), ("C3", 2)]:
        datum = build_cartan(label)
        reference = fm_qchar(datum, node)
        for seed in range(3):
            shuffled = fm_qchar(datum, node, shuffle_rng=random.Random(seed))
            assert shuffled.entries == reference.entries


@pytest.mark.parametrize("label,node", [("C3", 2), ("D4", 1), ("G2", 2), ("F4", 1)])
def test_shuffled_closure_writes_the_canonical_text(label, node):
    # a character that compares equal must write the same bytes, however its
    # levels were processed
    datum = build_cartan(label)
    text = fm_qchar(datum, node).to_json_text()
    for seed in range(2):
        shuffled = fm_qchar(datum, node, shuffle_rng=random.Random(seed))
        assert shuffled.to_json_text() == text


# ---------------------------------------------------------------------------
# the carried Y-exponents against the closure that expands every monomial


@pytest.mark.parametrize("label,node", [
    *((label, node) for label in ORACLE_LABELS
      for node in build_cartan(label).nodes),
    ("E6", 4),
    # the benchmark's other four qchar-closure cases
    ("E8", 1), ("C8", 3), ("E7", 6), ("D8", 4),
    # ibar != i outside ORACLE_LABELS
    ("D5", 4), ("E6", 1),
])
def test_closure_matches_the_expansion_oracle(label, node):
    datum = build_cartan(label)
    assert fm_qchar(datum, node) == fm_qchar_by_expansion(datum, node)


@pytest.mark.parametrize("label,node", [("B2", 2), ("G2", 2), ("C3", 2), ("F4", 3)])
def test_shuffled_closure_matches_the_expansion_oracle(label, node):
    # the carried exponents come from whichever parent reaches a vector first
    datum = build_cartan(label)
    expected = fm_qchar_by_expansion(datum, node)
    for seed in range(3):
        assert fm_qchar(datum, node, shuffle_rng=random.Random(seed)) == expected
        assert fm_qchar_by_expansion(
            datum, node, shuffle_rng=random.Random(seed)
        ) == expected


# ---------------------------------------------------------------------------
# the mirror v -> v_low - tau(v) that gives every height above half

# r^v h^v, the lacing number times the dual Coxeter number, by family
_CENTRES = {"A": lambda n: n + 1, "B": lambda n: 2 * (2 * n - 1),
            "C": lambda n: 2 * (n + 1), "D": lambda n: 2 * n - 2,
            "E": lambda n: {6: 12, 7: 18, 8: 30}[n], "F": lambda n: 18,
            "G": lambda n: 12}


@pytest.mark.parametrize("label,node", [
    (label, node) for label in ORACLE_LABELS for node in build_cartan(label).nodes
])
def test_the_oracle_is_invariant_under_the_mirror(label, node):
    datum = build_cartan(label)
    q = fm_qchar_by_expansion(datum, node)
    lowest, bar, centre = _mirror_of(datum, node)
    bound = lowest_weight_height(datum, node)
    for vec, mu in q.entries.items():
        image = dict(lowest)
        for (i, a), m in vec.items():
            image[bar[i], centre - a] = image.get((bar[i], centre - a), 0) - m
        image = AMonomialVector(node, image)
        assert image.height() == bound - vec.height()
        assert q.multiplicity(image) == mu, (vec, image)


def _mirror_of(datum, node):
    # the mirror data, pushed along the word that lowers omega_node
    return _mirror(datum, node, _lower(datum, fundamental_weight(datum, node))[2])


def _longest_element(datum):
    return max(weyl_elements(datum), key=lambda element: element.length)


# with D5 and E6, every kind of nontrivial ibar: A_n, D_n for odd n, and E6
@pytest.mark.parametrize("label", ORACLE_LABELS + ["D5", "E6"])
def test_the_mirror_data_come_from_the_root_datum(label):
    datum = build_cartan(label)
    longest = _longest_element(datum)
    family, rank = label[0], int(label[1:])
    for node in datum.nodes:
        lowest, bar, centre = _mirror_of(datum, node)
        # v_low is the lowest entry of the oracle, the S-push of the anchor
        # along a reduced word of w_0 with its parameters negated, and the
        # vector of Y_{kbar,c}^{-1}
        q = fm_qchar_by_expansion(datum, node)
        assert next(reversed(q.entries)).as_dict() == lowest
        pushed = AMonomialVector(node)
        for i in longest.word:
            pushed = apply_s_on_v(datum, i, pushed, unit_framing(node))
        assert {(i, -a): m for (i, a), m in pushed.items()} == lowest
        assert expand_to_y(datum, AMonomialVector(node, lowest)) == Y(
            bar[node], centre, -1)
        assert centre == _CENTRES[family](rank)
        # kbar is the -w_0 involution: w_0 omega_i = -omega_ibar, and it is a
        # symmetry of the Dynkin diagram
        for i in datum.nodes:
            weight = fundamental_weight(datum, i)
            for j in longest.word:
                weight = reflect_weight(datum, j, weight)
            assert weight == tuple(-x for x in fundamental_weight(datum, bar[i]))
            assert bar[bar[i]] == i
            for j in datum.nodes:
                assert datum.c(bar[i], bar[j]) == datum.c(i, j)


def test_closure_never_expands_a_monomial(monkeypatch):
    datum = build_cartan("F4")
    expected = fm_qchar_by_expansion(datum, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the closure expanded a monomial")

    # expand_to_y is the one expansion of a vector into Y variables left in
    # the program: the per-factor A^{-1} expansion and the braid operators
    # built on it live in the tests' oracle, which the program never imports
    real = lweights.expand_to_y
    for module in list(sys.modules.values()):
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, refuse)
    assert fm_qchar(datum, 1) == expected


def test_closure_builds_each_vector_once(monkeypatch):
    # the closure keys pending work by v packed into one int and builds no
    # AMonomialVector at all: the character keeps each v as its sorted items,
    # and the first read of entries makes one vector per monomial, never by
    # extending a parent
    datum = build_cartan("F4")
    expected = fm_qchar_by_expansion(datum, 1)
    built = []
    real_new = AMonomialVector.__new__
    real_make = AMonomialVector._make.__func__

    def refuse(*args, **kwargs):
        raise AssertionError("the closure extended a vector")

    def counting_new(cls, *args):
        built.append(args)
        return real_new(cls, *args)

    def counting_make(cls, *args):
        built.append(args)
        return real_make(cls, *args)

    # the public constructor and the trusted one are the only ways to a vector
    monkeypatch.setattr(AMonomialVector, "add_entries", refuse)
    monkeypatch.setattr(AMonomialVector, "__new__", staticmethod(counting_new))
    monkeypatch.setattr(AMonomialVector, "_make", classmethod(counting_make))
    q = fm_qchar(datum, 1)
    assert built == []
    entries = q.entries
    assert len(built) == q.monomial_count()
    assert q.entries is entries
    assert len(built) == q.monomial_count()
    monkeypatch.undo()
    assert q == expected


@pytest.mark.parametrize("label,node", [
    ("A3", 2), ("C3", 3), ("D4", 1), ("G2", 2), ("F4", 1), ("E6", 1),
])
def test_closure_vectors_match_the_public_constructor(label, node):
    # the closure hands AMonomialVector._make each v as sorted items, with
    # no sort of its own, so each must be the vector the constructor makes
    datum = build_cartan(label)
    for rng in (None, random.Random(label)):
        for vec in fm_qchar(datum, node, shuffle_rng=rng).entries:
            v = vec.as_dict()
            assert vec.items() == tuple(sorted(v.items()))
            public = AMonomialVector(node, v)
            assert vec == public
            assert hash(vec) == hash(public)


@pytest.mark.parametrize("label,node", [
    ("A3", 2), ("B3", 1), ("C3", 3), ("D4", 1), ("G2", 2), ("F4", 4), ("E6", 1),
])
def test_closure_entry_order_is_canonical(label, node):
    # the verifier numbers its columns by list(qchar.entries), so a computed
    # character and one read back from its qchar --out text must list them alike
    datum = build_cartan(label)
    q = fm_qchar(datum, node)
    order = list(q.entries)
    assert order == [v for v, _ in sorted_entries(q)]
    read = QChar.from_json_obj(datum, json.loads(q.to_json_text()))
    assert list(read.entries) == order


@pytest.mark.parametrize("label,node", [("F4", 3), ("C4", 2), ("G2", 1)])
def test_closure_expands_each_shifted_part_once(monkeypatch, label, node):
    # sl2_expansion commutes with shifting its multiset, so one closure asks
    # it once per (d_i, multiset shifted to start at 0)
    from qcharlab import qchar

    datum = build_cartan(label)
    expected = fm_qchar_by_expansion(datum, node)
    asked = []

    def counting(d_i, multiset):
        asked.append((d_i, min(multiset), tuple(sorted(multiset.items()))))
        return sl2_expansion(d_i, multiset)

    monkeypatch.setattr(qchar, "sl2_expansion", counting)
    assert fm_qchar(datum, node) == expected
    assert asked and len(asked) == len(set(asked))
    assert {low for _, low, _ in asked} == {0}


@pytest.mark.parametrize("label,node", [("F4", 3), ("C4", 2), ("G2", 1)])
def test_closure_builds_each_part_and_transition_once(monkeypatch, label, node):
    # Y(v) is one interned part id per node: the targets of a part are built
    # once per closure, and a part times one change at its node is computed
    # once, then read off the change's {old id: new id} map
    from qcharlab import qchar

    datum = build_cartan(label)
    expected = fm_qchar_by_expansion(datum, node)
    built, shifted = [], []
    real_moves, real_shift = qchar._moves, qchar._shift

    def counting_moves(*args):
        built.append(args[-2:])
        return real_moves(*args)

    def counting_shift(parts, old, change):
        shifted.append((parts.keys[old], change))
        return real_shift(parts, old, change)

    monkeypatch.setattr(qchar, "_moves", counting_moves)
    monkeypatch.setattr(qchar, "_shift", counting_shift)
    assert fm_qchar(datum, node) == expected
    assert built and len(built) == len(set(built))
    assert shifted and len(shifted) == len(set(shifted))


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_classical_character_matches_the_expanded_weights(label):
    datum = build_cartan(label)
    for node in datum.nodes:
        q = fm_qchar(datum, node)
        expected = {}
        for vec, mu in q.entries.items():
            weight = classical_weight(datum, expand_to_y(datum, vec))
            expected[weight] = expected.get(weight, 0) + mu
        assert classical_character(q) == expected, node


def test_classical_character_examples():
    a1 = build_cartan("A1")
    assert classical_character(fm_qchar(a1, 1)) == {(1,): 1, (-1,): 1}
    a2 = build_cartan("A2")
    assert classical_character(fm_qchar(a2, 1)) == {
        (1, 0): 1,
        (-1, 1): 1,
        (0, -1): 1,
    }


def test_g2_adjoint_has_a_multiplicity_two_weight():
    # the long-node module of G2 restricts with a two-dimensional zero weight
    q = fm_qchar(build_cartan("G2"), 2)
    character = classical_character(q)
    assert character[(0, 0)] == 3  # adjoint zero space (2) plus the trivial summand


def test_json_round_trip_and_sorting():
    datum = build_cartan("B2")
    q = fm_qchar(datum, 2)
    obj = json.loads(q.to_json_text())
    assert obj["type"] == "B2" and obj["node"] == 2
    heights = [sum(m for _, _, m in entry["v"]) for entry in obj["entries"]]
    assert heights == sorted(heights)
    assert QChar.from_json_obj(datum, obj) == q


def test_a_text_of_another_type_or_conventions_is_refused():
    # A2/1 read with the B2 datum once gave a B2 character of 3 monomials,
    # and a text under other conventions was written back under these
    obj = json.loads(fm_qchar(build_cartan("A2"), 1).to_json_text())
    with pytest.raises(ValueError, match="type is 'A2', not 'B2'"):
        QChar.from_json_obj(build_cartan("B2"), obj)
    obj["conventions"] = "other"
    with pytest.raises(ValueError, match="conventions is 'other', not "):
        QChar.from_json_obj(build_cartan("A2"), obj)


@pytest.mark.parametrize("label,node", [("A2", 1), ("B2", 2), ("F4", 3)])
def test_a_file_in_any_order_reads_back_canonical(label, node):
    # nothing vouches for the order of a file's entries or of their cells,
    # so the reader sorts both and writes the canonical text back
    datum = build_cartan(label)
    q = fm_qchar(datum, node)
    text = q.to_json_text()
    obj = json.loads(text)
    obj["entries"].reverse()
    for entry in obj["entries"]:
        entry["v"].reverse()
    read = QChar.from_json_obj(datum, obj)
    assert read == q
    assert list(read.entries) == list(q.entries)
    assert read.to_json_text() == text


@pytest.mark.parametrize("label", ORACLE_LABELS + ["D5", "E6"])
def test_json_text_is_the_canonical_json_of_the_object_tree(label):
    datum = build_cartan(label)
    for node in datum.nodes:
        q = fm_qchar(datum, node)
        assert q.to_json_text() == _canonical_json(qchar_json_obj(q))[:-1], node


@pytest.mark.parametrize("label,node", [("B3", 1), ("G2", 2), ("F4", 3)])
def test_entries_given_in_any_order_are_written_canonically(label, node):
    datum = build_cartan(label)
    q = fm_qchar(datum, node)
    items = list(q.entries.items())
    random.Random(label).shuffle(items)
    assert [vec for vec, _ in items] != list(q.entries)
    shuffled = QChar(datum, node, dict(items))
    assert list(shuffled.entries) == list(q.entries)
    text = shuffled.to_json_text()
    assert text == _canonical_json(qchar_json_obj(shuffled))[:-1]
    assert text == q.to_json_text()


# ---------------------------------------------------------------------------
# the rows a character keeps, against the entries dict built from them

# every node of every type up to rank 4
RANK_FOUR_CASES = [(label, node) for label in ORACLE_LABELS
                   for node in build_cartan(label).nodes]


@pytest.mark.parametrize("label,node", [("A3", 2), ("F4", 1), ("E6", 4)])
def test_equal_cells_are_one_object(label, node):
    # the closure raises and mirrors every v to codes, indices of its
    # ((i, a), m) entries in the character's pool, so each decoded entry is
    # the pool's own tuple and codes order as the entries do
    datum = build_cartan(label)
    for rng in (None, random.Random(label)):
        q = fm_qchar(datum, node, shuffle_rng=rng)
        pool = q._pool
        for codes, _ in q._rows:
            assert all(0 <= code < len(pool) for code in codes)
            assert all(a < b for a, b in zip(codes, codes[1:]))
            assert all(pool[code][1] for code in codes)
        pooled = {id(item) for item in pool}
        assert all(id(item) in pooled
                   for vec in q.entries for item in vec.items())


# CPython caches the ints up to 256 only, so past that a code computed
# rather than read from ``codes`` is an object of its own for each entry

def test_raised_codes_are_the_pools_own_ints():
    codes = list(range(450))
    # three cells of 150 slots, whose m = 0 are codes 0, 150 and 300: v
    # holds m = 110 at the second, which rises, and gains the other two
    raises = ((150, 299, 5), (300, 449, 20), (0, 149, 3))
    raised = _raised((codes[260],), raises, codes)
    assert raised == (3, 265, 320)
    assert all(code is codes[code] for code in raised)


def test_mirrored_codes_are_the_pools_own_ints():
    datum = build_cartan("E8")
    word = _lower(datum, fundamental_weight(datum, 4))[2]
    pool, codes, _, mirrored = _mirror_map(datum, 4, word)
    assert len(pool) == 376
    # the empty v and each single entry, whose images hold the top codes
    # and one code below a top
    rows = [((), 1)] + [((code,), 1) for code in codes if pool[code][1]]
    images = mirrored(rows)
    assert max(code for row, _ in images for code in row) > 256
    assert all(code is codes[code] for row, _ in images for code in row)
    # v -> v_low - tau(v) is an involution
    assert mirrored(images) == rows


@pytest.mark.parametrize("label,node", RANK_FOUR_CASES)
def test_row_readers_match_the_entries(label, node):
    # classical_character against the entries is
    # test_classical_character_matches_the_expanded_weights
    q = fm_qchar(build_cartan(label), node)
    entries = q.entries
    assert q.monomial_count() == len(entries)
    assert q.total_multiplicity() == sum(entries.values())
    assert q.max_height() == max(vec.height() for vec in entries)


@pytest.mark.parametrize("label,node", RANK_FOUR_CASES)
def test_entries_rebuild_the_character(label, node):
    datum = build_cartan(label)
    q = fm_qchar(datum, node)
    rebuilt = QChar(datum, node, dict(q.entries))
    assert rebuilt == q
    text = q.to_json_text()
    assert rebuilt.to_json_text() == text
    # the envelope's head and tail around one chunk per height
    heights = {vec.height() for vec in q.entries}
    assert len(list(q._json_chunks())) == len(heights) + 2


def test_characters_outside_the_closure_keep_their_text():
    # a vector with a negative entry, a cell outside v_low and an m above
    # v_low's top, beside the closure's own rows
    datum = build_cartan("A2")
    q = fm_qchar(datum, 1)
    odd = vec(1, (2, 9, 7), (1, 5, -2))
    extended = QChar(datum, 1, {odd: 3, **q.entries})
    text = extended.to_json_text()
    assert text == (
        '{"conventions":"qcharlab-conventions-1","entries":[{"mu":1,"v":[]},'
        '{"mu":1,"v":[[1,1,1]]},{"mu":1,"v":[[1,1,1],[2,2,1]]},'
        '{"mu":3,"v":[[1,5,-2],[2,9,7]]}],"node":1,"type":"A2"}')
    read = QChar.from_json_obj(datum, json.loads(text))
    assert read == extended
    assert read.to_json_text() == text
    assert extended.max_height() == read.max_height() == 5
    assert list(extended.entries) == [*q.entries, odd]
    assert extended != q
    empty = QChar(datum, 1, {})
    assert empty.to_json_text() == (
        '{"conventions":"qcharlab-conventions-1","entries":[],"node":1,"type":"A2"}')
    assert QChar.from_json_obj(datum, json.loads(empty.to_json_text())) == empty


# ---------------------------------------------------------------------------
# opt-in heavy tier: pytest -m heavy


@pytest.mark.heavy
@pytest.mark.parametrize("label,node", [
    ("E7", 1), ("E7", 2), ("E7", 7), ("E8", 1), ("E8", 8),
])
def test_large_closures_match_the_expansion_oracle(label, node):
    datum = build_cartan(label)
    expected = fm_qchar_by_expansion(datum, node)
    q = fm_qchar(datum, node)
    assert q == expected
    assert list(q.entries) == list(expected.entries)
    assert fm_qchar(datum, node, shuffle_rng=random.Random(label)) == expected


@pytest.mark.heavy
def test_e7_node_4_trips_the_default_monomial_cap_in_the_mirrored_half():
    # H = 96: the cap trips at height 50, above the closure's half
    datum = build_cartan("E7")
    assert lowest_weight_height(datum, 4) == 96
    assert _cap_error(datum, 4) == (
        "monomial cap 200000 exceeded computing E7 node 4 at height 50",
        {"monomials": 200001, "height": 50})


# E8 node 2 as the closure wrote it when every vector also kept a dict copy
# of its entries; that closure peaked at about 405 MB, the tuple alone at
# 126, and rows of codes over one pool at about 102.  Its pool has 228
# slots, all cached ints, so this bound cannot see whether rows share their
# codes: the two *_are_the_pools_own_ints tests check that past 256
E8_NODE_2_SHA256 = "2124d66a7beed95fe5920afbd1aa78b516f39b7af2d50324b2db7ff7568836b0"
E8_NODE_2_PEAK_MB = 150

_E8_NODE_2_SCRIPT = r"""
import hashlib, json, sys
from qcharlab.cartan import build_cartan
from qcharlab.qchar import fm_qchar

def peak_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status
                    if line.startswith("VmHWM:"))

q = fm_qchar(build_cartan("E8"), 2)
# the closure's peak, read before the text adds its own
closure_kb = peak_kb()
# the bytes that qchar --out writes, as it writes them: the chunks and a newline
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    handle.writelines(q._json_chunks())
    handle.write("\n")
write_kb = peak_kb()
with open(sys.argv[1], "rb") as handle:
    file_digest = hashlib.sha256(handle.read()).hexdigest()
digest = hashlib.sha256((q.to_json_text() + "\n").encode()).hexdigest()
print(json.dumps([q.monomial_count(), q.total_multiplicity(), q.max_height(),
                  digest, file_digest, closure_kb, write_kb]))
"""
# the peak after writing the file chunk by chunk, about 105 MB; holding the
# whole text took it to about 284 MB
E8_NODE_2_WRITE_PEAK_MB = 150


@pytest.mark.heavy
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="the peak is read from /proc/self/status")
def test_e8_node_2_bytes_and_peak_memory(tmp_path):
    # a fresh interpreter, so the peak is the closure's own
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", _E8_NODE_2_SCRIPT,
                           str(tmp_path / "e8-2.json")],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    (count, total, height, digest, file_digest,
     peak_kb, write_kb) = json.loads(done.stdout)
    assert (count, total, height) == (147250, 185877, 136)
    assert digest == E8_NODE_2_SHA256
    assert file_digest == E8_NODE_2_SHA256
    assert peak_kb < E8_NODE_2_PEAK_MB * 1024, f"peak {peak_kb / 1024:.0f} MB"
    assert write_kb < E8_NODE_2_WRITE_PEAK_MB * 1024, (
        f"peak after the write {write_kb / 1024:.0f} MB")
