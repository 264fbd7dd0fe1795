import json
import random
import sys

import pytest

from qcharlab import lweights
from qcharlab.cartan import build_cartan, lowest_weight_height, reflect_weight
from qcharlab.cli import _canonical_json, load_or_compute_qchar
from qcharlab.errors import CapExceeded
from qcharlab.lweights import (
    AMonomialVector,
    LaurentMonomial,
    classical_weight,
    expand_to_y,
)
from qcharlab.qchar import (
    DEFAULT_MAX_MONOMIALS,
    QChar,
    classical_character,
    fm_qchar,
    sl2_expansion,
)

from helpers import (
    fm_qchar_by_expansion,
    i_dominant,
    in_cone,
    perfbench_module,
    qchar_json_obj,
    sorted_entries,
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
    assert i_dominant(datum, Y(1, 2, -1) * Y(2, 1), 2)
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


def test_shuffled_processing_order_is_irrelevant():
    for label, node in [("B2", 2), ("G2", 2), ("C3", 2)]:
        datum = build_cartan(label)
        reference = fm_qchar(datum, node)
        for seed in range(3):
            shuffled = fm_qchar(datum, node, shuffle_rng=random.Random(seed))
            assert shuffled.entries == reference.entries


# ---------------------------------------------------------------------------
# the carried Y-exponents against the closure that expands every monomial


@pytest.mark.parametrize("label,node", [
    *((label, node) for label in ORACLE_LABELS
      for node in build_cartan(label).nodes),
    ("E6", 4),
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


def test_closure_never_expands_a_monomial(monkeypatch):
    datum = build_cartan("F4")
    expected = fm_qchar_by_expansion(datum, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the closure expanded a monomial")

    for real in (lweights.expand_to_y, lweights.a_monomial_inverse):
        for module in list(sys.modules.values()):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, refuse)
    assert fm_qchar(datum, 1) == expected


def test_closure_builds_each_vector_once(monkeypatch):
    # the closure keys pending work by Y(v) and makes each AMonomialVector
    # once, when its height is processed, never by extending a parent
    datum = build_cartan("F4")
    expected = fm_qchar_by_expansion(datum, 1)
    built = []
    real_init = AMonomialVector.__init__
    real_trusted = AMonomialVector._trusted

    def refuse(*args, **kwargs):
        raise AssertionError("the closure extended a vector")

    def counting_init(self, *args):
        built.append(args)
        real_init(self, *args)

    def counting_trusted(cls, *args):
        built.append(args)
        return real_trusted(*args)

    # the public constructor and the trusted one are the only ways to a vector
    monkeypatch.setattr(AMonomialVector, "add_entries", refuse)
    monkeypatch.setattr(AMonomialVector, "__init__", counting_init)
    monkeypatch.setattr(AMonomialVector, "_trusted", classmethod(counting_trusted))
    q = fm_qchar(datum, 1)
    monkeypatch.undo()
    assert q == expected
    assert len(built) == q.monomial_count()


@pytest.mark.parametrize("label,node", [
    ("A3", 2), ("B3", 1), ("C3", 3), ("D4", 1), ("G2", 2), ("F4", 4), ("E6", 1),
])
def test_closure_entry_order_is_canonical(tmp_path, label, node):
    # the verifier numbers its columns by list(qchar.entries), so a computed
    # character and one read back from the cache must list them alike
    datum = build_cartan(label)
    q = fm_qchar(datum, node)
    order = list(q.entries)
    assert order == [v for v, _ in sorted_entries(q)]
    for _ in range(2):  # a cache miss, then a hit
        cached = load_or_compute_qchar(
            datum, node, str(tmp_path), DEFAULT_MAX_MONOMIALS, None
        )
        assert list(cached.entries) == order
    assert len(list(tmp_path.iterdir())) == 1


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
