import json
import random

import pytest
from hypothesis import given, strategies as st

from qcharlab.cartan import build_cartan, simple_root_weight_coords
from qcharlab.lweights import (
    AMonomialVector,
    LaurentMonomial,
    classical_weight,
    expand_to_y,
)
from qcharlab.qchar import fm_qchar

from helpers import (
    DictVector,
    NotFactorable,
    a_monomial_inverse,
    factor_to_a,
    laurent_from_pairs,
    power,
    times,
)

Y = LaurentMonomial.y

ALL_LABELS = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "F4", "G2", "E6"]


def _random_vector(datum, rng, anchor=None, max_terms=6):
    v = {}
    for _ in range(rng.randint(0, max_terms)):
        node = rng.randint(1, datum.rank)
        param = rng.randint(-5, 5)
        v[(node, param)] = v.get((node, param), 0) + rng.randint(-2, 3)
    return AMonomialVector(anchor or rng.randint(1, datum.rank), v)


# ---------------------------------------------------------------------------
# monomial algebra: the constructor accumulates, and the tests' product and
# power are built on it

monomial_entries = st.dictionaries(
    st.tuples(st.integers(1, 3), st.integers(-4, 4)),
    st.integers(-3, 3),
    max_size=5,
)


@given(monomial_entries, monomial_entries, monomial_entries)
def test_multiplication_monoid_laws(e1, e2, e3):
    m1, m2, m3 = (LaurentMonomial(e) for e in (e1, e2, e3))
    one = LaurentMonomial()
    assert times(m1, m2) == times(m2, m1)
    assert times(times(m1, m2), m3) == times(m1, times(m2, m3))
    assert times(m1, one) == m1
    assert times(m1, power(m1, -1)) == one


def test_no_zero_exponents_stored():
    m = LaurentMonomial({(1, 0): 2, (2, 1): 0})
    assert m.items() == (((1, 0), 2),)
    assert LaurentMonomial([((1, 0), 1), ((1, 0), -1)]) == LaurentMonomial()
    assert LaurentMonomial().items() == ()


def test_equality_is_map_equality():
    assert times(Y(1, 0), Y(2, 3)) == LaurentMonomial([((2, 3), 1), ((1, 0), 1)])
    assert Y(1, 0) != Y(1, 1)
    assert hash(times(Y(1, 2), Y(1, 2))) == hash(Y(1, 2, 2))


# ---------------------------------------------------------------------------
# A-monomial dictionary


def test_a_inverse_a1():
    datum = build_cartan("A1")
    assert a_monomial_inverse(datum, 1, 1) == times(Y(1, 2, -1), Y(1, 0, -1))


def test_a_inverse_b2_long_node():
    datum = build_cartan("B2")
    for a in (-3, 0, 2):
        expected = times(Y(2, a + 2, -1), Y(2, a - 2, -1), Y(1, a + 1), Y(1, a - 1))
        assert a_monomial_inverse(datum, 2, a) == expected


def test_a_inverse_g2_long_node():
    datum = build_cartan("G2")
    for a in (0, 5):
        expected = times(
            Y(2, a + 3, -1), Y(2, a - 3, -1), Y(1, a + 2), Y(1, a), Y(1, a - 2)
        )
        assert a_monomial_inverse(datum, 2, a) == expected


@pytest.mark.parametrize("label", ALL_LABELS)
def test_a_inverse_weight_is_minus_simple_root(label):
    datum = build_cartan(label)
    for i in datum.nodes:
        weight = classical_weight(datum, a_monomial_inverse(datum, i, 0))
        alpha = simple_root_weight_coords(datum, i)
        assert weight == tuple(-c for c in alpha), (label, i)


def test_transposed_dictionary_fails_weight_shadow():
    # the rejected reading indexes the neighbor range by c_ij instead of c_ji;
    # in B2 it gives the short-node A-monomial the wrong weight
    datum = build_cartan("B2")
    i = 1
    exps = {(1, 1): -1, (1, -1): -1}
    cij = datum.c(i, 2)
    for s in range(cij + 1, -cij, 2):
        exps[(2, s)] = exps.get((2, s), 0) + 1
    wrong = classical_weight(datum, LaurentMonomial(exps))
    assert wrong == (-2, 2)  # 2*w1 - 2*w2, not the simple root 2*w1 - w2
    assert wrong != tuple(-c for c in simple_root_weight_coords(datum, i))


# ---------------------------------------------------------------------------
# expansion and factorization


def test_expand_empty_vector():
    datum = build_cartan("A2")
    assert expand_to_y(datum, AMonomialVector(1)) == Y(1, 0)


def test_expand_a2_hand_values():
    datum = build_cartan("A2")
    assert expand_to_y(datum, AMonomialVector(1, {(1, 1): 1})) == times(
        Y(1, 2, -1), Y(2, 1))
    assert expand_to_y(
        datum, AMonomialVector(1, {(1, 1): 1, (2, 2): 1})
    ) == Y(2, 3, -1)


def test_expand_is_multiplicative():
    datum = build_cartan("B2")
    rng = random.Random(11)
    for _ in range(100):
        v1 = _random_vector(datum, rng, anchor=1)
        v2 = _random_vector(datum, rng, anchor=1)
        lhs = times(expand_to_y(datum, v1 + v2), Y(1, 0, -1))
        rhs = times(
            expand_to_y(datum, v1), expand_to_y(datum, v2), Y(1, 0, -2)
        )
        assert lhs == rhs


@pytest.mark.parametrize("label", ALL_LABELS)
def test_expand_is_the_product_of_a_inverses(label):
    # expand_to_y sums entries of its table; the product of A^{-1} powers,
    # each written from the conventions apart from that table, defines it
    datum = build_cartan(label)
    rng = random.Random(len(label) * 31 + datum.rank)
    for _ in range(60):
        vec = _random_vector(datum, rng)
        product = times(Y(vec.anchor, 0), *(
            power(a_monomial_inverse(datum, i, a), mult)
            for (i, a), mult in vec.items()))
        assert expand_to_y(datum, vec) == product


def test_add_entries_matches_the_constructor():
    datum = build_cartan("C3")
    rng = random.Random(5)
    for _ in range(200):
        vec = _random_vector(datum, rng, anchor=2)
        # increments that often cancel an entry exactly
        entries = {key: -mult for key, mult in vec.items() if rng.random() < 0.5}
        entries.update(_random_vector(datum, rng, anchor=2).items())
        expected = AMonomialVector(2, list(vec.items()) + list(entries.items()))
        result = vec.add_entries(entries)
        assert result == expected and hash(result) == hash(expected)
        assert result.as_dict() == expected.as_dict()


# ---------------------------------------------------------------------------
# the sorted items tuple is the one stored form: every method against a
# plain-dict model

# few cells and small entries, so that keys repeat and sums cancel to zero
vector_entries = st.lists(
    st.tuples(st.tuples(st.integers(1, 3), st.integers(-3, 3)), st.integers(-3, 3)),
    max_size=8,
)


def _assert_matches_model(vec, model):
    assert vec.anchor == model.anchor
    for node in range(0, 5):
        for param in range(-4, 5):
            assert vec.entry(node, param) == model.entry(node, param)
    assert vec.support() == tuple(sorted(model.support()))
    assert vec.as_dict() == model.v
    assert vec.items() == tuple(sorted(model.v.items()))
    assert vec.height() == model.height()


@given(st.integers(1, 3), vector_entries, vector_entries, st.data())
def test_vector_methods_match_the_dict_model(anchor, first, second, data):
    vec, model = AMonomialVector(anchor, first), DictVector(anchor, first)
    _assert_matches_model(vec, model)
    # the increments take back some of the entries exactly, so cells cancel
    taken = data.draw(st.lists(st.sampled_from(first), unique=True)) if first else []
    increments = [(key, -mult) for key, mult in taken] + second
    expected = model.add_entries(increments)
    for given_as in (increments, dict(DictVector(anchor, increments).v)):
        _assert_matches_model(vec.add_entries(given_as), expected)
    other = AMonomialVector(anchor, increments)
    _assert_matches_model(vec + other, model + DictVector(anchor, increments))
    with pytest.raises(ValueError):
        vec + AMonomialVector(anchor + 1, second)
    for left, right in [(vec, other), (vec, vec.add_entries(())),
                        (vec + other, other + vec),
                        (vec, AMonomialVector(anchor + 1, first))]:
        left_model = DictVector(left.anchor, left.items())
        right_model = DictVector(right.anchor, right.items())
        assert (left == right) == (left_model == right_model)
        if left == right:
            assert hash(left) == hash(right)


def test_trusted_vectors_equal_the_constructed_ones():
    q = fm_qchar(build_cartan("E6"), 4)
    for vec in q.entries:
        items = vec.items()
        trusted = AMonomialVector._trusted(4, items)
        built = AMonomialVector(4, dict(items))
        assert trusted == built and hash(trusted) == hash(built)
    assert q.monomial_count() == 2925


def test_a_vector_stores_only_its_anchor_and_items():
    assert AMonomialVector.__slots__ == ("anchor", "_key")
    for vec in (AMonomialVector(2, {(1, 0): 1}), AMonomialVector._trusted(2, ())):
        assert not hasattr(vec, "__dict__")
        with pytest.raises(AttributeError):
            vec.extra = 1


def test_factor_identity():
    datum = build_cartan("A2")
    assert factor_to_a(datum, 1, Y(1, 0)) == AMonomialVector(1)


def test_factor_sl2_lowest():
    datum = build_cartan("A1")
    assert factor_to_a(datum, 1, Y(1, 2, -1)) == AMonomialVector(1, {(1, 1): 1})


def test_factor_parity_obstruction():
    datum = build_cartan("A1")
    with pytest.raises(NotFactorable):
        factor_to_a(datum, 1, Y(1, 1))


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_factor_round_trip(label):
    datum = build_cartan(label)
    rng = random.Random(hash(label) % 10000)
    for _ in range(150):
        vec = _random_vector(datum, rng)
        assert factor_to_a(datum, vec.anchor, expand_to_y(datum, vec)) == vec


def test_classical_weight_examples():
    a2 = build_cartan("A2")
    assert classical_weight(a2, Y(1, 0)) == (1, 0)
    assert classical_weight(a2, Y(2, 3, -1)) == (0, -1)
    assert classical_weight(a2, LaurentMonomial()) == (0, 0)


# ---------------------------------------------------------------------------
# serialization


def test_monomial_json_round_trip():
    m = times(Y(2, -3, 2), Y(1, 0, -1))
    pairs = m.to_pairs()
    assert pairs == [[1, 0, -1], [2, -3, 2]]  # sorted by (node, param)
    assert laurent_from_pairs(json.loads(json.dumps(pairs))) == m


def test_vector_json_round_trip():
    vec = AMonomialVector(2, {(1, 1): 1, (2, -2): -3})
    obj = json.loads(json.dumps(vec.to_json_obj()))
    assert obj == {"anchor": 2, "v": [[1, 1, 1], [2, -2, -3]]}
    assert AMonomialVector.from_json_obj(obj) == vec
