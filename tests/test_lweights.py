import json
import random

import pytest
from hypothesis import given, strategies as st

from qcharlab.cartan import build_cartan, simple_root_weight_coords
from qcharlab.errors import NotFactorable
from qcharlab.lweights import (
    AMonomialVector,
    LaurentMonomial,
    a_monomial_inverse,
    classical_weight,
    expand_to_y,
    factor_to_a,
)

from helpers import laurent_from_pairs

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
# monomial algebra

monomial_entries = st.dictionaries(
    st.tuples(st.integers(1, 3), st.integers(-4, 4)),
    st.integers(-3, 3),
    max_size=5,
)


@given(monomial_entries, monomial_entries, monomial_entries)
def test_multiplication_monoid_laws(e1, e2, e3):
    m1, m2, m3 = (LaurentMonomial(e) for e in (e1, e2, e3))
    assert m1 * m2 == m2 * m1
    assert (m1 * m2) * m3 == m1 * (m2 * m3)
    assert m1 * LaurentMonomial.one() == m1
    assert m1 * m1 ** -1 == LaurentMonomial.one()


def test_no_zero_exponents_stored():
    m = LaurentMonomial({(1, 0): 2, (2, 1): 0})
    assert m.items() == (((1, 0), 2),)
    assert Y(1, 0) * Y(1, 0, -1) == LaurentMonomial.one()


def test_equality_is_map_equality():
    assert Y(1, 0) * Y(2, 3) == LaurentMonomial([((2, 3), 1), ((1, 0), 1)])
    assert Y(1, 0) != Y(1, 1)
    assert hash(Y(1, 2) * Y(1, 2)) == hash(Y(1, 2) ** 2)


# ---------------------------------------------------------------------------
# A-monomial dictionary


def test_a_inverse_a1():
    datum = build_cartan("A1")
    assert a_monomial_inverse(datum, 1, 1) == Y(1, 2, -1) * Y(1, 0, -1)


def test_a_inverse_b2_long_node():
    datum = build_cartan("B2")
    for a in (-3, 0, 2):
        expected = (
            Y(2, a + 2, -1) * Y(2, a - 2, -1) * Y(1, a + 1) * Y(1, a - 1)
        )
        assert a_monomial_inverse(datum, 2, a) == expected


def test_a_inverse_g2_long_node():
    datum = build_cartan("G2")
    for a in (0, 5):
        expected = (
            Y(2, a + 3, -1) * Y(2, a - 3, -1)
            * Y(1, a + 2) * Y(1, a) * Y(1, a - 2)
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
    assert expand_to_y(datum, AMonomialVector(1, {(1, 1): 1})) == Y(1, 2, -1) * Y(2, 1)
    assert expand_to_y(
        datum, AMonomialVector(1, {(1, 1): 1, (2, 2): 1})
    ) == Y(2, 3, -1)


def test_expand_is_multiplicative():
    datum = build_cartan("B2")
    rng = random.Random(11)
    for _ in range(100):
        v1 = _random_vector(datum, rng, anchor=1)
        v2 = _random_vector(datum, rng, anchor=1)
        lhs = expand_to_y(datum, v1 + v2) * Y(1, 0, -1)
        rhs = (
            expand_to_y(datum, v1) * expand_to_y(datum, v2)
            * Y(1, 0, -1) * Y(1, 0, -1)
        )
        assert lhs == rhs


@pytest.mark.parametrize("label", ALL_LABELS)
def test_expand_is_the_product_of_a_inverses(label):
    # expand_to_y sums table entries; the product of A^{-1} powers defines it
    datum = build_cartan(label)
    rng = random.Random(len(label) * 31 + datum.rank)
    for _ in range(60):
        vec = _random_vector(datum, rng)
        product = Y(vec.anchor, 0)
        for (i, a), mult in vec.items():
            product = product * a_monomial_inverse(datum, i, a) ** mult
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
    assert classical_weight(a2, LaurentMonomial.one()) == (0, 0)


# ---------------------------------------------------------------------------
# serialization


def test_monomial_json_round_trip():
    m = Y(2, -3, 2) * Y(1, 0, -1)
    pairs = m.to_pairs()
    assert pairs == [[1, 0, -1], [2, -3, 2]]  # sorted by (node, param)
    assert laurent_from_pairs(json.loads(json.dumps(pairs))) == m


def test_vector_json_round_trip():
    vec = AMonomialVector(2, {(1, 1): 1, (2, -2): -3})
    obj = json.loads(json.dumps(vec.to_json_obj()))
    assert obj == {"anchor": 2, "v": [[1, 1, 1], [2, -2, -3]]}
    assert AMonomialVector.from_json_obj(obj) == vec
