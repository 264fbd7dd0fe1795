import random

import pytest

from qcharlab.braid import reflect_dimensions, unit_framing
from qcharlab.cartan import build_cartan, reflect_weight
from qcharlab.lweights import (
    AMonomialVector,
    LaurentMonomial,
    classical_weight,
    expand_to_y,
)

from helpers import (
    a_monomial_inverse,
    apply_s,
    apply_s_inverse,
    apply_s_on_v,
    apply_s_word,
    apply_s_word_inverse,
    braid_relation_check,
    factor_to_a,
    in_cone,
    node_exponents,
    perfbench_module,
    power,
    random_monomial,
    times,
)

Y = LaurentMonomial.y


def _random_vector(datum, rng, anchor):
    v = {}
    for _ in range(rng.randint(0, 5)):
        node = rng.randint(1, datum.rank)
        param = rng.randint(-4, 4)
        v[(node, param)] = v.get((node, param), 0) + rng.randint(-2, 3)
    return AMonomialVector(anchor, v)


# ---------------------------------------------------------------------------
# the generator rule, held by the tests' oracle, and its A-level consequences


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "B3", "C3", "G2"])
def test_s_on_a_inverse_shifts_down(label):
    # S_i(A_{i,a}^{-1}) = A_{i, a-2d_i} as Y-monomials
    datum = build_cartan(label)
    for i in datum.nodes:
        for a in (-1, 0, 3):
            lhs = apply_s(datum, i, a_monomial_inverse(datum, i, a))
            rhs = power(a_monomial_inverse(datum, i, a - 2 * datum.di(i)), -1)
            assert lhs == rhs


def test_upward_shift_variant_is_rejected():
    # with the opposite generator shift the proven rank-one extremal case
    # breaks: the lowest sl2 monomial leaves the cone under S_1
    datum = build_cartan("A1")

    def apply_up(i, monomial):
        shifted = (power(a_monomial_inverse(datum, i, b + datum.di(i)), u)
                   for b, u in node_exponents(monomial, i).items())
        return times(monomial, *shifted)

    image = apply_up(1, Y(1, 2, -1))  # lowest monomial of the A1 fundamental
    vec = factor_to_a(datum, 1, image)
    assert not in_cone(vec)
    # the chosen downward shift keeps it at the anchor
    assert apply_s(datum, 1, Y(1, 2, -1)) == Y(1, 0)


def test_hand_values_a1_a2():
    a1 = build_cartan("A1")
    a2 = build_cartan("A2")
    assert apply_s(a1, 1, Y(1, 2, -1)) == Y(1, 0)
    assert apply_s(a2, 1, Y(1, 0)) == times(Y(1, -2, -1), Y(2, -1))
    assert apply_s_inverse(a1, 1, Y(1, 0)) == Y(1, 2, -1)
    assert apply_s_inverse(a2, 1, Y(1, 0)) == times(Y(1, 2, -1), Y(2, 1))


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2"])
def test_inverse_law(label):
    datum = build_cartan(label)
    rng = random.Random(3)
    for _ in range(300):
        m = random_monomial(datum, rng)
        i = rng.randint(1, datum.rank)
        assert apply_s_inverse(datum, i, apply_s(datum, i, m)) == m
        assert apply_s(datum, i, apply_s_inverse(datum, i, m)) == m


def test_multiplicativity():
    datum = build_cartan("B2")
    rng = random.Random(5)
    for _ in range(200):
        m1, m2 = random_monomial(datum, rng), random_monomial(datum, rng)
        i = rng.randint(1, 2)
        assert apply_s(datum, i, times(m1, m2)) == times(
            apply_s(datum, i, m1), apply_s(datum, i, m2)
        )


# ---------------------------------------------------------------------------
# words


def test_empty_word_is_identity():
    datum = build_cartan("A2")
    m = times(Y(1, 0), Y(2, 5, -2))
    assert apply_s_word(datum, (), m) == m
    assert apply_s_word_inverse(datum, (), m) == m


def test_a2_reduced_words_agree():
    datum = build_cartan("A2")
    lhs = apply_s_word(datum, (1, 2, 1), Y(1, 0))
    rhs = apply_s_word(datum, (2, 1, 2), Y(1, 0))
    assert lhs == rhs == Y(2, -3, -1)


def test_b2_reduced_words_agree_on_random_monomials():
    datum = build_cartan("B2")
    rng = random.Random(17)
    for _ in range(200):
        m = random_monomial(datum, rng)
        assert apply_s_word(datum, (1, 2, 1, 2), m) == apply_s_word(
            datum, (2, 1, 2, 1), m
        )


def test_word_inverse_inverts_word():
    datum = build_cartan("B3")
    rng = random.Random(23)
    for _ in range(100):
        m = random_monomial(datum, rng)
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 5)))
        assert apply_s_word_inverse(datum, word, apply_s_word(datum, word, m)) == m


@pytest.mark.parametrize(
    "label,samples", [("A2", 1000), ("B2", 1000), ("G2", 200)]
)
def test_braid_relation_check(label, samples):
    datum = build_cartan(label)
    assert braid_relation_check(datum, 1, 2, samples)


def test_braid_relation_check_rejects_equal_nodes():
    with pytest.raises(ValueError):
        braid_relation_check(build_cartan("A2"), 1, 1, 10)


# ---------------------------------------------------------------------------
# the induced action on dimension vectors


def test_apply_s_on_v_hand_values():
    a1 = build_cartan("A1")
    w = unit_framing(1)
    assert apply_s_on_v(a1, 1, AMonomialVector(1, {(1, 1): 1}), w) == AMonomialVector(1)
    assert apply_s_on_v(a1, 1, AMonomialVector(1), w) == AMonomialVector(
        1, {(1, -1): 1}
    )
    a2 = build_cartan("A2")
    vec = AMonomialVector(1, {(1, 1): 1, (2, 2): 1})
    assert apply_s_on_v(a2, 1, vec, w) == vec  # the lowest monomial is fixed by S_1


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_consistency_with_monomial_action(label):
    # the closed form agrees with factor(applyS(expand(.)))
    datum = build_cartan(label)
    rng = random.Random(len(label) * 101)
    for _ in range(150):
        anchor = rng.randint(1, datum.rank)
        vec = _random_vector(datum, rng, anchor)
        i = rng.randint(1, datum.rank)
        direct = apply_s_on_v(datum, i, vec, unit_framing(anchor))
        via_y = factor_to_a(
            datum, anchor, apply_s(datum, i, expand_to_y(datum, vec))
        )
        assert direct == via_y


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_weight_intertwining(label):
    # classical shadow of S_i equals the simple reflection of the shadow
    datum = build_cartan(label)
    rng = random.Random(41)
    for _ in range(300):
        m = random_monomial(datum, rng)
        i = rng.randint(1, datum.rank)
        assert classical_weight(datum, apply_s(datum, i, m)) == reflect_weight(
            datum, i, classical_weight(datum, m)
        )


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "C3"])
def test_aggregate_shadow(label):
    # sum_a of the reflected entries at node i is w_i - v_i - sum c_ij v_j
    datum = build_cartan(label)
    rng = random.Random(59)

    def node_total(mapping, node):
        return sum(m for (n, _), m in mapping.items() if n == node)

    for _ in range(200):
        anchor = rng.randint(1, datum.rank)
        vec = _random_vector(datum, rng, anchor)
        i = rng.randint(1, datum.rank)
        image = apply_s_on_v(datum, i, vec, unit_framing(anchor))
        v = vec.as_dict()
        expected = (
            (1 if anchor == i else 0)
            - node_total(v, i)
            - sum(datum.c(i, j) * node_total(v, j) for j in datum.nodes if j != i)
        )
        assert node_total(image.as_dict(), i) == expected


def test_reflect_dimensions_keeps_other_nodes():
    datum = build_cartan("B2")
    v = {(1, 1): 2, (2, 0): 3, (2, 4): 1}
    out = reflect_dimensions(datum, 1, v, {(1, 0): 1})
    assert out[(2, 0)] == 3 and out[(2, 4)] == 1


@pytest.mark.parametrize("label", ["A3", "B3", "C4", "D5", "E6", "F4", "G2"])
def test_reflect_dimensions_matches_the_benchmark_reference(label):
    # the benchmark's closed form, written apart from qcharlab, on random v
    # with zero and negative entries and random framings
    reference = perfbench_module("reference")
    datum = build_cartan(label)
    rng = random.Random(label)
    for _ in range(40):
        v = {(rng.choice(datum.nodes), rng.randint(-6, 6)): rng.randint(-2, 3)
             for _ in range(rng.randint(0, 8))}
        w = {(rng.choice(datum.nodes), rng.randint(-6, 6)): rng.randint(0, 2)
             for _ in range(rng.randint(0, 3))}
        i = rng.choice(datum.nodes)
        image = reflect_dimensions(datum, i, v, w)
        assert {key: n for key, n in image.items() if n} == (
            reference.reflect_dimensions(label, i, v, w)), (v, w, i)
