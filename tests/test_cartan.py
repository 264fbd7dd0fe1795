import copy
import pickle
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from qcharlab.cartan import (
    WeylElement,
    all_reduced_words,
    build_cartan,
    fundamental_weight,
    is_generic,
    reflect_weight,
    weyl_elements,
)
from qcharlab.errors import CapExceeded, UnsupportedType

from helpers import (
    SUPPORTED_LABELS,
    all_roots,
    apply_root_matrix,
    is_generic_by_roots,
    positive_roots,
    root_pairing,
    simple_reflection_matrix,
    weight_orbit,
)

ALL_LABELS = [
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
    "D4", "D5", "E6", "E7", "E8", "F4", "G2",
]

SMALL_LABELS = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2", "D4"]


def _identity_matrix(n):
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
        for r in range(n)
    )


def _word_matrix(datum, word):
    mat = _identity_matrix(datum.rank)
    for i in word:
        mat = _mat_mul(simple_reflection_matrix(datum, i), mat)
    return mat


def _matrix_bfs(datum):
    """Oracle: W by breadth-first closure on simple-root matrices, as (word, matrix)."""
    ident = _identity_matrix(datum.rank)
    words = {ident: ()}
    queue = [ident]
    for mat in queue:
        for i in datum.nodes:
            new = _mat_mul(simple_reflection_matrix(datum, i), mat)
            if new not in words:
                words[new] = words[mat] + (i,)
                queue.append(new)
    return [(words[mat], mat) for mat in queue]


def _matrix_reduced_words(datum, word):
    """Oracle: every reduced word by descent recursion over a matrix table."""
    table = {mat: w for w, mat in _matrix_bfs(datum)}

    def expand(mat):
        if not table[mat]:
            return [()]
        out = []
        for g in datum.nodes:
            lower = _mat_mul(simple_reflection_matrix(datum, g), mat)
            if len(table[lower]) == len(table[mat]) - 1:
                out.extend(w + (g,) for w in expand(lower))
        return out

    return expand(_word_matrix(datum, word))


def _det(rows):
    # fraction-free expansion, fine at rank <= 8
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for c in range(n):
        if rows[0][c] == 0:
            continue
        minor = [[row[cc] for cc in range(n) if cc != c] for row in rows[1:]]
        total += (-1) ** c * Fraction(rows[0][c]) * _det(minor)
    return total


def test_a1_forced():
    datum = build_cartan("A1")
    assert datum.sym == ((2,),)
    assert datum.cartan == ((2,),)
    assert datum.d == (1,)


def test_b2_values():
    datum = build_cartan("B2")
    assert datum.b(1, 1) == 2 and datum.b(2, 2) == 4 and datum.b(1, 2) == -2
    assert datum.c(1, 2) == -2 and datum.c(2, 1) == -1
    assert datum.d == (1, 2)


def test_g2_values():
    datum = build_cartan("G2")
    assert datum.b(1, 1) == 2 and datum.b(2, 2) == 6 and datum.b(1, 2) == -3
    assert datum.c(1, 2) == -3 and datum.c(2, 1) == -1


@pytest.mark.parametrize("label", ALL_LABELS)
def test_invariants_and_positive_definiteness(label):
    datum = build_cartan(label)
    n = datum.rank
    for i in datum.nodes:
        assert datum.b(i, i) in (2, 4, 6)
        assert datum.c(i, i) == 2
        for j in datum.nodes:
            assert datum.b(i, j) == datum.b(j, i)
            if i != j:
                assert datum.b(i, j) <= 0
                assert datum.c(i, j) in (0, -1, -2, -3)
                assert (datum.c(i, j) == 0) == (datum.c(j, i) == 0)
                if datum.c(j, i) <= -2:
                    assert datum.di(j) == 1
    # oracle: the symmetrization is positive definite (leading minors > 0)
    for k in range(1, n + 1):
        minor = [[datum.b(i, j) for j in range(1, k + 1)] for i in range(1, k + 1)]
        assert _det(minor) > 0, (label, k)


def test_unknown_labels_rejected():
    for bad in ("X9", "A0", "A9", "B1", "D3", "E5", "F5", "G3", "zzz"):
        with pytest.raises(UnsupportedType):
            build_cartan(bad)


@pytest.mark.parametrize(
    "label,order,longest",
    [("A2", 6, 3), ("B2", 8, 4), ("G2", 12, 6), ("A3", 24, 6), ("B3", 48, 9)],
)
def test_weyl_enumeration(label, order, longest):
    datum = build_cartan(label)
    elements = weyl_elements(datum)
    assert len(elements) == order
    assert elements[0].word == ()
    assert len({e.weight for e in elements}) == order
    assert max(e.length for e in elements) == longest
    # exactly one reduced word stored per element; closed under generators
    weights = {e.weight for e in elements}
    for e in elements:
        for i in datum.nodes:
            assert reflect_weight(datum, i, e.weight) in weights


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "G2", "F4"],
)
def test_weyl_elements_match_matrix_bfs(label):
    # the rho-orbit walk yields the matrix BFS's words in the matrix BFS's order
    datum = build_cartan(label)
    assert [e.word for e in weyl_elements(datum)] == [
        word for word, _ in _matrix_bfs(datum)
    ]


def test_weyl_cap():
    datum = build_cartan("B4")  # |W| = 384
    with pytest.raises(CapExceeded):
        weyl_elements(datum, cap=100)
    assert len(weyl_elements(datum, cap=500)) == 384


def test_word_matches_matrix():
    # w.rho pairs with w(beta) as rho pairs with beta, w replayed as a matrix
    datum = build_cartan("B3")
    rho = (1,) * datum.rank
    for element in weyl_elements(datum):
        mat = _word_matrix(datum, element.word)
        for root in all_roots(datum):
            assert root_pairing(
                datum, element.weight, apply_root_matrix(mat, root)
            ) == root_pairing(datum, rho, root)


@pytest.mark.parametrize("label", SMALL_LABELS)
def test_word_length_counts_inversions(label):
    datum = build_cartan(label)
    if len(weyl_elements(datum)) > 200:
        pytest.skip("inversion count only sampled on small groups")
    pos = positive_roots(datum)
    for element in weyl_elements(datum):
        flipped = sum(
            1 for root in pos if root_pairing(datum, element.weight, root) < 0
        )
        assert flipped == element.length


def test_reflect_weight_rank1():
    datum = build_cartan("A1")
    assert reflect_weight(datum, 1, (Fraction(3, 2),)) == (Fraction(-3, 2),)


def test_reflect_weight_b2_normative():
    datum = build_cartan("B2")
    t1, t2 = Fraction(5, 3), Fraction(-7, 2)
    assert reflect_weight(datum, 1, (t1, t2)) == (-t1, t2 + t1)
    assert reflect_weight(datum, 2, (t1, t2)) == (t1 + 2 * t2, -t2)


@given(
    st.tuples(
        st.fractions(min_value=-9, max_value=9),
        st.fractions(min_value=-9, max_value=9),
        st.fractions(min_value=-9, max_value=9),
    ),
    st.sampled_from(["A3", "B3", "C3"]),
    st.integers(min_value=1, max_value=3),
)
def test_reflection_is_involutive(theta, label, node):
    datum = build_cartan(label)
    assert reflect_weight(datum, node, reflect_weight(datum, node, theta)) == tuple(
        theta
    )


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "B3"])
def test_reflection_matches_root_action(label):
    # oracle: the pairing is invariant under reflecting weight and root together
    datum = build_cartan(label)
    theta = tuple(Fraction(2 * k + 1, k + 2) for k in range(datum.rank))
    for i in datum.nodes:
        reflected = reflect_weight(datum, i, theta)
        for root in all_roots(datum):
            image = apply_root_matrix(simple_reflection_matrix(datum, i), root)
            assert root_pairing(datum, theta, root) == root_pairing(
                datum, reflected, image
            )


def test_is_generic_examples():
    a2 = build_cartan("A2")
    assert is_generic(a2, (Fraction(-1), Fraction(-1)))
    assert not is_generic(a2, (Fraction(1), Fraction(-1)))  # vanishes on a1+a2
    assert not is_generic(build_cartan("A1"), (Fraction(0),))


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_is_generic_matches_the_root_oracle(label):
    # a grid of small entries with zeros (in full up to rank 3, sampled
    # above), halves, and W-images of antidominant weights: those with one
    # zero coordinate lie on a root hyperplane, the negative ones on none
    datum = build_cartan(label)
    rng = random.Random(label)
    if datum.rank <= 3:
        thetas = list(product(range(-2, 3), repeat=datum.rank))
    else:
        thetas = [tuple(rng.randint(-2, 2) for _ in datum.nodes) for _ in range(60)]
    thetas += [tuple(Fraction(rng.randint(-4, 4), 2) for _ in datum.nodes)
               for _ in range(20)]
    walls, chambers = [], []
    for i in datum.nodes:
        for zero, images in [(True, walls), (False, chambers)]:
            theta = tuple(0 if zero and j == i else -rng.randint(1, 3)
                          for j in datum.nodes)
            for _ in range(3 * datum.rank):
                theta = reflect_weight(datum, rng.choice(datum.nodes), theta)
            images.append(theta)
    assert not any(is_generic(datum, theta) for theta in walls)
    assert all(is_generic(datum, theta) for theta in chambers)
    for theta in thetas + walls + chambers:
        assert is_generic(datum, theta) == is_generic_by_roots(datum, theta), theta


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
def test_reduced_word_root_chain_positive(label):
    # for word (i_1..i_t): alpha_{i_1}, s_{i_1}(alpha_{i_2}), ... all positive
    datum = build_cartan(label)
    for element in weyl_elements(datum):
        word = element.word
        for u in range(1, len(word) + 1):
            root = tuple(int(k == word[u - 1] - 1) for k in range(datum.rank))
            for g in reversed(word[: u - 1]):
                root = apply_root_matrix(simple_reflection_matrix(datum, g), root)
            assert all(c >= 0 for c in root), (label, word, u)


@pytest.mark.parametrize("label", ["A2", "A3", "B2", "B3", "C3", "G2"])
def test_negative_chamber_word_coefficients(label):
    # theta in the negative chamber keeps a negative coefficient ahead of
    # every next reflection along any stored reduced word
    datum = build_cartan(label)
    theta = tuple(Fraction(-1 - k, 2) for k in range(datum.rank))
    for element in weyl_elements(datum):
        current = theta
        for i in element.word:
            assert current[i - 1] < 0, (label, element.word)
            current = reflect_weight(datum, i, current)


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "B3"])
def test_generator_matrices_satisfy_braid_relations(label):
    datum = build_cartan(label)
    for i in datum.nodes:
        for j in datum.nodes:
            if i == j:
                continue
            m = datum.m[i - 1][j - 1]
            prod = _identity_matrix(datum.rank)
            for _ in range(m):
                prod = _mat_mul(simple_reflection_matrix(datum, i), prod)
                prod = _mat_mul(simple_reflection_matrix(datum, j), prod)
            assert prod == _identity_matrix(datum.rank), (i, j)


def test_all_reduced_words_of_longest_element():
    datum = build_cartan("A2")
    longest = max(weyl_elements(datum), key=lambda e: e.length)
    assert sorted(all_reduced_words(datum, longest)) == [(1, 2, 1), (2, 1, 2)]


@pytest.mark.parametrize("label", ["A3", "B3", "G2"])
def test_all_reduced_words_match_matrix_recursion(label):
    datum = build_cartan(label)
    for element in weyl_elements(datum):
        assert all_reduced_words(datum, element) == _matrix_reduced_words(
            datum, element.word
        )


def test_weight_orbit_sizes():
    a2 = build_cartan("A2")
    assert len(weight_orbit(a2, fundamental_weight(a2, 1))) == 3
    b2 = build_cartan("B2")
    assert len(weight_orbit(b2, fundamental_weight(b2, 1))) == 4
    assert len(weight_orbit(b2, fundamental_weight(b2, 2))) == 4
    # the orbit of a non-dominant weight is the orbit of its dominant point
    g2 = build_cartan("G2")
    lowered = reflect_weight(g2, 1, reflect_weight(g2, 2, (Fraction(1, 2), 3)))
    assert weight_orbit(g2, lowered) == weight_orbit(g2, (Fraction(1, 2), 3))
    assert len(weight_orbit(g2, lowered)) == 12


def test_json_shape():
    datum = build_cartan("B2")
    obj = datum.to_json_obj()
    assert obj == {"label": "B2", "d": [[2, -2], [-2, 4]], "c": [[2, -2], [-1, 2]]}


def test_a_datum_is_the_tuple_of_its_six_fields():
    datum = build_cartan("G2")
    fields = (datum.label, datum.rank, datum.sym, datum.cartan, datum.d, datum.m)
    assert tuple(datum) == fields and datum == fields
    assert hash(datum) == hash(fields)


def test_labels_with_and_without_underscore_build_equal_data():
    # two cache entries, one datum: equal, equally hashed, and one dict key
    plain, spaced = build_cartan("B2"), build_cartan("B_2")
    assert plain is not spaced
    assert plain == spaced and hash(plain) == hash(spaced)
    assert {plain: 1}[spaced] == 1
    assert plain != build_cartan("C2") and plain != plain.label
    assert repr(plain) == (
        "CartanDatum(label='B2', rank=2, sym=((2, -2), (-2, 4)), "
        "cartan=((2, -2), (-1, 2)), d=(1, 2), m=((1, 4), (4, 1)))"
    )
    assert pickle.loads(pickle.dumps(plain)) == plain
    assert copy.deepcopy(plain) == plain


def test_weyl_element_length_is_its_word_length():
    elements = weyl_elements(build_cartan("A2"))
    assert [e.length for e in elements] == [len(e.word) for e in elements]
    assert sorted(e.length for e in elements) == [0, 1, 1, 2, 2, 3]
    assert elements[0] == WeylElement(word=(), weight=(1, 1))
