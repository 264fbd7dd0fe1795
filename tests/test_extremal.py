import time

import pytest

from qcharlab.braid import apply_s_word_inverse, unit_framing
from qcharlab.cartan import (
    all_reduced_words,
    build_cartan,
    fundamental_weight,
    weyl_elements,
)
from qcharlab import extremal
from qcharlab.errors import CapExceeded
from qcharlab.extremal import (
    _column,
    _push_dims,
    _row_walk,
    cone_vertices,
    coset_weight,
    verify_theorem_main,
)
from qcharlab.lweights import (
    AMonomialVector,
    LaurentMonomial,
    classical_weight,
    expand_to_y,
    factor_to_a,
)
from qcharlab.qchar import QChar, fm_qchar

from helpers import (
    apply_s_on_v,
    extremal_check,
    in_cone,
    vertex_orbit_size,
    weight_orbit,
)


def vec(anchor, *entries):
    return AMonomialVector(anchor, {(i, a): m for i, a, m in entries})


def test_cone_membership():
    assert in_cone(vec(1))
    assert not in_cone(vec(1, (1, 1, 1), (1, -1, -1)))
    assert in_cone(vec(1, (1, 1, 1), (2, 2, 1)))


def test_extremal_check_a1_simple_reflection():
    datum = build_cartan("A1")
    q = fm_qchar(datum, 1)
    s1 = next(e for e in weyl_elements(datum) if e.word == (1,))
    report = extremal_check(datum, q, s1)
    assert report.ok and report.checked == 2
    # the two images under S_1: 0 -> e_{(1,-1)} and e_{(1,1)} -> 0
    framing = unit_framing(1)
    assert apply_s_on_v(datum, 1, vec(1), framing) == vec(1, (1, -1, 1))
    assert apply_s_on_v(datum, 1, vec(1, (1, 1, 1)), framing) == vec(1)


def test_extremal_check_a2_all_elements():
    datum = build_cartan("A2")
    q = fm_qchar(datum, 1)
    for element in weyl_elements(datum):
        assert extremal_check(datum, q, element).ok


def test_negative_control_injected_monomial_is_flagged():
    datum = build_cartan("A1")
    q = fm_qchar(datum, 1)
    fake = dict(q.entries)
    fake[vec(1, (1, 3, 1))] = 1
    corrupted = QChar(datum, 1, fake)
    s1 = next(e for e in weyl_elements(datum) if e.word == (1,))
    report = extremal_check(datum, corrupted, s1)
    assert len(report.violations) == 1
    violation = report.violations[0]
    assert violation.vector == vec(1, (1, 3, 1))
    assert violation.positions == ((1, 1),)
    assert dict(violation.image)[(1, 1)] == -1


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_verify_theorem_small_types(label):
    datum = build_cartan(label)
    for node in datum.nodes:
        summary = verify_theorem_main(fm_qchar(datum, node))
        assert summary.ok, summary.to_json_obj()
        assert summary.checks == summary.monomial_count * summary.group_order
        assert summary.word_mismatches == 0
        assert summary.simple_reflection_violations == 0
        assert summary.longest_element_violations == 0


def test_verify_theorem_beyond_rank_three():
    # spot checks that the conventions keep holding at higher rank
    summary = verify_theorem_main(fm_qchar(build_cartan("B4"), 4))
    assert summary.ok and summary.group_order == 384
    summary = verify_theorem_main(fm_qchar(build_cartan("A4"), 2))
    assert summary.ok and summary.group_order == 120


def test_summary_counts_a2():
    summary = verify_theorem_main(fm_qchar(build_cartan("A2"), 1))
    assert summary.monomial_count == 3
    assert summary.group_order == 6
    assert summary.checks == 18
    assert not summary.violations


def test_cone_vertices_a1():
    datum = build_cartan("A1")
    vertices = cone_vertices(datum, 1)
    assert vertices == {(1,): vec(1), (-1,): vec(1, (1, 1, 1))}


def test_cone_vertices_a2():
    datum = build_cartan("A2")
    vertices = cone_vertices(datum, 1)
    # one vertex per coset w W_J, keyed by w^{-1} omega_1
    assert set(vertices) == weight_orbit(datum, fundamental_weight(datum, 1))
    assert set(vertices.values()) == {
        vec(1),
        vec(1, (1, 1, 1)),
        vec(1, (1, 1, 1), (2, 2, 1)),
    }


def test_identity_vertex_is_zero():
    for label in ("A2", "B2", "G2"):
        datum = build_cartan(label)
        for node in datum.nodes:
            vertices = cone_vertices(datum, node)
            assert vertices[fundamental_weight(datum, node)] == AMonomialVector(node)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "B3", "G2"])
def test_vertices_present_with_multiplicity_one(label):
    datum = build_cartan(label)
    for node in datum.nodes:
        q = fm_qchar(datum, node)
        vertices = cone_vertices(datum, node)
        distinct = set(vertices.values())
        assert len(distinct) == len(vertices) == vertex_orbit_size(datum, node)
        for vertex in distinct:
            assert q.multiplicity(vertex) == 1, (label, node, vertex)


@pytest.mark.parametrize("label", ["A2", "B2", "B3", "A3", "C3", "D4", "G2", "F4"])
def test_vertex_map_factors_through_stabilizer_cosets(label):
    # S_w^{-1}(anchor), replayed per element, is the vertex of the coset w W_J,
    # and S_w^{-1} intertwines with w^{-1}, so the vertex has weight w^{-1} omega_k
    datum = build_cartan(label)
    for node in datum.nodes:
        vertices = cone_vertices(datum, node)
        for weight, vertex in vertices.items():
            assert classical_weight(datum, expand_to_y(datum, vertex)) == weight
        anchor = LaurentMonomial.y(node, 0)
        for element in weyl_elements(datum):
            image = apply_s_word_inverse(datum, element.word, anchor)
            assert factor_to_a(datum, node, image) == vertices[
                coset_weight(datum, node, element.word)
            ], (label, node, element.word)


def test_framing_override():
    # pushing with an explicit framing matches the default unit framing
    datum = build_cartan("A2")
    q = fm_qchar(datum, 1)
    element = weyl_elements(datum)[3]
    assert (
        extremal_check(datum, q, element, framing=unit_framing(1)).violations
        == extremal_check(datum, q, element).violations
    )


# ---------------------------------------------------------------------------
# the row walk against the per-word replay oracle


def _assert_walk_equals_the_replay(datum, vectors, framing):
    words = {element.weight: element.word for element in weyl_elements(datum)}
    seen, walked = set(), 0
    for weight, length, image, negative in _row_walk(datum, vectors, framing):
        walked += 1
        word = words[weight]
        assert length == len(word)
        bad = set()
        for col, vec in enumerate(vectors):
            replay = _push_dims(datum, word, vec.as_dict(), framing)
            assert _column(image, col) == replay, (datum.label, word, vec)
            if any(mult < 0 for mult in replay.values()):
                bad.add(col)
        assert set().union(*negative.values()) == bad
        seen.add(weight)
    assert walked == len(seen) == len(words)
    return image


@pytest.mark.parametrize(
    "label,nodes",
    [("A3", (1, 2, 3)), ("B3", (1, 2, 3)), ("C3", (1, 2, 3)), ("G2", (1, 2)),
     ("F4", (1,))],
    ids=["A3", "B3", "C3", "G2", "F4-1"],
)
def test_prefix_shared_images_equal_the_replay(label, nodes):
    datum = build_cartan(label)
    for node in nodes:
        vectors = list(fm_qchar(datum, node).entries)
        _assert_walk_equals_the_replay(datum, vectors, unit_framing(node))


def test_row_walk_widens_lanes_that_overflow():
    # G2 lanes hold |entries| < 2**(bits - 4); the reflections of an entry
    # just below that outgrow them, and the walk restarts on wider lanes
    datum = build_cartan("G2")
    largest = (1 << (extremal._LANE_BITS - 4)) - 1
    vectors = list(fm_qchar(datum, 2).entries) + [
        vec(2, (1, 4, largest), (2, 1, -3))
    ]
    lanes, _ = _assert_walk_equals_the_replay(datum, vectors, unit_framing(2))
    assert lanes.bits > extremal._LANE_BITS


def _injected(label, node, *entries):
    datum = build_cartan(label)
    q = fm_qchar(datum, node)
    fake = dict(q.entries)
    fake[vec(node, *entries)] = 1
    return datum, QChar(datum, node, fake)


@pytest.mark.parametrize("recheck_limit", [0, 48])
@pytest.mark.parametrize(
    "label,node,entry",
    # the first is the corrupted q-character of the acceptance suite
    [("A1", 1, (1, 3, 1)), ("B3", 1, (2, 5, 1)), ("G2", 2, (1, 4, 2))],
)
def test_verifier_violations_equal_the_per_element_checks(
    label, node, entry, recheck_limit
):
    datum, corrupted = _injected(label, node, entry)
    expected = [
        violation
        for element in weyl_elements(datum)
        for violation in extremal_check(datum, corrupted, element).violations
    ]
    assert expected
    summary = verify_theorem_main(corrupted, recheck_limit=recheck_limit)
    assert summary.violations == expected
    assert summary.word_mismatches == 0
    longest = max(element.length for element in weyl_elements(datum))
    assert summary.simple_reflection_violations == sum(
        len(v.word) == 1 for v in expected
    )
    assert summary.longest_element_violations == sum(
        len(v.word) == longest for v in expected
    )


@pytest.mark.parametrize("label,node", [("A2", 1), ("B3", 2)])
def test_recheck_replays_a_word_ending_in_another_letter(label, node, monkeypatch):
    replayed = []
    real = extremal._push_dims

    def recording(datum, word, dims, framing):
        replayed.append(word)
        return real(datum, word, dims, framing)

    monkeypatch.setattr(extremal, "_push_dims", recording)
    datum = build_cartan(label)
    q = fm_qchar(datum, node)
    summary = verify_theorem_main(q, recheck_limit=48)
    assert summary.word_mismatches == 0
    # one recheck per monomial of every element with two left descents
    rechecked = [
        element
        for element in weyl_elements(datum)
        if len({word[-1] for word in all_reduced_words(datum, element) if word}) > 1
    ]
    assert rechecked[-1].length == max(e.length for e in weyl_elements(datum))
    assert len(replayed) == len(rechecked) * q.monomial_count()
    for element, word in zip(rechecked, replayed[:: q.monomial_count()]):
        assert word[-1] != element.word[-1]
        assert word in all_reduced_words(datum, element)


@pytest.mark.parametrize("label", ["A3", "B4", "C4", "D5", "F4", "G2"])
def test_every_word_extends_the_word_of_a_shorter_element(label):
    elements = weyl_elements(build_cartan(label))
    lengths = {element.word: element.length for element in elements}
    assert elements[0].word == ()
    for before, after in zip(elements, elements[1:]):
        assert before.length <= after.length
    for element in elements[1:]:
        assert lengths.get(element.word[:-1]) == element.length - 1


@pytest.mark.parametrize("label,node,recheck_limit",
                         [("A3", 2, 0), ("B4", 4, 48), ("F4", 1, 48)])
def test_one_row_rewrite_per_element(label, node, recheck_limit, monkeypatch):
    rewrites = []
    real = extremal._reflect_rows

    def counting(*args):
        rewrites.append(None)
        return real(*args)

    def no_replay(*args):
        raise AssertionError("the walk replays no word")

    monkeypatch.setattr(extremal, "_reflect_rows", counting)
    monkeypatch.setattr(extremal, "reflect_dimensions", no_replay)
    summary = verify_theorem_main(fm_qchar(build_cartan(label), node),
                                  recheck_limit=recheck_limit)
    assert summary.group_order > recheck_limit
    assert summary.checks == summary.monomial_count * summary.group_order
    assert len(rewrites) == summary.group_order - 1


def test_weyl_cap_below_the_group_order_raises():
    q = fm_qchar(build_cartan("B4"), 4)
    with pytest.raises(CapExceeded) as info:
        verify_theorem_main(q, weyl_cap=383)
    assert info.value.diagnostics == {"cap": 383}
    assert verify_theorem_main(q, weyl_cap=384).group_order == 384


# ---------------------------------------------------------------------------
# opt-in heavy tier: pytest -m heavy


@pytest.mark.heavy
@pytest.mark.parametrize("node", [1, 2, 3, 4, 5, 6])
def test_e6_theorem_over_all_of_w(node):
    start = time.perf_counter()
    summary = verify_theorem_main(fm_qchar(build_cartan("E6"), node),
                                  weyl_cap=51840)
    elapsed = time.perf_counter() - start
    assert summary.ok, summary.to_json_obj()
    assert summary.group_order == 51840
    assert summary.simple_reflection_violations == 0
    assert summary.longest_element_violations == 0
    assert elapsed < 60.0


@pytest.mark.heavy
def test_e7_node_7_theorem_over_all_of_w():
    summary = verify_theorem_main(fm_qchar(build_cartan("E7"), 7),
                                  weyl_cap=2903040)
    assert summary.ok, summary.to_json_obj()
    assert summary.group_order == 2903040
    assert summary.checks == 56 * 2903040
    assert summary.simple_reflection_violations == 0
    assert summary.longest_element_violations == 0
