import pytest

from qcharlab.braid import unit_framing
from qcharlab.cartan import all_reduced_words, build_cartan, weyl_elements
from qcharlab import extremal
from qcharlab.extremal import (
    _push_dims,
    _pushed_images,
    cone_vertices,
    extremal_check,
    verify_theorem_main,
)
from qcharlab.lweights import AMonomialVector, classical_weight, expand_to_y
from qcharlab.qchar import QChar, fm_qchar

from helpers import vertex_orbit_size


def vec(anchor, *entries):
    return AMonomialVector(anchor, {(i, a): m for i, a, m in entries})


def test_cone_membership():
    assert vec(1).in_cone()
    assert not vec(1, (1, 1, 1), (1, -1, -1)).in_cone()
    assert vec(1, (1, 1, 1), (2, 2, 1)).in_cone()


def test_extremal_check_a1_simple_reflection():
    datum = build_cartan("A1")
    q = fm_qchar(datum, 1)
    s1 = next(e for e in weyl_elements(datum) if e.word == (1,))
    report = extremal_check(datum, q, s1)
    assert report.ok and report.checked == 2
    # the two images under S_1: 0 -> e_{(1,-1)} and e_{(1,1)} -> 0
    from qcharlab.braid import apply_s_on_v

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
    by_word = {element.word: v for element, v in vertices.items()}
    assert by_word[()] == vec(1)
    assert by_word[(1,)] == vec(1, (1, 1, 1))


def test_cone_vertices_a2():
    datum = build_cartan("A2")
    vertices = cone_vertices(datum, 1)
    distinct = set(vertices.values())
    assert distinct == {
        vec(1),
        vec(1, (1, 1, 1)),
        vec(1, (1, 1, 1), (2, 2, 1)),
    }
    assert len(vertices) == 6  # one vertex per group element, with repeats


def test_identity_vertex_is_zero():
    for label in ("A2", "B2", "G2"):
        datum = build_cartan(label)
        for node in datum.nodes:
            vertices = cone_vertices(datum, node)
            identity = next(e for e in vertices if e.word == ())
            assert vertices[identity] == AMonomialVector(node)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "C2", "B3", "G2"])
def test_vertices_present_with_multiplicity_one(label):
    datum = build_cartan(label)
    for node in datum.nodes:
        q = fm_qchar(datum, node)
        vertices = cone_vertices(datum, node)
        distinct = set(vertices.values())
        assert len(distinct) == vertex_orbit_size(datum, node)
        for vertex in distinct:
            assert q.multiplicity(vertex) == 1, (label, node, vertex)


@pytest.mark.parametrize("label", ["A2", "B2", "B3"])
def test_vertex_map_factors_through_stabilizer_cosets(label):
    # vertices with the same classical shadow are literally equal
    datum = build_cartan(label)
    for node in datum.nodes:
        vertices = cone_vertices(datum, node)
        by_weight = {}
        for element, vertex in vertices.items():
            weight = classical_weight(datum, expand_to_y(datum, vertex))
            by_weight.setdefault(weight, set()).add(vertex)
        for weight, group in by_weight.items():
            assert len(group) == 1, (label, node, weight, group)


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
# the prefix-shared verifier against the per-word replay oracle


@pytest.mark.parametrize(
    "label,nodes",
    [("A3", (1, 2, 3)), ("B3", (1, 2, 3)), ("C3", (1, 2, 3)), ("G2", (1, 2)),
     ("F4", (1,))],
    ids=["A3", "B3", "C3", "G2", "F4-1"],
)
def test_prefix_shared_images_equal_the_replay(label, nodes):
    datum = build_cartan(label)
    elements = weyl_elements(datum)
    for node in nodes:
        q = fm_qchar(datum, node)
        vectors = list(q.entries)
        framing = unit_framing(node)
        seen = 0
        for element, images in _pushed_images(datum, elements, vectors, framing):
            assert len(images) == len(vectors)
            for vec, image in zip(vectors, images):
                assert image == _push_dims(datum, element.word, vec.as_dict(),
                                           framing), (label, node, element.word)
            seen += 1
        assert seen == len(elements)


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
def test_one_reflection_per_monomial_and_element(
    label, node, recheck_limit, monkeypatch
):
    calls = []
    real = extremal.reflect_dimensions

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(extremal, "reflect_dimensions", counting)
    summary = verify_theorem_main(fm_qchar(build_cartan(label), node),
                                  recheck_limit=recheck_limit)
    assert summary.group_order > recheck_limit
    assert summary.checks == summary.monomial_count * summary.group_order
    assert len(calls) == summary.checks - summary.monomial_count
