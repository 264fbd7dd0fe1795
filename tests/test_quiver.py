import json
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from qcharlab import quiver
from qcharlab.braid import reflect_dimensions
from qcharlab.cartan import _lower, build_cartan, reflect_weight
from qcharlab.cli import _parse_theta, parse_dims
from qcharlab.errors import (
    CapExceeded,
    NonGenericTheta,
    NotSurjective,
    RelationViolated,
    ShapeMismatch,
    StabilityViolated,
)
from qcharlab.extremal import cone_vertices, word_vertex
from qcharlab.linalg import (
    F2,
    QQ,
    PrimeField,
    field_by_name,
    kernel_basis,
    mat_mul_shaped,
    mat_rank,
    rref,
)
from qcharlab.qchar import fm_qchar
from qcharlab.quiver import (
    GradedQuiverRep,
    RelationViolation,
    _reflect_kernel,
    chain_reflect,
    exhaustive_search,
    phi_map,
    psi_map,
    reflect,
    stability_check,
    upsilon_map,
    valid_map_keys,
    validate_n,
    validate_relations,
)

from helpers import (
    SUPPORTED_LABELS,
    _map_ends,
    _span,
    closure_dims_by_fixpoint,
    e1bis_paths_oracle,
    is_generic_by_roots,
    kind_and_key,
    loop_power,
    perfbench_module,
    points_by_assignment,
    positive_roots,
    quiver_corpus_cases,
    relation_violations_oracle,
    solve_exact,
    sorted_entries,
    spin,
    step_by_solving,
    stability_by_full_lattice,
    stability_by_walking_up,
    validate_n_oracle,
    without_b,
)

NEG = (Fraction(-1),)
NEG2 = (Fraction(-1), Fraction(-1))
POS2 = (Fraction(1), Fraction(1))


def _block_dims(rep, blocks):
    """The dim of each block of a ``quiver.phi_blocks`` layout on ``rep``."""
    return [rep.slot_dim(block[:3]) for block in blocks]


def a1_point(field=F2):
    # V_1^1 = W_1^0 = k with the framing map the identity
    datum = build_cartan("A1")
    return GradedQuiverRep(
        datum, field, {(1, 1): 1}, {(1, 0): 1},
        maps={(("W", 1, 0), ("V", 1, 1)): [[field.one()]]},
    )


# ---------------------------------------------------------------------------
# exact linear algebra


def test_rref_and_rank_over_q():
    mat = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    reduced, pivots = rref(QQ, mat)
    assert pivots == [0]
    assert reduced[0] == [Fraction(1), Fraction(2)]
    assert mat_rank(QQ, mat) == 1


def test_kernel_basis_is_canonical():
    mat = [[1, 1, 0], [0, 0, 1]]
    basis, free = kernel_basis(F2, mat)
    # one free column (index 1): the basis column has 1 there
    assert basis == [[1], [1], [0]]
    assert free == [1]
    assert [basis[f] for f in free] == [[1]]
    # over Q, two free columns of four: the identity at rows 1 and 3
    mat = [[Fraction(2), Fraction(4), Fraction(0), Fraction(2)],
           [Fraction(0), Fraction(0), Fraction(1), Fraction(3)]]
    basis, free = kernel_basis(QQ, mat)
    assert free == [1, 3]
    assert [basis[f] for f in free] == [[1, 0], [0, 1]]
    assert mat_mul_shaped(QQ, mat, basis, 2, 4, 2) == [[0, 0], [0, 0]]


def test_kernel_of_empty_map_is_everything():
    basis, free = kernel_basis(F2, [], cols=2)
    assert basis == [[1, 0], [0, 1]]
    assert free == [0, 1]
    assert kernel_basis(F2, [], cols=0) == ([], [])


def test_solve_exact():
    a = [[1, 0], [1, 1], [0, 1]]
    b = [[1], [0], [1]]
    x = solve_exact(F2, a, b)
    assert mat_mul_shaped(F2, a, x, 3, 2, 1) == b
    assert solve_exact(F2, [[1], [0]], [[0], [1]]) is None


def test_prime_field_bounds():
    from qcharlab.errors import UnsupportedType

    assert PrimeField(7).inv(3) == 5
    with pytest.raises(UnsupportedType):
        PrimeField(11)
    with pytest.raises(UnsupportedType):
        field_by_name("F4")


# ---------------------------------------------------------------------------
# relations


def test_zero_rep_valid():
    datum = build_cartan("B2")
    rep = GradedQuiverRep(datum, F2, {}, {})
    assert validate_relations(rep) == []


def test_a1_point_valid():
    assert validate_relations(a1_point()) == []


def test_e4_violation_detected():
    datum = build_cartan("A1")
    rep = GradedQuiverRep(
        datum, F2, {(1, 1): 1, (1, -1): 1}, {(1, 0): 1},
        maps={(("V", 1, 1), ("V", 1, -1)): [[1]], (("W", 1, 0), ("V", 1, 1)): [[1]]},
    )
    names = {v.relation for v in validate_relations(rep)}
    assert "E4" in names


def test_shape_mismatch_rejected():
    datum = build_cartan("A1")
    with pytest.raises(ShapeMismatch):
        GradedQuiverRep(
            datum, F2, {(1, 1): 2}, {(1, 0): 1},
            maps={(("W", 1, 0), ("V", 1, 1)): [[1]]},
        )


def test_wrong_shaped_arrow_and_coframing_rejected():
    datum = build_cartan("A2")
    v, w = {(1, 1): 1, (2, 2): 1}, {(1, 2): 1}
    arrow, b_map = (("V", 1, 1), ("V", 2, 2)), (("V", 1, 1), ("W", 1, 2))
    for maps in [{arrow: [[1, 0]]}, {b_map: [[1], [0]]}]:
        with pytest.raises(ShapeMismatch):
            GradedQuiverRep(datum, F2, v, w, maps)
    # the same maps in their right shapes are accepted
    GradedQuiverRep(datum, F2, v, w, {arrow: [[1]], b_map: [[1]]})


def test_maps_and_dims_outside_the_datum_rejected():
    datum = build_cartan("A1")
    for v, w, maps in [
        ({(2, 1): 1}, {}, {}),
        ({(1, 1): -1}, {}, {}),
        ({(1, 1): 1}, {(0, 0): 1}, {}),
        # a map on a zero-dimensional slot still has to fit it
        ({}, {(1, 0): 1}, {(("W", 1, 0), ("V", 1, 1)): [[1]]}),
    ]:
        with pytest.raises(ShapeMismatch):
            GradedQuiverRep(datum, F2, v, w, maps)


def test_non_adjacent_arrow_rejected():
    datum = build_cartan("A3")
    with pytest.raises(ShapeMismatch):
        GradedQuiverRep(
            datum, F2, {(1, 0): 1, (3, 2): 1}, {},
            maps={(("V", 1, 0), ("V", 3, 0)): [[1]]},
        )


def test_validate_n_examples():
    rep = a1_point()
    assert validate_n(rep, 1, [1]) == []
    datum = build_cartan("A1")
    zero = GradedQuiverRep(datum, F2, {}, {})
    assert validate_n(zero, 1, []) == []
    with pytest.raises(ValueError):
        bad = GradedQuiverRep(
            datum, F2, {(1, -1): 1}, {(1, 0): 1},
            maps={(("V", 1, -1), ("W", 1, 0)): [[1]]},
        )
        validate_n(bad, 1, [])


def test_validate_n_flags_surviving_framing_vector():
    # a loop that does not kill xi
    datum = build_cartan("A1")
    rep = GradedQuiverRep(
        datum, F2, {(1, 1): 1, (1, -1): 1}, {},
        maps={(("V", 1, 1), ("V", 1, -1)): [[1]]},
    )
    violations = validate_n(rep, 1, [1])
    assert any(v.relation == "loop-kills-xi" for v in violations)


def test_validate_n_adds_in_the_field():
    # the loop sends xi = (1, 1) to 1 + 1, which is 0 in F2
    datum = build_cartan("A1")
    rep = GradedQuiverRep(
        datum, F2, {(1, 1): 2, (1, -1): 1}, {},
        maps={(("V", 1, 1), ("V", 1, -1)): [[1, 1]]},
    )
    assert validate_n(rep, 1, [1, 1]) == []


def test_b_zero_slice_passes_validate_n():
    # a valid point with B = 0 is a valid framed point with xi = A(1)
    datum = build_cartan("B2")
    theta = NEG2
    for node in datum.nodes:
        from qcharlab.qchar import fm_qchar

        q = fm_qchar(datum, node)
        for entry, _ in sorted_entries(q):
            points = exhaustive_search(
                datum, entry.as_dict(), {(node, 0): 1}, F2, thetas=(theta,)
            )
            for point in points:
                if not point.stable[0]:
                    continue
                rep0 = GradedQuiverRep(
                    datum, F2, point.rep.v, point.rep.w, without_b(point.rep),
                )
                dk = datum.di(node)
                a_map = rep0.maps.get((("W", node, 0), ("V", node, dk)))
                xi = (
                    [row[0] for row in a_map]
                    if a_map
                    else [0] * rep0.vdim(node, dk)
                )
                assert validate_n(rep0, node, xi) == []


@st.composite
def _random_point(draw, fields=(F2, PrimeField(3))):
    """A point with random entries on every valid map; most are not valid.

    V slots are drawn among those a chain of maps links to the framing slot
    W_k^0, so that most relations compose maps that are present.  Over Q the
    entries are drawn among n/d with |n| <= 2 and d <= 2.
    """
    datum = build_cartan(draw(st.sampled_from(["A2", "B2", "C2", "G2", "A3"])))
    fld = draw(st.sampled_from(fields))
    k = draw(st.sampled_from(datum.nodes))
    linked, todo = set(), [(k, datum.di(k))]
    while todo:
        i, a = todo.pop()
        if (i, a) in linked or not -3 <= a <= 5:
            continue
        linked.add((i, a))
        todo += [(i, a + 2 * datum.di(i)), (i, a - 2 * datum.di(i))]
        todo += [(j, a + sign * datum.b(i, j))
                 for j in datum.neighbors(i) for sign in (1, -1)]
    v = {slot: draw(st.integers(0, 2)) for slot in sorted(linked)}
    w = {(k, 0): 1}
    empty = GradedQuiverRep(datum, fld, v, w)
    entry = st.sampled_from(list(fld.elements()) if fld.is_finite else
                            [Fraction(n, d) for n in range(-2, 3) for d in (1, 2)])
    maps = {}
    for source, target in valid_map_keys(datum, v, w):
        rows, cols = empty.slot_dim(target), empty.slot_dim(source)
        row = st.lists(entry, min_size=cols, max_size=cols)
        maps[source, target] = draw(st.lists(row, min_size=rows, max_size=rows))
    node = draw(st.sampled_from(datum.nodes))
    dim = empty.vdim(node, datum.di(node))
    xi = draw(st.lists(entry, min_size=dim, max_size=dim))
    rep = GradedQuiverRep(datum, fld, v, w, maps)
    return rep, node, xi


@pytest.mark.parametrize("label", SUPPORTED_LABELS)
def test_loop_relation_is_phi_after_psi(label):
    # each E1bis (E1) row is Psi's path into a block of the Phi domain and
    # Phi's out of it, one per block (the W block left out unframed); as a
    # multiset of paths it must be the relation spelled term by term.  With
    # a V and a W slot at every grade of the window, no path out of V_i^a
    # with |a| <= 6 leaves it, so those rows hold every term, AB included;
    # nearer the edge a row holds the terms through maps the dims allow, and
    # a row left with none is dropped
    datum = build_cartan(label)
    dims = {(i, a): 1 for i in datum.nodes for a in range(-12, 13)}
    keys = set(valid_map_keys(datum, dims, dims))
    for framed in (True, False):
        table = quiver._relation_table(datum, dims, dims, framed)
        rows = {(i, a): paths for name, i, _, a, paths in table
                if name in ("E1bis", "E1")}
        assert ("E1" if framed else "E1bis") not in {name for name, *_ in table}
        assert len(rows) < len(dims)
        for i, a in dims:
            every = e1bis_paths_oracle(datum, i, a, framed)
            held = every if abs(a) <= 6 else [
                path for path in every if keys.issuperset(path)]
            assert Counter(rows.get((i, a), [])) == Counter(held)


@given(_random_point())
def test_relation_checks_match_the_per_relation_oracle(case):
    # exhaustive_search keeps only valid points, so only random ones reach
    # the violation paths; the oracle builds each relation with zero matrices
    rep, node, xi = case
    assert validate_relations(rep) == relation_violations_oracle(rep)
    framed = GradedQuiverRep(rep.datum, rep.field, rep.v, rep.w, without_b(rep))
    assert validate_n(framed, node, xi) == validate_n_oracle(framed, node, xi)


@given(_random_point(), st.data())
def test_relation_checks_match_the_oracle_on_points_that_lack_maps(case, data):
    # _random_point stores every map its dims allow; leave a random subset of
    # them out, so that paths the relation table keeps run through maps the
    # point lacks, which the checks must read as zero
    rep, node, xi = case
    keys = valid_map_keys(rep.datum, rep.v, rep.w)
    keep = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    maps = {ends: rep.maps[ends] for ends, kept in zip(keys, keep) if kept}
    rep = GradedQuiverRep(rep.datum, rep.field, rep.v, rep.w, maps)
    assert validate_relations(rep) == relation_violations_oracle(rep)
    framed = GradedQuiverRep(rep.datum, rep.field, rep.v, rep.w, without_b(rep))
    assert validate_n(framed, node, xi) == validate_n_oracle(framed, node, xi)


def test_relation_checks_build_no_zero_matrix(monkeypatch):
    # every point of one search shares v and w; an absent map is skipped,
    # never materialized as a zero matrix
    calls = []
    real = quiver.zeros
    monkeypatch.setattr(quiver, "zeros",
                        lambda *args: calls.append(args) or real(*args))
    datum = build_cartan("B2")
    v = {(1, 2): 1, (1, 4): 2, (2, 2): 2, (2, 4): 1}
    points = exhaustive_search(datum, v, {(2, 0): 1}, F2)
    assert len(points) == 512
    assert all(validate_relations(point.rep) == [] for point in points)
    assert calls == []


def test_search_builds_the_relation_table_once(monkeypatch):
    # the table reads only datum, v and w, which every point of one search
    # shares; so do the slots of each path, resolved by _step only while the
    # table and the one list of map slots are built (each count starts from
    # a cold cache of the block paths, so it holds whatever ran before)
    calls, steps = [], []
    real, real_step = quiver._relation_table, quiver._step
    monkeypatch.setattr(quiver, "_relation_table",
                        lambda *args, **kwargs: calls.append(args)
                        or real(*args, **kwargs))
    monkeypatch.setattr(quiver, "_step",
                        lambda *args: steps.append(args) or real_step(*args))
    datum = build_cartan("B2")
    v, w = {(1, 2): 1, (1, 4): 2, (2, 2): 2, (2, 4): 1}, {(2, 0): 1}
    quiver._block_paths.cache_clear()
    real(datum, v, w)
    once = len(steps)
    steps.clear()
    quiver._block_paths.cache_clear()
    points = exhaustive_search(datum, v, w, F2)
    assert len(points) == 512
    assert len(calls) == 1
    assert len(steps) == once > 0


def test_relation_violations_read_as_before():
    assert str(RelationViolation("E2", 1, 2, 3)) == "E2 fails at nodes (1,2), grade 3"
    assert str(RelationViolation("E4", 2, 2, -1)) == "E4 fails at node 2, grade -1"
    assert RelationViolation("E2", 1, 2, 3) == RelationViolation("E2", 1, 2, 3)
    assert repr(RelationViolation("E5", 1, 1, 0)) == (
        "RelationViolation(relation='E5', i=1, j=1, a=0)")


def test_search_lists_the_map_slots_once(monkeypatch):
    # the slot list and the relation table's pruning read the same keys
    calls = []
    real = quiver.valid_map_keys
    monkeypatch.setattr(quiver, "valid_map_keys",
                        lambda *args: calls.append(args) or real(*args))
    datum = build_cartan("B2")
    v, w = {(1, 2): 1, (1, 4): 2, (2, 2): 2, (2, 4): 1}, {(2, 0): 1}
    assert len(exhaustive_search(datum, v, w, F2)) == 512
    assert calls == [(datum, v, w)]


def test_step_matches_the_per_kind_grading_on_the_corpus():
    # _map_ends states the grading once per map kind; every map of every
    # criterion-7 corpus point, and of its reflections (which carry the B
    # maps), must sit where both it and _step say, and the search must list
    # the map slots in the per-kind order
    seen = Counter()
    for label in ["A1", "A2", "B2"]:
        for datum, _, v, w, _, points in quiver_corpus_cases(label, sums=True):
            keys = [("arrow", (i, a, j)) for i, a in sorted(v)
                    for j in (i, *sorted(datum.neighbors(i)))]
            keys += [(kind, key) for key in sorted(w) for kind in ("A", "B")]
            ends = [_map_ends(datum, kind, key) for kind, key in keys]
            assert valid_map_keys(datum, v, w) == [
                (source, target) for source, target in ends
                if (v if source[0] == "V" else w).get(source[1:])
                and (v if target[0] == "V" else w).get(target[1:])]
            reps = [point.rep for point in points]
            reps += [_reflect_kernel(point.rep, i) for point in points
                     if point.stable[0] for i in datum.nodes]
            for rep in filter(None, reps):
                for source, target in rep.maps:
                    kind, key = kind_and_key((source, target))
                    assert _map_ends(datum, kind, key) == (source, target)
                    assert quiver._step(datum, source, target[:2]) == target
                    seen[kind] += 1
    assert min(seen[kind] for kind in ("arrow", "A", "B")) > 0


# ---------------------------------------------------------------------------
# stability


def test_stability_a1_hand_cases():
    assert stability_check(a1_point(), NEG) is True
    datum = build_cartan("A1")
    no_framing = GradedQuiverRep(datum, F2, {(1, 1): 1}, {(1, 0): 1})
    assert stability_check(no_framing, NEG) is False
    zero = GradedQuiverRep(datum, F2, {}, {})
    assert stability_check(zero, NEG) is True


def test_stability_preconditions():
    with pytest.raises(NonGenericTheta):
        stability_check(a1_point(), (Fraction(0),))
    # nothing is enumerated: a point over Q and one of total dimension 15
    # get a verdict
    assert stability_check(a1_point(QQ), NEG) is True
    assert stability_check(a1_point(QQ), (Fraction(1),)) is False
    datum = build_cartan("A1")
    big = GradedQuiverRep(datum, F2, {(1, 1): 15}, {(1, 0): 15},
                          {(("W", 1, 0), ("V", 1, 1)): [[int(r == c) for c in range(15)]
                                                        for r in range(15)]})
    assert big.total_dim() == 15
    assert stability_check(big, NEG) is True
    assert stability_check(GradedQuiverRep(datum, F2, {(1, 1): 15}, {}), NEG) is False


@pytest.mark.parametrize("theta", [(1, -3, 5), (-1,)], ids=["long", "short"])
def test_a_theta_of_the_wrong_length_is_an_error(theta):
    # A2 has rank 2; a theta of another length is named with the rank by
    # each entry point, reflect at either node included, before it reads
    # theta_i
    datum = build_cartan("A2")
    theta = tuple(map(Fraction, theta))
    match = f"has {len(theta)} entries, but A2 has rank 2$"
    v, w = {(1, 1): 1, (2, 2): 1}, {(1, 0): 1}
    rep = exhaustive_search(datum, v, w, F2)[0].rep
    with pytest.raises(ValueError, match=match):
        stability_check(rep, theta)
    with pytest.raises(ValueError, match=match):
        exhaustive_search(datum, v, w, F2, thetas=(NEG2, theta))
    for i in datum.nodes:
        with pytest.raises(ValueError, match=match):
            reflect(rep, i, theta)


@pytest.mark.parametrize("node", [0, 3, -1])
def test_reflect_rejects_a_node_outside_the_datum(node):
    # before it reads theta_i, which for -1 would wrap round to theta_2
    datum = build_cartan("A2")
    rep = GradedQuiverRep(datum, F2, {}, {(1, 0): 1})
    with pytest.raises(ValueError, match=f"^{node} is not a node of A2$"):
        reflect(rep, node, NEG2)
    with pytest.raises(ValueError, match=f"^{node} is not a node of A2$"):
        chain_reflect(rep, NEG2, (1, node))


@pytest.mark.parametrize("node", [0, -1, 3])
def test_every_entry_point_rejects_a_node_outside_the_datum(node):
    # at 0 and -1 these returned [] or a vertex, at 3 some raised IndexError
    datum = build_cartan("A2")
    rep = GradedQuiverRep(datum, F2, {(1, 1): 1}, {(1, 0): 1})
    calls = [
        lambda: fm_qchar(datum, node),
        lambda: validate_n(rep, node, []),
        lambda: phi_map(rep, node, 0),
        lambda: psi_map(rep, node, 0),
        lambda: upsilon_map(rep, node, 0),
        lambda: cone_vertices(datum, node),
        lambda: word_vertex(datum, node, ()),
        lambda: word_vertex(datum, 1, (2, node)),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^{node} is not a node of A2$"):
            call()


@pytest.mark.parametrize("theta", [NEG2, POS2], ids=["negative", "positive"])
def test_same_sign_guards_still_fire(theta):
    datum = build_cartan("A2")
    # the whole of V_1^1 lies in Ker B = V and misses the closure of Im A = 0:
    # unstable in both chambers, over Q and at total dimension 15 alike
    assert stability_check(GradedQuiverRep(datum, QQ, {(1, 1): 1}, {}), theta) is False
    big = GradedQuiverRep(datum, F2, {(1, 1): 8, (2, 2): 7}, {})
    assert stability_check(big, theta) is False
    # a same-sign theta with a zero entry lies on the hyperplane of a simple root
    on_wall = (Fraction(0), theta[1])
    with pytest.raises(NonGenericTheta):
        stability_check(GradedQuiverRep(datum, F2, {(1, 1): 1}, {}), on_wall)


def test_same_sign_shortcuts_match_the_lattice_on_the_corpus():
    # the whole criterion-7 corpus at both same-sign chambers, and every
    # reflected stable point at its s_i theta (positive for A1)
    counts = Counter()
    for label in ["A1", "A2", "B2"]:
        for datum, _, _, _, neg, points in quiver_corpus_cases(label, sums=True):
            pos = tuple(-t for t in neg)
            for point in points:
                rep = point.rep
                stable = (point.stable[0], stability_check(rep, pos))
                assert stable == stability_by_full_lattice(rep, (neg, pos))
                counts["stable", -1] += stable[0]
                counts["stable", 1] += stable[1]
                counts["points"] += 1
                if not point.stable[0]:
                    continue
                for i in datum.nodes:
                    reflected, theta_bar = reflect(rep, i, neg)
                    assert stability_check(reflected, theta_bar) is True
                    assert stability_by_full_lattice(reflected, (theta_bar,)) == (True,)
                    counts["reflected"] += 1
    assert counts == {"points": 3603, ("stable", -1): 17, ("stable", 1): 5,
                      "reflected": 32}


def _workload_searches(workload):
    """(datum, v, w, theta) of each search of one of the benchmark's quiver
    workloads, ``quiver_mixed`` or ``quiver_same_sign``."""
    for group in getattr(perfbench_module("workloads"), workload)():
        for op in group:
            if op.args[0] != "quiver-search":
                continue
            flags = dict(zip(op.args[1:-1:2], op.args[2:-1:2]))
            datum = build_cartan(flags["--type"])
            theta = _parse_theta(op.args[-1].removeprefix("--theta="), datum)
            yield datum, parse_dims(flags["--v"]), parse_dims(flags["--w"]), theta


def test_stability_matches_the_full_lattice_on_quiver_mixed():
    counts = Counter()
    for datum, v, w, theta in _workload_searches("quiver_mixed"):
        assert min(theta) < 0 < max(theta)
        for point in exhaustive_search(datum, v, w, F2, thetas=(theta,)):
            assert point.stable == stability_by_full_lattice(point.rep, (theta,))
            counts["points"] += 1
            counts["stable"] += point.stable[0]
        counts["searches"] += 1
    assert counts == {"searches": 126, "points": 1263, "stable": 131}


def test_stability_matches_the_full_lattice_at_mixed_theta_on_the_corpus():
    # the criterion-7 corpus at each theta = s_i(-1,...,-1); for A1 that is
    # (1), which has one sign, so only the rank-two types count
    counts = Counter()
    for label in ["A2", "B2"]:
        for datum, _, _, _, neg, points in quiver_corpus_cases(label, sums=True):
            thetas = tuple(reflect_weight(datum, i, neg) for i in datum.nodes)
            assert all(min(theta) < 0 < max(theta) for theta in thetas)
            for point in points:
                stable = tuple(stability_check(point.rep, t) for t in thetas)
                assert stable == stability_by_full_lattice(point.rep, thetas)
                counts["points"] += 1
                counts["stable"] += sum(stable)
    assert counts == {"points": 3596, "stable": 19}


def _walk_cases():
    """(point, theta) per quiver-mixed point and per point of the rank-two
    criterion-7 corpus at each s_i(-1,...,-1)."""
    for datum, v, w, theta in _workload_searches("quiver_mixed"):
        for point in exhaustive_search(datum, v, w, F2):
            yield point.rep, theta
    for label in ["A2", "B2"]:
        for datum, _, _, _, neg, points in quiver_corpus_cases(label, sums=True):
            for i in datum.nodes:
                theta = reflect_weight(datum, i, neg)
                for point in points:
                    yield point.rep, theta


def test_every_walk_step_keeps_the_relations_and_the_dimensions():
    # the kernel validates nothing itself: each step of the stability walk
    # must give a valid point with the dims of the closed form
    counts = Counter()
    for rep, theta in _walk_cases():
        for i in _lower(rep.datum, tuple(-t for t in theta))[2]:
            image = _reflect_kernel(rep, i)
            if image is None:
                counts["stopped"] += 1
                break
            assert validate_relations(image) == []
            predicted = reflect_dimensions(rep.datum, i, rep.v, rep.w)
            assert image.v == {key: n for key, n in predicted.items() if n}
            counts["steps"] += 1
            rep = image
        counts["walks"] += 1
    # 1263 quiver-mixed points, and 3596 corpus points at two thetas each
    assert counts == {"walks": 8455, "stopped": 8141, "steps": 2815}


def _check_free_row_reads(step, rep, image, counts):
    """Check each new loop and in-map of ``image``, S_i ``rep`` by the plan
    ``step``, against the map the linear solver finds for the same target,
    and count them by kind in ``counts``; a target outside its kernel's span
    has no solution to check against and counts as unsolved."""
    counts["steps"] += 1
    for kind, ends, solved in step_by_solving(step, rep):
        if solved is None:
            counts["unsolved", kind] += 1
            continue
        assert image.maps[ends] == solved, (kind, ends)
        counts[kind] += 1


def test_each_new_map_of_a_step_is_the_solvers(monkeypatch):
    # every step of every walk of _walk_cases, and of every reflection of a
    # quiver-same-sign stable point at every node, with its output's check;
    # on these relation-satisfying points every target has a solution
    counts = Counter()
    apply_step = quiver._apply_step

    def checked(step, rep):
        image = apply_step(step, rep)
        _check_free_row_reads(step, rep, image, counts)
        return image

    monkeypatch.setattr(quiver, "_apply_step", checked)
    for rep, theta in _walk_cases():
        stability_check(rep, theta)
    for datum, v, w, theta in _workload_searches("quiver_same_sign"):
        for point in exhaustive_search(datum, v, w, F2, thetas=(theta,)):
            if point.stable[0]:
                for i in datum.nodes:
                    reflect(point.rep, i, theta)
                    counts["reflected"] += 1
    # 4061 calls, some stopped at a Phi that is not onto
    assert counts == {"steps": 4061, "loop": 145, "in": 1386, "reflected": 32}


def test_each_new_map_of_a_step_is_the_solvers_on_random_points():
    # most random points break some relation, so some targets leave their
    # kernel's span; wherever the solver finds a map, it is the one read
    counts = Counter()

    @settings(derandomize=True, deadline=None, database=None)
    @given(_random_point((PrimeField(3), QQ)))
    def check(case):
        rep, _, _ = case
        for i in rep.datum.nodes:
            step = quiver._step_plan(rep.datum, i, rep.v, rep.w)
            if step is not None:
                _check_free_row_reads(step, rep, quiver._apply_step(step, rep), counts)

    check()
    assert counts["loop"] and counts["in"]


@lru_cache(maxsize=None)
def _point_groups():
    """(datum, reps) per search of the quiver-mixed workload and per
    dimension vector of the criterion-7 corpus (A1, A2, B2, with sums)."""
    groups = []
    for datum, v, w, _ in _workload_searches("quiver_mixed"):
        groups.append((datum, tuple(p.rep for p in exhaustive_search(datum, v, w, F2))))
    for label in ["A1", "A2", "B2"]:
        for datum, _, _, _, _, points in quiver_corpus_cases(label, sums=True):
            groups.append((datum, tuple(p.rep for p in points)))
    return tuple(groups)


def _chamber_thetas(datum):
    """(-1,...,-1), each s_i(-1,...,-1), and their negatives, (1,...,1) among them."""
    neg = tuple(Fraction(-1) for _ in datum.nodes)
    thetas = [neg, *(reflect_weight(datum, i, neg) for i in datum.nodes)]
    return list(dict.fromkeys([*thetas, *(tuple(-t for t in theta) for theta in thetas)]))


def _mixed(theta):
    return min(theta) < 0 < max(theta)


def test_every_quiver_mixed_theta_routes_to_one_step():
    # theta' = s_i(-1,...,-1) is l(w_0) - 1 steps below C+ and one above C-
    for datum, _, _, theta in _workload_searches("quiver_mixed"):
        dual, word = quiver._route(datum, theta)
        assert dual is True and len(word) == 1
        up = _lower(datum, tuple(-t for t in theta))[2]
        assert len(up) == len(positive_roots(datum)) - 1


@pytest.mark.parametrize("label,ties", [
    ("A2", 0), ("B2", 2), ("G2", 0), ("A3", 1), ("C3", 0), ("D4", 0),
])
def test_route_takes_the_shorter_word(label, ties):
    # the two words add up to l(w_0); the route takes the strictly shorter
    # one and theta's on a tie, and is None only in the negative chamber
    datum = build_cartan(label)
    rng = random.Random(label)
    thetas = _chamber_thetas(datum)
    while len(thetas) < 60:
        theta = tuple(Fraction(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in datum.nodes)
        if is_generic_by_roots(datum, theta):
            thetas.append(theta)
    seen_ties = 0
    for theta in thetas:
        minus = tuple(-t for t in theta)
        up, down = _lower(datum, minus)[2], _lower(datum, theta)[2]
        assert len(up) + len(down) == len(positive_roots(datum))
        route = quiver._route(datum, theta)
        if max(theta) < 0:
            assert route is None
            continue
        assert route == ((True, down) if len(down) < len(up) else (False, up))
        seen_ties += len(up) == len(down)
    # the tie rule is exercised where l(w_0) is even and a drawn theta sits
    # half way
    assert seen_ties == ties
    with pytest.raises(NonGenericTheta):
        quiver._route(datum, tuple(Fraction(0) for _ in datum.nodes))


def test_stability_matches_walking_up_at_mixed_theta():
    # the route against the walk that always starts at (rep, theta), at
    # every mixed theta of the quiver-mixed points and the rank-two corpus
    counts = Counter()
    for datum, reps in _point_groups():
        for theta in filter(_mixed, _chamber_thetas(datum)):
            dual = quiver._route(datum, theta)[0]
            for rep in reps:
                stable = stability_check(rep, theta)
                assert stable == stability_by_walking_up(rep, theta)
                counts["dual" if dual else "up"] += 1
                counts["stable"] += stable
    # 4866 points: each mixed theta and its negative, one route each way
    assert counts == {"dual": 9973, "up": 9973, "stable": 303}


def test_the_search_plans_each_theta_once(monkeypatch):
    # the walk plan reads only datum, v, w and theta, so a search looks it
    # up once per theta, and builds it then, whatever its point count, and a
    # check of each of its points after finds it cached.  Building it takes
    # one step plan per letter of the route's word and one spin plan, none
    # where a step is onto for no point (here one or two of the s_i theta);
    # neither is cached, so S_i on a point builds its step plan again
    calls = Counter()
    for name in ("_route", "_step_plan", "_spin_plan"):
        monkeypatch.setattr(quiver, name, lambda *args, name=name, real=getattr(
            quiver, name): calls.update([name]) or real(*args))
    datum = build_cartan("B2")
    thetas = (NEG2, *(reflect_weight(datum, i, NEG2) for i in datum.nodes), POS2)
    letters = sum(len(route[1]) for route in (quiver._route(datum, theta)
                                              for theta in thetas) if route)
    for v, count, walks in [({(1, 2): 1, (2, 2): 1}, 2, 3),
                            ({(1, 2): 1, (1, 4): 2, (2, 2): 2, (2, 4): 1}, 512, 2)]:
        quiver._walk_plan.cache_clear()
        calls.clear()
        points = exhaustive_search(datum, v, {(2, 0): 1}, F2, thetas=thetas)
        assert len(points) == count
        built = {"_route": len(thetas), "_step_plan": letters, "_spin_plan": walks}
        assert calls == built
        for theta in thetas:
            for point in points:
                stability_check(point.rep, theta)
        info = quiver._walk_plan.cache_info()
        assert (info.hits, info.misses) == (len(thetas) * count, len(thetas))
        assert calls == built
        calls.clear()
        for point in points:
            for i in datum.nodes:
                _reflect_kernel(point.rep, i)
        assert calls == {"_step_plan": len(datum.nodes) * count}
    assert letters == 2


def test_a_phi_domain_below_its_target_is_unstable_for_the_dims_alone():
    # A2 at theta = (1, -2) walks one step from x^T: there W'_1^0 and
    # V'_1^{-1} are k, and Phi_1^{-3} maps the zero space onto V'_1^{-1}
    datum = build_cartan("A2")
    theta = (Fraction(1), Fraction(-2))
    v, w = {(1, 1): 1}, {(1, 0): 1}
    assert quiver._route(datum, theta) == (True, (1,))
    assert quiver._step_plan(datum, 1, {(1, -1): 1}, {(1, 0): 1}) is None
    assert quiver._walk_plan(datum, (((1, 1), 1),), (((1, 0), 1),), theta) is False
    for value in (0, 1):
        rep = GradedQuiverRep(datum, F2, v, w, {(("W", 1, 0), ("V", 1, 1)): [[value]]})
        assert stability_check(rep, theta) is False
        assert stability_by_full_lattice(rep, (theta,)) == (False,)


def test_every_dims_only_verdict_agrees_with_the_full_lattice():
    # the rank-two corpus at each mixed theta: where the plan is False for
    # the dims alone, the lattice finds the points unstable too; on B2 it
    # checks the first 16 points of each search, as its lattices are large
    counts = Counter()
    for label, sample in [("A2", None), ("B2", 16)]:
        for datum, _, _, _, _, points in quiver_corpus_cases(label, sums=True):
            rep = points[0].rep
            key_v, key_w = quiver._dims_key(rep.v), quiver._dims_key(rep.w)
            for theta in filter(_mixed, _chamber_thetas(datum)):
                if quiver._walk_plan(datum, key_v, key_w, theta) is not False:
                    continue
                for point in points:
                    assert stability_check(point.rep, theta) is False
                for point in points[:sample]:
                    assert stability_by_full_lattice(point.rep, (theta,)) == (False,)
                    counts["lattice"] += 1
                counts["dims"] += 1
                counts["points"] += len(points)
    assert counts == {"dims": 58, "points": 7992, "lattice": 904}


@given(_random_point())
def test_the_dual_point_keeps_the_grading_and_the_relations(case):
    # each relation of x^T is the transpose of one of x, so a random point
    # and its dual fail the same number of relations
    rep = case[0]
    dual = quiver._dual(rep)
    GradedQuiverRep(dual.datum, dual.field, dual.v, dual.w, dual.maps)
    assert len(validate_relations(dual)) == len(validate_relations(rep))


def test_the_dual_point_is_an_involution_on_the_corpus():
    for _, reps in _point_groups():
        for rep in reps:
            dual = quiver._dual(rep)
            GradedQuiverRep(dual.datum, dual.field, dual.v, dual.w, dual.maps)
            assert validate_relations(dual) == []
            back = quiver._dual(dual)
            assert (back.v, back.w, back.maps) == (rep.v, rep.w, rep.maps)


def test_duality_of_stability_on_the_corpus():
    # x is theta-stable iff x^T is (-theta)-stable; the walks up from the
    # two starts are different walks, so they check the lemma, not the route
    counts = Counter()
    for datum, reps in _point_groups():
        thetas = _chamber_thetas(datum)
        for rep in reps:
            dual = quiver._dual(rep)
            for theta in thetas:
                minus = tuple(-t for t in theta)
                stable = stability_check(rep, theta)
                assert stability_check(dual, minus) == stable
                assert (stability_by_walking_up(dual, minus)
                        == stability_by_walking_up(rep, theta))
                counts["checks"] += 1
                counts["stable"] += stable
    assert counts == {"checks": 29678, "stable": 440}


def test_every_dual_walk_step_keeps_the_relations_and_the_dimensions():
    # the walks the route takes at every mixed theta, from x^T where -theta
    # lies nearer C+
    counts = Counter()
    for datum, reps in _point_groups():
        for theta in filter(_mixed, _chamber_thetas(datum)):
            dual, word = quiver._route(datum, theta)
            for rep in reps:
                if dual:
                    rep = quiver._dual(rep)
                for i in word:
                    image = _reflect_kernel(rep, i)
                    if image is None:
                        counts["stopped"] += 1
                        break
                    assert validate_relations(image) == []
                    predicted = reflect_dimensions(datum, i, rep.v, rep.w)
                    assert image.v == {key: n for key, n in predicted.items() if n}
                    counts["steps"] += 1
                    rep = image
                counts["dual walks" if dual else "walks"] += 1
    assert counts == {"dual walks": 9973, "walks": 9973, "stopped": 16365,
                      "steps": 3581}


def test_framed_stability_equivalence_everywhere():
    # in the all-negative chamber the searched stability is the lattice's
    datum = build_cartan("B2")
    for v, w in [
        ({(1, 1): 1}, {(1, 0): 1}),
        ({(1, 1): 1, (2, 3): 1}, {(1, 0): 1}),
        ({(2, 2): 1, (1, 4): 1}, {(2, 0): 1}),
    ]:
        for point in exhaustive_search(datum, v, w, F2, thetas=(NEG2,)):
            assert point.stable == stability_by_full_lattice(point.rep, (NEG2,))


def _span_one_at_a_time(fld, rows):
    basis = ()
    for vec in rows:
        reduced, pivots = rref(fld, [*basis, vec])
        basis = tuple(tuple(reduced[r]) for r in range(len(pivots)))
    return basis


@st.composite
def _field_and_rows(draw):
    fld = draw(st.sampled_from([F2, PrimeField(3), QQ]))
    if fld.is_finite:
        entry = st.sampled_from(list(fld.elements()))
    else:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=6))
    return fld, rows, draw(st.permutations(rows))


@given(_field_and_rows())
def test_span_is_canonical(case):
    fld, rows, shuffled = case
    span = _span(fld, rows)
    assert span == _span(fld, shuffled)
    assert span == _span_one_at_a_time(fld, rows)
    assert len(span) == mat_rank(fld, rows)


def _spin_verdicts(rep):
    """The spin's verdict forward and backward, and the fixpoint's."""
    verdicts = (spin(rep), spin(rep, backward=True))
    fixpoint = tuple(closure_dims_by_fixpoint(rep, backward) == rep.v
                     for backward in (False, True))
    return verdicts, fixpoint


def test_spin_matches_the_fixpoint_on_the_benchmark_searches():
    # every point of every search of both quiver workloads, whatever its
    # theta, closed forward from Im A and backward from the rows of B
    counts = Counter()
    for workload in ("quiver_same_sign", "quiver_mixed"):
        for datum, v, w, _ in _workload_searches(workload):
            for point in exhaustive_search(datum, v, w, F2):
                verdicts, fixpoint = _spin_verdicts(point.rep)
                assert verdicts == fixpoint
                counts[workload] += 1
                counts["forward", workload] += verdicts[0]
                counts["backward", workload] += verdicts[1]
    assert counts == {"quiver_same_sign": 1279, "quiver_mixed": 1263,
                      ("forward", "quiver_same_sign"): 17,
                      ("backward", "quiver_same_sign"): 5,
                      ("forward", "quiver_mixed"): 79,
                      ("backward", "quiver_mixed"): 36}


@given(_random_point((F2, PrimeField(3), QQ)))
def test_spin_matches_the_fixpoint_on_random_points(case):
    rep, _, _ = case
    verdicts, fixpoint = _spin_verdicts(rep)
    assert verdicts == fixpoint


def _out_degrees(rep, backward):
    """Per V slot, the maps of ``rep`` a vector there is pushed along."""
    degrees = Counter()
    for source, target in rep.maps:
        if source[0] == target[0] == "V":
            degrees[(source if not backward else target)[1:]] += 1
    return degrees


def test_spin_pushes_each_basis_vector_once_along_each_map(monkeypatch):
    # a vector that joins its slot's basis crosses each map out of the slot
    # once, so a spin that runs its queue dry pushes sum(rank x out-degree)
    # over the slots, the ranks those of the closure, and one that stops at
    # full rank no more; a fixpoint pushes every basis row again each round
    pushes = []
    real = quiver._push
    monkeypatch.setattr(quiver, "_push",
                        lambda *args: pushes.append(args) or real(*args))
    counts = Counter()
    for datum, v, w, _ in _workload_searches("quiver_same_sign"):
        for point in exhaustive_search(datum, v, w, F2):
            rep = point.rep
            for backward in (False, True):
                degrees = _out_degrees(rep, backward)
                dims = closure_dims_by_fixpoint(rep, backward)
                bound = sum(n * degrees[slot] for slot, n in dims.items())
                pushes.clear()
                stable = spin(rep, backward)
                assert len(pushes) <= bound if stable else len(pushes) == bound
                counts["pushes"] += len(pushes)
                counts["stable"] += stable
    assert counts == {"pushes": 1726, "stable": 22}


def test_a_stable_point_stops_the_spin_at_full_rank(monkeypatch):
    # A2 with V_1^1 -> V_2^2 -> V_1^3 and the loop V_1^3 -> V_1^1, all 1x1,
    # and A_1^0 = (1 1): one seed and the two arrows reach rank 3 = |V|, so
    # the loop out of V_1^3 is never pushed and the other seed, still on the
    # queue, is never reduced (a reduction against a nonempty basis is the
    # only place the spin subtracts)
    class Counting(PrimeField):
        def sub(self, a, b):
            subs.append((a, b))
            return super().sub(a, b)

    pushes, subs = [], []
    real = quiver._push
    monkeypatch.setattr(quiver, "_push",
                        lambda *args: pushes.append(args) or real(*args))
    datum = build_cartan("A2")
    rep = GradedQuiverRep(datum, Counting(2), {(1, 1): 1, (2, 2): 1, (1, 3): 1},
                          {(1, 0): 2}, maps={
                              (("W", 1, 0), ("V", 1, 1)): [[1, 1]],
                              (("V", 1, 1), ("V", 2, 2)): [[1]],
                              (("V", 2, 2), ("V", 1, 3)): [[1]],
                              (("V", 1, 3), ("V", 1, 1)): [[1]],
                          })
    assert spin(rep) is True
    assert len(pushes) == 2 < sum(_out_degrees(rep, False).values()) == 3
    assert subs == []
    assert closure_dims_by_fixpoint(rep) == rep.v


def test_mixed_theta_stability_counts_in_the_field():
    # S_2 of the A3 node-2 dims at theta' = s_2(-1,-1,-1): the stable points
    # form one free orbit of G_v = GL_1 x GL_2 x GL_1 over F2, |GL_2(F2)| = 6;
    # adding matrix products as integers instead of in F2 reports 10
    datum = build_cartan("A3")
    v = {(1, 2): 1, (2, 1): 2, (3, 2): 1}
    theta = (Fraction(-2), Fraction(1), Fraction(-2))
    points = exhaustive_search(datum, v, {(2, 0): 1}, F2, thetas=(theta,))
    assert sum(1 for p in points if p.stable[0]) == 6


# ---------------------------------------------------------------------------
# Phi, Psi, reflection


def test_phi_is_identity_on_a1_point():
    rep = a1_point()
    assert phi_map(rep, 1, -1) == [[1]]


def test_phi_empty_when_nothing_adjacent():
    datum = build_cartan("A1")
    rep = GradedQuiverRep(datum, F2, {}, {})
    assert phi_map(rep, 1, 0) == []


def test_psi_composite_zero_on_search_corpus():
    datum = build_cartan("A2")
    v = {(1, 1): 1, (2, 2): 1}
    w = {(1, 0): 1}
    count = 0
    for point in exhaustive_search(datum, v, w, F2):
        for a in (-1, 0, 1, 2):
            psi_map(point.rep, 1, a)  # raises RelationViolated on failure
            psi_map(point.rep, 2, a)
        count += 1
    assert count > 0


def test_psi_raises_on_invalid_point():
    datum = build_cartan("A1")
    # E1bis fails: AB != 0 with no loops to cancel it
    rep = GradedQuiverRep(
        datum, F2, {(1, 1): 1, (1, -1): 1}, {(1, 0): 1},
        maps={(("W", 1, 0), ("V", 1, 1)): [[1]], (("V", 1, -1), ("W", 1, 0)): [[1]]},
    )
    assert validate_relations(rep)
    with pytest.raises(RelationViolated):
        psi_map(rep, 1, -1)


def test_reflect_a1_point():
    reflected, theta_bar = reflect(a1_point(), 1, NEG)
    assert reflected.v == {}
    assert theta_bar == (Fraction(1),)


def test_reflect_zero_rep_grows_kernel():
    datum = build_cartan("B2")
    zero = GradedQuiverRep(datum, F2, {}, {(2, 0): 1})
    reflected, theta_bar = reflect(zero, 2, NEG2)
    # kernel of the empty-target map is the whole framing slot
    assert reflected.v == {(2, -2): 1}
    assert (("V", 2, -2), ("W", 2, 0)) in reflected.maps
    assert validate_relations(reflected) == []


def test_reflect_requires_negative_coefficient():
    with pytest.raises(ValueError):
        reflect(a1_point(), 1, (Fraction(1),))


def test_reflect_requires_generic_theta():
    datum = build_cartan("A2")
    rep = GradedQuiverRep(datum, F2, {}, {(1, 0): 1})
    # theta is named as its --theta text
    with pytest.raises(NonGenericTheta, match="^-1,1 lies on a root hyperplane$"):
        reflect(rep, 1, (Fraction(-1), Fraction(1)))


def test_reflect_rejects_unstable_input():
    datum = build_cartan("A1")
    unstable = GradedQuiverRep(datum, F2, {(1, 1): 1}, {(1, 0): 1})
    with pytest.raises(StabilityViolated):
        reflect(unstable, 1, NEG)


def test_reflect_unstable_input_not_surjective(monkeypatch):
    # the same point: Phi at grade -1 is the zero map onto V_1^1, so the
    # kernel gives up, and reflect with its stability pre-check patched out
    # fails surjectivity
    datum = build_cartan("A1")
    unstable = GradedQuiverRep(datum, F2, {(1, 1): 1}, {(1, 0): 1})
    assert _reflect_kernel(unstable, 1) is None
    monkeypatch.setattr(quiver, "stability_check", lambda rep, theta: True)
    with pytest.raises(NotSurjective):
        reflect(unstable, 1, NEG)


def test_reflect_over_rationals_needs_trusted():
    # stability is decided over Q as well, so the point reflects as it is
    reflected, theta_bar = reflect(a1_point(QQ), 1, NEG)
    assert reflected.v == {} and theta_bar == (Fraction(1),)


def test_reflect_matches_braid_prediction_a2_corpus():
    datum = build_cartan("A2")
    v = {(1, 1): 1, (2, 2): 1}
    w = {(1, 0): 1}
    points = exhaustive_search(datum, v, w, F2, thetas=(NEG2,))
    stable = [p for p in points if p.stable[0]]
    assert stable
    predicted = {
        key: n
        for key, n in reflect_dimensions(datum, 1, v, w).items()
        if n
    }
    for point in stable:
        reflected, theta_bar = reflect(point.rep, 1, NEG2)
        assert reflected.v == predicted == v  # S_1 fixes this vector
        assert theta_bar == (Fraction(1), Fraction(-2))


def test_upsilon_squares_to_comparison():
    # on the A1 point the comparison map is the zero map W -> W one step down
    rep = a1_point()
    assert upsilon_map(rep, 1, -1) == []  # target layout is empty


def test_upsilon_diagram_commutes_on_valid_points():
    # Phi at (i, a - d_ii) composed with the comparison map equals the loop
    # composed with Phi at (i, a), on every relation-satisfying point
    from qcharlab.quiver import phi_blocks

    for label, v, w in [
        ("A2", {(1, 1): 1, (2, 2): 1}, {(1, 0): 1}),
        ("B2", {(1, 1): 1, (1, 5): 1, (2, 3): 1}, {(1, 0): 1}),
        ("B2", {(1, 2): 1, (1, 4): 1, (2, 2): 1, (2, 4): 1}, {(2, 0): 1}),
    ]:
        datum = build_cartan(label)
        for point in exhaustive_search(datum, v, w, F2):
            rep = point.rep
            for i in datum.nodes:
                dii = 2 * datum.di(i)
                grades = {g for (_, g) in list(v) + list(w)}
                for base in grades:
                    for shift in range(-10, 11):
                        a = base + shift
                        dom = sum(_block_dims(rep, phi_blocks(datum, i, a)))
                        low = sum(
                            _block_dims(rep, phi_blocks(datum, i, a - dii))
                        )
                        if dom == 0:
                            continue
                        lhs = mat_mul_shaped(
                            F2, phi_map(rep, i, a - dii),
                            upsilon_map(rep, i, a),
                            rep.vdim(i, a), low, dom,
                        )
                        rhs = mat_mul_shaped(
                            F2, loop_power(rep, i, a + dii, 1),
                            phi_map(rep, i, a),
                            rep.vdim(i, a), rep.vdim(i, a + dii), dom,
                        )
                        assert lhs == rhs, (label, i, a)


def test_phi_surjective_on_stable_points():
    # negative-chamber stable points have every assembled map onto
    from qcharlab.quiver import phi_blocks

    for label, v, w in [
        ("A2", {(1, 1): 1, (2, 2): 1}, {(1, 0): 1}),
        ("B2", {(1, 1): 1, (1, 5): 1, (2, 3): 1}, {(1, 0): 1}),
        ("B2", {(1, 2): 1, (1, 4): 1, (2, 2): 1, (2, 4): 1}, {(2, 0): 1}),
    ]:
        datum = build_cartan(label)
        theta = tuple(Fraction(-1) for _ in datum.nodes)
        for point in exhaustive_search(datum, v, w, F2, thetas=(theta,)):
            if not point.stable[0]:
                continue
            for i in datum.nodes:
                grades = set()
                for (node, grade) in list(v) + list(w):
                    for shift in range(-12, 13):
                        grades.add(grade + shift)
                for a in grades:
                    target = point.rep.vdim(i, a + 2 * datum.di(i))
                    if not target:
                        continue
                    phi = phi_map(point.rep, i, a)
                    assert mat_rank(F2, phi) == target, (label, i, a)


def test_reflected_coframing_is_kernel_projection():
    # a stable B = 0 point reflects to one whose new coframing is literally
    # the framing-slot rows of each kernel basis
    from qcharlab.quiver import phi_blocks

    datum = build_cartan("B2")
    v = {(1, 1): 1, (2, 3): 1}
    w = {(1, 0): 1}
    theta = NEG2
    stable = [
        p for p in exhaustive_search(datum, v, w, F2, thetas=(theta,))
        if p.stable[0]
    ]
    assert stable
    for point in stable:
        # the search found it with B = 0
        assert all(target[0] == "V" for _, target in point.rep.maps)
        reflected, _ = reflect(point.rep, 1, theta)
        for ((_, i, a), (space, _, _)), mat in reflected.maps.items():
            if space != "W":
                continue
            assert i == 1
            blocks = phi_blocks(datum, 1, a)
            dims = _block_dims(point.rep, blocks)
            basis, _ = kernel_basis(F2, phi_map(point.rep, 1, a), cols=sum(dims))
            assert mat == [list(basis[r]) for r in range(dims[0])]


def test_chain_reflect_empty_word():
    rep = a1_point()
    final, theta = chain_reflect(rep, NEG, ())
    assert final is rep and theta == NEG


def test_chain_reflect_a1():
    final, theta = chain_reflect(a1_point(), NEG, (1,))
    assert final.v == {} and theta == (Fraction(1),)


def test_chain_reflect_guards_sign():
    with pytest.raises(ValueError):
        chain_reflect(a1_point(), (Fraction(1),), (1,))


def test_chain_reflect_a2_longest_word():
    datum = build_cartan("A2")
    v = {(1, 1): 1, (2, 2): 1}
    w = {(1, 0): 1}
    stable = [
        p for p in exhaustive_search(datum, v, w, F2, thetas=(NEG2,))
        if p.stable[0]
    ]
    for word in [(1, 2, 1), (2, 1, 2)]:
        expected = dict(v)
        for i in word:
            expected = reflect_dimensions(datum, i, expected, w)
        expected = {key: n for key, n in expected.items() if n}
        for point in stable:
            final, _ = chain_reflect(point.rep, NEG2, word)
            assert final.v == expected
            assert all(n >= 0 for n in final.v.values())


# ---------------------------------------------------------------------------
# exhaustive search


def test_search_a1():
    datum = build_cartan("A1")
    points = exhaustive_search(datum, {(1, 1): 1}, {(1, 0): 1}, F2, thetas=(NEG,))
    assert len(points) == 2
    assert sorted(p.stable[0] for p in points) == [False, True]


@pytest.mark.parametrize("label,v,w,fld,count", [
    # three slots over F3, A_1^0 a 2x2 matrix
    ("A2", {(1, 1): 2, (2, 2): 1}, {(1, 0): 2, (2, 1): 1}, PrimeField(3), 2187),
    ("B2", {(1, 2): 1, (1, 4): 2, (2, 2): 2, (2, 4): 1}, {(2, 0): 1}, F2, 512),
], ids=["A2-F3", "B2-F2"])
def test_search_points_share_one_table_of_rows_per_column_count(label, v, w, fld,
                                                                count):
    # the points, their maps (in key order too) and their order are those of
    # one assignment of all entries at a time, cut row by row; every row is
    # one of the p^cols rows of a table for its column count
    datum = build_cartan(label)
    points = exhaustive_search(datum, v, w, fld)
    expected = [rep for rep in points_by_assignment(datum, v, w, fld)
                if not validate_relations(rep)]
    assert [list(p.rep.maps.items()) for p in points] == [
        list(rep.maps.items()) for rep in expected]
    assert len(points) == count and all(p.stable == () for p in points)
    shapes = [(len(mat), len(mat[0])) for mat in points[0].rep.maps.values()]
    if fld is not F2:
        assert len(shapes) >= 3 and (2, 2) in shapes
    rows = {id(row) for p in points for mat in p.rep.maps.values() for row in mat}
    assert len(rows) <= sum(fld.p ** cols for cols in {cols for _, cols in shapes})


def test_the_pruned_relation_table_decides_every_raw_point():
    # A2 with V_1^1, V_2^2 and V_1^3: the neighbour slots V_2^0 and V_2^4,
    # V_1^-1, V_1^5 and every W slot but W_1^0 are empty, so five of the
    # eight relations reach no map a point of these dims holds, and each of
    # the three left keeps one of its two paths; the rows left decide each
    # raw point, valid or not, as the relations spelled term by term do
    datum = build_cartan("A2")
    v, w, fld = {(1, 1): 1, (2, 2): 1, (1, 3): 1}, {(1, 0): 1}, PrimeField(3)
    keys = set(valid_map_keys(datum, v, w))
    table = quiver._relation_table(datum, v, w)
    assert [len(paths) for *_, paths in table] == [1, 1, 1]
    assert all(keys.issuperset(path) for *_, paths in table for path in paths)
    counts = Counter()
    for rep in points_by_assignment(datum, v, w, fld):
        bad = relation_violations_oracle(rep)
        assert quiver._violations(rep, table) == bad
        counts["points"] += 1
        counts["invalid"] += bool(bad)
    assert counts == {"points": 81, "invalid": 60}


def test_search_zero_dims():
    datum = build_cartan("A2")
    points = exhaustive_search(datum, {}, {(1, 0): 1}, F2, thetas=(NEG2,))
    assert len(points) == 1 and points[0].stable == (True,)


def test_search_over_f3():
    # scaling the framing map by a unit preserves stability, so F3 doubles
    # the stable count of the A1 slot
    datum = build_cartan("A1")
    points = exhaustive_search(
        datum, {(1, 1): 1}, {(1, 0): 1}, PrimeField(3), thetas=(NEG,)
    )
    assert len(points) == 3
    assert sum(1 for p in points if p.stable[0]) == 2


def test_reflect_over_f3_matches_braid():
    datum = build_cartan("B2")
    f3 = PrimeField(3)
    v = {(1, 1): 1, (2, 3): 1}
    w = {(1, 0): 1}
    theta = NEG2
    stable = [
        p for p in exhaustive_search(datum, v, w, f3, thetas=(theta,))
        if p.stable[0]
    ]
    assert stable
    predicted = {
        k: n for k, n in reflect_dimensions(datum, 2, v, w).items() if n
    }
    for point in stable:
        reflected, _ = reflect(point.rep, 2, theta)
        assert reflected.v == predicted


def test_search_cap():
    datum = build_cartan("A2")
    with pytest.raises(CapExceeded):
        exhaustive_search(
            datum, {(1, 0): 3, (1, 2): 3, (2, 1): 3}, {}, F2, cap_entries=5
        )


def test_search_nonempty_stable_locus_propagates():
    datum = build_cartan("A2")
    v = {(1, 1): 1, (2, 2): 1}
    w = {(1, 0): 1}
    stable = [
        p for p in exhaustive_search(datum, v, w, F2, thetas=(NEG2,))
        if p.stable[0]
    ]
    assert stable
    for point in stable:
        reflected, theta_bar = reflect(point.rep, 1, NEG2)
        # the witness lands in the predicted space and is stable there
        assert stability_check(reflected, theta_bar)


def test_simply_laced_stable_points_have_zero_loops():
    # checked across A1, A2, A3 and D4 q-character dims (loops do occur on
    # relation points there; stability is what kills them)
    from qcharlab.qchar import fm_qchar

    cases = [("A1", 1, 6), ("A2", 1, 6), ("A3", 2, 6), ("D4", 1, 6), ("D4", 2, 4)]
    stable_seen = 0
    loops_seen = 0
    for label, node, bound in cases:
        datum = build_cartan(label)
        theta = tuple(Fraction(-1) for _ in datum.nodes)
        w = {(node, 0): 1}
        for entry, _ in sorted_entries(fm_qchar(datum, node)):
            v = entry.as_dict()
            if sum(v.values()) > bound:
                continue
            for point in exhaustive_search(datum, v, w, F2, thetas=(theta,)):
                has_loop = any(
                    source[:2] == target[:2] and any(x for row in mat for x in row)
                    for (source, target), mat in point.rep.maps.items()
                )
                loops_seen += has_loop
                if not point.stable[0]:
                    continue
                stable_seen += 1
                assert not has_loop, (label, node, v)
    assert stable_seen > 10 and loops_seen > 0


# ---------------------------------------------------------------------------
# serialization


def test_point_json_round_trip():
    rep = a1_point()
    obj = json.loads(json.dumps(rep.to_json_obj()))
    again = GradedQuiverRep.from_json_obj(obj)
    assert again.v == rep.v and again.w == rep.w
    assert again.maps == rep.maps
    assert validate_relations(again) == []


def test_point_json_round_trip_on_the_corpus():
    # every point of the criterion-7 corpus: loops, arrows, A and B maps
    count = 0
    for label in ["A1", "A2", "B2"]:
        for _, _, _, _, _, points in quiver_corpus_cases(label, sums=True):
            for point in points:
                rep = point.rep
                obj = json.loads(json.dumps(rep.to_json_obj()))
                again = GradedQuiverRep.from_json_obj(obj)
                assert (again.v, again.w) == (rep.v, rep.w)
                assert again.maps == rep.maps
                assert again.to_json_obj() == obj
                count += 1
    assert count == 3603


def test_point_json_round_trip_over_q():
    datum = build_cartan("A1")
    rep = GradedQuiverRep(
        datum, QQ, {(1, 1): 1}, {(1, 0): 1},
        maps={(("W", 1, 0), ("V", 1, 1)): [[Fraction(2, 3)]]},
    )
    obj = json.loads(json.dumps(rep.to_json_obj()))
    assert obj["maps"][0]["matrix"] == [["2/3"]]
    again = GradedQuiverRep.from_json_obj(obj)
    assert again.maps[("W", 1, 0), ("V", 1, 1)] == [[Fraction(2, 3)]]
