import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qcharlab.braid import reflect_dimensions
from qcharlab.cartan import build_cartan, reflect_weight
from qcharlab.cli import _parse_theta, parse_dims
from qcharlab.errors import (
    CapExceeded,
    FieldNotFinite,
    NonGenericTheta,
    NotSurjective,
    RelationViolated,
    ShapeMismatch,
    StabilityViolated,
)
from qcharlab.linalg import (
    F2,
    QQ,
    PrimeField,
    field_by_name,
    kernel_basis,
    mat_mul_shaped,
    mat_rank,
    rref,
    solve_exact,
)
from qcharlab.quiver import (
    DEFAULT_LATTICE_CAP,
    GradedQuiverRep,
    _span,
    _stability_by_lattice,
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
    full_lattice,
    loop_power,
    perfbench_module,
    quiver_corpus_cases,
    relation_violations_oracle,
    sorted_entries,
    stability_by_full_lattice,
    validate_n_oracle,
)

NEG = (Fraction(-1),)
NEG2 = (Fraction(-1), Fraction(-1))
POS2 = (Fraction(1), Fraction(1))


def a1_point(field=F2):
    # V_1^1 = W_1^0 = k with the framing map the identity
    datum = build_cartan("A1")
    return GradedQuiverRep(
        datum, field, {(1, 1): 1}, {(1, 0): 1}, framing={(1, 0): [[field.one()]]}
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
    basis = kernel_basis(F2, mat)
    # one free column (index 1): the basis column has 1 there
    assert basis == [[1], [1], [0]]


def test_kernel_of_empty_map_is_everything():
    basis = kernel_basis(F2, [], cols=2)
    assert basis == [[1, 0], [0, 1]]


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
        arrows={(1, 1, 1): [[1]]}, framing={(1, 0): [[1]]},
    )
    names = {v.relation for v in validate_relations(rep)}
    assert "E4" in names


def test_shape_mismatch_rejected():
    datum = build_cartan("A1")
    with pytest.raises(ShapeMismatch):
        GradedQuiverRep(
            datum, F2, {(1, 1): 2}, {(1, 0): 1}, framing={(1, 0): [[1]]}
        )


def test_wrong_shaped_arrow_and_coframing_rejected():
    datum = build_cartan("A2")
    v, w = {(1, 1): 1, (2, 2): 1}, {(1, 2): 1}
    for maps in [{"arrows": {(1, 1, 2): [[1, 0]]}},
                 {"coframing": {(1, 2): [[1], [0]]}}]:
        with pytest.raises(ShapeMismatch):
            GradedQuiverRep(datum, F2, v, w, **maps)
    # the same maps in their right shapes are accepted
    GradedQuiverRep(datum, F2, v, w, arrows={(1, 1, 2): [[1]]},
                    coframing={(1, 2): [[1]]})


def test_maps_and_dims_outside_the_datum_rejected():
    datum = build_cartan("A1")
    for v, w, framing in [
        ({(2, 1): 1}, {}, {}),
        ({(1, 1): -1}, {}, {}),
        ({(1, 1): 1}, {(0, 0): 1}, {}),
        # a map on a zero-dimensional slot still has to fit it
        ({}, {(1, 0): 1}, {(1, 0): [[1]]}),
    ]:
        with pytest.raises(ShapeMismatch):
            GradedQuiverRep(datum, F2, v, w, framing=framing)


def test_non_adjacent_arrow_rejected():
    datum = build_cartan("A3")
    with pytest.raises(ShapeMismatch):
        GradedQuiverRep(
            datum, F2, {(1, 0): 1, (3, 2): 1}, {},
            arrows={(1, 0, 3): [[1]]},
        )


def test_validate_n_examples():
    rep = a1_point()
    assert validate_n(rep, 1, [1]) == []
    datum = build_cartan("A1")
    zero = GradedQuiverRep(datum, F2, {}, {})
    assert validate_n(zero, 1, []) == []
    with pytest.raises(ValueError):
        bad = GradedQuiverRep(
            datum, F2, {(1, -1): 1}, {(1, 0): 1}, coframing={(1, 0): [[1]]}
        )
        validate_n(bad, 1, [])


def test_validate_n_flags_surviving_framing_vector():
    # a loop that does not kill xi
    datum = build_cartan("A1")
    rep = GradedQuiverRep(
        datum, F2, {(1, 1): 1, (1, -1): 1}, {},
        arrows={(1, 1, 1): [[1]]},
    )
    violations = validate_n(rep, 1, [1])
    assert any(v.relation == "loop-kills-xi" for v in violations)


def test_validate_n_adds_in_the_field():
    # the loop sends xi = (1, 1) to 1 + 1, which is 0 in F2
    datum = build_cartan("A1")
    rep = GradedQuiverRep(
        datum, F2, {(1, 1): 2, (1, -1): 1}, {},
        arrows={(1, 1, 1): [[1, 1]]},
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
                    datum, F2, point.rep.v, point.rep.w,
                    point.rep.arrows, point.rep.framing, {},
                )
                a_map = rep0.framing.get((node, 0))
                dk = datum.di(node)
                xi = (
                    [row[0] for row in a_map]
                    if a_map
                    else [0] * rep0.vdim(node, dk)
                )
                assert validate_n(rep0, node, xi) == []


@st.composite
def _random_point(draw):
    """A point with random entries on every valid map; most are not valid.

    V slots are drawn among those a chain of maps links to the framing slot
    W_k^0, so that most relations compose maps that are present.
    """
    datum = build_cartan(draw(st.sampled_from(["A2", "B2", "G2"])))
    fld = draw(st.sampled_from([F2, PrimeField(3)]))
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
    entry = st.sampled_from(list(fld.elements()))
    maps = {"arrow": {}, "A": {}, "B": {}}
    for kind, key in valid_map_keys(datum, v, w):
        rows, cols = empty._map_shape(kind, key)
        row = st.lists(entry, min_size=cols, max_size=cols)
        maps[kind][key] = draw(st.lists(row, min_size=rows, max_size=rows))
    node = draw(st.sampled_from(datum.nodes))
    dim = empty.vdim(node, datum.di(node))
    xi = draw(st.lists(entry, min_size=dim, max_size=dim))
    rep = GradedQuiverRep(datum, fld, v, w, maps["arrow"], maps["A"], maps["B"])
    return rep, node, xi


@given(_random_point())
def test_relation_checks_match_the_per_relation_oracle(case):
    # exhaustive_search keeps only valid points, so only random ones reach
    # the violation paths; the oracle builds each relation with zero matrices
    rep, node, xi = case
    assert validate_relations(rep) == relation_violations_oracle(rep)
    framed = GradedQuiverRep(rep.datum, rep.field, rep.v, rep.w, rep.arrows,
                             rep.framing, {})
    assert validate_n(framed, node, xi) == validate_n_oracle(framed, node, xi)


def test_relation_checks_build_no_zero_matrix(monkeypatch):
    # every point of one search shares v and w; an absent map is skipped,
    # never materialized as a zero matrix
    import qcharlab.quiver as quiver

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
    # the table reads only datum, v and w, which every point of one search shares
    import qcharlab.quiver as quiver

    calls = []
    real = quiver._relation_table
    monkeypatch.setattr(quiver, "_relation_table",
                        lambda *args, **kwargs: calls.append(args)
                        or real(*args, **kwargs))
    datum = build_cartan("B2")
    v = {(1, 2): 1, (1, 4): 2, (2, 2): 2, (2, 4): 1}
    points = exhaustive_search(datum, v, {(2, 0): 1}, F2)
    assert len(points) == 512
    assert len(calls) == 1


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
    rep = a1_point(QQ)
    with pytest.raises(FieldNotFinite):
        stability_check(rep, NEG)
    with pytest.raises(NonGenericTheta):
        stability_check(a1_point(), (Fraction(0),))
    big = GradedQuiverRep(build_cartan("A1"), F2, {(1, 1): 15}, {})
    with pytest.raises(CapExceeded):
        stability_check(big, NEG)


@pytest.mark.parametrize("theta", [NEG2, POS2], ids=["negative", "positive"])
def test_same_sign_guards_still_fire(theta):
    datum = build_cartan("A2")
    with pytest.raises(FieldNotFinite):
        stability_check(GradedQuiverRep(datum, QQ, {(1, 1): 1}, {}), theta)
    big = GradedQuiverRep(datum, F2, {(1, 1): 8, (2, 2): 7}, {})
    with pytest.raises(CapExceeded):
        stability_check(big, theta)
    # a same-sign theta with a zero entry lies on the hyperplane of a simple root
    on_wall = (Fraction(0), theta[1])
    with pytest.raises(NonGenericTheta):
        stability_check(GradedQuiverRep(datum, F2, {(1, 1): 1}, {}), on_wall)


def test_lattice_cap_only_reaches_mixed_theta():
    # V_1^1 = W_1^0 = k with A the identity: its lattices have two members
    datum = build_cartan("A2")
    rep = GradedQuiverRep(datum, F2, {(1, 1): 1}, {(1, 0): 1},
                          framing={(1, 0): [[1]]})
    assert stability_check(rep, NEG2, lattice_cap=1) is True
    assert stability_check(rep, POS2, lattice_cap=1) is False
    with pytest.raises(CapExceeded):
        _stability_by_lattice(rep, NEG2, 1)
    with pytest.raises(CapExceeded):
        stability_check(rep, (Fraction(-1), Fraction(3)), lattice_cap=1)


def test_same_sign_shortcuts_match_the_lattice_on_the_corpus():
    # the whole criterion-7 corpus at both same-sign chambers, and every
    # reflected stable point at its s_i theta (positive for A1)
    counts = Counter()
    for label in ["A1", "A2", "B2"]:
        for datum, _, _, _, neg, points in quiver_corpus_cases(label, sums=True):
            pos = tuple(-t for t in neg)
            for point in points:
                rep = point.rep
                for theta, stable in [(neg, point.stable[0]),
                                      (pos, stability_check(rep, pos))]:
                    assert stable == _stability_by_lattice(
                        rep, theta, DEFAULT_LATTICE_CAP
                    )
                    counts["stable", theta[0]] += stable
                counts["points"] += 1
                if not point.stable[0]:
                    continue
                for i in datum.nodes:
                    reflected, theta_bar = reflect(rep, i, neg)
                    assert stability_check(reflected, theta_bar) is True
                    assert _stability_by_lattice(
                        reflected, theta_bar, DEFAULT_LATTICE_CAP
                    ) is True
                    counts["reflected"] += 1
    assert counts == {"points": 3603, ("stable", -1): 17, ("stable", 1): 5,
                      "reflected": 32}


def _quiver_mixed_searches():
    """(datum, v, w, theta) of each search of the benchmark's quiver-mixed workload."""
    for group in perfbench_module("workloads").quiver_mixed():
        for op in group:
            flags = dict(zip(op.args[1:-1:2], op.args[2:-1:2]))
            datum = build_cartan(flags["--type"])
            theta = _parse_theta(op.args[-1].removeprefix("--theta="), datum.rank)
            yield datum, parse_dims(flags["--v"]), parse_dims(flags["--w"]), theta


def test_stability_matches_the_full_lattice_on_quiver_mixed():
    counts = Counter()
    for datum, v, w, theta in _quiver_mixed_searches():
        assert min(theta) < 0 < max(theta)
        for point in exhaustive_search(datum, v, w, F2, thetas=(theta,)):
            assert point.stable == stability_by_full_lattice(point.rep, (theta,))
            counts["points"] += 1
            counts["stable"] += point.stable[0]
        counts["searches"] += 1
    assert counts == {"searches": 126, "points": 1263, "stable": 131}


def test_lattice_walk_reaches_every_member_of_the_full_lattice():
    # the skip of contained generators may change the order of the walk,
    # never its members: both lattices of every quiver-mixed point
    import qcharlab.quiver as quiver

    members = 0
    for datum, v, w, _ in _quiver_mixed_searches():
        for point in exhaustive_search(datum, v, w, F2):
            rep = point.rep
            cyclics = quiver._cyclic_submodules(rep)
            base = quiver._closure(rep, quiver._framing_image_seeds(rep))
            for start, gens in [
                ({}, [c for c in cyclics if quiver._contained_in_ker_b(rep, c)]),
                (base, cyclics),
            ]:
                walked = [quiver._sub_key(sub) for sub in
                          quiver._lattice(rep, start, gens, DEFAULT_LATTICE_CAP)]
                assert len(walked) == len(set(walked))
                assert set(walked) == {quiver._sub_key(sub) for sub in full_lattice(
                    rep, start, gens, DEFAULT_LATTICE_CAP)}
                members += len(walked)
    assert members == 35599


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


def _two_plane_point():
    # V_1^1 = k^2 and no maps: every line is a submodule inside Ker B, and at
    # theta = (1, -2) each pairs 1 > 0, while the Ker B lattice has 5 members
    datum = build_cartan("A2")
    return GradedQuiverRep(datum, F2, {(1, 1): 2}, {}), (Fraction(1), Fraction(-2))


def _counting_joins(monkeypatch, check=None):
    import qcharlab.quiver as quiver

    calls = []
    real = quiver._join

    def join(fld, left, right):
        if check is not None:
            check(fld, left, right)
        calls.append(1)
        return real(fld, left, right)

    monkeypatch.setattr(quiver, "_join", join)
    return calls


def test_mixed_walk_stops_at_the_first_witness(monkeypatch):
    rep, theta = _two_plane_point()
    calls = _counting_joins(monkeypatch)
    assert stability_check(rep, theta) is False
    walked = len(calls)
    assert stability_by_full_lattice(rep, (theta,)) == (False,)
    # the oracle joins each of the 3 lines into each of the 5 members
    assert (walked, len(calls) - walked) == (1, 15)


def test_mixed_walk_never_joins_a_contained_generator(monkeypatch):
    def grows(fld, current, gen):
        joined = {key: _span(fld, current.get(key, ()) + rows)
                  for key, rows in gen.items()}
        assert any(len(rows) > len(current.get(key, ()))
                   for key, rows in joined.items())

    calls = _counting_joins(monkeypatch, grows)
    for datum, v, w, theta in _quiver_mixed_searches():
        exhaustive_search(datum, v, w, F2, thetas=(theta,))
    assert len(calls) == 9524


def test_early_witness_is_found_before_the_lattice_cap():
    # the one change of the early exit: a witness that comes before the cap
    # decides the point, where the whole lattice would exceed it
    rep, theta = _two_plane_point()
    assert stability_check(rep, theta, lattice_cap=2) is False
    with pytest.raises(CapExceeded):
        stability_by_full_lattice(rep, (theta,), 2)


def test_framed_stability_equivalence_everywhere():
    # in the all-negative chamber the searched stability is the lattice's
    datum = build_cartan("B2")
    for v, w in [
        ({(1, 1): 1}, {(1, 0): 1}),
        ({(1, 1): 1, (2, 3): 1}, {(1, 0): 1}),
        ({(2, 2): 1, (1, 4): 1}, {(2, 0): 1}),
    ]:
        for point in exhaustive_search(datum, v, w, F2, thetas=(NEG2,)):
            assert point.stable[0] == _stability_by_lattice(
                point.rep, NEG2, DEFAULT_LATTICE_CAP
            )


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
        framing={(1, 0): [[1]]}, coframing={(1, 0): [[1]]},
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
    assert (2, 0) in reflected.coframing
    assert validate_relations(reflected) == []


def test_reflect_requires_negative_coefficient():
    with pytest.raises(ValueError):
        reflect(a1_point(), 1, (Fraction(1),))


def test_reflect_requires_generic_theta():
    datum = build_cartan("A2")
    rep = GradedQuiverRep(datum, F2, {}, {(1, 0): 1})
    with pytest.raises(NonGenericTheta):
        reflect(rep, 1, (Fraction(-1), Fraction(1)))


def test_reflect_rejects_unstable_input():
    datum = build_cartan("A1")
    unstable = GradedQuiverRep(datum, F2, {(1, 1): 1}, {(1, 0): 1})
    with pytest.raises(StabilityViolated):
        reflect(unstable, 1, NEG)


def test_reflect_unstable_input_not_surjective():
    # the same point, pushed through with trusted=True, fails surjectivity
    datum = build_cartan("A1")
    unstable = GradedQuiverRep(datum, F2, {(1, 1): 1}, {(1, 0): 1})
    with pytest.raises(NotSurjective):
        reflect(unstable, 1, NEG, trusted=True)


def test_reflect_over_rationals_needs_trusted():
    rep = a1_point(QQ)
    with pytest.raises(FieldNotFinite):
        reflect(rep, 1, NEG)
    reflected, theta_bar = reflect(rep, 1, NEG, trusted=True)
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
    from qcharlab.quiver import _block_dims, phi_blocks

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
    from qcharlab.quiver import _block_dims, phi_blocks

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
    from qcharlab.linalg import kernel_basis as kb
    from qcharlab.quiver import _block_dims, phi_blocks

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
        assert not point.rep.coframing  # search found it with B = 0
        reflected, _ = reflect(point.rep, 1, theta)
        for (i, grade), mat in reflected.coframing.items():
            assert i == 1
            a = grade - datum.di(1)
            blocks = phi_blocks(datum, 1, a)
            dims = _block_dims(point.rep, blocks)
            basis = kb(F2, phi_map(point.rep, 1, a), cols=sum(dims))
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
                    i == j and any(x for row in mat for x in row)
                    for (i, a, j), mat in point.rep.arrows.items()
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
    assert again.framing == rep.framing
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
                assert (again.arrows, again.framing, again.coframing) == (
                    rep.arrows, rep.framing, rep.coframing
                )
                assert again.to_json_obj() == obj
                count += 1
    assert count == 3603


def test_point_json_round_trip_over_q():
    datum = build_cartan("A1")
    rep = GradedQuiverRep(
        datum, QQ, {(1, 1): 1}, {(1, 0): 1},
        framing={(1, 0): [[Fraction(2, 3)]]},
    )
    obj = json.loads(json.dumps(rep.to_json_obj()))
    assert obj["maps"][0]["matrix"] == [["2/3"]]
    again = GradedQuiverRep.from_json_obj(obj)
    assert again.framing[(1, 0)] == [[Fraction(2, 3)]]
