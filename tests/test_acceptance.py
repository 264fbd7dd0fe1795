"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers.  Tolerances and runtime budgets are pinned here, not
configured elsewhere.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from collections import Counter

from qcharlab.braid import apply_s, unit_framing
from qcharlab.cartan import (
    all_reduced_words,
    build_cartan,
    reflect_weight,
    weyl_elements,
)
from qcharlab.cli import main as cli_main
from qcharlab.extremal import cone_vertices, verify_theorem_main
from qcharlab.lweights import (
    AMonomialVector,
    classical_weight,
    expand_to_y,
    factor_to_a,
)
from qcharlab.linalg import F2
from qcharlab.qchar import QChar, classical_character, fm_qchar
from qcharlab.quiver import (
    chain_reflect,
    reflect,
    stability_check,
    validate_relations,
)

from helpers import (
    apply_s_on_v,
    apply_s_word,
    braid_relation_check,
    extremal_check,
    in_cone,
    quiver_corpus_cases,
    random_monomial,
    vertex_orbit_size,
)

THEOREM_CORPUS = ["A1", "A2", "A3", "B2", "C2", "B3", "C3", "G2", "D4"]
RANK2_CORPUS = ["A2", "B2", "C2", "G2"]
QUIVER_CORPUS = ["A1", "A2", "B2"]


def _report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  ({detail})")


def test_criterion_1_rank_one_exactness():
    datum = build_cartan("A1")
    start = time.perf_counter()
    q = fm_qchar(datum, 1)
    elapsed = time.perf_counter() - start
    assert q.entries == {
        AMonomialVector(1): 1,
        AMonomialVector(1, {(1, 1): 1}): 1,
    }
    assert elapsed < 0.1
    _report(1, f"A1 fundamental = {{psi, psi*A^-1}}, both mu=1, {elapsed:.4f}s")


def test_criterion_2_rank_two_corpus():
    worst = 0.0
    modules = 0
    for label in RANK2_CORPUS:
        datum = build_cartan(label)
        for node in datum.nodes:
            start = time.perf_counter()
            q = fm_qchar(datum, node)
            character = classical_character(q)
            elapsed = time.perf_counter() - start
            assert q.multiplicity(AMonomialVector(node)) == 1
            assert all(in_cone(vec) for vec in q.entries)
            for i in datum.nodes:
                reflected = {
                    reflect_weight(datum, i, wt): m for wt, m in character.items()
                }
                assert reflected == character, (label, node, i)
            assert elapsed < 10.0, (label, node, elapsed)
            worst = max(worst, elapsed)
            modules += 1
    _report(2, f"{modules} rank-2 fundamentals, worst module {worst:.3f}s < 10s")


def test_criterion_3_theorem_all_types():
    start = time.perf_counter()
    total_checks = 0
    simple_checks = 0
    longest_checks = 0
    for label in THEOREM_CORPUS:
        datum = build_cartan(label)
        for node in datum.nodes:
            summary = verify_theorem_main(fm_qchar(datum, node))
            assert summary.ok, summary.to_json_obj()
            total_checks += summary.checks
            # the rank-one and longest-element sub-cases, reported separately
            assert summary.simple_reflection_violations == 0
            assert summary.longest_element_violations == 0
            simple_checks += summary.monomial_count * datum.rank
            longest_checks += summary.monomial_count
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        3,
        f"{total_checks} (monomial, w) checks with 0 violations; proven "
        f"subcases: {simple_checks} simple-reflection and {longest_checks} "
        f"longest-element checks clean; {elapsed:.1f}s < 300s",
    )


def test_criterion_4_cone_vertices():
    vertex_total = 0
    for label in THEOREM_CORPUS:
        datum = build_cartan(label)
        for node in datum.nodes:
            q = fm_qchar(datum, node)
            vertices = cone_vertices(datum, node)
            distinct = set(vertices.values())
            assert len(distinct) == vertex_orbit_size(datum, node), (label, node)
            for vertex in distinct:
                assert q.multiplicity(vertex) == 1, (label, node, vertex)
            vertex_total += len(distinct)
    _report(4, f"{vertex_total} distinct vertices, all present with mu=1")


def test_criterion_5_braid_coherence():
    # braid relations on random monomials, per rank-2 subsystem
    relation_pairs = 0
    for label in ["A2", "B2", "C2", "G2", "A3", "B3", "C3"]:
        datum = build_cartan(label)
        for i in datum.nodes:
            for j in datum.nodes:
                if i >= j or datum.c(i, j) == 0:
                    continue
                samples = 200 if datum.m[i - 1][j - 1] == 6 else 1000
                assert braid_relation_check(datum, i, j, samples), (label, i, j)
                relation_pairs += 1

    # S_w independent of the reduced word, on all of W for ranks <= 3
    rng = random.Random(2024)
    word_elements = 0
    for label in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]:
        datum = build_cartan(label)
        samples = [random_monomial(datum, rng) for _ in range(5)]
        for element in weyl_elements(datum):
            words = all_reduced_words(datum, element)
            for m in samples:
                images = {apply_s_word(datum, word, m) for word in words}
                assert len(images) == 1, (label, element.word)
            word_elements += 1

    # closed form on dimension vectors == factor(applyS(expand))
    consistency = 0
    for label in ["A2", "B2", "G2"]:
        datum = build_cartan(label)
        for _ in range(334):
            anchor = rng.randint(1, datum.rank)
            v = {}
            for _ in range(rng.randint(0, 5)):
                key = (rng.randint(1, datum.rank), rng.randint(-4, 4))
                v[key] = v.get(key, 0) + rng.randint(-2, 3)
            vec = AMonomialVector(anchor, v)
            i = rng.randint(1, datum.rank)
            direct = apply_s_on_v(datum, i, vec, unit_framing(anchor))
            indirect = factor_to_a(
                datum, anchor, apply_s(datum, i, expand_to_y(datum, vec))
            )
            assert direct == indirect
            consistency += 1

    # exact weight intertwining
    for label in ["A2", "B2", "G2"]:
        datum = build_cartan(label)
        for _ in range(200):
            m = random_monomial(datum, rng)
            i = rng.randint(1, datum.rank)
            assert classical_weight(datum, apply_s(datum, i, m)) == reflect_weight(
                datum, i, classical_weight(datum, m)
            )
    _report(
        5,
        f"braid relations on {relation_pairs} rank-2 subsystems; word "
        f"independence on {word_elements} elements; {consistency} "
        f"closed-form consistency samples; weight intertwining exact",
    )


def test_criterion_6_negative_control():
    datum = build_cartan("A1")
    q = fm_qchar(datum, 1)
    entries = dict(q.entries)
    entries[AMonomialVector(1, {(1, 3): 1})] = 1
    corrupted = QChar(datum, 1, entries)
    flagged_words = []
    for element in weyl_elements(datum):
        report = extremal_check(datum, corrupted, element)
        if report.violations:
            flagged_words.append(element.word)
            for violation in report.violations:
                assert violation.vector == AMonomialVector(1, {(1, 3): 1})
    assert (1,) in flagged_words
    _report(6, f"injected out-of-cone monomial flagged at w in {flagged_words}")


def test_criterion_7_quiver_reflection_corpus():
    start = time.perf_counter()
    points_total = 0
    stable_total = 0
    reflections = 0
    skipped = Counter()
    for label in QUIVER_CORPUS:
        datum = build_cartan(label)
        simply_laced = all(d == 1 for d in datum.d)
        for datum, node, v, w, theta, points in quiver_corpus_cases(
            label, sums=True, skipped=skipped
        ):
            points_total += len(points)
            for point in points:
                if not point.stable[0]:
                    continue
                stable_total += 1
                if simply_laced:
                    for (i, a, j), mat in point.rep.arrows.items():
                        if i == j:
                            assert all(x == 0 for row in mat for x in row)
                for i in datum.nodes:
                    # surjectivity of every Phi is asserted inside reflect;
                    # so are the relations, dims, and stability of the output
                    reflected, theta_bar = reflect(point.rep, i, theta)
                    assert stability_check(reflected, theta_bar)
                    assert validate_relations(reflected) == []
                    reflections += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    # skipped cases are pinned, so a change to the corpus or the caps shows
    assert skipped == Counter({("over_bound", "B2", 2): 2})
    reasons = Counter()
    for (reason, _, _), n in skipped.items():
        reasons[reason] += n
    _report(
        7,
        f"{points_total} relation points, {stable_total} stable, "
        f"{reflections} reflections with all postconditions; "
        f"skipped {reasons['over_bound']} over the dimension bound, "
        f"{reasons['capped']} capped; "
        f"{elapsed:.1f}s < 600s",
    )


def test_criterion_8_chain_property():
    chains = 0
    from qcharlab.braid import reflect_dimensions

    for label in ["A2", "B2"]:
        datum = build_cartan(label)
        longest = max(weyl_elements(datum), key=lambda e: e.length)
        words = all_reduced_words(datum, longest)
        assert len(words) >= 2
        for datum, node, v, w, theta, points in quiver_corpus_cases(label):
            for point in points:
                if not point.stable[0]:
                    continue
                for word in words:
                    final, _ = chain_reflect(point.rep, theta, word)
                    expected = dict(v)
                    for i in word:
                        expected = reflect_dimensions(datum, i, expected, w)
                    expected = {k: n for k, n in expected.items() if n}
                    assert final.v == expected, (label, node, word)
                    assert all(n >= 0 for n in final.v.values())
                    chains += 1
    _report(8, f"{chains} full w0 chains, final dims = S_w0(v) >= 0")


def test_criterion_9_determinism(tmp_path):
    # byte-identical artifacts across runs
    files = []
    for run in range(2):
        out = tmp_path / f"qchar-{run}.json"
        report = tmp_path / f"report-{run}.json"
        assert cli_main(["qchar", "--type", "G2", "--node", "2",
                         "--out", str(out)]) == 0
        assert cli_main(["extremal-check", "--type", "B2", "--node", "1",
                         "--report", str(report)]) == 0
        files.append((out.read_bytes(), report.read_bytes()))
    assert files[0] == files[1]

    # the closure result does not depend on intra-height processing order
    shuffles = 0
    for label, node in [("B2", 1), ("C2", 1), ("G2", 2), ("B3", 2)]:
        datum = build_cartan(label)
        reference = fm_qchar(datum, node)
        for seed in range(3):
            shuffled = fm_qchar(datum, node, shuffle_rng=random.Random(seed))
            assert shuffled.entries == reference.entries
            shuffles += 1
    _report(9, f"artifacts byte-identical; {shuffles} shuffled closures equal")
