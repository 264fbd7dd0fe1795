"""Shared test helpers: random monomials, the braid-relation property check,
the expected cone-vertex count, and the exhaustive quiver corpus."""

import random
from collections import Counter
from fractions import Fraction

from qcharlab.braid import apply_s_word
from qcharlab.cartan import build_cartan, fundamental_weight, weight_orbit
from qcharlab.errors import CapExceeded
from qcharlab.linalg import F2
from qcharlab.lweights import LaurentMonomial
from qcharlab.qchar import fm_qchar
from qcharlab.quiver import exhaustive_search


def random_monomial(datum, rng, max_terms=4, param_range=6, max_exp=3):
    """A random sparse monomial, for property checks."""
    exps = {}
    for _ in range(rng.randint(0, max_terms)):
        node = rng.randint(1, datum.rank)
        param = rng.randint(-param_range, param_range)
        exp = rng.choice([e for e in range(-max_exp, max_exp + 1) if e])
        exps[(node, param)] = exps.get((node, param), 0) + exp
    return LaurentMonomial(exps)


def braid_relation_check(datum, i, j, sample_count, seed=0):
    """True iff the m_ij-fold alternating products of S_i, S_j agree on samples."""
    if i == j:
        raise ValueError("braid relations concern distinct nodes")
    m = datum.m[i - 1][j - 1]
    word_a = tuple(i if t % 2 == 0 else j for t in range(m))
    word_b = tuple(j if t % 2 == 0 else i for t in range(m))
    rng = random.Random(seed)
    for _ in range(sample_count):
        monomial = random_monomial(datum, rng)
        if apply_s_word(datum, word_a, monomial) != apply_s_word(
            datum, word_b, monomial
        ):
            return False
    return True


def vertex_orbit_size(datum, node):
    """|W . omega_k|, the expected number of distinct cone vertices."""
    return len(weight_orbit(datum, fundamental_weight(datum, node)))


def quiver_corpus_cases(label, dim_bound=6, entry_cap=22, sums=False,
                        skipped=None):
    """(datum, node, v, w, theta, points) per q-character entry of every node.

    Every point is searched over F2 and classified at theta = (-1, ..., -1).
    With ``sums`` the corpus also contains pairwise sums of entries (total
    dimension still bounded), which produce graded pieces of dimension two
    and dimension vectors whose stable locus may be empty.  Dimension vectors
    over ``dim_bound`` and searches over ``entry_cap`` are skipped; each skip
    is counted in the ``skipped`` Counter, keyed by (reason, label, node) with
    reason "over_bound" or "capped".
    """
    if skipped is None:
        skipped = Counter()
    datum = build_cartan(label)
    theta = tuple(Fraction(-1) for _ in datum.nodes)
    for node in datum.nodes:
        q = fm_qchar(datum, node)
        w = {(node, 0): 1}
        entries = [vec for vec, _ in q.sorted_entries()]
        dims = [vec.as_dict() for vec in entries]
        if sums:
            seen = {tuple(sorted(v.items())) for v in dims}
            for left in entries:
                for right in entries:
                    combined = (left + right).as_dict()
                    key = tuple(sorted(combined.items()))
                    if key not in seen:
                        seen.add(key)
                        dims.append(combined)
        for v in dims:
            if sum(v.values()) > dim_bound:
                skipped["over_bound", label, node] += 1
                continue
            try:
                points = exhaustive_search(
                    datum, v, w, F2, thetas=(theta,), cap_entries=entry_cap
                )
            except CapExceeded:
                skipped["capped", label, node] += 1
                continue
            yield datum, node, v, w, theta, points
