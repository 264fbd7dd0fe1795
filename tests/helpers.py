"""Shared test helpers: the small predicates and parsers only the tests use,
the weight orbit and the word and A-level braid actions, the sorted entries
and JSON object tree of a q-character, random monomials, the braid-relation
property check, the per-word replay
oracle of the cone verifier, the expected cone-vertex count, the closure
oracle that expands every monomial, the exhaustive quiver corpus, the
per-relation oracle of the quiver relation checks, and the
eager submodule lattice that decides mixed-sign stability."""

import importlib
import random
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from qcharlab import quiver
from qcharlab.braid import apply_s, reflect_dimensions, unit_framing
from qcharlab.cartan import (
    _orbit_walk,
    build_cartan,
    fundamental_weight,
    lowest_weight_height,
    reflect_weight,
)
from qcharlab.conventions import CONVENTIONS_VERSION
from qcharlab.errors import CapExceeded
from qcharlab.extremal import _push_dims, _violation
from qcharlab.linalg import (
    F2,
    identity,
    is_zero_matrix,
    mat_mul_shaped,
    zeros,
)
from qcharlab.lweights import AMonomialVector, LaurentMonomial, expand_to_y
from qcharlab.qchar import QChar, fm_qchar, sl2_expansion
from qcharlab.quiver import (
    DEFAULT_LATTICE_CAP,
    RelationViolation,
    _map_ends,
    exhaustive_search,
)


def perfbench_module(name):
    """A module of ``perfbench/``, imported without writing bytecode beside it."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module(name)
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(bench)


def laurent_from_pairs(pairs):
    """The monomial of ``[[node, param, exp], ...]``, the inverse of ``to_pairs``."""
    return LaurentMonomial({(int(i), int(a)): int(e) for i, a, e in pairs})


def in_cone(vec):
    """True iff every entry of the A-monomial vector is nonnegative."""
    return all(mult >= 0 for _, mult in vec.items())


def i_dominant(datum, monomial, i):
    """True iff every Y_{i,.} exponent of the monomial is nonnegative."""
    return all(e >= 0 for e in monomial.node_exponents(i).values())


def weight_orbit(datum, theta):
    """The full W-orbit of a weight vector, as a frozenset of tuples."""
    top = tuple(theta)
    # raise theta into the dominant chamber, then walk the orbit down from it
    while any(c < 0 for c in top):
        i = next(i for i in datum.nodes if top[i - 1] < 0)
        top = reflect_weight(datum, i, top)
    return frozenset(weight for _, weight in _orbit_walk(datum, top))


def apply_s_word(datum, word, monomial):
    """S_w for w = s_{i_t} ... s_{i_1} and word (i_1, ..., i_t): i_1 acts first."""
    for i in word:
        monomial = apply_s(datum, i, monomial)
    return monomial


def apply_s_on_v(datum, i, vec, framing):
    """S_i on an anchored A-monomial vector, for a fixed framing."""
    new = reflect_dimensions(datum, i, vec.as_dict(), dict(framing))
    return AMonomialVector(vec.anchor, new)


def sorted_entries(qchar):
    """The (vector, mu) pairs of a q-character, sorted by A-height and then by
    the vectors' entries: the oracle of the order ``QChar.entries`` keeps."""
    return sorted(
        qchar.entries.items(), key=lambda kv: (kv[0].height(), kv[0].items())
    )


def qchar_json_obj(qchar):
    """The object tree whose canonical JSON ``QChar.to_json_text`` writes."""
    return {
        "conventions": CONVENTIONS_VERSION,
        "type": qchar.datum.label,
        "node": qchar.anchor,
        "entries": [
            {"v": [[i, a, m] for (i, a), m in vec.items()], "mu": mu}
            for vec, mu in sorted_entries(qchar)
        ],
    }


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


@dataclass
class ExtremalReport:
    word: tuple
    checked: int
    violations: list

    @property
    def ok(self):
        return not self.violations


def extremal_check(datum, qchar, element, framing=None):
    """Push every q-character monomial through S_w and record cone exits.

    Replays the element's whole word per monomial: the differential oracle
    of the verifier's row walk.
    """
    if framing is None:
        framing = unit_framing(qchar.anchor)
    violations = []
    for vec in qchar.entries:
        image = _push_dims(datum, element.word, vec.as_dict(), framing)
        violation = _violation(element.word, vec, image)
        if violation is not None:
            violations.append(violation)
    return ExtremalReport(
        word=element.word, checked=len(qchar.entries), violations=violations
    )


def fm_qchar_by_expansion(datum, node, shuffle_rng=None):
    """The closure of :func:`qchar.fm_qchar` with every monomial expanded from scratch.

    Calls ``expand_to_y`` once per processed monomial instead of carrying the
    Y-exponents from the parent: the differential oracle of the fast closure.
    """
    max_height = lowest_weight_height(datum, node)
    anchor_vec = AMonomialVector(node)
    entries = {}
    # pending: vector -> {direction: accumulated requirement}
    pending = {anchor_vec: {0: 1}}
    height = 0
    while pending:
        if height > max_height:
            raise CapExceeded(f"height cap {max_height} exceeded")
        bucket = [vec for vec in pending if vec.height() == height]
        bucket.sort(key=lambda vec: vec.items())
        if shuffle_rng is not None:
            shuffle_rng.shuffle(bucket)
        for vec in bucket:
            requirement = pending.pop(vec)
            mu = max(requirement.values())
            entries[vec] = mu
            monomial = expand_to_y(datum, vec)
            for i in datum.nodes:
                excess = mu - requirement.get(i, 0)
                part = monomial.node_exponents(i)
                if not excess or not part or not i_dominant(datum, monomial, i):
                    continue
                for pattern, coeff in sl2_expansion(datum.di(i), part):
                    if not pattern:
                        continue  # the top term regenerates vec itself
                    target = vec.add_entries(
                        {(i, p): r for p, r in pattern.items()}
                    )
                    slot = pending.setdefault(target, {})
                    slot[i] = slot.get(i, 0) + excess * coeff
        height += 1
    return QChar(datum, node, entries)


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
        entries = [vec for vec, _ in sorted_entries(q)]
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


# ---------------------------------------------------------------------------
# the relation oracle: each relation built by hand, absent maps as zero matrices


def wdim(rep, i, a):
    """The dimension of the framing space W_i^a of a quiver point."""
    return rep.w.get((i, a), 0)


def stored_or_zero(rep, kind, key):
    """The stored map, or the zero matrix of its shape where none is stored."""
    mat = rep._maps_by_kind()[kind].get(key)
    if mat is not None:
        return mat
    source, target = _map_ends(rep.datum, kind, key)
    return zeros(rep.field, rep.slot_dim(target), rep.slot_dim(source))


def loop_power(rep, i, a, count):
    """The composite of ``count`` descending loops starting at V_i^a."""
    dii = 2 * rep.datum.di(i)
    cols = rep.vdim(i, a)
    mat = identity(rep.field, cols)
    for step in range(count):
        src = rep.vdim(i, a - step * dii)
        dst = rep.vdim(i, a - (step + 1) * dii)
        mat = mat_mul_shaped(rep.field,
                             stored_or_zero(rep, "arrow", (i, a - step * dii, i)),
                             mat, dst, src, cols)
    return mat


def _mat_sum(fld, mats, rows, cols):
    total = zeros(fld, rows, cols)
    for mat in mats:
        for r in range(rows):
            row = mat[r]
            trow = total[r]
            for c in range(cols):
                trow[c] = fld.add(trow[c], row[c])
    return total


def _e1bis_violations(rep, include_ab):
    datum, fld = rep.datum, rep.field
    out = []
    for (i, a) in sorted(rep.v):
        di = datum.di(i)
        dii = 2 * di
        rows = rep.vdim(i, a + dii)
        cols = rep.vdim(i, a)
        if not rows:
            continue
        terms = []
        for j in datum.neighbors(i):
            cij = datum.c(i, j)
            dij = datum.b(i, j)
            for l in range(-cij):
                g1 = a - l * dii
                g2 = g1 - dij
                g3 = g2 - dij
                d1 = rep.vdim(i, g1)
                d2 = rep.vdim(j, g2)
                d3 = rep.vdim(i, g3)
                term = loop_power(rep, i, a, l)
                term = mat_mul_shaped(fld, stored_or_zero(rep, "arrow", (i, g1, j)),
                                      term, d2, d1, cols)
                term = mat_mul_shaped(fld, stored_or_zero(rep, "arrow", (j, g2, i)),
                                      term, d3, d2, cols)
                term = mat_mul_shaped(fld, loop_power(rep, i, g3, -cij - 1 - l),
                                      term, rows, d3, cols)
                terms.append(term)
        if include_ab:
            terms.append(mat_mul_shaped(
                fld, stored_or_zero(rep, "A", (i, a + di)),
                stored_or_zero(rep, "B", (i, a + di)),
                rows, wdim(rep, i, a + di), cols,
            ))
        if not is_zero_matrix(fld, _mat_sum(fld, terms, rows, cols)):
            name = "E1bis" if include_ab else "E1"
            out.append(RelationViolation(name, i, i, a))
    return out


def _e2_violations(rep):
    datum, fld = rep.datum, rep.field
    out = []
    for (i, a) in sorted(rep.v):
        for j in datum.neighbors(i):
            dij = datum.b(i, j)
            rows = rep.vdim(j, a + dij)
            cols = rep.vdim(i, a)
            if not rows:
                continue
            t1 = mat_mul_shaped(fld, loop_power(rep, j, a - dij, -datum.c(j, i)),
                                stored_or_zero(rep, "arrow", (i, a, j)), rows,
                                rep.vdim(j, a - dij), cols)
            t2 = mat_mul_shaped(fld, stored_or_zero(rep, "arrow", (i, a + 2 * dij, j)),
                                loop_power(rep, i, a, -datum.c(i, j)), rows,
                                rep.vdim(i, a + 2 * dij), cols)
            if not is_zero_matrix(fld, _mat_sum(fld, [t1, t2], rows, cols)):
                out.append(RelationViolation("E2", i, j, a))
    return out


def _e4_e5_violations(rep):
    datum, fld = rep.datum, rep.field
    out = []
    for (i, a) in sorted(rep.w):
        di = datum.di(i)
        if wdim(rep, i, a) and rep.vdim(i, a - di):
            e4 = mat_mul_shaped(fld, loop_power(rep, i, a + di, 1),
                                stored_or_zero(rep, "A", (i, a)), rep.vdim(i, a - di),
                                rep.vdim(i, a + di), wdim(rep, i, a))
            if not is_zero_matrix(fld, e4):
                out.append(RelationViolation("E4", i, i, a))
        if rep.vdim(i, a + di) and wdim(rep, i, a):
            e5 = mat_mul_shaped(fld, stored_or_zero(rep, "B", (i, a)),
                                loop_power(rep, i, a + di, 1), wdim(rep, i, a),
                                rep.vdim(i, a - di), rep.vdim(i, a + di))
            if not is_zero_matrix(fld, e5):
                out.append(RelationViolation("E5", i, i, a))
    return out


def relation_violations_oracle(rep):
    """What ``validate_relations`` must return, relation by relation."""
    return _e1bis_violations(rep, True) + _e2_violations(rep) + _e4_e5_violations(rep)


def validate_n_oracle(rep, node, xi):
    """What ``validate_n`` must return on a B = 0 point with xi in V_node^{d_node}."""
    fld = rep.field
    dk = rep.datum.di(node)
    out = _e1bis_violations(rep, False) + _e2_violations(rep)
    loop = loop_power(rep, node, dk, 1)
    if loop and not is_zero_matrix(
        fld, mat_mul_shaped(fld, loop, [[x] for x in xi], len(loop), len(xi), 1)
    ):
        out.append(RelationViolation("loop-kills-xi", node, node, dk))
    return out


# ---------------------------------------------------------------------------
# the eager submodule lattice: the oracle of quiver._stability_by_lattice


def _sub_totals(datum, sub):
    totals = [0] * datum.rank
    for (i, _), rows in sub.items():
        totals[i - 1] += len(rows)
    return totals


def _pairing(datum, theta, totals):
    return sum(datum.di(i) * theta[i - 1] * totals[i - 1] for i in datum.nodes)


def full_lattice(rep, base, generators, cap):
    """All joins of ``base`` with subsets of ``generators`` (BFS, deduplicated).

    Joins every generator into every member, contained or not; ``_join`` is
    looked up on the module, so a test that patches it sees these calls too.
    """
    fld = rep.field
    seen = {quiver._sub_key(base): base}
    queue = [base]
    while queue:
        current = queue.pop()
        for gen in generators:
            joined = quiver._join(fld, current, gen)
            key = quiver._sub_key(joined)
            if key not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(
                        f"submodule lattice exceeds cap {cap}", cap=cap
                    )
                seen[key] = joined
                queue.append(joined)
    return seen.values()


def stability_by_full_lattice(rep, thetas, lattice_cap=DEFAULT_LATTICE_CAP):
    """The slope condition at each theta, on every member of both lattices.

    Each lattice is built in full before any of its pairings is read, and the
    pairings are Fractions: the differential oracle of the early-exit walk in
    ``stability_check``.  Returns one verdict per theta, like
    ``SearchPoint.stable``; the lattice over Im A is built only if some theta
    passes the Ker B half, as for a single theta before the early exit.
    """
    datum = rep.datum
    cyclics = quiver._cyclic_submodules(rep)
    ker_b_gens = [c for c in cyclics if quiver._contained_in_ker_b(rep, c)]
    subs = [_sub_totals(datum, sub)
            for sub in full_lattice(rep, {}, ker_b_gens, lattice_cap)]
    stable = [all(_pairing(datum, theta, totals) <= 0 for totals in subs)
              for theta in thetas]
    if any(stable):
        v_totals = [0] * datum.rank
        for (i, _), n in rep.v.items():
            v_totals[i - 1] += n
        base = quiver._closure(rep, quiver._framing_image_seeds(rep))
        complements = [
            [whole - part for whole, part in zip(v_totals, _sub_totals(datum, sub))]
            for sub in full_lattice(rep, base, cyclics, lattice_cap)
        ]
        stable = [ok and all(_pairing(datum, theta, diff) >= 0
                             for diff in complements)
                  for ok, theta in zip(stable, thetas)]
    return tuple(stable)
