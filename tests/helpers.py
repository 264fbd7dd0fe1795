"""Shared test helpers: the small predicates and parsers only the tests use,
the weight orbit, the root system and its genericity test, the braid action
on Laurent monomials with the A-monomial factorization (the oracle of the
closed form on A-monomial vectors), the plain-dict model of an A-monomial
vector, the A-level braid action, the sorted entries
and JSON object tree of a q-character, random monomials, the braid-relation
property check, the per-word replay
oracle of the cone verifier, the expected cone-vertex count, the closure
oracle that expands every monomial, the exhaustive quiver corpus, the
object-tree writer of a search artifact, the
per-relation oracle of the quiver relation checks, the point builder that
cuts each assignment of the search into rows, the fixpoint submodule
closure (the oracle of the spin that decides the same-sign chambers), the
full submodule lattice that decides stability by enumeration, the
chamber walk that always walks up from theta, and the linear solver that
factors each new map of the reflection through a kernel."""

import importlib
import json
import random
import sys
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from pathlib import Path

from qcharlab import cli, quiver
from qcharlab.braid import reflect_dimensions, unit_framing
from qcharlab.cartan import (
    _lower,
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
    field_by_name,
    identity,
    is_zero_matrix,
    kernel_basis,
    mat_mul_shaped,
    rref,
    zeros,
)
from qcharlab.lweights import AMonomialVector, LaurentMonomial, _accumulate, expand_to_y
from qcharlab.qchar import QChar, fm_qchar, sl2_expansion
from qcharlab.quiver import RelationViolation, exhaustive_search

# every type build_cartan accepts
SUPPORTED_LABELS = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
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
    return all(e >= 0 for e in node_exponents(monomial, i).values())


def weight_orbit(datum, theta):
    """The full W-orbit of a weight vector, as a frozenset of tuples."""
    top = tuple(theta)
    # raise theta into the dominant chamber, then walk the orbit down from it
    while any(c < 0 for c in top):
        i = next(i for i in datum.nodes if top[i - 1] < 0)
        top = reflect_weight(datum, i, top)
    return frozenset(weight for _, weight in _orbit_walk(datum, top))


# ---------------------------------------------------------------------------
# the root system over simple-root coordinates: the oracle of is_generic


@lru_cache(maxsize=None)
def simple_reflection_matrix(datum, i):
    """Action of s_i on simple-root coordinates: alpha_j -> alpha_j - c_ij alpha_i."""
    n = datum.rank
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for j in range(1, n + 1):
        rows[i - 1][j - 1] = -datum.c(i, j) if j != i else -1
    return tuple(tuple(row) for row in rows)


def apply_root_matrix(matrix, coords):
    n = len(matrix)
    return tuple(sum(matrix[r][k] * coords[k] for k in range(n)) for r in range(n))


@lru_cache(maxsize=None)
def all_roots(datum):
    """Every root, as simple-root coordinates, by reflection closure."""
    simple = [tuple(int(k == i - 1) for k in range(datum.rank)) for i in datum.nodes]
    seen = set(simple)
    queue = deque(simple)
    while queue:
        root = queue.popleft()
        for i in datum.nodes:
            image = apply_root_matrix(simple_reflection_matrix(datum, i), root)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def positive_roots(datum):
    return tuple(r for r in all_roots(datum) if all(c >= 0 for c in r))


def root_pairing(datum, theta, root_coords):
    """(theta, alpha) for alpha = sum n_i alpha_i, i.e. sum_i n_i d_i theta_i."""
    return sum(
        root_coords[i - 1] * datum.di(i) * theta[i - 1] for i in datum.nodes
    )


def is_generic_by_roots(datum, theta):
    """True iff theta pairs nonzero with every positive root."""
    return all(root_pairing(datum, theta, r) != 0 for r in positive_roots(datum))


# ---------------------------------------------------------------------------
# the braid action on Laurent monomials: the generator rule of
# qcharlab.conventions item 3 itself, the oracle of the closed form on
# A-monomial vectors that the program computes with


class NotFactorable(Exception):
    """A Laurent monomial has no integer A-monomial factorization in the window."""


def times(*monomials):
    """The product of Laurent monomials, by the accumulating constructor."""
    return LaurentMonomial([item for m in monomials for item in m.items()])


def power(monomial, exp):
    """The ``exp``-th power of a Laurent monomial."""
    return LaurentMonomial([(key, e * exp) for key, e in monomial.items()])


def node_exponents(monomial, node):
    """param -> exp over the Y_{node,param}^{exp} factors of a monomial."""
    return {param: e for (n, param), e in monomial.items() if n == node}


def a_monomial_inverse(datum, i, a):
    """A_{i,a}^{-1} as a Y-monomial, written from qcharlab.conventions item 2
    apart from the table that ``expand_to_y`` reads."""
    exps = [((i, a + datum.di(i)), -1), ((i, a - datum.di(i)), -1)]
    for j in datum.neighbors(i):
        cji = datum.c(j, i)
        exps.extend(((j, a + s), 1) for s in range(cji + 1, -cji, 2))
    return LaurentMonomial(exps)


def apply_s(datum, i, monomial):
    """S_i: multiply by A_{i, b - d_i}^{-u} for each Y_{i,b}^{u} factor."""
    di = datum.di(i)
    return times(monomial, *(power(a_monomial_inverse(datum, i, b - di), u)
                             for b, u in node_exponents(monomial, i).items()))


def apply_s_inverse(datum, i, monomial):
    """Two-sided inverse of S_i: the shift goes up instead of down."""
    di = datum.di(i)
    return times(monomial, *(power(a_monomial_inverse(datum, i, b + di), u)
                             for b, u in node_exponents(monomial, i).items()))


def apply_s_word(datum, word, monomial):
    """S_w for w = s_{i_t} ... s_{i_1} and word (i_1, ..., i_t): i_1 acts first."""
    for i in word:
        monomial = apply_s(datum, i, monomial)
    return monomial


def apply_s_word_inverse(datum, word, monomial):
    """S_w^{-1} for w = s_{i_t} ... s_{i_1} and word (i_1, ..., i_t): S_{i_t}^{-1}
    acts first."""
    for i in reversed(word):
        monomial = apply_s_inverse(datum, i, monomial)
    return monomial


def factor_to_a(datum, anchor, monomial):
    """Invert ``expand_to_y``: the unique v with expansion equal to the input.

    Works top-down: the highest surviving parameter b of the residual can only
    be produced by the leading Y_{i, a+d_i}^{-1} factor of A_{i, b-d_i}, so
    each step is forced.  The search window extends the input's parameter
    range downward by twice the pad R = (1 + max |c_ij|) * max d_i; if the
    residual is still nonempty there, no integer solution exists and
    NotFactorable is raised.
    """
    residual = dict(times(monomial, LaurentMonomial.y(anchor, 0, -1)).items())
    params = [a for (_, a), _ in monomial.items()] + [0]
    pad = (1 + max(abs(c) for row in datum.cartan for c in row)) * max(datum.d)
    cutoff = min(params) - 2 * pad
    v = {}
    while residual:
        top = max(a for _, a in residual)
        for i in datum.nodes:
            exp = residual.get((i, top), 0)
            if not exp:
                continue
            a = top - datum.di(i)
            if a < cutoff:
                raise NotFactorable(
                    f"no A-monomial factorization of {monomial!r} with anchor "
                    f"{anchor} within the doubled window (floor {cutoff})"
                )
            v[(i, a)] = v.get((i, a), 0) - exp
            _accumulate(residual, a_monomial_inverse(datum, i, a).items(), exp)
    return AMonomialVector(anchor, v)


def oracle_cone_vertices(datum, node):
    """``extremal.cone_vertices`` by the generator rule: one S_i^{-1} on Laurent
    monomials per orbit point, from its parent's image, and then factored."""
    images = {}
    for word, weight in _orbit_walk(datum, fundamental_weight(datum, node)):
        if word:
            i = word[-1]
            parent = images[reflect_weight(datum, i, weight)]
            images[weight] = apply_s_inverse(datum, i, parent)
        else:
            images[weight] = LaurentMonomial.y(node, 0)
    return {weight: factor_to_a(datum, node, image) for weight, image in images.items()}


def oracle_vertex(datum, node, word):
    """S_w^{-1}(Y_{k,0}) for the word of w, by the generator rule and then
    factored: the oracle of ``extremal.cone_vertices`` and ``word_vertex``."""
    image = apply_s_word_inverse(datum, word, LaurentMonomial.y(node, 0))
    return factor_to_a(datum, node, image)


class DictVector:
    """An anchored A-monomial vector kept as a plain dict (node, param) ->
    nonzero mult: the model of the methods that ``AMonomialVector`` answers
    from its sorted items tuple."""

    def __init__(self, anchor, entries=()):
        totals = {}
        for key, mult in entries:
            totals[key] = totals.get(key, 0) + mult
        self.anchor = anchor
        self.v = {key: mult for key, mult in totals.items() if mult}

    def entry(self, node, param):
        return self.v.get((node, param), 0)

    def support(self):
        return set(self.v)

    def height(self):
        return sum(self.v.values())

    def add_entries(self, entries):
        return DictVector(self.anchor, [*self.v.items(), *entries])

    def __add__(self, other):
        if other.anchor != self.anchor:
            raise ValueError("cannot add vectors with different anchors")
        return self.add_entries(other.v.items())

    def __eq__(self, other):
        return self.anchor == other.anchor and self.v == other.v


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
                part = node_exponents(monomial, i)
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


def search_artifact_oracle(argv):
    """The text ``quiver-search`` with ``argv`` (less ``--out``) writes, made
    as one object tree of every point's ``to_json_obj`` and dumped at once:
    the oracle of the per-search template writer of ``cli``."""
    args = cli._build_parser()[0].parse_args(argv)
    datum, field = build_cartan(args.type), field_by_name(args.field)
    v, w = cli.parse_dims(args.v), cli.parse_dims(args.w)
    thetas = (cli._parse_theta(args.theta, datum),) if args.theta else ()
    points = exhaustive_search(datum, v, w, field, thetas=thetas,
                               cap_entries=args.cap_entries)
    obj = {
        "conventions": CONVENTIONS_VERSION,
        "type": datum.label,
        "field": field.name,
        "v": [[i, a, n] for (i, a), n in sorted(v.items())],
        "w": [[i, a, n] for (i, a), n in sorted(w.items())],
        "points": [
            {"point": point.rep.to_json_obj(), "stable": list(point.stable)}
            for point in points
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def split_dims_text(text):
    """Split 'n@(i,a),m@(j,b)' on the commas at parenthesis depth 0, the
    oracle of the one-regex split in ``cli.parse_dims``."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def parse_dims_by_depth(text):
    """The dims ``cli.parse_dims`` reads off ``text`` when it splits it by
    parenthesis depth (:func:`split_dims_text`), or None where it refuses it."""
    if not text.strip():
        return {}
    dims = {}
    for chunk in split_dims_text(text):
        match = cli._DIMS_RE.match(chunk)
        if not match or (int(match[2]), int(match[3])) in dims:
            return None
        dims[int(match[2]), int(match[3])] = int(match[1])
    return dims


# ---------------------------------------------------------------------------
# the relation oracle: each relation built by hand, absent maps as zero matrices


def wdim(rep, i, a):
    """The dimension of the framing space W_i^a of a quiver point."""
    return rep.w.get((i, a), 0)


def _map_ends(datum, kind, key):
    """The (source, target) slots, each ("V"|"W", node, grade), of a map.

    The grading stated per kind, the oracle of ``quiver._step``: an arrow
    (i, a, j) goes V_i^a -> V_j^{a - d_ij}, A (i, a) goes
    W_i^a -> V_i^{a + d_i}, and B (i, a) goes V_i^{a - d_i} -> W_i^a.
    """
    if kind == "arrow":
        i, a, j = key
        return ("V", i, a), ("V", j, a - datum.b(i, j))
    i, a = key
    if kind == "A":
        return ("W", i, a), ("V", i, a + datum.di(i))
    return ("V", i, a - datum.di(i)), ("W", i, a)


def kind_and_key(ends):
    """The (kind, key) of a map by its (source, target), inverse to ``_map_ends``."""
    (space, i, a), (to, j, b) = ends
    if space == to:
        return "arrow", (i, a, j)
    return ("A", (i, a)) if space == "W" else ("B", (j, b))


def without_b(rep):
    """The maps of ``rep`` but its B maps."""
    return {ends: mat for ends, mat in rep.maps.items() if ends[1][0] != "W"}


def stored_or_zero(rep, kind, key):
    """The stored map, or the zero matrix of its shape where none is stored."""
    source, target = _map_ends(rep.datum, kind, key)
    mat = rep.maps.get((source, target))
    if mat is not None:
        return mat
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


def e1bis_paths_oracle(datum, i, a, framed):
    """The paths of E1bis at (i, a), or of E1 without ``framed``, term by term.

    Per neighbour j and l = 0..-c_ij-1 the path of
    loop_i^{-c_ij-1-l} o (i<-j) o (j<-i) o loop_i^l out of V_i^a, then the
    path of A_i^{a+d_i} B_i^{a+d_i} if ``framed``, each as the steps of
    ``quiver._path``.  The oracle of the Phi o Psi rows of
    ``quiver._relation_table``, which keep those through maps the dims allow.
    """
    at = ("V", i)
    paths = []
    for j in datum.neighbors(i):
        c = -datum.c(i, j)
        paths += [[at] * l + [("V", j), at] + [at] * (c - 1 - l) for l in range(c)]
    if framed:
        paths.append([("W", i), at])
    return [quiver._path(datum, ("V", i, a), targets) for targets in paths]


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
# the full submodule lattice: the oracle of quiver.stability_check


def _span(fld, rows):
    """Canonical echelon basis (tuple of row tuples) of the span of ``rows``."""
    reduced, pivots = rref(fld, rows)
    return tuple(tuple(reduced[r]) for r in range(len(pivots)))


def _closure(rep, seeds, backward=False):
    """Smallest subrepresentation containing the seed vectors.

    Closed under every arrow and loop (framing maps do not act).  Returns a
    dict (node, grade) -> canonical tuple of echelon basis rows.  With
    ``backward`` the seeds are row functionals, carried back along the
    transposed arrows: the result is then the annihilator of the largest
    subrepresentation that every seed kills.  The fixpoint that
    ``quiver._spin`` replaced, kept as its oracle: each round carries every
    span through every arrow and re-reduces it.
    """
    fld = rep.field
    spans = {}
    for key, vectors in seeds.items():
        rows = _span(fld, vectors)
        if rows:
            spans[key] = rows
    moves = []  # (from, to, factor) per arrow: a row r moves to r * factor
    for (source, target), mat in rep.maps.items():
        if source[0] == target[0] == "V":
            source, target = source[1:], target[1:]
            moves.append((target, source, mat) if backward
                         else (source, target, list(zip(*mat))))
    changed = True
    while changed:
        changed = False
        for source, target, factor in moves:
            rows = spans.get(source)
            if not rows:
                continue
            trows = spans.get(target, ())
            image = mat_mul_shaped(fld, rows, factor, len(rows), len(factor),
                                   len(factor[0]))
            grown = _span(fld, [*trows, *image])
            if len(grown) > len(trows):
                spans[target] = grown
                changed = True
    return spans


def _sub_dims(sub):
    return {key: len(rows) for key, rows in sub.items()}


def _framing_image_seeds(rep):
    seeds = {}
    for (source, target), mat in rep.maps.items():
        if source[0] == "W":
            seeds.setdefault(target[1:], []).extend(map(list, zip(*mat)))
    return seeds


def closure_dims_by_fixpoint(rep, backward=False):
    """The dims of the closure whose rank ``quiver._spin`` counts, by the
    fixpoint :func:`_closure`: of the framing images, or with ``backward``
    of the rows of every B.  :func:`spin` says whether they are ``rep.v``."""
    if backward:
        seeds = {source[1:]: mat for (source, target), mat in rep.maps.items()
                 if target[0] == "W"}
    else:
        seeds = _framing_image_seeds(rep)
    return _sub_dims(_closure(rep, seeds, backward))


def points_by_assignment(datum, v, w, field):
    """Every point of dims (v, w) over a finite ``field``, relations or not,
    built as ``quiver.exhaustive_search`` once built them: per assignment of
    all free entries, each map's rows cut from it as new lists.  The oracle
    of the search's shared row tables."""
    empty = quiver.GradedQuiverRep(datum, field, v, w)
    slots = quiver.valid_map_keys(datum, empty.v, empty.w)
    shapes = [(empty.slot_dim(target), empty.slot_dim(source))
              for source, target in slots]
    total_entries = sum(r * c for r, c in shapes)
    for assignment in product(list(field.elements()), repeat=total_entries):
        pos = 0
        maps = {}
        for ends, (rows, cols) in zip(slots, shapes):
            maps[ends] = [
                list(assignment[pos + r * cols: pos + (r + 1) * cols])
                for r in range(rows)
            ]
            pos += rows * cols
        yield quiver.GradedQuiverRep._trusted(datum, field, empty.v, empty.w, maps)


def nonzero_vectors(fld, dim):
    """Projective representatives: first nonzero coordinate equals 1."""
    for tup in product(list(fld.elements()), repeat=dim):
        first = next((x for x in tup if x != fld.zero()), None)
        if first == fld.one():
            yield list(tup)


def _sub_key(sub):
    return tuple(sorted(sub.items()))


def _join(fld, left, right):
    out = dict(left)
    for key, rows in right.items():
        out[key] = _span(fld, out.get(key, ()) + rows)
    return out


def _in_span(fld, basis, vec):
    """True iff ``vec`` reduces to zero against the echelon rows ``basis``."""
    vec = list(vec)
    for row in basis:
        pivot = next(c for c, x in enumerate(row) if x)
        coeff = vec[pivot]
        if coeff:
            vec = [fld.sub(x, fld.mul(coeff, y)) for x, y in zip(vec, row)]
    return not any(vec)


def _contained_in_ker_b(rep, sub):
    fld = rep.field
    for (source, target), mat in rep.maps.items():
        rows = sub.get(source[1:]) if target[0] == "W" else None
        if rows and not is_zero_matrix(fld, quiver._images(fld, mat, rows)):
            return False
    return True


def cyclic_submodules(rep):
    """(slot, vector, closure) per distinct closure of a nonzero vector (one
    per line) of a V slot."""
    seen = {}
    for (i, a), dim in sorted(rep.v.items()):
        for vec in nonzero_vectors(rep.field, dim):
            sub = _closure(rep, {(i, a): [vec]})
            seen.setdefault(_sub_key(sub), ((i, a), vec, sub))
    return list(seen.values())


def _sub_totals(datum, sub):
    totals = [0] * datum.rank
    for (i, _), rows in sub.items():
        totals[i - 1] += len(rows)
    return totals


def _weights(datum, theta):
    """Integer multiples d_i theta_i L of theta, L > 0 the lcm of its denominators."""
    scale = lcm(*(Fraction(t).denominator for t in theta))
    return [int(datum.di(i) * Fraction(theta[i - 1]) * scale) for i in datum.nodes]


def _pairing(weights, totals):
    return sum(x * n for x, n in zip(weights, totals))


def full_lattice(rep, base, generators):
    """All joins of ``base`` with subsets of the cyclic ``generators``.

    Each generator in turn is joined into every member found so far, so the
    members after k generators are the joins with subsets of the first k.
    A member that already holds a generator's seed vector holds the
    generator, and the join would be the member itself, so it is skipped.
    """
    fld = rep.field
    members = {_sub_key(base): base}
    for slot, vec, gen in generators:
        for current in list(members.values()):
            if not _in_span(fld, current.get(slot, ()), vec):
                joined = _join(fld, current, gen)
                members.setdefault(_sub_key(joined), joined)
    return members.values()


def stability_by_full_lattice(rep, thetas):
    """The slope condition at each theta, on every member of both lattices.

    Enumerates the submodules over a finite field: the Ker B lattice is
    joined from the cyclic submodules inside Ker B, the Im A lattice from
    the closure of Im A and every cyclic submodule.  The differential oracle of the walk in ``stability_check``.
    Returns one verdict per theta, like ``SearchPoint.stable``; the lattice
    over Im A is built only if some theta passes the Ker B half.
    """
    datum = rep.datum
    weights = [_weights(datum, theta) for theta in thetas]
    cyclics = cyclic_submodules(rep)
    ker_b_gens = [c for c in cyclics if _contained_in_ker_b(rep, c[2])]
    subs = [_sub_totals(datum, sub) for sub in full_lattice(rep, {}, ker_b_gens)]
    stable = [all(_pairing(ws, totals) <= 0 for totals in subs) for ws in weights]
    if any(stable):
        v_totals = [0] * datum.rank
        for (i, _), n in rep.v.items():
            v_totals[i - 1] += n
        base = _closure(rep, _framing_image_seeds(rep))
        complements = [
            [whole - part for whole, part in zip(v_totals, _sub_totals(datum, sub))]
            for sub in full_lattice(rep, base, cyclics)
        ]
        stable = [ok and all(_pairing(ws, diff) >= 0 for diff in complements)
                  for ok, ws in zip(stable, weights)]
    return tuple(stable)


def stability_by_walking_up(rep, theta):
    """``stability_check`` without the dual route: the walk always starts at
    (rep, theta), whichever of theta and -theta lies nearer the positive
    chamber.  The differential oracle of ``quiver._route``.
    """
    if all(t < 0 for t in theta):
        return spin(rep)
    for i in _lower(rep.datum, tuple(-t for t in theta))[2]:
        rep = quiver._reflect_kernel(rep, i)
        if rep is None:
            return False
    return spin(rep, backward=True)


def spin(rep, backward=False):
    """``quiver._spin`` on ``rep``: is the closure of Im A all of V, or with
    ``backward`` that of the rows of every B all of V's dual?"""
    return quiver._spin(quiver._spin_plan(rep.datum, rep.v, rep.w, backward), rep)


# ---------------------------------------------------------------------------
# the linear solver: the oracle of the maps quiver._apply_step reads off
# its kernels' free rows


def solve_exact(fld, a, b):
    """Solve A X = B column-wise; returns X or None when inconsistent.

    When A has dependent columns the reduced echelon solution (free variables
    zero) is returned, which is canonical.
    """
    rows = len(a)
    acols = len(a[0]) if a else 0
    bcols = len(b[0]) if b else 0
    if len(b) != rows:
        raise ValueError("row counts disagree")
    if acols == 0:
        if rows and not is_zero_matrix(fld, b):
            return None
        return zeros(fld, 0, bcols)
    if rows == 0:
        return zeros(fld, acols, bcols)
    aug = [list(a[r]) + list(b[r]) for r in range(rows)]
    reduced, pivots = rref(fld, aug)
    for r in range(len(pivots), rows):
        if any(x != fld.zero() for x in reduced[r][acols:]):
            return None
    if any(p >= acols for p in pivots):
        return None
    x = zeros(fld, acols, bcols)
    for r, p in enumerate(pivots):
        if p < acols:
            for c in range(bcols):
                x[p][c] = reduced[r][acols + c]
    return x


def step_by_solving(step, rep):
    """The new loop and in-maps of S_i ``rep`` by the plan ``step``, each
    factored through its kernel by :func:`solve_exact`, as
    ``quiver._apply_step`` once built them: ("loop" | "in", ends, map) per
    map, the map None where the target lies outside the kernel's span.
    Empty when some Phi is not onto.
    """
    fld, maps = rep.field, rep.maps
    kernels = {}
    for grade in step.grades:
        basis, free = kernel_basis(fld, quiver._phi(fld, maps, grade), cols=grade.dom)
        if len(free) != grade.dom - grade.target:
            return []
        kernels[grade.a] = basis
    out = []
    for grade, _, loop, ins in step.builds:
        basis = kernels[grade.a]
        if loop is not None:
            ends, lower = loop
            image = mat_mul_shaped(fld, quiver._upsilon(fld, maps, grade, lower), basis,
                                   lower.dom, grade.dom, len(basis[0]))
            out.append(("loop", ends, solve_exact(fld, kernels[lower.a], image)))
        psi = quiver._psi(fld, maps, grade)
        for ends, dim in ins:
            mapped = mat_mul_shaped(
                fld, psi, quiver._along(fld, maps, (ends,), grade.vdim, dim),
                grade.dom, grade.vdim, dim)
            out.append(("in", ends, solve_exact(fld, basis, mapped)))
    return out
