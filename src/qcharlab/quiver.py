"""Graded (co)framed quiver representations, stability, and the reflection map.

Grading conventions.  Spaces V_i^a and W_i^a sit on ("V"|"W", node, grade)
slots, and a point keys each map by its (source, target) slots.  Loops
descend: the loop at node i maps V_i^a -> V_i^{a - d_ii}.  Arrows between
adjacent nodes ascend: V_i^a -> V_j^{a - d_ij} with d_ij < 0.  The framing
A_i^a : W_i^a -> V_i^{a + d_i} and coframing B_i^a : V_i^{a - d_i} -> W_i^a
both ascend by d_i.  :func:`_step` is the one statement of this grading.
Arrows between non-adjacent distinct nodes are omitted; no relation
constrains them.

The defining relations, checked by :func:`validate_relations`.  Each is a
sum of path composites out of one slot that must vanish (see
:func:`_relation_table`):

  E1bis  sum over neighbors j and l = 0..-c_ij-1 of
         loop_i^{-c_ij-1-l} o (i<-j) o (j<-i) o loop_i^l,
         plus A_i^{a+d_i} B_i^{a+d_i}, vanishes as a map V_i^a -> V_i^{a+d_ii};
  E2     loop_j^{-c_ji} o (j<-i)  +  (j<-i) o loop_i^{-c_ij} = 0
         as a map V_i^a -> V_j^{a+d_ij}, for adjacent i != j;
  E4     loop_i o A_i^a = 0;
  E5     B_i^a o loop_i = 0.

The reflection at node i replaces V_i^a by the kernel of the assembled map
Phi_i^a out of W_i^{a+d_i} and the neighboring V slots; summand order is
fixed globally (W first, then neighbors ascending, then the step index t
ascending) so serialized reflected points are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .braid import _reflection_table, reflect_dimensions
from .cartan import _lower, reflect_weight
from .errors import (
    CapExceeded,
    DimensionMismatch,
    FieldNotFinite,
    NonGenericTheta,
    NotSurjective,
    RelationViolated,
    ShapeMismatch,
    StabilityViolated,
)
from .linalg import (
    field_by_name,
    hstack,
    identity,
    is_zero_matrix,
    kernel_basis,
    mat_mul_shaped,
    rref,
    solve_exact,
    vstack,
    zeros,
)

DEFAULT_SEARCH_ENTRY_CAP = 22


# the "kind" a point file gives a map, by the spaces of its two ends
_KINDS = {("V", "V"): "arrow", ("W", "V"): "A", ("V", "W"): "B"}


class GradedQuiverRep:
    """A point of the (co)framed representation space for fixed dims v, w.

    ``maps`` is keyed by (source, target), two ("V"|"W", node, grade) slots:
    arrows and loops go V to V, A_i goes W_i to V_i and B_i goes V_i to W_i,
    and each lands where :func:`_step` says.  Matrices are (target rows) x
    (source cols); maps with a zero-dimensional end are never stored.
    """

    def __init__(self, datum, field, v, w, maps=None, check=True):
        self.datum = datum
        self.field = field
        self.v, self.w, self.maps = dict(v), dict(w), dict(maps or {})
        if check:
            self._check()
        # zero dimensions, and the maps with a zero-dimensional end, hold nothing
        self.v = {key: n for key, n in self.v.items() if n}
        self.w = {key: n for key, n in self.w.items() if n}
        self.maps = {ends: mat for ends, mat in self.maps.items() if mat and mat[0]}

    # -- dimensions ---------------------------------------------------

    def vdim(self, i, a):
        return self.v.get((i, a), 0)

    def slot_dim(self, slot):
        """The dimension of a ("V"|"W", node, grade) slot."""
        space, i, a = slot
        return (self.v if space == "V" else self.w).get((i, a), 0)

    def total_dim(self):
        return sum(self.v.values())

    def _check(self):
        datum = self.datum
        for (i, a), n in [*self.v.items(), *self.w.items()]:
            if i not in datum.nodes or n < 0:
                raise ShapeMismatch(
                    f"dimension {n} at slot {(i, a)} is not valid in {datum.label}")
        for (source, target), mat in self.maps.items():
            kind = _KINDS.get((source[0], target[0]))
            i, j = source[1], target[1]
            # nodes outside the datum, W to W, A or B across two nodes, and
            # arrows between non-adjacent nodes
            if (kind is None or i not in datum.nodes or j not in datum.nodes
                    or i != j and (kind != "arrow" or datum.c(i, j) == 0)):
                raise ShapeMismatch(
                    f"no map goes from {source} to {target} in {datum.label}")
            where = f"{kind} map from {source[1:]} to {target[1:]}"
            expected = _step(datum, source, target[:2])
            if target != expected:
                raise ShapeMismatch(
                    f"{where} contradicts its key; it goes to {expected[1:]}")
            rows, cols = self.slot_dim(target), self.slot_dim(source)
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise ShapeMismatch(f"{where}: expected {rows}x{cols}")

    # -- serialization --------------------------------------------------

    def to_json_obj(self):
        fld = self.field
        # arrows, A maps, then B maps (the target spaces sort V, V, W and the
        # source spaces V, W), each kind in the order of its ends
        ordered = sorted(self.maps.items(), key=lambda item: (item[0][1][0], item[0]))
        return {
            "field": fld.name,
            "type": self.datum.label,
            "v": [[i, a, n] for (i, a), n in sorted(self.v.items())],
            "w": [[i, a, n] for (i, a), n in sorted(self.w.items())],
            "maps": [{
                "kind": _KINDS[source[0], target[0]],
                "from": list(source[1:]), "to": list(target[1:]),
                "matrix": [[fld.to_json(x) for x in row] for row in mat],
            } for (source, target), mat in ordered],
        }

    @classmethod
    def from_json_obj(cls, obj, datum=None):
        from .cartan import build_cartan

        datum = datum or build_cartan(obj["type"])
        fld = field_by_name(obj["field"])
        v, w = (_read_dims(obj[name], name) for name in ("v", "w"))
        spaces = {kind: pair for pair, kind in _KINDS.items()}
        maps = {}
        for entry in obj.get("maps", []):
            kind = entry["kind"]
            if kind not in spaces:
                raise ShapeMismatch(f"unknown map kind {kind!r}")
            ends = tuple((space, *_ints(entry[end], 2, f"{kind} map {end!r}"))
                         for space, end in zip(spaces[kind], ("from", "to")))
            if ends in maps:
                raise ShapeMismatch(
                    f"two {kind} maps from {ends[0][1:]} to {ends[1][1:]}")
            maps[ends] = [[fld.from_json(x) for x in row] for row in entry["matrix"]]
        return cls(datum, fld, v, w, maps)


def _ints(entry, count, what):
    """A point file's list of ``count`` ints, as a tuple; else a ValueError."""
    if not (isinstance(entry, list) and len(entry) == count
            and all(type(x) is int for x in entry)):
        raise ValueError(f"{what} {entry!r} is not {count} exact integers")
    return tuple(entry)


def _read_dims(entries, name):
    """The dims {(node, grade): n} of a point file's ``v`` or ``w`` list."""
    dims = {}
    for entry in entries:
        i, a, n = _ints(entry, 3, f"{name} entry")
        if (i, a) in dims:
            raise ShapeMismatch(f"{name} entry {entry!r} repeats the slot {(i, a)}")
        dims[i, a] = n
    return dims


def _step(datum, slot, to):
    """The slot where the map out of ``slot`` toward ("V"|"W", node) lands.

    The one statement of the grading: an arrow goes V_i^a -> V_j^{a - d_ij}
    (the loop when j == i), and A_i^a : W_i^a -> V_i^{a + d_i} and B :
    V_i^a -> W_i^{a + d_i} both ascend by d_i.
    """
    space, i, a = slot
    target, j = to
    if space == target == "V":
        return "V", j, a - datum.b(i, j)
    return target, j, a + datum.di(i)


def _path(datum, start, targets):
    """The slots a path visits: ``start``, then one per ("V"|"W", node) of ``targets``."""
    path = [start]
    for to in targets:
        path.append(_step(datum, path[-1], to))
    return tuple(path)


def _composite(rep, path):
    """The composite of the maps along ``path``, a tuple of slots.

    Returns None when a map on the path is absent, since the composite is
    then zero; a path of one slot is that slot's identity.
    """
    mat = None
    for ends in zip(path, path[1:]):
        step = rep.maps.get(ends)
        if step is None:
            return None
        mat = step if mat is None else mat_mul_shaped(
            rep.field, step, mat, len(step), len(mat), len(mat[0]))
    return identity(rep.field, rep.slot_dim(path[0])) if mat is None else mat


def _dense(rep, path):
    """The composite along ``path`` as a matrix, zero where a map is absent."""
    mat = _composite(rep, path)
    if mat is None:
        return zeros(rep.field, rep.slot_dim(path[-1]), rep.slot_dim(path[0]))
    return mat


def valid_map_keys(datum, v, w):
    """Every (source, target) carrying free matrix entries for dims (v, w).

    In search order: the loop and then the arrows out of each V slot, then
    the A map out of and the B map into each W slot.
    """
    slots = ({("V", *key) for key, n in v.items() if n}
             | {("W", *key) for key, n in w.items() if n})
    pairs = []
    into = {}  # W slot -> the V slot whose B map lands there
    for slot in sorted(slots):
        space, i, _ = slot
        if space == "V":
            pairs += [(slot, _step(datum, slot, ("V", j)))
                      for j in (i, *sorted(datum.neighbors(i)))]
            into[_step(datum, slot, ("W", i))] = slot
        else:
            pairs += [(slot, _step(datum, slot, ("V", i))), (into.get(slot), slot)]
    return [ends for ends in pairs if slots.issuperset(ends)]


# ---------------------------------------------------------------------------
# relations


@dataclass(frozen=True)
class RelationViolation:
    relation: str
    i: int
    j: int
    a: int

    def __str__(self):
        where = f"node {self.i}" if self.j == self.i else f"nodes ({self.i},{self.j})"
        return f"{self.relation} fails at {where}, grade {self.a}"


def _relation_table(rep, framed=True):
    """Every relation on ``rep`` as a row (name, i, j, a, paths).

    The composites along ``paths``, each a tuple of slots out of one start
    slot, must add up to zero.  Rows come in the order E1bis, E2, then E4 and
    E5 per W slot.  With ``framed=False`` the loop relation drops its AB term
    and is named E1, and E4/E5 are left out.
    """
    datum = rep.datum
    table = []  # rows with each path as its start and its targets
    for (i, a) in sorted(rep.v):
        at = ("V", i)
        paths = []
        for j in datum.neighbors(i):
            c = -datum.c(i, j)
            paths += [[at] * l + [("V", j), at] + [at] * (c - 1 - l)
                      for l in range(c)]
        if framed:
            paths.append([("W", i), at])
        table.append(("E1bis" if framed else "E1", i, i, a, ("V", i, a), paths))
    for (i, a) in sorted(rep.v):
        for j in datum.neighbors(i):
            table.append(("E2", i, j, a, ("V", i, a), [
                [("V", j)] * (1 - datum.c(j, i)),
                [("V", i)] * -datum.c(i, j) + [("V", j)],
            ]))
    if framed:
        for (i, a) in sorted(rep.w):
            table.append(("E4", i, i, a, ("W", i, a), [[("V", i)] * 2]))
            table.append(("E5", i, i, a, ("V", i, a + datum.di(i)),
                          [[("V", i), ("W", i)]]))
    return [(name, i, j, a, [_path(datum, start, targets) for targets in paths])
            for name, i, j, a, start, paths in table]


def _violations(rep, table):
    fld = rep.field
    out = []
    for name, i, j, a, paths in table:
        total = None
        for path in paths:
            term = _composite(rep, path)
            if term is None:
                continue
            total = term if total is None else [
                [fld.add(x, y) for x, y in zip(left, right)]
                for left, right in zip(total, term)
            ]
        if total is not None and not is_zero_matrix(fld, total):
            out.append(RelationViolation(name, i, j, a))
    return out


def validate_relations(rep):
    """All relation failures of a (co)framed point; empty means valid."""
    return _violations(rep, _relation_table(rep))


def validate_n(rep, node, xi):
    """Relation check for a framed point (B = 0) with framing vector xi.

    ``xi`` is a column vector in V_node^{d_node}.  Checks the AB-free loop
    relation, the mixed relation E2, and that the single descending loop
    kills xi.
    """
    if any(target[0] == "W" for _, target in rep.maps):
        raise ValueError("validate_n expects a point with all B maps zero")
    dk = rep.datum.di(node)
    dim = rep.vdim(node, dk)
    if len(xi) != dim:
        raise ShapeMismatch(f"xi must live in V_{node}^{dk} (dim {dim})")
    out = _violations(rep, _relation_table(rep, framed=False))
    loop = _composite(rep, _path(rep.datum, ("V", node, dk), [("V", node)]))
    if loop is not None and not is_zero_matrix(rep.field,
                                               _images(rep.field, loop, [xi])):
        out.append(RelationViolation("loop-kills-xi", node, node, dk))
    return out


# ---------------------------------------------------------------------------
# submodule closures and stability


def _span(fld, rows):
    """Canonical echelon basis (tuple of row tuples) of the span of ``rows``."""
    reduced, pivots = rref(fld, rows)
    return tuple(tuple(reduced[r]) for r in range(len(pivots)))


def _images(fld, mat, rows):
    """The image of each row vector (``rows`` is not empty) under ``mat``."""
    return mat_mul_shaped(fld, rows, list(zip(*mat)), len(rows), len(rows[0]),
                          len(mat))


def _closure(rep, seeds, backward=False):
    """Smallest subrepresentation containing the seed vectors.

    Closed under every arrow and loop (framing maps do not act).  Returns a
    dict (node, grade) -> canonical tuple of echelon basis rows.  With
    ``backward`` the seeds are row functionals, carried back along the
    transposed arrows: the result is then the annihilator of the largest
    subrepresentation that every seed kills.
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


@lru_cache(maxsize=1024)
def _walk(datum, theta):
    """(word, generic) for the tuple ``theta``: ``cartan._lower`` on -theta.

    The word's nodes are theta's first negative node at each step of the
    walk up to the positive chamber; theta is generic iff the antidominant
    conjugate of -theta has no zero coordinate.
    """
    top, _, word = _lower(datum, tuple(-t for t in theta))
    return word, all(top)


def _word(datum, theta):
    word, generic = _walk(datum, tuple(theta))
    if not generic:
        raise NonGenericTheta(f"{theta} lies on a root hyperplane")
    return word


@lru_cache(maxsize=1024)
def _route(datum, theta):
    """How :func:`stability_check` decides the tuple ``theta``.

    None in the negative chamber.  Otherwise (dual, word): the walk up from
    theta, or with ``dual`` the walk up from -theta on the transposed point,
    whichever word is strictly shorter, theta's on a tie.  A word's length
    counts the positive roots theta pairs < 0 with, so the two lengths add up
    to l(w_0) and the walk taken has min(l, l(w_0) - l) steps.
    """
    up = _word(datum, theta)
    if all(t < 0 for t in theta):
        return None
    down, _ = _walk(datum, tuple(-t for t in theta))
    return (True, down) if len(down) < len(up) else (False, up)


def _dual(rep):
    """The transposed point x^T on negated grades.

    Each V/W slot (s, i, a) becomes (s, i, -a), and each map M from source
    to target becomes M^T from target' to source', so A and B trade places
    and the arrows reverse.  That is the grading of :func:`_step` again, as
    ``datum.b`` is symmetric, and each relation goes to a relation: E1bis at
    (i, a) to E1bis at (i, -a - d_ii) with l -> -c_ij - 1 - l and AB -> A'B',
    E2 at (i, j) to E2 at (j, i), and E4 to E5.
    """
    def flip(slot):
        space, i, a = slot
        return space, i, -a

    return GradedQuiverRep(
        rep.datum, rep.field,
        {(i, -a): n for (i, a), n in rep.v.items()},
        {(i, -a): n for (i, a), n in rep.w.items()},
        {(flip(target), flip(source)): [list(col) for col in zip(*mat)]
         for (source, target), mat in rep.maps.items()},
        check=False,
    )


def stability_check(rep, theta):
    """Two-sided slope condition: is ``rep`` theta-stable?

    True iff every subrepresentation inside Ker B pairs <= 0 with theta and
    every subrepresentation containing Im A leaves a complement pairing >= 0.
    A dimension vector u pairs <theta, u> = sum_j d_j theta_j |u_j|, with
    |u_j| the total dimension at node j.  Raises NonGenericTheta on a root
    hyperplane.  Nothing is enumerated, so every field and every dimension
    is decided.  The sign of theta picks the path:

    * every theta_i < 0: :func:`is_framed_stable`.  Every submodule pairs
      <= 0, so the Ker B half is vacuous; a complement pairs >= 0 only if it
      is zero, so the Im A half says the closure of Im A is V.
    * every theta_i > 0: :func:`_is_coframed_stable`.  Every complement
      pairs >= 0, so the Im A half is vacuous; a submodule pairs <= 0 only
      if it is zero, and the largest submodule inside Ker B is the
      annihilator of the rows of B closed backwards along the arrows.
    * otherwise one cached route (:func:`_route`) walks up from (x, theta)
      or from (x^T, -theta) (:func:`_dual`), whichever word is strictly
      shorter, (x, theta) on a tie.  At the first negative node i the point
      becomes S_i x (:func:`_reflect_kernel`) and theta becomes s_i theta,
      until every coordinate is positive; the walk ends in the positive
      chamber's test.  The nodes are those of ``cartan._lower`` on minus
      the walk's start.  A step at which some Phi is not onto gives False.
      A word's length is the number of positive roots its start pairs < 0
      with, so the two lengths add up to l(w_0), and the walk taken has
      min(l, l(w_0) - l) steps: one at every s_i(-1, ..., -1).

    The walk rests on two lemmas.  The S_i lemma: for theta_i < 0, x is
    theta-stable iff Phi_i^a is onto at every grade a and S_i x is s_i
    theta-stable.  The duality lemma: x is theta-stable iff x^T is
    (-theta)-stable.

    Forward.  Put Im Phi_i^a in place of each V_i^{a+d_ii}.  Phi's one-map
    blocks are the maps into V_i from its neighbours and from W, and the
    loop carries Im Phi_i^a into Im Phi_i^{a-d_ii} (Phi_i^{a-d_ii} Upsilon
    = loop Phi_i^a), so this is a subrepresentation containing Im A.  Its complement lies at node i
    and pairs d_i theta_i (|V_i| - sum_a rank Phi_i^a), which is < 0 unless
    every Phi is onto.  That S_i x is then s_i theta-stable is Nakajima's
    theorem (Reflection functors for quiver varieties and Weyl group
    actions, Math. Ann. 327 (2003); Lusztig, Ann. Inst. Fourier 50 (2000)).

    Converse.  Let every Phi be onto and let S destabilise x.  Let D_S^a be
    Phi_i^a's domain on S's slots: each neighbour block on S_j, and the W
    block if S is an Im A witness (it contains Im A), not if S is a Ker B
    witness.  Put S'_i^a = Ker Phi_i^a ∩ D_S^a and S'_j = S_j for j != i.
    S' is a subrepresentation of S_i x: the maps out of Ker Phi_i^a project
    onto blocks of D_S, and the comparison map Upsilon keeps D_S.  A map
    into V_i^a lands in S_i^a, and Psi sends S_i^a into Ker Phi_i^a ∩ D_S^a;
    Psi's W block is B, which kills S_i for a Ker B witness.  For a Ker B
    witness S' lies in Ker B-bar, since B-bar at node i is the W block.  For
    an Im A witness S' contains Im A-bar = Psi(Im A).  Phi maps D_S^a into
    S_i^{a+d_ii}, so |S'_i| >= sum_a dim D_S^a - |S_i| = [w_i] + (s_i|S|)_i,
    where s_i u = u - (sum_j c_ij u_j) e_i and [w_i] counts the W block.
    As every Phi is onto, |(S_i x)_i| = w_i + (s_i|V|)_i, so the complement
    of S' has dimension at most s_i(|V| - |S|) at node i and equal to it
    elsewhere.  Neither bound carries a W term, and the pairing is
    W-invariant: <s_i theta, s_i u> = <theta, u>, as d_j c_ji = d_i c_ij.
    Since (s_i theta)_i > 0, the excess at node i moves the pairing the
    destabilising way.  So S' pairs > 0 inside Ker B-bar, or its complement
    pairs < 0, and S_i x is not s_i theta-stable.

    Duality.  x^T has V'_i^{-a} = (V_i^a)* and the transposed maps, so S ->
    S^perp, the annihilator slot by slot, is an inclusion-reversing
    bijection from the graded subspaces of V to those of V', with |S^perp|
    = |V| - |S| at every node (negating grades keeps node totals).  A map M
    carries S_s into S_t iff M^T carries S_t^perp into S_s^perp, so S is a
    subrepresentation of x iff S^perp is one of x^T.  A' = B^T, so S lies in
    Ker B iff S^perp contains Im B^T = Im A'; and B' = A^T, so S contains Im
    A iff S^perp lies in (Im A)^perp = Ker B'.  A Ker B witness of x at
    theta, <theta, |S|> > 0, is thus an Im A witness of x^T at -theta, whose
    complement |V| - |S^perp| = |S| pairs -<theta, |S|> < 0 with -theta; and
    an Im A witness T of x, <theta, |V| - |T|> < 0, is a Ker B' witness
    T^perp, which pairs -<theta, |V| - |T|> > 0 with -theta.  Both ways
    round, so x has a witness at theta iff x^T has one at -theta.
    """
    route = _route(rep.datum, tuple(theta))
    if route is None:
        return is_framed_stable(rep)
    dual, word = route
    if dual:
        rep = _dual(rep)
    for i in word:
        rep = _reflect_kernel(rep, i)
        if rep is None:
            return False
    return _is_coframed_stable(rep)


def is_framed_stable(rep):
    """The all-negative-chamber notion: no proper subrepresentation contains Im A.

    Equivalent to the closure of the framing images being everything.
    """
    base = _closure(rep, _framing_image_seeds(rep))
    return _sub_dims(base) == dict(rep.v)


def _is_coframed_stable(rep):
    """The all-positive-chamber notion: no nonzero subrepresentation lies in Ker B.

    Equivalent to the rows of every B, closed backwards along the arrows,
    spanning the dual of every V slot.
    """
    seeds = {source[1:]: mat for (source, target), mat in rep.maps.items()
             if target[0] == "W"}
    return _sub_dims(_closure(rep, seeds, backward=True)) == rep.v


# ---------------------------------------------------------------------------
# the reflection at a node


@lru_cache(maxsize=1024)
def phi_blocks(datum, i, a):
    """Summand layout of the Phi/Psi domain at (i, a): W first, then (j, t).

    Its slots are the terms of the closed form of ``braid._reflect_rows``.
    """
    di, neighbours = _reflection_table(datum, i)
    return (("W", i, a + di, 0),) + tuple(
        ("V", j, a + offset, t)
        for j, offsets in neighbours for t, offset in enumerate(offsets, 1)
    )


def _block_dims(rep, blocks):
    return [rep.slot_dim(block[:3]) for block in blocks]


@lru_cache(maxsize=1024)
def _block_paths(datum, i, a):
    """Per block of :func:`phi_blocks` at (i, a): (block, phi, psi, upsilon).

    Each path is the tuple of slots it visits, resolved here once per
    (datum, i, a).  ``phi`` is the path of Phi's block, out of the block's
    slot into V_i^{a+d_ii}; ``psi`` the path of Psi's block, out of V_i^a
    into the block's slot.  ``upsilon`` is None for the W block, which
    Upsilon kills; otherwise (path, t, negate): Upsilon sends the block's
    slot along the path, negated or not, to the block of the same neighbor
    with step t in the layout at (i, a - d_ii).
    """
    at, start = ("V", i), ("V", i, a)
    table = []
    for block in phi_blocks(datum, i, a):
        space, j, _, t = block
        slot = block[:3]
        if space == "W":
            table.append((block, _path(datum, slot, [at]),
                          _path(datum, start, [("W", i)]), None))
            continue
        c = -datum.c(i, j)
        if t < c:  # the same slot, one step later in the lower layout
            upsilon = ((slot,), t + 1, False)
        else:  # the top slot, through minus the full loop composite at j
            upsilon = (_path(datum, slot, [("V", j)] * -datum.c(j, i)), 1, True)
        table.append((block, _path(datum, slot, [at] * t),
                      _path(datum, start, [at] * (c - t) + [("V", j)]), upsilon))
    return tuple(table)


def phi_map(rep, i, a):
    """The assembled map out of the framing slot and neighbor slots into V_i^{a+d_ii}.

    Blocks, in the canonical order of :func:`phi_blocks`: the framing map
    A_i^{a+d_i}, then for each neighbor slot the arrow into node i followed by
    t-1 descending loops.
    """
    blocks = [_dense(rep, phi) for _, phi, _, _ in _block_paths(rep.datum, i, a)]
    return hstack(blocks, len(blocks[0]))  # each block has V_i^{a+d_ii}'s rows


def _psi(rep, i, a):
    return vstack([_dense(rep, psi) for _, _, psi, _ in _block_paths(rep.datum, i, a)])


def psi_map(rep, i, a):
    """The companion map V_i^a into the Phi domain; Phi o Psi must vanish.

    Blocks: the coframing B_i^{a+d_i}, then for each neighbor slot the
    composite of -c_ij - t descending loops followed by the arrow out to j.
    Raises RelationViolated when the composite with Phi is nonzero.
    """
    fld = rep.field
    phi, psi = phi_map(rep, i, a), _psi(rep, i, a)
    composite = mat_mul_shaped(fld, phi, psi, len(phi), len(psi), rep.vdim(i, a))
    if not is_zero_matrix(fld, composite):
        raise RelationViolated(
            f"Phi o Psi nonzero at node {i}, grade {a}: input violates relations"
        )
    return psi


def upsilon_map(rep, i, a):
    """The comparison map from the Phi domain at (i, a) to the one at (i, a - d_ii).

    Kills the framing block, shifts each intermediate neighbor slot
    identically one step down the layout, and sends the top slot of each
    neighbor through minus the full loop composite at that neighbor.
    """
    datum, fld = rep.datum, rep.field
    table = _block_paths(datum, i, a)
    lower = phi_blocks(datum, i, a - 2 * datum.di(i))
    src_dims = _block_dims(rep, [block for block, _, _, _ in table])
    dst_dims = _block_dims(rep, lower)
    out = zeros(fld, sum(dst_dims), sum(src_dims))

    dst_offset = {}  # (node, t) -> first row of that block of the lower layout
    pos = 0
    for (_, j, _, t), dim in zip(lower, dst_dims):
        dst_offset[j, t] = pos
        pos += dim

    col = 0
    for (block, _, _, upsilon), dim in zip(table, src_dims):
        if upsilon is not None:
            path, t, negate = upsilon
            row0 = dst_offset[block[1], t]
            for r, row in enumerate(_composite(rep, path) or ()):
                for c, x in enumerate(row):
                    out[row0 + r][col + c] = fld.neg(x) if negate else x
        col += dim
    return out


def _reflect_kernel(rep, i):
    """S_i x for a relation-satisfying point x, or None when some Phi is not onto.

    By the lemma of :func:`stability_check`, None means x is unstable for
    every theta with theta_i < 0.  Nothing is validated here: :func:`reflect`
    checks its input and output around this, and the stability walk reaches
    it only from valid points.
    """
    datum, fld = rep.datum, rep.field
    dii = 2 * datum.di(i)
    # every grade the closed form reaches, zero-width ones too: Phi must be
    # onto there as well
    grades = sorted(a for node, a in reflect_dimensions(datum, i, rep.v, rep.w)
                    if node == i)
    kernels = {}  # grade -> (kernel basis, its width, Phi block dims)
    for a in grades:
        dims = _block_dims(rep, phi_blocks(datum, i, a))
        dom = sum(dims)
        target = rep.vdim(i, a + dii)
        basis = kernel_basis(fld, phi_map(rep, i, a), cols=dom)
        width = len(basis[0]) if basis else 0
        if dom - width != target:  # the rank of Phi
            return None
        kernels[a] = (basis, width, dims)

    new_v = {key: n for key, n in rep.v.items() if key[0] != i}
    new_v.update({(i, a): width for a, (_, width, _) in kernels.items() if width})

    new_maps = {ends: mat for ends, mat in rep.maps.items()
                if all(end[:2] != ("V", i) for end in ends)}

    psis = {}

    def psi_at(a):
        if a not in psis:
            psis[a] = _psi(rep, i, a)
        return psis[a]

    for a, (basis, width, dims) in kernels.items():
        if not width:
            continue

        # outgoing arrows and the new coframing: the maps out of V_i^a are
        # the one-map blocks of Psi at a, and each new one projects the kernel
        offset = 0
        for (_, _, path, _), dim in zip(_block_paths(datum, i, a), dims):
            if len(path) == 2 and dim:
                new_maps[path] = [list(row) for row in basis[offset:offset + dim]]
            offset += dim

        # the new loop, induced by the comparison map, which carries the
        # kernel at a into the kernel at a - d_ii
        loop = _path(datum, ("V", i, a), [("V", i)])
        lower, lower_width, lower_dims = kernels.get(loop[1][2], (None, 0, None))
        if lower_width:
            image = mat_mul_shaped(fld, upsilon_map(rep, i, a), basis,
                                   sum(lower_dims), sum(dims), width)
            new_maps[loop] = solve_exact(fld, lower, image)

        # incoming arrows and the new framing: the maps into V_i^a are the
        # one-map blocks of Phi at a - d_ii, and each factors through Psi
        for _, path, _, _ in _block_paths(datum, i, a - dii):
            if len(path) != 2 or not rep.slot_dim(path[0]):
                continue
            mapped = mat_mul_shaped(
                fld, psi_at(a), _dense(rep, path),
                sum(dims), rep.vdim(i, a), rep.slot_dim(path[0]),
            )
            new_maps[path] = solve_exact(fld, basis, mapped)

    return GradedQuiverRep(datum, fld, new_v, rep.w, new_maps, check=False)


def reflect(rep, i, theta):
    """The reflection functor at node i applied to a theta-stable point.

    Requires theta_i < 0 and generic theta.  Returns (new point, s_i theta).
    :func:`_reflect_kernel` does the work; around it the input's relations
    and stability, and the output's relations, dimensions (against
    ``reflect_dimensions``) and stability are enforced, not assumed.
    """
    datum = rep.datum
    if theta[i - 1] >= 0:
        raise ValueError(f"reflection at node {i} needs theta_{i} < 0")
    bad = validate_relations(rep)
    if bad:
        raise RelationViolated(f"input point invalid: {bad[0]}")
    if not stability_check(rep, theta):
        raise StabilityViolated(f"input point is not stable for {theta}")
    reflected = _reflect_kernel(rep, i)
    if reflected is None:
        raise NotSurjective(
            f"some Phi at node {i} is not onto, though the input is stable"
        )
    bad = validate_relations(reflected)
    if bad:
        raise RelationViolated(f"reflected point invalid: {bad[0]}")
    predicted = {key: n for key, n in reflect_dimensions(datum, i, rep.v, rep.w).items()
                 if n}
    if predicted != reflected.v:
        raise DimensionMismatch(
            f"reflected dims {sorted(reflected.v.items())} != "
            f"predicted {sorted(predicted.items())}"
        )
    theta_bar = reflect_weight(datum, i, theta)
    if not stability_check(reflected, theta_bar):
        raise StabilityViolated(f"reflected point is not stable for {theta_bar}")
    return reflected, theta_bar


def chain_reflect(rep, theta, word):
    """Sequential reflections along a reduced word (first letter first).

    For theta in the negative chamber the sign precondition at each step
    holds automatically; :func:`reflect` still asserts it.  Returns the final
    point and the transported weight.
    """
    for i in word:
        rep, theta = reflect(rep, i, theta)
    return rep, theta


# ---------------------------------------------------------------------------
# exhaustive search


@dataclass
class SearchPoint:
    rep: GradedQuiverRep
    stable: tuple


def exhaustive_search(datum, v, w, field, thetas=(),
                      cap_entries=DEFAULT_SEARCH_ENTRY_CAP):
    """Enumerate every relation-satisfying point for dims (v, w) over a finite field.

    Raw points: no deduplication by the graded automorphism group.  Each
    surviving point is classified against every supplied stability weight.
    """
    if not field.is_finite:
        raise FieldNotFinite("exhaustive search needs a finite field")
    empty = GradedQuiverRep(datum, field, v, w)
    slots = valid_map_keys(datum, empty.v, empty.w)
    shapes = [(empty.slot_dim(target), empty.slot_dim(source))
              for source, target in slots]
    total_entries = sum(r * c for r, c in shapes)
    if total_entries > cap_entries:
        raise CapExceeded(
            f"search space has {total_entries} free entries (cap {cap_entries})",
            entries=total_entries,
        )
    elements = list(field.elements())
    # every point shares datum, v and w, and the table reads nothing else
    table = _relation_table(empty)
    results = []
    for assignment in product(elements, repeat=total_entries):
        pos = 0
        maps = {}
        for ends, (rows, cols) in zip(slots, shapes):
            maps[ends] = [
                list(assignment[pos + r * cols: pos + (r + 1) * cols])
                for r in range(rows)
            ]
            pos += rows * cols
        rep = GradedQuiverRep(datum, field, empty.v, empty.w, maps, check=False)
        if _violations(rep, table):
            continue
        stable = tuple(stability_check(rep, theta) for theta in thetas)
        results.append(SearchPoint(rep=rep, stable=stable))
    return results
