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

  E1bis  Phi_i^a o Psi_i^a = 0 as a map V_i^a -> V_i^{a+d_ii}: the sum over
         neighbors j and t = 1..-c_ij of
         loop_i^{t-1} o (i<-j) o (j<-i) o loop_i^{-c_ij-t},
         plus A_i^{a+d_i} B_i^{a+d_i} (:func:`_block_paths`);
  E2     loop_j^{-c_ji} o (j<-i)  +  (j<-i) o loop_i^{-c_ij} = 0
         as a map V_i^a -> V_j^{a+d_ij}, for adjacent i != j;
  E4     loop_i o A_i^a = 0;
  E5     B_i^a o loop_i = 0.

The reflection at node i replaces V_i^a by the kernel of the assembled map
Phi_i^a out of W_i^{a+d_i} and the neighboring V slots; summand order is
fixed globally (W first, then neighbors ascending, then the step index t
ascending) so serialized reflected points are reproducible.

Layouts.  All that a check reads besides the matrix entries is fixed by
the point's dims (and theta).  One layout per (datum, v, w) holds it
(:func:`_layout`, cached): the dims, their map slots
(:func:`valid_map_keys`), the relation table, which holds only the paths
through those slots (:func:`_relation_table`), and one walk plan per theta
met (:func:`_walk_plan`): the stability route, per reflection step the Phi
blocks, their dims and the dims after the step, and the seed maps and moves
of the closing spin.  So a search's points, which all share v and w, run
only field arithmetic, as do points checked or reflected one at a time on
dims already seen, and the points a plan builds
(:meth:`GradedQuiverRep._trusted`) share its dims.  The step and spin plans
are plain functions of the dims; a search takes each matrix row from one
table per column count, shared by all its points.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product

from .braid import _push_dims, _reflection_table, reflect_dimensions
from .cartan import _lower, build_cartan, is_generic, reflect_weight
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

    def __init__(self, datum, field, v, w, maps=None):
        self.datum = datum
        self.field = field
        self.v, self.w, self.maps = dict(v), dict(w), dict(maps or {})
        self._check()
        # zero dimensions, and the maps with a zero-dimensional end, hold nothing
        self.v = {key: n for key, n in self.v.items() if n}
        self.w = {key: n for key, n in self.w.items() if n}
        self.maps = {ends: mat for ends, mat in self.maps.items() if mat and mat[0]}

    @classmethod
    def _trusted(cls, datum, field, v, w, maps):
        """The point of ``v``, ``w`` and ``maps`` as given, checked, copied and
        filtered nowhere: every dim is nonzero, every map has two nonzero
        ends and the shape they give, and none of the three dicts is
        changed after, so points may share them."""
        rep = cls.__new__(cls)
        rep.datum, rep.field, rep.v, rep.w, rep.maps = datum, field, v, w, maps
        return rep

    # -- dimensions ---------------------------------------------------

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

    def json_order(self):
        """The ends of the maps in the order a point file lists them: arrows,
        A maps, then B maps (the target spaces sort V, V, W and the source
        spaces V, W), each kind in the order of its ends."""
        return sorted(self.maps, key=lambda ends: (ends[1][0], ends))

    def to_json_obj(self):
        fld = self.field
        return {
            "field": fld.name,
            "type": self.datum.label,
            "v": [[i, a, n] for (i, a), n in sorted(self.v.items())],
            "w": [[i, a, n] for (i, a), n in sorted(self.w.items())],
            "maps": [{
                "kind": _KINDS[source[0], target[0]],
                "from": list(source[1:]), "to": list(target[1:]),
                "matrix": [[fld.to_json(x) for x in row]
                           for row in self.maps[source, target]],
            } for source, target in self.json_order()],
        }

    @classmethod
    def from_json_obj(cls, obj):
        datum = build_cartan(obj["type"])
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
    """The (source, target) steps of the path out of ``start`` that goes
    toward each ("V"|"W", node) of ``targets`` in turn."""
    steps = []
    for to in targets:
        end = _step(datum, start, to)
        steps.append((start, end))
        start = end
    return tuple(steps)


def _product(fld, maps, steps, dim):
    """The composite of the maps at ``steps``, the steps of a path in order.

    None when a map on the path is absent, since the composite is then
    zero; no steps give the identity of the start slot, of dimension ``dim``.
    """
    mat = None
    for ends in steps:
        step = maps.get(ends)
        if step is None:
            return None
        mat = step if mat is None else mat_mul_shaped(
            fld, step, mat, len(step), len(mat), len(mat[0]))
    return identity(fld, dim) if mat is None else mat


def _along(fld, maps, steps, rows, cols):
    """:func:`_product` as a rows x cols matrix, zero where a map is absent."""
    mat = _product(fld, maps, steps, cols)
    return zeros(fld, rows, cols) if mat is None else mat


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


class RelationViolation(namedtuple("RelationViolation", "relation i j a")):
    __slots__ = ()

    def __str__(self):
        where = f"node {self.i}" if self.j == self.i else f"nodes ({self.i},{self.j})"
        return f"{self.relation} fails at {where}, grade {self.a}"


def _relation_table(datum, v, w, keys):
    """Every relation on the points of dims ``v`` and ``w``, whose map slots
    are ``keys``, as a row (name, i, j, a, paths).

    The composites along ``paths``, each the steps of a path out of one
    start slot, must add up to zero.  Rows come in the order E1bis, E2, then
    E4 and E5 per W slot.  E1bis at (i, a) is Phi_i^a Psi_i^a = 0: one path
    per block of :func:`_block_paths`, Psi's into the block's slot and then
    Phi's out of it.  A path is kept only when each of its steps is one of
    ``keys``, the :func:`valid_map_keys` of the dims: a point of these dims
    holds no other map, so any other path is zero on it.  A row left with no
    path is dropped.  :func:`_layout` holds the table.
    """
    table = [("E1bis", i, i, a,
              [psi + phi for _, phi, psi, _ in _block_paths(datum, i, a)])
             for (i, a) in sorted(v)]
    for (i, a) in sorted(v):
        start = ("V", i, a)
        for j in datum.neighbors(i):
            table.append(("E2", i, j, a, [
                _path(datum, start, [("V", j)] * (1 - datum.c(j, i))),
                _path(datum, start, [("V", i)] * -datum.c(i, j) + [("V", j)]),
            ]))
    for (i, a) in sorted(w):
        table.append(("E4", i, i, a, [_path(datum, ("W", i, a), [("V", i)] * 2)]))
        table.append(("E5", i, i, a, [
            _path(datum, ("V", i, a + datum.di(i)), [("V", i), ("W", i)])]))
    keys = set(keys)
    return [(name, i, j, a, kept) for name, i, j, a, paths in table
            if (kept := [path for path in paths if keys.issuperset(path)])]


def _violations(rep, table):
    fld, maps = rep.field, rep.maps
    out = []
    for name, i, j, a, paths in table:
        total = None
        for path in paths:
            term = _product(fld, maps, path, None)
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
    return _violations(rep, _layout_of(rep.datum, rep.v, rep.w).table)


# ---------------------------------------------------------------------------
# submodule closures and stability


def _spin_plan(layout, backward=False):
    """What :func:`_spin` reads on the points of a :func:`_layout`'s dims,
    less their entries: (seeds, moves, total, backward).

    ``seeds`` holds the (ends, V slot) of each framing map, whose columns
    seed the closure, or with ``backward`` of each coframing map, whose rows
    do.  ``moves`` maps each V slot to the (ends, V slot) of each arrow and
    loop out of it, or with ``backward`` into it, toward the slot a vector
    there goes to.  ``total`` is |V|.
    """
    seeds, moves = [], {}
    for source, target in layout.keys:
        ends = source, target
        if source[0] == target[0]:
            start, end = (target, source) if backward else ends
            moves.setdefault(start[1:], []).append((ends, end[1:]))
        elif (target if backward else source)[0] == "W":
            seeds.append((ends, (source if backward else target)[1:]))
    return (tuple(seeds), {slot: tuple(out) for slot, out in moves.items()},
            sum(layout.v.values()), backward)


def _spin(plan, rep):
    """Is the closure of the seeds of ``plan`` (:func:`_spin_plan` of the
    dims of ``rep``) all of V?

    Each seed is reduced against its slot's echelon rows.  A vector that is
    new there joins them, and is pushed once along each arrow and loop out
    of its slot (a functional, with ``backward``, once back along each one
    into it); its images are reduced in turn.  Each basis vector thus
    crosses each map once, and the spin stops as soon as the total rank
    reaches |V|.  The closure lies in V, so it is all of V iff its rank is.
    """
    seeds, moves, total, backward = plan
    fld, maps = rep.field, rep.maps
    pending = []
    for ends, slot in seeds:
        mat = maps.get(ends)
        if mat is not None:
            pending += [(slot, vec) for vec in (mat if backward else zip(*mat))]
    basis = {}  # V slot -> [(pivot, row)], each row 1 at its pivot
    rank = 0
    while pending:
        slot, vec = pending.pop()
        rows = basis.setdefault(slot, [])
        for pivot, row in rows:
            coeff = vec[pivot]
            if coeff:
                vec = [fld.sub(x, fld.mul(coeff, y)) for x, y in zip(vec, row)]
        pivot = next((c for c, x in enumerate(vec) if x), None)
        if pivot is None:
            continue
        scale = fld.inv(vec[pivot])
        rows.append((pivot, [fld.mul(scale, x) for x in vec]))
        rank += 1
        if rank == total:
            return True
        for ends, to in moves.get(slot, ()):
            mat = maps.get(ends)
            if mat is not None:
                pending.append((to, _push(fld, vec, mat, backward)))
    return rank == total


def _push(fld, vec, mat, backward):
    """``vec`` carried along the map ``mat``: its image, or with ``backward``
    the functional ``vec`` composed with ``mat``."""
    if backward:
        return mat_mul_shaped(fld, [vec], mat, 1, len(mat), len(mat[0]))[0]
    return mat_mul_shaped(fld, [vec], list(zip(*mat)), 1, len(vec), len(mat))[0]


def _theta_text(theta):
    """``theta`` as its ``--theta`` text: its entries joined by commas."""
    return ",".join(map(str, theta))


def _check_length(datum, theta):
    """Raise ValueError unless ``theta`` has one entry per node of ``datum``."""
    if len(theta) != datum.rank:
        raise ValueError(f"theta {_theta_text(theta)} has {len(theta)} entries, "
                         f"but {datum.label} has rank {datum.rank}")


@lru_cache(maxsize=1024)
def _route(datum, theta):
    """How :func:`stability_check` decides the tuple ``theta``.

    Raises ValueError when theta's length is not the rank, and
    NonGenericTheta on a root hyperplane.  None in the negative
    chamber.  Otherwise (dual, word): the walk up from theta, or with
    ``dual`` the walk up from -theta on the transposed point, whichever word
    is strictly shorter, theta's on a tie.  The walk up from theta takes the
    word of ``cartan._lower`` on -theta: theta's first negative node at each
    step.  A word's length counts the positive roots theta pairs < 0 with,
    so the two lengths add up to l(w_0) and the walk taken has
    min(l, l(w_0) - l) steps.
    """
    _check_length(datum, theta)
    if not is_generic(datum, theta):
        raise NonGenericTheta(f"{_theta_text(theta)} lies on a root hyperplane")
    if all(t < 0 for t in theta):
        return None
    up = _lower(datum, tuple(-t for t in theta))[2]
    down = _lower(datum, theta)[2]
    return (True, down) if len(down) < len(up) else (False, up)


class _Layout(namedtuple("_Layout", "v w keys table plans")):
    """What the points of dims (v, w) share: the dims, their map slots
    (:func:`valid_map_keys`), the relation table and ``plans``, the
    :func:`_walk_plan` of each theta met so far."""

    __slots__ = ()


@lru_cache(maxsize=1024)
def _layout(datum, v, w):
    """The :class:`_Layout` of dims ``v`` and ``w``, each a sorted items
    tuple; :func:`_layout_of` takes the dicts."""
    v, w = dict(v), dict(w)
    keys = valid_map_keys(datum, v, w)
    return _Layout(v, w, keys, _relation_table(datum, v, w, keys), {})


def _layout_of(datum, v, w):
    """The :func:`_layout` of the dims dicts ``v`` and ``w``."""
    return _layout(datum, tuple(sorted(v.items())), tuple(sorted(w.items())))


def _dual_layout(layout):
    """(v', w', flips): the dims of the transposed points of a
    :func:`_layout`'s dims, and the new ends of each map they can hold."""
    def flip(slot):
        space, i, a = slot
        return space, i, -a

    flips = {(source, target): (flip(target), flip(source))
             for source, target in layout.keys}
    return ({(i, -a): n for (i, a), n in layout.v.items()},
            {(i, -a): n for (i, a), n in layout.w.items()}, flips)


def _dual(rep, dual):
    """The transposed point x^T on negated grades.

    Each V/W slot (s, i, a) becomes (s, i, -a), and each map M from source
    to target becomes M^T from target' to source', so A and B trade places
    and the arrows reverse.  That is the grading of :func:`_step` again, as
    ``datum.b`` is symmetric, and each relation goes to a relation: E1bis at
    (i, a) to E1bis at (i, -a - d_ii) with l -> -c_ij - 1 - l and AB -> A'B',
    E2 at (i, j) to E2 at (j, i), and E4 to E5.  ``dual`` is the
    :func:`_dual_layout` of x's dims.
    """
    v, w, flips = dual
    return GradedQuiverRep._trusted(
        rep.datum, rep.field, v, w,
        {flips[ends]: [list(col) for col in zip(*mat)] for ends, mat in rep.maps.items()})


def _walk_plan(datum, layout, theta):
    """How :func:`stability_check` decides the points of a :func:`_layout`'s
    dims at the tuple ``theta``, less their entries; built on the first call
    per theta and kept in ``layout.plans``.

    False when the walk stops at a step for the dims alone, by the dims
    lemma of :func:`_step_plan`: then no such point is stable.  Otherwise
    (dual, steps, spin): the :func:`_dual_layout` when :func:`_route`
    starts from the transposed point, else None; the :func:`_step_plan` of
    each step of the route's word, each on the dims the step before leaves;
    and the :func:`_spin_plan` of the chamber's closure on the layout of the
    dims the walk ends on, forward in the negative chamber (no dual, no
    steps) and backward in the positive one.  Raises as :func:`_route` does.
    """
    plans = layout.plans
    if theta in plans:
        return plans[theta]
    route = _route(datum, theta)
    flip, word = route or (False, ())
    plans[theta] = False  # until every step is onto for some point
    dual = _dual_layout(layout) if flip else None
    v, w, _ = dual or (layout.v, layout.w, None)
    steps = []
    for i in word:
        step = _step_plan(datum, i, v, w)
        if step is None:
            return False
        steps.append(step)
        v = step.v
    spin = _spin_plan(_layout_of(datum, v, w), route is not None)
    plans[theta] = plan = dual, tuple(steps), spin
    return plan


def _walk(plan, rep):
    """Decide ``rep`` by the :func:`_walk_plan` of its dims and a theta."""
    if plan is False:
        return False
    dual, steps, spin = plan
    if dual is not None:
        rep = _dual(rep, dual)
    for step in steps:
        rep = _apply_step(step, rep)
        if rep is None:
            return False
    return _spin(spin, rep)


def stability_check(rep, theta):
    """Two-sided slope condition: is ``rep`` theta-stable?

    True iff every subrepresentation inside Ker B pairs <= 0 with theta and
    every subrepresentation containing Im A leaves a complement pairing >= 0.
    A dimension vector u pairs <theta, u> = sum_j d_j theta_j |u_j|, with
    |u_j| the total dimension at node j.  Raises NonGenericTheta on a root
    hyperplane.  Nothing is enumerated, so every field and every dimension
    is decided.  Raises ValueError when theta's length is not the rank.
    The verdict assumes ``rep`` satisfies the relations (see
    :func:`validate_relations`): the lemmas below, and the maps each step
    reads off its kernels, rest on them, and nothing here checks them.
    The sign of theta picks the path:

    * every theta_i < 0: the forward :func:`_spin`.  Every submodule pairs
      <= 0, so the Ker B half is vacuous; a complement pairs >= 0 only if it
      is zero, so the Im A half says the closure of Im A is V.
    * every theta_i > 0: the backward :func:`_spin`.  Every complement
      pairs >= 0, so the Im A half is vacuous; a submodule pairs <= 0 only
      if it is zero, and the largest submodule inside Ker B is the
      annihilator of the rows of B closed backwards along the arrows.
    * otherwise one cached route (:func:`_route`) walks up from (x, theta)
      or from (x^T, -theta) (:func:`_dual`), whichever word is strictly
      shorter, (x, theta) on a tie.  At the first negative node i the point
      becomes S_i x (:func:`_apply_step`) and theta becomes s_i theta,
      until every coordinate is positive; the walk ends in the positive
      chamber's test.  The nodes are those of ``cartan._lower`` on minus
      the walk's start.  A step at which some Phi is not onto gives False.
      A word's length is the number of positive roots its start pairs < 0
      with, so the two lengths add up to l(w_0), and the walk taken has
      min(l, l(w_0) - l) steps: one at every s_i(-1, ..., -1).

    Everything but the matrix entries is fixed by (datum, v, w, theta): the
    route, the transposed layout, per step the Phi blocks, their dims and
    the dims after the step, and the seeds and moves of the chamber's
    closure (:func:`_spin_plan`).  :func:`_walk_plan` holds them, kept in
    the dims' :func:`_layout`, and :func:`_walk` runs one point through
    them; a search looks its plan up once per theta.  Where some Phi's
    domain is smaller than its target the plan is False for the dims alone
    (see :func:`_step_plan`).

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
    layout = _layout_of(rep.datum, rep.v, rep.w)
    return _walk(_walk_plan(rep.datum, layout, tuple(theta)), rep)


# ---------------------------------------------------------------------------
# the reflection at a node


@lru_cache(maxsize=1024)
def _block_paths(datum, i, a):
    """Per block of the Phi/Psi domain at (i, a): (block, phi, psi, upsilon).

    The blocks come W first, then (j, t) in the order of the closed form of
    ``braid._reflect_rows``, whose terms are their slots; a block is its
    slot and its step t, (space, node, grade, t), t = 0 for W.  Each path is
    the tuple of its (source, target) steps, resolved here once per
    (datum, i, a).  ``phi`` is the path of Phi's block, out of the block's
    slot into V_i^{a+d_ii}; ``psi`` the path of Psi's block, out of V_i^a
    into the block's slot.  ``upsilon`` is None for the W block, which
    Upsilon kills; otherwise (path, t, negate): Upsilon sends the block's
    slot along the path, negated or not, to the block of the same neighbor
    with step t in the layout at (i, a - d_ii).
    """
    di, terms = _reflection_table(datum, i)
    at, start, framing = ("V", i), ("V", i, a), ("W", i, a + di)
    table = [((*framing, 0), _path(datum, framing, [at]),
              _path(datum, start, [("W", i)]), None)]
    for j, offset in terms:  # offset = d_ij + t*d_ii
        t = (offset - datum.b(i, j)) // (2 * di)
        slot = ("V", j, a + offset)
        c = -datum.c(i, j)
        if t < c:  # the same slot, one step later in the lower layout
            upsilon = ((), t + 1, False)
        else:  # the top slot, through minus the full loop composite at j
            upsilon = (_path(datum, slot, [("V", j)] * -datum.c(j, i)), 1, True)
        table.append(((*slot, t), _path(datum, slot, [at] * t),
                      _path(datum, start, [at] * (c - t) + [("V", j)]), upsilon))
    return tuple(table)


class _Grade(namedtuple("_Grade", "a vdim target dom blocks offsets")):
    """Phi_i^a, Psi_i^a and Upsilon_i^a on the points of some fixed dims,
    less their matrix entries.

    ``vdim`` is dim V_i^a (Psi's source), ``target`` dim V_i^{a+d_ii}
    (Phi's), ``dom`` the sum of the block dims, and ``blocks`` holds (node,
    dim, first column, phi, psi, upsilon) per block of :func:`_block_paths`
    of nonzero dim, each path as its steps; ``offsets`` maps each block's
    (node, t) to its first column.
    """

    __slots__ = ()


def _grade(datum, v, w, i, a):
    """The :class:`_Grade` at (i, a) on the points of dims ``v`` and ``w``."""
    blocks, offsets, dom = [], {}, 0
    for (space, j, b, t), phi, psi, upsilon in _block_paths(datum, i, a):
        dim = (v if space == "V" else w).get((j, b), 0)
        offsets[j, t] = dom
        if dim:
            blocks.append((j, dim, dom, phi, psi, upsilon))
        dom += dim
    return _Grade(a, v.get((i, a), 0), v.get((i, a + 2 * datum.di(i)), 0), dom,
                  tuple(blocks), offsets)


def _phi(fld, maps, grade):
    return hstack([_along(fld, maps, phi, grade.target, dim)
                   for _, dim, _, phi, _, _ in grade.blocks], grade.target)


def _psi(fld, maps, grade):
    return vstack([_along(fld, maps, psi, dim, grade.vdim)
                   for _, dim, _, _, psi, _ in grade.blocks])


def _upsilon(fld, maps, grade, lower):
    out = zeros(fld, lower.dom, grade.dom)
    for j, dim, col, _, _, upsilon in grade.blocks:
        if upsilon is None:
            continue
        path, t, negate = upsilon
        row0 = lower.offsets[j, t]
        for r, row in enumerate(_product(fld, maps, path, dim) or ()):
            for c, x in enumerate(row):
                out[row0 + r][col + c] = fld.neg(x) if negate else x
    return out


class _Step(namedtuple("_Step", "node grades builds v")):
    """S_i on the points of some fixed dims, less their matrix entries: the
    :class:`_Grade` of each grade with a nonzero Phi domain, the (grade,
    outs, loop, ins) of each with a nonzero kernel, and the dims after."""

    __slots__ = ()


def _step_plan(datum, i, v, w):
    """The part of S_i that reads no matrix entry, on points of dims ``v``
    and ``w``; None when no such point has every Phi_i^a onto.

    The dims lemma.  Where Phi_i^a is onto, its kernel has dimension dom -
    target, its domain's dimension less V_i^{a+d_ii}'s, so once every Phi
    is onto the dims of S_i x follow from those of x alone.  Where some
    grade's domain is smaller than its target, that Phi is onto at no
    point, so every such x gives None, and by the lemma of
    :func:`stability_check` is unstable for every theta with theta_i < 0.
    Each grade that the closed form reaches at node i is planned, zero-width
    ones too, since Phi must be onto there as well.

    Per grade with a nonzero kernel the plan lists the maps S_i x builds:
    ``outs``, Psi's one-map blocks at a, the maps out of the new V_i^a, each
    a slice of the kernel; ``loop``, the new loop and the lower grade whose
    kernel it lands in, where that kernel is nonzero too; and ``ins``,
    Phi's one-map blocks one step down, the maps into V_i^a, each Psi after
    the old map, read off the kernel's free rows.
    """
    dii = 2 * datum.di(i)
    grades = {}
    for a in sorted(a for node, a in reflect_dimensions(datum, i, v, w) if node == i):
        grade = _grade(datum, v, w, i, a)
        if grade.dom < grade.target:
            return None
        if grade.dom:
            grades[a] = grade

    new_v = {key: n for key, n in v.items() if key[0] != i}
    builds = []
    for a, grade in grades.items():
        width = grade.dom - grade.target
        if not width:
            continue
        new_v[i, a] = width
        outs = tuple((psi[0], col, dim) for _, dim, col, _, psi, _ in grade.blocks
                     if len(psi) == 1)
        (ends,) = _path(datum, ("V", i, a), [("V", i)])
        lower = grades.get(a - dii)  # where the loop lands
        loop = (ends, lower) if lower and lower.dom > lower.target else None
        ins = tuple((phi[0], dim) for _, dim, _, phi, _, _ in
                    (lower.blocks if lower else ()) if len(phi) == 1)
        builds.append((grade, outs, loop, ins))
    return _Step(i, tuple(grades.values()), tuple(builds), new_v)


def _apply_step(step, rep):
    """S_i x by the plan ``step`` of x's dims, or None when some Phi is not onto."""
    fld, maps = rep.field, rep.maps
    kernels = {}
    for grade in step.grades:
        basis, free = kernel_basis(fld, _phi(fld, maps, grade), cols=grade.dom)
        if len(free) != grade.dom - grade.target:  # the rank of Phi
            return None
        kernels[grade.a] = basis, free

    at = ("V", step.node)
    new_maps = {ends: mat for ends, mat in maps.items()
                if all(end[:2] != at for end in ends)}
    for grade, outs, loop, ins in step.builds:
        basis, free = kernels[grade.a]
        # the maps out of V_i^a, and the new coframing, project the kernel
        for ends, col, dim in outs:
            new_maps[ends] = [list(row) for row in basis[col:col + dim]]
        # Upsilon K_a and Psi M lie in a kernel's span K, and K is the identity
        # at its free rows, so the maps they factor through K are those rows.
        # the new loop, induced by the comparison map, which carries the
        # kernel at a into the kernel at a - d_ii
        if loop is not None:
            ends, lower = loop
            upsilon = _upsilon(fld, maps, grade, lower)
            rows = [upsilon[f] for f in kernels[lower.a][1]]
            new_maps[ends] = mat_mul_shaped(fld, rows, basis, len(rows), grade.dom,
                                            len(free))
        # the maps into V_i^a, and the new framing, factor through Psi
        if ins:
            psi = _psi(fld, maps, grade)
            rows = [psi[f] for f in free]
            for ends, dim in ins:
                new_maps[ends] = mat_mul_shaped(
                    fld, rows, _along(fld, maps, (ends,), grade.vdim, dim),
                    len(free), grade.vdim, dim)
    return GradedQuiverRep._trusted(rep.datum, fld, step.v, rep.w, new_maps)


def _reflect_kernel(rep, i):
    """S_i x for a relation-satisfying point x, or None when some Phi is not onto.

    By the lemma of :func:`stability_check`, None means x is unstable for
    every theta with theta_i < 0.  Nothing is validated here: :func:`reflect`
    checks its input and output around this, and the stability walk reaches
    it only from valid points.
    """
    step = _step_plan(rep.datum, i, rep.v, rep.w)
    return None if step is None else _apply_step(step, rep)


def reflect(rep, i, theta):
    """The reflection functor at node i applied to a theta-stable point.

    Requires a node i of the datum, one theta entry per node, theta_i < 0
    and generic theta; ValueError otherwise, NonGenericTheta on a wall.
    Returns (new point, s_i theta).  :func:`_reflect_kernel` does the work;
    around it the input's relations and stability, and the output's
    relations, dimensions (against ``braid._push_dims``) and stability are
    enforced, not assumed.
    """
    datum = rep.datum
    datum.check_node(i)
    _check_length(datum, theta)
    if theta[i - 1] >= 0:
        raise ValueError(f"reflection at node {i} needs theta_{i} < 0")
    bad = validate_relations(rep)
    if bad:
        raise RelationViolated(f"input point invalid: {bad[0]}")
    if not stability_check(rep, theta):
        raise StabilityViolated(
            f"input point is not stable for {_theta_text(theta)}")
    reflected = _reflect_kernel(rep, i)
    if reflected is None:
        raise NotSurjective(
            f"some Phi at node {i} is not onto, though the input is stable"
        )
    bad = validate_relations(reflected)
    if bad:
        raise RelationViolated(f"reflected point invalid: {bad[0]}")
    predicted = _push_dims(datum, (i,), rep.v, rep.w)
    if predicted != reflected.v:
        raise DimensionMismatch(
            f"reflected dims {sorted(reflected.v.items())} != "
            f"predicted {sorted(predicted.items())}"
        )
    theta_bar = reflect_weight(datum, i, theta)
    if not stability_check(reflected, theta_bar):
        raise StabilityViolated(
            f"reflected point is not stable for {_theta_text(theta_bar)}")
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


SearchPoint = namedtuple("SearchPoint", "rep stable")


def exhaustive_search(datum, v, w, field, thetas=(),
                      cap_entries=DEFAULT_SEARCH_ENTRY_CAP):
    """Enumerate every relation-satisfying point for dims (v, w) over a finite field.

    Raw points: no deduplication by the graded automorphism group.  Each
    surviving point is classified against every supplied stability weight.
    The points share their dims and their matrix rows (one list per distinct
    row), so none of them may be changed in place.
    """
    if not field.is_finite:
        raise FieldNotFinite("exhaustive search needs a finite field")
    empty = GradedQuiverRep(datum, field, v, w)
    layout = _layout_of(datum, empty.v, empty.w)
    shapes = [(empty.slot_dim(target), empty.slot_dim(source))
              for source, target in layout.keys]
    total_entries = sum(r * c for r, c in shapes)
    if total_entries > cap_entries:
        raise CapExceeded(
            f"search space has {total_entries} free entries (cap {cap_entries})",
            entries=total_entries,
        )
    # every point shares datum, v and w, and the relation table and the
    # stability plans read nothing else
    plans = [_walk_plan(datum, layout, tuple(theta)) for theta in thetas]
    # a point's entries run row by row through the slots, so one table of
    # every row per column count, shared by all points, enumerates the points
    # in the order of product(elements, repeat=total_entries)
    tables = {cols: [list(row) for row in product(field.elements(), repeat=cols)]
              for cols in {cols for _, cols in shapes}}
    row_tables, spans = [], []
    for ends, (rows, cols) in zip(layout.keys, shapes):
        spans.append((ends, len(row_tables), len(row_tables) + rows))
        row_tables += [tables[cols]] * rows
    results = []
    for combo in product(*row_tables):
        maps = {ends: list(combo[start:stop]) for ends, start, stop in spans}
        rep = GradedQuiverRep._trusted(datum, field, empty.v, empty.w, maps)
        if _violations(rep, layout.table):
            continue
        stable = tuple(_walk(plan, rep) for plan in plans)
        results.append(SearchPoint(rep=rep, stable=stable))
    return results
