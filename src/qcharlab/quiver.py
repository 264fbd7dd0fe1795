"""Graded (co)framed quiver representations, stability, and the reflection map.

Grading conventions.  Spaces V_i^a and W_i^a sit on (node, integer) slots.
Loops descend: the loop at node i maps V_i^a -> V_i^{a - d_ii}.  Arrows
between adjacent nodes ascend: V_i^a -> V_j^{a - d_ij} with d_ij < 0.  The
framing A_i^a : W_i^a -> V_i^{a + d_i} and coframing B_i^a : V_i^{a - d_i}
-> W_i^a both ascend by d_i.  Arrows between non-adjacent distinct nodes are
omitted; no relation constrains them.

The defining relations, checked by :func:`validate_relations`:

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
from itertools import product

from .braid import reflect_dimensions
from .cartan import is_generic, reflect_weight
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
    mat_rank,
    nonzero_vectors,
    rref,
    solve_exact,
    vstack,
    zeros,
)

# stability is decided by enumeration, so only up to this total dimension
STABILITY_DIM_CAP = 14
DEFAULT_SEARCH_ENTRY_CAP = 22
DEFAULT_LATTICE_CAP = 100000


class GradedQuiverRep:
    """A point of the (co)framed representation space for fixed dims v, w.

    ``arrows`` is keyed by (i, a, j) for the map V_i^a -> V_j^{a - d_ij}
    (loops use i == j); ``framing`` by (i, a) for A_i^a and ``coframing`` by
    (i, a) for B_i^a.  Matrices are (target rows) x (source cols); maps with
    a zero-dimensional end are never stored.
    """

    def __init__(self, datum, field, v, w, arrows=None, framing=None,
                 coframing=None, check=True):
        if check:
            _check_dims(datum, v, w)
        self.datum = datum
        self.field = field
        self.v = {key: n for key, n in dict(v).items() if n}
        self.w = {key: n for key, n in dict(w).items() if n}
        self.arrows = dict(arrows or {})
        self.framing = dict(framing or {})
        self.coframing = dict(coframing or {})
        if check:
            self._check_shapes()
        # a map with a zero-dimensional end has no entries to store
        for _, maps in self._maps_by_kind():
            for key in [key for key, mat in maps.items() if not (mat and mat[0])]:
                del maps[key]

    def _maps_by_kind(self):
        return (("arrow", self.arrows), ("A", self.framing), ("B", self.coframing))

    # -- dimensions ---------------------------------------------------

    def vdim(self, i, a):
        return self.v.get((i, a), 0)

    def wdim(self, i, a):
        return self.w.get((i, a), 0)

    def slot_dim(self, slot):
        """The dimension of a ("V"|"W", node, grade) slot."""
        space, i, a = slot
        return (self.v if space == "V" else self.w).get((i, a), 0)

    def _map_shape(self, kind, key):
        """(rows, cols) of a map: the dimensions of its target and its source."""
        source, target = _map_ends(self.datum, kind, key)
        return self.slot_dim(target), self.slot_dim(source)

    def total_dim(self):
        return sum(self.v.values())

    # -- map accessors (zero matrices where nothing is stored) ---------

    def arrow(self, i, a, j):
        mat = self.arrows.get((i, a, j))
        if mat is not None:
            return mat
        return zeros(self.field, *self._map_shape("arrow", (i, a, j)))

    def framing_map(self, i, a):
        mat = self.framing.get((i, a))
        if mat is not None:
            return mat
        return zeros(self.field, *self._map_shape("A", (i, a)))

    def coframing_map(self, i, a):
        mat = self.coframing.get((i, a))
        if mat is not None:
            return mat
        return zeros(self.field, *self._map_shape("B", (i, a)))

    def loop_power(self, i, a, count):
        """The composite of ``count`` descending loops starting at V_i^a."""
        dii = 2 * self.datum.di(i)
        cols = self.vdim(i, a)
        mat = identity(self.field, cols)
        for step in range(count):
            src = self.vdim(i, a - step * dii)
            dst = self.vdim(i, a - (step + 1) * dii)
            mat = mat_mul_shaped(self.field, self.arrow(i, a - step * dii, i),
                                 mat, dst, src, cols)
        return mat

    def _check_shapes(self):
        datum = self.datum
        for kind, maps in self._maps_by_kind():
            for key, mat in maps.items():
                i = key[0]
                j = key[2] if kind == "arrow" else i
                if i not in datum.nodes or j not in datum.nodes:
                    raise ShapeMismatch(f"{kind} map {key} is not valid in {datum.label}")
                if i != j and datum.c(i, j) == 0:
                    raise ShapeMismatch(f"arrow {key} joins non-adjacent nodes")
                rows, cols = self._map_shape(kind, key)
                if len(mat) != rows or any(len(row) != cols for row in mat):
                    raise ShapeMismatch(f"{kind} map {key}: expected {rows}x{cols}")

    # -- serialization --------------------------------------------------

    def to_json_obj(self):
        fld = self.field
        maps = []
        for kind, table in self._maps_by_kind():
            for key in sorted(table):
                source, target = _map_ends(self.datum, kind, key)
                maps.append({
                    "kind": kind, "from": list(source[1:]), "to": list(target[1:]),
                    "matrix": [[fld.to_json(x) for x in row] for row in table[key]],
                })
        return {
            "field": fld.name,
            "type": self.datum.label,
            "v": [[i, a, n] for (i, a), n in sorted(self.v.items())],
            "w": [[i, a, n] for (i, a), n in sorted(self.w.items())],
            "maps": maps,
        }

    @classmethod
    def from_json_obj(cls, obj, datum=None):
        from .cartan import build_cartan

        datum = datum or build_cartan(obj["type"])
        fld = field_by_name(obj["field"])
        v = {(int(i), int(a)): int(n) for i, a, n in obj["v"]}
        w = {(int(i), int(a)): int(n) for i, a, n in obj["w"]}
        tables = {"arrow": {}, "A": {}, "B": {}}
        for entry in obj.get("maps", []):
            mat = [[fld.from_json(x) for x in row] for row in entry["matrix"]]
            i, a = int(entry["from"][0]), int(entry["from"][1])
            j, b = int(entry["to"][0]), int(entry["to"][1])
            kind = entry["kind"]
            if kind not in tables:
                raise ShapeMismatch(f"unknown map kind {kind!r}")
            for node in (i, j):
                if node not in datum.nodes:
                    raise ShapeMismatch(
                        f"{kind} map end at node {node} is not in {datum.label}"
                    )
            # the key this map is stored under, and the ends to_json_obj writes for it
            key = {"arrow": (i, a, j), "A": (i, a), "B": (j, b)}[kind]
            ends = tuple(slot[1:] for slot in _map_ends(datum, kind, key))
            if ((i, a), (j, b)) != ends:
                raise ShapeMismatch(
                    f"{kind} map from {(i, a)} to {(j, b)} contradicts its key; "
                    f"expected from {ends[0]} to {ends[1]}"
                )
            if key in tables[kind]:
                raise ShapeMismatch(f"two {kind} maps for the key {key}")
            tables[kind][key] = mat
        return cls(datum, fld, v, w, tables["arrow"], tables["A"], tables["B"])


def _check_dims(datum, v, w):
    for (i, a), n in [*dict(v).items(), *dict(w).items()]:
        if i not in datum.nodes or n < 0:
            raise ShapeMismatch(
                f"dimension {n} at slot {(i, a)} is not valid in {datum.label}"
            )


def _map_ends(datum, kind, key):
    """The (source, target) slots, each ("V"|"W", node, grade), of a map.

    The one statement of the grading: an arrow (i, a, j) goes V_i^a ->
    V_j^{a - d_ij}, A (i, a) goes W_i^a -> V_i^{a + d_i}, and B (i, a) goes
    V_i^{a - d_i} -> W_i^a.
    """
    if kind == "arrow":
        i, a, j = key
        return ("V", i, a), ("V", j, a - datum.b(i, j))
    i, a = key
    if kind == "A":
        return ("W", i, a), ("V", i, a + datum.di(i))
    return ("V", i, a - datum.di(i)), ("W", i, a)


def valid_map_keys(datum, v, w):
    """All (kind, key) slots carrying free matrix entries for dims (v, w)."""
    dims = {"V": v, "W": w}
    keys = []
    for (i, a) in sorted(k for k, n in v.items() if n):
        keys += [("arrow", (i, a, j)) for j in (i, *sorted(datum.neighbors(i)))]
    for (i, a) in sorted(k for k, n in w.items() if n):
        keys += [("A", (i, a)), ("B", (i, a))]
    return [(kind, key) for kind, key in keys
            if all(dims[space].get((node, grade), 0)
                   for space, node, grade in _map_ends(datum, kind, key))]


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
                term = rep.loop_power(i, a, l)
                term = mat_mul_shaped(fld, rep.arrow(i, g1, j), term, d2, d1, cols)
                term = mat_mul_shaped(fld, rep.arrow(j, g2, i), term, d3, d2, cols)
                term = mat_mul_shaped(fld, rep.loop_power(i, g3, -cij - 1 - l),
                                      term, rows, d3, cols)
                terms.append(term)
        if include_ab:
            terms.append(mat_mul_shaped(
                fld, rep.framing_map(i, a + di), rep.coframing_map(i, a + di),
                rows, rep.wdim(i, a + di), cols,
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
            t1 = mat_mul_shaped(fld, rep.loop_power(j, a - dij, -datum.c(j, i)),
                                rep.arrow(i, a, j), rows, rep.vdim(j, a - dij),
                                cols)
            t2 = mat_mul_shaped(fld, rep.arrow(i, a + 2 * dij, j),
                                rep.loop_power(i, a, -datum.c(i, j)), rows,
                                rep.vdim(i, a + 2 * dij), cols)
            if not is_zero_matrix(fld, _mat_sum(fld, [t1, t2], rows, cols)):
                out.append(RelationViolation("E2", i, j, a))
    return out


def _e4_e5_violations(rep):
    datum, fld = rep.datum, rep.field
    out = []
    for (i, a) in sorted(rep.w):
        di = datum.di(i)
        if rep.wdim(i, a) and rep.vdim(i, a - di):
            e4 = mat_mul_shaped(fld, rep.loop_power(i, a + di, 1),
                                rep.framing_map(i, a), rep.vdim(i, a - di),
                                rep.vdim(i, a + di), rep.wdim(i, a))
            if not is_zero_matrix(fld, e4):
                out.append(RelationViolation("E4", i, i, a))
        if rep.vdim(i, a + di) and rep.wdim(i, a):
            e5 = mat_mul_shaped(fld, rep.coframing_map(i, a),
                                rep.loop_power(i, a + di, 1), rep.wdim(i, a),
                                rep.vdim(i, a - di), rep.vdim(i, a + di))
            if not is_zero_matrix(fld, e5):
                out.append(RelationViolation("E5", i, i, a))
    return out


def validate_relations(rep):
    """All relation failures of a (co)framed point; empty means valid."""
    return _e1bis_violations(rep, True) + _e2_violations(rep) + _e4_e5_violations(rep)


def validate_n(rep, node, xi):
    """Relation check for a framed point (B = 0) with framing vector xi.

    ``xi`` is a column vector in V_node^{d_node}.  Checks the AB-free loop
    relation, the mixed relation E2, and that the single descending loop
    kills xi.
    """
    if rep.coframing:
        raise ValueError("validate_n expects a point with all B maps zero")
    datum, fld = rep.datum, rep.field
    dk = datum.di(node)
    dim = rep.vdim(node, dk)
    if len(xi) != dim:
        raise ShapeMismatch(f"xi must live in V_{node}^{dk} (dim {dim})")
    out = _e1bis_violations(rep, False) + _e2_violations(rep)
    loop = rep.loop_power(node, dk, 1)
    if loop and not is_zero_matrix(fld, _images(fld, loop, [xi])):
        out.append(RelationViolation("loop-kills-xi", node, node, dk))
    return out


# ---------------------------------------------------------------------------
# submodule machinery and stability


def _span(fld, rows):
    """Canonical echelon basis (tuple of row tuples) of the span of ``rows``."""
    reduced, pivots = rref(fld, rows)
    return tuple(tuple(reduced[r]) for r in range(len(pivots)))


def _images(fld, mat, rows):
    """The image of each row vector (``rows`` is not empty) under ``mat``."""
    return mat_mul_shaped(fld, rows, list(zip(*mat)), len(rows), len(rows[0]),
                          len(mat))


def _closure(rep, seeds):
    """Smallest subrepresentation containing the seed vectors.

    Closed under every arrow and loop (framing maps do not act).  Returns a
    dict (node, grade) -> canonical tuple of echelon basis rows.
    """
    fld = rep.field
    spans = {}
    for key, vectors in seeds.items():
        rows = _span(fld, vectors)
        if rows:
            spans[key] = rows
    moves = []  # (source, target, matrix) per arrow, slots as (node, grade)
    for key, mat in rep.arrows.items():
        source, target = _map_ends(rep.datum, "arrow", key)
        moves.append((source[1:], target[1:], mat))
    changed = True
    while changed:
        changed = False
        for source, target, mat in moves:
            rows = spans.get(source)
            if not rows:
                continue
            trows = spans.get(target, ())
            grown = _span(fld, [*trows, *_images(fld, mat, rows)])
            if len(grown) > len(trows):
                spans[target] = grown
                changed = True
    return spans


def _sub_key(sub):
    return tuple(sorted(sub.items()))


def _sub_dims(sub):
    return {key: len(rows) for key, rows in sub.items()}


def _sub_totals(datum, sub):
    totals = [0] * datum.rank
    for (i, _), rows in sub.items():
        totals[i - 1] += len(rows)
    return totals


def _pairing(datum, theta, totals):
    return sum(datum.di(i) * theta[i - 1] * totals[i - 1] for i in datum.nodes)


def _join(fld, left, right):
    out = dict(left)
    for key, rows in right.items():
        out[key] = _span(fld, out.get(key, ()) + rows)
    return out


def _contained_in_ker_b(rep, sub):
    fld = rep.field
    for key, mat in rep.coframing.items():
        source, _ = _map_ends(rep.datum, "B", key)
        rows = sub.get(source[1:])
        if rows and not is_zero_matrix(fld, _images(fld, mat, rows)):
            return False
    return True


def _cyclic_closures(rep):
    """The closure of each nonzero vector (one per line) of each slot of V."""
    for (i, a), dim in sorted(rep.v.items()):
        for vec in nonzero_vectors(rep.field, dim):
            yield _closure(rep, {(i, a): [vec]})


def _cyclic_submodules(rep):
    seen = {}
    for sub in _cyclic_closures(rep):
        seen.setdefault(_sub_key(sub), sub)
    return list(seen.values())


def _lattice(rep, base, generators, cap):
    """All joins of ``base`` with subsets of ``generators`` (BFS, deduplicated)."""
    fld = rep.field
    seen = {_sub_key(base): base}
    queue = [base]
    while queue:
        current = queue.pop()
        for gen in generators:
            joined = _join(fld, current, gen)
            key = _sub_key(joined)
            if key not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(
                        f"submodule lattice exceeds cap {cap}", cap=cap
                    )
                seen[key] = joined
                queue.append(joined)
    return seen.values()


def _framing_image_seeds(rep):
    seeds = {}
    for key, mat in rep.framing.items():
        _, target = _map_ends(rep.datum, "A", key)
        cols = len(mat[0]) if mat else 0
        for c in range(cols):
            seeds.setdefault(target[1:], []).append([mat[r][c] for r in range(len(mat))])
    return seeds


def stability_check(rep, theta, lattice_cap=DEFAULT_LATTICE_CAP):
    """Two-sided slope condition: is ``rep`` theta-stable?

    True iff every subrepresentation inside Ker B pairs <= 0 with theta and
    every subrepresentation containing Im A leaves a complement pairing >= 0.
    Only decidable over a finite field within ``STABILITY_DIM_CAP``.  After the
    guards, the sign of theta picks one of three paths:

    * every theta_i < 0: :func:`is_framed_stable`.  Proof: every submodule
      pairs <= 0, so the Ker B half is vacuous; a complement pairs >= 0 only
      if it is zero, so the Im A half says the closure of Im A is V.
    * every theta_i > 0: no cyclic submodule lies in Ker B.  Proof: every
      complement pairs >= 0, so the Im A half is vacuous; a submodule pairs
      <= 0 only if it is zero, and a nonzero one inside Ker B contains the
      closure of any of its nonzero vectors, again inside Ker B.
    * mixed signs: :func:`_stability_by_lattice`, which walks the submodule
      lattice and alone can raise the ``lattice_cap`` CapExceeded.
    """
    if not rep.field.is_finite:
        raise FieldNotFinite("stability enumeration needs a finite field")
    if rep.total_dim() > STABILITY_DIM_CAP:
        raise CapExceeded(
            f"total dimension {rep.total_dim()} exceeds stability cap "
            f"{STABILITY_DIM_CAP}",
            cap=STABILITY_DIM_CAP,
        )
    if not is_generic(rep.datum, theta):
        raise NonGenericTheta(f"{theta} lies on a root hyperplane")
    if all(t < 0 for t in theta):
        return is_framed_stable(rep)
    if all(t > 0 for t in theta):
        return not any(
            _contained_in_ker_b(rep, sub) for sub in _cyclic_closures(rep)
        )
    return _stability_by_lattice(rep, theta, lattice_cap)


def _stability_by_lattice(rep, theta, lattice_cap):
    """The slope condition checked on every submodule of the two lattices."""
    datum = rep.datum
    cyclics = _cyclic_submodules(rep)

    ker_b_gens = [c for c in cyclics if _contained_in_ker_b(rep, c)]
    for sub in _lattice(rep, {}, ker_b_gens, lattice_cap):
        if _pairing(datum, theta, _sub_totals(datum, sub)) > 0:
            return False

    v_totals = [0] * datum.rank
    for (i, _), n in rep.v.items():
        v_totals[i - 1] += n
    base = _closure(rep, _framing_image_seeds(rep))
    for sub in _lattice(rep, base, cyclics, lattice_cap):
        totals = _sub_totals(datum, sub)
        diff = [v_totals[k] - totals[k] for k in range(datum.rank)]
        if _pairing(datum, theta, diff) < 0:
            return False
    return True


def is_framed_stable(rep):
    """The all-negative-chamber notion: no proper subrepresentation contains Im A.

    Equivalent to the closure of the framing images being everything.
    """
    base = _closure(rep, _framing_image_seeds(rep))
    return _sub_dims(base) == dict(rep.v)


# ---------------------------------------------------------------------------
# the reflection at a node


def phi_blocks(datum, i, a):
    """Summand layout of the Phi/Psi domain at (i, a): W first, then (j, t)."""
    blocks = [("W", i, a + datum.di(i), 0)]
    dii = 2 * datum.di(i)
    for j in sorted(datum.neighbors(i)):
        dij = datum.b(i, j)
        for t in range(1, -datum.c(i, j) + 1):
            blocks.append(("V", j, a + dij + t * dii, t))
    return blocks


def _block_dims(rep, blocks):
    return [rep.slot_dim(block[:3]) for block in blocks]


def phi_map(rep, i, a):
    """The assembled map out of the framing slot and neighbor slots into V_i^{a+d_ii}.

    Blocks, in the canonical order of :func:`phi_blocks`: the framing map
    A_i^{a+d_i}, then for each neighbor slot the arrow into node i followed by
    t-1 descending loops.
    """
    datum, fld = rep.datum, rep.field
    dii = 2 * datum.di(i)
    rows = rep.vdim(i, a + dii)
    blocks = phi_blocks(datum, i, a)
    mats = [rep.framing_map(i, a + datum.di(i))]
    for kind, j, grade, t in blocks[1:]:
        mats.append(mat_mul_shaped(
            fld, rep.loop_power(i, a + t * dii, t - 1), rep.arrow(j, grade, i),
            rows, rep.vdim(i, a + t * dii), rep.vdim(j, grade),
        ))
    return hstack(mats, rows)


def psi_map(rep, i, a):
    """The companion map V_i^a into the Phi domain; Phi o Psi must vanish.

    Blocks: the coframing B_i^{a+d_i}, then for each neighbor slot the
    composite of -c_ij - t descending loops followed by the arrow out to j.
    Raises RelationViolated when the composite with Phi is nonzero.
    """
    datum, fld = rep.datum, rep.field
    di = datum.di(i)
    dii = 2 * di
    blocks = phi_blocks(datum, i, a)
    cols = rep.vdim(i, a)
    mats = [rep.coframing_map(i, a + di)]
    for kind, j, grade, t in blocks[1:]:
        cij = datum.c(i, j)
        src = a + (cij + t) * dii
        mats.append(mat_mul_shaped(
            fld, rep.arrow(i, src, j), rep.loop_power(i, a, -cij - t),
            rep.vdim(j, grade), rep.vdim(i, src), cols,
        ))
    psi = vstack(mats)
    dom = sum(_block_dims(rep, blocks))
    composite = mat_mul_shaped(fld, phi_map(rep, i, a), psi,
                               rep.vdim(i, a + dii), dom, cols)
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
    dii = 2 * datum.di(i)
    src_blocks = phi_blocks(datum, i, a)
    dst_blocks = phi_blocks(datum, i, a - dii)
    src_dims = _block_dims(rep, src_blocks)
    dst_dims = _block_dims(rep, dst_blocks)
    rows = sum(dst_dims)
    cols = sum(src_dims)
    out = zeros(fld, rows, cols)

    dst_offset = {}
    pos = 0
    for block, dim in zip(dst_blocks, dst_dims):
        dst_offset[block] = pos
        pos += dim

    def paste(matrix, row0, col0):
        for r, row in enumerate(matrix):
            for c, x in enumerate(row):
                if x != fld.zero():
                    out[row0 + r][col0 + c] = x

    col = src_dims[0]  # skip the W block
    for (kind, j, grade, t), dim in zip(src_blocks[1:], src_dims[1:]):
        cij = datum.c(i, j)
        if t < -cij:
            # same grade appears one step later in the lower layout
            dst = ("V", j, grade, t + 1)
            paste(identity(fld, dim), dst_offset[dst], col)
        else:
            dst = ("V", j, a + datum.b(i, j), 1)
            loop = rep.loop_power(j, grade, -datum.c(j, i))
            paste([[fld.neg(x) for x in row] for row in loop],
                  dst_offset[dst], col)
        col += dim
    return out


def _kernel_block_rows(K, blocks, dims, want):
    offset = 0
    for block, dim in zip(blocks, dims):
        if block[:3] == want:
            return [K[offset + r] for r in range(dim)]
        offset += dim
    raise KeyError(want)


def reflect(rep, i, theta, *, trusted=False):
    """The reflection functor at node i applied to a theta-stable point.

    Requires theta_i < 0 and generic theta.  Stability of the input is
    verified when the field is finite and the total dimension fits the cap;
    otherwise ``trusted=True`` must be passed.  Returns (new point, s_i theta).
    Postconditions (surjectivity of every Phi, relations on the output,
    dimension bookkeeping, stability of the output when decidable) are
    enforced, not assumed.
    """
    datum, fld = rep.datum, rep.field
    if theta[i - 1] >= 0:
        raise ValueError(f"reflection at node {i} needs theta_{i} < 0")
    if not is_generic(datum, theta):
        raise NonGenericTheta(f"{theta} lies on a root hyperplane")
    bad = validate_relations(rep)
    if bad:
        raise RelationViolated(f"input point invalid: {bad[0]}")
    if not trusted:
        if not rep.field.is_finite:
            raise FieldNotFinite(
                "stability is undecidable over an infinite field; "
                "pass trusted=True to proceed"
            )
        if rep.total_dim() > STABILITY_DIM_CAP:
            raise CapExceeded(
                f"total dimension {rep.total_dim()} exceeds the stability cap "
                f"{STABILITY_DIM_CAP}; pass trusted=True to proceed",
                cap=STABILITY_DIM_CAP,
            )
        if not stability_check(rep, theta):
            raise StabilityViolated(f"input point is not stable for {theta}")

    di = datum.di(i)
    dii = 2 * di
    candidates = set()
    for (node, grade) in rep.v:
        if node == i:
            candidates.add(grade - dii)
        elif datum.c(i, node) != 0:
            dij = datum.b(i, node)
            for t in range(1, -datum.c(i, node) + 1):
                candidates.add(grade - dij - t * dii)
    for (node, grade) in rep.w:
        if node == i:
            candidates.add(grade - di)

    kernels = {}  # grade -> (kernel basis, its width, Phi blocks, block dims)
    for a in sorted(candidates):
        blocks = phi_blocks(datum, i, a)
        dims = _block_dims(rep, blocks)
        dom = sum(dims)
        target = rep.vdim(i, a + dii)
        if dom == 0 and target == 0:
            continue
        phi = phi_map(rep, i, a)
        if mat_rank(fld, phi) != target:
            raise NotSurjective(
                f"Phi at node {i}, grade {a} is not onto; "
                "the stability hypothesis fails upstream"
            )
        basis = kernel_basis(fld, phi, cols=dom)
        kernels[a] = (basis, len(basis[0]) if basis else 0, blocks, dims)

    new_v = {key: n for key, n in rep.v.items() if key[0] != i}
    new_v.update({(i, a): width for a, (_, width, _, _) in kernels.items() if width})

    new_arrows = {
        key: mat for key, mat in rep.arrows.items()
        if key[0] != i and key[2] != i
    }
    new_framing = {key: mat for key, mat in rep.framing.items() if key[0] != i}
    new_coframing = {key: mat for key, mat in rep.coframing.items() if key[0] != i}

    psis = {}

    def psi_at(a):
        if a not in psis:
            psis[a] = psi_map(rep, i, a)
        return psis[a]

    for a, (basis, width, blocks, dims) in kernels.items():
        if not width:
            continue

        # outgoing arrows and the new coframing: plain projections
        wrows = [basis[r] for r in range(dims[0])]
        if dims[0]:
            new_coframing[(i, a + di)] = [list(row) for row in wrows]
        for j in datum.neighbors(i):
            _, end = _map_ends(datum, "arrow", (i, a, j))
            if rep.slot_dim(end):
                rows = _kernel_block_rows(basis, blocks, dims, end)
                new_arrows[(i, a, j)] = [list(row) for row in rows]

        # the new loop, induced by the comparison map
        ups = upsilon_map(rep, i, a)
        dom = sum(dims)
        lower_dom = sum(_block_dims(rep, phi_blocks(datum, i, a - dii)))
        image = mat_mul_shaped(fld, ups, basis, lower_dom, dom, width)
        lower, lower_width, _, _ = kernels.get(a - dii, ([], 0, None, None))
        if lower_width:
            coords = solve_exact(fld, lower, image)
            if coords is None:
                raise RelationViolated(
                    f"comparison map leaves the kernel at node {i}, grade {a}"
                )
            new_arrows[(i, a, i)] = coords
        elif not is_zero_matrix(fld, image):
            raise RelationViolated(
                f"comparison map leaves the zero kernel at node {i}, grade {a}"
            )

        # incoming arrows and the new framing: factor through Psi
        for j in datum.neighbors(i):
            sgrade = a + datum.b(i, j)
            if not rep.vdim(j, sgrade):
                continue
            mapped = mat_mul_shaped(fld, psi_at(a), rep.arrow(j, sgrade, i),
                                    dom, rep.vdim(i, a), rep.vdim(j, sgrade))
            coords = solve_exact(fld, basis, mapped)
            if coords is None:
                raise RelationViolated(
                    f"incoming arrow misses the kernel at node {i}, grade {a}"
                )
            new_arrows[(j, sgrade, i)] = coords
        if rep.wdim(i, a - di):
            mapped = mat_mul_shaped(fld, psi_at(a), rep.framing_map(i, a - di),
                                    dom, rep.vdim(i, a), rep.wdim(i, a - di))
            coords = solve_exact(fld, basis, mapped)
            if coords is None:
                raise RelationViolated(
                    f"framing image misses the kernel at node {i}, grade {a}"
                )
            new_framing[(i, a - di)] = coords

    reflected = GradedQuiverRep(datum, fld, new_v, rep.w, new_arrows,
                                new_framing, new_coframing)

    bad = validate_relations(reflected)
    if bad:
        raise RelationViolated(f"reflected point invalid: {bad[0]}")
    predicted = reflect_dimensions(datum, i, dict(rep.v), dict(rep.w))
    predicted = {key: n for key, n in predicted.items() if n}
    if predicted != reflected.v:
        raise DimensionMismatch(
            f"reflected dims {sorted(reflected.v.items())} != "
            f"predicted {sorted(predicted.items())}"
        )
    theta_bar = reflect_weight(datum, i, theta)
    if (not trusted and reflected.field.is_finite
            and reflected.total_dim() <= STABILITY_DIM_CAP):
        if not stability_check(reflected, theta_bar):
            raise StabilityViolated(
                f"reflected point is not stable for {theta_bar}"
            )
    return reflected, theta_bar


def chain_reflect(rep, theta, word, *, trusted=False):
    """Sequential reflections along a reduced word (first letter first).

    For theta in the negative chamber the sign precondition at each step
    holds automatically; it is still asserted.  Returns the final point and
    the transported weight.
    """
    for i in word:
        if theta[i - 1] >= 0:
            raise ValueError(
                f"chain step at node {i} has nonnegative theta coefficient"
            )
        rep, theta = reflect(rep, i, theta, trusted=trusted)
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
    shapes = [empty._map_shape(kind, key) for kind, key in slots]
    total_entries = sum(r * c for r, c in shapes)
    if total_entries > cap_entries:
        raise CapExceeded(
            f"search space has {total_entries} free entries (cap {cap_entries})",
            entries=total_entries,
        )
    elements = list(field.elements())
    results = []
    for assignment in product(elements, repeat=total_entries):
        pos = 0
        maps = {"arrow": {}, "A": {}, "B": {}}
        for (kind, key), (rows, cols) in zip(slots, shapes):
            maps[kind][key] = [
                list(assignment[pos + r * cols: pos + (r + 1) * cols])
                for r in range(rows)
            ]
            pos += rows * cols
        rep = GradedQuiverRep(datum, field, empty.v, empty.w, maps["arrow"],
                              maps["A"], maps["B"], check=False)
        if validate_relations(rep):
            continue
        stable = tuple(stability_check(rep, theta) for theta in thetas)
        results.append(SearchPoint(rep=rep, stable=stable))
    return results
