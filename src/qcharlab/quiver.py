"""Graded (co)framed quiver representations, stability, and the reflection map.

Grading conventions.  Spaces V_i^a and W_i^a sit on (node, integer) slots.
Loops descend: the loop at node i maps V_i^a -> V_i^{a - d_ii}.  Arrows
between adjacent nodes ascend: V_i^a -> V_j^{a - d_ij} with d_ij < 0.  The
framing A_i^a : W_i^a -> V_i^{a + d_i} and coframing B_i^a : V_i^{a - d_i}
-> W_i^a both ascend by d_i.  Arrows between non-adjacent distinct nodes are
omitted; no relation constrains them.

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
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

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
        for maps in self._maps_by_kind().values():
            for key in [key for key, mat in maps.items() if not (mat and mat[0])]:
                del maps[key]

    def _maps_by_kind(self):
        return {"arrow": self.arrows, "A": self.framing, "B": self.coframing}

    # -- dimensions ---------------------------------------------------

    def vdim(self, i, a):
        return self.v.get((i, a), 0)

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

    def _check_shapes(self):
        datum = self.datum
        for kind, maps in self._maps_by_kind().items():
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
        for kind, table in self._maps_by_kind().items():
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


def _map_from(datum, slot, to):
    """The (kind, key) of the map out of ``slot`` toward ("V"|"W", node)."""
    space, i, a = slot
    if space == "W":
        return "A", (i, a)
    if to[0] == "W":
        return "B", (i, a + datum.di(i))
    return "arrow", (i, a, to[1])


def _composite(rep, start, path):
    """The composite of the maps along ``path`` out of the slot ``start``.

    ``path`` lists the targets ("V"|"W", node) in order: V to V is an arrow,
    V to W a B map, W to V an A map.  Returns None when a map on the path is
    absent, since the composite is then zero; the empty path is the identity.
    """
    maps = rep._maps_by_kind()
    mat, slot = None, start
    for to in path:
        kind, key = _map_from(rep.datum, slot, to)
        step = maps[kind].get(key)
        if step is None:
            return None
        mat = step if mat is None else mat_mul_shaped(
            rep.field, step, mat, len(step), len(mat), len(mat[0]))
        slot = _map_ends(rep.datum, kind, key)[1]
    return identity(rep.field, rep.slot_dim(start)) if mat is None else mat


def _dense(rep, start, path, rows):
    """The composite along ``path`` as a matrix, zero where a map is absent."""
    mat = _composite(rep, start, path)
    return zeros(rep.field, rows, rep.slot_dim(start)) if mat is None else mat


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


def _relation_table(rep, framed=True):
    """Every relation on ``rep`` as a row (name, i, j, a, start, paths).

    The composites along ``paths`` out of the slot ``start`` must add up to
    zero.  Rows come in the order E1bis, E2, then E4 and E5 per W slot.  With
    ``framed=False`` the loop relation drops its AB term and is named E1, and
    E4/E5 are left out.
    """
    datum = rep.datum
    table = []
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
    return table


def _violations(rep, table):
    fld = rep.field
    out = []
    for name, i, j, a, start, paths in table:
        total = None
        for path in paths:
            term = _composite(rep, start, path)
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
    if rep.coframing:
        raise ValueError("validate_n expects a point with all B maps zero")
    dk = rep.datum.di(node)
    dim = rep.vdim(node, dk)
    if len(xi) != dim:
        raise ShapeMismatch(f"xi must live in V_{node}^{dk} (dim {dim})")
    out = _violations(rep, _relation_table(rep, framed=False))
    loop = _composite(rep, ("V", node, dk), [("V", node)])
    if loop is not None and not is_zero_matrix(rep.field,
                                               _images(rep.field, loop, [xi])):
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


def _contains(fld, sub, gen):
    """True iff the submodule ``gen`` lies in ``sub``, slot by slot."""
    for key, rows in gen.items():
        basis = sub.get(key, ())
        if len(rows) > len(basis):
            return False
        if not all(_in_span(fld, basis, row) for row in rows):
            return False
    return True


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
    """Yield ``base``, then each new join of it with a subset of ``generators``.

    A generator already inside the current submodule is not joined: the join
    would be the current submodule itself, so the members reached are the
    same.  Raises CapExceeded before yielding a member beyond ``cap``.
    """
    fld = rep.field
    seen = {_sub_key(base)}
    queue = [base]
    yield base
    while queue:
        current = queue.pop()
        for gen in generators:
            if _contains(fld, current, gen):
                continue
            joined = _join(fld, current, gen)
            key = _sub_key(joined)
            if key not in seen:
                if len(seen) >= cap:
                    raise CapExceeded(
                        f"submodule lattice exceeds cap {cap}", cap=cap
                    )
                seen.add(key)
                queue.append(joined)
                yield joined


def _framing_image_seeds(rep):
    seeds = {}
    for key, mat in rep.framing.items():
        _, target = _map_ends(rep.datum, "A", key)
        cols = len(mat[0]) if mat else 0
        for c in range(cols):
            seeds.setdefault(target[1:], []).append([mat[r][c] for r in range(len(mat))])
    return seeds


@lru_cache(maxsize=1024)
def _generic(datum, theta):
    """``is_generic`` once per (datum, theta); ``theta`` is a tuple."""
    return is_generic(datum, theta)


@lru_cache(maxsize=1024)
def _weights(datum, theta):
    """Integer weights d_i theta_i L of the tuple ``theta``.

    L > 0 is the lcm of theta's denominators, so every pairing keeps its sign.
    """
    scale = lcm(*(Fraction(t).denominator for t in theta))
    return tuple(int(datum.di(i) * Fraction(theta[i - 1]) * scale)
                 for i in datum.nodes)


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
      lattice and alone can raise the ``lattice_cap`` CapExceeded.  It stops
      at the first submodule that breaks the slope condition, so an unstable
      point whose witness comes before ``lattice_cap`` members is False, not
      CapExceeded.
    """
    if not rep.field.is_finite:
        raise FieldNotFinite("stability enumeration needs a finite field")
    if rep.total_dim() > STABILITY_DIM_CAP:
        raise CapExceeded(
            f"total dimension {rep.total_dim()} exceeds stability cap "
            f"{STABILITY_DIM_CAP}",
            cap=STABILITY_DIM_CAP,
        )
    if not _generic(rep.datum, tuple(theta)):
        raise NonGenericTheta(f"{theta} lies on a root hyperplane")
    if all(t < 0 for t in theta):
        return is_framed_stable(rep)
    if all(t > 0 for t in theta):
        return not any(
            _contained_in_ker_b(rep, sub) for sub in _cyclic_closures(rep)
        )
    return _stability_by_lattice(rep, theta, lattice_cap)


def _stability_by_lattice(rep, theta, lattice_cap):
    """The slope condition on the two lattices, up to the first witness."""
    weights = _weights(rep.datum, tuple(theta))

    def pairing(sub):
        return sum(weights[i - 1] * len(rows) for (i, _), rows in sub.items())

    cyclics = _cyclic_submodules(rep)
    ker_b_gens = [c for c in cyclics if _contained_in_ker_b(rep, c)]
    for sub in _lattice(rep, {}, ker_b_gens, lattice_cap):
        if pairing(sub) > 0:
            return False

    # a complement's pairing is V's minus the submodule's
    whole = sum(weights[i - 1] * n for (i, _), n in rep.v.items())
    base = _closure(rep, _framing_image_seeds(rep))
    for sub in _lattice(rep, base, cyclics, lattice_cap):
        if whole - pairing(sub) < 0:
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


def _block_paths(datum, i, a):
    """Per block of :func:`phi_blocks` at (i, a): (block, phi, psi, upsilon).

    ``phi`` is the path of Phi's block, out of the block's slot into
    V_i^{a+d_ii}; ``psi`` the path of Psi's block, out of V_i^a into the
    block's slot.  ``upsilon`` is None for the W block, which Upsilon kills;
    otherwise (path, t, negate): Upsilon sends the block's slot along the
    path, negated or not, to the block of the same neighbor with step t in
    the layout at (i, a - d_ii).
    """
    at = ("V", i)
    table = []
    for block in phi_blocks(datum, i, a):
        space, j, _, t = block
        if space == "W":
            table.append((block, [at], [("W", i)], None))
            continue
        c = -datum.c(i, j)
        if t < c:  # the same slot, one step later in the lower layout
            upsilon = ([], t + 1, False)
        else:  # the top slot, through minus the full loop composite at j
            upsilon = ([("V", j)] * -datum.c(j, i), 1, True)
        table.append((block, [at] * t, [at] * (c - t) + [("V", j)], upsilon))
    return table


def phi_map(rep, i, a):
    """The assembled map out of the framing slot and neighbor slots into V_i^{a+d_ii}.

    Blocks, in the canonical order of :func:`phi_blocks`: the framing map
    A_i^{a+d_i}, then for each neighbor slot the arrow into node i followed by
    t-1 descending loops.
    """
    rows = rep.vdim(i, a + 2 * rep.datum.di(i))
    return hstack([_dense(rep, block[:3], phi, rows)
                   for block, phi, _, _ in _block_paths(rep.datum, i, a)], rows)


def psi_map(rep, i, a):
    """The companion map V_i^a into the Phi domain; Phi o Psi must vanish.

    Blocks: the coframing B_i^{a+d_i}, then for each neighbor slot the
    composite of -c_ij - t descending loops followed by the arrow out to j.
    Raises RelationViolated when the composite with Phi is nonzero.
    """
    fld = rep.field
    table = _block_paths(rep.datum, i, a)
    dims = _block_dims(rep, [block for block, _, _, _ in table])
    psi = vstack([_dense(rep, ("V", i, a), path, dim)
                  for (_, _, path, _), dim in zip(table, dims)])
    composite = mat_mul_shaped(fld, phi_map(rep, i, a), psi,
                               rep.vdim(i, a + 2 * rep.datum.di(i)), sum(dims),
                               rep.vdim(i, a))
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
            for r, row in enumerate(_composite(rep, block[:3], path) or ()):
                for c, x in enumerate(row):
                    out[row0 + r][col + c] = fld.neg(x) if negate else x
        col += dim
    return out


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
    if not _generic(datum, tuple(theta)):
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

    kernels = {}  # grade -> (kernel basis, its width, Phi block dims)
    for a in sorted(candidates):
        dims = _block_dims(rep, phi_blocks(datum, i, a))
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
        kernels[a] = (basis, len(basis[0]) if basis else 0, dims)

    new_v = {key: n for key, n in rep.v.items() if key[0] != i}
    new_v.update({(i, a): width for a, (_, width, _) in kernels.items() if width})

    new_arrows = {
        key: mat for key, mat in rep.arrows.items()
        if key[0] != i and key[2] != i
    }
    new_framing = {key: mat for key, mat in rep.framing.items() if key[0] != i}
    new_coframing = {key: mat for key, mat in rep.coframing.items() if key[0] != i}
    new_maps = {"arrow": new_arrows, "A": new_framing, "B": new_coframing}

    psis = {}

    def psi_at(a):
        if a not in psis:
            psis[a] = psi_map(rep, i, a)
        return psis[a]

    for a, (basis, width, dims) in kernels.items():
        if not width:
            continue

        # outgoing arrows and the new coframing: the maps out of V_i^a are
        # the one-map blocks of Psi at a, and each new one projects the kernel
        offset = 0
        for (_, _, path, _), dim in zip(_block_paths(datum, i, a), dims):
            if len(path) == 1 and dim:
                kind, key = _map_from(datum, ("V", i, a), path[0])
                new_maps[kind][key] = [list(row) for row in basis[offset:offset + dim]]
            offset += dim

        # the new loop, induced by the comparison map
        ups = upsilon_map(rep, i, a)
        dom = sum(dims)
        lower_dom = sum(_block_dims(rep, phi_blocks(datum, i, a - dii)))
        image = mat_mul_shaped(fld, ups, basis, lower_dom, dom, width)
        lower, lower_width, _ = kernels.get(a - dii, ([], 0, None))
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

        # incoming arrows and the new framing: the maps into V_i^a are the
        # one-map blocks of Phi at a - d_ii, and each factors through Psi
        for block, path, _, _ in _block_paths(datum, i, a - dii):
            source = block[:3]
            if len(path) != 1 or not rep.slot_dim(source):
                continue
            kind, key = _map_from(datum, source, path[0])
            mapped = mat_mul_shaped(
                fld, psi_at(a), _dense(rep, source, path, rep.vdim(i, a)),
                dom, rep.vdim(i, a), rep.slot_dim(source),
            )
            coords = solve_exact(fld, basis, mapped)
            if coords is None:
                what = "framing image" if kind == "A" else "incoming arrow"
                raise RelationViolated(
                    f"{what} misses the kernel at node {i}, grade {a}"
                )
            new_maps[kind][key] = coords

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
    # every point shares datum, v and w, and the table reads nothing else
    table = _relation_table(empty)
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
        if _violations(rep, table):
            continue
        stable = tuple(stability_check(rep, theta) for theta in thetas)
        results.append(SearchPoint(rep=rep, stable=stable))
    return results
