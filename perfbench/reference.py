"""Reference values the benchmark checks the program against.

Everything here is computed from Dynkin diagrams and textbook facts, with
no call into qcharlab, so a fault in the program cannot hide in its own
reference.  Node numbering follows qcharlab: Bourbaki for A, D, E and G2;
reversed for B_n, C_n and F4 (node 1 is the short end of B_n, the long end
of C_n, and F4 has short nodes 1, 2 and long nodes 3, 4).
"""

from fractions import Fraction
from itertools import combinations


def _chain(n):
    return [(i, i + 1) for i in range(1, n)]


def dynkin(label):
    """(edges, half squared lengths d_i) of a finite type; short roots d_i = 1."""
    family, rank = label[0], int(label[1:])
    if family == "A":
        return _chain(rank), [1] * rank
    if family == "B":
        return _chain(rank), [1] + [2] * (rank - 1)
    if family == "C":
        return _chain(rank), [2] + [1] * (rank - 1)
    if family == "D":
        return _chain(rank - 1) + [(rank - 2, rank)], [1] * rank
    if family == "E":
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        edges += [(k, k + 1) for k in range(6, rank)]
        return edges, [1] * rank
    if family == "F" and rank == 4:
        return _chain(4), [1, 1, 2, 2]
    if family == "G" and rank == 2:
        return [(1, 2)], [1, 3]
    raise ValueError(f"unknown type {label}")


class RootDatum:
    """Cartan matrix, symmetrized form and positive roots of one finite type.

    ``form[i][j]`` is (alpha_i, alpha_j) with (alpha_i, alpha_i) = 2 d_i;
    ``cartan[i][j]`` is <alpha_i^vee, alpha_j> = 2 form[i][j] / form[i][i].
    Weights are tuples over the fundamental-weight basis, roots tuples over
    the simple-root basis, both indexed from node 1 at position 0.
    """

    def __init__(self, label):
        edges, d = dynkin(label)
        self.rank = len(d)
        self.d = d
        bonded = {frozenset(e) for e in edges}
        n = self.rank
        self.form = [
            [
                2 * d[i] if i == j
                else -max(d[i], d[j]) if frozenset((i + 1, j + 1)) in bonded
                else 0
                for j in range(n)
            ]
            for i in range(n)
        ]
        self.cartan = [
            [2 * self.form[i][j] // self.form[i][i] for j in range(n)]
            for i in range(n)
        ]
        self.positive_roots = self._positive_roots()

    def _positive_roots(self):
        n = self.rank
        simple = [tuple(int(k == i) for k in range(n)) for i in range(n)]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            root = frontier.pop()
            for i in range(n):
                pairing = sum(root[j] * self.cartan[i][j] for j in range(n))
                image = tuple(root[k] - pairing * (k == i) for k in range(n))
                if image not in seen:
                    seen.add(image)
                    frontier.append(image)
        return [r for r in seen if all(c >= 0 for c in r)]

    def reflect_weight(self, i, weight):
        """s_i on fundamental-weight coordinates: lambda - lambda_i alpha_i."""
        li = weight[i - 1]
        return tuple(weight[j] - li * self.cartan[j][i - 1] for j in range(self.rank))

    def simple_root_weight(self, i):
        return tuple(self.cartan[j][i - 1] for j in range(self.rank))

    def pairing(self, weight, root):
        """(lambda, beta) for lambda over omegas and beta over simple roots."""
        return sum(root[i] * self.d[i] * weight[i] for i in range(self.rank))

    def weyl_dimension(self, weight):
        """Weyl's dimension formula for the irreducible of highest weight."""
        rho = (1,) * self.rank
        shifted = tuple(w + 1 for w in weight)
        value = Fraction(1)
        for root in self.positive_roots:
            value *= Fraction(self.pairing(shifted, root), self.pairing(rho, root))
        return int(value)


def _orbit_size(cartan, nodes):
    """|W| of the sub-diagram on ``nodes``: the orbit size of a regular weight."""
    index = {node: pos for pos, node in enumerate(nodes)}
    start = (1,) * len(nodes)
    seen = {start}
    frontier = [start]
    while frontier:
        weight = frontier.pop()
        for i in nodes:
            li = weight[index[i]]
            image = tuple(
                weight[index[j]] - li * cartan[j - 1][i - 1] for j in nodes
            )
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return len(seen)


def weyl_order(label):
    datum = RootDatum(label)
    return _orbit_size(datum.cartan, list(range(1, datum.rank + 1)))


def parabolic_order(label, node):
    """|W_J| for J = every node but ``node``: the diagram with that node removed."""
    datum = RootDatum(label)
    rest = [j for j in range(1, datum.rank + 1) if j != node]
    return _orbit_size(datum.cartan, rest) if rest else 1


# Classical decomposition of the fundamental (Kirillov-Reshetikhin) module
# W^{(k)}_1 as a list of (highest weight as {node: coefficient}, multiplicity).
# Sources: Chari, "On the fermionic formula and the Kirillov-Reshetikhin
# conjecture", IMRN 2001; Kleber, "Combinatorial structure of finite
# dimensional representations of Yangians", 1998.  For A_n, C_n, minuscule
# and short-node B2 cases the module stays irreducible.  The labels are in
# qcharlab numbering (C8 node 3 is Bourbaki C8 node 6, B2 node 1 is the
# short node).
KR_DECOMPOSITIONS = {
    ("E8", 1): [({1: 1}, 1), ({8: 1}, 1), ({}, 1)],
    ("E7", 6): [({6: 1}, 1), ({1: 1}, 1), ({}, 1)],
    ("D8", 4): [({4: 1}, 1), ({2: 1}, 1), ({}, 1)],
    ("D4", 2): [({2: 1}, 1), ({}, 1)],
    ("C8", 3): [({3: 1}, 1)],
    ("G2", 2): [({2: 1}, 1), ({}, 1)],
}


def kr_dimension(label, node):
    """dim W^{(node)}_1, or None where no decomposition is pinned here."""
    datum = RootDatum(label)
    parts = KR_DECOMPOSITIONS.get((label, node))
    if parts is None:
        if label[0] in "AC" or label in ("B2", "G2"):
            parts = [({node: 1}, 1)]
        else:
            return None
    total = 0
    for highest, mult in parts:
        weight = tuple(highest.get(j, 0) for j in range(1, datum.rank + 1))
        total += mult * datum.weyl_dimension(weight)
    return total


def gl_order(n, q=2):
    """|GL_n(F_q)|."""
    out = 1
    for k in range(n):
        out *= q ** n - q ** k
    return out


def group_order_gv(v, q=2):
    """|G_v(F_q)| = prod over graded slots of |GL(V_i^a)(F_q)|."""
    out = 1
    for n in v.values():
        out *= gl_order(n, q)
    return out


def reflect_dimensions(label, i, v, w):
    """Closed form of S_i on graded dimension vectors (Nakajima's reflection).

        vbar_i^a = w_i^{a+d_i} - v_i^{a+2d_i}
                   + sum_{j ~ i} sum_{t=1}^{-c_ij} v_j^{a + (alpha_i, alpha_j) + 2 t d_i}

    Entries away from node i are unchanged.  ``v`` and ``w`` map
    (node, parameter) to dimensions; zero entries are dropped.
    """
    datum = RootDatum(label)
    di = datum.d[i - 1]
    neighbours = [
        j for j in range(1, datum.rank + 1)
        if j != i and datum.cartan[i - 1][j - 1] != 0
    ]
    grades = {a - di for (node, a), n in w.items() if node == i and n}
    for (node, a), n in v.items():
        if node == i:
            grades.add(a - 2 * di)
        elif node in neighbours:
            bij = datum.form[i - 1][node - 1]
            for t in range(1, -datum.cartan[i - 1][node - 1] + 1):
                grades.add(a - bij - 2 * t * di)
    out = {key: n for key, n in v.items() if key[0] != i and n}
    for a in grades:
        value = w.get((i, a + di), 0) - v.get((i, a + 2 * di), 0)
        for j in neighbours:
            bij = datum.form[i - 1][j - 1]
            for t in range(1, -datum.cartan[i - 1][j - 1] + 1):
                value += v.get((j, a + bij + 2 * t * di), 0)
        if value:
            out[(i, a)] = value
    return out


# q-characters of the small fundamental modules the quiver workloads search,
# as anchored A-monomial vectors in the syntax of ``--v`` ("m@(i,a),...").
# Frenkel-Reshetikhin (A_n) and Frenkel-Mukhin (B2, C2, G2) in qcharlab's
# conventions: A_{i,a}^{-1} = Y_{i,a+d_i}^{-1} Y_{i,a-d_i}^{-1} prod Y_{j,.},
# anchor Y_{k,0}.  Every l-weight space has dimension 1.
# checks.check_reference_entries() tests each list against the W-invariance
# of its classical character and the Weyl dimension.
QCHAR_ENTRIES = {
    ("A1", 1): ["", "1@(1,1)"],
    ("A2", 1): ["", "1@(1,1)", "1@(1,1),1@(2,2)"],
    ("A2", 2): ["", "1@(2,1)", "1@(1,2),1@(2,1)"],
    ("B2", 1): ["", "1@(1,1)", "1@(1,1),1@(2,3)", "1@(1,1),1@(1,5),1@(2,3)"],
    ("B2", 2): ["", "1@(2,2)", "1@(1,4),1@(2,2)", "1@(1,2),1@(1,4),1@(2,2)",
                "1@(1,2),1@(1,4),1@(2,2),1@(2,4)"],
    ("A3", 1): ["", "1@(1,1)", "1@(1,1),1@(2,2)", "1@(1,1),1@(2,2),1@(3,3)"],
    ("A3", 2): ["", "1@(2,1)", "1@(1,2),1@(2,1)", "1@(2,1),1@(3,2)",
                "1@(1,2),1@(2,1),1@(3,2)", "1@(1,2),1@(2,1),1@(2,3),1@(3,2)"],
    ("A3", 3): ["", "1@(3,1)", "1@(2,2),1@(3,1)", "1@(1,3),1@(2,2),1@(3,1)"],
    ("C2", 1): ["", "1@(1,2)", "1@(1,2),1@(2,4)", "1@(1,2),1@(2,2),1@(2,4)",
                "1@(1,2),1@(1,4),1@(2,2),1@(2,4)"],
    ("C2", 2): ["", "1@(2,1)", "1@(1,3),1@(2,1)", "1@(1,3),1@(2,1),1@(2,5)"],
    ("G2", 1): ["", "1@(1,1)", "1@(1,1),1@(2,4)", "1@(1,1),1@(1,7),1@(2,4)",
                "1@(1,1),1@(1,5),1@(1,7),1@(2,4)",
                "1@(1,1),1@(1,5),1@(1,7),1@(2,4),1@(2,8)",
                "1@(1,1),1@(1,5),1@(1,7),1@(1,11),1@(2,4),1@(2,8)"],
    ("G2", 2): ["", "1@(2,3)", "1@(1,6),1@(2,3)", "1@(1,4),1@(1,6),1@(2,3)",
                "1@(1,2),1@(1,4),1@(1,6),1@(2,3)",
                "1@(1,4),1@(1,6),1@(2,3),1@(2,7)",
                "1@(1,2),1@(1,4),1@(1,6),1@(2,3),1@(2,5)",
                "1@(1,2),1@(1,4),1@(1,6),1@(2,3),1@(2,7)",
                "1@(1,4),1@(1,6),1@(1,10),1@(2,3),1@(2,7)",
                "1@(1,2),1@(1,4),1@(1,6),1@(1,10),1@(2,3),1@(2,7)",
                "1@(1,2),1@(1,4),1@(1,6),1@(2,3),1@(2,5),1@(2,7)",
                "1@(1,2),1@(1,4),1@(1,6),1@(1,10),1@(2,3),1@(2,5),1@(2,7)",
                "1@(1,2),1@(1,4),1@(1,6),1@(1,8),1@(1,10),1@(2,3),1@(2,5),1@(2,7)",
                "1@(1,2),1@(1,4),2@(1,6),1@(1,8),1@(1,10),1@(2,3),1@(2,5),1@(2,7)",
                "1@(1,2),1@(1,4),2@(1,6),1@(1,8),1@(1,10),1@(2,3),1@(2,5),"
                "1@(2,7),1@(2,9)"],
}


def parse_dims(text):
    """'m@(i,a),...' -> {(i, a): m}."""
    dims = {}
    for part in text.replace(" ", "").split("),"):
        if not part:
            continue
        mult, slot = part.split("@")
        i, a = slot.strip("()").split(",")
        key = (int(i), int(a))
        dims[key] = dims.get(key, 0) + int(mult)
    return dims


def format_dims(dims):
    return ",".join(f"{n}@({i},{a})" for (i, a), n in sorted(dims.items()) if n)


def pairwise_sums(entries, max_total):
    """Sums of two distinct entries that are not entries, with |v| <= max_total."""
    known = {format_dims(parse_dims(e)) for e in entries}
    out = []
    for x, y in combinations(entries, 2):
        total = parse_dims(x)
        for key, n in parse_dims(y).items():
            total[key] = total.get(key, 0) + n
        text = format_dims(total)
        if sum(total.values()) <= max_total and text not in known and text not in out:
            out.append(text)
    return out
