"""Checkers for the program's outputs.

Each checker takes the parsed JSON artifact of one CLI call and returns a
list of problems; an empty list means the output passed.  The properties
come from the theory and from reference.py, never from a stored copy of an
earlier output.
"""

from reference import (
    QCHAR_ENTRIES,
    RootDatum,
    group_order_gv,
    kr_dimension,
    parabolic_order,
    parse_dims,
    reflect_dimensions,
    weyl_order,
)


def _dims(triples):
    return {(int(i), int(a)): int(n) for i, a, n in triples if int(n)}


def _header(obj, label, node, problems):
    if obj.get("type") != label:
        problems.append(f"type {obj.get('type')!r} is not {label}")
    if node is not None and obj.get("node") != node:
        problems.append(f"node {obj.get('node')!r} is not {node}")


def classical_character(datum, node, entries):
    """{weight: multiplicity} from (A-monomial dims, mu) pairs anchored at node."""
    char = {}
    for dims, mu in entries:
        weight = [int(j == node) for j in range(1, datum.rank + 1)]
        for (i, _), m in dims.items():
            alpha = datum.simple_root_weight(i)
            weight = [w - m * c for w, c in zip(weight, alpha)]
        key = tuple(weight)
        char[key] = char.get(key, 0) + mu
    return char


def invariance_problems(datum, char):
    """Weights whose multiplicity differs from that of a simple reflection."""
    problems = []
    for i in range(1, datum.rank + 1):
        bad = [
            weight for weight, mu in char.items()
            if char.get(datum.reflect_weight(i, weight), 0) != mu
        ]
        if bad:
            problems.append(
                f"classical character not s_{i}-invariant at {len(bad)} weights, "
                f"e.g. {bad[0]} (mult {char[bad[0]]})"
            )
    return problems


def check_qchar(obj, label, node):
    """q-character artifact: anchor, cone, W-invariance, KR dimension."""
    problems = []
    _header(obj, label, node, problems)
    datum = RootDatum(label)
    entries = [(_dims(item["v"]), int(item["mu"])) for item in obj.get("entries", [])]
    anchors = [mu for dims, mu in entries if not dims]
    if anchors != [1]:
        problems.append(f"anchor multiplicities {anchors}, want [1]")
    if any(mu < 1 for _, mu in entries):
        problems.append("an entry has multiplicity below 1")
    if any(m < 0 for dims, _ in entries for m in dims.values()):
        problems.append("an entry lies outside the cone")
    keys = [tuple(sorted(dims.items())) for dims, _ in entries]
    if len(set(keys)) != len(keys):
        problems.append("repeated monomial")
    problems += invariance_problems(datum, classical_character(datum, node, entries))
    expected = kr_dimension(label, node)
    total = sum(mu for _, mu in entries)
    if expected is not None and total != expected:
        problems.append(f"total multiplicity {total}, want KR dimension {expected}")
    return problems


def check_extremal(obj, label, node):
    """extremal-check report: no violations, |W|, checks, vertex count."""
    problems = []
    _header(obj, label, node, problems)
    order = weyl_order(label)
    if obj.get("violations"):
        problems.append(f"{len(obj['violations'])} cone violations")
    if obj.get("word_mismatches") != 0:
        problems.append(f"word mismatches {obj.get('word_mismatches')}")
    if any(obj.get("proven_subcases", {}).values()):
        problems.append(f"proven subcases violated: {obj['proven_subcases']}")
    if obj.get("group_order") != order:
        problems.append(f"group order {obj.get('group_order')}, want |W| = {order}")
    if obj.get("checks") != obj.get("monomials", 0) * order:
        problems.append(
            f"checks {obj.get('checks')} != monomials {obj.get('monomials')} x {order}"
        )
    vertices = [tuple(tuple(t) for t in vec) for vec in obj.get("vertices", [])]
    want = order // parabolic_order(label, node)
    if len(set(vertices)) != want:
        problems.append(f"{len(set(vertices))} distinct vertices, want |W/W_J| = {want}")
    if any(m < 0 for vec in vertices for (_, _, m) in vec):
        problems.append("a cone vertex lies outside the cone")
    return problems


def check_search(obj, label, v, w, quotient):
    """quiver-search: #stable / |G_v(F2)| is a whole number equal to ``quotient``."""
    problems = []
    _header(obj, label, None, problems)
    if _dims(obj.get("v", [])) != v or _dims(obj.get("w", [])) != w:
        problems.append("search dims differ from the request")
    count = sum(1 for p in obj.get("points", []) if p["stable"] and all(p["stable"]))
    group = group_order_gv(v)
    if count % group:
        problems.append(f"{count} stable points, not a multiple of |G_v| = {group}")
    elif count // group != quotient:
        problems.append(f"{count} stable points / |G_v| = {group} is "
                        f"{count // group}, want {quotient}")
    return problems


def check_reflect(obj, label, node, v, w, theta):
    """quiver-reflect: the image has dims S_i(v) and weight s_i(theta)."""
    problems = []
    datum = RootDatum(label)
    if obj.get("type") != label:
        problems.append(f"type {obj.get('type')!r} is not {label}")
    want_v = reflect_dimensions(label, node, v, w)
    if _dims(obj.get("v", [])) != want_v:
        problems.append(f"reflected dims {obj.get('v')}, want {sorted(want_v.items())}")
    if _dims(obj.get("w", [])) != w:
        problems.append("framing changed under reflection")
    want_theta = [str(t) for t in datum.reflect_weight(node, theta)]
    if obj.get("theta_bar") != want_theta:
        problems.append(f"theta_bar {obj.get('theta_bar')}, want {want_theta}")
    return problems


def check_reference_entries():
    """The q-character lists in reference.py: W-invariant, of the KR dimension."""
    problems = []
    for (label, node), texts in QCHAR_ENTRIES.items():
        datum = RootDatum(label)
        entries = [(parse_dims(t), 1) for t in texts]
        for problem in invariance_problems(
            datum, classical_character(datum, node, entries)
        ):
            problems.append(f"{label}/{node}: {problem}")
        if len(entries) != kr_dimension(label, node):
            problems.append(f"{label}/{node}: {len(entries)} entries, "
                            f"want {kr_dimension(label, node)}")
    return problems
