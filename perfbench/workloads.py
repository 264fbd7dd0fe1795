"""The four workloads: which CLI calls a pass makes and how each is checked.

A workload is a list of groups of operations.  An operation is one call of
``qcharlab.cli.main``; a group keeps a search together with the reflections
of its stable point.  The seed shuffles the groups of a pass; the set of
operations never depends on it, so every pass attempts the same work.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

import checks
from reference import (
    QCHAR_ENTRIES,
    RootDatum,
    format_dims,
    pairwise_sums,
    parse_dims,
    reflect_dimensions,
)

# Largest total dimension |v| searched; keeps every search within seconds.
MAX_SEARCH_DIM = 6


@dataclass
class Op:
    """One CLI call.  ``args`` omit the output flag, which the pass adds.

    ``source`` names the op whose first stable point is this op's input
    point file; ``check`` maps the parsed artifact to a list of problems.
    """

    id: str
    args: list
    out_flag: str
    check: object
    source: str = None


def _qchar_op(label, node, extra=()):
    return Op(
        id=f"qchar {label}/{node}",
        args=["qchar", "--type", label, "--node", str(node), *extra],
        out_flag="--out",
        check=lambda obj: checks.check_qchar(obj, label, node),
    )


def _extremal_op(label, node):
    return Op(
        id=f"extremal-check {label}/{node}",
        args=["extremal-check", "--type", label, "--node", str(node)],
        out_flag="--report",
        check=lambda obj: checks.check_extremal(obj, label, node),
    )


def _theta_arg(theta):
    return "--theta=" + ",".join(str(t) for t in theta)


def _search_op(label, node, v_text, theta, quotient, tag):
    v = parse_dims(v_text)
    w = {(node, 0): 1}
    return Op(
        id=f"{tag} {label}/{node} v=[{v_text}] theta={','.join(map(str, theta))}",
        args=["quiver-search", "--type", label, "--v", v_text,
              "--w", f"1@({node},0)", _theta_arg(theta)],
        out_flag="--out",
        check=lambda obj: checks.check_search(obj, label, v, w, quotient),
    )


def _reflect_op(search, label, node, v_text, i, theta):
    v = parse_dims(v_text)
    w = {(node, 0): 1}
    return Op(
        id=f"reflect {label}/{node} v=[{v_text}] at {i}",
        args=["quiver-reflect", "--node", str(i), _theta_arg(theta)],
        out_flag="--out",
        check=lambda obj: checks.check_reflect(obj, label, i, v, w, theta),
        source=search.id,
    )


def qchar_closure():
    return [
        [_qchar_op("E8", 1, ("--cap-height", "92"))],
        [_qchar_op("C8", 3)],
        [_qchar_op("E7", 6)],
        [_qchar_op("D8", 4)],
        [_qchar_op("E6", 4)],
    ]


def cone_verify():
    return [[_extremal_op("F4", 1)], [_extremal_op("C4", 2)], [_extremal_op("D5", 1)]]


def quiver_same_sign():
    """theta = (-1,...,-1) searches; each entry's stable point reflected everywhere."""
    groups = []
    for (label, node), entries in QCHAR_ENTRIES.items():
        if label not in ("A1", "A2", "B2"):
            continue
        rank = RootDatum(label).rank
        theta = tuple(Fraction(-1) for _ in range(rank))
        for v_text in entries:
            search = _search_op(label, node, v_text, theta, 1, "search")
            groups.append([search] + [
                _reflect_op(search, label, node, v_text, i, theta)
                for i in range(1, rank + 1)
            ])
        for v_text in pairwise_sums(entries, MAX_SEARCH_DIM):
            groups.append([_search_op(label, node, v_text, theta, 0, "search")])
    return groups


def quiver_mixed():
    """Search S_i(v) at theta' = s_i(-1,...,-1) for every entry v and node i."""
    groups = []
    for (label, node), entries in QCHAR_ENTRIES.items():
        if label not in ("A2", "B2", "A3", "C2", "G2"):
            continue
        datum = RootDatum(label)
        minus = tuple(Fraction(-1) for _ in range(datum.rank))
        for v_text in entries:
            for i in range(1, datum.rank + 1):
                image = reflect_dimensions(label, i, parse_dims(v_text), {(node, 0): 1})
                if min(image.values(), default=0) < 0:
                    continue
                if sum(image.values()) > MAX_SEARCH_DIM:
                    continue
                theta = datum.reflect_weight(i, minus)
                groups.append([_search_op(label, node, format_dims(image), theta, 1,
                                          "mixed")])
    return groups


WORKLOADS = {
    "qchar-closure": qchar_closure,
    "cone-verify": cone_verify,
    "quiver-same-sign": quiver_same_sign,
    "quiver-mixed": quiver_mixed,
}

# Operations that fail on every pass because of a known fault in the program;
# they count as failed without making the run incorrect.
KNOWN_FAILURES = {
    # fm_qchar takes the max over directions: the classical character of
    # E6/4 is not W-invariant.
    "qchar E6/4",
    # quiver._apply_matrix adds with Python sum, not in F2: 10 stable
    # points where |GL_2(F2)| = 6 are expected.
    "mixed A3/2 v=[1@(1,2),2@(2,1),1@(3,2)] theta=-2,1,-2",
}


def ordered_ops(workload, seed):
    """The operations of one pass, groups shuffled by the seed."""
    groups = WORKLOADS[workload]()
    random.Random(seed).shuffle(groups)
    return [op for group in groups for op in group]
