"""Command-line front end: q-character runs, cone verification, braid orbits,
and quiver point checking / reflection / search.

Exit codes: 0 success, 1 usage error, 2 a resource cap or an I/O error,
3 mathematical violation (a falsified check, never an infrastructure
failure).  Human-readable tables go to stdout; machine JSON goes to files,
never mixed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .cartan import (
    DEFAULT_WEYL_CAP,
    build_cartan,
    is_generic,
    weyl_elements,
)
from .conventions import CONVENTIONS_VERSION
from .errors import (
    CapExceeded,
    FieldNotFinite,
    QCharLabError,
    ShapeMismatch,
    UnsupportedType,
)
from .extremal import cone_vertices, coset_weight, verify_theorem_main, word_vertex
from .lweights import expand_to_y
from .qchar import DEFAULT_MAX_MONOMIALS, fm_qchar
from .quiver import (
    DEFAULT_SEARCH_ENTRY_CAP,
    GradedQuiverRep,
    exhaustive_search,
    reflect,
    validate_relations,
)
from .linalg import field_by_name

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VIOLATION = 3


class _UsageError(Exception):
    pass


def _terminal_columns():
    """The width ``shutil.get_terminal_size`` reports: COLUMNS, then the
    terminal of ``sys.__stdout__``, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        return os.get_terminal_size(sys.__stdout__.fileno()).columns or 80
    except (AttributeError, ValueError, OSError):
        return 80


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter, reading the default width without an import:
    the stock one imports ``shutil`` (and with it bz2, lzma and fnmatch) when
    the first parser is built, for help text most runs never print."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        if width is None:
            width = _terminal_columns() - 2
        super().__init__(prog, indent_increment, max_help_position, width)


class _Parser(argparse.ArgumentParser):
    # subparsers are built as this class, so they share the formatter
    def __init__(self, *args, formatter_class=_Formatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_artifact(path, obj):
    payload = dict(obj)
    payload["conventions"] = CONVENTIONS_VERSION
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_canonical_json(payload))


# a value no artifact holds: it marks a place left open in a text template
_OPEN = "\0"
_OPEN_TEXT = json.dumps(_OPEN)
_VERDICTS = ("false", "true")


def _write_search_artifact(path, obj, points):
    """:func:`_write_artifact` of ``obj`` with ``points``, the search's
    points, as its "points" list, written one point at a time.

    Every point of one search has the same type, field, dims and map ends,
    so each entry {"point", "stable"} has one text but for its matrix
    entries and verdicts.  That text is taken once from the first point's
    ``to_json_obj``, with each entry and verdict left open, and each point
    fills it in: its maps in ``json_order``, row by row, then its verdicts.
    """
    payload = dict(obj, points=[_OPEN], conventions=CONVENTIONS_VERSION)
    head, tail = _canonical_json(payload).split(_OPEN_TEXT)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head)
        if points:
            rep = points[0].rep
            entry = {"point": rep.to_json_obj(), "stable": [_OPEN] * len(points[0].stable)}
            for item in entry["point"]["maps"]:
                item["matrix"] = [[_OPEN] * len(row) for row in item["matrix"]]
            template = "{}".join(
                part.replace("{", "{{").replace("}", "}}")
                for part in _canonical_json(entry)[:-1].split(_OPEN_TEXT))
            order = rep.json_order()
            texts = {x: json.dumps(rep.field.to_json(x)) for x in rep.field.elements()}
            for k, point in enumerate(points):
                maps = point.rep.maps
                values = [texts[x] for ends in order for row in maps[ends] for x in row]
                values += [_VERDICTS[stable] for stable in point.stable]
                handle.write(("," if k else "") + template.format(*values))
        handle.write(tail)


# ---------------------------------------------------------------------------
# small parsers


def _positive_int(text):
    """The type of every cap flag, so a bad flag or config value is exit 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _parse_word(text):
    """Comma-separated nodes; blank text is the identity, an empty part an error."""
    if not text.strip():
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(f"cannot parse word {text!r}") from None


def _parse_theta(text, datum):
    """A generic theta over the nodes of ``datum``; one value stands for all."""
    # Fraction("1e999999999") computes 10**e before any check can refuse it
    if "e" in text.lower():
        raise _UsageError(f"cannot parse theta {text!r}")
    try:
        parts = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"cannot parse theta {text!r}") from None
    if len(parts) == 1:
        parts = parts * datum.rank
    if len(parts) != datum.rank:
        counts = "1 entry" if datum.rank == 1 else f"1 or {datum.rank} entries"
        raise _UsageError(f"theta needs {counts}, got {len(parts)}")
    if not is_generic(datum, parts):
        raise _UsageError(f"theta {text!r} lies on a root hyperplane")
    return tuple(parts)


_DIMS_RE = re.compile(r"^\s*(\d+)\s*@\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$")


def parse_dims(text):
    """{(i, a): n} of 'n@(i,a),...'; blank text is no entries, an empty part an error."""
    dims = {}
    if not text.strip():
        return dims
    # the commas between entries: those no ")" follows before a "("
    for chunk in re.split(r",(?![^()]*\))", text):
        chunk = chunk.strip()
        if not chunk:
            raise _UsageError(f"empty dimension entry in {text!r}")
        match = _DIMS_RE.match(chunk)
        try:  # no match, or a number past int()'s digit limit
            n, i, a = map(int, match.groups())
        except (AttributeError, ValueError):
            raise _UsageError(f"cannot parse dimension entry {chunk!r}")
        if (i, a) in dims:
            raise _UsageError(f"dimension entry {chunk!r} repeats the slot {(i, a)}")
        dims[(i, a)] = n
    return dims


def _check_nodes(datum, nodes):
    for i in nodes:
        if i not in datum.nodes:
            raise _UsageError(f"{i} is not a node of {datum.label}")


# settings a --config file may give; each goes in as its subcommand's flag
_CONFIG_KEYS = ("type", "node", "cap_monomials", "cap_height", "cap_w")


def _load_config_file(path, command):
    """The settings of a --config file; each must be one that ``command`` takes."""
    takes = {action.dest for action in command._actions}
    known = [key for key in _CONFIG_KEYS if key in takes]
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError:
        raise _UsageError(f"config file {path} is not UTF-8 text") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        name = key.strip().replace("-", "_")
        if name not in known:
            raise _UsageError(
                f"unknown config key {key.strip()!r} in {path} "
                f"(known to {command.prog}: {', '.join(known)})"
            )
        values[name] = value.strip()
    return values


# ---------------------------------------------------------------------------
# subcommands


def _load_qchar(args):
    datum = build_cartan(args.type)
    _check_nodes(datum, [args.node])
    return fm_qchar(datum, args.node, args.cap_monomials, args.cap_height)


def _cmd_qchar(args):
    qchar = _load_qchar(args)
    if args.out:
        # the payload carries its conventions tag, as _write_artifact's do;
        # it is written a height at a time, so the whole text is never held
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(qchar._json_chunks())
            handle.write("\n")
    print(f"q-character  {qchar.datum.label}  node {args.node}")
    print(f"  monomials : {qchar.monomial_count()}")
    print(f"  max height: {qchar.max_height()}")
    print(f"  total mu  : {qchar.total_multiplicity()}")
    return EXIT_OK


def _cmd_extremal(args):
    qchar = _load_qchar(args)
    datum = qchar.datum
    summary = verify_theorem_main(qchar, weyl_cap=args.cap_w)
    # timings go to stderr only, so the report stays byte-identical
    print(f"verify time: {summary.elapsed:.3f} s", file=sys.stderr)
    distinct = set(cone_vertices(datum, args.node).values())
    if args.report:
        obj = summary.to_json_obj()
        obj["vertices"] = sorted(
            [[i, a, m] for (i, a), m in vec.items()] for vec in distinct
        )
        _write_artifact(args.report, obj)
    print(f"extremal check  {datum.label}  node {args.node}")
    print(f"  monomials      : {summary.monomial_count}")
    print(f"  group order    : {summary.group_order}")
    print(f"  checks         : {summary.checks}")
    print(f"  violations     : {len(summary.violations)}")
    print(f"  word mismatches: {summary.word_mismatches}")
    print(f"  distinct vertices: {len(distinct)}")
    if not summary.ok:
        for violation in summary.violations[:10]:
            print(
                f"  VIOLATION word={list(violation.word)} "
                f"vector={violation.vector!r} at {violation.positions}"
            )
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_braid_orbit(args):
    datum = build_cartan(args.type)
    _check_nodes(datum, [args.node])
    if args.word is not None:
        word = _parse_word(args.word)
        _check_nodes(datum, word)
        orbit = [(word, word_vertex(datum, args.node, word))]
    else:
        # the cap is checked before any vertex is built
        elements = weyl_elements(datum, args.cap_w)
        vertices = cone_vertices(datum, args.node)
        orbit = [(element.word, vertices[coset_weight(datum, args.node, element.word)])
                 for element in elements]
    rows = [(word, expand_to_y(datum, vec), vec) for word, vec in orbit]
    print(f"braid orbit of Y[{args.node},0] in {datum.label}")
    for word, image, vec in rows:
        label = ",".join(map(str, word)) or "e"
        print(f"  w = {label:<16} S_w^-1(psi) = {image!r:<32} v = {vec!r}")
    if args.out:
        _write_artifact(args.out, {
            "type": datum.label,
            "node": args.node,
            "orbit": [
                {
                    "word": list(word),
                    "monomial": image.to_pairs(),
                    "v": [[i, a, m] for (i, a), m in vec.items()],
                }
                for word, image, vec in rows
            ],
        })
    return EXIT_OK


def _load_point(path):
    """Read a point file; any malformed content is a usage error."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return GradedQuiverRep.from_json_obj(json.load(handle))
        # wrong JSON types surface as the built-in errors of the conversions
        except (ValueError, KeyError, IndexError, TypeError, AttributeError,
                ArithmeticError, RecursionError) as exc:
            raise _UsageError(f"cannot read point file {path}: {exc!r}")


def _cmd_quiver_check(args):
    rep = _load_point(args.point)
    violations = validate_relations(rep)
    print(f"quiver point over {rep.field.name} in {rep.datum.label}")
    print(f"  total dim v: {rep.total_dim()}")
    print(f"  violations : {len(violations)}")
    for violation in violations[:10]:
        print(f"  FAIL {violation}")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_quiver_reflect(args):
    rep = _load_point(args.point)
    _check_nodes(rep.datum, [args.node])
    theta = _parse_theta(args.theta, rep.datum)
    if theta[args.node - 1] >= 0:
        raise _UsageError(f"reflection at node {args.node} needs theta_{args.node} < 0")
    reflected, theta_bar = reflect(rep, args.node, theta)
    if args.out:
        obj = reflected.to_json_obj()
        obj["theta_bar"] = [str(t) for t in theta_bar]
        _write_artifact(args.out, obj)
    print(f"reflected at node {args.node}")
    print(f"  new dims v: {sorted(reflected.v.items())}")
    print(f"  theta_bar : {tuple(str(t) for t in theta_bar)}")
    return EXIT_OK


def _cmd_quiver_search(args):
    datum = build_cartan(args.type)
    field = field_by_name(args.field)
    v = parse_dims(args.v)
    w = parse_dims(args.w)
    thetas = []
    if args.theta:
        thetas.append(_parse_theta(args.theta, datum))
    results = exhaustive_search(datum, v, w, field, thetas=tuple(thetas),
                                cap_entries=args.cap_entries)
    stable_count = sum(1 for point in results if all(point.stable))
    print(f"search {datum.label} over {field.name}: v={sorted(v.items())} "
          f"w={sorted(w.items())}")
    print(f"  points satisfying relations: {len(results)}")
    if thetas:
        print(f"  theta-stable points        : {stable_count}")
    if args.out:
        _write_search_artifact(args.out, {
            "type": datum.label,
            "field": field.name,
            "v": [[i, a, n] for (i, a), n in sorted(v.items())],
            "w": [[i, a, n] for (i, a), n in sorted(w.items())],
        }, results)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _build_parser():
    """The parser, and its subcommand parsers by name.

    Built on the first ``main`` call and shared by every later one, so
    nothing may change it after it is built: config-file values are applied
    to each call's arguments instead.
    """
    parser = _Parser(prog="qcharlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, closure=True):
        # --type/--node may come from --config instead; checked after parsing
        p.add_argument("--type", help="Cartan type label, e.g. B2")
        p.add_argument("--node", type=int)
        p.add_argument("--config", help="key=value config file; flags win")
        if not closure:
            return
        # the settings of the q-character closure
        p.add_argument("--cap-monomials", type=_positive_int,
                       default=DEFAULT_MAX_MONOMIALS)
        # None: the exact height of the lowest weight
        p.add_argument("--cap-height", type=_positive_int)

    p = sub.add_parser("qchar", help="compute a fundamental q-character")
    common(p)
    p.add_argument("--out", help="write the q-character JSON here")
    p.set_defaults(func=_cmd_qchar)

    p = sub.add_parser("extremal-check", help="verify the cone bound for all w")
    common(p)
    p.add_argument("--cap-w", type=_positive_int, default=DEFAULT_WEYL_CAP)
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("braid-orbit", help="inverse braid images of the anchor")
    common(p, closure=False)
    p.add_argument("--cap-w", type=_positive_int, default=DEFAULT_WEYL_CAP)
    p.add_argument("--word", help="comma-separated node list; default: all of W")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_braid_orbit)

    p = sub.add_parser("quiver-check", help="validate a quiver point file")
    p.add_argument("point")
    p.set_defaults(func=_cmd_quiver_check)

    p = sub.add_parser("quiver-reflect", help="reflect a quiver point at a node")
    p.add_argument("point")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--theta", required=True,
                   help="comma-separated weights, or one value for all nodes; "
                        "use --theta=-1,-2 for negative lists")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_quiver_reflect)

    p = sub.add_parser("quiver-search", help="enumerate relation-satisfying points")
    p.add_argument("--type", required=True)
    p.add_argument("--v", required=True, help='dims like "1@(1,1),1@(2,2)"')
    p.add_argument("--w", required=True)
    p.add_argument("--field", default="F2")
    p.add_argument("--theta")
    p.add_argument("--cap-entries", type=_positive_int,
                   default=DEFAULT_SEARCH_ENTRY_CAP)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_quiver_search)

    return parser, sub.choices


def main(argv=None):
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's values go in as flags ahead of the command line's
            # own, so a flag still wins (the last one given does) and
            # argparse converts each with its flag's type
            values = _load_config_file(args.config, commands[args.command])
            argv = list(sys.argv[1:] if argv is None else argv)
            at = argv.index(args.command) + 1
            argv[at:at] = [f"--{name.replace('_', '-')}={value}"
                           for name, value in values.items()]
            args = parser.parse_args(argv)
        for name in ("type", "node"):
            if getattr(args, name, "") is None:
                raise _UsageError(f"--{name} is required (flag or config file)")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsupportedType, FieldNotFinite, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceeded, OSError) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        if isinstance(exc, CapExceeded) and exc.diagnostics:
            print("  " + " ".join(f"{key}={value}" for key, value
                                  in sorted(exc.diagnostics.items())),
                  file=sys.stderr)
        return EXIT_RESOURCE
    except QCharLabError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
