"""Command-line front end: q-character runs, cone verification, braid orbits,
and quiver point checking / reflection / search.

Exit codes: 0 success, 1 usage error, 2 resource or cache problem,
3 mathematical violation (a falsified check, never an infrastructure
failure).  Human-readable tables go to stdout; machine JSON goes to files,
never mixed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .braid import apply_s_word_inverse
from .cartan import (
    DEFAULT_WEYL_CAP,
    build_cartan,
    lowest_weight_height,
    weyl_elements,
)
from .conventions import CONVENTIONS_VERSION
from .errors import (
    CacheIntegrityError,
    CapExceeded,
    FieldNotFinite,
    QCharLabError,
    ShapeMismatch,
    UnsupportedType,
)
from .extremal import cone_vertices, coset_weight, verify_theorem_main
from .lweights import LaurentMonomial, expand_to_y, factor_to_a
from .qchar import CLOSURE_REVISION, DEFAULT_MAX_MONOMIALS, QChar, fm_qchar
from .quiver import (
    GradedQuiverRep,
    exhaustive_search,
    reflect,
    validate_relations,
)
from .linalg import field_by_name

CACHE_DIR_ENV = "QCHARLAB_CACHE_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2
EXIT_VIOLATION = 3


class _UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """One resolved run: type label, node, caps, output and cache locations.

    Every artifact written under a config carries the conventions tag.
    """

    label: str
    node: int
    cap_monomials: int
    cap_height: int  # None: the exact height of the lowest weight
    cap_weyl: int
    out: str = None
    cache_dir: str = None
    conventions: str = CONVENTIONS_VERSION

    @classmethod
    def from_args(cls, args):
        config = cls(
            label=args.type,
            node=args.node,
            cap_monomials=args.cap_monomials,
            cap_height=args.cap_height,
            cap_weyl=args.cap_w,
            out=getattr(args, "out", None) or getattr(args, "report", None),
            cache_dir=args.cache_dir,
        )
        for name in ("cap_monomials", "cap_height", "cap_weyl"):
            value = getattr(config, name)
            if value is not None and value <= 0:
                raise _UsageError(f"{name.replace('_', '-')} must be positive")
        return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_artifact(path, obj):
    payload = dict(obj)
    payload["conventions"] = CONVENTIONS_VERSION
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_canonical_json(payload))


# ---------------------------------------------------------------------------
# q-character cache


def _qchar_cache_key(label, node, cap_monomials, cap_height):
    blob = (f"{CONVENTIONS_VERSION}|{CLOSURE_REVISION}|{label}|{node}|"
            f"{cap_monomials}|{cap_height}")
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _checksum(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def load_or_compute_qchar(datum, node, cache_dir, cap_monomials, cap_height):
    """fm_qchar behind a content-checked disk cache; hits never change results."""
    if cap_height is None:  # the exact bound, resolved so the key names it
        cap_height = lowest_weight_height(datum, node)
    if not cache_dir:
        return fm_qchar(datum, node, cap_monomials, cap_height)
    key = _qchar_cache_key(datum.label, node, cap_monomials, cap_height)
    path = os.path.join(cache_dir, f"qchar-{key}.json")
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
            payload = stored["payload"]
            if stored.get("conventions") != CONVENTIONS_VERSION:
                raise CacheIntegrityError(f"{path}: conventions tag mismatch")
            if stored.get("checksum") != _checksum(payload):
                raise CacheIntegrityError(f"{path}: checksum mismatch")
            return QChar.from_json_obj(datum, payload)
        except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
            raise CacheIntegrityError(f"{path}: unreadable cache file ({exc})")
    qchar = fm_qchar(datum, node, cap_monomials, cap_height)
    payload = qchar.to_json_obj()
    os.makedirs(cache_dir, exist_ok=True)
    # write a temp file beside the target and rename it into place, so a
    # crash mid-write never leaves a partial file at the cache path
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(_canonical_json({
                "conventions": CONVENTIONS_VERSION,
                "checksum": _checksum(payload),
                "payload": payload,
            }))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return qchar


# ---------------------------------------------------------------------------
# small parsers


def _parse_word(text):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise _UsageError(f"cannot parse word {text!r}") from None


def _parse_theta(text, rank):
    try:
        parts = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"cannot parse theta {text!r}") from None
    if len(parts) == 1:
        parts = parts * rank
    if len(parts) != rank:
        raise _UsageError(f"theta needs 1 or {rank} entries, got {len(parts)}")
    return tuple(parts)


_DIMS_RE = re.compile(r"^\s*(\d+)\s*@\s*\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*$")


def _split_dims_text(text):
    """Split 'n@(i,a),m@(j,b)' on the commas between entries only."""
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
    if current:
        parts.append("".join(current))
    return parts


def parse_dims(text):
    dims = {}
    for chunk in _split_dims_text(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        match = _DIMS_RE.match(chunk)
        if not match:
            raise _UsageError(f"cannot parse dimension entry {chunk!r}")
        n, i, a = (int(match.group(k)) for k in (1, 2, 3))
        dims[(i, a)] = dims.get((i, a), 0) + n
    return dims


def _check_nodes(datum, nodes):
    for i in nodes:
        if i not in datum.nodes:
            raise _UsageError(f"{i} is not a node of {datum.label}")


# settings a --config file may give; explicit flags win over the file
_CONFIG_KEYS = ("type", "node", "cache_dir", "cap_monomials", "cap_height", "cap_w")


def _load_config_file(path):
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            name = key.strip().replace("-", "_")
            if name not in _CONFIG_KEYS:
                raise _UsageError(
                    f"unknown config key {key.strip()!r} in {path} "
                    f"(known: {', '.join(_CONFIG_KEYS)})"
                )
            values[name] = value.strip()
    return values


# ---------------------------------------------------------------------------
# subcommands


def _cmd_qchar(args):
    config = RunConfig.from_args(args)
    datum = build_cartan(config.label)
    _check_nodes(datum, [config.node])
    qchar = load_or_compute_qchar(
        datum, config.node, config.cache_dir, config.cap_monomials,
        config.cap_height,
    )
    if config.out:
        _write_artifact(config.out, qchar.to_json_obj())
    print(f"q-character  {datum.label}  node {config.node}")
    print(f"  monomials : {qchar.monomial_count()}")
    print(f"  max height: {qchar.max_height()}")
    print(f"  total mu  : {qchar.total_multiplicity()}")
    return EXIT_OK


def _cmd_extremal(args):
    config = RunConfig.from_args(args)
    datum = build_cartan(config.label)
    _check_nodes(datum, [config.node])
    qchar = load_or_compute_qchar(
        datum, config.node, config.cache_dir, config.cap_monomials,
        config.cap_height,
    )
    summary = verify_theorem_main(qchar, weyl_cap=config.cap_weyl)
    # timings go to stderr only, so the report stays byte-identical
    print(f"verify time: {summary.elapsed:.3f} s", file=sys.stderr)
    distinct = set(cone_vertices(datum, config.node).values())
    if config.out:
        obj = summary.to_json_obj()
        obj["vertices"] = sorted(
            [[i, a, m] for (i, a), m in vec.items()] for vec in distinct
        )
        _write_artifact(config.out, obj)
    print(f"extremal check  {datum.label}  node {config.node}")
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
        image = apply_s_word_inverse(datum, word, LaurentMonomial.y(args.node, 0))
        rows = [(word, image, factor_to_a(datum, args.node, image))]
    else:
        vertices = cone_vertices(datum, args.node)
        rows = []
        for element in weyl_elements(datum, args.cap_w):
            vec = vertices[coset_weight(datum, args.node, element.word)]
            rows.append((element.word, expand_to_y(datum, vec), vec))
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
                ArithmeticError) as exc:
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
    theta = _parse_theta(args.theta, rep.datum.rank)
    reflected, theta_bar = reflect(rep, args.node, theta, trusted=args.trusted)
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
        thetas.append(_parse_theta(args.theta, datum.rank))
    results = exhaustive_search(datum, v, w, field, thetas=tuple(thetas),
                                cap_entries=args.cap_entries)
    stable_count = sum(1 for point in results if all(point.stable))
    print(f"search {datum.label} over {field.name}: v={sorted(v.items())} "
          f"w={sorted(w.items())}")
    print(f"  points satisfying relations: {len(results)}")
    if thetas:
        print(f"  theta-stable points        : {stable_count}")
    if args.out:
        _write_artifact(args.out, {
            "type": datum.label,
            "field": field.name,
            "v": [[i, a, n] for (i, a), n in sorted(v.items())],
            "w": [[i, a, n] for (i, a), n in sorted(w.items())],
            "points": [
                {"point": point.rep.to_json_obj(), "stable": list(point.stable)}
                for point in results
            ],
        })
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser():
    parser = _Parser(prog="qcharlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # --type/--node may come from --config instead; validated after merge
        p.add_argument("--type", help="Cartan type label, e.g. B2")
        p.add_argument("--node", type=int)
        p.add_argument("--config", help="key=value config file; flags win")
        # default filled in after the config merge: flag, file, then env
        p.add_argument("--cache-dir")
        # cap defaults are filled in after the config merge (_CAP_DEFAULTS)
        p.add_argument("--cap-monomials", type=int)
        p.add_argument("--cap-height", type=int)
        p.add_argument("--cap-w", type=int)

    p = sub.add_parser("qchar", help="compute a fundamental q-character")
    common(p)
    p.add_argument("--out", help="write the q-character JSON here")
    p.set_defaults(func=_cmd_qchar)

    p = sub.add_parser("extremal-check", help="verify the cone bound for all w")
    common(p)
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("braid-orbit", help="inverse braid images of the anchor")
    common(p)
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
    p.add_argument("--trusted", action="store_true",
                   help="skip the stability pre-check")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_quiver_reflect)

    p = sub.add_parser("quiver-search", help="enumerate relation-satisfying points")
    p.add_argument("--type", required=True)
    p.add_argument("--v", required=True, help='dims like "1@(1,1),1@(2,2)"')
    p.add_argument("--w", required=True)
    p.add_argument("--field", default="F2")
    p.add_argument("--theta")
    p.add_argument("--cap-entries", type=int, default=22)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_quiver_search)

    return parser


_INT_SETTINGS = ("node", "cap_monomials", "cap_height", "cap_w")
_CAP_DEFAULTS = {
    "cap_monomials": DEFAULT_MAX_MONOMIALS,
    "cap_w": DEFAULT_WEYL_CAP,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            for key, value in _load_config_file(args.config).items():
                if getattr(args, key, None) is None:
                    setattr(args, key, value)
        for key in _INT_SETTINGS:
            value = getattr(args, key, None)
            if isinstance(value, str):
                try:
                    setattr(args, key, int(value))
                except ValueError:
                    raise _UsageError(f"{key} must be an integer, got {value!r}")
        # flag, then config file, then the module default
        for key, default in _CAP_DEFAULTS.items():
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, default)
        if hasattr(args, "cache_dir") and args.cache_dir is None:
            args.cache_dir = os.environ.get(CACHE_DIR_ENV)
        if getattr(args, "type", "") is None:
            raise _UsageError("--type is required (flag or config file)")
        if getattr(args, "node", "") is None:
            raise _UsageError("--node is required (flag or config file)")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnsupportedType, FieldNotFinite, ShapeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapExceeded, CacheIntegrityError, OSError) as exc:
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
