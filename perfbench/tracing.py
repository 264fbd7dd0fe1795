"""Spans around every call into a public function of the qcharlab modules.

The tracer wraps each public module-level function of the package from
outside (the program is not edited) and rebinds every module attribute
that names it, so calls made inside the package are traced too.  A span has
a name, a start, an end and a parent span.  The quiver workloads close
millions of spans per pass, so closed spans are folded at once into a
(parent name, name) table of calls, total time and self time; self time is
the span's duration minus the time covered by its child spans.
"""

import functools
import importlib
import inspect
import time

MODULES = ("cartan", "lweights", "braid", "qchar", "extremal", "quiver",
           "linalg", "cli")


def _stability_name(args, kwargs):
    theta = kwargs.get("theta", args[1] if len(args) > 1 else ())
    same = all(t > 0 for t in theta) or all(t < 0 for t in theta)
    return "quiver.stability_check." + ("same_sign" if same else "mixed")


# Spans whose name depends on the call's arguments.
NAMERS = {"quiver.stability_check": _stability_name}


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, time covered by children]
        self.table = {}  # (parent name, name) -> [calls, total_s, self_s]

    def wrap(self, name, fn):
        namer = NAMERS.get(name)
        stack, table, clock = self.stack, self.table, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name if namer is None else namer(args, kwargs), clock(), 0.0]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - span[1]
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                key = (parent[0] if parent else None, span[0])
                row = table.get(key)
                if row is None:
                    row = table[key] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += duration
                row[2] += duration - span[2]

        return traced

    def install(self, package="qcharlab"):
        """Wrap the public functions of every traced module; returns their count."""
        modules = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{name}") for name in MODULES
        ]
        wrapped = {}
        for short, module in zip(MODULES, modules[1:]):
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != module.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        return len(wrapped)

    def rows(self):
        return [[parent, name, *row] for (parent, name), row in sorted(
            self.table.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]
