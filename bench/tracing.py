"""Spans around polmod's layers, recorded from the benchmark's own code.

install() rebinds each layer's public entry points, in every loaded polmod
module that holds them, to a wrapper that records a span: layer, name,
start, end, the enclosing span and the job. The wrappers are removed again
by the function install() returns, so untraced passes run the program's
own functions. Spans stay in memory until the run writes them out.

A layer's self time is the time inside its spans minus the time inside
their child spans; counters are taken at the outermost span of a layer.
"""

import sys
import time
from collections import defaultdict

# (module, attribute, layer); "Class.method" names a method.
LAYERS = [
    ("polmod.cli.expressions", "parse_generator_args", "parse"),
    ("polmod.cli.expressions", "parse_expression", "parse"),
    ("polmod.symfunc", "expand_basis", "parse"),
    ("polmod.closure", "GeneratorFamily.__init__", "orbit"),
    ("polmod.closure", "polarization_module", "closure"),
    ("polmod.frobenius", "frobenius_series", "frobenius"),
    ("polmod.cli.runner", "checked_frobenius", "frobenius"),
    ("polmod.frobenius", "hilbert_series", "hilbert"),
    ("polmod.symfunc", "to_schur", "hilbert"),
    ("polmod.symfunc", "schur_to_h", "hilbert"),
    ("polmod.closure", "GradedSpan.to_json_dict", "render"),
    ("polmod.frobenius", "FrobeniusSeries.to_json_list", "render"),
    ("polmod.frobenius", "FrobeniusSeries.__str__", "render"),
    ("polmod.symfunc", "SymSeries.__str__", "render"),
    ("polmod.cli.runner", "sym_to_json", "render"),
    ("polmod.cli.main", "_emit", "render"),
    ("polmod.cli.verify", "run_verify", "verify"),
    ("polmod.exceptions", "classify", "exceptions"),
    ("polmod.exceptions", "is_n_exception", "exceptions"),
    ("polmod.exceptions", "exception_equation", "exceptions"),
]

# Counted calls without a span: one per component x conjugacy-class trace.
COUNTED = [("polmod.frobenius", "component_character", "frobenius.traces")]

LAYER_NAMES = ["cli", "parse", "orbit", "closure", "frobenius", "hilbert", "render", "verify", "exceptions"]

COUNTER_NAMES = [
    "parse.generator_terms",
    "orbit.generators",
    "closure.dim",
    "closure.components",
    "closure.basis_terms",
    "frobenius.traces",
    "verify.checks",
    "verify.modules",
]


class Tracer:
    """Spans and counters of one run, kept in memory."""

    def __init__(self):
        self.spans = []  # [id, parent, pass, job, layer, name, start, end]
        self.stack = []
        self.counters = defaultdict(lambda: defaultdict(int))  # pass -> name -> count
        self.pass_index = 0
        self.job = None
        self.missing = []

    def span(self, layer, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        rec = [len(self.spans), parent, self.pass_index, self.job, layer, name, time.perf_counter(), None]
        self.spans.append(rec)
        self.stack.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[7] = time.perf_counter()
            self.stack.pop()

    def in_layer(self, layer):
        return any(rec[4] == layer for rec in self.stack)

    def count(self, name, value=1):
        self.counters[self.pass_index][name] += value

    def on_result(self, layer, result, args):
        """Counters read off a layer's result at its outermost span."""
        if layer == "parse":
            polys = result if isinstance(result, list) else [result]
            self.count("parse.generator_terms", sum(len(f) for f in polys))
        elif layer == "orbit":
            self.count("orbit.generators", len(args[0].polys))
        elif layer == "closure":
            dims = result.dims()
            self.count("closure.dim", sum(dims.values()))
            self.count("closure.components", len(dims))
            self.count("closure.basis_terms", sum(len(f) for d in dims for f in result.component_basis(d)))
            if self.in_layer("verify"):
                self.count("verify.modules")
        elif layer == "verify":
            self.count("verify.checks", result[0]["checked"])

    def wrapper(self, layer, name, fn):
        def traced(*args, **kwargs):
            outermost = not self.in_layer(layer)
            result = self.span(layer, name, fn, *args, **kwargs)
            if outermost:
                self.on_result(layer, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def counting(self, counter, fn):
        def counted(*args, **kwargs):
            self.count(counter)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def self_times(self, pass_index):
        """{layer: self seconds} over the spans of one pass."""
        child = defaultdict(float)
        spans = [s for s in self.spans if s[2] == pass_index]
        for s in spans:
            if s[1] is not None:
                child[s[1][0]] += s[7] - s[6]
        out = dict.fromkeys(LAYER_NAMES, 0.0)
        for s in spans:
            out[s[4]] += (s[7] - s[6]) - child[s[0]]
        return out

    def to_json(self):
        return [
            {
                "id": s[0],
                "parent": s[1][0] if s[1] is not None else None,
                "pass": s[2],
                "job": s[3],
                "layer": s[4],
                "name": s[5],
                "start": s[6],
                "end": s[7],
            }
            for s in self.spans
        ]


def _rebind(old, new, undo):
    """Point every polmod module binding of `old` at `new`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "polmod" or modname.startswith("polmod.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))


def _lookup(modname, attr):
    """(owner, name, function) for "f" or "Class.method" in a module."""
    owner = sys.modules.get(modname)
    cls, _, name = attr.rpartition(".")
    if cls:
        owner = getattr(owner, cls, None)
        return owner, name, vars(owner).get(name) if owner is not None else None
    return owner, name, getattr(owner, name, None)


def install(tracer):
    """Wrap every layer entry point; returns the function that unwraps them.

    Entry points polmod no longer has are listed in tracer.missing and
    skipped, so their layer reads low rather than the run failing.
    """
    undo = []

    def patch(modname, attr, make):
        owner, name, fn = _lookup(modname, attr)
        if fn is None:
            if "%s.%s" % (modname, attr) not in tracer.missing:
                tracer.missing.append("%s.%s" % (modname, attr))
        elif "." in attr:
            setattr(owner, name, make(fn))
            undo.append((owner, name, fn))
        else:
            _rebind(fn, make(fn), undo)

    for modname, attr, layer in LAYERS:
        patch(modname, attr, lambda fn: tracer.wrapper(layer, attr, fn))
    for modname, attr, counter in COUNTED:
        patch(modname, attr, lambda fn: tracer.counting(counter, fn))

    def uninstall():
        for obj, name, value in reversed(undo):
            setattr(obj, name, value)

    return uninstall


def job_span(tracer, job_index, name, fn, *args):
    """The root span of one job; its self time is reported as cli.s."""
    tracer.job = job_index
    return tracer.span("cli", name, fn, *args)
