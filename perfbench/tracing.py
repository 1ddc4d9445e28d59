"""Outside-in layer trace: wrap the public functions of each `cospec` layer
by rebinding their names in every `cospec.*` module that holds them.

Each wrapped call pushes a frame, so a layer's self time is its inclusive
time minus the time of the wrapped calls made directly inside it.  Layers
called at most a few thousand times per unit also record a span (id,
parent, name, start, end, instance); the hot ones (polynomial arithmetic,
per-decomposition terms, generator steps) only add to their totals, so the
trace stays small in memory.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

SPAN, HOT, GEN, PAIR = "span", "hot", "gen", "pair"

# (module, attribute, layer name, kind, work counter from the arguments)
TARGETS = (
    ("cospec.cli", "main", "cli.main", SPAN, None),
    ("cospec.cli", "_verify_pair", "cli.verify_pair", PAIR, None),
    ("cospec.words", "canonical_words", "words.canonical_words", GEN, None),
    ("cospec.graphs", "assemble_ring", "graphs.assemble_ring", SPAN, None),
    ("cospec.graphs", "subgraph_after_symmetry", "graphs.subgraph_after_symmetry", SPAN, None),
    ("cospec.linalg", "charpoly_exact", "linalg.charpoly_exact", SPAN, None),
    ("cospec.linalg", "det_rational", "linalg.det_rational", SPAN, None),
    ("cospec.linalg", "eigenvalues_numeric", "linalg.eigenvalues_numeric", SPAN, None),
    ("cospec.polynomials", "interpolate", "polynomials.interpolate", SPAN,
     lambda args, kwargs: len(args[0])),
    ("cospec.polynomials", "Polynomial.__mul__", "polynomials.poly_mul", HOT, None),
    ("cospec.polynomials", "Polynomial.__add__", "polynomials.poly_add", HOT, None),
    ("cospec.transfer", "short_part", "transfer.short_part", SPAN, None),
    ("cospec.transfer", "charpoly_via_transfer", "transfer.charpoly_via_transfer", SPAN, None),
    ("cospec.decomps", "charpoly_via_decompositions", "decomps.charpoly_via_decompositions", SPAN, None),
    ("cospec.decomps", "enumerate_decompositions", "decomps.enumerate_decompositions", GEN, None),
    ("cospec.decomps", "decomposition_term", "decomps.decomposition_term", HOT, None),
)


class Stat:
    __slots__ = ("calls", "s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.work = 0  # items yielded (GEN) or counted from the arguments


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.spans = []
        self.instance = None
        self.missing = []
        self._stack = []  # frames: [child seconds, enclosing span id]
        self._next_id = 0
        self._undo = []

    # -- accounting -------------------------------------------------------

    def _timed(self, name, kind, call, work):
        stack, stat = self._stack, self.stats[name]
        parent = stack[-1][1] if stack else None
        if kind == SPAN:
            sid = self._next_id
            self._next_id += 1
        else:
            sid = parent
        frame = [0.0, sid]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            stack.pop()
            d = t1 - t0
            stat.calls += 1
            stat.s += d
            stat.self_s += d - frame[0]
            stat.work += work
            if stack:
                stack[-1][0] += d
            if kind == SPAN:
                self.spans.append((sid, parent, name, t0, t1, self.instance))

    def _wrap(self, name, kind, fn, counter):
        timed, stat = self._timed, self.stats[name]

        if kind == GEN:
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)

                def steps():
                    while True:
                        try:
                            item = timed(name, HOT, it.__next__, 0)
                        except StopIteration:
                            return
                        stat.work += 1
                        yield item

                return steps()

            return gen_wrapper

        if kind == PAIR:  # a span that also tags everything inside it with (word, k)
            def pair_wrapper(w, k, *args, **kwargs):
                outer, self.instance = self.instance, (str(w), str(k))
                try:
                    return timed(name, SPAN, lambda: fn(w, k, *args, **kwargs), 0)
                finally:
                    self.instance = outer

            return pair_wrapper

        def wrapper(*args, **kwargs):
            work = counter(args, kwargs) if counter else 0
            return timed(name, kind, lambda: fn(*args, **kwargs), work)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Rebind every target in every loaded cospec module; remember how to undo it."""
        mods = [m for n, m in list(sys.modules.items()) if n == "cospec" or n.startswith("cospec.")]
        for modname, attr, name, kind, counter in TARGETS:
            self.stats[name]  # an unused or missing layer still reports zeros
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, meth, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(name, kind, fn, counter)
            if cls_name:
                self._rebind(owner, meth, fn, wrapped)
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, fn, wrapped)

    def _rebind(self, owner, key, old, new):
        setattr(owner, key, new)
        self._undo.append((owner, key, old))

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            setattr(owner, key, old)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """`<module>.<function>.<stat>` -> value, for the stats the benchmark reports."""
        st = self.stats
        out = {}
        for name, stat in st.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.s
            out[f"{name}.self_s"] = stat.self_s
        out["polynomials.interpolate.points"] = st["polynomials.interpolate"].work
        out["decomps.enumerate_decompositions.items"] = st["decomps.enumerate_decompositions"].work
        out["words.canonical_words.classes"] = st["words.canonical_words"].work
        return out

    def write_spans(self, path):
        """One JSON object per line: id, parent, name, start, end, instance."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, inst in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "instance": inst}) + "\n")
