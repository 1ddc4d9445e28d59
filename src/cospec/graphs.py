"""Module gadgets and ring assembly for the graph family, what a word says
of its ring without building it (the edge count and the subgraph relation),
and the numeric spectrum (the package's only numpy use; only `spectrum` and
`blowup` read it).

`GADGETS` holds the P, C and E modules as edges on the poles +, - and the
unsigned pair a, b, each weight the integer coefficients of 1, k and k^2.

Vertices are dense integers.  For a ring graph the layout is module
order: the signed vertex of module i first, then (for P and C modules)
its unsigned pair a_i, b_i.  The signed vertex of module i is the "+"
pole of module i and the "-" pole of module i-1.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Optional

from .errors import DegreeError, FormatError, NumericalError, ParameterError, ShapeError
from .rationals import Rat, module_parameter, rat_str
from .words import ALPHABET, Word

# weights k = (0, 1, 0), 1 = (1, 0, 0), k + 1 = (1, 1, 0) and k^2 = (0, 0, 1)
GADGETS = {
    "P": (("a", "+", (0, 1, 0)), ("+", "-", (1, 0, 0)), ("-", "b", (0, 1, 0))),
    "C": (("a", "+", (0, 1, 0)), ("+", "-", (1, 0, 0)), ("-", "b", (0, 1, 0)),
          ("a", "b", (0, 0, 1))),
    "E": (("+", "-", (1, 1, 0)),),
}


def build_module_gadget(kind: str, k) -> tuple:
    """`GADGETS[kind]` at k = p/q > 0 as (edges, scale): edges (label, label, x)
    of weight x / scale, with scale = q^2.  The row is evaluated once per
    (row value, k) and kept, so a patched `GADGETS` row takes effect at the
    next call."""
    k = module_parameter(k)
    if kind not in GADGETS:
        raise ParameterError(f"unknown module kind {kind!r}")
    return _gadget_at(GADGETS[kind], k.numerator, k.denominator)


@functools.cache
def _gadget_at(row: tuple, p: int, q: int) -> tuple:
    """A `GADGETS` row at k = p/q as `build_module_gadget` returns it."""
    qq, pq, pp = q * q, p * q, p * p
    return tuple((a, b, c0 * qq + c1 * pq + c2 * pp) for a, b, (c0, c1, c2) in row), qq


class WeightedGraph:
    """Undirected graph with positive rational edge weights, no loops, held
    as integers over one denominator `scale`, the lcm of the weight
    denominators: edge {u, v} weighs scaled_weights[(u, v)] / scale (u < v)
    = scaled_adj[u][v] / scale, and v has degree scaled_degrees[v] / scale.

    Each w in `edges` is a positive rational (anything Fraction takes), or,
    with `scale` given, an int for the weight w / scale (common factors of
    scale and the w's cancel, so both ways build one integer form).
    """

    def __init__(self, n: int, edges, *, scale: Optional[int] = None,
                 word: Optional[Word] = None, k=None, signed=None, unsigned=None):
        if n < 0:
            raise ShapeError(f"negative vertex count {n}")
        if scale is not None and scale <= 0:
            raise ParameterError(f"scale must be positive, got {scale}")
        if scale is None:
            edges = [(u, v, Rat(w)) for u, v, w in edges]
            scale = math.lcm(*(w.denominator for _, _, w in edges))
            edges = [(u, v, w.numerator * (scale // w.denominator)) for u, v, w in edges]
        edges = list(edges)
        common = math.gcd(scale, *(x for _, _, x in edges))
        self.n = int(n)
        self.scale = scale // common
        self.scaled_weights: dict = {}
        self.scaled_adj = [dict() for _ in range(self.n)]
        self.scaled_degrees = [0] * self.n
        for u, v, x in edges:
            x //= common
            if u == v:
                raise ShapeError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ShapeError(f"edge ({u},{v}) out of range for n={self.n}")
            if x <= 0:
                raise ParameterError(f"edge ({u},{v}) has non-positive weight {Rat(x, self.scale)}")
            key = (u, v) if u < v else (v, u)
            if key in self.scaled_weights:
                raise ShapeError(f"duplicate edge {key}")
            self.scaled_weights[key] = self.scaled_adj[u][v] = self.scaled_adj[v][u] = x
            self.scaled_degrees[u] += x
            self.scaled_degrees[v] += x
        # ring metadata (None for graphs not built by assemble_ring)
        self.word, self.k, self.signed, self.unsigned = word, k, signed, unsigned

    @property
    def edge_count(self) -> int:
        return len(self.scaled_weights)

    def weight(self, u: int, v: int):
        """The rational weight of edge {u, v}, or None if it is no edge."""
        x = self.scaled_weights.get((u, v) if u < v else (v, u))
        return None if x is None else Rat(x, self.scale)

    def edges(self):
        """Edges as (u, v, w) with u < v and w rational, sorted."""
        for (u, v) in sorted(self.scaled_weights):
            yield u, v, Rat(self.scaled_weights[(u, v)], self.scale)

    def has_isolated_vertex(self) -> bool:
        return 0 in self.scaled_degrees

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.scaled_adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n

    def __repr__(self):
        tag = f" word={self.word}" if self.word else ""
        return f"WeightedGraph(n={self.n}, edges={self.edge_count}{tag})"


def assemble_ring(w: Word, k) -> WeightedGraph:
    """Assemble G(W): tau gadgets joined in cyclic order at signed vertices,
    k checked once and each `GADGETS` row read at k by `_gadget_at`, all at one scale."""
    k = module_parameter(k)
    local = {}
    for kind in set(w.letters):
        local[kind], scale = _gadget_at(GADGETS[kind], k.numerator, k.denominator)
    signed, unsigned, edges, n = [], [], [], 0
    for i, letter in enumerate(w):
        pair = (n + 1, n + 2) if letter in "PC" else None
        signed.append(n)
        unsigned.append(pair)
        n += 1 if pair is None else 3
        # the "-" pole is the next module's signed vertex
        labels = {"+": signed[i], "-": n if i + 1 < w.tau else 0}
        if pair is not None:
            labels["a"], labels["b"] = pair
        edges += [(labels[a], labels[b], x) for a, b, x in local[letter]]
    return WeightedGraph(n, edges, scale=scale, word=w, k=k, signed=signed, unsigned=unsigned)


def normalized_laplacian(g: WeightedGraph) -> "numpy.ndarray":
    """Dense symmetric L: 1 on the diagonal, -w(u,v)/sqrt(d_u d_v) on edges.

    The entries come from the integer-scaled weights: W^2 / (D_u D_v) is an
    int/int true division, rounded once, as float(Fraction) rounds it.
    numpy loads here, and NumericalError says so if it cannot.
    """
    if g.has_isolated_vertex():
        raise DegreeError("graph has an isolated vertex")
    try:
        import numpy
    except ImportError as exc:
        raise NumericalError(f"the numeric spectrum needs numpy: {exc}") from exc
    L = numpy.eye(g.n)
    d = g.scaled_degrees
    for (u, v), x in g.scaled_weights.items():
        L[u, v] = L[v, u] = -math.sqrt(x * x / (d[u] * d[v]))
    return L


def eigenvalues_numeric(g: WeightedGraph) -> "numpy.ndarray":
    """Ascending real eigenvalues of `normalized_laplacian(g)`, which loads numpy."""
    L = normalized_laplacian(g)
    import numpy
    try:
        return numpy.linalg.eigvalsh(L)
    except numpy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from exc


def ring_edge_count(w: Word) -> int:
    """The edge count of G(w), read from the word: each letter adds the
    length of its `GADGETS` row."""
    return sum(len(row) * w.letters.count(kind) for kind, row in GADGETS.items())


def ring_embeds(w1: Word, w2: Word, k) -> bool:
    """True iff some module rotation or reflection embeds G(w1) into G(w2) at
    k: module i onto module offset + i (or offset - i), each edge onto an
    edge of equal weight.  Read from the words, with no graph built: a
    module fits on another when it has an unsigned pair only if the other
    has, and every edge of its `GADGETS` row at k, with its weight, is an
    edge of the other's row; reflected, + and - swap, and so do a and b."""
    if w1.tau != w2.tau:
        raise ShapeError(f"ring lengths differ: {w1.tau} vs {w2.tau}")
    k = module_parameter(k)
    rows = tuple(map(GADGETS.__getitem__, ALPHABET))
    forward, reflected = _letter_fits(rows, k.numerator, k.denominator)
    s, d = w1.letters, w2.letters
    # module i onto offset - i is module i onto a rotation of the reversed word
    return _fits_rotated(s, d, forward) or _fits_rotated(s, d[::-1], reflected)


_REFLECT = {"+": "-", "-": "+", "a": "b", "b": "a"}


@functools.cache
def _letter_fits(rows: tuple, p: int, q: int) -> tuple:
    """For the `GADGETS` rows in `ALPHABET` order, at k = p/q > 0 (each
    through `_gadget_at`): the forward and the reflected fit, each the
    `str.translate` tables of the letters X in `ALPHABET` order, where a
    letter Y reads "1" when X fits on Y."""
    edges = [{(frozenset((a, b)), x) for a, b, x in _gadget_at(row, p, q)[0]} for row in rows]
    fits = []
    for turn in ({}, _REFLECT):
        tables = []
        for x, own in zip(ALPHABET, edges):
            moved = {(frozenset(turn.get(v, v) for v in pair), c) for pair, c in own}
            tables.append(str.maketrans(ALPHABET, "".join(
                "1" if (x not in "PC" or y in "PC") and moved <= other else "0"
                for y, other in zip(ALPHABET, edges))))
        fits.append(tuple(tables))
    return tuple(fits)


def _fits_rotated(s: str, d: str, fits: tuple) -> bool:
    """True iff some rotation of d puts at each position i a letter that
    s[i] fits on.  Bit j of d's mask for a letter X says that X fits on
    d[tau - 1 - j]; doubled, it reads every rotation, and the bits that
    survive the AND over i are the rotations that fit so far."""
    tau = len(s)
    masks = {}
    for x, table in zip(ALPHABET, fits):
        mask = int(d.translate(table), 2)
        masks[x] = mask | mask << tau
    live = (1 << tau) - 1
    for i, x in enumerate(s):
        live &= masks[x] >> (tau - i)
        if not live:
            return False
    return True


def non_isomorphism_witness(g1: WeightedGraph, g2: WeightedGraph) -> Optional[str]:
    """Why g1 and g2 are not isomorphic as weighted graphs, or None if unshown.

    "edge_count" when the edge counts differ, else "wl" when 1-WL colour
    refinement separates them.  Isomorphic graphs get None, since an
    isomorphism preserves every colour histogram.
    """
    if g1.edge_count != g2.edge_count:
        return "edge_count"
    return "wl" if _wl_separates(g1, g2) else None


def _wl_separates(g1: WeightedGraph, g2: WeightedGraph) -> bool:
    """1-WL colour refinement on both graphs in lockstep: a vertex starts
    with its weighted degree, and each round its colour becomes its old
    colour plus the sorted (weight, colour) pairs of its neighbours.  Colours
    are interned in one table, so equal colours mean equal refinement
    histories; True iff the histograms differ at some round.  Weights and
    degrees are the graphs' integers over their common scale."""
    scale = math.lcm(g1.scale, g2.scale)
    multipliers = [scale // g.scale for g in (g1, g2)]
    table: dict = {}
    colours = [[table.setdefault(d * m, len(table)) for d in g.scaled_degrees]
               for g, m in zip((g1, g2), multipliers)]
    for _ in range(max(g1.n, g2.n)):
        if sorted(colours[0]) != sorted(colours[1]):
            return True
        classes = len(set(colours[0]))
        colours = [
            [
                table.setdefault(
                    (c[v], tuple(sorted((x * m, c[u]) for u, x in g.scaled_adj[v].items()))),
                    len(table),
                )
                for v in range(g.n)
            ]
            for g, m, c in zip((g1, g2), multipliers, colours)
        ]
        if len(set(colours[0])) == classes:
            break
    return sorted(colours[0]) != sorted(colours[1])


def export_graph(g: WeightedGraph, format: str) -> str:
    """Serialize deterministically as DOT, JSON, or edge-list CSV."""
    fmt = format.strip().lower()
    if fmt == "csv":
        return "\n".join(f"{u},{v},{rat_str(w)}" for u, v, w in g.edges()) + "\n"
    if fmt == "json":
        payload = {
            "word": str(g.word) if g.word is not None else None,
            "k": rat_str(g.k) if g.k is not None else None,
            "n": g.n,
            "edges": [[u, v, rat_str(w)] for u, v, w in g.edges()],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "dot":
        lines = ["graph G {"]
        for u, v, w in g.edges():
            lines.append(f'  {u} -- {v} [label="{rat_str(w)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise FormatError(f"unknown export format {format!r}")
