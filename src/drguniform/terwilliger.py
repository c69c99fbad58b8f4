"""Base-point machinery: the lowering/flat/raising split of the adjacency
matrix, layer-local blocks, graph flattening, Cartesian products, and a
small-graph isomorphism search.

The split is stored layer-locally: the block of L from layer i to layer
i-1 is all that any downstream computation needs, and on the larger
graphs those blocks are small even when n is not.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .config import DEFAULT
from .errors import BudgetExceeded
from .graph_core import Graph, bfs_layers


_INT64_MAX = 2**63 - 1


class LFRSplit:
    """A = L + F + R at a base vertex, held as per-layer blocks.

    ``lrows[i][z]`` lists, for the z-th vertex of layer i-1, the local
    indices of its neighbors inside layer i; this is the block of L
    mapping layer i to layer i-1.  ``frows[i][z]`` lists the same-layer
    neighbors of the z-th vertex of layer i.  R is the transpose of L by
    definition and is never stored.

    ``apply_L``, ``apply_F`` and ``apply_R`` take a layer-local vector.  A
    list of Python ints whose product cannot leave int64 goes through a
    cached sparse int64 block; anything else (Fractions, big integers)
    takes the exact pure-Python loop.
    """

    def __init__(self, g, dp):
        self.g = g
        self.dp = dp
        layers = dp.layers
        self.local = [None] * g.n
        for layer in layers:
            for j, v in enumerate(layer):
                self.local[v] = j
        eps = dp.eccentricity
        self.lrows = [None] * (eps + 1)
        self.frows = [None] * (eps + 1)
        layer_of = dp.layer_of
        for i in range(eps + 1):
            frows = []
            for v in layers[i]:
                frows.append(
                    tuple(self.local[u] for u in g.adj[v] if layer_of[u] == i)
                )
            self.frows[i] = tuple(frows)
            if i >= 1:
                lrows = []
                for z in layers[i - 1]:
                    lrows.append(
                        tuple(self.local[u] for u in g.adj[z] if layer_of[u] == i)
                    )
                self.lrows[i] = tuple(lrows)
        self._lblocks = {}
        self._blocks = {}

    @property
    def eccentricity(self):
        return self.dp.eccentricity

    def layer_sizes(self):
        return tuple(len(layer) for layer in self.dp.layers)

    def l_block(self, i):
        """Dense int64 block of L from layer i to layer i-1."""
        if i not in self._lblocks:
            rows = self.lrows[i]
            blk = np.zeros((len(rows), len(self.dp.layers[i])), dtype=np.int64)
            for z, nbrs in enumerate(rows):
                for y in nbrs:
                    blk[z, y] = 1
            self._lblocks[i] = blk
        return self._lblocks[i]

    def _block(self, gen, i):
        """Sparse int64 block of ``gen`` acting on layer i, and the largest
        |entry| an input may have for the int64 product to stay exact."""
        key = (gen, i)
        if key not in self._blocks:
            if gen == "R":  # the transpose of L from layer i+1
                rows, width = self.lrows[i + 1], len(self.dp.layers[i + 1])
            else:
                rows = self.frows[i] if gen == "F" else self.lrows[i]
                width = len(self.dp.layers[i])
            indptr = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum([len(nbrs) for nbrs in rows], out=indptr[1:])
            indices = np.fromiter(
                (y for nbrs in rows for y in nbrs), dtype=np.int64, count=indptr[-1]
            )
            blk = csr_matrix(
                (np.ones(len(indices), dtype=np.int64), indices, indptr),
                shape=(len(rows), width),
            )
            if gen == "R":
                blk = blk.T.tocsr()
            count = max(int(np.diff(blk.indptr).max(initial=0)), 1)
            self._blocks[key] = (blk, _INT64_MAX // count)
        return self._blocks[key]

    def _int64_product(self, gen, i, vec):
        """The block product on ``vec`` when it is exact in int64, else None.

        Eligibility is read off the values: every entry a Python int and
        max|v| times the largest row count of the block below 2^63."""
        if not all(type(x) is int for x in vec):
            return None
        blk, limit = self._block(gen, i)
        if max(vec) > limit or min(vec) < -limit:
            return None
        return (blk @ np.array(vec, dtype=np.int64)).tolist()

    def apply_L(self, i, vec):
        """Apply L to an exact vector supported on layer i."""
        out = self._int64_product("L", i, vec)
        if out is not None:
            return out
        return [sum(vec[y] for y in nbrs) for nbrs in self.lrows[i]]

    def apply_R(self, i, vec):
        """Apply R to an exact vector supported on layer i; R = L transposed,
        so this scatters through the L block one layer up."""
        if i + 1 > self.eccentricity:
            return []
        out = self._int64_product("R", i, vec)
        if out is not None:
            return out
        out = [0] * len(self.dp.layers[i + 1])
        for z, nbrs in enumerate(self.lrows[i + 1]):
            if vec[z]:
                for y in nbrs:
                    out[y] += vec[z]
        return out

    def apply_F(self, i, vec):
        out = self._int64_product("F", i, vec)
        if out is not None:
            return out
        return [sum(vec[y] for y in nbrs) for nbrs in self.frows[i]]

    def dense(self):
        """Full (L, F, R) as dense int64 matrices, for small graphs."""
        n = self.g.n
        L = np.zeros((n, n), dtype=np.int64)
        F = np.zeros((n, n), dtype=np.int64)
        layer_of = self.dp.layer_of
        for u, v in self.g.edges():
            du, dv = layer_of[u], layer_of[v]
            if du == dv:
                F[u, v] = F[v, u] = 1
            elif du == dv - 1:
                L[u, v] = 1
            else:
                L[v, u] = 1
        return L, F, L.T.copy()

    def l_nonzeros(self):
        return sum(len(nbrs) for rows in self.lrows[1:] for nbrs in rows)

    def f_nonzeros(self):
        return sum(len(nbrs) for rows in self.frows for nbrs in rows)


def lfr_split(g, dp=None, x=0):
    """Split the adjacency matrix of ``g`` at a base vertex."""
    if dp is None:
        dp = bfs_layers(g, x)
    return LFRSplit(g, dp)


@dataclass(frozen=True)
class FlattenedGraph:
    graph: Graph
    base: int
    removed_edges: int


def flatten(g, x):
    """Remove all same-layer edges around ``x``; the result is bipartite,
    connected, and has the same distance partition at ``x``."""
    dp = bfs_layers(g, x)
    layer_of = dp.layer_of
    kept = [
        (u, v) for u, v in g.edges() if layer_of[u] != layer_of[v]
    ]
    return FlattenedGraph(
        graph=Graph(g.n, kept), base=x, removed_edges=g.m - len(kept)
    )


def cartesian_product(g, h, budget=None):
    """Cartesian product with row-major vertex numbering (u, v) -> u*|h| + v."""
    budget = DEFAULT.vertex_budget if budget is None else budget
    if g.n * h.n > budget:
        raise BudgetExceeded(f"{g.n * h.n} vertices exceed the budget of {budget}")
    edges = []
    for u in range(g.n):
        base = u * h.n
        for a, b in h.edges():
            edges.append((base + a, base + b))
    for u, w in g.edges():
        for v in range(h.n):
            edges.append((u * h.n + v, w * h.n + v))
    return Graph(g.n * h.n, edges)


def _joint_refine(g, h):
    """Color-refine both graphs with a shared signature dictionary."""
    cg = [g.degree(v) for v in range(g.n)]
    ch = [h.degree(v) for v in range(h.n)]
    while True:
        sg = [
            (cg[v], tuple(sorted(cg[u] for u in g.adj[v]))) for v in range(g.n)
        ]
        sh = [
            (ch[v], tuple(sorted(ch[u] for u in h.adj[v]))) for v in range(h.n)
        ]
        table = {s: i for i, s in enumerate(sorted(set(sg) | set(sh)))}
        ng = [table[s] for s in sg]
        nh = [table[s] for s in sh]
        if ng == cg and nh == ch:
            return cg, ch
        cg, ch = ng, nh


def graph_isomorphic(g, h, vertex_bound=None):
    """A certified isomorphism map between ``g`` and ``h``, or None.

    Joint color refinement prunes the search; the backtracking keeps full
    adjacency consistency with everything already mapped.  The returned
    mapping is re-verified edge for edge before being reported.
    """
    bound = DEFAULT.iso_vertex_bound if vertex_bound is None else vertex_bound
    if g.n > bound or h.n > bound:
        raise BudgetExceeded(f"isomorphism search limited to {bound} vertices")
    if g.n != h.n or g.m != h.m:
        return None
    cg, ch = _joint_refine(g, h)
    if Counter(cg) != Counter(ch):
        return None
    by_color = {}
    for w, c in enumerate(ch):
        by_color.setdefault(c, []).append(w)

    # connected expansion order, most-constrained vertex first
    order = []
    placed = [False] * g.n
    color_rarity = Counter(cg)
    for _ in range(g.n):
        best = None
        for v in range(g.n):
            if placed[v]:
                continue
            anchored = sum(placed[u] for u in g.adj[v])
            key = (-anchored, color_rarity[cg[v]], v)
            if best is None or key < best[0]:
                best = (key, v)
        order.append(best[1])
        placed[best[1]] = True

    mapping = {}
    used = set()

    def extend(k):
        if k == g.n:
            return True
        v = order[k]
        mapped_nbrs = [(u, mapping[u]) for u in g.adj[v] if u in mapping]
        for w in by_color[cg[v]]:
            if w in used or ch[w] != cg[v]:
                continue
            if len(h.adj[w]) != len(g.adj[v]):
                continue
            ok = all(h.adjacent(mu, w) for _, mu in mapped_nbrs)
            if ok:
                for u, mu in mapping.items():
                    if g.adjacent(u, v) != h.adjacent(mu, w):
                        ok = False
                        break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if extend(k + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    if not extend(0):
        return None
    for u, v in g.edges():
        assert h.adjacent(mapping[u], mapping[v])
    assert len(set(mapping.values())) == g.n
    return dict(mapping)
