"""Base-point machinery: the lowering/flat/raising split of the adjacency
matrix, layer-local blocks, graph flattening and Cartesian products as
edge-array operations, and a small-graph isomorphism search.

The split is stored layer-locally: the columns of A at one layer, whose
rows lie in that layer and the two beside it, are all that any
downstream computation needs, and on the larger graphs those blocks are
small even when n is not.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix

from .config import ISO_VERTEX_BOUND
from .errors import BudgetExceeded, ExactnessError
from .exactla import _int_array, _max_abs
from .graph_core import Graph, bfs_layers, check_budget


_INT64_MAX = 2**63 - 1


class LFRSplit:
    """A = L + F + R at a base vertex, held layer by layer.

    Each block's edges are selected, with no sort, from the directed edges
    (u, v) of the graph's CSR adjacency by a mask on the base's distance
    array ``dp.dist``, and each block is built on its first use:

    - ``l_block(i)``, the dense float64 block of L from layer i to layer
      i-1.  The first call fills every layer's block, the edges with
      dist[u] = dist[v] - 1, in one assignment to one flat buffer, of
      which the blocks are views.  ``uniform`` forms its layer systems
      from these and from ``l_gram(i)``, L L^T.
    - ``_block(i)``, for ``decompose``, the sparse int64 block of the
      edges with dist[v] = i: the columns of A at layer i, with the rows
      of layers i-1, i and i+1 stacked, its L, F and R parts, so that one
      product gives L v, F v and R v for a vector v on layer i.  L v is
      empty at layer 0, as R v is at the last layer.

    ``apply_L``, ``apply_F`` and ``apply_R`` take a layer-local vector, a
    list of Python ints, and ``images`` gives any of the three images of
    a block of such vectors at once.  The product is in int64 while the
    block's entries are within the layer block's one limit, and in Python
    ints otherwise.  Any other entry raises TypeError, so that nothing
    can be truncated on its way into int64; a rational vector is scaled
    to integers first.
    """

    def __init__(self, g, dp):
        self.g = g
        self.dp = dp
        sizes = self.layer_sizes()
        self._starts = np.cumsum(sizes) - sizes
        order = np.fromiter(chain.from_iterable(dp.layers), dtype=np.int64, count=g.n)
        self._pos = np.empty(g.n, dtype=np.int64)  # each vertex's position inside its layer
        self._pos[order] = np.arange(g.n) - np.repeat(self._starts, sizes)
        self._dense, self._grams, self._blocks = None, {}, {}

    @property
    def eccentricity(self):
        return self.dp.eccentricity

    def layer_sizes(self):
        return tuple(len(layer) for layer in self.dp.layers)

    def _edges(self, select, u_val, v_val):
        """(u_val[u], v_val[v]) for the directed edges (u, v), u a column and
        v a row of the CSR adjacency, that ``select(layer of u, layer of v)`` keeps."""
        S, dist = self.g.sparse(), self.dp.dist
        deg = np.diff(S.indptr)
        keep = np.flatnonzero(select(dist.take(S.indices), np.repeat(dist, deg)))
        return u_val.take(S.indices.take(keep)), np.repeat(v_val, deg).take(keep)

    def l_block(self, i):
        """Dense float64 block of L from layer i to layer i-1, a view into
        the one buffer that holds every layer's block.

        Its entries are 0 or 1, and an entry of a product of at most three
        blocks of L and R counts walks of length at most 3 between two
        vertices: at most k^2 for the largest degree k.  Every partial sum
        is nonnegative and at most that entry, so float64 products of
        these blocks are exact while the entries stay below 2^53, which
        ``layer_gram`` checks.
        """
        if self._dense is None:
            sizes = self.layer_sizes()
            start = np.cumsum([0] + [a * b for a, b in zip(sizes, sizes[1:])])
            # u at position p of layer j and v at position q of layer j + 1
            # make entry (p, q) of the block of layer j + 1: start[j] + p n_{j+1} + q
            dist, width = self.dp.dist, np.array(sizes[1:] + (0,))
            u, v = self._edges(lambda du, dv: du == dv - 1, start[dist] + self._pos * width[dist], self._pos)
            buf = np.zeros(start[-1])
            buf[u + v] = 1.0
            self._dense = [None] + [buf[a:b].reshape(m, n) for a, b, m, n in zip(start, start[1:], sizes, sizes[1:])]
        return self._dense[i]

    def l_gram(self, i):
        """L L^T for the block L of layer i, cached: ``uniform`` needs it
        at layer i and at layer i - 1."""
        if i not in self._grams:
            blk = self.l_block(i)
            self._grams[i] = blk @ blk.T
        return self._grams[i]

    def _block(self, i):
        """The sparse int64 block of layer i, the largest |entry| an input
        may have for its int64 product to stay exact, and the rows of its
        L, F and R parts, as slices."""
        if i not in self._blocks:
            sizes = self.layer_sizes()
            n_l = sizes[i - 1] if i else 0
            n_lf = n_l + sizes[i]
            shape = (n_lf + (sizes[i + 1] if i < self.eccentricity else 0), sizes[i])
            # a row's position in layer order, less that of the block's first row
            row = self._pos + self._starts[self.dp.dist] - (self._starts[i] - n_l)
            u, v = self._edges(lambda du, dv: dv == i, row, self._pos)
            blk = csr_matrix((np.ones(len(u), dtype=np.int64), (u, v)), shape=shape)
            count = max(int(np.diff(blk.indptr).max(initial=0)), 1)
            parts = {"L": slice(0, n_l), "F": slice(n_l, n_lf), "R": slice(n_lf, None)}
            self._blocks[i] = (blk, _INT64_MAX // count, parts)
        return self._blocks[i]

    def _product(self, i, vecs):
        """The block product on a nonempty list of vectors of Python ints,
        as an array with one column per vector: in int64 when every entry
        is within the block's limit, and otherwise in one pass over the
        block's entries in Python ints."""
        if set(map(type, chain.from_iterable(vecs))) - {int}:
            raise TypeError("LFRSplit products take lists of Python ints")
        blk, limit, _ = self._block(i)
        block = _int_array(vecs, len(vecs[0]))
        if block.dtype != object and _max_abs(block) <= limit:
            return blk @ block.T
        out = np.zeros((blk.shape[0], len(vecs)), dtype=object)
        rows = np.repeat(np.arange(blk.shape[0]), np.diff(blk.indptr))
        np.add.at(out, rows, block.astype(object).T[blk.indices] * blk.data[:, None])
        return out

    def images(self, i, vecs, gens="LFR"):
        """The images of a block of exact vectors supported on layer i
        under the generators named in ``gens``, from one sparse product:
        for each generator, one list of Python ints per vector."""
        out = self._product(i, vecs)
        parts = self._block(i)[2]
        return [out[parts[gen]].T.tolist() for gen in gens]

    def apply_L(self, i, vec):
        """Apply L to an exact vector supported on layer i."""
        return self.images(i, [vec], "L")[0][0]

    def apply_R(self, i, vec):
        """Apply R to an exact vector supported on layer i."""
        return self.images(i, [vec], "R")[0][0]

    def apply_F(self, i, vec):
        return self.images(i, [vec], "F")[0][0]


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
    layer_of = bfs_layers(g, x).dist
    edges = g.edges()
    kept = edges[layer_of[edges[:, 0]] != layer_of[edges[:, 1]]]
    return FlattenedGraph(graph=Graph(g.n, kept), base=x, removed_edges=g.m - len(kept))


def cartesian_product(g, h, budget=None):
    """Cartesian product with row-major vertex numbering (u, v) -> u*|h| + v."""
    check_budget(g.n * h.n, budget)
    within = h.edges()[None, :, :] + h.n * np.arange(g.n)[:, None, None]
    across = h.n * g.edges()[:, None, :] + np.arange(h.n)[None, :, None]
    return Graph(g.n * h.n, np.concatenate((within.reshape(-1, 2), across.reshape(-1, 2))))


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


def graph_isomorphic(g, h):
    """A certified isomorphism map between ``g`` and ``h``, or None.  The
    search is limited to ``ISO_VERTEX_BOUND`` vertices.

    Joint color refinement prunes the search; the backtracking keeps full
    adjacency consistency with everything already mapped.  The returned
    mapping is re-verified edge for edge before being reported.
    """
    bound = ISO_VERTEX_BOUND
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
    if len(set(mapping.values())) != g.n or not all(
        h.adjacent(mapping[u], mapping[v]) for u, v in g.edges().tolist()
    ):
        raise ExactnessError("the isomorphism search returned a map that is not one")
    return dict(mapping)
