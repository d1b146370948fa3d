"""Idempotent path algebra over depth-k lexicographic weights.

A lexicographic weight is either ZERO (no path; absorbing for the
product, neutral for the sum), or a non-increasing tuple of at most k
levels; the empty tuple UNIT is the neutral element of the product.
The sum picks the smaller operand in tuple order (ZERO largest, and a
sequence precedes every strict extension of itself, so a track that
already ended in a minimum beats its continuations).  The product
chains two descents: it fails to ZERO when the tail of the left factor
lies below the head of the right one, otherwise it concatenates and
truncates to depth k.

Square matrices over this structure give shortest lexicographic path
weights through powers of the incidence matrix; the classical linear
solvers (Jacobi, Gauss-Seidel, Jordan pivoting, greedy elimination)
all compute the smallest solution of ``Y = A (x) Y (+) B``, which is
``closure(A) (x) B`` wherever ``closure`` is exact (see its docstring).
Dense matrices here are the oracle path, kept to modest sizes; they are
lists of lists at the interface, and the solvers run on sparse rows
``{col: entry}`` holding only the non-ZERO entries.  The graph-native
algorithms live in ``geodesics``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import DimensionMismatch
from .flooding import minima_of_flooding, minima_sets
from .graphs import Labeling, UNSET, WeightedGraph

# ZERO is None; every other value is a non-increasing tuple of levels.
LexWeight = Optional[tuple[int, ...]]

ZERO: LexWeight = None
UNIT: LexWeight = ()

# Sized by timing on a 2-vCPU host: the five solvers together took
# 7-10 s at 400 nodes with dense loops; on sparse rows, with closure
# chaining only the entries that changed, they take 0.5-0.9 s on 20x19
# relief images (388-389 nodes, depth 3).
MAX_DENSE_NODES = 400


def lex_weight(seq: Sequence[int], k: int) -> LexWeight:
    """Weight of a raw level sequence: ZERO if it ascends anywhere,
    otherwise its first k values."""
    seq = tuple(seq)
    for a, b in zip(seq, seq[1:]):
        if b > a:
            return ZERO
    return seq[:k]


def lex_compare(a: LexWeight, b: LexWeight) -> int:
    """-1, 0 or 1; ZERO is the maximum, UNIT the minimum."""
    if a is None and b is None:
        return 0
    if a is None:
        return 1
    if b is None:
        return -1
    return -1 if a < b else (0 if a == b else 1)


def lex_min(a: LexWeight, b: LexWeight) -> LexWeight:
    """The sum of the dioid: keeps the smaller operand."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def lex_chain(a: LexWeight, b: LexWeight, k: int) -> LexWeight:
    """The product of the dioid: chain prefix ``a`` with suffix ``b``.

    Exact as long as ``a`` is not itself a truncation that hid its true
    last element (prepending single edges, as all the iterative solvers
    and graph algorithms do, is always exact).  Chains of truncated
    prefixes must use the tail-tracked ops below instead.
    """
    if a is None or b is None:
        return ZERO
    if not a:
        return b[:k]
    if not b:
        return a[:k]
    if a[-1] < b[0]:
        return ZERO
    return (a + b)[:k]


# Tail-tracked elements: (window, true last element of the underlying
# sequence).  Truncating first_k hides the sequence's tail, yet the tail
# still decides whether a further suffix may be chained; tracking it keeps
# the product associative, which matrix squaring silently relies on.
Tracked = Optional[tuple[tuple[int, ...], int]]

UNIT_T: Tracked = ((), 0)


def lift(w: LexWeight) -> Tracked:
    """Plain (untruncated) weight to its tail-tracked form."""
    if w is None:
        return None
    return (w, w[-1]) if w else UNIT_T


def exact_chain(a: Tracked, b: Tracked, k: int) -> Tracked:
    if a is None or b is None:
        return None
    wa, ta = a
    wb, tb = b
    if not wa:
        return (wb[:k], tb)
    if not wb:
        return (wa[:k], ta)
    if ta < wb[0]:
        return None
    return ((wa + wb)[:k], tb)


def exact_min(a: Tracked, b: Tracked) -> Tracked:
    """Smaller window wins; on a window tie the larger tail dominates
    (it chains with everything the smaller one does)."""
    if a is None:
        return b
    if b is None:
        return a
    if a[0] != b[0]:
        return a if a[0] < b[0] else b
    return a if a[1] >= b[1] else b


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

LexMatrix = list  # list[list[LexWeight]], rows of equal length


def zero_matrix(rows: int, cols: Optional[int] = None) -> LexMatrix:
    cols = rows if cols is None else cols
    return [[ZERO] * cols for _ in range(rows)]


def identity_matrix(n: int) -> LexMatrix:
    m = zero_matrix(n)
    for i in range(n):
        m[i][i] = UNIT
    return m


def incidence_matrix(g: WeightedGraph, k: int) -> LexMatrix:
    """Symmetric matrix with the one-edge weight on every edge slot."""
    if g.num_nodes > MAX_DENSE_NODES:
        raise DimensionMismatch(
            f"dense algebra capped at {MAX_DENSE_NODES} nodes; "
            "use the graph-native algorithms"
        )
    ew = g.require_edge_weights()
    a = zero_matrix(g.num_nodes)
    for eid, (u, v) in enumerate(g.edges):
        w = lex_weight((ew[eid],), k)
        a[u][v] = w
        a[v][u] = w
    return a


def mat_add(a: LexMatrix, b: LexMatrix) -> LexMatrix:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise DimensionMismatch("matrix shapes differ")
    return [[lex_min(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _rows(m: LexMatrix) -> list[dict]:
    """Sparse rows ``{col: entry}`` of a dense matrix, ZERO entries dropped."""
    return [{j: x for j, x in enumerate(row) if x is not None} for row in m]


def _mul_rows(a: list[dict], b: list[dict], k: int, add=None) -> list[dict]:
    """Plain product of sparse rows, plus the sparse rows ``add`` if given."""
    out = []
    for i, row in enumerate(a):
        acc = dict(add[i]) if add else {}
        for t, x in row.items():
            for j, y in b[t].items():
                z = lex_chain(x, y, k)
                if z is not None:
                    acc[j] = lex_min(acc.get(j), z)
        out.append(acc)
    return out


def mat_mul(a: LexMatrix, b: LexMatrix, k: int) -> LexMatrix:
    if a and len(a[0]) != len(b):
        raise DimensionMismatch("matrix shapes do not chain")
    return _dense(_mul_rows(_rows(a), _rows(b), k), len(b[0]) if b else 0)


def _by_head(row: dict) -> dict:
    """The row re-keyed in order of each window's head, UNIT first."""
    return dict(sorted(row.items(), key=lambda item: item[1][0][:1]))


def _mul_tracked_rows(a: list, b: list[dict], k: int) -> list[dict]:
    """Tracked product of sparse rows; ``a`` yields (col, entry) pairs.

    Rows of ``b`` must be in head order (``_by_head``), so that a left
    factor with a non-empty window stops at the first head above its
    tail; the rows returned are in no particular order.  A left window
    that already holds k levels is the window of every product it starts.
    """
    out = []
    for row in a:
        acc: dict = {}
        for t, (wa, ta) in row:
            wk = wa[:k]
            full = len(wa) >= k
            for j, (wb, tb) in b[t].items():
                if not wa:
                    w = wb[:k]
                elif not wb:
                    w, tb = wk, ta
                elif wb[0] > ta:
                    break
                else:
                    w = wk if full else (wa + wb)[:k]
                old = acc.get(j)
                # exact_min: smaller window, then larger tail
                if old is None or w < old[0] or w == old[0] and tb > old[1]:
                    acc[j] = (w, tb)
        out.append(acc)
    return out


def _dense(rows: list[dict], cols: int, entry=lambda x: x) -> LexMatrix:
    out = zero_matrix(len(rows), cols)
    for row, row_out in zip(rows, out):
        for j, x in row.items():
            row_out[j] = entry(x)
    return out


def _mat_mul_tracked(a, b, k):
    """Tracked product of dense matrices."""
    b_rows = [_by_head(row) for row in _rows(b)]
    return _dense(_mul_tracked_rows([r.items() for r in _rows(a)], b_rows, k), len(b[0]))


def closure(a: LexMatrix, k: int) -> LexMatrix:
    """Repeated squaring of (identity + a) until it is stationary.

    Squaring chains truncated prefixes, so it runs on the tail-tracked
    elements, one per entry: on a window tie the larger tail wins.  Only
    the first round squares in full; each later round min-merges
    ``D (x) M (+) M (x) D`` into M, where D holds the entries the previous
    round changed, and the loop ends when D is empty.  Every entry equals
    plain squaring's: a product of two unchanged factors was already a
    candidate for the current entry, which is itself a candidate through
    the UNIT diagonal, and ``exact_min``'s order is total.

    On a flooding graph (the only input ``distances_to_minima`` gives it),
    each (i, j) with j in a regional minimum then holds the minimal
    depth-k weight over all walks from i to j.  On a general graph an
    entry may be larger, or ZERO, where the kept element beat one with a
    larger window and a larger tail that a later factor needed: on edges
    (0,1) (0,2) (0,5) (1,2) (1,5) (2,4) (3,4) weighing 6 6 3 3 3 5 6 at
    k = 2, entry (1, 4) is ZERO though the walk 1-0-2-4 weighs (6, 6).
    ``linear_solve`` with ``method="jordan"`` keeps every such element
    and is exact.
    """
    n = len(a)
    # the rows of identity + a: UNIT wins every diagonal
    m = [_by_head({**{j: lift(x) for j, x in row.items()}, i: UNIT_T})
         for i, row in enumerate(_rows(a))]
    delta = m  # every entry is new: the first round is M (x) M
    while any(delta):
        left = _mul_tracked_rows([d.items() for d in delta], m, k)
        right = [{}] * n if delta is m else _mul_tracked_rows(
            [r.items() for r in m], [_by_head(d) for d in delta], k)
        delta = []
        for i, row in enumerate(m):
            d: dict = {}
            for j, (w, t) in (*left[i].items(), *right[i].items()):
                old = d.get(j) or row.get(j)
                # exact_min: smaller window, then larger tail
                if old is None or w < old[0] or w == old[0] and t > old[1]:
                    d[j] = (w, t)
            delta.append(d)
            if d:  # an unchanged row keeps its head order
                m[i] = _by_head({**row, **d})
    return _dense(m, n, lambda x: x[0])


# ---------------------------------------------------------------------------
# linear solvers for Y = A (x) Y (+) B
# ---------------------------------------------------------------------------


def _solve_jacobi(a: LexMatrix, b: LexMatrix, k: int) -> LexMatrix:
    rows, b_rows = _rows(a), _rows(b)
    y: list[dict] = [{} for _ in b]
    while True:
        y2 = _mul_rows(rows, y, k, b_rows)
        if y2 == y:
            return _dense(y, len(b[0]))
        y = y2


def _solve_gauss_seidel(a: LexMatrix, b: LexMatrix, k: int) -> LexMatrix:
    # strictly-lower part uses the previous sweep, strictly-upper the
    # current one: rows are updated bottom-up within a sweep.
    rows = [{j: x for j, x in row.items() if j != i} for i, row in enumerate(_rows(a))]
    b_rows = _rows(b)
    y: list[dict] = [{} for _ in b]
    while True:
        changed = False
        for i in range(len(b) - 1, -1, -1):
            row = _mul_rows([rows[i]], y, k, [b_rows[i]])[0]
            if row != y[i]:
                y[i] = row
                changed = True
        if not changed:
            return _dense(y, len(b[0]))


def _solve_jordan(a: LexMatrix, b: LexMatrix, k: int) -> LexMatrix:
    # Floyd-Warshall pivoting chains accumulated (truncated) paths, so each
    # entry keeps a Pareto front of tracked elements: one is dropped only
    # for another with a window <= and a tail >= its own, which chains with
    # every suffix it does, no worse.  A single representative would drop
    # i->p as (200,) tail 180 for (190,) tail 100 and lose p->j at 170.
    # Cycles never beat the path they interrupt, so pivoting skips the
    # diagonal, which ends as UNIT.
    n = len(a)
    c = [{j: (lift(x),) for j, x in row.items() if j != i} for i, row in enumerate(_rows(a))]
    for p in range(n):
        for i in range(n):
            front_ip = c[i].get(p)
            if front_ip is None:  # also for i == p: the diagonal is not kept
                continue
            row_i = c[i]
            for j, front_pj in c[p].items():
                if j == i:
                    continue
                front = row_i.get(j, ())
                for wa, ta in front_ip:
                    for wb, tb in front_pj:
                        # exact_chain, inlined
                        if not wa:
                            w, t = wb[:k], tb
                        elif not wb:
                            w, t = wa[:k], ta
                        elif ta < wb[0]:
                            continue
                        else:
                            w, t = (wa + wb)[:k], tb
                        for e in front:
                            if e[0] <= w and e[1] >= t:
                                break  # dominated
                        else:
                            front = row_i[j] = (
                                *(e for e in front if e[0] < w or e[1] > t), (w, t))
    for i in range(n):
        c[i][i] = (UNIT_T,)
    pairs = [((j, x) for j, front in row.items() for x in front) for row in c]
    bt = [_by_head(row) for row in _rows([[lift(x) for x in row] for row in b])]
    return _dense(_mul_tracked_rows(pairs, bt, k), len(b[0]), lambda x: x[0])


def _solve_gondran(a: LexMatrix, b: LexMatrix, k: int) -> LexMatrix:
    # greedy elimination: the smallest remaining b entry is already the
    # solution for its row; substitute and shrink the system.
    n, cols = len(b), len(b[0])
    column = _rows(list(zip(*a)))  # column[j]: the non-ZERO a[i][j] by i
    y = zero_matrix(n, cols)
    for c in range(cols):
        work = [b[i][c] for i in range(n)]
        settled = [False] * n
        for _ in range(n):
            i0 = None
            for i in range(n):
                if not settled[i] and (
                    i0 is None or lex_compare(work[i], work[i0]) < 0
                ):
                    i0 = i
            settled[i0] = True
            y[i0][c] = work[i0]
            if work[i0] is None:
                continue
            for i, x in column[i0].items():
                if not settled[i]:
                    work[i] = lex_min(work[i], lex_chain(x, work[i0], k))
        # unreachable rows keep ZERO
    return y


_SOLVERS = {
    "jacobi": _solve_jacobi,
    "gauss_seidel": _solve_gauss_seidel,
    "jordan": _solve_jordan,
    "gondran": _solve_gondran,
}


def linear_solve(a: LexMatrix, b: LexMatrix, k: int, method: str = "jacobi") -> LexMatrix:
    """Smallest solution of ``Y = A (x) Y (+) B``; equals closure(A) (x) B
    wherever closure is exact."""
    if len(a) != len(b):
        raise DimensionMismatch("A rows != B rows")
    if not b or not b[0]:
        raise DimensionMismatch("B must have at least one column")
    try:
        fn = _SOLVERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None
    return fn(a, [row[:] for row in b], k)


def flooding_distance_matrix(g: WeightedGraph) -> list[list[Optional[int]]]:
    """Pairwise ultrametric flooding distance: min over paths of max edge.

    The depth-1 instantiation of the path algebra where chains need not
    descend (the lexicographic product only follows descents, so it
    covers node-to-minima geodesics; between arbitrary nodes the flood
    must be allowed to climb over passes).  None means unreachable,
    the diagonal is 0.
    """
    if g.num_nodes > MAX_DENSE_NODES:
        raise DimensionMismatch(
            f"dense algebra capped at {MAX_DENSE_NODES} nodes"
        )
    ew = g.require_edge_weights()
    n = g.num_nodes
    d: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for eid, (u, v) in enumerate(g.edges):
        w = ew[eid]
        if d[u][v] is None or w < d[u][v]:
            d[u][v] = d[v][u] = w
    for t in range(n):
        dt = d[t]
        for i in range(n):
            dit = d[i][t]
            if dit is None:
                continue
            row = d[i]
            for j in range(n):
                if dt[j] is None:
                    continue
                via = dit if dit > dt[j] else dt[j]
                if row[j] is None or via < row[j]:
                    row[j] = via
    return d


def distances_to_minima(g: WeightedGraph, k: int, method: str = "closure"):
    """Per-node minimal depth-k weight to the regional minima, with labels.

    Matrix-algebra counterpart of the graph-native algorithms: solve one
    column per minimum and reduce.  Returns (distances, labeling) where
    minima themselves sit at UNIT.  Ties between minima resolve to the
    smallest label.
    """
    labeling = minima_of_flooding(g)
    sets = minima_sets(labeling)
    a = incidence_matrix(g, k)
    n = g.num_nodes
    b = zero_matrix(n, len(sets))
    for c, nodes in enumerate(sets):
        for m in nodes:
            b[m][c] = UNIT
    if method == "closure":
        y = mat_mul(closure(a, k), b, k)
    else:
        y = linear_solve(a, b, k, method)
    dist: list[LexWeight] = []
    labels = []
    for i in range(n):
        best, lab = ZERO, UNSET
        for c in range(len(sets)):
            if lex_compare(y[i][c], best) < 0:
                best, lab = y[i][c], c + 1
        dist.append(best)
        labels.append(lab)
    return dist, Labeling(tuple(labels), "nodes")
