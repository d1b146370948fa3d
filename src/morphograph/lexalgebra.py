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
solvers (Jacobi, Gauss-Seidel, Jordan pivoting, greedy elimination) all
compute the smallest solution of ``Y = A (x) Y (+) B``, which is
``closure(A) (x) B``.  The elimination kernel ``_fronts``, the one place
that tracks truncated tails, serves every exact path, each keeping only
the columns it reads: ``closure`` all of A*, ``distances_to_minima`` the
minima's, and Jordan, which pivots ``[A | B]`` with each column of B a
sink node, B's alone; a column past its pivot, or a sink, keeps only its
least window.  It and the Jacobi and Gauss-Seidel sweeps, which chain
only improved entries, inline the dioid ops.  Dense matrices here
are the oracle path, kept to modest sizes: lists of lists at the public
edges (``closure``, ``linear_solve``, ``incidence_matrix``; all three
refuse k < 1, the first two a non-square A, a ragged B or an entry out
of contract), sparse rows ``{col: entry}`` of the non-ZERO entries
inside.  The graph-native algorithms live in ``geodesics``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

from .errors import DimensionMismatch
from .flooding import minima_of_flooding, minima_sets
from .graphs import Labeling, UNSET, WeightedGraph

# ZERO is None; every other value is a non-increasing tuple of levels.
LexWeight = Optional[tuple[int, ...]]

ZERO: LexWeight = None
UNIT: LexWeight = ()

# Sized by timing (README, "Notes on conventions"); dense loops took 7-10 s here.
MAX_DENSE_NODES = 400


def _require_depth(k: int) -> None:
    if k < 1:
        raise ValueError("depth must be >= 1")


def lex_weight(seq: Sequence[int], k: int) -> LexWeight:
    """Weight of a raw level sequence: ZERO if it ascends anywhere,
    otherwise its first k values."""
    _require_depth(k)
    seq = tuple(seq)
    for a, b in zip(seq, seq[1:]):
        if b > a:
            return ZERO
    return seq[:k]


def lex_compare(a: LexWeight, b: LexWeight) -> int:
    """-1, 0 or 1; ZERO is the maximum, UNIT the minimum."""
    if a is None or b is None:
        return (a is None) - (b is None)
    return (a > b) - (a < b)


def lex_min(a: LexWeight, b: LexWeight) -> LexWeight:
    """The sum of the dioid: keeps the smaller operand."""
    return b if a is None or (b is not None and b < a) else a


def lex_chain(a: LexWeight, b: LexWeight, k: int) -> LexWeight:
    """The product of the dioid: chain prefix ``a`` with suffix ``b``.

    Exact as long as ``a`` is not itself a truncation that hid its true
    last element (prepending single edges, as all the iterative solvers
    and graph algorithms do, is always exact).  Chains of truncated
    prefixes must track the tail instead, as ``_fronts`` does.
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
# the product associative, which chaining accumulated paths relies on.
Tracked = Optional[tuple[tuple[int, ...], int]]

UNIT_T: Tracked = ((), 0)


def lift(w: LexWeight) -> Tracked:
    """Plain (untruncated) weight to its tail-tracked form."""
    if w is None:
        return None
    return (w, w[-1]) if w else UNIT_T


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

LexMatrix = list  # list[list[LexWeight]], rows of equal length


def _incidence_rows(g: WeightedGraph, k: int) -> list[dict]:
    """Sparse rows of the symmetric one-edge weights."""
    _require_depth(k)
    if g.num_nodes > MAX_DENSE_NODES:
        raise DimensionMismatch(
            f"dense algebra capped at {MAX_DENSE_NODES} nodes; "
            "use the graph-native algorithms"
        )
    ew = g.require_edge_weights()
    rows: list[dict] = [{} for _ in range(g.num_nodes)]
    for eid, (u, v) in enumerate(g.edges):
        rows[u][v] = rows[v][u] = (ew[eid],)
    return rows


def incidence_matrix(g: WeightedGraph, k: int) -> LexMatrix:
    """Symmetric matrix with the one-edge weight on every edge slot."""
    return _dense(_incidence_rows(g, k), g.num_nodes)


def _rows(m: LexMatrix) -> list[dict]:
    """Sparse rows ``{col: entry}`` of a dense matrix, ZERO entries dropped."""
    return [{j: x for j, x in enumerate(row) if x is not None} for row in m]


def _require_square(a: LexMatrix) -> None:
    if any(len(row) != len(a) for row in a):
        raise DimensionMismatch("A must be square")


def _require_entries(k: int, *matrices: LexMatrix) -> None:
    """Refuse k < 1 and any entry but ZERO and non-increasing tuples of
    at most k levels, the entries every kernel takes."""
    _require_depth(k)
    for x in (x for m in matrices for row in m for x in row if x is not None):
        if type(x) is not tuple or len(x) > k or any(b > a for a, b in zip(x, x[1:])):
            raise ValueError(
                f"entry {x!r} is not ZERO or a non-increasing tuple of at most {k} levels")


def _dense(rows: list[dict], cols: int) -> LexMatrix:
    return [[row.get(j) for j in range(cols)] for row in rows]


def _upward(rows: list[dict]) -> list[int]:
    """Row ids in ascending order of each row's least entry, empty rows
    last; a flooding graph's incidence row has its node's level as its
    least entry, so this is the order of the levels, from the minima up."""
    least = {i: min(row.values()) for i, row in enumerate(rows) if row}
    return sorted(least, key=least.__getitem__) + [i for i, row in enumerate(rows) if not row]


def _fronts(rows: list[dict], k: int, pivots: list[int], keep: Optional[set] = None) -> list[dict]:
    """Per-row ``{j: front}``: the walks i -> j of A as a Pareto front of
    tracked elements, by Floyd-Warshall pivoting on ``pivots`` in turn,
    which must hold every node a walk can pass through, in any order;
    the diagonal is UNIT.  ``closure`` reads it on A, Jordan on ``[A | B]``
    with B's columns as sink nodes.  A lexicographic walk never climbs,
    so pivoting from the lowest level up (``_upward``) keeps each pivot's
    column short, a column index ``col`` visits only the rows holding an
    entry in it, and a new entry is set as one element, without a scan.
    Columns not in ``keep`` (default: all kept) drop each entry (i, p)
    once pivot p has read it, Gauss-Jordan style: no row holds column p
    after that, so no later pivot touches it.

    Pivoting chains accumulated (truncated) paths, so one element per
    entry is not enough: one is dropped only for another with a window
    <= and a tail >= its own, which chains with every suffix it does, no
    worse.  A single representative would drop i->p as (200,) tail 180
    for (190,) tail 100 and lose p->j at 170.  That holds while a column
    is open, until its pivot.  A finished column, pivoted or a sink, is
    read only as a right factor and for its least window, which alone is
    kept: its head is the smallest, so it chains whenever another element
    does, and order survives concatenation and truncation, so it gives
    the least product.  Cycles never beat the path they interrupt, so
    pivoting skips the diagonal.
    """
    c = [{j: (lift(x),) for j, x in row.items() if j != i} for i, row in enumerate(rows)]
    col: list[list] = [[] for _ in c]  # col[j]: the rows holding an entry at j
    for i, row in enumerate(c):
        for j in row:
            col[j].append(i)
    pending = set(pivots)  # the open columns
    for p in pivots:
        row_p = c[p]
        drop = keep is not None and p not in keep
        for i in col[p]:  # never p itself: the diagonal is not kept
            row_i = c[i]
            front_ip = row_i.pop(p) if drop else row_i[p]
            for j, front_pj in row_p.items():
                if j == i:
                    continue
                front = row_i.get(j)
                for wa, ta in front_ip:
                    for wb, tb in front_pj:
                        # windows chain, cut to k, unless the left tail is under the right head
                        if not wa:
                            w, t = wb[:k], tb
                        elif not wb:
                            w, t = wa[:k], ta
                        elif ta < wb[0]:
                            continue
                        else:
                            w, t = (wa + wb)[:k], tb
                        if front is None:  # a new entry: nothing to dominate
                            col[j].append(i)
                            front = row_i[j] = ((w, t),)
                        elif j not in pending:  # a finished column: the least window alone
                            if w < front[0][0]:
                                front = row_i[j] = ((w, t),)
                        else:
                            for we, te in front:
                                if we <= w and te >= t:
                                    break  # dominated
                            else:
                                front = row_i[j] = (
                                    *[e for e in front if e[0] < w or e[1] > t], (w, t))
        pending.discard(p)  # column p is finished
        for i in col[p] if not drop else ():
            c[i][p] = (min(c[i][p]),)
    for i, row in enumerate(c):
        row[i] = (UNIT_T,)
    return c


def _closure_rows(a: list[dict], k: int, pivots: list[int]) -> list[dict]:
    """The least window of each front."""
    return [{j: min(front)[0] for j, front in row.items()} for row in _fronts(a, k, pivots)]


def closure(a: LexMatrix, k: int) -> LexMatrix:
    """A* = I (+) A (+) A^2 (+) ...: entry (i, j) is the minimal depth-k
    weight over all walks from i to j, UNIT on the diagonal.

    It reads the least window of each Pareto front of the elimination
    on A (``_fronts``), so it is exact on every graph, general or
    flooding.  A must be square.
    """
    _require_square(a)
    _require_entries(k, a)
    rows = _rows(a)
    return _dense(_closure_rows(rows, k, _upward(rows)), len(a))


# ---------------------------------------------------------------------------
# linear solvers for Y = A (x) Y (+) B, on sparse rows
# ---------------------------------------------------------------------------


def _solve_gauss_seidel(a: list[dict], b: list[dict], k: int, at_once: bool = True) -> list[dict]:
    # semi-naive sweeps: y only improves, and prepending an entry of A
    # distributes over the min, so a row chains only the entries its
    # neighbours improved since it last read them: pending[i] holds them as
    # {neighbour: {col: value}}, B's entries first.  A sweep visits the rows
    # from the lowest level up (_upward); Gauss-Seidel hands an improvement
    # to its readers at once, Jacobi in the next sweep.  Readers share a
    # delta and merge into it: all holding it await the same later ones.
    # The diagonal is dropped: a cycle never beats the path it interrupts
    rows = [{j: x for j, x in row.items() if j != i} for i, row in enumerate(a)]
    readers: list[list] = [[] for _ in a]
    for i, row in enumerate(rows):
        for j in row:
            readers[j].append(i)
    order = _upward(a)
    y = [dict(row) for row in b]
    pending = [{t: dict(b[t]) for t in row if b[t]} for row in rows]
    while any(pending):
        out = pending if at_once else [{} for _ in b]
        for i in order:
            if not pending[i]:
                continue
            got, pending[i] = pending[i], {}
            yi, row, new = y[i], rows[i], {}
            for t, delta in got.items():
                x = row[t]
                tail = x[-1] if x else None
                for j, v in delta.items():  # lex_chain and lex_min inlined
                    if v and tail is not None and tail < v[0]:
                        continue  # ZERO
                    z = (x + v)[:k]
                    old = yi.get(j)
                    if old is None or z < old:
                        yi[j] = new[j] = z
            for r in readers[i] if new else ():
                out[r].setdefault(i, new).update(new)
        pending = out
    return y


def _solve_jacobi(a: list[dict], b: list[dict], k: int) -> list[dict]:
    return _solve_gauss_seidel(a, b, k, at_once=False)


def _solve_jordan(a: list[dict], b: list[dict], k: int) -> list[dict]:
    # pivot [A | B]: column c of B is a sink node n + c, entered by the
    # edges of B and left by none, so the fronts into it are A* (x) B; A's
    # rows alone order the pivots (B's UNITs would tie them), no sink is one;
    # only the sinks are read, so each pivoted column is dropped (keep=set())
    n = len(a)
    rows = [{**row, **{n + c: x for c, x in brow.items()}} for row, brow in zip(a, b)]
    rows += [{} for _ in range(1 + max((c for brow in b for c in brow), default=-1))]
    return [{j - n: min(front)[0] for j, front in row.items() if j >= n}
            for row in _fronts(rows, k, _upward(a), keep=set())[:n]]


def _solve_gondran(a: list[dict], b: list[dict], k: int) -> list[dict]:
    # greedy elimination: the smallest remaining b entry is already the
    # solution for its row; substitute and shrink the system.  A heap pops
    # the least (value, row) first, as a scan of the work set would; a row
    # settles at its first pop, and its stale later entries are skipped
    column: list[dict] = [{} for _ in a]  # column[j]: the a[i][j] by i
    for i, row in enumerate(a):
        for j, x in row.items():
            column[j][i] = x
    b_columns: dict = {}
    for i, row in enumerate(b):
        for c, x in row.items():
            b_columns.setdefault(c, {})[i] = x
    y: list[dict] = [{} for _ in b]
    for c, work in b_columns.items():
        heap = [(x, i) for i, x in work.items()]
        heapify(heap)
        while heap:  # rows never pushed are unreachable and keep ZERO
            x, i0 = heappop(heap)
            if c in y[i0]:
                continue  # a stale entry: its row is settled
            y[i0][c] = x
            for i, w in column[i0].items():
                if c not in y[i]:
                    z = lex_chain(w, x, k)
                    if z is not None and (i not in work or z < work[i]):
                        work[i] = z
                        heappush(heap, (z, i))
    return y


_SOLVERS = {
    "jacobi": _solve_jacobi,
    "gauss_seidel": _solve_gauss_seidel,
    "jordan": _solve_jordan,
    "gondran": _solve_gondran,
}


def _solver(method: str):
    try:
        return _SOLVERS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None


def linear_solve(a: LexMatrix, b: LexMatrix, k: int, method: str = "jacobi") -> LexMatrix:
    """Smallest solution of ``Y = A (x) Y (+) B``, which is closure(A) (x) B.

    A must be square, and B must have A's row count and at least one
    column, every row as long as the first.  ``jordan`` eliminates on
    ``[A | B]``, so it is exact on every system, as ``closure`` is.
    """
    _require_square(a)
    if len(a) != len(b):
        raise DimensionMismatch("A rows != B rows")
    if not b or not b[0]:
        raise DimensionMismatch("B must have at least one column")
    if any(len(row) != len(b[0]) for row in b):
        raise DimensionMismatch("B rows differ in length")
    _require_entries(k, a, b)
    return _dense(_solver(method)(_rows(a), _rows(b), k), len(b[0]))


def distances_to_minima(g: WeightedGraph, k: int, method: str = "closure"):
    """Per-node minimal depth-k weight to the regional minima, with labels.

    Matrix-algebra counterpart of the graph-native algorithms: solve one
    column per minimum and reduce.  B is UNIT only on the minima's rows,
    so A* (x) B reads A* only at their columns, and ``closure`` keeps
    just those as it eliminates A (``_fronts``).  Returns (distances,
    labeling) where minima themselves sit at UNIT.  Ties between minima
    resolve to the smallest label.
    """
    _require_depth(k)
    a = _incidence_rows(g, k)
    minima = [(m, c) for c, nodes in enumerate(minima_sets(minima_of_flooding(g))) for m in nodes]
    if method == "closure":  # (label, least window) per minimum node in the row
        y = [[(c, min(row[m])[0]) for m, c in minima if m in row]
             for row in _fronts(a, k, _upward(a), {m for m, _ in minima})]
    else:
        b: list[dict] = [{} for _ in a]
        for m, c in minima:
            b[m][c] = UNIT
        y = [row.items() for row in _solver(method)(a, b, k)]
    best = [min(((x, c + 1) for c, x in row), default=(ZERO, UNSET)) for row in y]
    return [x for x, _ in best], Labeling(tuple(lab for _, lab in best), "nodes")
