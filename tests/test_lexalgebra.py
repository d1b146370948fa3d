import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphograph import (
    DimensionMismatch,
    UNIT,
    WeightedGraph,
    ZERO,
    closure,
    incidence_matrix,
    lex_chain,
    lex_compare,
    lex_min,
    lex_weight,
    linear_solve,
)
from morphograph.lexalgebra import UNIT_T, _upward, lift
from conftest import (
    brute_flooding_distance, enumerate_walks, flooding_distance_matrix, random_edge_weighted, rows,
)


# -- tail-tracked arithmetic, the oracle of the elimination kernel ------------


def exact_chain(a, b, k):
    """Chain two tail-tracked elements: windows concatenate, truncated to
    k, unless the left tail lies below the right window's head."""
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


def exact_min(a, b):
    """Smaller window wins; on a window tie the larger tail dominates
    (it chains with everything the smaller one does)."""
    if a is None:
        return b
    if b is None:
        return a
    if a[0] != b[0]:
        return a if a[0] < b[0] else b
    return a if a[1] >= b[1] else b


# -- dense reference matrices, the oracles of the sparse kernels --------------


def zero_matrix(rows, cols=None):
    cols = rows if cols is None else cols
    return [[ZERO] * cols for _ in range(rows)]


def identity_matrix(n):
    m = zero_matrix(n)
    for i in range(n):
        m[i][i] = UNIT
    return m


def mat_add(a, b):
    return [[lex_min(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b, k):
    """Plain product, one lex_chain per slot."""
    cols = len(b[0]) if b else 0
    out = zero_matrix(len(a), cols)
    for i, row in enumerate(a):
        for t, x in enumerate(row):
            for j in range(cols):
                out[i][j] = lex_min(out[i][j], lex_chain(x, b[t][j], k))
    return out


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


# -- the kernels before level-ordered pivots and change-driven sweeps ---------
# Kept with their bodies unchanged as the oracles of lexalgebra's
# ``_fronts``, ``_solve_jacobi`` and ``_solve_gauss_seidel``; ``_mul_row``
# is the row kernel the solvers below recompute whole rows with.


def _mul_rows_by_dioid_ops(a: list[dict], b: list[dict], k: int, add=None) -> list[dict]:
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


def _mul_row(row: dict, b: list[dict], k: int, add: dict) -> dict:
    """One sparse row times the rows ``b``, plus the row ``add``; ``lex_chain``
    and ``lex_min`` inlined, the left entry's tail read once."""
    acc = dict(add)
    for t, x in row.items():
        tail = x[-1] if x else None
        for j, y in b[t].items():
            if tail is None:
                z = y[:k]
            elif not y:
                z = x[:k]
            elif tail < y[0]:
                continue  # ZERO
            else:
                z = (x + y)[:k]
            old = acc.get(j)
            if old is None or z < old:
                acc[j] = z
    return acc


def _pixel_order_fronts(rows: list[dict], k: int) -> list[dict]:
    """Per-row ``{j: front}`` by Floyd-Warshall pivoting in row order."""
    n = len(rows)
    c = [{j: (lift(x),) for j, x in row.items() if j != i} for i, row in enumerate(rows)]
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
                        # windows chain, cut to k, unless the left tail is under the right head
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
    return c


def test_row_product_matches_the_dioid_ops(rng):
    # _mul_row inlines lex_chain and lex_min; on sparse rows with UNIT
    # entries, empty rows and with or without ``add`` rows it must give the
    # rows of the dioid ops, each with its keys in the same order
    def entry(k):
        return tuple(sorted((rng.randint(0, 6) for _ in range(rng.randint(0, k))), reverse=True))

    def sparse(rows, cols, k):
        return [{j: entry(k) for j in range(cols) if rng.random() < rng.choice((0.0, 0.3, 0.8))}
                for _ in range(rows)]

    for _ in range(2000):
        n, m, cols, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
        a, b = sparse(n, m, k), sparse(m, cols, k)
        add = sparse(n, cols, k) if rng.random() < 0.5 else None
        got = [_mul_row(row, b, k, add[i] if add else {}) for i, row in enumerate(a)]
        want = _mul_rows_by_dioid_ops(a, b, k, add)
        assert [list(row.items()) for row in got] == [list(row.items()) for row in want]


def _full_sweep_jacobi(a: list[dict], b: list[dict], k: int) -> list[dict]:
    y: list[dict] = [{} for _ in b]
    while True:
        y2 = _mul_rows_by_dioid_ops(a, y, k, b)
        if y2 == y:
            return y
        y = y2


def _bottom_up_gauss_seidel(a: list[dict], b: list[dict], k: int) -> list[dict]:
    # strictly-lower part uses the previous sweep, strictly-upper the
    # current one: rows are updated bottom-up within a sweep.
    rows = [{j: x for j, x in row.items() if j != i} for i, row in enumerate(a)]
    y: list[dict] = [{} for _ in b]
    while True:
        changed = False
        for i in range(len(b) - 1, -1, -1):
            row = _mul_rows_by_dioid_ops([rows[i]], y, k, [b[i]])[0]
            if row != y[i]:
                y[i] = row
                changed = True
        if not changed:
            return y


def _solve_jordan_by_product(a: list[dict], b: list[dict], k: int) -> list[dict]:
    """Jordan as the tracked product of A's fronts by B: the oracle of
    the elimination on [A | B]."""
    pairs = [((j, x) for j, front in row.items() for x in front)
             for row in _pixel_order_fronts(a, k)]
    bt = [_by_head({j: lift(x) for j, x in row.items()}) for row in b]
    return [{j: w for j, (w, _) in row.items()} for row in _mul_tracked_rows(pairs, bt, k)]


def _mat_mul_tracked(a, b, k):
    """Tracked product of dense matrices through the sparse kernel."""
    cols = len(b[0]) if b else 0
    a_pairs = [[(t, x) for t, x in enumerate(row) if x is not None] for row in a]
    b_rows = [_by_head({j: x for j, x in enumerate(row) if x is not None}) for row in b]
    return [[row.get(j) for j in range(cols)] for row in _mul_tracked_rows(a_pairs, b_rows, k)]


# -- the solvers before semi-naive sweeps and the heap -------------------------
# Kept with their bodies unchanged as the oracles of lexalgebra's
# ``_solve_gauss_seidel``, ``_solve_jacobi`` and ``_solve_gondran``.


def _recomputing_gauss_seidel(a: list[dict], b: list[dict], k: int, at_once: bool = True) -> list[dict]:
    # a sweep computes the rows from the lowest level up (_upward), each
    # from the new values of the rows before it, but only the rows that
    # read a row changed since their last computation; the diagonal is
    # dropped, as a cycle never beats the path it interrupts
    rows = [{j: x for j, x in row.items() if j != i} for i, row in enumerate(a)]
    readers: list[list] = [[] for _ in a]
    for i, row in enumerate(rows):
        for j in row:
            readers[j].append(i)
    order = _upward(a)
    y: list[dict] = [{} for _ in b]
    stale = [True] * len(b)
    while any(stale):
        src, marks = (y, stale) if at_once else (list(y), [False] * len(b))
        for i in order:
            if stale[i]:
                stale[i] = False
                row = _mul_row(rows[i], src, k, b[i])
                if row != y[i]:
                    y[i] = row
                    for r in readers[i]:
                        marks[r] = True
        stale = marks
    return y


def _scanning_gondran(a: list[dict], b: list[dict], k: int) -> list[dict]:
    # greedy elimination: the smallest remaining b entry is already the
    # solution for its row; substitute and shrink the system.
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
        while work:  # rows left out of work are unreachable and keep ZERO
            x, i0 = min((x, i) for i, x in work.items())
            del work[i0]
            y[i0][c] = x
            for i, w in column[i0].items():
                if c not in y[i]:
                    z = lex_chain(w, x, k)
                    if z is not None:
                        work[i] = lex_min(work.get(i), z)
    return y


def test_lex_weight_examples():
    assert lex_weight((3, 2), 2) == (3, 2)
    assert lex_weight((1, 4), 2) is ZERO
    assert lex_weight((5, 5, 2), 2) == (5, 5)
    assert lex_weight((), 3) == UNIT


def test_lex_compare_paper_toughness():
    # the chain with two weight-2 crossings beats the [3,2] one
    assert lex_compare((2, 2), (3, 2)) == -1


def test_lex_compare_zero_is_maximum():
    assert lex_compare((9, 9, 9), ZERO) == -1
    assert lex_compare(ZERO, ZERO) == 0
    assert lex_compare(UNIT, (0,)) == -1


def test_lex_compare_elementwise():
    assert lex_compare((2, 1), (2, 2)) == -1
    assert lex_compare((3,), (3, 2)) == -1  # ended track beats its extension


def test_lex_min():
    assert lex_min(ZERO, (3,)) == (3,)
    assert lex_min((2, 2), (3, 2)) == (2, 2)
    a = (4, 1)
    assert lex_min(a, a) == a


def test_lex_chain():
    assert lex_chain((3, 2), (2, 1), 2) == (3, 2)
    assert lex_chain((3, 2), (4, 1), 2) is ZERO  # 2 < 4 breaks the descent
    assert lex_chain((5,), ZERO, 2) is ZERO
    assert lex_chain(UNIT, (4, 2), 2) == (4, 2)
    assert lex_chain((4, 2), UNIT, 2) == (4, 2)


# -- dioid axioms ------------------------------------------------------------

seqs = st.lists(st.integers(0, 5), min_size=0, max_size=4).map(
    lambda v: tuple(sorted(v, reverse=True))
)
lex_values = st.one_of(st.none(), seqs)


@settings(max_examples=400, deadline=None)
@given(lex_values, lex_values, lex_values)
def test_dioid_axioms_plain(a, b, c):
    # plain windows are exact while nothing is truncated away, so sample
    # within the depth bound
    k = 12
    assert lex_min(a, b) == lex_min(b, a)
    assert lex_min(lex_min(a, b), c) == lex_min(a, lex_min(b, c))
    assert lex_min(a, a) == a
    assert lex_min(a, ZERO) == a
    assert lex_chain(lex_chain(a, b, k), c, k) == lex_chain(a, lex_chain(b, c, k), k)
    assert lex_chain(a, ZERO, k) is ZERO and lex_chain(ZERO, a, k) is ZERO
    if a is not None:
        assert lex_chain(a, UNIT, k) == a
        assert lex_chain(UNIT, a, k) == a
    # distributivity over the sum (the prefix side is exact in general;
    # the suffix side needs the discarded operand to chain no better,
    # which is how every solver uses it)
    assert lex_chain(a, lex_min(b, c), k) == lex_min(
        lex_chain(a, b, k), lex_chain(a, c, k)
    )
    lhs = lex_chain(lex_min(a, b), c, k)
    rhs = lex_min(lex_chain(a, c, k), lex_chain(b, c, k))
    assert lhs is ZERO or lhs == rhs


@settings(max_examples=400, deadline=None)
@given(lex_values, lex_values, lex_values, st.integers(1, 3))
def test_dioid_axioms_tracked(a, b, c, k):
    # the tail-tracked elements keep associativity under truncation, and
    # distribute up to tail refinement (equal windows, better tail kept)

    def window(x):
        return None if x is None else x[0]

    ta, tb, tc = lift(a), lift(b), lift(c)
    assert exact_min(ta, tb) == exact_min(tb, ta)
    assert exact_min(exact_min(ta, tb), tc) == exact_min(ta, exact_min(tb, tc))
    assert exact_min(ta, ta) == ta
    assert exact_min(ta, None) == ta
    assert exact_chain(exact_chain(ta, tb, k), tc, k) == exact_chain(
        ta, exact_chain(tb, tc, k), k
    )
    assert exact_chain(ta, None, k) is None and exact_chain(None, ta, k) is None
    lhs = exact_chain(ta, exact_min(tb, tc), k)
    rhs = exact_min(exact_chain(ta, tb, k), exact_chain(ta, tc, k))
    assert window(lhs) == window(rhs)


# -- matrices ----------------------------------------------------------------


def test_incidence_single_edge():
    g = WeightedGraph(2, ((0, 1),), None, (5,))
    a = incidence_matrix(g, 2)
    assert a[0][1] == (5,) and a[1][0] == (5,)
    assert a[0][0] is ZERO


def test_incidence_path4_is_tridiagonal(path4):
    a = incidence_matrix(path4, 2)
    for i in range(4):
        for j in range(4):
            if abs(i - j) == 1:
                assert a[i][j] == (path4.edge_weights[min(i, j)],)
            else:
                assert a[i][j] is ZERO


def test_incidence_no_edges_is_zero_matrix():
    g = WeightedGraph(3, (), None, ())
    assert incidence_matrix(g, 1) == zero_matrix(3)


def test_incidence_size_cap():
    big = WeightedGraph(3000, (), None, ())
    with pytest.raises(DimensionMismatch):
        incidence_matrix(big, 1)


def test_closure_of_zero_matrix_is_identity():
    assert closure(zero_matrix(4), 2) == identity_matrix(4)


def test_closure_three_node_descending_path():
    g = WeightedGraph(3, ((0, 1), (1, 2)), None, (3, 2))
    st_ = closure(incidence_matrix(g, 2), 2)
    assert st_[0][2] == (3, 2)
    assert st_[2][0] is ZERO  # the reverse chain ascends
    assert st_[0][1] == (3,) and st_[1][2] == (2,)
    # at depth 1 the descending entries carry the min-max path weight
    st1 = closure(incidence_matrix(g, 1), 1)
    assert st1[0][2] == (max(3, 2),)
    assert st1[0][1] == (3,) and st1[1][2] == (2,)


def test_closure_is_stationary(rng):
    from morphograph.lexalgebra import lift

    for _ in range(20):
        g = random_edge_weighted(rng, 7)
        k = rng.randint(1, 3)
        a = incidence_matrix(g, k)
        n = g.num_nodes
        m = [[lift(x) for x in row] for row in mat_add(identity_matrix(n), a)]
        while True:
            m2 = _mat_mul_tracked(m, m, k)
            if m2 == m:
                break
            m = m2
        # one more multiplication changes nothing
        assert _mat_mul_tracked(m2, m2, k) == m2


def test_closure_equals_jacobi_and_gondran(rng):
    # closure reads Jordan's fronts; with identity B the iterative and
    # the greedy solvers give A* on every graph, general or flooding
    from morphograph.flooding import as_flooding
    from morphograph.formats import pixel_graph

    cases = [(zero_matrix(n), k) for n in range(1, 5) for k in (1, 3)]
    cases += [([[ZERO]], 2), ([[(4,)]], 1), ([[UNIT]], 3)]
    for i in range(1000):
        g = random_edge_weighted(rng, 14, w_max=rng.choice((2, 6, 20)),
                                 edge_prob=rng.choice((0.2, 0.4, 0.7)))
        k = 1 + i % 4
        cases.append((incidence_matrix(g, k), k))
    for connectivity in (4, 8):
        for levels, k in ((4, 2), (8, 3)):
            pixels = [rng.randrange(levels) for _ in range(64)]
            fg = as_flooding(pixel_graph(8, 8, pixels, connectivity))
            cases.append((incidence_matrix(fg, k), k))
    assert closure([], 2) == []
    for a, k in cases:
        st_ = closure(a, k)
        for method in ("jacobi", "gondran"):
            assert linear_solve(a, identity_matrix(len(a)), k, method) == st_


def test_closure_matches_walk_enumeration(rng):
    for _ in range(15):
        g = random_edge_weighted(rng, 5)
        k = rng.randint(1, 3)
        st_ = closure(incidence_matrix(g, k), k)
        ew, adj = g.edge_weights, [dict(r) for r in rows(g)]
        for x in range(g.num_nodes):
            best = [None if x != y else UNIT for y in range(g.num_nodes)]
            for walk in enumerate_walks(g, x, g.num_nodes - 1):
                w = lex_weight(
                    [ew[adj[walk[t]][walk[t + 1]]] for t in range(len(walk) - 1)],
                    k,
                )
                best[walk[-1]] = lex_min(best[walk[-1]], w)
            assert best == st_[x]


def test_tracked_product_matches_reference_fold(rng):
    # the sparse kernel inlines exact_chain and exact_min and skips heads
    # above the left tail; the plain fold over every slot is the reference

    def tracked():
        if rng.random() < 0.4:
            return None
        w = tuple(sorted((rng.randint(0, 5) for _ in range(rng.randint(0, 4))), reverse=True))
        return (w, rng.randint(0, w[-1])) if w else ((), 0)

    for _ in range(200):
        n, inner, cols, k = (rng.randint(1, 5) for _ in range(4))
        a = [[tracked() for _ in range(inner)] for _ in range(n)]
        b = [[tracked() for _ in range(cols)] for _ in range(inner)]
        want = [[None] * cols for _ in range(n)]
        for i in range(n):
            for t in range(inner):
                for j in range(cols):
                    want[i][j] = exact_min(want[i][j], exact_chain(a[i][t], b[t][j], k))
        assert _mat_mul_tracked(a, b, k) == want


def test_matrix_power_stabilizes_at_n_minus_one(rng):
    from morphograph.lexalgebra import lift

    for _ in range(20):
        g = random_edge_weighted(rng, 6)
        k = 2
        n = g.num_nodes
        m = [
            [lift(x) for x in row]
            for row in mat_add(identity_matrix(n), incidence_matrix(g, k))
        ]
        powers = [[[lift(x) for x in row] for row in identity_matrix(n)]]
        for _i in range(n + 1):
            powers.append(_mat_mul_tracked(powers[-1], m, k))
        assert powers[n] == powers[max(n - 1, 0)]


def test_solve_with_identity_gives_closure(rng):
    for method in ("jacobi", "gauss_seidel", "jordan", "gondran"):
        g = random_edge_weighted(rng, 6)
        k = 2
        a = incidence_matrix(g, k)
        assert linear_solve(a, identity_matrix(g.num_nodes), k, method) == closure(a, k)


def test_solve_indicator_column_is_closure_column(rng):
    g = random_edge_weighted(rng, 7)
    k = 2
    a = incidence_matrix(g, k)
    st_ = closure(a, k)
    n = g.num_nodes
    col = 3 % n
    b = [[UNIT if i == col else ZERO] for i in range(n)]
    y = linear_solve(a, b, k, "jacobi")
    assert [row[0] for row in y] == [st_[i][col] for i in range(n)]


def test_all_methods_agree(rng):
    for _ in range(25):
        g = random_edge_weighted(rng, 6)
        k = rng.randint(1, 3)
        a = incidence_matrix(g, k)
        n = g.num_nodes
        b = [
            [UNIT if rng.random() < 0.3 else ZERO for _ in range(2)] for _ in range(n)
        ]
        ref = mat_mul(closure(a, k), b, k)
        for method in ("jacobi", "gauss_seidel", "jordan", "gondran"):
            assert linear_solve(a, b, k, method) == ref


def test_solve_shape_checks():
    # a non-square A would give B's sink columns the ids of A's own
    # columns, and a ragged B would be padded or cut without a word
    wide = zero_matrix(2, 3)
    ragged = [[UNIT], [UNIT, (2,)]]
    cases = [(zero_matrix(3), zero_matrix(2)), (wide, zero_matrix(2, 1)),
             (zero_matrix(2), ragged), (zero_matrix(2), [[UNIT, ZERO], [UNIT]])]
    for a, b in cases:
        for method in ("jacobi", "gauss_seidel", "jordan", "gondran"):
            with pytest.raises(DimensionMismatch):
                linear_solve(a, b, 1, method)
    for a in (wide, zero_matrix(3, 2), [[ZERO, ZERO], [ZERO]]):
        with pytest.raises(DimensionMismatch):
            closure(a, 1)


METHODS = ("jacobi", "gauss_seidel", "jordan", "gondran")


def test_depths_below_one_are_refused():
    # closure(a, 0) gave one-level windows such as (1,), incidence_matrix
    # at k = 0 put UNIT on every edge slot, lex_weight((3, 2), -1) gave (3,)
    a = [[ZERO, (3,)], [(1,), ZERO]]
    b = [[UNIT], [ZERO]]
    g = WeightedGraph(2, ((0, 1),), None, (5,))
    for k in (0, -1):
        refused = [lambda: closure(a, k), lambda: incidence_matrix(g, k),
                   lambda: incidence_matrix(WeightedGraph(3, (), None, ()), k),
                   lambda: lex_weight((3, 2), k)]
        refused += [lambda m=m: linear_solve(a, b, k, m) for m in METHODS]
        for call in refused:
            with pytest.raises(ValueError, match="depth must be >= 1"):
                call()


def test_entries_deeper_than_k_are_refused():
    # at k = 1 closure returned (3, 2, 1) untruncated, while all four
    # linear_solve methods returned (3,)
    a = [[ZERO, (3, 2, 1)], [ZERO, ZERO]]
    with pytest.raises(ValueError, match="at most 1 levels"):
        closure(a, 1)
    for m in METHODS:
        with pytest.raises(ValueError, match="at most 1 levels"):
            linear_solve(a, [[UNIT], [UNIT]], 1, m)
        with pytest.raises(ValueError, match="at most 1 levels"):
            linear_solve(zero_matrix(2), [[(3, 2)], [UNIT]], 1, m)
    assert closure(a, 3)[0][1] == (3, 2, 1)  # within the depth it is kept


def test_ascending_and_non_tuple_entries_are_refused():
    for bad in ((1, 3), (2, 2, 5), [2], 2):
        a = [[ZERO, bad], [ZERO, ZERO]]
        with pytest.raises(ValueError, match="non-increasing tuple"):
            closure(a, 3)
        for m in METHODS:
            with pytest.raises(ValueError, match="non-increasing tuple"):
                linear_solve(a, [[UNIT], [UNIT]], 3, m)
            with pytest.raises(ValueError, match="non-increasing tuple"):
                linear_solve(zero_matrix(2), [[ZERO], [bad]], 3, m)


# -- depth-1 flooding instantiation ------------------------------------------


def test_flooding_matrix_matches_bruteforce(rng):
    for _ in range(20):
        g = random_edge_weighted(rng, 7)
        d = flooding_distance_matrix(g)
        for x in range(g.num_nodes):
            for y in range(g.num_nodes):
                assert d[x][y] == brute_flooding_distance(g, x, y)


def test_depth1_to_minima_equals_flooding_distance(rng):
    # on a flooding graph the two depth-1 instantiations coincide for
    # node-to-minima distances, where geodesics are pure descents
    from morphograph import dijkstra_to_minima
    from morphograph.flooding import minima_of_flooding, minima_sets
    from conftest import random_flooding

    for _ in range(40):
        fg = random_flooding(rng, 8)
        dists, _ = dijkstra_to_minima(fg, 1)
        d = flooding_distance_matrix(fg)
        span = {i for m in minima_sets(minima_of_flooding(fg)) for i in m}
        for i in range(fg.num_nodes):
            best = min(
                (d[i][m] for m in span if d[i][m] is not None), default=None
            )
            if i in span:
                assert dists[i] == ()
            elif best is None:
                assert dists[i] is None
            else:
                assert dists[i] == (best,)


def test_flooding_matrix_is_ultrametric(rng):
    for _ in range(20):
        g = random_edge_weighted(rng, 7)
        d = flooding_distance_matrix(g)
        n = g.num_nodes
        for x in range(n):
            assert d[x][x] == 0
            for y in range(n):
                assert d[x][y] == d[y][x]
                for z in range(n):
                    if None not in (d[x][y], d[y][z], d[x][z]):
                        assert d[x][z] <= max(d[x][y], d[y][z])


# -- exactness of the per-minimum solutions ------------------------------------


def _per_minimum_system(fg, k):
    """The incidence matrix and the per-minimum UNIT columns that
    ``distances_to_minima`` solves."""
    from morphograph.flooding import minima_of_flooding, minima_sets

    sets = minima_sets(minima_of_flooding(fg))
    b = zero_matrix(fg.num_nodes, len(sets))
    for c, nodes in enumerate(sets):
        for m in nodes:
            b[m][c] = UNIT
    return incidence_matrix(fg, k), b


def _quantized_pixel_flooding(rng):
    from morphograph.flooding import as_flooding
    from morphograph.formats import pixel_graph

    width, height = rng.randint(8, 12), rng.randint(8, 12)
    levels = rng.choice((4, 8, 16))
    pixels = [rng.randrange(levels) for _ in range(width * height)]
    return as_flooding(pixel_graph(width, height, pixels, rng.choice((4, 8))))


def test_jordan_columns_match_gondran_on_pixel_floodings(rng):
    # pivoting chains truncated paths: a single tracked element per entry
    # loses a path whose larger window still chains further on, which
    # left non-minimal columns on nearly every such image
    for _ in range(12):
        fg = _quantized_pixel_flooding(rng)
        k = rng.randint(1, 3)
        a, b = _per_minimum_system(fg, k)
        assert linear_solve(a, b, k, "jordan") == linear_solve(a, b, k, "gondran")


def _random_systems(rng):
    """1,500 random systems ``(A, B, k)`` and 6 per-minimum systems of
    quantized pixel floodings with an all-ZERO column added to B.
    Entries hold at most k levels, the solvers' contract; all-ZERO rows
    and columns of A and B are drawn on purpose."""

    def entry(k):
        if rng.random() < 0.5:
            return ZERO
        return tuple(sorted((rng.randint(0, 6) for _ in range(rng.randint(0, k))), reverse=True))

    cases = []
    for _ in range(1500):
        n, cols, k = rng.randint(1, 9), rng.randint(1, 4), rng.randint(1, 4)
        a = [[entry(k) for _ in range(n)] for _ in range(n)]
        b = [[entry(k) for _ in range(cols)] for _ in range(n)]
        a[rng.randrange(n)] = [ZERO] * n
        b[rng.randrange(n)] = [ZERO] * cols
        a_col, b_col = rng.randrange(n), rng.randrange(cols)
        for a_row, b_row in zip(a, b):
            a_row[a_col] = b_row[b_col] = ZERO
        cases.append((a, b, k))
    for _ in range(6):
        k = rng.randint(1, 3)
        a, b = _per_minimum_system(_quantized_pixel_flooding(rng), k)
        cases.append((a, [row + [ZERO] for row in b], k))
    return cases


def test_jordan_on_the_augmented_system_matches_the_product_oracle(rng):
    # Jordan pivots [A | B]; the oracle multiplies A's fronts by B with the
    # tracked product, and Gondran and Jacobi solve the system their own way
    from morphograph.lexalgebra import _rows

    for a, b, k in _random_systems(rng):
        cols = len(b[0])
        oracle = _solve_jordan_by_product(_rows(a), _rows(b), k)
        want = [[row.get(j) for j in range(cols)] for row in oracle]
        for method in ("jordan", "gondran", "jacobi"):
            assert linear_solve(a, b, k, method) == want


def _dense_bench_tiles():
    """The 16 seed-1 inputs of the benchmark's ``dense`` workload: 12x12
    Voronoi reliefs of 2x2 cells, 4-connected, flooded."""
    import random

    from morphograph.flooding import as_flooding
    from morphograph.formats import pixel_graph

    terrains = _bench_terrains()
    rng = random.Random("dense:1")
    return [as_flooding(pixel_graph(12, 12, terrains.voronoi_relief(rng, 12, 2, 8), 4))
            for _ in range(16)]


def _bench_terrains():
    """The benchmark's terrain generators, ``bench/terrains.py``."""
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "terrains.py")
    spec = importlib.util.spec_from_file_location("bench_terrains", path)
    terrains = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(terrains)
    return terrains


def _elimination_cases(rng):
    """The ``_random_systems`` corpus, per-minimum systems of quantized
    pixel floodings at k = 1, 2 and 3, and those of the 16 dense tiles
    at k = 3, as sparse rows ``(A, B, k)``."""
    from morphograph.lexalgebra import _rows

    cases = _random_systems(rng)
    cases += [(*_per_minimum_system(_quantized_pixel_flooding(rng), k), k) for k in (1, 2, 3)]
    tiles = _dense_bench_tiles()
    assert sum(fg.num_nodes for fg in tiles) > 16 * 144  # one-pixel minima are twinned
    cases += [(*_per_minimum_system(fg, 3), 3) for fg in tiles]
    return [(_rows(a), _rows(b), k) for a, b, k in cases]


def _augmented(a: list[dict], b: list[dict]) -> list[dict]:
    """The rows of ``[A | B]``, column c of B as sink node n + c, with
    the sinks' empty rows."""
    n = len(a)
    aug = [{**row, **{n + c: x for c, x in brow.items()}} for row, brow in zip(a, b)]
    return aug + [{} for _ in range(1 + max((c for brow in b for c in brow), default=-1))]


def test_level_order_and_changed_rows_give_the_row_order_results(rng):
    # _fronts pivots from the lowest level up, Jacobi and Gauss-Seidel
    # recompute only the rows whose inputs changed; against the row-order
    # kernels above, every front keeps its least window (on A and on
    # [A | B]) and both iterative solvers their solutions
    from morphograph.lexalgebra import _fronts, _solve_gauss_seidel, _solve_jacobi, _upward

    def windows(fronts):
        return [{j: min(front)[0] for j, front in row.items()} for row in fronts]

    for a, b, k in _elimination_cases(rng):
        aug = _augmented(a, b)
        assert windows(_fronts(a, k, _upward(a))) == windows(_pixel_order_fronts(a, k))
        assert windows(_fronts(aug, k, _upward(a))) == windows(_pixel_order_fronts(aug, k))
        assert _solve_jacobi(a, b, k) == _full_sweep_jacobi(a, b, k)
        assert _solve_gauss_seidel(a, b, k) == _bottom_up_gauss_seidel(a, b, k)


def test_semi_naive_sweeps_and_the_heap_give_the_recomputing_results(rng):
    # Jacobi and Gauss-Seidel chain only the entries that improved since a
    # row last read them, and Gondran pops its rows from a heap; each must
    # return what the solvers that recompute whole rows and scan for the
    # least entry return, on multi-column systems and on pixel floodings
    from morphograph.lexalgebra import _solve_gauss_seidel, _solve_gondran, _solve_jacobi

    for a, b, k in _elimination_cases(rng):
        assert _solve_jacobi(a, b, k) == _recomputing_gauss_seidel(a, b, k, at_once=False)
        assert _solve_gauss_seidel(a, b, k) == _recomputing_gauss_seidel(a, b, k)
        assert _solve_gondran(a, b, k) == _scanning_gondran(a, b, k)


def test_iterative_solvers_equal_closure_times_b_past_the_dense_cap():
    # the per-minimum system of a 24x24 Voronoi relief, past the 400-node
    # cap of incidence_matrix, on sparse rows built here
    import random

    from morphograph.flooding import as_flooding, minima_of_flooding, minima_sets
    from morphograph.formats import pixel_graph
    from morphograph.lexalgebra import (
        _closure_rows, _solve_gauss_seidel, _solve_gondran, _solve_jacobi,
    )

    terrains = _bench_terrains()
    fg = as_flooding(pixel_graph(24, 24, terrains.voronoi_relief(random.Random(24), 24, 3, 8), 4))
    assert fg.num_nodes > 400
    k = 3
    a: list[dict] = [{} for _ in range(fg.num_nodes)]
    for (u, v), w in zip(fg.edges, fg.edge_weights):
        a[u][v] = a[v][u] = (w,)
    b: list[dict] = [{} for _ in a]
    for c, nodes in enumerate(minima_sets(minima_of_flooding(fg))):
        for m in nodes:
            b[m][c] = UNIT
    want = _mul_rows_by_dioid_ops(_closure_rows(a, k, _upward(a)), b, k)
    for solve in (_solve_jacobi, _solve_gauss_seidel, _solve_gondran):
        assert solve(a, b, k) == want


def test_jordan_without_pivoted_columns_keeps_the_sink_fronts(rng):
    # Jordan drops each pivoted column once the rows holding it have read
    # it; its sink columns must still hold the least windows of the
    # row-order elimination on [A | B], which keeps every column
    from morphograph.lexalgebra import _solve_jordan

    for a, b, k in _elimination_cases(rng):
        n = len(a)
        want = [{j - n: min(front)[0] for j, front in row.items() if j >= n}
                for row in _pixel_order_fronts(_augmented(a, b), k)[:n]]
        assert _solve_jordan(a, b, k) == want


def test_jordan_labels_match_closure_on_pinned_image():
    # a 5x3 crop of a dense benchmark tile on which a single-representative
    # Jordan gave node 10 (gray 88) label 2 instead of the tie's smaller 1
    from morphograph.flooding import as_flooding
    from morphograph.formats import pixel_graph
    from morphograph.lexalgebra import distances_to_minima

    pixels = [142, 119, 111, 103, 67, 110, 88, 84, 102, 52, 88, 45, 41, 74, 71]
    fg = as_flooding(pixel_graph(5, 3, pixels, 4))
    want = distances_to_minima(fg, 1, "closure")
    assert want[1].values[10] == 1
    for method in ("jordan", "gondran", "jacobi", "gauss_seidel"):
        assert distances_to_minima(fg, 1, method) == want


def test_jordan_is_exact_where_closure_keeps_one_element():
    # a squaring that keeps one tracked element per entry keeps (3,) over
    # (6, 6) for 1 -> 2 and (3, 3) over (6,) for 0 -> 2, and neither kept
    # element chains the 2 -> 4 edge of weight 5, so its entry (1, 4) stays
    # ZERO; Jordan's fronts, which closure reads, keep both elements
    g = WeightedGraph(
        6, ((0, 1), (0, 2), (0, 5), (1, 2), (1, 5), (2, 4), (3, 4)), None,
        (6, 6, 3, 3, 3, 5, 6),
    )
    a = incidence_matrix(g, 2)
    assert closure(a, 2)[1][4] == (6, 6)
    for method in ("jordan", "gondran", "jacobi", "gauss_seidel"):
        assert linear_solve(a, identity_matrix(6), 2, method)[1][4] == (6, 6)


def test_jordan_matches_walk_enumeration(rng):
    # cycles never improve a walk, so the elementary paths (at most n - 1
    # edges) give the minimal weights
    for _ in range(15):
        g = random_edge_weighted(rng, 6)
        k = rng.randint(1, 3)
        n = g.num_nodes
        y = linear_solve(incidence_matrix(g, k), identity_matrix(n), k, "jordan")
        ew, adj = g.edge_weights, [dict(r) for r in rows(g)]
        for x in range(n):
            best = [None if x != t else UNIT for t in range(n)]
            for walk in enumerate_walks(g, x, n - 1):
                w = lex_weight(
                    [ew[adj[walk[t]][walk[t + 1]]] for t in range(len(walk) - 1)],
                    k,
                )
                best[walk[-1]] = lex_min(best[walk[-1]], w)
            assert best == y[x]


def test_closure_is_exact_into_the_minima_of_floodings(rng):
    # the per-minimum system distances_to_minima solves: closure (x) B
    # equals Gondran's columns, and closure's entries into the minima
    # equal Jordan's
    from conftest import random_flooding

    for trial in range(60):
        fg = _quantized_pixel_flooding(rng) if trial % 10 == 0 else random_flooding(rng, 14)
        k = rng.randint(1, 4)
        a, b = _per_minimum_system(fg, k)
        st_ = closure(a, k)
        assert mat_mul(st_, b, k) == linear_solve(a, b, k, "gondran")
        n = fg.num_nodes
        exact = linear_solve(a, identity_matrix(n), k, "jordan")
        span = [j for j in range(n) if any(x is not None for x in b[j])]
        assert all(st_[i][j] == exact[i][j] for i in range(n) for j in span)


def _distances_by_closure_product(g, k):
    """``distances_to_minima(g, k, "closure")`` as it was before it read
    only the minima's columns: all of A* reduced to least windows, times
    B, reduced per row to the least entry and its label."""
    from morphograph.flooding import minima_of_flooding, minima_sets
    from morphograph.graphs import Labeling, UNSET
    from morphograph.lexalgebra import _closure_rows, _incidence_rows, _upward

    a = _incidence_rows(g, k)
    b = [{} for _ in a]
    for c, nodes in enumerate(minima_sets(minima_of_flooding(g))):
        for m in nodes:
            b[m][c] = UNIT
    y = _mul_rows_by_dioid_ops(_closure_rows(a, k, _upward(a)), b, k)
    best = [min(((x, c + 1) for c, x in row.items()), default=(ZERO, UNSET)) for row in y]
    return [x for x, _ in best], Labeling(tuple(lab for _, lab in best), "nodes")


def test_closure_distances_read_only_the_minima_columns(rng):
    # closure's distances read the least window of A*'s fronts into the
    # minima only; distances and labels must equal all of A* times B
    from conftest import random_flooding
    from morphograph.lexalgebra import distances_to_minima

    for trial in range(32):
        fg = _quantized_pixel_flooding(rng) if trial % 4 == 0 else random_flooding(rng, 14)
        for k in (1, 2, 3, 4):
            assert distances_to_minima(fg, k, "closure") == _distances_by_closure_product(fg, k)


def test_closure_route_keeps_only_the_minima_columns(rng, monkeypatch):
    # the closure route of distances_to_minima drops every pivoted column
    # but the minima's; each front it keeps, at (i, minimum node), must be
    # the front the full elimination on A gives there, and no row may hold
    # another column than those and its own diagonal
    from conftest import random_flooding
    from morphograph import lexalgebra
    from morphograph.flooding import minima_of_flooding, minima_sets
    from morphograph.lexalgebra import _fronts, _incidence_rows, _upward, distances_to_minima

    seen = []

    def recorded(*args, **kwargs):
        seen.append(_fronts(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(lexalgebra, "_fronts", recorded)
    for trial in range(20):
        fg = _quantized_pixel_flooding(rng) if trial % 4 == 0 else random_flooding(rng, 14)
        minima = {m for nodes in minima_sets(minima_of_flooding(fg)) for m in nodes}
        for k in (1, 2, 3, 4):
            a = _incidence_rows(fg, k)
            full = _fronts(a, k, _upward(a))
            distances_to_minima(fg, k, "closure")
            route = seen.pop()
            assert [{m: row[m] for m in minima if m in row} for row in route] == \
                [{m: row[m] for m in minima if m in row} for row in full]
            assert all(set(row) <= minima | {i} for i, row in enumerate(route))
