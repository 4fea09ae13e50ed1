import numpy as np
import pytest
from scipy import sparse

from nodedp.lp import FEAS_TOL, LpProblem, _assemble, solve_lp
from nodedp.rng import spawn

from oracles import dense_simplex_max, lp_dump, row_triplets, vertex_enum_max


def test_simple_box_max():
    p = LpProblem(objective=np.array([1.0]), sense="max", bounds=[(0.0, 1.0)])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible():
    p = LpProblem(objective=np.array([1.0]), bounds=[(None, None)])
    p.add_rows(*row_triplets([1.0]), "<=", [0.0])
    p.add_rows(*row_triplets([1.0]), ">=", [1.0])
    assert solve_lp(p).status == "infeasible"


def test_unbounded():
    p = LpProblem(objective=np.array([1.0]), sense="max", bounds=[(0.0, None)])
    assert solve_lp(p).status == "unbounded"


def test_equality_rows_and_residual():
    p = LpProblem(objective=np.array([1.0, 2.0]), sense="max",
                  bounds=[(0.0, 5.0), (0.0, 5.0)])
    p.add_rows(*row_triplets({0: 1.0, 1: 1.0}), "=", [4.0])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(8.0, abs=1e-8)
    assert sol.residual <= FEAS_TOL


def test_random_block_instances_match_vertex_oracle():
    # 20-variable problems assembled from four independent 5-variable blocks;
    # the oracle enumerates basic feasible points per block.
    rng = spawn(83, 0)
    for trial in range(8):
        blocks = []
        total = 0.0
        all_c = []
        rows = []
        offset = 0
        bounds = []
        for b in range(4):
            c = rng.uniform(-1, 1, 5)
            A = rng.uniform(-1, 1, (3, 5))
            rhs = rng.uniform(0.5, 2.0, 3)
            bnds = [(0.0, float(u)) for u in rng.uniform(0.5, 3.0, 5)]
            best = vertex_enum_max(c, A, rhs, bnds)
            assert best is not None
            total += best
            all_c.append(c)
            for row, r in zip(A, rhs):
                rows.append(({offset + j: float(row[j]) for j in range(5)}, "<=", float(r)))
            bounds.extend(bnds)
            offset += 5
        p = LpProblem(objective=np.concatenate(all_c), sense="max", bounds=bounds)
        for coeffs, rel, r in rows:
            p.add_rows(*row_triplets(coeffs), rel, [r])
        sol = solve_lp(p)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(total, abs=1e-7)


def test_random_instances_match_dense_simplex():
    rng = spawn(89, 0)
    for trial in range(10):
        n, m = 6, 4
        c = rng.uniform(0.0, 1.0, n)
        A = rng.uniform(0.0, 1.0, (m, n))
        b = rng.uniform(1.0, 3.0, m)
        p = LpProblem(objective=c, sense="max", bounds=[(0.0, None)] * n)
        for row, r in zip(A, b):
            p.add_rows(*row_triplets(row), "<=", [float(r)])
        sol = solve_lp(p)
        assert sol.status == "optimal"
        oracle = dense_simplex_max(c, A, b)
        assert sol.objective == pytest.approx(oracle, abs=1e-7)


def test_dump_format():
    p = LpProblem(objective=np.array([1.0, 0.0]), sense="min",
                  bounds=[(0.0, 1.0), (0.0, None)])
    p.add_rows(*row_triplets({0: 2.0, 1: -1.0}), ">=", [0.5])
    text = lp_dump(p)
    assert "min" in text and ">= 0.5" in text and "x0" in text


def test_bad_relation_rejected():
    p = LpProblem(objective=np.array([1.0]))
    with pytest.raises(ValueError):
        p.add_rows(*row_triplets([1.0]), "<", [1.0])



def assembled(problem):
    """The assembled (A_ub, b_ub, A_eq, b_eq) as plain arrays, dtypes kept."""
    out = []
    for part in _assemble(problem):
        if not sparse.issparse(part):
            out.append(part)
        else:
            out += [part.shape, part.indptr, part.indices, part.data]
    return out


def assert_same_assembly(a, b):
    for x, y in zip(assembled(a), assembled(b), strict=True):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        else:
            assert x == y


def test_add_rows_assembles_same_csr_as_add_row():
    # Runs of one relation as batches against the same rows one at a time,
    # dense and dict rows alternating; ">=" rows are negated into A_ub.
    rng = spawn(97, 0)
    n = 12
    runs = [("<=", 2), (">=", 3), ("=", 2), ("<=", 1)]
    rels = [rel for rel, k in runs for _ in range(k)]
    A = rng.uniform(-1, 1, (len(rels), n)) * (rng.random((len(rels), n)) < 0.4)
    rhs = rng.uniform(-2, 2, len(rels))
    per_row = LpProblem(objective=np.ones(n))
    for i, (row, rel) in enumerate(zip(A, rels)):
        cols = np.nonzero(row)[0]
        coeffs = {int(j): float(row[j]) for j in cols} if i % 2 else row
        per_row.add_rows(*row_triplets(coeffs), rel, [rhs[i]])
    batched, shuffled = LpProblem(objective=np.ones(n)), LpProblem(objective=np.ones(n))
    start = 0
    for rel, k in runs:
        block = A[start:start + k]
        r, c = np.nonzero(block)
        batched.add_rows(r, c, block[r, c], rel, rhs[start:start + k])
        perm = rng.permutation(r.size)
        shuffled.add_rows(r[perm], c[perm], block[r, c][perm], rel, rhs[start:start + k])
        start += k
    assert_same_assembly(batched, per_row)
    assert_same_assembly(shuffled, per_row)
    assert solve_lp(batched).objective == solve_lp(per_row).objective


def test_add_rows_validates_indices():
    p = LpProblem(objective=np.ones(3))
    with pytest.raises(ValueError):
        p.add_rows([0, 2], [0, 1], [1.0, 1.0], "<=", [1.0, 1.0])
    with pytest.raises(ValueError):
        p.add_rows([0], [0], [1.0], "<", [1.0])
