"""Representations: sl2 weight theory, Cayley-Sylvester, recognition,
and the rank-one filtration over the polynomial sl2 algebroid."""

import random
import sys
import time
from fractions import Fraction

import pytest

from algebroids import groebner, linalg, repmod
from algebroids.errors import AlgebroidError, InconsistencyError, PreconditionError
from algebroids.groebner import FreeModuleElement, groebner_basis
from algebroids.liealg import LieAlgebra, sl2
from algebroids.poly import Polynomial, monomials
from algebroids.repmod import (MatrixRep, binary_form_rep, cayley_sylvester,
                               covariant_dimensions, decompose_sl2,
                               sl2_algebroid_filtration, sl2_isotypic,
                               sym_kernel_dims, sym_power_rep,
                               weight_space_dims)

from constructs import recognition_sl_blocks
from references import (dense, dense_matrices, dense_rows, gl2, identity,
                        invariants_dimension, lie_algebra_from_matrices, mat_add, mat_mul,
                        mat_scale, mat_vec, matrix_rep, partitions_in_rectangle, sparse,
                        sparse_rows, zeros)


def F(x):
    return Fraction(x)


def trivial_rep(algebra, n):
    return matrix_rep(algebra, [zeros(n, n) for _ in range(algebra.dim)])


def direct_sum_rep(rep1, rep2):
    n1, n2 = rep1.dim, rep2.dim
    mats = []
    for a, b in zip(dense_matrices(rep1), dense_matrices(rep2)):
        mats.append([row + [F(0)] * n2 for row in a] + [[F(0)] * n1 + row for row in b])
    return matrix_rep(rep1.algebra, mats)


def tensor_rep(rep1, rep2):
    """Action on V (x) W: rho(g) (x) 1 + 1 (x) rho(g)."""
    n1, n2 = rep1.dim, rep2.dim
    mats = []
    for a, b in zip(dense_matrices(rep1), dense_matrices(rep2)):
        m = zeros(n1 * n2, n1 * n2)
        for i in range(n1):
            for j in range(n2):
                for k in range(n1):
                    m[i * n2 + j][k * n2 + j] += a[i][k]
                for k in range(n2):
                    m[i * n2 + j][i * n2 + k] += b[j][k]
        mats.append(m)
    return matrix_rep(rep1.algebra, mats)


def test_matrix_rep_validation():
    g = sl2()
    bad = [identity(2) for _ in range(3)]
    with pytest.raises(AlgebroidError):
        matrix_rep(g, bad)


@pytest.mark.parametrize("shapes", [[(2, 2), (2, 2), (3, 3)], [(2, 3)] * 3],
                         ids=["sizes-differ", "not-square"])
def test_matrix_rep_rejects_bad_shapes(shapes):
    # zero matrices satisfy every bracket, so only the shape check can refuse them
    sparse = [[{j: 0 for j in range(m)} for _ in range(n)] for n, m in shapes]
    with pytest.raises(ValueError, match="square and of one size"):
        MatrixRep(sl2(), sparse)


@pytest.mark.parametrize("columns", [
    [[[0, 1], [0, 0]]] * 3,
    # one dense column among sparse ones
    [[{0: 1}, {}], [{}, [0, 0]], [{}, {}]],
], ids=["dense", "one-row-dense"])
def test_matrix_rep_refuses_dense_rows(columns):
    with pytest.raises(ValueError, match="sparse columns"):
        MatrixRep(sl2(), columns)


def test_matrix_rep_refuses_transposed_matrices():
    # rho^T represents the opposite algebra, so V_2 given by rows fails the
    # bracket check; the rows of rho(e_k) are the columns of rho(e_k)^T
    rep = binary_form_rep(2)
    rows = [sparse_rows(m) for m in dense_matrices(rep)]
    assert rows != rep.columns
    with pytest.raises(AlgebroidError, match="do not represent the bracket"):
        MatrixRep(rep.algebra, rows)


def s6v3():
    rep = sym_power_rep(binary_form_rep(3), 6)
    assert rep.dim == 84
    return rep


def transposed(m):
    return [list(col) for col in zip(*m)]


def test_validation_accepts_s6v3_and_its_dual():
    rep = s6v3()
    MatrixRep(rep.algebra, rep.columns)
    # the dual -rho^T is a representation; rho^T is not, which pins the
    # order of the products in the check
    matrix_rep(rep.algebra, [mat_scale(transposed(m), -1) for m in dense_matrices(rep)])
    with pytest.raises(AlgebroidError, match="do not represent the bracket"):
        matrix_rep(rep.algebra, [transposed(m) for m in dense_matrices(rep)])


def test_validation_rejects_negated_rep():
    rep = s6v3()
    with pytest.raises(AlgebroidError, match="do not represent the bracket"):
        matrix_rep(rep.algebra, [mat_scale(m, -1) for m in dense_matrices(rep)])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_validation_rejects_one_changed_sparse_entry(k):
    # columns given sparse: doubling the first nonzero entry of any one
    # column of rho(e_k) breaks the bracket, so every column must be checked
    rep = s6v3()
    for v in range(rep.dim):
        if not rep.columns[k][v]:
            continue
        columns = [list(m) for m in rep.columns]
        r, c = next(iter(rep.columns[k][v].items()))
        columns[k][v] = {**rep.columns[k][v], r: 2 * c}
        with pytest.raises(AlgebroidError, match="do not represent the bracket"):
            MatrixRep(rep.algebra, columns)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_validation_checks_every_pair(k):
    # rho(e_k) + 1 leaves every commutator as it was and breaks only the
    # relation with e_k on its right: [X, Y] = H, [H, X] = 2X or [H, Y] = -2Y
    rep = s6v3()
    columns = [list(m) for m in rep.columns]
    columns[k] = [{**col, v: col.get(v, 0) + 1} for v, col in enumerate(rep.columns[k])]
    with pytest.raises(AlgebroidError, match="do not represent the bracket"):
        MatrixRep(rep.algebra, columns)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_validation_checks_every_row(k):
    # on V_0 + V_1 + V_0 + V_2 + V_0 a nonzero diagonal entry at a trivial
    # summand (entry t, t for t = 0, 3 or 7) breaks the bracket in row and
    # column t alone
    rep = binary_form_rep(0)
    for d in (1, 0, 2, 0):
        rep = direct_sum_rep(rep, binary_form_rep(d))
    for t in (0, 3, 7):
        columns = [[dict(col) for col in m] for m in rep.columns]
        columns[k][t][t] = 1
        with pytest.raises(AlgebroidError, match="do not represent the bracket"):
            MatrixRep(rep.algebra, columns)


@pytest.mark.parametrize("first, second", [({1: {2: 1}}, {0: {1: 1}}), ({0: {1: 1}}, {1: {2: 1}})],
                         ids=["live-in-second", "live-in-first"])
def test_validation_reads_the_columns_of_either_matrix(first, second):
    # on the abelian plane, e_0 -> e_1 and e_1 -> e_2 do not commute: their
    # commutator is nonzero only in column 0, which only one of them moves
    columns = [[first.get(v, {}) for v in range(3)], [second.get(v, {}) for v in range(3)]]
    with pytest.raises(AlgebroidError, match="do not represent the bracket"):
        MatrixRep(LieAlgebra(2, {}), columns)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_validation_rejects_one_flipped_entry(k):
    rep = s6v3()
    mats = dense_matrices(rep)
    m = mats[k]
    n = rep.dim
    if k == 0:
        # H is diagonal: switch on an entry between two vectors of one weight,
        # which leaves every diagonal entry of every residual zero
        a, b = next((a, b) for a in range(n) for b in range(n)
                    if a != b and m[a][a] == m[b][b])
        m[a][b] = F(1)
    else:
        a, b = next((a, b) for a in range(n) for b in range(n) if a != b and m[a][b])
        m[a][b] = -m[a][b]
    with pytest.raises(AlgebroidError, match="do not represent the bracket"):
        matrix_rep(rep.algebra, mats)


def test_validation_with_several_structure_constants():
    v3 = dense_matrices(binary_form_rep(3))
    change = [[F(1), F(1), F(0)], [Fraction(1, 2), F(0), F(-1)], [F(0), F(2), F(3)]]
    mats = [mat_add(mat_add(mat_scale(v3[0], row[0]), mat_scale(v3[1], row[1])),
                    mat_scale(v3[2], row[2]))
            for row in change]
    g = lie_algebra_from_matrices(mats)
    units = identity(3)
    assert all(sum(1 for c in dense(g.bracket(sparse(units[i]), sparse(units[j])), 3) if c) >= 2
               for i, j in [(0, 1), (0, 2), (1, 2)])
    rep = sym_power_rep(matrix_rep(g, mats), 6)
    assert rep.dim == 84
    with pytest.raises(AlgebroidError, match="do not represent the bracket"):
        MatrixRep(sl2(), rep.columns)


def test_rows_hold_ints_where_integral():
    rep = binary_form_rep(3)
    # integral Fractions become ints and explicit zeros are dropped: the
    # columns are the only state
    padded = [[{**{r: Fraction(0) for r in range(rep.dim)},
                **{r: Fraction(c) for r, c in col.items()}} for col in m] for m in rep.columns]
    again = MatrixRep(rep.algebra, padded)
    assert again.columns == rep.columns
    assert all(type(c) is int for m in again.columns for col in m for c in col.values())
    assert MatrixRep.__slots__ == ("algebra", "dim", "columns")
    # X/2 and 2Y keep every bracket; X/2 has non-integral entries, kept as Fractions
    scaled = [rep.columns[0],
              [{r: Fraction(c, 2) for r, c in col.items()} for col in rep.columns[1]],
              [{r: 2 * c for r, c in col.items()} for col in rep.columns[2]]]
    assert any(type(c) is Fraction for col in MatrixRep(rep.algebra, scaled).columns[1]
               for c in col.values())


def dense_polarize(m, basis):
    """Reference: the derivation action of the dense matrix m on the
    monomials in basis, as a dense matrix, one factor replaced at a time."""
    index = {e: i for i, e in enumerate(basis)}
    out = zeros(len(basis), len(basis))
    for col, exp in enumerate(basis):
        for i, e_i in enumerate(exp):
            for k in range(len(m)):
                if e_i and m[k][i]:
                    new = list(exp)
                    new[i] -= 1
                    new[k] += 1
                    out[index[tuple(new)]][col] += e_i * m[k][i]
    return out


def conjugated_v2():
    """V_2 in a rational, non-integral basis: H is not diagonal."""
    v2 = binary_form_rep(2)
    p = [[F(1), Fraction(1, 2), F(0)], [F(0), F(1), Fraction(-1, 3)], [F(2), F(0), F(1)]]
    p_inv = inverse(p)
    return matrix_rep(v2.algebra, [mat_mul(p_inv, mat_mul(m, p))
                                   for m in dense_matrices(v2)])


def test_sym_power_matches_dense_polarization():
    for rep, n in [(binary_form_rep(3), 6), (binary_form_rep(6), 3), (binary_form_rep(0), 2),
                   (conjugated_v2(), 3), (binary_form_rep(2), 0)]:
        power = sym_power_rep(rep, n)
        basis = monomials((1,) * rep.dim, n)
        assert dense_matrices(power) == [dense_polarize(m, basis) for m in dense_matrices(rep)]
        # the columns hold ints where integral, and read back as the same columns
        assert all(type(c) is int or c.denominator > 1
                   for m in power.columns for col in m for c in col.values())
        assert MatrixRep(power.algebra, power.columns).columns == power.columns


def test_sym_power_of_a_non_integral_v2_decomposes_like_v2():
    conj = conjugated_v2()
    assert any(type(c) is Fraction for m in conj.columns for col in m for c in col.values())
    assert weight_space_dims(conj.columns[0]) is None
    for n in range(1, 4):
        power = sym_power_rep(conj, n)
        assert any(type(c) is Fraction for m in power.columns for col in m for c in col.values())
        assert decompose_sl2(power) == decompose_sl2(sym_power_rep(binary_form_rep(2), n))


def test_binary_form_rep_weights():
    rep = binary_form_rep(3)
    h = dense_matrices(rep)[0]
    assert [h[k][k] for k in range(4)] == [F(3), F(1), F(-1), F(-3)]


def test_invariants_dimension():
    g = sl2()
    assert invariants_dimension(trivial_rep(g, 5), [1])[0] == 5
    for d in range(5):
        assert invariants_dimension(binary_form_rep(d), [1])[0] == 1
    v2_plus_v0 = direct_sum_rep(binary_form_rep(2), binary_form_rep(0))
    assert invariants_dimension(v2_plus_v0, [1])[0] == 2


def test_decompose_examples():
    assert decompose_sl2(sym_power_rep(binary_form_rep(1), 2)) == {2: 1}
    assert decompose_sl2(sym_power_rep(binary_form_rep(2), 2)) == {4: 1, 0: 1}
    v1 = binary_form_rep(1)
    assert decompose_sl2(tensor_rep(v1, v1)) == {2: 1, 0: 1}


@pytest.mark.parametrize("h_scale, y_scale, casimir_calls", [
    (2, 1, 1), (Fraction(1, 2), 1, 1), (1, 2, 0)])
def test_decompose_sl2_in_a_rescaled_basis(monkeypatch, h_scale, y_scale, casimir_calls):
    # V_1 in the basis (s H, X, t Y): e_1 is the H of an sl2-triple only for
    # s = 1, so the eigenvalues of 2H (2, -2) or H/2 (1/2, -1/2) are not
    # weights and only the Casimir decomposes these
    g = LieAlgebra(3, {(0, 1): {1: 2 * h_scale}, (0, 2): {2: -2 * h_scale},
                       (1, 2): {0: Fraction(y_scale) / h_scale}})
    h, x, y = binary_form_rep(1).columns
    rep = MatrixRep(g, [[{r: h_scale * c for r, c in col.items()} for col in h], x,
                        [{r: y_scale * c for r, c in col.items()} for col in y]])
    calls = []
    casimir = repmod.sl2_isotypic
    monkeypatch.setattr(repmod, "sl2_isotypic", lambda rep: calls.append(rep) or casimir(rep))
    assert decompose_sl2(rep) == {1: 1}
    assert len(calls) == casimir_calls
    assert casimir(rep) == {1: 1}


def test_decompose_sl2_refuses_a_solvable_algebra_with_diagonal_h():
    # [e_1, e_2] = 2 e_2 and [e_1, e_3] = -2 e_3 with [e_2, e_3] = 0: e_1 is
    # no H of an sl2-triple, and the Killing form is singular
    g = LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}})
    with pytest.raises(PreconditionError, match="not a form of sl2"):
        decompose_sl2(MatrixRep(g, [[{}], [{}], [{}]]))


def test_weight_space_dims_non_diagonal_h():
    # conjugating by a rational unipotent matrix makes H non-diagonal; the
    # Casimir route must still give the decomposition of the diagonal form
    rep = sym_power_rep(binary_form_rep(2), 2)
    n = rep.dim
    p = identity(n)
    for i in range(n - 1):
        p[i][i + 1] = F(i + 1)
    p[0][n - 1] = Fraction(-1, 2)
    p_inv = inverse(p)
    conj = matrix_rep(rep.algebra,
                      [mat_mul(p_inv, mat_mul(m, p)) for m in dense_matrices(rep)])
    h = dense_matrices(conj)[0]
    assert any(h[i][j] for i in range(n) for j in range(n) if i != j)
    assert weight_space_dims(conj.columns[0]) is None
    assert decompose_sl2(conj) == decompose_sl2(rep) == {4: 1, 0: 1}


def test_weight_space_dims_diagonal_non_integer():
    with pytest.raises(PreconditionError, match="not rationally diagonalizable"):
        weight_space_dims([{0: F(1)}, {1: Fraction(1, 2)}])


def test_sl2_isotypic_matches_weight_decomposition():
    for n in range(5):
        for d in range(5):
            rep = sym_power_rep(binary_form_rep(d), n)
            assert sl2_isotypic(rep) == decompose_sl2(rep)
    rep = direct_sum_rep(sym_power_rep(binary_form_rep(2), 2),
                         direct_sum_rep(binary_form_rep(3), binary_form_rep(0)))
    assert sl2_isotypic(rep) == decompose_sl2(rep) == {4: 1, 3: 1, 0: 2}


def test_sparse_casimir_matches_dense_products():
    # the Casimir read off the sparse columns equals sum (kappa^-1)_ij rho_i
    # rho_j formed by dense products, and stores no zero entry; on S^2(V_2)
    # and S^3(V_2) in a non-integral basis H is not diagonal
    reps = [binary_form_rep(d) for d in range(5)]
    reps += [sym_power_rep(conjugated_v2(), n) for n in (2, 3)]
    for rep in reps:
        kappa_inv = inverse(dense_rows(rep.algebra.killing_matrix(), 3))
        mats = dense_matrices(rep)
        products = zeros(rep.dim, rep.dim)
        for i in range(3):
            for j in range(3):
                products = mat_add(products,
                                   mat_scale(mat_mul(mats[i], mats[j]), kappa_inv[i][j]))
        casimir = repmod._casimir(rep)
        assert [[col.get(r, 0) for col in casimir] for r in range(rep.dim)] == products
        assert all(c for col in casimir for c in col.values())
    assert weight_space_dims(reps[-1].columns[0]) is None
    assert sl2_isotypic(reps[-1]) == {6: 1, 2: 1}


def test_sl2_isotypic_requires_sl2():
    with pytest.raises(PreconditionError, match="not a form of sl2"):
        sl2_isotypic(trivial_rep(gl2(), 2))


def test_sym_kernel_dims_match_cayley_sylvester():
    for d in range(7):
        assert sym_kernel_dims({d: 1}, 12) == [covariant_dimensions(d, n)[-1] for n in range(13)]
    # a reducible V against the raising operator's kernel on S^n(V)
    v = direct_sum_rep(binary_form_rep(2), direct_sum_rep(binary_form_rep(1),
                                                          binary_form_rep(0)))
    assert sym_kernel_dims({2: 1, 1: 1, 0: 1}, 3) == \
        [invariants_dimension(sym_power_rep(v, n), [1])[0] for n in range(4)]
    assert sym_kernel_dims({1: 2}, 6) == [1, 2, 4, 6, 9, 12, 16]


def test_cayley_sylvester_examples():
    assert [cayley_sylvester(2, 2, e) for e in (0, 2, 4)] == [1, 0, 1]
    for d in range(6):
        assert cayley_sylvester(1, d, d) == 1
    for n in range(1, 6):
        for d in range(1, 6):
            assert cayley_sylvester(n, d, n * d) == 1
    assert cayley_sylvester(2, 2, 3) == 0  # parity


def test_cayley_sylvester_is_a_difference_of_partition_counts():
    # the Gaussian-binomial coefficients against the partition recursion,
    # past the top weight nd and at both parities
    for d in range(7):
        for n in range(25):
            for e in range(n * d + 3):
                m, odd = divmod(n * d - e, 2)
                want = 0 if odd or m < 0 else \
                    partitions_in_rectangle(m, d, n) - partitions_in_rectangle(m - 1, d, n)
                assert cayley_sylvester(n, d, e) == want


def test_cayley_sylvester_vs_matrices_small():
    for n in range(4):
        for d in range(4):
            rep = sym_power_rep(binary_form_rep(d), n)
            dec = decompose_sl2(rep)
            top = n * d
            for e in range(top + 1):
                assert dec.get(e, 0) == cayley_sylvester(n, d, e)


def test_weight_sum_conservation():
    for n, d in [(2, 3), (3, 2), (3, 3), (4, 2)]:
        rep = sym_power_rep(binary_form_rep(d), n)
        dec = decompose_sl2(rep)
        assert sum((e + 1) * m for e, m in dec.items()) == len(rep.columns[0])


def test_covariant_dimension():
    assert [covariant_dimensions(2, n)[-1] for n in range(6)] == [1, 1, 2, 2, 3, 3]
    assert covariant_dimensions(3, 4)[-1] == 5
    assert covariant_dimensions(6, 0)[-1] == 1


def test_covariant_dimension_is_the_cayley_sylvester_sum():
    # the Gaussian-binomial recurrence against the two partition-count routes
    for d in range(7):
        dims = covariant_dimensions(d, 40)
        assert len(dims) == 41
        for n, dim in enumerate(dims):
            assert dim == sum(cayley_sylvester(n, d, e) for e in range(n * d + 1))
            assert dim == partitions_in_rectangle(n * d // 2, d, n)
            assert covariant_dimensions(d, n)[-1] == dim
    with pytest.raises(ValueError):
        covariant_dimensions(-1, 3)
    with pytest.raises(ValueError):
        covariant_dimensions(3, -1)[-1]


def test_covariant_dimension_equals_invariants_of_raising():
    for n in range(6):
        for d in range(6):
            rep = sym_power_rep(binary_form_rep(d), n)
            assert covariant_dimensions(d, n)[-1] == invariants_dimension(rep, [1])[0]


# -- recognition ---------------------------------------------------------

def unit_matrix(n, i, j):
    m = zeros(n, n)
    m[i][j] = F(1)
    return m


def test_recognition_full_gl3():
    mats = [unit_matrix(3, i, j) for i in range(3) for j in range(3)]
    factors, big = recognition_sl_blocks(mats, 3)
    assert factors == [3]
    assert big == [3]


def test_recognition_borel():
    mats = [unit_matrix(3, i, j) for i in range(3) for j in range(3) if i <= j]
    factors, big = recognition_sl_blocks(mats, 3)
    assert sorted(factors) == [1, 1, 1]
    assert big == []


def test_recognition_block_sum():
    mats = []
    # sl2 in the top-left 2x2 block
    for a, b in [(0, 1), (1, 0)]:
        mats.append(unit_matrix(5, a, b))
    h2 = zeros(5, 5)
    h2[0][0], h2[1][1] = F(1), F(-1)
    mats.append(h2)
    # sl3 in the bottom-right 3x3 block
    for i in range(2, 5):
        for j in range(2, 5):
            if i != j:
                mats.append(unit_matrix(5, i, j))
            elif i < 4:
                m = zeros(5, 5)
                m[i][i], m[i + 1][i + 1] = F(1), F(-1)
                mats.append(m)
    # complete the diagonal trace-zero Cartan of sl5
    bridge = zeros(5, 5)
    bridge[1][1], bridge[2][2] = F(1), F(-1)
    mats.append(bridge)
    factors, big = recognition_sl_blocks(mats, 5)
    assert sorted(factors) == [2, 3]
    assert sorted(big) == [2, 3]


def test_recognition_permutation_invariant():
    rng = random.Random(31)
    mats = [unit_matrix(3, i, j) for i in range(3) for j in range(3) if i <= j]
    base = sorted(recognition_sl_blocks(mats, 3)[0])
    for _ in range(3):
        perm = list(range(3))
        rng.shuffle(perm)
        p = zeros(3, 3)
        for i, pi in enumerate(perm):
            p[pi][i] = F(1)
        pinv = zeros(3, 3)
        for i, pi in enumerate(perm):
            pinv[i][pi] = F(1)
        conj = [mat_mul(p, mat_mul(m, pinv)) for m in mats]
        assert sorted(recognition_sl_blocks(conj, 3)[0]) == base


def test_recognition_desk_cap():
    with pytest.raises(PreconditionError, match="dimension too large"):
        recognition_sl_blocks([zeros(11, 11)], 11)


# the parent route, kept as the reference: close unit and kernel vectors
# under the matrices, take the smallest closure as the bottom factor, and
# recurse on the quotient

def coordinates(vectors, target):
    """x with sum_k x[k] vectors[k] == target, or None outside the span."""
    rows = [[v[t] for v in vectors] + [b] for t, b in enumerate(target)]
    return linalg.solve(sparse_rows(rows), len(vectors), 1)[0]


def inverse(a):
    """a^-1, its columns solved against the unit targets."""
    cols = linalg.solve(sparse_rows([row + unit for row, unit in zip(a, identity(len(a)))]),
                        len(a), len(a))
    return [list(row) for row in zip(*cols)]


def row_space_basis(vectors):
    """The rref rows of the span of some dense vectors, as dense vectors."""
    return dense_rows(linalg.rref(sparse_rows(vectors))[0], len(vectors[0]))


def submodule_closure(matrices, vectors):
    """Smallest subspace containing the vectors and stable under the matrices."""
    basis = row_space_basis([v for v in vectors if any(v)])
    while True:
        extra = []
        for b in basis:
            for m in matrices:
                img = mat_vec(m, b)
                if any(img) and coordinates(basis, img) is None:
                    extra.append(img)
        if not extra:
            return basis
        basis = row_space_basis(basis + extra)


def minimal_submodule(matrices, dim):
    """Minimal nonzero invariant subspace among the closures of the unit
    vectors and of the kernel vectors of the matrices."""
    candidates = list(identity(dim))
    for m in matrices:
        candidates.extend(linalg.kernel_basis(sparse_rows(m), dim))
    best = None
    for v in candidates:
        if not any(v):
            continue
        sub = submodule_closure(matrices, [v])
        key = (len(sub), [[str(c) for c in row] for row in sub])
        if best is None or key < best[0]:
            best = (key, sub)
    return best[1]


def quotient_action(matrices, sub, dim):
    """Action matrices on V/sub in a completed basis."""
    comp = []
    basis = list(sub)
    for v in identity(dim):
        if coordinates(basis, v) is None:
            comp.append(v)
            basis = row_space_basis(basis + [v])
    full = list(sub) + comp
    p = [[full[j][i] for j in range(dim)] for i in range(dim)]
    p_inv = inverse(p)
    k, q = len(sub), len(comp)
    out = []
    for m in matrices:
        conj = mat_mul(p_inv, mat_mul(m, p))
        out.append([[conj[k + i][k + j] for j in range(q)] for i in range(q)])
    return out, q


def closure_factors(matrices):
    factors = []
    current, remaining = matrices, len(matrices[0])
    while remaining > 0:
        sub = minimal_submodule(current, remaining)
        factors.append(len(sub))
        current, remaining = quotient_action(current, sub, remaining)
    return factors


def random_hypothesis_input(rng, dim):
    """Every E_ii and one to three random sparse matrices."""
    mats = [unit_matrix(dim, i, i) for i in range(dim)]
    for _ in range(rng.randrange(1, 4)):
        m = zeros(dim, dim)
        for _ in range(rng.randrange(1, 2 * dim)):
            m[rng.randrange(dim)][rng.randrange(dim)] = F(rng.choice([-3, -2, -1, 1, 2, 3]))
        mats.append(m)
    return mats


def test_recognition_matches_the_closure_route():
    rng = random.Random(14)
    for _ in range(100):
        mats = random_hypothesis_input(rng, rng.randrange(2, 7))
        factors, big = recognition_sl_blocks(mats)
        reference = closure_factors(mats)
        assert sorted(factors) == sorted(reference)
        assert big == sorted({n for n in reference if n >= 2})


def test_recognition_invariant_under_monomial_conjugation():
    # P = permutation times an invertible diagonal keeps the hypothesis
    rng = random.Random(15)
    for _ in range(40):
        dim = rng.randrange(2, 7)
        mats = random_hypothesis_input(rng, dim)
        factors, big = recognition_sl_blocks(mats)
        perm = list(range(dim))
        rng.shuffle(perm)
        scales = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(1, 4))
                  for _ in range(dim)]
        p = zeros(dim, dim)
        p_inv = zeros(dim, dim)
        for i, pi in enumerate(perm):
            p[pi][i] = scales[i]
            p_inv[i][pi] = 1 / scales[i]
        conj = [mat_mul(p_inv, mat_mul(m, p)) for m in mats]
        again, big_again = recognition_sl_blocks(conj)
        assert sorted(again) == sorted(factors)
        assert big_again == big


def invariant_coordinate_sets(mats, dim):
    """Every set S of coordinates whose span is stable under the matrices."""
    out = set()
    for mask in range(1 << dim):
        s = frozenset(i for i in range(dim) if mask >> i & 1)
        if all(not m[k][i] for m in mats for i in s for k in range(dim) if k not in s):
            out.add(s)
    return out


def test_recognition_prefixes_span_submodules():
    # brute force over coordinate subsets: some chain 0 = S_0 < ... < S_r = V
    # of invariant coordinate spans, each step a minimal one, has
    # |S_j - S_{j-1}| = factors[j-1] in the order returned
    rng = random.Random(16)
    for _ in range(60):
        dim = rng.randrange(2, 7)
        mats = random_hypothesis_input(rng, dim)
        factors, _big = recognition_sl_blocks(mats)
        invariant = invariant_coordinate_sets(mats, dim)
        chains = {frozenset()}
        for size in factors:
            chains = {t for s in chains for t in invariant
                      if s < t and len(t - s) == size
                      and not any(s < u < t for u in invariant)}
            assert chains
        assert frozenset(range(dim)) in chains


@pytest.mark.parametrize("mats", [
    [[[F(2), F(0)], [F(0), F(3)]]],
    # the same operator in the basis (1, 1), (1, -1)
    [[[Fraction(5, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(5, 2)]]],
])
def test_recognition_refuses_inputs_outside_the_hypothesis(mats):
    with pytest.raises(PreconditionError, match="recognition hypothesis"):
        recognition_sl_blocks(mats)


def test_recognition_borel_gl10_is_fast():
    mats = [unit_matrix(10, i, j) for i in range(10) for j in range(10) if i <= j]
    assert len(mats) == 55
    start = time.perf_counter()
    factors, big = recognition_sl_blocks(mats)
    assert time.perf_counter() - start < 1
    assert factors == [1] * 10
    assert big == []


# -- the polynomial sl2 algebroid ----------------------------------------

def test_filtration_small():
    for d in range(3):
        result = sl2_algebroid_filtration(d)
        assert result["quotient_count"] == d + 1
        assert result["ranks"] == list(range(d + 1, 0, -1))
    r2 = sl2_algebroid_filtration(2)
    assert r2["weights"] == [-2, 0, 2]


def test_filtration_scalar_observation():
    # observed quotient scalar is the full weight, not half of it
    r1 = sl2_algebroid_filtration(1)
    assert r1["half_factor_confirmed"] is False
    assert r1["quotient_scalars"] == [Fraction(-1), Fraction(1)]


def test_filtration_refuses_a_degree_outside_desk_scale(monkeypatch):
    # d = 400 takes about 0.5 s on a 2-core VM, d = 600 about 2 s; a larger d
    # is refused before any vector is built
    monkeypatch.setattr(repmod, "_algebroid_ops", None)
    for d in (401, 10 ** 6):
        with pytest.raises(PreconditionError, match=r"outside desk scale \(need 0 <= d <= 400\)"):
            sl2_algebroid_filtration(d)
    with pytest.raises(PreconditionError, match="degree must be non-negative"):
        sl2_algebroid_filtration(-1)


# the closure route: operators through Polynomial, each submodule closed by
# rebuilding its basis once per round

# polynomial coefficient of d/dx for H, X+, X- in Q[x]
ANCHOR = {
    "H": Polynomial(1, {(1,): F(2)}),
    "X+": Polynomial(1, {(2,): F(1)}),
    "X-": Polynomial(1, {(0,): F(-1)}),
}


def vec_diff(vec):
    return FreeModuleElement.from_polys([p.diff(0) for p in vec.to_polys()])


def vec_matrix(mat, vec):
    comps = vec.to_polys()
    return FreeModuleElement.from_polys([
        sum((c * mat[i][j] for j, c in enumerate(comps) if mat[i][j]), Polynomial.zero(1))
        for i in range(len(comps))])


def polynomial_ops(d):
    return {name: (lambda vec, mat=mat, anchor=ANCHOR[name]:
                   FreeModuleElement.from_polys([anchor * p for p in vec_diff(vec).to_polys()])
                   + vec_matrix(mat, vec))
            for name, mat in zip(("H", "X+", "X-"), dense_matrices(binary_form_rep(d)))}


def dg_closure(gens, ops):
    """Basis of the Q[x]-submodule closure of gens under the operators."""
    basis = list(gens)
    while True:
        gb = groebner_basis(basis)
        extra = [img for b in basis for img in (op(b) for op in ops.values())
                 if not img.is_zero() and not gb.contains(img)]
        if not extra:
            return gb
        basis = basis + extra


def closure_filtration(d):
    """The filtration's report and the basis of the closure of each m_i."""
    ops = polynomial_ops(d)
    vectors = [FreeModuleElement(1, d + 1, {(d, (0,)): F(1)})]
    for i in range(1, d + 1):
        prev = vectors[-1]
        vectors.append(ops["X+"](prev) - prev.mul_term((1,), -d + 2 * (i - 1)))
    weights = [-d + 2 * i for i in range(d + 1)]
    closures = [dg_closure([m], ops) for m in vectors]
    scalars = []
    for i, (m, w) in enumerate(zip(vectors, weights)):
        image = ops["X+"](m)
        for cand in (F(w), Fraction(w, 2)):
            residual = image - m.mul_term((1,), cand)
            if residual.is_zero() or (i < d and closures[i + 1].contains(residual)):
                scalars.append(cand)
                break
    report = {
        "highest_vectors": vectors,
        "weights": weights,
        "ranks": [len({pos for pos, _e in gb.leads()}) for gb in closures],
        "quotient_count": d + 1,
        "quotient_scalars": scalars,
        "half_factor_confirmed": all(c == Fraction(w, 2) for c, w in zip(scalars, weights)),
    }
    return report, closures


@pytest.mark.parametrize("d", range(9))
def test_filtration_matches_the_closure_route(d):
    result = sl2_algebroid_filtration(d)
    report, closures = closure_filtration(d)
    assert result == report
    # N_i = Q[x] m_i + ... + Q[x] m_d is the closure of m_i alone
    for i, closure in enumerate(closures):
        assert groebner_basis(result["highest_vectors"][i:]).elements == closure.elements


def test_filtration_ranks_are_the_lead_positions_of_the_bases():
    # the Groebner certificate of the ranks: the reduced basis of m_i, ...,
    # m_d has one lead at each of d + 1 - i positions, and under position
    # over term its elements are then a free basis
    for d in range(31):
        result = sl2_algebroid_filtration(d)
        vectors = result["highest_vectors"]
        ranks = [len({pos for pos, _exp in groebner_basis(vectors[i:]).leads()})
                 for i in range(d + 1)]
        assert ranks == result["ranks"] == list(range(d + 1, 0, -1))


def test_algebroid_operators_match_the_polynomial_route():
    rng = random.Random(41)
    for d in range(7):
        ops, reference = repmod._algebroid_ops(d), polynomial_ops(d)
        for _ in range(6):
            terms = {(rng.randrange(d + 1), (rng.randrange(5),)): F(rng.randrange(-4, 5))
                     for _ in range(rng.randrange(1, 7))}
            vec = FreeModuleElement(1, d + 1, terms)
            for name in ("H", "X+", "X-"):
                assert ops[name](vec) == reference[name](vec)


def test_filtration_builds_no_groebner_basis(monkeypatch):
    calls = []
    original = groebner.groebner_basis

    def counted(gens, weights=None):
        calls.append(weights)
        return original(gens, weights)

    # every module of the package that imported groebner_basis by name
    for name, module in list(sys.modules.items()):
        if name.startswith("algebroids") and getattr(module, "groebner_basis", None) is original:
            monkeypatch.setattr(module, "groebner_basis", counted)
    sl2_algebroid_filtration(6)
    # the recursion and the shape of the m_i certify the report
    assert calls == []


def faulty_ops(name, fault):
    """_algebroid_ops with ops[name] replaced by fault(ops[name])."""
    original = repmod._algebroid_ops

    def ops(d):
        out = original(d)
        out[name] = fault(out[name])
        return out

    return ops


def one_position_ops(d, original=repmod._algebroid_ops):
    """_algebroid_ops with X+ v = d x v and X- = 0: the m_i are multiples of
    x^i v_d, which pass every check but the shape, and every N_i is Q[x] m_i,
    of rank one."""
    ops = original(d)
    ops["X+"] = lambda v: v.mul_term((1,), d)
    ops["X-"] = lambda v: v.scale(0)
    return ops


def grows_on_top_weight(op):
    # adds x v to vectors with a term at position 0; of the m_i only m_d has one
    return lambda v: op(v) + v.mul_term((1,), int(any(pos == 0 for pos, _e in v.terms)))


@pytest.mark.parametrize("name, fake, message", [
    ("_algebroid_ops", faulty_ops("X+", lambda op: lambda v: v.mul_term((1,), -2)),
     "filtration vector vanished"),
    ("_algebroid_ops", faulty_ops("X-", lambda op: lambda v: v),
     "X- does not annihilate"),
    ("_algebroid_ops", faulty_ops("H", lambda op: lambda v: v.scale(0)),
     "H eigenvalue mismatch"),
    ("_algebroid_ops", one_position_ops, "ranks do not drop by one"),
    ("_algebroid_ops", faulty_ops("X+", grows_on_top_weight),
     "no scalar quotient relation"),
])
def test_filtration_raises_each_failed_check(monkeypatch, name, fake, message):
    sl2_algebroid_filtration(2)
    monkeypatch.setattr(repmod, name, fake)
    with pytest.raises(InconsistencyError, match=message):
        sl2_algebroid_filtration(2)
