"""Finite-dimensional Lie algebras by structure constants, and fibre Lie
algebra extraction from derivation modules."""

from itertools import combinations, product

from . import graded, linalg
from .derivations import Derivation
from .errors import AlgebroidError, InconsistencyError, PreconditionError
from .poly import _exact


class LieAlgebra:
    """Structure constants c_ij^k over Q; Jacobi identity validated exactly.

    The constants are given as sparse rows {(i, j): {k: c}} for i < j,
    [e_i, e_j] = sum_k c e_k, and kept as one antisymmetric table holding
    the rows for both orders; zero constants and zero brackets are absent.
    Vectors of the algebra are sparse too, {i: c} for sum_i c e_i.  The
    table is also the adjoint action: row (j, i) is [e_j, e_i], the sparse
    column i of ad e_j.
    """

    __slots__ = ("dim", "labels", "_table")

    def __init__(self, dim, brackets, labels=None):
        self.dim = dim
        self.labels = list(labels) if labels is not None else [f"e{i + 1}" for i in range(dim)]
        if dim < 0 or len(self.labels) != dim:
            raise ValueError("dim must be >= 0, with one label per basis vector")
        self._table = {}
        for (i, j), row in brackets.items():
            if not (0 <= i < j < dim and all(0 <= k < dim for k in row)):
                raise ValueError("brackets are rows {k: c} for 0 <= i < j < dim and 0 <= k < dim")
            row = {k: _exact(c) for k, c in row.items() if c}
            if row:
                self._table[(i, j)] = row
                self._table[(j, i)] = {k: -c for k, c in row.items()}
        self._validate_jacobi()

    def bracket(self, u, v):
        """[u, v] of two sparse vectors {i: c}, as a sparse vector."""
        if not all(0 <= i < self.dim for w in (u, v) for i in w):
            raise ValueError("bracket of two vectors {i: c} with 0 <= i < dim")
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                row = self._table.get((i, j))
                if row:
                    ab = a * b
                    for k, c in row.items():
                        out[k] = out.get(k, 0) + ab * c
        return {k: c for k, c in out.items() if c}

    def _validate_jacobi(self):
        """The Jacobi identity: for each triple i < j < k the cyclic sum
        [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] vanishes.

        A term [[e_a, e_b], e_c] with a < b and c outside {a, b} is
        sum_m c_ab^m [e_m, e_c], so only nonzero brackets [e_a, e_b] and
        [e_m, e_c] are visited.  The term belongs to the sum of the sorted
        triple, negated exactly when a < c < b: that sum holds [[e_b, e_a],
        e_c] = -[[e_a, e_b], e_c].  The identity is homogeneous quadratic in
        the constants, so it is checked on integers: all the constants
        times one scale, linalg.integral of the flattened table."""
        flat = {(pair, k): c for pair, row in self._table.items() for k, c in row.items()}
        table = {}
        for (pair, k), c in linalg.integral(flat)[1].items():
            table.setdefault(pair, {})[k] = c
        rows_of = {}
        for (m, c), row in table.items():
            rows_of.setdefault(m, []).append((c, row))
        sums = {}
        for (a, b), row in table.items():
            if a > b:
                continue
            for m, x in row.items():
                for c, inner in rows_of.get(m, ()):
                    if c < a:
                        total, s = sums.setdefault((c, a, b), {}), x
                    elif c > b:
                        total, s = sums.setdefault((a, b, c), {}), x
                    elif a < c < b:
                        total, s = sums.setdefault((a, c, b), {}), -x
                    else:
                        continue
                    for t, y in inner.items():
                        total[t] = total.get(t, 0) + s * y
        if any(v for total in sums.values() for v in total.values()):
            raise AlgebroidError("Jacobi identity fails")

    # -- series ----------------------------------------------------------
    def _bracket_span(self, pairs):
        prods = [self.bracket(a, b) for a, b in pairs]
        return linalg.rref([p for p in prods if p])[0]

    def _series(self, derived, lower):
        """Dimensions of g, [g,g] = derived, ... until 0 or a repeat; the next
        term is [g, current] if lower (lower central series), else
        [current, current] (derived series)."""
        whole = [{i: 1} for i in range(self.dim)]
        dims = [self.dim, len(derived)]
        current = derived
        while dims[-1] and dims[-1] != dims[-2]:
            # [a, a] = 0 and [b, a] = -[a, b]: the derived series needs each
            # unordered pair once
            current = self._bracket_span(
                product(whole, current) if lower else combinations(current, 2))
            dims.append(len(current))
        return dims

    def derived_subalgebra_basis(self):
        return linalg.rref([row for (i, j), row in self._table.items() if i < j])[0]

    # -- the Killing form -------------------------------------------------
    def killing_matrix(self):
        """Sparse rows of kappa_ab = tr(ad e_a ad e_b) = sum c_ai^k c_bk^i,
        read off the table; grouping the c_bk^i by (k, i) sums only the
        nonzero products."""
        by_entry = {}
        for (b, k), row in self._table.items():
            for i, c in row.items():
                by_entry.setdefault((k, i), []).append((b, c))
        kappa = [{} for _ in range(self.dim)]
        for (a, i), row in self._table.items():
            out = kappa[a]
            for k, c in row.items():
                for b, d in by_entry.get((k, i), ()):
                    out[b] = out.get(b, 0) + c * d
        return [{b: x for b, x in row.items() if x} for row in kappa]

    def fingerprint(self):
        """Invariants of the algebra; solvability is certified twice, by the
        derived series and by Cartan's criterion (radical = {x : kappa(x,
        [g, g]) = 0} is everything)."""
        derived = self.derived_subalgebra_basis()
        kappa = self.killing_matrix()
        series = self._series(derived, lower=False)
        # kappa is symmetric, so kappa b combines kappa's rows by b
        radical_dim = self.dim - linalg.rank([linalg.combine(b, kappa) for b in derived])
        solvable = series[-1] == 0
        if solvable != (radical_dim == self.dim):
            raise InconsistencyError("derived series and Cartan criterion disagree")
        # x = sum x_i e_i is central iff sum_i x_i c_ij^k = 0 for every j, k:
        # x is in the left kernel of the rows {j dim + k: c_ij^k}
        brackets = [{} for _ in range(self.dim)]
        for (i, j), row in self._table.items():
            brackets[i].update((j * self.dim + k, c) for k, c in row.items())
        return {
            "dim": self.dim,
            "derived_series": series,
            "lower_central_series": self._series(derived, lower=True),
            "killing_rank": linalg.rank(kappa),
            "radical_dim": radical_dim,
            "center_dim": self.dim - linalg.rank(brackets),
            "solvable": solvable,
        }

    def to_json(self):
        # the report writes each nonzero bracket as a dense vector
        entries = [[i + 1, j + 1, [str(row.get(k, 0)) for k in range(self.dim)]]
                   for (i, j), row in sorted(self._table.items()) if i < j]
        return {"dim": self.dim, "brackets": entries, "labels": list(self.labels)}

    def __repr__(self):
        rows = {pair: row for pair, row in self._table.items() if pair[0] < pair[1]}
        return f"LieAlgebra(dim={self.dim}, brackets={rows})"


def represents(algebra, columns):
    """Whether the sparse columns columns[k][v] = {r: entry} of rho(e_k)
    satisfy rho([e_i, e_j]) = [rho(e_i), rho(e_j)], checked exactly for every
    pair i < j and every column v (a column empty in rho_i, rho_j and every
    rho_k of the bracket has a zero residual)."""
    table = algebra._table
    live = [{v for v, col in enumerate(m) if col} for m in columns]
    for i in range(algebra.dim):
        rho_i = columns[i]
        for j in range(i + 1, algebra.dim):
            rho_j = columns[j]
            bracket = table.get((i, j), {})
            terms = [(columns[k], c) for k, c in bracket.items()]
            for v in live[i].union(live[j], *(live[k] for k in bracket)):
                # column v of rho_i rho_j - rho_j rho_i - sum_k c_ij^k rho_k
                residual = {}
                for mid, a in rho_j[v].items():
                    for r, b in rho_i[mid].items():
                        residual[r] = residual.get(r, 0) + a * b
                for mid, a in rho_i[v].items():
                    for r, b in rho_j[mid].items():
                        residual[r] = residual.get(r, 0) - a * b
                for rho_k, c in terms:
                    for r, b in rho_k[v].items():
                        residual[r] = residual.get(r, 0) - c * b
                if any(residual.values()):
                    return False
    return True


def sl2():
    """Standard basis H, X, Y with [H,X]=2X, [H,Y]=-2Y, [X,Y]=H."""
    return LieAlgebra(3, {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
                      labels=["H", "X", "Y"])


def span_lie_algebra(vectors, bracket, labels=None):
    """Structure constants of the span of linearly independent sparse
    vectors {t: c}, closed under bracket(a, b), the bracket of vectors[a]
    and vectors[b] as a sparse vector.

    One linalg.solve against the vectors gives every bracket's coordinates."""
    k = len(vectors)
    pairs = list(combinations(range(k), 2))
    columns = list(vectors) + [bracket(a, b) for a, b in pairs]
    solutions = linalg.solve(linalg.from_columns(columns), k, len(pairs))
    if None in solutions:
        raise AlgebroidError("span is not closed under the bracket")
    return LieAlgebra(k, {pair: {t: c for t, c in enumerate(x) if c}
                          for pair, x in zip(pairs, solutions)}, labels)


# -- fibre Lie algebra extraction -----------------------------------------

def minimal_module_generators(dm):
    """(kept fields as vectors, their degrees): a minimal homogeneous
    generating set of the derivation module, by graded Nakayama over the
    homogeneous components of the generators, each degree's in the order of
    their sorted terms."""
    if not dm.ideal.is_quasi_homogeneous():
        raise PreconditionError("not quasi-homogeneous")
    weights = dm.weights
    shifts = [-w for w in weights]
    comps = sorted((c for g in dm.generators
                    for c in g.vector.homogeneous_components(weights, shifts).values()),
                   key=lambda v: sorted(v.terms))
    kept, degrees = graded.minimal_generators(comps, weights, shifts)
    return [comps[k] for k in kept], degrees


def fibre_lie_algebra(dm, require_origin=True):
    """T(I)/m T(I) as a structure-constant Lie algebra with a minimal basis.

    require_origin enforces the vanishing-at-origin reduction used for
    singularity analyses; toral analyses pass False to keep constant fields.
    The class of [d_i, d_j] is homogeneous of degree deg d_i + deg d_j, so
    the coordinates of all brackets of one degree d on the kept fields of
    degree d come from one graded.coordinates; they are unique because the
    kept classes are a basis of T/mT.
    """
    basis_vecs, degrees = minimal_module_generators(dm)
    if require_origin and not dm.all_vanish_at_origin():
        raise PreconditionError("not logarithmic at origin")
    basis = [Derivation.from_vector(v) for v in basis_vecs]
    m = len(basis)
    pairs_by_degree = {}
    for i in range(m):
        for j in range(i + 1, m):
            pairs_by_degree.setdefault(degrees[i] + degrees[j], []).append((i, j))
    brackets = {}
    for d, pairs in pairs_by_degree.items():
        found = graded.coordinates(basis_vecs, degrees, d, dm.weights,
                                   [basis[i].bracket(basis[j]).vector for i, j in pairs])
        for pair, x in zip(pairs, found):
            if x is None:
                raise AlgebroidError("bracket leaves the module (not a Lie algebroid?)")
            brackets[pair] = x
    labels = [f"d{i + 1}" for i in range(m)]
    algebra = LieAlgebra(m, brackets, labels)
    return algebra, basis
