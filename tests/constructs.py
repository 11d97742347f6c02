"""Paper constructs that no report computes, kept as tested code: the
recognition of sl-blocks from a spanning set of matrices, and the
restriction of a torus-character series to a finitely generated
subsemigroup Gamma of the character lattice, with its noetherianity check."""

from algebroids import linalg
from algebroids.errors import PreconditionError
from algebroids.series import CharacterSeries

from references import sparse_rows


def recognition_sl_blocks(matrices, dim=None):
    """Composition-factor dimensions of V under the span of the given
    matrices, bottom up, and the set F of factors of dimension >= 2.

    Recognition hypothesis: the diagonal trace-zero Cartan of sl(V) lies in
    the span; PreconditionError otherwise.  Under it the diagonal torus acts
    on the coordinate lines with distinct characters, so every invariant
    subspace is spanned by coordinate vectors (Humphreys, 20.1).  The factors
    are then the strongly connected components of the graph with an edge
    i -> k whenever some matrix has a nonzero entry in row k, column i.
    Components are listed by the dimension of the submodule they generate,
    then by their smallest coordinate, so each prefix spans a submodule."""
    if dim is None:
        dim = len(matrices[0])
    if dim > 10:
        raise PreconditionError("dimension too large")
    # one row per entry (i, j): the matrices, then the targets E_cc - E_(c+1)(c+1)
    rows = [[m[i][j] for m in matrices]
            + [(i == j == c) - (i == j == c + 1) for c in range(dim - 1)]
            for i in range(dim) for j in range(dim)]
    if None in linalg.solve(sparse_rows(rows), len(matrices), dim - 1):
        raise PreconditionError("recognition hypothesis fails: the diagonal trace-zero "
                                "Cartan of sl(V) is not in the span")
    succ = [{k for m in matrices for k in range(dim) if m[k][i]} for i in range(dim)]
    # reach[i]: the coordinates spanning the submodule generated by e_i
    reach = []
    for i in range(dim):
        seen, todo = {i}, [i]
        while todo:
            new = succ[todo.pop()] - seen
            seen |= new
            todo.extend(new)
        reach.append(seen)
    components = {min(comp): comp for comp in
                  ({k for k in reach[i] if i in reach[k]} for i in range(dim))}
    factors = [len(components[low]) for low in
               sorted(components, key=lambda low: (len(reach[low]), low))]
    return factors, sorted({n for n in factors if n >= 2})


class SemigroupSpec:
    """Finitely generated subsemigroup of Z^m with bounded membership test."""

    __slots__ = ("rank", "generators", "bound")

    def __init__(self, rank, generators, bound=64):
        self.rank = rank
        self.generators = [tuple(g) for g in generators]
        for g in self.generators:
            if len(g) != rank:
                raise ValueError("generator arity mismatch")
        self.bound = bound

    def contains(self, chi):
        chi = tuple(chi)
        if len(chi) != self.rank:
            return False
        zero = (0,) * self.rank
        if chi == zero:
            return True
        if sum(abs(c) for c in chi) > self.bound:
            raise PreconditionError("membership query exceeds the configured bound")
        if all(all(c >= 0 for c in g) for g in self.generators):
            # non-negative generators: descend componentwise
            seen = set()
            stack = [chi]
            while stack:
                pt = stack.pop()
                if pt in seen:
                    continue
                seen.add(pt)
                for g in self.generators:
                    rem = tuple(a - b for a, b in zip(pt, g))
                    if rem == zero:
                        return True
                    if all(c >= 0 for c in rem):
                        stack.append(rem)
            return False
        # mixed signs: breadth-first search bounded by coordinate size
        seen = {zero}
        frontier = [zero]
        while frontier:
            new = []
            for pt in frontier:
                for g in self.generators:
                    nxt = tuple(a + b for a, b in zip(pt, g))
                    if nxt == chi:
                        return True
                    if nxt not in seen and all(abs(c) <= self.bound for c in nxt):
                        seen.add(nxt)
                        new.append(nxt)
            frontier = new
        return False


def support(cs):
    """The characters with a nonzero coefficient in some degree of cs."""
    chars = set()
    for lc in cs.coeffs.values():
        chars.update(lc)
    return chars


def gamma_restriction(cs, gamma):
    """Filter a CharacterSeries to characters in the subsemigroup gamma.

    Returns (restricted series, condition report dict).  The noetherianity
    condition Gamma + Gamma^c subset Gamma^c is checked on the support found
    through the series bound.  Pairs whose sum lies past gamma's own bound are
    counted as unchecked; while any is, nothing is verified to the bound and
    the condition is undecided (None) unless a violation was found.
    """
    inside, outside = set(), set()
    for chi in support(cs):
        (inside if gamma.contains(chi) else outside).add(chi)
    violations = []
    unchecked = 0
    for g in inside:
        for c in outside:
            s = tuple(a + b for a, b in zip(g, c))
            try:
                if gamma.contains(s):
                    violations.append((g, c))
            except PreconditionError:
                unchecked += 1
    restricted = CharacterSeries(
        cs.rank,
        {n: {chi: v for chi, v in lc.items() if chi in inside} for n, lc in cs.coeffs.items()},
        cs.bound)
    holds = False if violations else (None if unchecked else True)
    report = {"verified_to_bound": None if unchecked else cs.bound,
              "condition_holds_on_support": holds, "violations": violations,
              "unchecked_pairs": unchecked}
    return restricted, report
