"""Groebner bases for ideals and submodules of free modules over Q[x1..xn].

Buchberger's algorithm.  A pair of single-term elements, or (ideals only,
where it is valid) of coprime leads, is marked treated when it is formed
and never queued; the chain criterion is tested on each pair as it is
taken, against the elements treated with both.  S-pairs are taken by least
sugar, the degree an S-polynomial would have had if the input had been
homogenized (Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar cube,
please", ISSAC 1991), ties by the least lcm; on every input, under the
order's own weights.  An input waits in the same queue at its sugar, as a
pair with nothing, and is reduced like an S-polynomial when taken (Kreuzer
and Robbiano, Computational Commutative Algebra 2, 2005): only a nonzero
remainder joins the basis, so an input that reduces to zero forms no pair.
It runs fraction free on primitive int vectors (linalg.integral,
linalg.primitive and linalg.eliminate, which row elimination shares), and a
basis keeps them.  It takes module elements, under one order: weighted
grevlex, position over term.  Syzygies modulo relations u and coefficient
lifts over the original generators are both read off one basis of the
augmented rows (v_i, e_i) and (u, 0).
"""

import heapq
from fractions import Fraction
from math import gcd
from operator import neg, sub

from . import graded, linalg
from .errors import PreconditionError
from .poly import Polynomial, _exact, divides, minimal_monomials, mono_mul, wdeg


def order_key(weights=None):
    """Sort key of the one order on module monomials (pos, exp): weighted
    graded reverse lex, position over term.  A lower position is larger; at
    one position the larger weighted degree wins, then the smaller last
    differing exponent.  The key sorts ascending exactly when the monomials
    sort descending, so the largest monomial has the least key.  Unit weights
    give the plain key."""
    if weights and not all(w > 0 for w in weights):
        raise ValueError("term order weights must be positive")
    weights = tuple(weights) if weights and any(w != 1 for w in weights) else None

    def key(mono):
        pos, exp = mono
        return (pos, -wdeg(exp, weights)) + exp[::-1]

    return key


def _quot(b, a):
    return tuple(map(sub, b, a))


def _lcm_exp(a, b):
    return tuple(map(max, a, b))


class FreeModuleElement:
    """Element of the free module A^rank; rank 1 doubles as a polynomial."""

    __slots__ = ("nvars", "rank", "terms")

    def __init__(self, nvars, rank, terms=None):
        self.nvars = nvars
        self.rank = rank
        clean = {}
        if terms:
            for (pos, exp), c in terms.items():
                if type(c) is not int:
                    c = _exact(c)
                if c:
                    clean[(pos, tuple(exp))] = c
        self.terms = clean

    @classmethod
    def _clean(cls, nvars, rank, terms):
        """The element that holds terms itself, with no pass over them: the
        caller knows each key is (pos, exponent tuple) and each coefficient
        a nonzero int or Fraction in the one form (poly._exact)."""
        element = cls.__new__(cls)
        element.nvars, element.rank, element.terms = nvars, rank, terms
        return element

    @classmethod
    def from_polys(cls, polys):
        if len({p.nvars for p in polys}) != 1:
            raise ValueError("need polynomials of one ring")
        nvars = polys[0].nvars
        terms = {}
        for pos, p in enumerate(polys):
            for exp, c in p.terms.items():
                terms[(pos, exp)] = c
        return cls._clean(nvars, len(polys), terms)

    @classmethod
    def from_poly(cls, p):
        return cls.from_polys([p])

    def to_polys(self):
        polys = [dict() for _ in range(self.rank)]
        for (pos, exp), c in self.terms.items():
            polys[pos][exp] = c
        return [Polynomial(self.nvars, t) for t in polys]

    def is_zero(self):
        return not self.terms

    def project(self, positions):
        """Restrict to the given positions, renumbered 0..len-1."""
        remap = {p: i for i, p in enumerate(positions)}
        terms = {(remap[pos], exp): c for (pos, exp), c in self.terms.items() if pos in remap}
        return FreeModuleElement._clean(self.nvars, len(positions), terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return FreeModuleElement(self.nvars, self.rank, terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) - c
        return FreeModuleElement(self.nvars, self.rank, terms)

    def scale(self, c):
        c = _exact(c)
        return FreeModuleElement(self.nvars, self.rank, {m: c * v for m, v in self.terms.items()})

    def mul_term(self, exp, coeff=1):
        if coeff == 1:  # only shifts the exponents, so the terms stay clean
            return FreeModuleElement._clean(self.nvars, self.rank, {
                (pos, mono_mul(e, exp)): c for (pos, e), c in self.terms.items()})
        coeff = _exact(coeff)
        return FreeModuleElement(self.nvars, self.rank, {
            (pos, mono_mul(e, exp)): c * coeff for (pos, e), c in self.terms.items()})

    def homogeneous_components(self, weights=None, shifts=None):
        parts = {}
        for (pos, exp), c in self.terms.items():
            d = wdeg(exp, weights)
            if shifts is not None:
                d += shifts[pos]
            parts.setdefault(d, {})[(pos, exp)] = c
        return {d: FreeModuleElement._clean(self.nvars, self.rank, t) for d, t in sorted(parts.items())}

    def __eq__(self, other):
        return (isinstance(other, FreeModuleElement) and self.rank == other.rank
                and self.nvars == other.nvars and self.terms == other.terms)

    def __repr__(self):
        return f"FreeModuleElement({self.to_polys()!r})"


def _buckets(leads):
    """Map each module position to the (index, exponent, coeff) of the leads there."""
    out = {}
    for idx, ((pos, exp), coeff) in enumerate(leads):
        out.setdefault(pos, []).append((idx, exp, coeff))
    return out


def _reduce(terms, buckets, elements, key):
    """Full normal form of the terms modulo int elements with positive leading
    coefficients, fraction free: (rem, s), rem the int terms of s > 0 times it.

    buckets maps a module position to the leading terms of the elements there
    (see _buckets).  Pending monomials wait in a heap, largest first; a
    reduction step only creates monomials below the one it removes, so a
    popped monomial is final.  A step cancels c x^e against a lead l x^f as
    (l/g) (everything) - (c/g) x^(e-f) (element), g = gcd(c, l), in place:
    linalg.eliminate copies, which would make a long reduction quadratic.
    """
    scale, work = linalg.integral(terms)
    if work is terms:  # an int row comes back itself; the caller keeps it
        work = dict(terms)
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    rem = {}
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono, None)
        if coeff is None:  # cancelled, or already popped
            continue
        pos, exp = mono
        for idx, lexp, lcoeff in buckets.get(pos, ()):
            if divides(lexp, exp):
                break
        else:
            rem[mono] = coeff
            continue
        g = gcd(coeff, lcoeff)
        up, factor = lcoeff // g, coeff // g
        if up != 1:
            scale *= up
            work = {m: c * up for m, c in work.items()}
            rem = {m: c * up for m, c in rem.items()}
        qexp = _quot(exp, lexp)
        for (p2, e2), c2 in elements[idx].terms.items():
            m2 = (p2, mono_mul(e2, qexp))
            if m2 == mono:  # the leading term, cancelled by construction
                continue
            old = work.get(m2)
            if old is None:
                work[m2] = -factor * c2
                heapq.heappush(heap, (key(m2), m2))
            else:
                nv = old - factor * c2
                if nv:
                    work[m2] = nv
                else:
                    del work[m2]
    return rem, scale


class GroebnerBasis:
    """Reduced Groebner basis sorted by descending lead; each element held
    once, as its primitive int multiple with a positive leading coefficient."""

    __slots__ = ("key", "elements", "nvars", "rank", "_leads", "_buckets")

    def __init__(self, key, elements, monos, nvars, rank):
        self.key = key
        self.nvars = nvars
        self.rank = rank
        self.elements = elements
        self._buckets = _buckets([(m, e.terms[m]) for m, e in zip(monos, elements)])
        self._leads = tuple(monos)

    def leads(self):
        """The leading monomials (pos, exp) of the elements, in order, as
        groebner_basis found them."""
        return self._leads

    def normal_form(self, f):
        """Remainder of the module element f modulo the basis, reduced fraction free."""
        rem, scale = _reduce(f.terms, self._buckets, self.elements, self.key)
        return FreeModuleElement(self.nvars, self.rank, {m: Fraction(c, scale) for m, c in rem.items()})

    def contains(self, f):
        # the fraction-free remainder is zero exactly when the normal form is
        return not _reduce(f.terms, self._buckets, self.elements, self.key)[0]


def groebner_basis(gens, weights=None):
    """Reduced Groebner basis of the given module elements under
    order_key(weights), kept fraction free as primitive int vectors with
    positive leading coefficients.

    The inputs and the S-pairs wait in one queue, and the entry of least
    sugar is reduced first: an input ahead of the pairs of its sugar, a
    pair ahead of those with a larger lcm under the order.  An input's
    sugar is its largest degree wdeg(exp, weights), positions ignored; a
    pair's is the larger of its two elements' sugars, each raised by the
    degree its lead gains on the way to the lcm; a remainder keeps its
    entry's.  Only a nonzero remainder joins the basis.  On homogeneous
    ideals the sugar is the degree, so a degree is complete before the
    next starts.  The reduced basis is unique, so the order moves only the
    work.

    A pair of two single terms, or of coprime leads in an ideal, is marked
    treated when formed and never queued.  A queued pair is marked when
    taken; the chain criterion then skips it if some k treated with both
    has a lead dividing its lcm."""
    key = order_key(weights)
    items = [g for g in gens if not g.is_zero()]
    if not items:
        raise PreconditionError("no nonzero generators")
    nvars = items[0].nvars
    rank = items[0].rank
    for g in items:
        if g.nvars != nvars or g.rank != rank:
            raise ValueError("mixed ambient modules")

    basis = []
    leads = []  # (mono, coeff) of basis[k], computed once when k is added
    buckets = {}  # _buckets(leads), kept in step
    # the sugar of basis[k] less its lead's degree: a pair's sugar is the
    # degree of the lcm plus the larger of its two elements' gaps
    gaps = []
    # heap of ((sugar,) + negated key of (pos, lcm), i, j) for the pair of
    # basis[i] and basis[j], the least sugar first, ties by the least lcm; the
    # input items[n] waits as ((sugar,), -1, n), ahead of the pairs of its sugar
    queue = [((max(wdeg(exp, weights) for _pos, exp in g.terms),), -1, n) for n, g in enumerate(items)]
    heapq.heapify(queue)
    treated = []  # treated[k]: the j whose pair with basis[k] is reduced or needs no reduction

    def add(terms, sugar):
        j = len(basis)
        mono = min(terms, key=key)
        element = FreeModuleElement._clean(nvars, rank, linalg.primitive(terms, mono))
        (pos, exp), coeff = lead = mono, element.terms[mono]
        gap = sugar - wdeg(exp, weights)
        treated.append(set())
        for i, lexp, _c in buckets.get(pos, ()):
            # two single terms have a zero S-polynomial, and coprime leads of
            # an ideal one that reduces to zero (Buchberger's first criterion)
            if (len(terms) == 1 and len(basis[i].terms) == 1
                    or rank == 1 and not any(map(min, lexp, exp))):
                treated[i].add(j)
                treated[j].add(i)
            else:
                lcm = _lcm_exp(lexp, exp)
                priority = (wdeg(lcm, weights) + max(gaps[i], gap),) + tuple(map(neg, key((pos, lcm))))
                heapq.heappush(queue, (priority, i, j))
        basis.append(element)
        leads.append(lead)
        gaps.append(gap)
        buckets.setdefault(pos, []).append((j, exp, coeff))

    while queue:
        priority, i, j = heapq.heappop(queue)
        if i < 0:  # the input items[j]
            terms = items[j].terms
        else:
            treated[i].add(j)
            treated[j].add(i)
            p, ei = leads[i][0]
            ej = leads[j][0][1]
            L = _lcm_exp(ei, ej)
            # chain criterion (Buchberger's second)
            if any(divides(leads[k][0][1], L) for k in treated[i] & treated[j]):
                continue
            # the S-polynomial: the leads, shifted to their lcm, cancel as in rref
            terms = linalg.eliminate(basis[i].mul_term(_quot(L, ei)).terms,
                                     basis[j].mul_term(_quot(L, ej)).terms, (p, L))
        rem = _reduce(terms, buckets, basis, key)[0]
        if rem:
            add(rem, priority[0])

    # minimal basis: at each position, the elements whose leads are minimal
    # (of equal leads the first stays)
    keep = []
    for bucket in buckets.values():
        first = {exp: k for k, exp, _c in reversed(bucket)}
        keep += [first[exp] for exp in minimal_monomials(first)]
    keep.sort()
    basis = [basis[k] for k in keep]
    leads = [leads[k] for k in keep]
    buckets = _buckets(leads)
    # tail reduction to the unique reduced basis, modulo the minimal basis: the
    # leads never change, and no element's own lead divides a monomial below it
    reduced = {}
    for element, (mono, coeff) in zip(basis, leads):
        rem, scale = _reduce({m: c for m, c in element.terms.items() if m != mono}, buckets, basis, key)
        reduced[mono] = FreeModuleElement._clean(nvars, rank, linalg.primitive({mono: coeff * scale, **rem}, mono))
    monos = sorted(reduced, key=key)
    return GroebnerBasis(key, [reduced[m] for m in monos], monos, nvars, rank)


# -- ideals ---------------------------------------------------------------

class Ideal:
    """Ideal of Q[x1..xn] with a weight vector for quasi-homogeneous work."""

    __slots__ = ("nvars", "weights", "gens", "_gb", "_memo")

    def __init__(self, nvars, gens, weights=None):
        self.nvars = nvars
        self.weights = tuple(weights) if weights else (1,) * nvars
        if len(self.weights) != nvars or not all(type(w) is int and w > 0 for w in self.weights):
            raise ValueError(f"need one positive int weight per variable, got {self.weights}")
        self.gens = [g for g in gens if not g.is_zero()]
        self._gb = None  # the basis under order_key(weights), built on first use
        # colength and powers; gens is never mutated after this
        self._memo = {}

    def groebner(self):
        """The reduced basis under order_key(weights); the zero ideal's is
        empty, so it contains only 0 and every monomial is standard."""
        if self._gb is None:
            gens = [FreeModuleElement.from_poly(g) for g in self.gens]
            self._gb = (groebner_basis(gens, self.weights) if gens
                        else GroebnerBasis(order_key(self.weights), [], [], self.nvars, 1))
        return self._gb

    def is_quasi_homogeneous(self):
        return all(g.is_homogeneous(self.weights) for g in self.gens)

    def contains(self, f):
        if f.is_zero():
            return True
        return self.groebner().contains(FreeModuleElement.from_poly(f))

    def is_unit(self):
        # 1 is the least monomial of every term order: a lead 1 is a constant
        return any(not any(exp) for _pos, exp in self.groebner().leads())

    def leading_exponents(self):
        gb = self.groebner()
        return [exp for _pos, exp in gb.leads()]

    def standard_monomials(self):
        """List of exponent tuples outside the initial ideal; None if infinite."""
        if self.is_unit():
            raise PreconditionError("unit ideal")
        lts = self.leading_exponents()
        n = self.nvars
        # a lead whose last nonzero exponent sits at position i can divide
        # prefix + (e, 0, ...) only at level i: below that it would divide the
        # prefix, which was already ruled out.  by_last[i] holds the pairs
        # (lt[:i], lt[i]) of those leads.
        by_last = [[] for _ in range(n)]
        for lt in lts:
            i = max(j for j, a in enumerate(lt) if a)
            by_last[i].append((lt[:i], lt[i]))
        # finite iff every variable has a pure power among the leads
        if not all(any(not any(head) for head, _a in by_last[i]) for i in range(n)):
            return None
        out = []

        def rec(prefix):
            i = len(prefix)
            if i == n:
                out.append(tuple(prefix))
                return
            # prefix + [e] is divisible by a lead of by_last[i] exactly when
            # the lead's first i places divide the prefix and e >= lt[i]
            # (a pure power of x_i always qualifies, so the bound is finite)
            for e in range(min(a for head, a in by_last[i] if divides(head, prefix))):
                rec(prefix + [e])

        rec([])
        return sorted(out)

    def colength(self):
        """Number of standard monomials, or None when infinite."""
        if "colength" not in self._memo:
            sm = self.standard_monomials()
            self._memo["colength"] = None if sm is None else len(sm)
        return self._memo["colength"]

    def minimal_generators(self):
        """A minimal generating subset of gens, by degree, then input order.

        Quasi-homogeneous: graded Nakayama over the generators of each degree
        in reverse input order.  Its pivot columns are the generators that the
        greedy route (_greedy_minimal_generators) keeps.  With L = (m*J)_d,
        greedy drops g_i iff g_i is in L + <kept before i> + <g after i>; the
        reversed pivot rule drops g_i iff g_i is in L + <g after i>.  A kept
        g_j with j < i is never needed: the smallest such j would itself lie
        in L + <g after j> and have been dropped.  Otherwise the greedy route.
        """
        if not self.is_quasi_homogeneous():
            return _greedy_minimal_generators(self)
        kept, degrees = graded.minimal_generators(
            [FreeModuleElement.from_poly(g) for g in reversed(self.gens)], self.weights, (0,))
        last = len(self.gens) - 1
        picked = sorted((d, last - k) for k, d in zip(kept, degrees))
        return [self.gens[i] for _d, i in picked]

    def product(self, other):
        """The ideal of the distinct products of a generator of each, up to sign."""
        products = (a * b for a in self.gens for b in other.gens)
        gens = dict.fromkeys(p if p.terms[max(p.terms)] > 0 else -p for p in products)
        return Ideal(self.nvars, gens, self.weights)

    def power(self, k):
        """I^k as I^(k-1) * I, each built once and kept: the products of the
        basis of I^(k-1) with the gens, a redundant one dropped as an input."""
        powers = self._memo.setdefault(
            "powers", [Ideal(self.nvars, [Polynomial.one(self.nvars)], self.weights)])
        while len(powers) <= k:
            basis = [e.to_polys()[0] for e in powers[-1].groebner().elements]
            powers.append(Ideal(self.nvars, basis, self.weights).product(self))
        return powers[k]

    def __repr__(self):
        return f"Ideal({self.gens!r})"


def _greedy_minimal_generators(ideal):
    """Keep each generator, from low degree up, that the ideal of the kept
    ones and the later ones does not contain: one Groebner basis each."""
    kept = []
    remaining = sorted(ideal.gens, key=lambda g: g.degree(ideal.weights))
    for i, g in enumerate(remaining):
        others = kept + remaining[i + 1 :]
        if not Ideal(ideal.nvars, others, ideal.weights).contains(g):
            kept.append(g)
    return kept


def _augmented_basis(vectors, relations, weights):
    """Groebner basis of the rows (v_i, e_i) and (u, 0) in A^(r+s), r the
    rank of the v_i and the relations u, s the number of the v_i."""
    nvars = vectors[0].nvars
    r = vectors[0].rank
    augmented = []
    for i, v in enumerate(vectors):
        terms = dict(v.terms)
        terms[(r + i, (0,) * nvars)] = 1
        augmented.append(FreeModuleElement(nvars, r + len(vectors), terms))
    augmented += [FreeModuleElement(nvars, r + len(vectors), u.terms) for u in relations]
    return groebner_basis(augmented, weights)


def syzygies(vectors, relations):
    """Generating set of the syzygies of the given elements of A^r modulo
    the relations in A^r: the q with sum q_i v_i in their submodule.

    Each returned element q (rank = len(vectors)) is monic.  Position over
    term eliminates the first r positions: the basis elements whose leads
    lie in the last s positions live there entirely, and they generate the
    syzygies modulo the relations.
    """
    if not vectors:
        return []
    r = vectors[0].rank
    positions = list(range(r, r + len(vectors)))
    gb = _augmented_basis(vectors, relations, None)
    return [e.scale(Fraction(1, e.terms[lead])).project(positions)
            for e, lead in zip(gb.elements, gb.leads()) if lead[0] >= r]


def lifts(gens, targets, weights=None):
    """For each target, polynomials q with sum q_i gens[i] = target, or None
    if the target is not in the submodule the gens generate.

    (t, 0) is congruent to (0, -q) modulo the rows (g_i, e_i) exactly when
    sum q_i g_i = t.  Position over term makes the basis eliminate the first
    r positions, so t is a member iff the normal form of (t, 0) has no term
    there, and then its negated tail is a lift.
    """
    r = gens[0].rank
    positions = list(range(r, r + len(gens)))
    gb = _augmented_basis(gens, (), weights)
    out = []
    for t in targets:
        rem = gb.normal_form(FreeModuleElement(gb.nvars, gb.rank, t.terms))
        if any(pos < r for pos, _exp in rem.terms):
            out.append(None)
        else:
            out.append(rem.scale(-1).project(positions).to_polys())
    return out
