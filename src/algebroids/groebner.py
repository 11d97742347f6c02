"""Groebner bases for ideals and submodules of free modules over Q[x1..xn].

Buchberger's algorithm with normal pair selection, the chain criterion, and
the coprimality criterion (ideals only, where it is valid).  Basis elements
optionally carry representations over the original generators so that
membership tests can return coefficient lifts.
"""

import heapq
from fractions import Fraction
from itertools import combinations_with_replacement

from .errors import AlgebroidError, PreconditionError
from .poly import Polynomial


class TermOrder:
    """Total order on (weighted) monomials, extended to module monomials.

    kind: "grevlex", "lex", or "wgrevlex" (weighted graded reverse lex).
    module: "top" (term over position) or "pot" (position over term);
    lower positions are considered larger in either flavour.
    """

    __slots__ = ("kind", "weights", "module")

    def __init__(self, kind="grevlex", weights=None, module="top"):
        if kind not in ("grevlex", "lex", "wgrevlex"):
            raise ValueError(f"unknown term order {kind!r}")
        if kind == "wgrevlex" and weights is None:
            raise ValueError("weighted order needs weights")
        self.kind = kind
        self.weights = tuple(weights) if weights else None
        self.module = module

    def mono_key(self, exp):
        if self.kind == "lex":
            return (exp,)
        if self.kind == "wgrevlex":
            deg = sum(w * e for w, e in zip(self.weights, exp))
        else:
            deg = sum(exp)
        return (deg, tuple(-e for e in reversed(exp)))

    def key(self, mono):
        pos, exp = mono
        if self.module == "pot":
            return (-pos,) + self.mono_key(exp)
        return self.mono_key(exp) + (-pos,)

    def descending_key(self, mono):
        """Flat tuple that sorts ascending exactly when key sorts descending."""
        pos, exp = mono
        if self.kind == "lex":
            flat = tuple(-e for e in exp)
        else:
            deg = sum(exp) if self.kind == "grevlex" else sum(w * e for w, e in zip(self.weights, exp))
            flat = (-deg,) + exp[::-1]
        return (pos,) + flat if self.module == "pot" else flat + (pos,)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _quot(b, a):
    return tuple(y - x for x, y in zip(a, b))


def _lcm_exp(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class FreeModuleElement:
    """Element of the free module A^rank; rank 1 doubles as a polynomial."""

    __slots__ = ("nvars", "rank", "terms")

    def __init__(self, nvars, rank, terms=None):
        self.nvars = nvars
        self.rank = rank
        clean = {}
        if terms:
            for (pos, exp), c in terms.items():
                if type(c) is not Fraction:
                    c = Fraction(c)
                if c:
                    clean[(pos, tuple(exp))] = c
        self.terms = clean

    @classmethod
    def from_polys(cls, polys):
        nvars = polys[0].nvars
        terms = {}
        for pos, p in enumerate(polys):
            for exp, c in p.terms.items():
                terms[(pos, exp)] = c
        return cls(nvars, len(polys), terms)

    @classmethod
    def from_poly(cls, p):
        return cls.from_polys([p])

    def to_polys(self):
        polys = [dict() for _ in range(self.rank)]
        for (pos, exp), c in self.terms.items():
            polys[pos][exp] = c
        return [Polynomial(self.nvars, t) for t in polys]

    def to_poly(self):
        if self.rank != 1:
            raise ValueError("not a rank-1 element")
        return self.to_polys()[0]

    def is_zero(self):
        return not self.terms

    def component(self, pos):
        return Polynomial(self.nvars, {exp: c for (p, exp), c in self.terms.items() if p == pos})

    def project(self, positions):
        """Restrict to the given positions, renumbered 0..len-1."""
        remap = {p: i for i, p in enumerate(positions)}
        terms = {}
        for (pos, exp), c in self.terms.items():
            if pos in remap:
                terms[(remap[pos], exp)] = c
        return FreeModuleElement(self.nvars, len(positions), terms)

    def __add__(self, other):
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + c
        return FreeModuleElement(self.nvars, self.rank, terms)

    def __sub__(self, other):
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) - c
        return FreeModuleElement(self.nvars, self.rank, terms)

    def __neg__(self):
        return FreeModuleElement(self.nvars, self.rank, {m: -c for m, c in self.terms.items()})

    def scale(self, c):
        c = Fraction(c)
        return FreeModuleElement(self.nvars, self.rank, {m: c * v for m, v in self.terms.items()})

    def mul_term(self, exp, coeff=1):
        coeff = Fraction(coeff)
        terms = {}
        for (pos, e), c in self.terms.items():
            terms[(pos, tuple(a + b for a, b in zip(e, exp)))] = c * coeff
        return FreeModuleElement(self.nvars, self.rank, terms)

    def mul_poly(self, p):
        out = FreeModuleElement(self.nvars, self.rank)
        for exp, c in p.terms.items():
            out = out + self.mul_term(exp, c)
        return out

    def leading(self, order):
        mono = max(self.terms, key=order.key)
        return mono, self.terms[mono]

    def is_homogeneous(self, weights=None):
        degs = set()
        for (_, exp), _c in self.terms.items():
            if weights is None:
                degs.add(sum(exp))
            else:
                degs.add(sum(w * e for w, e in zip(weights, exp)))
        return len(degs) <= 1

    def homogeneous_components(self, weights=None, shifts=None):
        parts = {}
        for (pos, exp), c in self.terms.items():
            d = sum(exp) if weights is None else sum(w * e for w, e in zip(weights, exp))
            if shifts is not None:
                d += shifts[pos]
            parts.setdefault(d, {})[(pos, exp)] = c
        return {d: FreeModuleElement(self.nvars, self.rank, t) for d, t in sorted(parts.items())}

    def __eq__(self, other):
        return (isinstance(other, FreeModuleElement) and self.rank == other.rank
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        return f"FreeModuleElement({self.to_polys()!r})"


def _buckets(leads):
    """Map each module position to the (index, exponent, coeff) of the leads there."""
    out = {}
    for idx, ((pos, exp), coeff) in enumerate(leads):
        out.setdefault(pos, []).append((idx, exp, coeff))
    return out


def _reduce(terms, buckets, elements, order, track):
    """Full normal form of the terms modulo the elements; optionally track quotients.

    buckets maps a module position to the leading terms of the elements there
    (see _buckets).  Pending monomials wait in a heap, largest first; a
    reduction step only creates monomials below the one it removes, so a
    popped monomial is final.
    Returns (remainder terms dict, quotients list of term-dicts or None).
    """
    key = order.descending_key
    work = dict(terms)
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    rem = {}
    quotients = [dict() for _ in elements] if track else None
    while heap:
        mono = heapq.heappop(heap)[1]
        coeff = work.pop(mono, None)
        if coeff is None:  # cancelled, or already popped
            continue
        pos, exp = mono
        for idx, lexp, lcoeff in buckets.get(pos, ()):
            if _divides(lexp, exp):
                break
        else:
            rem[mono] = coeff
            continue
        qexp = _quot(exp, lexp)
        factor = coeff / lcoeff
        if track:
            quotients[idx][qexp] = quotients[idx].get(qexp, Fraction(0)) + factor
        for (p2, e2), c2 in elements[idx].terms.items():
            m2 = (p2, tuple(a + b for a, b in zip(e2, qexp)))
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
    return rem, quotients


class GroebnerBasis:
    """Reduced Groebner basis; elements monic, auto-reduced, sorted."""

    __slots__ = ("order", "elements", "reps", "nvars", "rank", "_leads", "_buckets")

    def __init__(self, order, elements, reps, nvars, rank):
        self.order = order
        self.elements = elements
        self.reps = reps  # list of FreeModuleElement over A^len(gens), or None
        self.nvars = nvars
        self.rank = rank
        self._leads = tuple(e.leading(order) for e in elements)
        self._buckets = _buckets(self._leads)

    def leads(self):
        return self._leads

    def normal_form(self, f, track=False):
        """(remainder, quotients over basis elements or None)."""
        if isinstance(f, Polynomial):
            f = FreeModuleElement.from_poly(f)
        rem, quot = _reduce(f.terms, self._buckets, self.elements, self.order, track)
        rem_el = FreeModuleElement(self.nvars, self.rank, rem)
        if not track:
            return rem_el, None
        return rem_el, [Polynomial(self.nvars, q) for q in quot]

    def contains(self, f):
        rem, _ = self.normal_form(f)
        return rem.is_zero()

    def lift(self, f):
        """Coefficients over the ORIGINAL generators, or None if not a member."""
        if self.reps is None:
            raise AlgebroidError("basis was computed without lift tracking")
        rem, quot = self.normal_form(f, track=True)
        if not rem.is_zero():
            return None
        ngens = self.reps[0].rank if self.reps else 0
        acc = FreeModuleElement(self.nvars, ngens)
        for q, rep in zip(quot, self.reps):
            if not q.is_zero():
                acc = acc + rep.mul_poly(q)
        return acc.to_polys()


def _subtract_multiples(rep, quot, reps):
    """rep - sum_t quot[t] * reps[t], the quotients given as term-dicts."""
    terms = dict(rep.terms)
    for q, r in zip(quot, reps):
        for qexp, qc in q.items():
            for (pos, e), c in r.terms.items():
                m = (pos, tuple(a + b for a, b in zip(e, qexp)))
                terms[m] = terms.get(m, 0) - qc * c
    return FreeModuleElement(rep.nvars, rep.rank, terms)


def groebner_basis(gens, order, track=False):
    """Reduced Groebner basis of the given polynomials or module elements."""
    items = []
    for g in gens:
        if isinstance(g, Polynomial):
            g = FreeModuleElement.from_poly(g)
        if not g.is_zero():
            items.append(g)
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
    reps = []
    pairs = []  # heap of (order.key((pos, lcm)), i, j): normal selection
    done = set()

    def add(element, rep):
        j = len(basis)
        lead = element.leading(order)
        (pos, exp), coeff = lead
        for i, lexp, _c in buckets.get(pos, ()):
            heapq.heappush(pairs, (order.key((pos, _lcm_exp(lexp, exp))), i, j))
        basis.append(element)
        leads.append(lead)
        buckets.setdefault(pos, []).append((j, exp, coeff))
        reps.append(rep)

    ngens = len(items)
    for i, g in enumerate(items):
        add(g, FreeModuleElement(nvars, ngens, {(i, (0,) * nvars): Fraction(1)}) if track else None)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        (p, ei), ci = leads[i]
        (_, ej), cj = leads[j]
        # coprimality criterion (valid for ideals only)
        if rank == 1 and all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            continue
        L = _lcm_exp(ei, ej)
        # chain criterion
        if any(k != i and k != j and _divides(ek, L)
               and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
               for k, ek, _c in buckets[p]):
            continue
        qi, qj = _quot(L, ei), _quot(L, ej)
        spoly = basis[i].mul_term(qi, Fraction(1) / ci) - basis[j].mul_term(qj, Fraction(1) / cj)
        rem, quot = _reduce(spoly.terms, buckets, basis, order, track)
        if rem:
            rep = None
            if track:
                rep = _subtract_multiples(reps[i].mul_term(qi, Fraction(1) / ci)
                                          - reps[j].mul_term(qj, Fraction(1) / cj), quot, reps)
            add(FreeModuleElement(nvars, rank, rem), rep)

    # minimal basis: drop each element whose lead another lead divides (of
    # equal leads the first stays)
    keep = [k for k, ((pk, ek), _c) in enumerate(leads)
            if not any(t != k and _divides(et, ek) and (et != ek or t < k)
                       for t, et, _c2 in buckets[pk])]
    basis = [basis[k] for k in keep]
    leads = [leads[k] for k in keep]
    reps = [reps[k] for k in keep]
    buckets = _buckets(leads)
    # tail reduction to the unique reduced basis; the leads never change, and
    # no element's own lead divides a monomial below it
    for i, (mono, coeff) in enumerate(leads):
        tail = {m: c for m, c in basis[i].terms.items() if m != mono}
        rem, quot = _reduce(tail, buckets, basis, order, track)
        if track:
            reps[i] = _subtract_multiples(reps[i], quot, reps)
        basis[i] = FreeModuleElement(nvars, rank, {mono: coeff, **rem})

    # monic, deterministic ordering
    by_lead = sorted(range(len(basis)), key=lambda k: order.key(leads[k][0]), reverse=True)
    elements = [basis[k].scale(Fraction(1) / leads[k][1]) for k in by_lead]
    out_reps = [reps[k].scale(Fraction(1) / leads[k][1]) for k in by_lead] if track else None
    return GroebnerBasis(order, elements, out_reps, nvars, rank)


# -- ideals ---------------------------------------------------------------

class Ideal:
    """Ideal of Q[x1..xn] with a weight vector for quasi-homogeneous work."""

    __slots__ = ("nvars", "weights", "gens", "_gb")

    def __init__(self, nvars, gens, weights=None):
        self.nvars = nvars
        self.weights = tuple(weights) if weights else (1,) * nvars
        self.gens = [g for g in gens if not g.is_zero()]
        self._gb = {}

    def default_order(self):
        if all(w == 1 for w in self.weights):
            return TermOrder("grevlex")
        return TermOrder("wgrevlex", self.weights)

    def groebner(self, order=None, track=False):
        order = order or self.default_order()
        key = (order.kind, order.weights, order.module, track)
        if key not in self._gb:
            if not self.gens:
                raise PreconditionError("zero ideal has no Groebner basis here")
            self._gb[key] = groebner_basis(self.gens, order, track=track)
        return self._gb[key]

    def is_zero(self):
        return not self.gens

    def is_quasi_homogeneous(self):
        return all(g.is_homogeneous(self.weights) for g in self.gens)

    def contains(self, f):
        if f.is_zero():
            return True
        if self.is_zero():
            return False
        return self.groebner().contains(FreeModuleElement.from_poly(f))

    def member_lift(self, f):
        """(is member, coefficients over the original generators or None)."""
        if self.is_zero():
            return f.is_zero(), [] if f.is_zero() else None
        gb = self.groebner(track=True)
        lift = gb.lift(FreeModuleElement.from_poly(f))
        if lift is None:
            return False, None
        return True, lift

    def is_unit(self):
        if self.is_zero():
            return False
        gb = self.groebner()
        return any(e.to_poly().is_constant() for e in gb.elements)

    def leading_exponents(self):
        gb = self.groebner()
        return [mono[1] for mono, _ in gb.leads()]

    def standard_monomials(self):
        """List of exponent tuples outside the initial ideal; None if infinite."""
        if self.is_unit():
            raise PreconditionError("unit ideal")
        lts = self.leading_exponents()
        bounds = []
        for i in range(self.nvars):
            pure = [e[i] for e in lts if all(e[j] == 0 for j in range(self.nvars) if j != i)]
            if not pure:
                return None
            bounds.append(min(pure))
        n = self.nvars
        # a lead whose last nonzero exponent sits at position i can divide
        # prefix + (e, 0, ...) only at level i: below that it would divide the
        # prefix, which was already ruled out
        by_last = [[] for _ in range(n)]
        for lt in lts:
            by_last[max(j for j, a in enumerate(lt) if a)].append(lt)
        out = []

        def rec(prefix):
            i = len(prefix)
            if i == n:
                out.append(tuple(prefix))
                return
            for e in range(bounds[i]):
                exp = prefix + [e]
                # standard monomials form an order ideal: a larger e is
                # divisible too (_divides compares the first i + 1 places)
                if any(_divides(lt, exp) for lt in by_last[i]):
                    break
                rec(exp)

        rec([])
        return sorted(out)

    def colength(self):
        """Number of standard monomials, or None when infinite."""
        sm = self.standard_monomials()
        return None if sm is None else len(sm)

    def minimal_generators(self):
        """Prune generators lying in the ideal of the others (graded case exact)."""
        kept = []
        remaining = list(self.gens)
        # examine generators from low degree upward
        remaining.sort(key=lambda g: g.degree(self.weights))
        for i, g in enumerate(remaining):
            others = kept + remaining[i + 1 :]
            if not others or not Ideal(self.nvars, others, self.weights).contains(g):
                kept.append(g)
        return kept

    def __add__(self, other):
        return Ideal(self.nvars, self.gens + other.gens, self.weights)

    def product(self, other):
        gens = [a * b for a in self.gens for b in other.gens]
        return Ideal(self.nvars, gens, self.weights)

    def power(self, k):
        if k == 0:
            return Ideal(self.nvars, [Polynomial.one(self.nvars)], self.weights)
        gens = []
        for combo in combinations_with_replacement(self.gens, k):
            g = combo[0]
            for h in combo[1:]:
                g = g * h
            gens.append(g)
        return Ideal(self.nvars, gens, self.weights)

    def equals(self, other):
        mine = all(other.contains(g) for g in self.gens)
        theirs = all(self.contains(g) for g in other.gens)
        return mine and theirs

    def __repr__(self):
        return f"Ideal({self.gens!r})"


def syzygies(vectors):
    """Generating set of the syzygy module of the given elements of A^r.

    Each returned element s (rank = len(vectors)) satisfies sum s_i v_i = 0.
    """
    vecs = []
    for v in vectors:
        if isinstance(v, Polynomial):
            v = FreeModuleElement.from_poly(v)
        vecs.append(v)
    if not vecs:
        return []
    nvars = vecs[0].nvars
    r = vecs[0].rank
    s = len(vecs)
    augmented = []
    for i, v in enumerate(vecs):
        terms = {(pos, exp): c for (pos, exp), c in v.terms.items()}
        terms[(r + i, (0,) * nvars)] = Fraction(1)
        augmented.append(FreeModuleElement(nvars, r + s, terms))
    order = TermOrder("grevlex", module="pot")
    gb = groebner_basis(augmented, order)
    out = []
    for e in gb.elements:
        if all(pos >= r for pos, _exp in e.terms):
            out.append(e.project(list(range(r, r + s))))
    return out


def module_span_contains(gens, element, order=None):
    """Whether element lies in the submodule generated by gens."""
    items = [g for g in gens if not g.is_zero()]
    if not items:
        return element.is_zero()
    order = order or TermOrder("grevlex", module="top")
    gb = groebner_basis(items, order)
    return gb.contains(element)


def modules_equal(gens_a, gens_b, order=None):
    """Equality of the submodules generated by the two families."""
    order = order or TermOrder("grevlex", module="top")
    a = [g for g in gens_a if not g.is_zero()]
    b = [g for g in gens_b if not g.is_zero()]
    if not a or not b:
        return not a and not b
    gb_a = groebner_basis(a, order)
    gb_b = groebner_basis(b, order)
    return all(gb_b.contains(g) for g in a) and all(gb_a.contains(g) for g in b)
