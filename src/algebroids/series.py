"""Rational power series, quasi-polynomials, and torus-character series.

A RationalSeries is a numerator polynomial in t over a product of factors
(1 - t^n)^d; equality is equality of expansions.  Quasi-polynomials are stored
one residue polynomial per class mod the period.
"""

from fractions import Fraction
from math import lcm

from . import linalg
from .errors import AlgebroidError, ParseError, PreconditionError
from .poly import _exact


def _integer(c, what):
    """c as an int when it is an int or an integral Fraction; anything else
    is refused rather than truncated."""
    if type(c) is not int:
        if not isinstance(c, (int, Fraction)) or c.denominator != 1:
            raise PreconditionError(f"{what} {c!r} is not an integer")
        c = int(c)
    return c


class SeriesPrefix:
    """Coefficients 0..N of a formal power series, each an int when
    integral and a Fraction otherwise (poly._exact)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [_exact(c) for c in coeffs]

    def __getitem__(self, n):
        return self.coeffs[n]

    def __repr__(self):
        return f"SeriesPrefix({self.coeffs})"


class RationalSeries:
    """numerator(t) / prod (1 - t^n)^d with integer expansion."""

    __slots__ = ("numerator", "factors")

    def __init__(self, numerator, factors):
        # numerator: coefficient list (index = power of t) of ints
        num = [_integer(c, "series numerator coefficient") for c in numerator]
        while num and num[-1] == 0:
            num.pop()
        self.numerator = num
        clean = {}
        for n, d in factors:
            if n < 1 or d < 1:
                raise PreconditionError("denominator factors must have n >= 1, multiplicity >= 1")
            clean[n] = clean.get(n, 0) + d
        self.factors = tuple(sorted(clean.items()))

    @property
    def numerator_degree(self):
        return len(self.numerator) - 1

    def expand(self, bound):
        """Coefficients 0..bound of the expansion, as a SeriesPrefix; exact."""
        if bound < 0:
            raise PreconditionError("bound must be >= 0")
        coeffs = self.numerator[: bound + 1]
        coeffs += [0] * (bound + 1 - len(coeffs))
        return SeriesPrefix(divide_denominator(coeffs, self.factors))

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        # a/b = c/d iff ad = cb, and bd has constant term 1: expansions that
        # agree through the degrees of ad and cb make ad - cb = 0
        (a, b), (c, d) = [(s.numerator_degree, sum(n * e for n, e in s.factors))
                          for s in (self, other)]
        bound = max(0, a + d, c + b)
        return self.expand(bound).coeffs == other.expand(bound).coeffs

    def to_json(self):
        return {"numerator": list(self.numerator),
                "denominator": [{"n": n, "mult": d} for n, d in self.factors]}

    @classmethod
    def from_json(cls, obj):
        """Inverse of to_json; ParseError on JSON of any other shape."""
        try:
            num, den = obj["numerator"], obj["denominator"]
            factors = [(f["n"], f["mult"]) for f in den]
            entries = num + [x for f in factors for x in f]
        except (KeyError, TypeError):
            entries = None
        if entries is None or type(den) is not list or any(type(c) is not int for c in entries):
            raise ParseError('series JSON must be {"numerator": [int, ...], '
                             '"denominator": [{"n": int, "mult": int}, ...]}')
        return cls(num, factors)

    def __repr__(self):
        den = "".join(f"(1-t^{n})^{d}" if d > 1 else f"(1-t^{n})" for n, d in self.factors)
        return f"RationalSeries({self.numerator} / {den or '1'})"


def multiply_denominator(coeffs, factors):
    """Multiply the truncated series coeffs (index = power of t) in place by
    prod (1 - t^n)^d over the (n, d) of factors, top degree first."""
    for n, d in factors:
        for _ in range(d):
            for k in range(len(coeffs) - 1, n - 1, -1):
                coeffs[k] -= coeffs[k - n]
    return coeffs


def divide_denominator(coeffs, factors):
    """Divide the truncated series coeffs in place by prod (1 - t^n)^d, the
    inverse of multiply_denominator, and return it."""
    for n, d in factors:
        for _ in range(d):
            for k in range(n, len(coeffs)):
                coeffs[k] += coeffs[k - n]
    return coeffs


def reconstruct_rational(prefix, factors):
    """Find the RationalSeries with the given denominator matching the prefix.

    Raises "no stabilization" when the prefix times the denominator does not
    terminate early enough to certify the numerator.
    """
    bound = len(prefix.coeffs) - 1
    prod = multiply_denominator(list(prefix.coeffs), factors)
    cutoff = bound - sum(n * d for n, d in factors)
    if cutoff < 0 or any(prod[cutoff + 1:]):
        raise AlgebroidError("no stabilization")
    num = prod[: cutoff + 1]
    # a Fraction in the prefix leaves a Fraction here, even an integral one;
    # such a prefix is never the expansion of an integer numerator
    if any(type(c) is not int for c in num):
        raise AlgebroidError("no stabilization")
    rs = RationalSeries(num, factors)
    if rs.expand(bound).coeffs != prefix.coeffs:
        raise AlgebroidError("no stabilization")
    return rs


class QuasiPolynomial:
    """Period p, one rational-coefficient polynomial per residue class."""

    __slots__ = ("period", "residues", "threshold", "_scaled")

    def __init__(self, period, residues, threshold=0):
        if period < 1 or len(residues) != period:
            raise ValueError("need one residue polynomial per class")
        self.period = period
        self.residues = []
        # each residue as integer numerators over their common denominator
        # (linalg.integral), so that evaluation runs on ints
        self._scaled = []
        for poly in residues:
            coeffs = [_exact(c) for c in poly]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            self.residues.append(coeffs)
            den, nums = linalg.integral(dict(enumerate(coeffs)))
            self._scaled.append((den, list(nums.values())))
        self.threshold = threshold

    def __call__(self, n):
        den, nums = self._scaled[n % self.period]
        value = 0
        for c in reversed(nums):
            value = value * n + c
        q, r = divmod(value, den)
        return Fraction(value, den) if r else q

    @property
    def degree(self):
        degs = [len(p) - 1 for p in self.residues if p]
        return max(degs) if degs else -1

    def leading_coefficient(self):
        """The common top-degree coefficient; error if residues disagree."""
        d = self.degree
        if d < 0:
            return 0
        leads = {(p[d] if len(p) == d + 1 else 0) for p in self.residues}
        if len(leads) != 1:
            raise AlgebroidError("ill-defined leading term")
        return leads.pop()

    def __eq__(self, other):
        if not isinstance(other, QuasiPolynomial):
            return NotImplemented
        # on each residue class mod p, two polynomials of degree at most d
        # agree when they agree at d + 1 points
        n0 = max(self.threshold, other.threshold)
        p = lcm(self.period, other.period)
        d = max(self.degree, other.degree, 0)
        return all(self(n) == other(n) for n in range(n0, n0 + p * (d + 1)))

    def to_json(self):
        return {"period": self.period, "n0": self.threshold,
                "residues": [[str(c) for c in poly] for poly in self.residues]}

    def __repr__(self):
        return f"QuasiPolynomial(period={self.period}, residues={self.residues}, n0={self.threshold})"


def _fit_polynomial(points):
    """Exact polynomial through (x, y) points, coefficient list ascending."""
    n = len(points)
    sol = linalg.solve([{**{j: x ** j for j in range(n)}, n: y} for x, y in points], n, 1)[0]
    if sol is None:
        raise AlgebroidError("polynomial fit failed")
    while sol and sol[-1] == 0:
        sol.pop()
    return sol


def quasi_polynomial_of(rs):
    """Quasi-polynomial giving coefficient(n) of rs for n >= threshold.

    The work is the expansion through `need` coefficients and one exact fit
    through k = pole count points per residue class, about k^3 operations
    each.  Past 10^5 coefficients, or past 2 * 10^6 for period * k^3, the
    input is refused before any expansion; a command at the bounds takes
    under 2 s on a 2-core VM."""
    period = lcm(*[n for n, _ in rs.factors]) if rs.factors else 1
    max_deg = sum(d for _, d in rs.factors) - 1
    n0 = rs.numerator_degree + 1
    need = n0 + period * (max_deg + 1) + 2 * period
    if need > 10 ** 5 or period * (max_deg + 1) ** 3 > 2 * 10 ** 6:
        raise PreconditionError(
            f"outside desk scale: quasi-polynomial of period {period} with "
            f"{max_deg + 1} poles needs {need} coefficients "
            f"(need at most 10^5, and period * poles^3 at most 2 * 10^6)")
    prefix = rs.expand(need).coeffs
    residues = []
    for r in range(period):
        start = n0 + ((r - n0) % period)
        residues.append(_fit_polynomial([(x, prefix[x]) for x in
                                         range(start, start + period * (max_deg + 1), period)]))
    qp = QuasiPolynomial(period, residues, n0)
    for n in range(n0, need + 1):
        if qp(n) != prefix[n]:
            raise AlgebroidError("quasi-polynomial fit did not verify")
    return qp


# -- torus-character series ----------------------------------------------

class CharacterSeries:
    """Degreewise Laurent combinations of torus characters, with optional
    closed form sum of signed terms over (1 - q^chi t^p) factors."""

    __slots__ = ("rank", "coeffs", "bound", "closed_terms", "closed_denominator")

    def __init__(self, rank, coeffs, bound, closed_terms=None, closed_denominator=None):
        self.rank = rank
        self.coeffs = {}
        for n, lc in coeffs.items():
            clean = {tuple(chi): _integer(c, "character coefficient")
                     for chi, c in lc.items() if c != 0}
            if clean:
                self.coeffs[n] = clean
        self.bound = bound
        # closed_terms: list of (coeff, chi, tpow); closed_denominator: list of (chi, tpow)
        self.closed_terms = [(_integer(s, "closed-form coefficient"), tuple(chi),
                              _integer(p, "closed-form power of t"))
                             for s, chi, p in closed_terms] if closed_terms else None
        self.closed_denominator = [(tuple(chi), _integer(p, "closed-form power of t"))
                                   for chi, p in closed_denominator] if closed_denominator else None

    def __eq__(self, other):
        return (isinstance(other, CharacterSeries) and self.rank == other.rank
                and self.bound == other.bound and self.coeffs == other.coeffs)


def integrate_characters(cs):
    """Apply the per-coefficient summation map q^chi -> 1.

    Returns (SeriesPrefix, RationalSeries or None); the closed series is
    produced whenever the input carries a closed form.
    """
    coeffs = [0] * (cs.bound + 1)
    for n, lc in cs.coeffs.items():
        if 0 <= n <= cs.bound:
            coeffs[n] = sum(lc.values())
    prefix = SeriesPrefix(coeffs)
    closed = None
    if cs.closed_terms and cs.closed_denominator:
        deg = max((p for _, _, p in cs.closed_terms), default=0)
        num = [0] * (deg + 1)
        for s, _, p in cs.closed_terms:
            num[p] += s
        closed = RationalSeries(num, [(p, 1) for _, p in cs.closed_denominator])
    return prefix, closed
