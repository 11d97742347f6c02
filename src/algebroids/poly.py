"""Multivariate polynomials with exact rational coefficients.

Terms are stored as a map from exponent tuples to nonzero coefficients, each
an int when integral and a Fraction otherwise, never a float (_exact).  Weights
for quasi-homogeneous gradings are *not* stored on the polynomial itself; they
travel with the ambient ring data (Ideal, term orders) and are passed to wdeg,
the one weighted degree every module uses, where needed; mono_mul is the
one monomial product.
"""

import re
from fractions import Fraction
from operator import add, le, mul

from .errors import ParseError, PreconditionError

# the most term pairs one product may multiply: a desk-scale bound, far
# above any product a report makes, that turns a runaway expansion such as
# (x + y + z + w)^40 into a refusal before it starts
MAX_PRODUCT_PAIRS = 10**6


def wdeg(exp, weights=None):
    """Weighted degree sum w_i e_i of x^exp; its total degree when weights is None."""
    return sum(exp) if weights is None else sum(map(mul, weights, exp))


def mono_mul(a, b):
    """The exponent of x^a x^b."""
    return tuple(map(add, a, b))


def divides(a, b):
    """Whether x^a divides x^b."""
    return all(map(le, a, b))


def minimal_monomials(exps):
    """The exponents that no other one divides, by increasing total degree
    (ties in the iteration order of exps)."""
    out = []
    for e in sorted(exps, key=sum):
        if not any(divides(m, e) for m in out):
            out.append(e)
    return out


def _exact(c):
    """c as an int when it is integral, as a Fraction otherwise."""
    if type(c) is not int and type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                c = _exact(coeff)
                if c:
                    if len(exp) != nvars:
                        raise ValueError("exponent arity mismatch")
                    clean[tuple(exp)] = c
        self.terms = clean

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars):
        return cls.constant(nvars, 1)

    @classmethod
    def monomial(cls, nvars, exp):
        return cls(nvars, {tuple(exp): 1})

    # -- predicates ------------------------------------------------------
    def is_zero(self):
        return not self.terms

    # -- degrees ---------------------------------------------------------
    def degree(self, weights=None):
        """Max weighted degree of the terms; -1 for the zero polynomial."""
        return max((wdeg(exp, weights) for exp in self.terms), default=-1)

    def is_homogeneous(self, weights=None):
        return len({wdeg(exp, weights) for exp in self.terms}) <= 1

    # -- arithmetic ------------------------------------------------------
    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mixing polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            terms[exp] = terms.get(exp, 0) + c
        return Polynomial(self.nvars, terms)

    def __neg__(self):
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            return Polynomial(self.nvars, {e: c * v for e, v in self.terms.items()})
        self._check(other)
        if len(self.terms) * len(other.terms) > MAX_PRODUCT_PAIRS:
            raise PreconditionError(
                f"a product of {len(self.terms)} by {len(other.terms)} terms is past "
                f"the desk-scale bound of {MAX_PRODUCT_PAIRS} term pairs")
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = mono_mul(e1, e2)
                terms[exp] = terms.get(exp, 0) + c1 * c2
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:
            (exp, c), = self.terms.items()
            return Polynomial(self.nvars, {tuple(k * a for a in exp): c ** k})
        out = Polynomial.one(self.nvars)
        base = self
        while True:
            if k & 1:
                out = out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def diff(self, i):
        terms = {}
        for exp, c in self.terms.items():
            if exp[i] > 0:
                newexp = list(exp)
                newexp[i] -= 1
                terms[tuple(newexp)] = c * exp[i]
        return Polynomial(self.nvars, terms)

    # -- comparison ------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Polynomial({format_poly(self)})"

    def sorted_terms(self):
        """Terms in descending graded-lex order (the canonical print order)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def monomials(weights, k):
    """Exponent tuples of weighted degree k (positive weights), ascending."""
    if not weights:
        return [()] if k == 0 else []
    # (exponents of the variables so far, degree left), ascending; the last
    # variable's exponent is the degree left over its weight, when it divides
    partial = [((), k)]
    for w in weights[:-1]:
        partial = [(exp + (e,), left - e * w) for exp, left in partial for e in range(left // w + 1)]
    w = weights[-1]
    return [exp + (left // w,) for exp, left in partial if left >= 0 and left % w == 0]


# -- serialized grammar ---------------------------------------------------

def default_varnames(nvars):
    if nvars <= 3:
        return ["x", "y", "z"][:nvars]
    return [f"x{i + 1}" for i in range(nvars)]


def format_poly(p, varnames=None):
    if p.is_zero():
        return "0"
    names = varnames or default_varnames(p.nvars)
    pieces = []
    for exp, c in p.sorted_terms():
        factors = []
        for name, e in zip(names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(abs(c))
        else:
            mono = "*".join(factors)
            a = abs(c)
            body = mono if a == 1 else f"{a}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


# an int (every \d is a decimal digit, which int reads), a word, or one
# other non-blank character
_TOKEN = re.compile(r"(\d+)|(\w+)|(\S)")


class _Tokens:
    def __init__(self, text):
        self.toks = []
        for number, word, other in _TOKEN.findall(text):
            if number:
                self.toks.append(("int", int(number)))
            elif word[:1].isalpha() or word[:1] == "_":
                self.toks.append(("name", word))
            elif other and other in "+-*^()/":
                self.toks.append(other)
            else:
                raise ParseError(f"unexpected character {(word or other)[0]!r}")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok


def parse_poly(text, varnames):
    """Parse the shared polynomial grammar over the declared variables."""
    nvars = len(varnames)
    index = {name: i for i, name in enumerate(varnames)}
    toks = _Tokens(text)

    def parse_sum():
        sign = 1
        while toks.peek() in ("+", "-"):
            if toks.next() == "-":
                sign = -sign
        node = parse_product() * sign
        while toks.peek() in ("+", "-"):
            sign = 1
            while toks.peek() in ("+", "-"):
                if toks.next() == "-":
                    sign = -sign
            node = node + parse_product() * sign
        return node

    def parse_product():
        # the factors that are numbers and variables multiply into one
        # running coefficient and exponent; only parenthesized sums make
        # Polynomials, multiplied in the order they are read
        coeff, exp, node = 1, [0] * nvars, None
        while True:
            kind, value = parse_power()
            if kind == "coeff":
                coeff *= value
            elif kind == "var":
                exp[value[0]] += value[1]
            else:
                node = value if node is None else node * value
            tok = toks.peek()
            if tok == "*":
                toks.next()
            elif not (tok == "(" or (isinstance(tok, tuple) and tok[0] == "name")):
                mono = Polynomial(nvars, {tuple(exp): coeff})
                return mono if node is None else node * mono

    def parse_power():
        """(kind, value) of one factor: ("coeff", c), ("var", (index,
        power)) or ("poly", a parenthesized sum, raised to its power)."""
        kind, value = parse_atom()
        power = 1
        if toks.peek() == "^":
            toks.next()
            tok = toks.next()
            if not (isinstance(tok, tuple) and tok[0] == "int"):
                raise ParseError("exponent must be a non-negative integer")
            power = tok[1]
        return kind, (value, power) if kind == "var" else value ** power

    def parse_atom():
        tok = toks.next()
        if tok == "(":
            node = parse_sum()
            if toks.next() != ")":
                raise ParseError("missing closing parenthesis")
            return "poly", node
        if isinstance(tok, tuple) and tok[0] == "int":
            num = tok[1]
            if toks.peek() == "/":
                toks.next()
                den = toks.next()
                if not (isinstance(den, tuple) and den[0] == "int") or den[1] == 0:
                    raise ParseError("bad rational literal")
                return "coeff", Fraction(num, den[1])
            return "coeff", num
        if isinstance(tok, tuple) and tok[0] == "name":
            if tok[1] not in index:
                raise ParseError(f"undeclared variable {tok[1]!r}")
            return "var", index[tok[1]]
        raise ParseError(f"unexpected token {tok!r}")

    result = parse_sum()
    if toks.peek() is not None:
        raise ParseError(f"trailing input at token {toks.peek()!r}")
    return result
