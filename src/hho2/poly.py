"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in a fixed ring described by an ordered tuple of variable
names.  Terms are stored sparsely as a dict from packed monomial keys to
nonzero rational coefficients.  Coefficients are Python ints where integral
and ``fractions.Fraction`` otherwise, which keeps every operation exact and
the common all-integer case fast.

A key packs a whole exponent vector (e_1, ..., e_m) into one int, as in
Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors" (CASC 2007): 16 bits per variable, e_1 in the highest of
these fields and e_m in the lowest, and the total degree in the top field
above them.  Total degrees stay below 2^16, checked where terms are built and
once per product, so fields never overflow: a monomial product is one int
add, and the integer order of keys is the canonical degree-lexicographic term
order (total degree first, then the exponents compared left to right) that
``leading_term`` and all normalisations refer to.  The constant monomial is
key 0.  The public API speaks exponent tuples; ``monomials`` decodes a
polynomial's terms for the few readers that need them.

``poly_gcd`` takes one route in every ring.  A monomial argument c·x^e, a
nonzero constant included, gives at once the monomial whose exponent in each
variable is the least over e and every term of the other argument.  Any
other pair is first sought to be proven coprime exactly on a few fixed lines,
an evaluation-homomorphism test as in Geddes, Czapor & Labahn, *Algorithms
for Computer Algebra* (1992), ch. 7; only the pairs neither rule settles go
to sympy's multivariate gcd.  The line proof and `diagnostics` share one
kit for univariate polynomials held as ascending coefficient lists.

Values are immutable in practice: operations return new objects and never
mutate their arguments, so polynomials can be shared freely between threads.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import islice
from typing import Iterator, List, Mapping, Sequence, Tuple, Union

Scalar = Union[int, Fraction]

__all__ = [
    "Scalar",
    "MultiPoly",
    "lowest_terms",
    "poly_gcd",
    "rat",
    "json_int",
    "bounded_n",
    "index_entries",
    "MAX_N",
    "MAX_POINTS",
    "MAX_DIGITS",
    "MAX_COEFFICIENT_RANGE",
]


# The rational strings `rat` accepts, the form `str(Fraction)` writes.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?", re.ASCII)


def rat(value) -> Fraction:
    """Parse an exact rational: an int, a Fraction or a 'p/q' string.

    Every other type is refused, floats and bools included, so no binary
    approximation, JSON `true`, list or null silently becomes a Fraction.  A
    string must be [+-]digits[/digits] with a nonzero denominator, so no
    exponent such as '1e4300' expands to 4301 digits; its two parts are then
    read by `int`, so `Fraction` never parses the string again.
    """
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        p, _, q = value.partition("/")
        try:
            return Fraction(int(p), int(q or 1))
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{value!r} is not an exact rational; give an integer or a 'p/q' string")
    return Fraction(value)


def json_int(value, where: str) -> int:
    """A JSON integer from a document; floats, bools and strings are refused."""
    if type(value) is not int:
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


# The largest n a document may declare: the paper classifies operators up to
# dimension n + 1 = 9.  Every document reader checks it before it builds
# anything whose size grows with n.
MAX_N = 8

# The largest sample point count `--points` accepts: the point loops keep one
# report per point, so the count is bounded before they start.
MAX_POINTS = 10_000

# The largest working precision `--digits` accepts for the float
# eigenstructure: one n=8 point takes over a second at 1000 digits; above 4300
# digits Python refuses the integer-to-string conversion of the result.
MAX_DIGITS = 1000

# The largest bound `--coefficient-range` accepts for random flux entries and
# sample coordinates: the exact eigenstructure of one n=8 point prints the
# factors of its characteristic polynomial, whose integer coefficients pass
# Python's 4300-digit string limit between 10^200 and 10^300; at this cap they
# stay below 2300 digits and `sys diagnose` on n8-fam1 takes about a second.
MAX_COEFFICIENT_RANGE = 10**100


def bounded_n(n: int, where: str) -> int:
    """n from a document, refused when it is above MAX_N."""
    if n > MAX_N:
        raise ValueError(f"{where}: n = {n} is above the cap n <= {MAX_N} (dimension n + 1 <= {MAX_N + 1})")
    return n


def index_entries(items, arity: int, bound: int, where: str):
    """Yield (0-based index tuple, raw value) for each [i, j, ..., value] item.

    `items` is a document list; each item holds `arity` strictly increasing
    1-based integer indices at most `bound`, then its value.  Malformed items
    and repeated index tuples raise ValueError naming the item's position.
    """
    if not isinstance(items, list):
        raise ValueError(f"{where}: expected a list, got {items!r}")
    shape = ", ".join("ijk"[:arity])
    seen = set()
    for pos, item in enumerate(items):
        at = f"{where}[{pos}]"
        if not isinstance(item, list) or len(item) != arity + 1:
            raise ValueError(f"{at}: expected [{shape}, value]")
        idx = [json_int(i, at) for i in item[:arity]]
        if not (1 <= idx[0] and idx[-1] <= bound and all(a < b for a, b in zip(idx, idx[1:]))):
            raise ValueError(f"{at}: indices must be 1-based strictly increasing up to {bound}, got {idx}")
        key = tuple(i - 1 for i in idx)
        if key in seen:
            raise ValueError(f"{at}: duplicate indices {idx}")
        seen.add(key)
        yield key, item[-1]


# Coefficient types taken as they are; anything else goes through `rat`, which
# also catches bool, a subclass of int.
_EXACT = (int, Fraction)


def _norm_coeff(c):
    """Keep exact coefficients in their leanest form (int when integral)."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"non-exact coefficient {c!r} of type {type(c).__name__}")


# Bits per exponent field of a packed monomial key; every total degree stays
# below 2^_BITS, so no field can overflow into its neighbour.
_BITS = 16
_MASK = (1 << _BITS) - 1
_DEGREE_CAP = 1 << _BITS


def _pack(exp: Sequence[int], nv: int) -> int:
    """Packed key of an exponent tuple in a ring of nv variables."""
    e = tuple(exp)
    if len(e) != nv:
        raise ValueError(f"exponent arity {len(e)} does not match {nv} variables")
    if any(x < 0 for x in e):
        raise ValueError(f"negative exponent in {e}")
    key = sum(e)
    if key >= _DEGREE_CAP:
        raise ValueError(f"total degree of {e} is not below 2^{_BITS}")
    for x in e:
        key = key << _BITS | x
    return key


def _unpack(key: int, nv: int) -> Tuple[int, ...]:
    """Exponent tuple of a packed key in a ring of nv variables."""
    return tuple(key >> s & _MASK for s in range(_BITS * (nv - 1), -1, -_BITS))


def _shift(nv: int, index: int) -> int:
    """Bit offset of variable `index` (negative counts from the end)."""
    return _BITS * (nv - 1 - range(nv)[index])


def _canonical(terms: dict) -> dict:
    """Terms without zero coefficients, integral Fractions turned into ints."""
    return {
        e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for e, c in terms.items()
        if c
    }


def _linear(variables: Tuple[str, ...], coeffs: Sequence) -> "MultiPoly":
    """sum_l coeffs[l] u^l + coeffs[n] over the first n variables, n + 1 =
    len(coeffs), built as raw terms from exact coefficients."""
    nv, n = len(variables), len(coeffs) - 1
    one, top = 1 << _BITS * nv, _BITS * (nv - 1)
    terms = {one | 1 << top - _BITS * l: c for l, c in enumerate(coeffs[:n])}
    terms[0] = coeffs[n]
    return MultiPoly._raw(variables, _canonical(terms))


def _sum_of_products(variables: Tuple[str, ...], pairs) -> "MultiPoly":
    """The sum of a * b over the (a, b) pairs, accumulated in place in one
    terms dict; a is a MultiPoly in `variables`, b one too or an exact scalar.
    Cancelled terms wait in the dict with coefficient 0 until the end, so a
    long sum copies nothing.

    A monomial product is one int add; it is guarded once per pair: the two
    top degrees must add up to less than 2^_BITS.
    """
    acc: dict = {}
    top = _BITS * len(variables)
    for a, b in pairs:
        x = a.terms
        if not isinstance(b, MultiPoly):
            b = _norm_coeff(b)
            if b:
                for e, c in x.items():
                    if e in acc:
                        acc[e] += c * b
                    else:
                        acc[e] = c * b
            continue
        y = b.terms
        if not x or not y:
            continue
        if (max(x) >> top) + (max(y) >> top) >= _DEGREE_CAP:
            raise ValueError(f"product degree is not below 2^{_BITS}")
        if len(x) > len(y):
            x, y = y, x
        for ea, ca in x.items():
            for eb, cb in y.items():
                e = ea + eb
                if e in acc:
                    acc[e] += ca * cb
                else:
                    acc[e] = ca * cb
    return MultiPoly._raw(variables, _canonical(acc))


class MultiPoly:
    """Sparse exact polynomial in a fixed tuple of variables.

    `terms` maps packed monomial keys to nonzero coefficients (see the module
    docstring); `monomials` yields the terms with their exponent tuples.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Tuple[int, ...], Scalar]):
        vs = tuple(variables)
        nv = len(vs)
        clean = {}
        for exp, coeff in terms.items():
            key = _pack(exp, nv)
            c = _norm_coeff(coeff if type(coeff) in _EXACT else rat(coeff))
            if c:
                clean[key] = c
        self.vars = vs
        self.terms = clean

    @classmethod
    def _raw(cls, variables: Tuple[str, ...], terms: dict) -> "MultiPoly":
        # Internal fast path: terms must already be canonical (packed keys of
        # this ring, no zeros, int/Fraction coefficients).
        obj = object.__new__(cls)
        obj.vars = variables
        obj.terms = terms
        return obj

    def monomials(self) -> Iterator[Tuple[Tuple[int, ...], Scalar]]:
        """(exponent tuple, coefficient) for each term, in storage order."""
        nv = len(self.vars)
        for key, c in self.terms.items():
            yield _unpack(key, nv), c

    # ----- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls._raw(tuple(variables), {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "MultiPoly":
        vs = tuple(variables)
        c = _norm_coeff(value if type(value) in _EXACT else rat(value))
        if not c:
            return cls._raw(vs, {})
        return cls._raw(vs, {0: c})

    @classmethod
    def variable(cls, variables: Sequence[str], name_or_index) -> "MultiPoly":
        vs = tuple(variables)
        i = name_or_index if isinstance(name_or_index, int) else vs.index(name_or_index)
        nv = len(vs)
        return cls._raw(vs, {1 << _BITS * nv | 1 << _shift(nv, i): 1})

    # ----- scalars ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        if not self.terms:
            return True
        return len(self.terms) == 1 and 0 in self.terms

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.terms[0])

    # ----- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(self.vars, other)
        elif other.vars != self.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s if type(s) is int else _norm_coeff(s)
                else:
                    del out[e]
            else:
                out[e] = c
        return MultiPoly._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _norm_coeff(other)
            if not c:
                return MultiPoly._raw(self.vars, {})
            return MultiPoly._raw(self.vars, {e: _norm_coeff(v * c) for e, v in self.terms.items()})
        if other.vars != self.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        return _sum_of_products(self.vars, ((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.terms
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    __hash__ = None  # mutable dict inside; equality is structural

    # ----- queries --------------------------------------------------------

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(self.terms) >> _BITS * len(self.vars)

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        s = _shift(len(self.vars), index)
        return max(e >> s & _MASK for e in self.terms)

    def leading_term(self) -> Tuple[Tuple[int, ...], Scalar]:
        """(exponent, coefficient) of the deglex-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return _unpack(e, len(self.vars)), self.terms[e]

    # ----- calculus and evaluation ----------------------------------------

    def diff(self, index: int) -> "MultiPoly":
        nv = len(self.vars)
        s = _shift(nv, index)
        # One less in the variable's field and in the degree field; distinct
        # monomials stay distinct, so nothing collects.
        step = 1 << _BITS * nv | 1 << s
        out = {}
        for e, c in self.terms.items():
            k = e >> s & _MASK
            if k:
                out[e - step] = _norm_coeff(c * k)
        return MultiPoly._raw(self.vars, out)

    def eval(self, point: Sequence) -> Fraction:
        """Exact value at a full rational point (one value per variable), each
        value read as `__init__` reads a coefficient: a float or bool raises."""
        vals = [v if type(v) in _EXACT else rat(v) for v in point]
        nv = len(self.vars)
        if len(vals) != nv:
            raise ValueError(f"expected {nv} values, got {len(vals)}")
        # by_field[f] is the value of the variable whose field is the f-th
        # from the low end.  Each key is read from its highest nonzero field
        # down, so a term costs one step per variable it contains and a
        # constant term none.
        by_field = vals[::-1]
        fields = (1 << _BITS * nv) - 1
        total = 0
        for key, c in self.terms.items():
            key &= fields
            while key:
                f = (key.bit_length() - 1) // _BITS
                s = f * _BITS
                x = key >> s
                key -= x << s
                c = c * (by_field[f] if x == 1 else by_field[f] ** x)
            total += c
        return Fraction(total)

    def with_vars(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-embed into a ring whose variables contain the current ones."""
        vs = tuple(variables)
        nv, nv2 = len(self.vars), len(vs)
        moves = [(_shift(nv, i), _shift(nv2, vs.index(v))) for i, v in enumerate(self.vars)]
        top, top2 = _BITS * nv, _BITS * nv2
        out = {}
        for e, c in self.terms.items():
            key = e >> top << top2
            for s, s2 in moves:
                key |= (e >> s & _MASK) << s2
            out[key] = c
        return MultiPoly._raw(vs, out)

    # ----- division and gcd support ----------------------------------------

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact polynomial quotient; raises if the division is not exact.

        The quotient stays in integers where it can: an int coefficient
        over an int leading coefficient that divides it is one floor
        division, and a constant int divisor of every coefficient takes one
        integer pass.  Every other step divides as `Fraction`s.
        """
        if isinstance(divisor, (int, Fraction)):
            if not divisor:
                raise ZeroDivisionError("division by zero")
            k = _norm_coeff(divisor)
        else:
            if divisor.vars != self.vars:
                raise ValueError("variable mismatch in division")
            if divisor.is_zero():
                raise ZeroDivisionError("division by zero polynomial")
            k = divisor.terms[0] if divisor.is_constant() else None
        if k is not None:
            terms = self.terms
            if type(k) is int and all(type(c) is int and not c % k for c in terms.values()):
                return MultiPoly._raw(self.vars, {e: c // k for e, c in terms.items()})
            return self * (Fraction(1) / Fraction(k))
        if self.is_zero():
            return self
        nv = len(self.vars)
        de = max(divisor.terms)
        dc = divisor.terms[de]
        dexp = _unpack(de, nv)
        q: dict = {}
        r = dict(self.terms)
        while r:
            re = max(r)
            rc = r[re]
            # re - de is a key only when no exponent of re is below de's.
            if any(x < y for x, y in zip(_unpack(re, nv), dexp)):
                raise ValueError("division is not exact")
            qe = re - de
            if type(rc) is int and type(dc) is int and not rc % dc:
                qc = rc // dc
            else:
                qc = _norm_coeff(Fraction(rc) / Fraction(dc))
            q[qe] = qc
            for e, c in divisor.terms.items():
                key = qe + e
                s = r.get(key, 0) - qc * c
                if s:
                    r[key] = s
                else:
                    r.pop(key, None)
        return MultiPoly._raw(self.vars, q)

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except (ValueError, ZeroDivisionError):
            return False

    def monic(self) -> "MultiPoly":
        """Scale so the deglex-leading coefficient is +1."""
        if self.is_zero():
            return self
        _, lc = self.leading_term()
        if lc == 1:
            return self
        return self * (Fraction(1) / Fraction(lc))

    # ----- presentation ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        nv = len(self.vars)
        pieces = []
        for key in sorted(self.terms, reverse=True):
            c = self.terms[key]
            body = "*".join(name if x == 1 else f"{name}^{x}" for name, x in zip(self.vars, _unpack(key, nv)) if x)
            if c < 0:
                pieces.append(" - " if pieces else "-")
                c = -c
            elif pieces:
                pieces.append(" + ")
            pieces.append(str(c) if not body else body if c == 1 else f"{c}*{body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


# ----- univariate kit -----------------------------------------------------------
# A univariate polynomial is an ascending coefficient list: [c0, c1, ...] is
# c0 + c1 t + ...; trimmed, its last entry is nonzero and zero is [].


def clear_denominators(matrix: Sequence[Sequence[Fraction]]) -> Tuple[int, List[List[int]]]:
    """(den, M) with M = matrix * den integral and den the least such."""
    den = math.lcm(1, *(x.denominator for row in matrix for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in matrix]


def _lowest_terms(den: int, num: List[List[int]]) -> Tuple[int, List[List[int]]]:
    """The integer form num / den divided by its gcd, with den > 0: the form
    `clear_denominators` gives of the same rational matrix."""
    g = math.gcd(den, *(x for row in num for x in row))
    if den < 0:
        g = -g
    return (den, num) if g == 1 else (den // g, [[x // g for x in row] for row in num])


def _trim(p: List[Scalar]) -> List[Scalar]:
    while p and not p[-1]:
        p.pop()
    return p


def _sum_coeff_products(pairs) -> List[Scalar]:
    """The sum of a * b over the (a, b) pairs of coefficient lists, each
    product x * y added straight into the one running list, zero
    coefficients skipped; a pair with an empty list adds nothing.  One pair
    is one product."""
    total = []
    for a, b in pairs:
        if not (a and b):
            continue
        total += [0] * (len(a) + len(b) - 1 - len(total))
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    if y:
                        total[k] += x * y
    return total


def _primitive(f: Sequence[int]) -> List[int]:
    """f divided by its content, with a positive leading coefficient."""
    content = math.gcd(*f)
    if f[-1] < 0:
        content = -content
    return [c // content for c in f]


def _gcd(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Primitive gcd of two nonzero trimmed integer polynomials, by Euclid on
    primitive pseudo-remainders; [1] when they are coprime."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for i, y in enumerate(b):
                r[shift + i] -= c * y
            _trim(r)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


# ----- gcd machinery ------------------------------------------------------------


def _restrict_to_line(p: MultiPoly, a: Sequence[int], c: Sequence[int]) -> List[Scalar]:
    """Ascending coefficients in t of p(a + c t), trailing zeros dropped."""
    powers = []
    for i, step in enumerate(zip(a, c)):
        row = [[1]]
        for _ in range(p.degree_in(i)):
            row.append(_sum_coeff_products([(row[-1], step)]))
        powers.append(row)

    def along(e):  # the monomial u^e on the line
        out = [1]
        for i, k in enumerate(e):
            if k:
                out = _sum_coeff_products([(out, powers[i][k])])
        return out

    return _trim(_sum_coeff_products(([coeff], along(e)) for e, coeff in p.monomials()))


# Lines tried by the coprimality proof before poly_gcd falls back to sympy.
_PROOF_LINES = 3


def _proof_lines(nvars: int):
    """Lines a + c t with small integer a and c, in one fixed order."""
    rng = random.Random(nvars)
    while True:
        yield ([rng.randint(-9, 9) for _ in range(nvars)],
               [rng.randint(-9, 9) for _ in range(nvars)])


def _coprime_on_a_line(f: MultiPoly, g: MultiPoly) -> bool:
    """Exact proof that gcd(f, g) = 1, or False when no line tried gives one.

    A line counts only when its direction c has f_top(c) != 0, f_top being
    the top-degree part of f; that value is the t^deg(f) coefficient of
    f(a + c t).  If h divides f and g, then h_top divides f_top, so
    h_top(c) != 0 and h(a + c t) has degree deg h in t.  It divides both
    restrictions, so a constant univariate gcd forces deg h = 0.  That gcd
    is the integer Euclid `_gcd` of the restrictions cleared of
    denominators; f must be nonzero, as it is in `poly_gcd`.
    """
    deg = f.degree()
    for a, c in islice(_proof_lines(len(f.vars)), _PROOF_LINES):
        rf = _restrict_to_line(f, a, c)
        if len(rf) == deg + 1:
            # A constant factor leaves coprimality alone, and gcd(rf, 0) = rf.
            _, (rf, rg) = clear_denominators([rf, _restrict_to_line(g, a, c)])
            if len(_gcd(rf, rg) if rg else rf) == 1:
                return True
    return False


def _gcd_via_sympy(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    import sympy

    gens = sympy.symbols(f.vars)

    def lift(p: MultiPoly):
        return sympy.Poly.from_dict(
            {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.monomials()},
            *gens,
            domain="QQ",
        )

    h = lift(f).gcd(lift(g))
    dom = h.domain
    terms = {}
    for monom, coeff in h.terms():
        r = dom.to_sympy(coeff)
        terms[tuple(int(m) for m in monom)] = Fraction(int(r.p), int(r.q))
    return MultiPoly(f.vars, terms).monic()


def _monomial_gcd(mono: MultiPoly, other: MultiPoly) -> MultiPoly:
    """gcd(c·x^e, other) for a one-term `mono` and a nonzero `other`.

    The divisors of x^e are the monomials x^a with a <= e, and x^a divides
    `other` exactly when every term of `other` has exponents >= a.  So the
    gcd is x^m, m the least exponent of each variable over e and those terms.
    """
    nv = len(mono.vars)
    (key,) = mono.terms
    low = _unpack(key, nv)
    for e in other.terms:
        if not any(low):
            break
        low = tuple(map(min, low, _unpack(e, nv)))
    return MultiPoly._raw(mono.vars, {_pack(low, nv): 1})


def poly_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """GCD in Q[vars], normalised monic (deglex leading coefficient +1).

    One route for every ring: a zero argument settles the gcd at once, and
    so does a one-term argument, a nonzero constant included
    (`_monomial_gcd`: the least exponent of each variable over both);
    otherwise the pair is first sought to be proven coprime exactly by
    restricting both to a few fixed lines (`_coprime_on_a_line`), and
    sympy's multivariate gcd is reached only when no line proves it.
    """
    if f.vars != g.vars:
        raise ValueError("variable mismatch in gcd")
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if len(g.terms) == 1:
        f, g = g, f
    if len(f.terms) == 1:
        return _monomial_gcd(f, g)
    if _coprime_on_a_line(f, g):
        return MultiPoly.const(f.vars, 1)
    return _gcd_via_sympy(f, g)


def lowest_terms(num: MultiPoly, den: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """The fraction num / den as a pair in lowest terms: gcd(num, den) = 1 and
    the denominator's deglex leading coefficient is +1.  A zero numerator
    gets denominator 1, and a denominator that divides the numerator, a
    constant one included, is divided out with no gcd.
    """
    if num.vars != den.vars:
        raise ValueError("variable mismatch in fraction")
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    try:
        return num.exact_div(den), MultiPoly.const(num.vars, 1)
    except ValueError:
        pass
    g = poly_gcd(num, den)
    if not g.is_constant():
        num, den = num.exact_div(g), den.exact_div(g)
    inv = Fraction(1) / Fraction(den.leading_term()[1])
    return num * inv, den * inv
