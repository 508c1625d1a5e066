"""Exact Chow rings and Grothendieck groups of towers of split projective bundles.

A Tower is a base tower plus one split bundle E = L_0 + ... + L_r over it
(the point has no base); the tower is P(E) over the base.  Everything about
the new level comes from E through the projective bundle formula (Fulton,
Intersection Theory, Ch. 3): with xi the hyperplane class and l its line
bundle,

    Chow relation   sum_j (-1)^j c_j(E) xi^{r+1-j} = 0
    K relation      sum_j (-1)^j [wedge^j E] l^{r+1-j} = 0
    K pushforward   pi_* l^a = Sym^a E                               a >= 0
                             = 0                                     -r <= a < 0
                             = (-1)^r det(E)^{-1} Sym^{-a-r-1}(E^*)  a < -r

(the last by Serre duality on the fibres).  So the Chow ring is the integer
polynomial ring on xi1..xiK modulo one relation per level, with monomial basis
{ prod xi_k^{a_k} : 0 <= a_k <= r_k }, and the K-group is free on the same
exponent range in the line classes l_k.  Negative powers of l are rewritten
through l^{-1}, which the K relation gives as (det E)^{-1} times a polynomial
in l, so every K class stays an integer combination of line symbols.  Each
tower keeps pi_* l^a for the exponents it has been asked for, each read from
the closed form above, with det(E) the line of the summands' sum.  No
pushforward reads the K relation: a level builds its K rules, and its
base's, on the first K normal form.

The exterior and symmetric powers of a virtual class sum_L m_L L are the t^n
coefficients of prod_L (1 + s L t)^(s m_L), s = 1 for wedge and s = -1 for
sym; the coefficient of L^a in one factor is s^a binom(s m_L, a).

Conventions (validated by the binomial oracle and the twist-vanishing checks):
the bundle is the Proj of the symmetric algebra and the hyperplane class is
the first Chern class of its tautological quotient line bundle.

Chow classes have integer coefficients on that basis.  Each tower keeps the
normal form of every product of two basis monomials it has been asked for,
one row per left monomial, each entry a tuple of (monomial, coefficient)
pairs filled on first use from a memo keyed by the raw monomial ma + mb, so
the pairs with one sum share one rewrite; a sum above the dimension is the
empty entry and a basis monomial its own, both without a rewrite.  A product
of classes sums raw table entries and normalises once at the end.  Sums,
differences, scalings, graded parts and pushforwards keep normal form
without a rewrite.

Every other sum of term maps here (Chow and K sums and scalings, the final
normalisation of a Chow product, K products, the rewrite step, twists, the
lambda operations and the K-pushforward) is grrcheck.poly.accumulate, which
drops cancelled terms and stores integral values as ints.

A class's canonical text is the polynomial text form of its normal-form
terms (grrcheck.poly.serialize_terms), in xi1..xiK or in l1..lK.

Towers are immutable after build apart from their lazy caches (the product
table and its raw-monomial memo, the pushforward table, and in _cache the K
rules, the tangent class and grrcheck.grr's entries), whose entries are
functions of the tower alone; all class operations are pure, so one tower
may be shared read-only by concurrent verification jobs.
"""

from __future__ import annotations

from math import comb, prod
from operator import add, le
from typing import Mapping, Sequence

from .arith import InputError
from .poly import Alphabet, Monomial, Scalar, accumulate, root_alphabet, serialize_terms
from .report import Record

DivisorVector = tuple[int, ...]  # one integer per tower level
# One level's rewrite rules: (exponent above r_k, exponent below 0).  A rule
# maps exponent offsets to integer coefficients; a term m rewrites to the
# terms m + offset, so the offsets already subtract the exponent they replace.
Rule = dict[Monomial, int]


def _binomial(n: int, a: int) -> int:
    """binom(n, a) for every integer n and a >= 0."""
    return comb(n, a) if n >= 0 else (-1) ** a * comb(a - n - 1, a)


def _padded(rule: Rule) -> Rule:
    return {m + (0,): c for m, c in rule.items()}


class Tower:
    """An iterated split projective bundle over a point: P(E) over self.base.

    E is the split bundle of the top level's line summands, a KClass on the
    base; its total Chern class gives the Chow relation, its exterior powers
    the K relation, and the symmetric powers of E and of its dual the
    K-pushforward images.
    """

    def __init__(self, levels: Sequence[Sequence[DivisorVector]]):
        self.levels: tuple[tuple[DivisorVector, ...], ...] = tuple(
            tuple(tuple(int(c) for c in vec) for vec in level) for level in levels
        )
        self.n_levels: int = len(self.levels)
        self.base: Tower | None = Tower(self.levels[:-1]) if self.levels else None
        self.ranks: tuple[int, ...] = tuple(len(level) - 1 for level in self.levels)
        self.dim: int = sum(self.ranks)
        self.alphabet = Alphabet([(f"xi{k + 1}", 1) for k in range(self.n_levels)])
        self._cache: dict = {}
        # the product table of __mul__ (row ma, entry mb) and the normal forms
        # of the raw monomials ma + mb its entries read, see _product_entry
        self._products: dict[Monomial, dict[Monomial, tuple[tuple[Monomial, int], ...]]] = {}
        self._raw_forms: dict[Monomial, tuple[tuple[Monomial, int], ...]] = {}
        self._zero = ChowClass._normal(self, {})
        self._unit = ChowClass._normal(self, {(0,) * self.n_levels: 1})
        # per level (above, below) rules; the Chow ring has no negative exponents
        self._chow_rules: list[tuple[Rule, Rule]] = []
        # a -> pi_* l^a on the base for the top level's line class l, filled
        # by _pushed_power for the exponents asked for
        self._pushed: dict[int, dict[DivisorVector, int]] = {}
        if self.base is None:
            return
        k = self.n_levels - 1
        top = self.levels[k]
        if not top:
            raise InputError(f"level {k + 1} has no line summands")
        for vec in top:
            if len(vec) != k:
                raise InputError(
                    f"level {k + 1} summand {vec} must reference exactly the "
                    f"{k} earlier hyperplanes"
                )
        base = self.base
        self._chow_rules = [(_padded(a), _padded(b)) for a, b in base._chow_rules]
        self._bundle = bundle = KClass._normal(base, {vec: top.count(vec) for vec in top})
        # xi^{r+1} -> sum_{j>=1} (-1)^{j+1} c_j(E) xi^{r+1-j}
        chow_above = {
            m + (-sum(m),): c if sum(m) % 2 else -c
            for m, c in bundle.total_chern().terms.items()
            if sum(m)
        }
        self._chow_rules.append((chow_above, {}))
        # det(E) = wedge^{r+1} E is the line of the summands' sum
        self._det_inverse = tuple(-sum(x) for x in zip(*top))

    def _pad(self, vec: DivisorVector) -> DivisorVector:
        return vec + (0,) * (self.n_levels - len(vec))

    def _normal_form(
        self, terms: Mapping[Monomial, Scalar], rules: Sequence[tuple[Rule, Rule]]
    ) -> dict[Monomial, Scalar]:
        """Rewrite every exponent, top level first, into [0, r_k] with the
        (above, below) rules of each level."""
        out = accumulate({}, terms)
        for k in reversed(range(self.n_levels)):
            r = self.ranks[k]
            above, below = rules[k]
            while True:
                bad = [(m, c) for m, c in out.items() if not 0 <= m[k] <= r]
                if not bad:
                    break
                for m, _ in bad:
                    del out[m]
                for m, c in bad:
                    accumulate(out, above if m[k] > r else below, c, m)
        return out

    def _k_rules(self) -> list[tuple[Rule, Rule]]:
        """Per level (above, below) K rules, built with the base's on the
        first K normal form; the pushforward reads none of them."""
        if self.base is None or "k_rules" in self._cache:
            return self._cache.get("k_rules", [])
        # l^{r+1} -> sum_{j>=1} (-1)^{j+1} wedge^j E l^{r+1-j}, and multiplying
        # the relation by l^{-1}: l^{-1} -> sum_{j<=r} (-1)^{r+j} wedge^j E det(E)^{-1} l^{r-j}
        r, det_inverse = self.ranks[-1], self._det_inverse
        wedges = self._bundle._lambda_terms(r + 1, 1, False)  # every wedge^j E in one pass
        above = {
            v + (-j,): c if j % 2 else -c for j in range(1, r + 2) for v, c in wedges[j].items()
        }
        below = {
            tuple(map(add, v, det_inverse)) + (r + 1 - j,): c if (r + j) % 2 == 0 else -c
            for j in range(r + 1)
            for v, c in wedges[j].items()
        }
        rules = [(_padded(a), _padded(b)) for a, b in self.base._k_rules()] + [(above, below)]
        self._cache["k_rules"] = rules
        return rules

    def _product_entry(self, ma: Monomial, mb: Monomial) -> tuple[tuple[Monomial, int], ...]:
        """ma * mb in normal form as (monomial, coefficient) pairs: the
        normal form of the raw monomial ma + mb, rewritten once for every
        pair with that sum, and empty above the dimension without a rewrite."""
        m = tuple(map(add, ma, mb))
        if m not in self._raw_forms:
            normal = {} if sum(m) > self.dim else {m: 1}
            if normal and not all(map(le, m, self.ranks)):  # not a basis monomial yet
                normal = self._normal_form(normal, self._chow_rules)
            self._raw_forms[m] = tuple(normal.items())
        return self._raw_forms[m]

    def _pushed_power(self, a: int) -> dict[DivisorVector, int]:
        """pi_* l^a on the base, for the top level's line class l and any
        integer a, from the closed form of the module docstring."""
        table = self._pushed
        if a not in table:
            r = self.ranks[-1]
            if a >= 0:
                table[a] = self._bundle.sym(a).line_terms
            elif a >= -r:
                table[a] = {}
            else:
                sym = self._bundle.dual().sym(-a - r - 1).line_terms
                table[a] = accumulate({}, sym, -1 if r % 2 else 1, self._det_inverse)
        return table[a]

    # -- public structure -------------------------------------------------

    def prefix(self, n_levels: int) -> "Tower":
        """The partial tower consisting of the first n_levels levels."""
        if not 0 <= n_levels <= self.n_levels:
            raise InputError(f"base levels {n_levels} outside 0..{self.n_levels}")
        tower = self
        for _ in range(self.n_levels - n_levels):
            tower = tower.base
        return tower

    def zero_chow(self) -> "ChowClass":
        return self._zero

    def unit_chow(self) -> "ChowClass":
        return self._unit

    def hyperplane(self, k: int) -> "ChowClass":
        """The class of the level-k hyperplane (1-based)."""
        return self.divisor_chow(tuple(int(p == k - 1) for p in range(self.n_levels)))

    def divisor_chow(self, vec: DivisorVector) -> "ChowClass":
        vec = self._pad(tuple(vec))
        out: dict[Monomial, int] = {}
        for kpos, c in enumerate(vec):
            if c:
                mono = [0] * self.n_levels
                mono[kpos] = 1
                out[tuple(mono)] = c
        # xi_k is in normal form unless level k has rank 0, where xi = D
        reduced = all(r for r, c in zip(self.ranks, vec) if c)
        return (ChowClass._normal if reduced else ChowClass)(self, out)

    def line(self, vec: DivisorVector) -> "KClass":
        vec = self._pad(tuple(vec))
        if len(vec) != self.n_levels:
            raise InputError("line symbol has wrong arity for the tower")
        return KClass._normal(self, {vec: 1})

    def structure_sheaf(self) -> "KClass":
        return KClass._normal(self, {(0,) * self.n_levels: 1})

    def tangent_class(self) -> "KClass":
        """Split model of the tangent class from the per-level Euler sequences."""
        key = "tangent"
        if key not in self._cache:
            terms: dict[DivisorVector, int] = {}
            zero = (0,) * self.n_levels
            for k, level in enumerate(self.levels):
                for vec in level:
                    padded = list(self._pad(vec))
                    sym = [-v for v in padded]
                    sym[k] += 1
                    sym_t = tuple(sym)
                    terms[sym_t] = terms.get(sym_t, 0) + 1
                terms[zero] = terms.get(zero, 0) - 1
            self._cache[key] = KClass._normal(self, {v: c for v, c in terms.items() if c})
        return self._cache[key]

    def __repr__(self) -> str:
        sig = "; ".join(
            ",".join(str(v) for v in level) or "pt" for level in self.levels
        )
        return f"Tower(dim={self.dim}: {sig})"


class ChowClass:
    """A cycle class on a tower: a sparse vector on the monomial basis
    prod xi_k^{a_k}, 0 <= a_k <= r_k, keyed by the exponent tuple, with no
    zero coefficients.

    Coefficients are ints.  A Fraction occurs only where a value is not an
    integer: the rational series parts that the tests' rational reference
    evaluates, or a universal polynomial carrying a Fraction mutation delta;
    the constructor, sums, scalings and products store an integral value as
    an int (poly.accumulate).

    ChowClass(tower, terms) reduces raw terms with the Chow relations.  Every
    other result is built by _normal from terms already in normal form: the
    linear operations and the push and pull maps preserve it, and a product
    sums c_a * c_b times the tower's table entry for each pair of basis
    monomials (computed on first use, empty above the dimension).
    """

    __slots__ = ("tower", "terms")

    def __init__(self, tower: Tower, terms: Mapping[Monomial, Scalar]):
        self.tower = tower
        self.terms: dict[Monomial, Scalar] = tower._normal_form(terms, tower._chow_rules)

    @classmethod
    def _normal(cls, tower: Tower, terms: dict[Monomial, Scalar]) -> "ChowClass":
        """The class with the given terms, already in normal form without zeros."""
        alpha = object.__new__(cls)
        alpha.tower = tower
        alpha.terms = terms
        return alpha

    def _check(self, other: "ChowClass") -> None:
        if self.tower is not other.tower:
            raise InputError("classes live on different towers")

    def _combine(self, other: "ChowClass", sign: int) -> "ChowClass":
        self._check(other)
        return ChowClass._normal(self.tower, accumulate(dict(self.terms), other.terms, sign))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        return self._combine(other, 1)

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self._combine(other, -1)

    def __neg__(self) -> "ChowClass":
        return self.scale(-1)

    def scale(self, r: Scalar) -> "ChowClass":
        if not r:
            return self.tower.zero_chow()
        return ChowClass._normal(self.tower, accumulate({}, self.terms, r))

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        tower = self.tower
        if not self.terms or not other.terms:
            return tower.zero_chow()  # zero images are common in substitutions
        table = tower._products
        out: dict[Monomial, Scalar] = {}
        get = out.get
        for ma, ca in self.terms.items():
            row = table.get(ma)
            if row is None:
                row = table[ma] = {}
            for mb, cb in other.terms.items():
                entry = row.get(mb)
                if entry is None:
                    entry = row[mb] = tower._product_entry(ma, mb)
                if entry:  # empty above the dimension or by a level's relation
                    c = ca * cb
                    for m, t in entry:
                        out[m] = get(m, 0) + c * t
        return ChowClass._normal(tower, accumulate({}, out))

    def graded_part(self, m: int) -> "ChowClass":
        return ChowClass._normal(
            self.tower, {mono: c for mono, c in self.terms.items() if sum(mono) == m}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.tower is other.tower and self.terms == other.terms

    def serialize(self) -> str:
        return serialize_terms(self.tower.alphabet, self.terms)

    def __repr__(self) -> str:
        return f"ChowClass({self.serialize()!r})"


def pushforward_chow(alpha: ChowClass, n_collapse: int = 1) -> ChowClass:
    """Push forward along the structure morphism collapsing the top n levels."""
    tower = alpha.tower
    if not 0 <= n_collapse <= tower.n_levels:
        raise InputError("cannot collapse more levels than the tower has")
    terms = alpha.terms
    current = tower
    for _ in range(n_collapse):
        # the top exponent at r_k is the fiber's point class; the rest of the
        # monomial is a basis monomial of the base, distinct for distinct
        # monomials, so no two terms collect
        k = current.n_levels - 1
        terms = {m[:k]: c for m, c in terms.items() if m[k] == current.ranks[k]}
        current = current.base
    return ChowClass._normal(current, terms)


class KClass:
    """A virtual integer combination of line-bundle symbols on a tower.

    KClass(tower, terms) checks and cleans arbitrary terms.  Every result of
    an operation on classes is built by _normal from terms already clean."""

    __slots__ = ("tower", "line_terms")

    def __init__(self, tower: Tower, line_terms: Mapping[DivisorVector, int]):
        self.tower = tower
        self.line_terms: dict[DivisorVector, int] = {
            tuple(v): int(c) for v, c in line_terms.items() if c
        }
        for vec in self.line_terms:
            if len(vec) != tower.n_levels:
                raise InputError("line symbol has wrong arity for the tower")

    @classmethod
    def _normal(cls, tower: Tower, line_terms: dict[DivisorVector, int]) -> "KClass":
        """The class with the given terms, already clean: symbols of the
        tower's arity and nonzero int multiplicities.  The dict is taken over."""
        f = object.__new__(cls)
        f.tower = tower
        f.line_terms = line_terms
        return f

    def _check(self, other: "KClass") -> None:
        if self.tower is not other.tower:
            raise InputError("classes live on different towers")

    def rank(self) -> int:
        return sum(self.line_terms.values())

    def __add__(self, other: "KClass") -> "KClass":
        self._check(other)
        return KClass._normal(self.tower, accumulate(dict(self.line_terms), other.line_terms))

    def __sub__(self, other: "KClass") -> "KClass":
        self._check(other)
        return KClass._normal(self.tower, accumulate(dict(self.line_terms), other.line_terms, -1))

    def __neg__(self) -> "KClass":
        return KClass._normal(self.tower, {v: -c for v, c in self.line_terms.items()})

    def scale(self, n: int) -> "KClass":
        terms = {v: n * c for v, c in self.line_terms.items()} if n else {}
        return KClass._normal(self.tower, terms)

    def __mul__(self, other: "KClass") -> "KClass":
        self._check(other)
        out: dict[DivisorVector, int] = {}
        for va, ca in self.line_terms.items():
            accumulate(out, other.line_terms, ca, va)
        return KClass._normal(self.tower, out)

    def dual(self) -> "KClass":
        return KClass._normal(
            self.tower, {tuple(-x for x in v): c for v, c in self.line_terms.items()}
        )

    def twist(self, vec: DivisorVector) -> "KClass":
        """Tensor with the line bundle of the given divisor vector."""
        vec = self.tower._pad(tuple(vec))
        return KClass._normal(self.tower, accumulate({}, self.line_terms, 1, vec))

    def _lambda_terms(self, n: int, s: int, only_n: bool) -> dict[int, dict[DivisorVector, int]]:
        """t-degree d -> terms of the t^d coefficient of prod_L (1 + s L t)^(s m_L)
        over the line symbols L with multiplicity m_L, for d <= n (only d = n
        when only_n): wedge^d for s = 1, Sym^d for s = -1.  The coefficient
        of L^a in one factor is s^a binom(s m_L, a), a polynomial in m_L, so
        this holds for every virtual class.  The product is taken one symbol
        at a time; with only_n the last symbol only tops each degree up to n."""
        if n < 0:
            raise InputError(f"{'wedge' if s > 0 else 'sym'} index must be >= 0")
        parts = {0: {(0,) * self.tower.n_levels: 1}}
        items = sorted(self.line_terms.items())
        for i, (vec, m) in enumerate(items):
            top = s * m if s * m >= 0 else n  # binom(s m, a) = 0 for a > s m >= 0
            out: dict[int, dict[DivisorVector, int]] = {}
            for d, terms in parts.items():
                low = n - d if only_n and i == len(items) - 1 else 0
                for a in range(low, min(n - d, top) + 1):
                    shift = tuple(a * x for x in vec) if a else None
                    accumulate(out.setdefault(d + a, {}), terms, s**a * _binomial(s * m, a), shift)
            parts = out
        return parts

    def wedge(self, i: int) -> "KClass":
        """i-th exterior power."""
        return KClass._normal(self.tower, self._lambda_terms(i, 1, True).get(i, {}))

    def sym(self, a: int) -> "KClass":
        """a-th symmetric power."""
        return KClass._normal(self.tower, self._lambda_terms(a, -1, True).get(a, {}))

    def total_chern(self) -> ChowClass:
        """prod (1 + D)^m over the line symbols, each factor taken into the
        running product P as sum_{i<=dim} binom(m, i) P*D^i (exact for every
        sign of m, as D is nilpotent), each P*D^i the previous one times the
        divisor, so no product of two full classes is formed."""
        tower = self.tower
        total = tower.unit_chow()
        for vec, mult in sorted(self.line_terms.items()):
            d = tower.divisor_chow(vec)
            power = total
            for i in range(1, tower.dim + 1):
                binom = _binomial(mult, i)
                if not binom:
                    break
                power = power * d
                if power.is_zero():
                    break
                total = total + power.scale(binom)
        return total

    def normal_form(self) -> dict[DivisorVector, int]:
        """Coordinates in the monomial basis of the K-group (exponents in [0, r_k])."""
        return self.tower._normal_form(self.line_terms, self.tower._k_rules())

    def __eq__(self, other: object) -> bool:
        """Equality as K-theory classes (compared in normal form)."""
        if not isinstance(other, KClass):
            return NotImplemented
        if self.tower is not other.tower:
            return False
        if self.line_terms == other.line_terms:
            return True
        return self.normal_form() == other.normal_form()

    def serialize(self) -> str:
        """Canonical text of the class in normal form, one line per basis
        symbol: the polynomial text form in l1..lK, each of weight 1."""
        return serialize_terms(root_alphabet("l", self.tower.n_levels), self.normal_form())

    def __repr__(self) -> str:
        return f"KClass({self.line_terms})"


def pushforward_k(f: KClass, n_collapse: int = 1) -> KClass:
    """K-theoretic pushforward collapsing the top n levels of the tower."""
    tower = f.tower
    if not 0 <= n_collapse <= tower.n_levels:
        raise InputError("cannot collapse more levels than the tower has")
    current = tower
    terms: dict[DivisorVector, int] = f.line_terms
    for _ in range(n_collapse):
        # L * l^a pushes to L * pi_* l^a (projection formula)
        pushed: dict[DivisorVector, int] = {}
        for vec, c in terms.items():
            accumulate(pushed, current._pushed_power(vec[-1]), c, vec[:-1])
        terms, current = pushed, current.base
    return KClass._normal(current, terms)


def pullback_k(f: KClass, tower: Tower) -> KClass:
    k = f.tower.n_levels
    if tower.prefix(k) is not f.tower:
        raise InputError("source is not a prefix of the target tower")
    pad = tower.n_levels - k
    return KClass._normal(tower, {v + (0,) * pad: c for v, c in f.line_terms.items()})


def euler_characteristic(f: KClass) -> int:
    """Pushforward to the point: the exact Euler characteristic."""
    collapsed = pushforward_k(f, f.tower.n_levels)
    return collapsed.line_terms.get((), 0)


def chi_projective_space_oracle(n: int, a: int) -> int:
    """Independent oracle: chi of the a-th twist on n-space is
    prod_{i=1..n} (a+i) / n!, exactly, for every integer a."""
    num = prod(a + i for i in range(1, n + 1))
    den = prod(range(1, n + 1))
    q, rem = divmod(num, den)
    if rem:
        raise AssertionError("binomial oracle produced a non-integer")
    return q


class VirtualCompleteIntersection(Record):
    """r divisor cuts in an ambient tower; all computations stay in the ambient
    ring via the Koszul class, the restriction product, and virtual tangents.
    The cuts are stored padded to the ambient's levels."""

    __slots__ = ("ambient", "cuts")

    def __init__(self, ambient: Tower, cuts: tuple[DivisorVector, ...]):
        if len(cuts) > ambient.dim:
            raise InputError("more cuts than the ambient dimension")
        self.ambient = ambient
        self.cuts = tuple(ambient._pad(tuple(c)) for c in cuts)

    @property
    def codim(self) -> int:
        return len(self.cuts)

    @property
    def dim(self) -> int:
        return self.ambient.dim - len(self.cuts)

    def cut_product(self) -> ChowClass:
        """The class implementing pushforward-of-restriction: prod of the cuts."""
        total = self.ambient.unit_chow()
        for c in self.cuts:
            total = total * self.ambient.divisor_chow(c)
        return total

    def koszul_class(self, f: KClass | None = None) -> KClass:
        """[O_Z] (or i_*[F|_Z]) as prod (1 - [O(-cut)]) times the ambient class."""
        total = self.ambient.structure_sheaf()
        for c in self.cuts:
            minus = self.ambient.line(tuple(-x for x in c))
            total = total * (self.ambient.structure_sheaf() - minus)
        if f is not None:
            total = total * f
        return total

    def normal_class(self) -> KClass:
        terms: dict[DivisorVector, int] = {}
        for c in self.cuts:
            terms[c] = terms.get(c, 0) + 1
        return KClass._normal(self.ambient, terms)

    def tangent_class(self) -> KClass:
        """Virtual restriction of the ambient tangent minus the normal class."""
        return self.ambient.tangent_class() - self.normal_class()
