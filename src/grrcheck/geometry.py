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

Each class constructor takes over terms already clean (see the classes).
Outside input reaches the rings only through Tower.line, which asserts the
arity (as do divisor_chow, KClass.twist and VirtualCompleteIntersection:
nothing pads a short vector), and the class operations, each of which
keeps its result clean.

Chow classes have integer coefficients on that basis, stored as a
GradedPolynomial's: {packed key: coefficient} over the tower's alphabet
xi1..xiK (grrcheck.poly).  Each tower keeps one product memo, raw key
ka + kb -> the normal form of its monomial as (key, coefficient) pairs,
empty above the dimension, so each raw monomial is unpacked and rewritten
once (the rewrite and the Chow rules alone walk exponent tuples), and a
product of classes does one key addition and one lookup per pair of terms; a
divisor sum_k a_k xi_k reads each xi_k's entry there too.  Sums, scalings,
graded parts (key >> shift) and pushforwards (the top exponent is a key's
lowest field) keep normal form.  A level's rank is below RANK_LIMIT = 2^14
(Tower asserts it), so no sum of two keys carries.  Every other sum of term
maps here (Chow and K sums and scalings, the final normalisation of a Chow
product and of a divisor, the rewrite step, twists, the lambda operations
and the K-pushforward) is grrcheck.poly.accumulate, which drops cancelled
terms and stores integral values as ints.

A class's canonical text is grrcheck.poly.serialize_keyed of its packed
normal-form terms, in xi1..xiK or in l1..lK.  K classes keep exponent
tuples (a line symbol has negative entries) and pack only their normal form.

Towers are immutable after build apart from their lazy caches (the product
memo, the pushforward table, and in _cache the K rules, the tangent class,
each cut-out's tangent and grrcheck.grr's entries), whose entries are
functions of the tower (and cuts) alone; all class operations are pure, so
one tower may be shared read-only by concurrent verification jobs.  A
process builds one tower per level list: tower(levels) keeps each one it
builds, under a lock, so two threads that name a new level list at once get
one tower, and every Tower takes its base from it; the queries, suite rows
and prefixes that name one level list read one tower and every cache on it.
Tower(levels) called directly builds a new top over that shared base.
"""

from __future__ import annotations

from math import comb, prod
from operator import add
from threading import RLock
from typing import Mapping, Sequence

from .poly import Alphabet, Monomial, Scalar, accumulate, root_alphabet, serialize_keyed
from .report import Record

DivisorVector = tuple[int, ...]  # one integer per tower level
RANK_LIMIT = 1 << 14  # every level's rank is below it, so no sum of two Chow keys carries
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
    K-pushforward images.  The base is tower(levels[:-1]), the one tower
    on those levels.
    """

    def __init__(self, levels: Sequence[Sequence[DivisorVector]]):
        self.levels: tuple[tuple[DivisorVector, ...], ...] = tuple(
            tuple(tuple(vec) for vec in level) for level in levels
        )
        self.n_levels: int = len(self.levels)
        self.base: Tower | None = tower(self.levels[:-1]) if self.levels else None
        self.ranks: tuple[int, ...] = tuple(len(level) - 1 for level in self.levels)
        self.dim: int = sum(self.ranks)
        self.alphabet = Alphabet([(f"xi{k + 1}", 1) for k in range(self.n_levels)])
        self._cache: dict = {}
        # raw key ka + kb -> its normal form as (key, coefficient) pairs, see _product
        self._products: dict[int, tuple[tuple[int, int], ...]] = {}
        self._zero = ChowClass(self, {})
        self._unit = ChowClass(self, {0: 1})  # key 0 is the empty monomial
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
            raise AssertionError(f"level {k + 1} has no line summands")
        if self.ranks[k] >= RANK_LIMIT:
            raise AssertionError(f"level {k + 1} has rank {self.ranks[k]}, past the packed range")
        for vec in top:
            if len(vec) != k:
                raise AssertionError(
                    f"level {k + 1} summand {vec} must reference exactly the "
                    f"{k} earlier hyperplanes"
                )
        base = self.base
        self._chow_rules = [(_padded(a), _padded(b)) for a, b in base._chow_rules]
        self._bundle = bundle = KClass(base, {vec: top.count(vec) for vec in top})
        # xi^{r+1} -> sum_{j>=1} (-1)^{j+1} c_j(E) xi^{r+1-j}, c_j(E) the degree-j keys
        monomial, shift = base.alphabet.monomial, base.alphabet.shift
        chow_above = {
            monomial(key) + (-(key >> shift),): c if (key >> shift) % 2 else -c
            for key, c in bundle.total_chern().terms.items()
            if key
        }
        self._chow_rules.append((chow_above, {}))
        # det(E) = wedge^{r+1} E is the line of the summands' sum
        self._det_inverse = tuple(-sum(x) for x in zip(*top))

    def _arity(self, vec: DivisorVector) -> DivisorVector:
        """vec itself, asserted to hold one entry per level."""
        if len(vec) != self.n_levels:
            raise AssertionError(f"divisor vector {vec} has wrong arity for {self!r}")
        return vec

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
        wedges = [self._bundle._lambda_terms(j, 1) for j in range(r + 2)]  # wedge^j E
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

    def _product(self, key: int) -> tuple[tuple[int, int], ...]:
        """The product memo's entry at the raw key ka + kb: the normal form
        of its monomial as (key, coefficient) pairs, empty above the dimension."""
        alphabet, entry = self.alphabet, ()
        if key >> alphabet.shift <= self.dim:
            normal = self._normal_form({alphabet.monomial(key): 1}, self._chow_rules)
            entry = tuple((alphabet.keys[m], c) for m, c in normal.items())
        self._products[key] = entry
        return entry

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
        """sum_k vec_k xi_k, each xi_k's normal form read from the product memo."""
        out: dict[int, Scalar] = {}
        for k, c in enumerate(self._arity(vec)):
            if c:
                key = self.alphabet.keys[(0,) * k + (1,) + (0,) * (self.n_levels - k - 1)]
                entry = self._products.get(key)
                for term, t in self._product(key) if entry is None else entry:
                    out[term] = out.get(term, 0) + c * t
        return ChowClass(self, accumulate({}, out))

    def line(self, vec: DivisorVector) -> "KClass":
        return KClass(self, {self._arity(vec): 1})

    def structure_sheaf(self) -> "KClass":
        return KClass(self, {(0,) * self.n_levels: 1})

    def tangent_class(self) -> "KClass":
        """Split model of the tangent class from the per-level Euler sequences."""
        if "tangent" not in self._cache:
            # level k: O(xi_k - L) for each summand L (entries on the k levels below), minus O
            terms: dict[DivisorVector, int] = {(0,) * self.n_levels: -self.n_levels}
            for k, level in enumerate(self.levels):
                for vec in level:
                    sym = (*(-v for v in vec), 1) + (0,) * (self.n_levels - k - 1)
                    terms[sym] = terms.get(sym, 0) + 1
            self._cache["tangent"] = KClass(self, {v: c for v, c in terms.items() if c})
        return self._cache["tangent"]

    def __repr__(self) -> str:
        sig = "; ".join(
            ",".join(str(v) for v in level) or "pt" for level in self.levels
        )
        return f"Tower(dim={self.dim}: {sig})"


_towers: dict[tuple, Tower] = {}
_towers_lock = RLock()  # reentrant: a build takes its base from tower()


def tower(levels: tuple[tuple[DivisorVector, ...], ...]) -> Tower:
    """The tower on these levels, base first, built once per process: every
    caller that names one level list reads one tower and its caches.  A
    build that raises stores nothing."""
    found = _towers.get(levels)
    if found is None:
        with _towers_lock:
            found = _towers.get(levels)
            if found is None:
                found = _towers[levels] = Tower(levels)
    return found


class ChowClass:
    """A cycle class on a tower: a sparse vector on the monomial basis
    prod xi_k^{a_k}, 0 <= a_k <= r_k, keyed by the monomial's packed key
    over tower.alphabet, with no zero coefficients.

    Coefficients are ints.  A Fraction occurs only where a value is not an
    integer: the rational series parts that the tests' rational reference
    evaluates, or a universal polynomial carrying a Fraction mutation delta;
    the normal form, sums, scalings and products store an integral value as
    an int (poly.accumulate).

    ChowClass(tower, terms) takes over packed terms already in normal form
    without zeros.  Every operation keeps normal form: the linear operations
    and the pushforward preserve it, and a product sums c_a * c_b times the
    tower's product memo entry at ka + kb for each pair of terms (computed
    on first use, empty above the dimension).
    """

    __slots__ = ("tower", "terms")

    def __init__(self, tower: Tower, terms: dict[int, Scalar]):
        self.tower = tower
        self.terms = terms

    def _check(self, other: "ChowClass") -> None:
        if self.tower is not other.tower:
            raise AssertionError("classes live on different towers")

    def _combine(self, other: "ChowClass", sign: int) -> "ChowClass":
        self._check(other)
        return ChowClass(self.tower, accumulate(dict(self.terms), other.terms, sign))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        return self._combine(other, 1)

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self._combine(other, -1)

    def scale(self, r: Scalar) -> "ChowClass":
        return ChowClass(self.tower, accumulate({}, self.terms, r))

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        tower = self.tower
        if not self.terms or not other.terms:
            return tower.zero_chow()  # zero images are common in substitutions
        products = tower._products
        out: dict[int, Scalar] = {}
        get = out.get
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                entry = products.get(ka + kb)
                if entry is None:
                    entry = tower._product(ka + kb)
                if entry:  # empty above the dimension or by a level's relation
                    c = ca * cb
                    for k, t in entry:
                        out[k] = get(k, 0) + c * t
        return ChowClass(tower, accumulate({}, out))

    def graded_part(self, m: int) -> "ChowClass":
        shift = self.tower.alphabet.shift
        return ChowClass(self.tower, {k: c for k, c in self.terms.items() if k >> shift == m})

    def is_zero(self) -> bool:
        return not self.terms

    def serialize(self) -> str:
        return serialize_keyed(self.tower.alphabet, self.terms.items())

    def __repr__(self) -> str:
        return f"ChowClass({self.serialize()!r})"


def pushforward_chow(alpha: ChowClass, n_collapse: int) -> ChowClass:
    """Push forward along the structure morphism collapsing the top n levels."""
    tower = alpha.tower
    terms = alpha.terms
    current = tower
    for _ in range(n_collapse):
        # the top exponent (a key's lowest field) at r_k is the fiber's point
        # class; the key shifted past that field, r_k degrees lower, is the
        # base key of the rest, distinct for distinct keys, so none collect
        base, r = current.base, current.ranks[-1]
        field = current.alphabet.shift - base.alphabet.shift
        low, drop = (1 << field) - 1, r << base.alphabet.shift
        terms = {(k >> field) - drop: c for k, c in terms.items() if k & low == r}
        current = base
    return ChowClass(current, terms)


class KClass:
    """A virtual integer combination of line-bundle symbols on a tower.

    KClass(tower, line_terms) takes over terms already clean: symbols of the
    tower's arity and nonzero int multiplicities."""

    __slots__ = ("tower", "line_terms")

    def __init__(self, tower: Tower, line_terms: dict[DivisorVector, int]):
        self.tower = tower
        self.line_terms = line_terms

    def _check(self, other: "KClass") -> None:
        if self.tower is not other.tower:
            raise AssertionError("classes live on different towers")

    def rank(self) -> int:
        return sum(self.line_terms.values())

    def __add__(self, other: "KClass") -> "KClass":
        self._check(other)
        return KClass(self.tower, accumulate(dict(self.line_terms), other.line_terms))

    def __sub__(self, other: "KClass") -> "KClass":
        self._check(other)
        return KClass(self.tower, accumulate(dict(self.line_terms), other.line_terms, -1))

    def scale(self, n: int) -> "KClass":
        terms = {v: n * c for v, c in self.line_terms.items()} if n else {}
        return KClass(self.tower, terms)

    def dual(self) -> "KClass":
        return KClass(
            self.tower, {tuple(-x for x in v): c for v, c in self.line_terms.items()}
        )

    def twist(self, vec: DivisorVector) -> "KClass":
        """Tensor with the line bundle of the given divisor vector."""
        return KClass(self.tower, accumulate({}, self.line_terms, 1, self.tower._arity(vec)))

    def _lambda_terms(self, n: int, s: int) -> dict[DivisorVector, int]:
        """Terms of the t^n coefficient of prod_L (1 + s L t)^(s m_L) over the
        line symbols L with multiplicity m_L: wedge^n for s = 1, Sym^n for
        s = -1.  The coefficient of L^a in one factor is s^a binom(s m_L, a),
        a polynomial in m_L, so this holds for every virtual class.  The
        product is taken one symbol at a time over the t-degrees d <= n; the
        last symbol only tops each degree up to n."""
        parts = {0: {(0,) * self.tower.n_levels: 1}}
        items = sorted(self.line_terms.items())
        for i, (vec, m) in enumerate(items):
            top = s * m if s * m >= 0 else n  # binom(s m, a) = 0 for a > s m >= 0
            out: dict[int, dict[DivisorVector, int]] = {}
            for d, terms in parts.items():
                low = n - d if i == len(items) - 1 else 0
                for a in range(low, min(n - d, top) + 1):
                    shift = tuple(a * x for x in vec) if a else None
                    accumulate(out.setdefault(d + a, {}), terms, s**a * _binomial(s * m, a), shift)
            parts = out
        return parts.get(n, {})

    def wedge(self, i: int) -> "KClass":
        """i-th exterior power."""
        return KClass(self.tower, self._lambda_terms(i, 1))

    def sym(self, a: int) -> "KClass":
        """a-th symmetric power."""
        return KClass(self.tower, self._lambda_terms(a, -1))

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

    def serialize(self) -> str:
        """Canonical text of the class in normal form, one line per basis
        symbol: the polynomial text form in l1..lK, each of weight 1."""
        alphabet = root_alphabet("l", self.tower.n_levels)
        keys = alphabet.keys
        return serialize_keyed(alphabet, [(keys[m], c) for m, c in self.normal_form().items()])

    def __repr__(self) -> str:
        return f"KClass({self.line_terms})"


def pushforward_k(f: KClass, n_collapse: int) -> KClass:
    """K-theoretic pushforward collapsing the top n levels of the tower."""
    tower = f.tower
    current = tower
    terms: dict[DivisorVector, int] = f.line_terms
    for _ in range(n_collapse):
        # L * l^a pushes to L * pi_* l^a (projection formula)
        pushed: dict[DivisorVector, int] = {}
        for vec, c in terms.items():
            accumulate(pushed, current._pushed_power(vec[-1]), c, vec[:-1])
        terms, current = pushed, current.base
    return KClass(current, terms)


def pullback_k(f: KClass, tower: Tower) -> KClass:
    k = f.tower.n_levels
    if tower.prefix(k) is not f.tower:
        raise AssertionError("source is not a prefix of the target tower")
    pad = tower.n_levels - k
    return KClass(tower, {v + (0,) * pad: c for v, c in f.line_terms.items()})


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
    """The one kind of source: r divisor cuts in an ambient tower, the tower
    itself when r = 0.  Its two maps into the ambient ring, koszul_class on K
    classes and push on Chow classes, are i_*(-|_Z), each the identity when
    there are no cuts.  Each cut has one entry per ambient level."""

    __slots__ = ("ambient", "cuts")

    def __init__(self, ambient: Tower, cuts: tuple[DivisorVector, ...]):
        super().__init__(ambient, tuple(ambient._arity(c) for c in cuts))

    @property
    def codim(self) -> int:
        return len(self.cuts)

    @property
    def dim(self) -> int:
        return self.ambient.dim - len(self.cuts)

    def push(self, alpha: ChowClass) -> ChowClass:
        """i_*(alpha|_Z) for an ambient class alpha: alpha times each cut in
        turn, alpha itself when there are none."""
        for c in self.cuts:
            alpha = alpha * self.ambient.divisor_chow(c)
        return alpha

    def koszul_class(self, f: KClass) -> KClass:
        """i_*[F|_Z]: per cut D, the Koszul resolution 0 -> O(-D) -> O -> O_D -> 0
        turns the class so far into itself minus its twist by -D; F itself
        when there are no cuts."""
        total = f
        for c in self.cuts:
            total = total - total.twist(tuple(-x for x in c))
        return total

    def normal_class(self) -> KClass:
        return KClass(self.ambient, {c: self.cuts.count(c) for c in self.cuts})

    def tangent_class(self) -> KClass:
        """The ambient tangent minus the normal class, cached per cuts."""
        key = ("tangent", self.cuts)
        if key not in self.ambient._cache:
            self.ambient._cache[key] = self.ambient.tangent_class() - self.normal_class()
        return self.ambient._cache[key]
