"""Exact Chow rings and Grothendieck groups of towers of split projective bundles.

A Tower is a base tower plus one split bundle E = L_0 + ... + L_r over it
(the point has no base); the tower is P(E) over the base.  Everything about
the new level comes from E through the projective bundle formula (Fulton,
Intersection Theory, Ch. 3): with xi the hyperplane class and l its line
bundle,

    Chow relation   sum_j (-1)^j c_j(E) xi^{r+1-j} = 0
    K relation      sum_j (-1)^j [wedge^j E] l^{r+1-j} = 0
    K pushforward   pi_* l^a = Sym^a E  for 0 <= a <= r.

So the Chow ring is the integer polynomial ring on xi1..xiK modulo one
relation per level, with monomial basis { prod xi_k^{a_k} : 0 <= a_k <= r_k },
and the K-group is free on the same exponent range in the line classes l_k.
Negative powers of l are rewritten through l^{-1}, which the K relation
gives as (det E)^{-1} times a polynomial in l, so every K class stays an
integer combination of line symbols.

Conventions (validated by the binomial oracle and the twist-vanishing checks):
the bundle is the Proj of the symmetric algebra and the hyperplane class is
the first Chern class of its tautological quotient line bundle.

Towers are immutable after build; all class operations are pure, so one tower
may be shared read-only by concurrent verification jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import prod
from typing import Mapping, Sequence

from .arith import InputError
from .poly import Alphabet, GradedPolynomial, root_alphabet

DivisorVector = tuple[int, ...]  # one integer per tower level
# One level's rewrite rules: (exponent above r_k, exponent below 0).  A rule
# maps exponent offsets to coefficients; a term m rewrites to the terms
# m + offset, so the offsets already subtract the exponent they replace.
Rule = dict[tuple[int, ...], int | Fraction]


def _padded(rule: Rule) -> Rule:
    return {m + (0,): c for m, c in rule.items()}


class Tower:
    """An iterated split projective bundle over a point: P(E) over self.base.

    E is the split bundle of the top level's line summands, a KClass on the
    base; its total Chern class gives the Chow relation, its exterior powers
    the K relation and its symmetric powers the K-pushforward images.
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
        # per level (above, below) rules; the Chow ring has no negative exponents
        self._chow_rules: list[tuple[Rule, Rule]] = []
        self._k_rules: list[tuple[Rule, Rule]] = []
        self._sym_images: tuple[dict[DivisorVector, int], ...] = ()
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
        self._k_rules = [(_padded(a), _padded(b)) for a, b in base._k_rules]

        r = self.ranks[k]
        bundle = KClass(base, {vec: top.count(vec) for vec in top})
        # xi^{r+1} -> sum_{j>=1} (-1)^{j+1} c_j(E) xi^{r+1-j}
        chow_above = {
            m + (-sum(m),): c if sum(m) % 2 else -c
            for m, c in bundle.total_chern().terms.items()
            if sum(m)
        }
        self._chow_rules.append((chow_above, {}))
        # l^{r+1} -> sum_{j>=1} (-1)^{j+1} wedge^j E l^{r+1-j}, and multiplying
        # the relation by l^{-1}: l^{-1} -> sum_{j<=r} (-1)^{r+j} wedge^j E det(E)^{-1} l^{r-j}
        wedges = [bundle.wedge(j) for j in range(r + 2)]
        (det,) = wedges[r + 1].line_terms
        k_above = {
            v + (-j,): c if j % 2 else -c
            for j in range(1, r + 2)
            for v, c in wedges[j].line_terms.items()
        }
        k_below = {
            v + (r + 1 - j,): c if (r + j) % 2 == 0 else -c
            for j in range(r + 1)
            for v, c in wedges[j].twist(tuple(-x for x in det)).line_terms.items()
        }
        self._k_rules.append((k_above, k_below))
        self._sym_images = tuple(bundle.sym(a).line_terms for a in range(r + 1))

    def _pad(self, vec: DivisorVector) -> DivisorVector:
        return vec + (0,) * (self.n_levels - len(vec))

    def _normal_form(
        self,
        terms: Mapping[tuple[int, ...], int | Fraction],
        rules: Sequence[tuple[Rule, Rule]],
        levels: Sequence[int] | None = None,
    ) -> dict[tuple[int, ...], int | Fraction]:
        """Rewrite every exponent of the given levels (default all, top first)
        into [0, r_k] with the (above, below) rules of each level."""
        out = {m: c for m, c in terms.items() if c}
        for k in reversed(range(self.n_levels)) if levels is None else levels:
            r = self.ranks[k]
            above, below = rules[k]
            while True:
                bad = [(m, c) for m, c in out.items() if not 0 <= m[k] <= r]
                if not bad:
                    break
                for m, _ in bad:
                    del out[m]
                for m, c in bad:
                    for offset, rc in (above if m[k] > r else below).items():
                        key = tuple(x + y for x, y in zip(m, offset))
                        val = out.get(key, 0) + c * rc
                        if val:
                            out[key] = val
                        else:
                            out.pop(key, None)
        return out

    # -- public structure -------------------------------------------------

    def prefix(self, n_levels: int) -> "Tower":
        """The partial tower consisting of the first n_levels levels."""
        if not 0 <= n_levels <= self.n_levels:
            raise InputError(f"prefix {n_levels} out of range")
        tower = self
        for _ in range(self.n_levels - n_levels):
            tower = tower.base
        return tower

    def zero_chow(self) -> "ChowClass":
        return ChowClass(self, {})

    def unit_chow(self) -> "ChowClass":
        return ChowClass(self, {(0,) * self.n_levels: Fraction(1)})

    def hyperplane(self, k: int) -> "ChowClass":
        """The class of the level-k hyperplane (1-based)."""
        return self.divisor_chow(tuple(int(p == k - 1) for p in range(self.n_levels)))

    def divisor_chow(self, vec: DivisorVector) -> "ChowClass":
        vec = self._pad(tuple(vec))
        out: dict[tuple[int, ...], Fraction] = {}
        for kpos, c in enumerate(vec):
            if c:
                mono = [0] * self.n_levels
                mono[kpos] = 1
                out[tuple(mono)] = Fraction(c)
        return ChowClass(self, out)

    def line(self, vec: DivisorVector) -> "KClass":
        return KClass(self, {self._pad(tuple(vec)): 1})

    def structure_sheaf(self) -> "KClass":
        return KClass(self, {(0,) * self.n_levels: 1})

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
            self._cache[key] = KClass(self, {v: c for v, c in terms.items() if c})
        return self._cache[key]

    def __repr__(self) -> str:
        sig = "; ".join(
            ",".join(str(v) for v in level) or "pt" for level in self.levels
        )
        return f"Tower(dim={self.dim}: {sig})"


def build_tower(levels: Sequence[Sequence[Sequence[int]]]) -> Tower:
    """Build a tower from per-level lists of summand coefficient vectors."""
    return Tower([[tuple(vec) for vec in level] for level in levels])


def projective_space(n: int) -> Tower:
    """The n-dimensional projective space as a one-level trivial tower."""
    if n < 0:
        raise InputError("dimension must be >= 0")
    if n == 0:
        return Tower([])
    return Tower([[()] * (n + 1)])


class ChowClass:
    """An integer (or, transiently, rational) cycle class in normal form."""

    __slots__ = ("tower", "terms")

    def __init__(self, tower: Tower, terms: Mapping[tuple[int, ...], Fraction | int]):
        self.tower = tower
        self.terms: dict[tuple[int, ...], Fraction] = tower._normal_form(
            {m: Fraction(c) for m, c in terms.items()}, tower._chow_rules
        )

    def _check(self, other: "ChowClass") -> None:
        if self.tower is not other.tower:
            raise InputError("classes live on different towers")

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return ChowClass(self.tower, out)

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) - c
        return ChowClass(self.tower, out)

    def __neg__(self) -> "ChowClass":
        return self.scale(-1)

    def scale(self, r: int | Fraction) -> "ChowClass":
        r = Fraction(r)
        return ChowClass(self.tower, {m: c * r for m, c in self.terms.items()})

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ma, mb))
                out[key] = out.get(key, 0) + ca * cb
        return ChowClass(self.tower, out)

    def graded_part(self, m: int) -> "ChowClass":
        return ChowClass(
            self.tower, {mono: c for mono, c in self.terms.items() if sum(mono) == m}
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.tower is other.tower and self.terms == other.terms

    def __hash__(self):
        raise TypeError("ChowClass is not hashable")

    def as_polynomial(self) -> GradedPolynomial:
        return GradedPolynomial(self.tower.alphabet, max(self.tower.dim, 0), self.terms)

    def serialize(self) -> str:
        return self.as_polynomial().serialize()

    def pretty(self) -> str:
        return self.as_polynomial().pretty()

    def __repr__(self) -> str:
        return f"ChowClass({self.pretty()})"


def pushforward_chow(alpha: ChowClass, n_collapse: int = 1) -> ChowClass:
    """Push forward along the structure morphism collapsing the top n levels."""
    tower = alpha.tower
    if not 0 <= n_collapse <= tower.n_levels:
        raise InputError("cannot collapse more levels than the tower has")
    terms = alpha.terms
    current = tower
    for _ in range(n_collapse):
        k = current.n_levels - 1
        r = current.ranks[k]
        nxt: dict[tuple[int, ...], Fraction] = {}
        for mono, c in terms.items():
            if mono[k] == r:
                nxt[mono[:k]] = nxt.get(mono[:k], 0) + c
        current = current.base
        terms = nxt
    return ChowClass(current, terms)


def pullback_chow(alpha: ChowClass, tower: Tower) -> ChowClass:
    """Pull back from a prefix tower (injection of the base polynomial)."""
    k = alpha.tower.n_levels
    if tower.prefix(k) is not alpha.tower and tower.prefix(k).levels != alpha.tower.levels:
        raise InputError("source is not a prefix of the target tower")
    pad = tower.n_levels - k
    return ChowClass(tower, {m + (0,) * pad: c for m, c in alpha.terms.items()})


class KClass:
    """A virtual integer combination of line-bundle symbols on a tower."""

    __slots__ = ("tower", "line_terms")

    def __init__(self, tower: Tower, line_terms: Mapping[DivisorVector, int]):
        self.tower = tower
        self.line_terms: dict[DivisorVector, int] = {
            tuple(v): int(c) for v, c in line_terms.items() if c
        }
        for vec in self.line_terms:
            if len(vec) != tower.n_levels:
                raise InputError("line symbol has wrong arity for the tower")

    def _check(self, other: "KClass") -> None:
        if self.tower is not other.tower:
            raise InputError("classes live on different towers")

    def rank(self) -> int:
        return sum(self.line_terms.values())

    def __add__(self, other: "KClass") -> "KClass":
        self._check(other)
        out = dict(self.line_terms)
        for v, c in other.line_terms.items():
            out[v] = out.get(v, 0) + c
        return KClass(self.tower, out)

    def __sub__(self, other: "KClass") -> "KClass":
        self._check(other)
        out = dict(self.line_terms)
        for v, c in other.line_terms.items():
            out[v] = out.get(v, 0) - c
        return KClass(self.tower, out)

    def __neg__(self) -> "KClass":
        return KClass(self.tower, {v: -c for v, c in self.line_terms.items()})

    def scale(self, n: int) -> "KClass":
        return KClass(self.tower, {v: n * c for v, c in self.line_terms.items()})

    def __mul__(self, other: "KClass") -> "KClass":
        self._check(other)
        out: dict[DivisorVector, int] = {}
        for va, ca in self.line_terms.items():
            for vb, cb in other.line_terms.items():
                key = tuple(x + y for x, y in zip(va, vb))
                out[key] = out.get(key, 0) + ca * cb
        return KClass(self.tower, out)

    def dual(self) -> "KClass":
        return KClass(
            self.tower, {tuple(-x for x in v): c for v, c in self.line_terms.items()}
        )

    def twist(self, vec: DivisorVector) -> "KClass":
        """Tensor with the line bundle of the given divisor vector."""
        vec = self.tower._pad(tuple(vec))
        return KClass(
            self.tower,
            {tuple(x + y for x, y in zip(v, vec)): c for v, c in self.line_terms.items()},
        )

    def _effective_symbols(self) -> list[DivisorVector]:
        symbols: list[DivisorVector] = []
        for v, c in sorted(self.line_terms.items()):
            if c < 0:
                raise InputError(
                    "wedge/sym require an effective class; "
                    f"symbol {v} has multiplicity {c}"
                )
            symbols.extend([v] * c)
        return symbols

    def _power(self, n: int, kind: str, choose) -> "KClass":
        """The n-th exterior (choose = combinations) or symmetric (choose =
        combinations_with_replacement) power of an effective class."""
        symbols = self._effective_symbols()
        if n < 0:
            raise InputError(f"{kind} index must be >= 0")
        out: dict[DivisorVector, int] = {}
        for picked in choose(symbols, n):
            key = tuple(sum(col) for col in zip(*picked)) if picked else (0,) * self.tower.n_levels
            out[key] = out.get(key, 0) + 1
        return KClass(self.tower, out)

    def wedge(self, i: int) -> "KClass":
        """i-th exterior power of an effective class (multiset semantics)."""
        return self._power(i, "wedge", combinations)

    def sym(self, a: int) -> "KClass":
        """a-th symmetric power of an effective class."""
        return self._power(a, "sym", combinations_with_replacement)

    def total_chern(self) -> ChowClass:
        """prod (1 + D)^m over the line symbols, each factor expanded as
        sum_{i<=dim} binom(m, i) D^i (exact for every sign of m, as D is
        nilpotent)."""
        tower = self.tower
        unit = tower.unit_chow()
        total = unit
        for vec, mult in sorted(self.line_terms.items()):
            d = tower.divisor_chow(vec)
            factor, power, binom = unit, unit, 1
            for i in range(1, tower.dim + 1):
                binom = binom * (mult - i + 1) // i  # exact: binom(m, i)
                if not binom:
                    break
                power = power * d
                if power.is_zero():
                    break
                factor = factor + power.scale(binom)
            total = total * factor
        return total

    def normal_form(self) -> dict[DivisorVector, int]:
        """Coordinates in the monomial basis of the K-group (exponents in [0, r_k])."""
        return self.tower._normal_form(self.line_terms, self.tower._k_rules)

    def __eq__(self, other: object) -> bool:
        """Equality as K-theory classes (compared in normal form)."""
        if not isinstance(other, KClass):
            return NotImplemented
        if self.tower is not other.tower:
            return False
        if self.line_terms == other.line_terms:
            return True
        return self.normal_form() == other.normal_form()

    def __hash__(self):
        raise TypeError("KClass is not hashable")

    def serialize(self) -> str:
        """Canonical text of the class in normal form, one line per basis
        symbol: the polynomial text form in l1..lK, each of weight 1."""
        alphabet = root_alphabet("l", self.tower.n_levels)
        return GradedPolynomial(alphabet, self.tower.dim, self.normal_form()).serialize()

    def __repr__(self) -> str:
        return f"KClass({self.line_terms})"


def pushforward_k(f: KClass, n_collapse: int = 1) -> KClass:
    """K-theoretic pushforward collapsing the top n levels of the tower."""
    tower = f.tower
    if not 0 <= n_collapse <= tower.n_levels:
        raise InputError("cannot collapse more levels than the tower has")
    current = tower
    terms: Mapping[DivisorVector, int] = f.line_terms
    for _ in range(n_collapse):
        # band the top exponent into [0, r], then l^a pushes to Sym^a E
        k = current.n_levels - 1
        banded = current._normal_form(terms, current._k_rules, levels=(k,))
        nxt: dict[DivisorVector, int] = {}
        for vec, c in banded.items():
            for image, ic in current._sym_images[vec[k]].items():
                key = tuple(b + x for b, x in zip(vec[:k], image))
                nxt[key] = nxt.get(key, 0) + c * ic
        current = current.base
        terms = nxt
    return KClass(current, terms)


def pullback_k(f: KClass, tower: Tower) -> KClass:
    k = f.tower.n_levels
    if tower.prefix(k) is not f.tower and tower.prefix(k).levels != f.tower.levels:
        raise InputError("source is not a prefix of the target tower")
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


@dataclass(frozen=True)
class VirtualCompleteIntersection:
    """r divisor cuts in an ambient tower; all computations stay in the ambient
    ring via the Koszul class, the restriction product, and virtual tangents."""

    ambient: Tower
    cuts: tuple[DivisorVector, ...]

    def __post_init__(self):
        if len(self.cuts) > self.ambient.dim:
            raise InputError("more cuts than the ambient dimension")
        object.__setattr__(
            self, "cuts", tuple(self.ambient._pad(tuple(c)) for c in self.cuts)
        )

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
        return KClass(self.ambient, terms)

    def tangent_class(self) -> KClass:
        """Virtual restriction of the ambient tangent minus the normal class."""
        return self.ambient.tangent_class() - self.normal_class()
