"""Exact Chow rings and Grothendieck groups of towers of split projective bundles.

A Tower is an iterated projective bundle over a point; level k is the
projectivization of a direct sum of line bundles whose divisor classes live on
the partial tower below.  Its Chow ring is the integer polynomial ring on the
hyperplane classes xi1..xiK modulo one relation per level (the defining
relation of a projective bundle), with monomial basis { prod xi_k^{a_k} :
0 <= a_k <= r_k }.  The K-group is free on the same exponent range in the
line classes l_k.

Conventions (validated by the binomial oracle and the twist-vanishing checks):
the bundle is the Proj of the symmetric algebra, the hyperplane class is the
first Chern class of its tautological quotient line bundle, the Chow
relation's coefficients are the Chern classes of the bundle with alternating
signs, and the K-pushforward of the a-th power of the hyperplane line bundle
is the a-th symmetric power of the defining bundle for a >= 0.  Negative
powers are rewritten through the inverse of the hyperplane class modulo the
level relation (possible because every line summand is invertible).

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
from .poly import Alphabet, GradedPolynomial

DivisorVector = tuple[int, ...]  # one integer per tower level


class Tower:
    """An iterated split projective bundle over a point."""

    def __init__(self, levels: Sequence[Sequence[DivisorVector]]):
        self.levels: tuple[tuple[DivisorVector, ...], ...] = tuple(
            tuple(tuple(int(c) for c in vec) for vec in level) for level in levels
        )
        for k, level in enumerate(self.levels):
            if not level:
                raise InputError(f"level {k + 1} has no line summands")
            for vec in level:
                if len(vec) != k:
                    raise InputError(
                        f"level {k + 1} summand {vec} must reference exactly the "
                        f"{k} earlier hyperplanes"
                    )
        self.ranks: tuple[int, ...] = tuple(len(level) - 1 for level in self.levels)
        self.dim: int = sum(self.ranks)
        self.n_levels: int = len(self.levels)
        self.alphabet = Alphabet([(f"xi{k + 1}", 1) for k in range(self.n_levels)])
        # per-level rewrite data, built bottom-up
        self._chow_rules: list[dict[tuple[int, ...], Fraction]] = []
        self._k_pos_rules: list[dict[DivisorVector, int]] = []
        self._k_neg_rules: list[dict[DivisorVector, int]] = []
        for k in range(self.n_levels):
            self._build_rules(k)
        self._cache: dict = {}

    # -- construction internals -----------------------------------------

    def _pad(self, vec: DivisorVector) -> DivisorVector:
        return vec + (0,) * (self.n_levels - len(vec))

    def _build_rules(self, k: int) -> None:
        r = self.ranks[k]
        n = self.n_levels
        summands = [self._pad(v) for v in self.levels[k]]

        # Chow: xi_k^{r+1} -> sum_j (-1)^{j+1} c_j(E_k) xi_k^{r+1-j}
        rule: dict[tuple[int, ...], Fraction] = {}
        for j in range(1, r + 2):
            cj: dict[tuple[int, ...], Fraction] = {}
            for subset in combinations(range(r + 1), j):
                term: dict[tuple[int, ...], Fraction] = {(0,) * n: Fraction(1)}
                for i in subset:
                    linear = {
                        tuple(1 if p == lev else 0 for p in range(n)): Fraction(c)
                        for lev, c in enumerate(summands[i])
                        if c
                    }
                    term = _dict_mul(term, linear)
                for mono, c in term.items():
                    cj[mono] = cj.get(mono, Fraction(0)) + c
            cj = self._chow_reduce(cj, upto=k)
            sign = 1 if j % 2 == 1 else -1
            for mono, c in cj.items():
                shifted = list(mono)
                shifted[k] += r + 1 - j
                key = tuple(shifted)
                rule[key] = rule.get(key, Fraction(0)) + sign * c
        self._chow_rules.append({m: c for m, c in rule.items() if c})

        # K: elementary symmetric sums of the line classes l^{v_i}
        e_tables: list[dict[DivisorVector, int]] = []
        for j in range(r + 2):
            ej: dict[DivisorVector, int] = {}
            for subset in combinations(range(r + 1), j):
                vec = tuple(sum(col) for col in zip(*(summands[i] for i in subset))) if subset else (0,) * n
                ej[vec] = ej.get(vec, 0) + 1
            e_tables.append(ej)
        pos: dict[DivisorVector, int] = {}
        for j in range(1, r + 2):
            sign = 1 if j % 2 == 1 else -1
            for vec, c in e_tables[j].items():
                key = tuple(v + ((r + 1 - j) if p == k else 0) for p, v in enumerate(vec))
                pos[key] = pos.get(key, 0) + sign * c
        self._k_pos_rules.append({m: c for m, c in pos.items() if c})

        det = tuple(sum(col) for col in zip(*summands)) if summands else (0,) * n
        neg: dict[DivisorVector, int] = {}
        for j in range(r + 1):
            sign = (-1) ** (r + j)
            for vec, c in e_tables[j].items():
                key = tuple(
                    v - det[p] + ((r - j) if p == k else 0) for p, v in enumerate(vec)
                )
                neg[key] = neg.get(key, 0) + sign * c
        self._k_neg_rules.append({m: c for m, c in neg.items() if c})

    def _chow_reduce(
        self, terms: Mapping[tuple[int, ...], Fraction], upto: int | None = None
    ) -> dict[tuple[int, ...], Fraction]:
        """Exhaustive rewrite to the monomial basis (levels above `upto` untouched)."""
        top = (self.n_levels if upto is None else upto) - 1
        out = {m: Fraction(c) for m, c in terms.items() if c}
        for k in range(top, -1, -1):
            r = self.ranks[k]
            rule = self._chow_rules[k]
            while True:
                excess = {m: c for m, c in out.items() if m[k] > r}
                if not excess:
                    break
                for m in excess:
                    del out[m]
                for m, c in excess.items():
                    base = list(m)
                    base[k] -= r + 1
                    for rm, rc in rule.items():
                        key = tuple(b + v for b, v in zip(base, rm))
                        val = out.get(key, Fraction(0)) + c * rc
                        if val:
                            out[key] = val
                        else:
                            out.pop(key, None)
        return out

    # -- public structure -------------------------------------------------

    def prefix(self, n_levels: int) -> "Tower":
        """The partial tower consisting of the first n_levels levels (cached)."""
        if not 0 <= n_levels <= self.n_levels:
            raise InputError(f"prefix {n_levels} out of range")
        if n_levels == self.n_levels:
            return self
        key = ("prefix", n_levels)
        if key not in self._cache:
            sub = Tower(self.levels[:n_levels])
            # share the whole chain so prefix-of-prefix is the same object
            for j in range(n_levels):
                sub._cache[("prefix", j)] = self.prefix(j)
            self._cache[key] = sub
        return self._cache[key]

    def zero_chow(self) -> "ChowClass":
        return ChowClass(self, {})

    def unit_chow(self) -> "ChowClass":
        return ChowClass(self, {(0,) * self.n_levels: Fraction(1)})

    def hyperplane(self, k: int) -> "ChowClass":
        """The class of the level-k hyperplane (1-based)."""
        mono = [0] * self.n_levels
        mono[k - 1] = 1
        return ChowClass(self, {tuple(mono): Fraction(1)})

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


def _dict_mul(
    a: Mapping[tuple[int, ...], Fraction], b: Mapping[tuple[int, ...], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    out: dict[tuple[int, ...], Fraction] = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return {m: c for m, c in out.items() if c}


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
        reduced = tower._chow_reduce({m: Fraction(c) for m, c in terms.items()})
        self.terms: dict[tuple[int, ...], Fraction] = reduced

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
        return ChowClass(self.tower, _dict_mul(self.terms, other.terms))

    def power(self, k: int) -> "ChowClass":
        out = self.tower.unit_chow()
        for _ in range(k):
            out = out * self
        return out

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
                nxt[mono[:k]] = nxt.get(mono[:k], Fraction(0)) + c
        current = current.prefix(k)
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

    def wedge(self, i: int) -> "KClass":
        """i-th exterior power of an effective class (multiset semantics)."""
        symbols = self._effective_symbols()
        if i < 0:
            raise InputError("wedge index must be >= 0")
        out: dict[DivisorVector, int] = {}
        for subset in combinations(symbols, i):
            key = tuple(sum(col) for col in zip(*subset)) if subset else (0,) * self.tower.n_levels
            out[key] = out.get(key, 0) + 1
        return KClass(self.tower, out)

    def sym(self, a: int) -> "KClass":
        """a-th symmetric power of an effective class."""
        symbols = self._effective_symbols()
        if a < 0:
            raise InputError("sym index must be >= 0")
        out: dict[DivisorVector, int] = {}
        for multiset in combinations_with_replacement(symbols, a):
            key = tuple(sum(col) for col in zip(*multiset)) if multiset else (0,) * self.tower.n_levels
            out[key] = out.get(key, 0) + 1
        return KClass(self.tower, out)

    def total_chern(self) -> ChowClass:
        """prod (1 + [D])^multiplicity, exactly expanded (inverses for virtual parts)."""
        tower = self.tower
        total = tower.unit_chow()
        for vec, mult in sorted(self.line_terms.items()):
            d = tower.divisor_chow(vec)
            if mult >= 0:
                total = total * (tower.unit_chow() + d).power(mult)
            else:
                inv = _chow_inverse(tower.unit_chow() + d)
                total = total * inv.power(-mult)
        return total

    def normal_form(self) -> dict[DivisorVector, int]:
        """Coordinates in the monomial basis of the K-group (exponents in [0, r_k])."""
        terms: dict[DivisorVector, Fraction] = {
            v: Fraction(c) for v, c in self.line_terms.items()
        }
        for k in range(self.tower.n_levels - 1, -1, -1):
            terms = _k_reduce_level(self.tower, terms, k)
        out: dict[DivisorVector, int] = {}
        for v, c in terms.items():
            if c:
                if c.denominator != 1:
                    raise AssertionError("K normal form produced a non-integer")
                out[v] = int(c)
        return out

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
        """Canonical text of the class in normal form, one line per basis symbol."""
        lines = []
        for vec, mult in sorted(self.normal_form().items(), key=lambda kv: (sum(kv[0]), kv[0])):
            body = " ".join(f"l{k + 1}^{e}" for k, e in enumerate(vec) if e)
            lines.append(f"{mult}/1" + (f" {body}" if body else ""))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"KClass({self.line_terms})"


def _chow_inverse(alpha: ChowClass) -> ChowClass:
    """Inverse of 1 + nilpotent in the Chow ring: 1 - n + n^2 - ..."""
    unit = alpha.tower.unit_chow()
    nil = alpha - unit
    total = unit
    power = unit
    sign = -1
    for _ in range(alpha.tower.dim):
        power = power * nil
        if power.is_zero():
            break
        total = total + power.scale(sign)
        sign = -sign
    return total


def _k_reduce_level(
    tower: Tower, terms: dict[DivisorVector, Fraction], k: int
) -> dict[DivisorVector, Fraction]:
    r = tower.ranks[k]
    pos = tower._k_pos_rules[k]
    neg = tower._k_neg_rules[k]
    out = dict(terms)
    while True:
        bad = [(v, c) for v, c in out.items() if v[k] > r or v[k] < 0]
        if not bad:
            return out
        for v, _ in bad:
            del out[v]
        for v, c in bad:
            if v[k] > r:
                base = tuple(x - (r + 1) if p == k else x for p, x in enumerate(v))
                rule = pos
            else:
                base = tuple(x + 1 if p == k else x for p, x in enumerate(v))
                rule = neg
            for rv, rc in rule.items():
                key = tuple(b + x for b, x in zip(base, rv))
                val = out.get(key, Fraction(0)) + c * rc
                if val:
                    out[key] = val
                else:
                    out.pop(key, None)


def _top_band_representation(
    tower: Tower, terms: dict[DivisorVector, int]
) -> dict[DivisorVector, Fraction]:
    """Rewrite only the top level's exponents into [0, r_top]."""
    return _k_reduce_level(
        tower, {v: Fraction(c) for v, c in terms.items()}, tower.n_levels - 1
    )


def pushforward_k(f: KClass, n_collapse: int = 1) -> KClass:
    """K-theoretic pushforward collapsing the top n levels of the tower."""
    tower = f.tower
    if not 0 <= n_collapse <= tower.n_levels:
        raise InputError("cannot collapse more levels than the tower has")
    current = tower
    terms: dict[DivisorVector, int] = dict(f.line_terms)
    for _ in range(n_collapse):
        k = current.n_levels - 1
        banded = _top_band_representation(current, terms)
        summands = [current._pad(v)[:k] for v in current.levels[k]]
        nxt: dict[DivisorVector, int] = {}
        for vec, c in banded.items():
            if c.denominator != 1:
                raise AssertionError("non-integer multiplicity in K pushforward")
            a = vec[k]
            base = vec[:k]
            for multiset in combinations_with_replacement(summands, a):
                key = tuple(
                    b + sum(col) for b, col in zip(base, zip(*multiset))
                ) if multiset else base
                nxt[key] = nxt.get(key, 0) + int(c)
        current = current.prefix(k)
        terms = {v: c for v, c in nxt.items() if c}
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
