"""Sparse graded polynomials with exact coefficients, with symmetric reduction.

A GradedPolynomial is a sparse map from exponent vectors to exact scalars over
a weighted Alphabet, carrying a hard truncation bound: terms of weighted degree
above the bound are identically discarded, and all arithmetic agrees with
untruncated arithmetic in degrees <= the bound.  Polynomials combine (sums,
products, a substitution and its images) only at one bound, which they all
carry; with_bound raises a bound, and no operation lowers one.

A stored coefficient is never zero and never a float: it is an int when it is
integral and a Fraction otherwise, so the integral numerators the theory
predicts are computed in int arithmetic.  accumulate (out += c * terms, each
key optionally shifted by a monomial) is the one kernel that adds exact term
maps under that rule, whatever their keys.  The sums of polynomials and the
symmetric elimination here go through it, and so do the Chow and K classes
of grrcheck.geometry (sums, scalings, products, rewrites, twists and the
K-pushforward); the Chow classes store their terms under the same packed
keys as a GradedPolynomial.  Only the product and times_one_minus keep their own
accumulation and normalise once at the end.

Alphabet(...) returns one interned instance per variable list, and each
Alphabet packs every exponent tuple it meets into an int once, in a memo
from tuples to keys: the weighted degree in the top field, then 16 bits per
exponent in alphabet order (after Monagan and Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007).  Int
order is (degree, exponent tuple) order, the degree is key >> shift, and the
key of a product of monomials is the sum of their keys.  Packed keys are the
stored form of a GradedPolynomial: its terms are {packed key: coefficient},
and every ring operation (sums, scalings, products, graded parts,
equality, the canonical text) reads and writes keys without packing
or unpacking.  A key is unpacked where it is read (Alphabet.monomial, one
struct unpack) and nothing stores the reverse map: the readers that come
back to a key keep what they made of it, in the monomial texts, the product
memo of grrcheck.geometry and the map keyed by exponent tuples, .terms,
unpacked on its first read for the callers that walk exponents.  embed moves
whole blocks of exponent fields.  Every exponent stays below half its
16-bit field: the constructor checks each tuple it packs, and a key made by
adding keys is tested against the alphabet's mask of those top bits, so no
sum of two stored keys ever carries.  The product groups the right factor's
terms by degree, ascending, and meets each left term only with the groups
that fit under the bound.  times_one_minus multiplies by factors
(1 - s)^{+-1}, s a sum of weight-1 variables, on slices of one degree each:
a variable's key moves a slice up one degree, so each factor is one in-place
pass of key additions.  Results of the ring operations are built by
GradedPolynomial._normal from packed terms already clean; the public
constructor checks and normalises arbitrary input keyed by tuples.

Canonical text serialization (bit-exact, used for golden files): one term per
line, ``<num>/<den> <var>^<exp> ...`` with variables in alphabet order and
exponents always written; terms sorted ascending by (weighted degree, exponent
vector), which is packed-key order.  The zero polynomial serializes to the
empty string.  serialize_keyed writes it from packed terms, for a
polynomial, a Chow class of grrcheck.geometry and the packed normal form of
a K class alike, from monomial texts each Alphabet keeps.

horner_scheme nests a map {exponent tuple: ring element} by variable so
that horner_eval evaluates it with one product per exponent step (Pena and
Sauer, "On the multivariate Horner scheme", 2000); it is the one evaluator
of universal polynomials at multi-term images.  GradedPolynomial.substitute
(formal root rings) folds every image of at most one term into the packed
keys and coefficients of the terms, with the product rule for keys and the
exponent-range guard of the product, and walks one scheme in the other
images.  The other caller, grrcheck.grr.evaluate_universal, fills its own
schemes.

The symmetric-function reduction implements the classical fundamental-theorem
algorithm (lexicographic leading-term elimination).  Internally symmetric
polynomials are stored per orbit, i.e. in the monomial-symmetric basis indexed
by partitions; that is a representation choice only, the elimination order and
certificates are the classical ones.  The coefficient of m_lambda in a product
e_eta of elementary functions counts the 0-1 matrices with row sums eta and
column sums lambda (Macdonald, Symmetric Functions, I.6), and every lambda has
at most |eta| parts; so all root counts n >= |eta| share one expansion, and a
smaller n keeps only the lambda of length <= n.  Each expansion multiplies in
its last factor e_a forward: every term of the expansion without it is raised
at a distinct entries, and those raisings depend on the term, a and the root
count alone, so _RAISINGS builds them once as a tuple of places in the
lex-descending list of partitions, where the sums are kept.  The elimination takes
its leading orbits in turn from the lex-descending list of partitions.  The
change of basis between the e-products and the orbits is integral and
unitriangular, so an orbit with integer coefficients (orbit_from_product
clears the per-root series' denominators once, and grrcheck.series scales by
the class denominator) eliminates entirely in int arithmetic, and one that is
not integral leaves a Fraction in the result.

Polynomials are immutable after construction (the tuple view is written
once, on its first read) and may share their term dicts;
the expansion and raising memo tables, the key memo (tuple -> key), the
monomial texts and the alphabet table are insert-only maps of immutable
values (safe to share across threads in CPython, or keep per task).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import groupby
from math import comb, lcm
from operator import add, mul, or_
from struct import Struct
from typing import Any, Iterable, Mapping, Sequence

from .arith import InputError

Monomial = tuple[int, ...]
Partition = tuple[int, ...]  # weakly decreasing positive integers

Scalar = int | Fraction


def _exact(c: Scalar) -> Scalar:
    """An integral Fraction as an int; any other scalar unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _scalar(c) -> Scalar:
    """Any exact number as a stored coefficient: int when integral, else Fraction."""
    return c if type(c) is int else _exact(Fraction(c))


def accumulate(
    out: dict[Monomial, Scalar],
    terms: Mapping[Monomial, Scalar],
    c: Scalar = 1,
    shift: Monomial | None = None,
) -> dict[Monomial, Scalar]:
    """out += c * terms in place, each key of terms moved by + shift when one
    is given; returns out.  A sum that cancels is dropped and an integral
    value is stored as an int.  This is the one accumulation of exact term
    maps: GradedPolynomial sums, the symmetric elimination, and the sums,
    products, rewrites and pushforwards of the Chow and K classes of
    grrcheck.geometry."""
    items = terms.items()
    if shift is not None:
        items = [(tuple(map(add, m, shift)), t) for m, t in items]
    get, unit = out.get, c == 1
    for m, t in items:
        v = get(m, 0) + (t if unit else c * t)
        if v:
            out[m] = v if type(v) is int else _exact(v)
        else:
            out.pop(m, None)
    return out


# An exponent takes 16 bits of a packed key and stays below half of that, so
# the sum of two keys never carries into the next exponent.
_HALF = 1 << 15


def _check_packable(mono: Monomial) -> None:
    if mono and not 0 <= min(mono) <= max(mono) < _HALF:
        raise AssertionError(f"exponent of {mono} outside the packed range [0, {_HALF})")


class _Keys(dict):
    """Exponent tuple -> packed key for one weight vector, each packed once:
    the degree, then exponent 0, 1, ... 16 bits each, so keys compare as
    (degree, exponent tuple) and the degree is key >> shift.  unpack reads a
    key's exponent tuple back from its fields and stores nothing.  .overflow
    has bit 15 of every exponent field set: a key made by adding keys has an
    exponent out of the packed range exactly when it meets that mask."""

    __slots__ = ("weights", "shift", "fields", "size", "mask", "overflow")

    def __init__(self, weights: tuple[int, ...]):
        super().__init__()
        self.weights, self.shift = weights, 16 * len(weights)
        self.fields, self.size = Struct(f">{len(weights)}H"), 2 * len(weights)
        self.mask = (1 << self.shift) - 1
        self.overflow = sum(_HALF << 16 * i for i in range(len(weights)))

    def __missing__(self, mono: Monomial) -> int:
        _check_packable(mono)
        degree = sum(map(mul, mono, self.weights))
        key = self[mono] = degree << self.shift | int.from_bytes(self.fields.pack(*mono), "big")
        return key

    def unpack(self, key: int) -> Monomial:
        """The exponent tuple of a packed key (a sum of keys too), not stored."""
        return self.fields.unpack((key & self.mask).to_bytes(self.size, "big"))

    def check(self, keys: Iterable[int]) -> None:
        """The guard on keys made by adding keys: every exponent stays below
        half its field, so the next sum cannot carry either."""
        if reduce(or_, keys, 0) & self.overflow:
            raise AssertionError(f"an exponent of a product outside the packed range [0, {_HALF})")


# variable list -> its one Alphabet
_ALPHABETS: dict[tuple[tuple[str, int], ...], "Alphabet"] = {}


class Alphabet:
    """Ordered list of uniquely named variables with non-negative integer
    weights.  There is one instance per list: Alphabet(...) returns it, so its
    key memo (tuple -> key) and monomial texts stay warm for every polynomial
    over the list, and alphabets are equal exactly when they are the same
    object.  monomial(key) unpacks a key on each read and stores nothing."""

    __slots__ = ("variables", "weights", "shift", "keys", "monomial", "texts", "_index", "_names")

    def __new__(cls, variables: Iterable[tuple[str, int]]) -> "Alphabet":
        variables = tuple((str(n), int(w)) for n, w in variables)
        got = _ALPHABETS.get(variables)
        if got is not None:
            return got
        names = tuple(n for n, _ in variables)
        if len(set(names)) != len(names):
            raise AssertionError(f"duplicate variable names in alphabet: {list(names)}")
        if any(w < 0 for _, w in variables):
            raise AssertionError("variable weights must be >= 0")
        self = object.__new__(cls)
        self.variables, self._names = variables, names
        self.weights = tuple(w for _, w in variables)
        self._index = {n: i for i, n in enumerate(names)}
        self.keys = _Keys(self.weights)
        self.shift, self.monomial = self.keys.shift, self.keys.unpack
        self.texts: dict[int, str] = {}  # packed key -> factor text, see serialize_keyed
        return _ALPHABETS.setdefault(variables, self)

    def index(self, name: str) -> int:
        return self._index[name]

    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self) -> int:
        return len(self.variables)

    def __repr__(self) -> str:
        return "Alphabet(" + ", ".join(f"{n}:{w}" for n, w in self.variables) + ")"


def weighted_alphabet(prefix: str, count: int) -> Alphabet:
    """Variables prefix1..prefixN with weights 1, 2, ..., N."""
    return Alphabet([(f"{prefix}{i}", i) for i in range(1, count + 1)])


def root_alphabet(prefix: str, count: int) -> Alphabet:
    """count weight-1 root variables prefix1..prefixN."""
    return Alphabet([(f"{prefix}{i}", 1) for i in range(1, count + 1)])


def join_alphabets(*parts: Alphabet) -> Alphabet:
    vars_: list[tuple[str, int]] = []
    for a in parts:
        vars_.extend(a.variables)
    return Alphabet(vars_)


class GradedPolynomial:
    """Terms are stored as {packed key: coefficient} over the alphabet's key
    memo; .terms, the map keyed by exponent tuples, is unpacked on its first
    read and kept."""

    __slots__ = ("alphabet", "truncation", "packed", "_terms")

    def __init__(
        self,
        alphabet: Alphabet,
        truncation: int,
        terms: Mapping[Monomial, Scalar] | None = None,
    ):
        if truncation < 0:
            raise AssertionError("truncation bound must be >= 0")
        self.alphabet = alphabet
        self.truncation = truncation
        self._terms = None
        clean: dict[int, Scalar] = {}
        if terms:
            keys, limit = alphabet.keys, (truncation + 1) << alphabet.shift
            nvars = len(alphabet.weights)
            for mono, coeff in terms.items():
                if len(mono) != nvars:
                    raise AssertionError(f"monomial {mono} has wrong arity for {alphabet!r}")
                c = _scalar(coeff)
                if c and keys[mono] < limit:
                    clean[keys[mono]] = c
        self.packed = clean

    @classmethod
    def _normal(
        cls, alphabet: Alphabet, truncation: int, packed: dict[int, Scalar]
    ) -> "GradedPolynomial":
        """The polynomial with the given packed terms, already clean: in the
        bound, non-zero and normalised.  The dict is taken over, not copied."""
        p = object.__new__(cls)
        p.alphabet = alphabet
        p.truncation = truncation
        p.packed = packed
        p._terms = None
        return p

    @property
    def terms(self) -> dict[Monomial, Scalar]:
        """{exponent tuple: coefficient}, for the callers that walk exponents."""
        if self._terms is None:
            monomial = self.alphabet.monomial
            self._terms = {monomial(k): c for k, c in self.packed.items()}
        return self._terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, alphabet: Alphabet, truncation: int) -> "GradedPolynomial":
        return cls(alphabet, truncation)

    @classmethod
    def constant(cls, alphabet: Alphabet, truncation: int, value: Scalar) -> "GradedPolynomial":
        return cls(alphabet, truncation, {(0,) * len(alphabet): value})

    @classmethod
    def variable(cls, alphabet: Alphabet, truncation: int, name: str) -> "GradedPolynomial":
        mono = [0] * len(alphabet)
        mono[alphabet.index(name)] = 1
        return cls(alphabet, truncation, {tuple(mono): 1})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.packed.values())

    def coefficient(self, **exps: int) -> Scalar:
        """Coefficient of the monomial given by keyword exponents (others 0)."""
        mono = [0] * len(self.alphabet)
        for name, e in exps.items():
            mono[self.alphabet.index(name)] = e
        return self.packed.get(self.alphabet.keys[tuple(mono)], 0)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        monomial = self.alphabet.monomial
        return [(monomial(k), c) for k, c in sorted(self.packed.items())]

    def __eq__(self, other: object) -> bool:
        """Equality of alphabet and terms (truncation bound not compared)."""
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return self.alphabet is other.alphabet and self.packed == other.packed

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "GradedPolynomial") -> int:
        """The one bound of two polynomials over the same alphabet."""
        if self.alphabet is not other.alphabet:
            raise AssertionError("alphabet mismatch")
        if self.truncation != other.truncation:
            raise AssertionError(f"bound mismatch: {self.truncation} and {other.truncation}")
        return self.truncation

    def _linear(self, other: "GradedPolynomial", sign: int) -> "GradedPolynomial":
        """self + sign * other."""
        bound = self._check_compatible(other)
        out = accumulate(dict(self.packed), other.packed, sign)
        return GradedPolynomial._normal(self.alphabet, bound, out)

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self._linear(other, 1)

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self._linear(other, -1)

    def __neg__(self) -> "GradedPolynomial":
        return self.scale(-1)

    def scale(self, r: Scalar) -> "GradedPolynomial":
        r = _scalar(r)
        packed = {k: _exact(c * r) for k, c in self.packed.items()} if r else {}
        return GradedPolynomial._normal(self.alphabet, self.truncation, packed)

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        """Product at the operands' one bound: the key of a product of
        monomials is the sum of their keys.  other's terms are grouped by
        degree, ascending, so each term of self meets only the groups that
        fit under the bound."""
        bound = self._check_compatible(other)
        alphabet = self.alphabet
        shift = alphabet.shift
        groups: dict[int, list[tuple[int, Scalar]]] = {}
        for kb, cb in other.packed.items():
            groups.setdefault(kb >> shift, []).append((kb, cb))
        buckets = sorted(groups.items())
        out: dict[int, Scalar] = {}
        get = out.get
        for ka, ca in self.packed.items():
            room = bound - (ka >> shift)
            for db, group in buckets:
                if db > room:
                    break
                for kb, cb in group:
                    k = ka + kb
                    out[k] = get(k, 0) + ca * cb
        alphabet.keys.check(out)
        packed = {k: c if type(c) is int else _exact(c) for k, c in out.items() if c}
        return GradedPolynomial._normal(alphabet, bound, packed)

    def times_one_minus(self, factors: Iterable[tuple[Sequence[str], int]]) -> "GradedPolynomial":
        """self * prod (1 - sum_{v in S} v)^e over the (S, e) factors, each S a
        set of weight-1 variables and e = 1 or -1, on per-degree slices of
        packed keys: y_d -= sum_S v*y_{d-1} top down for e = 1, and y_d +=
        sum_S v*y_{d-1} bottom up for e = -1 (the quotient y is self + s*y).
        An exponent of a weight-1 variable is at most the bound, so only a
        bound past the packed range needs the guard, on each slice it fills."""
        alphabet, bound, n = self.alphabet, self.truncation, len(self.alphabet)
        keys, shift = alphabet.keys, alphabet.shift
        parts: list[dict[int, Scalar]] = [{} for _ in range(bound + 1)]
        for k, c in self.packed.items():
            parts[k >> shift][k] = c
        for names, e in factors:
            steps = [keys[tuple(int(j == i) for j in range(n))] for i in map(alphabet.index, names)]
            if e not in (1, -1) or any(step >> shift != 1 for step in steps):  # degree = weight
                raise AssertionError(f"factor {names}, {e}: not weight-1 variables with e = +-1")
            for d in range(bound, 0, -1) if e == 1 else range(1, bound + 1):
                part, below = parts[d], parts[d - 1].items()
                for step in steps:
                    for k, c in below:
                        k += step
                        v = part.get(k, 0) - e * c
                        if v:
                            part[k] = v
                        else:
                            del part[k]
                if bound >= _HALF:
                    keys.check(part)
        packed = {k: _exact(c) for part in parts for k, c in part.items()}
        return GradedPolynomial._normal(alphabet, bound, packed)

    def graded_part(self, m: int) -> "GradedPolynomial":
        shift = self.alphabet.shift
        low, high = m << shift, (m + 1) << shift
        packed = {k: c for k, c in self.packed.items() if low <= k < high}
        return GradedPolynomial._normal(self.alphabet, self.truncation, packed)

    def with_bound(self, bound: int) -> "GradedPolynomial":
        """The same terms under a bound no lower than self's: a claim by the
        caller that the polynomial is exact, not a truncated series.  The copy
        shares the terms and, once built, the tuple view."""
        if bound < self.truncation:
            raise AssertionError(f"with_bound would lower the bound {self.truncation} to {bound}")
        p = GradedPolynomial._normal(self.alphabet, bound, self.packed)
        p._terms = self._terms
        return p

    # -- structure maps -------------------------------------------------

    def substitute(
        self, images: Mapping[str, "GradedPolynomial | Scalar"], target: Alphabet
    ) -> "GradedPolynomial":
        """Substitute variables by polynomials (or scalars) over a target alphabet,
        at self's bound.

        Unmapped variables must exist by name in the target alphabet and map to
        themselves.  Every polynomial image carries self's bound, and so does
        the result; a caller that wants a larger bound raises self's first,
        with with_bound.

        An image of at most one term in the bound (a scalar, zero, a
        constant, every unmapped variable) is folded into each term: the
        coefficient times value**e, the packed key plus e times the image's
        key, a term past the bound dropped, and the folded keys tested by
        the product's guard (a fold that could carry past it is refused).
        The terms left are grouped by the exponents of the other images, and
        one horner_scheme in those is walked over the common denominator.
        """
        polys = [img for img in images.values() if isinstance(img, GradedPolynomial)]
        bound = self.truncation
        if any(p.alphabet is not target for p in polys):
            raise AssertionError("substitution images live in different alphabets")
        if any(p.truncation != bound for p in polys):
            raise AssertionError(f"substitution images not at the bound {bound}")
        terms, names = self.terms, self.alphabet.names()
        tops = [max(column) for column in zip(*terms)] if terms else [0] * len(names)
        limit, grouped = (bound + 1) << target.shift, {}
        fold_keys, scalars, walked, values = [0] * len(names), [], [], []
        reach = [0] * len(target)  # per target field, the largest folded exponent
        for pos, name in enumerate(names):
            img = images[name] if name in images else GradedPolynomial.variable(target, bound, name)
            if isinstance(img, GradedPolynomial):
                if len(img.packed) > 1:
                    walked.append(pos)
                    values.append(img)
                    continue
                fold_keys[pos], img = next(iter(img.packed.items()), (0, 0))
                exps = target.monomial(fold_keys[pos])
                reach = [r + tops[pos] * e for r, e in zip(reach, exps)]
            img = _scalar(img)
            if not img:  # a zero image sends every term it divides past the bound
                fold_keys[pos] = limit
            elif img != 1:
                scalars.append((pos, img))
        # each field of a folded key is at most its reach, so below 2^16 no
        # field carries and the mask guard of the product sees every overflow
        if max(reach, default=0) >= 2 * _HALF:
            raise AssertionError(f"folded exponents may leave the packed range [0, {_HALF})")
        for mono, c in terms.items():
            key = sum(map(mul, mono, fold_keys))
            if key < limit:
                for pos, value in scalars:
                    if mono[pos]:
                        c *= value ** mono[pos]
                if c:
                    part = grouped.setdefault(tuple(mono[pos] for pos in walked), {})
                    part[key] = part.get(key, 0) + c
        target.keys.check(key for part in grouped.values() for key in part)
        if not grouped:
            return GradedPolynomial.zero(target, bound)
        den = lcm(*(c.denominator for part in grouped.values() for c in part.values()))
        for e, part in grouped.items():  # the walk multiplies ints; den is divided out last
            packed = {k: _exact(c * den) for k, c in part.items() if c}
            grouped[e] = GradedPolynomial._normal(target, bound, packed)
        value = horner_eval(horner_scheme(grouped), values)
        return value if den == 1 else value.scale(Fraction(1, den))

    def embed(self, target: Alphabet) -> "GradedPolynomial":
        """Reinterpret over a larger alphabet containing all current names
        (same weights).  The degree stays, so each run of variables that
        stays adjacent moves its exponent fields as one block of bits."""
        if target is self.alphabet:
            return self
        n, runs = len(self.alphabet), []  # [source offset, fields, target offset]
        for i, (name, w) in enumerate(self.alphabet.variables):
            j = target.index(name)
            if target.weights[j] != w:
                raise AssertionError(f"weight mismatch embedding {name}")
            low, high = 16 * (n - 1 - i), 16 * (len(target) - 1 - j)
            if runs and runs[-1][2] == high + 16:
                runs[-1] = [low, runs[-1][1] + 1, high]
            else:
                runs.append([low, 1, high])
        moves = [(low, (1 << 16 * fields) - 1, high) for low, fields, high in runs]
        shift, out = self.alphabet.shift, {}
        for k, c in self.packed.items():
            new = k >> shift << target.shift
            for low, mask, high in moves:
                new |= (k >> low & mask) << high
            out[new] = c
        return GradedPolynomial._normal(target, self.truncation, out)

    # -- text forms ------------------------------------------------------

    def serialize(self) -> str:
        return serialize_keyed(self.alphabet, self.packed.items())

    def pretty(self) -> str:
        """Human-oriented single-line rendering, e.g. ``c1^2 + c2``."""
        if not self.packed:
            return "0"
        names = self.alphabet.names()
        chunks: list[str] = []
        for mono, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if not chunks:
                chunks.append(piece if coeff > 0 else f"-{piece}")
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + piece)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"GradedPolynomial({self.pretty()})"


def serialize_keyed(alphabet: Alphabet, items: Iterable[tuple[int, Scalar]]) -> str:
    """The canonical text of (packed key, coefficient) pairs with distinct
    keys, in packed-key order: per term "<num>/<den>" and the monomial's
    factor text, one " <var>^<exp>" per nonzero exponent, built once per
    alphabet.  A coefficient past Python's int-digit limit is an InputError."""
    texts, lines = alphabet.texts, []
    try:
        for key, c in sorted(items):  # keys are distinct
            if key not in texts:
                exponents = zip(alphabet.names(), alphabet.monomial(key))
                texts[key] = "".join([f" {n}^{e}" for n, e in exponents if e])
            lines.append(f"{c.numerator}/{c.denominator}{texts[key]}")
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise InputError(f"class text exceeds the {limit}-digit limit of decimal text") from None
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the Horner scheme
# ---------------------------------------------------------------------------


def horner_scheme(grouped: Mapping[Monomial, Any]) -> Any:
    """Nest a nonempty map {exponent tuple: coefficient} as a Horner scheme:
    the coefficient itself for the empty tuple, otherwise the pairs
    (step, scheme of the rest) for the exponents e of the first variable,
    descending, where step is e minus the next lower exponent (or 0) (Pena
    and Sauer, "On the multivariate Horner scheme", 2000)."""
    if () in grouped:
        return grouped[()]
    rest: dict[int, dict[Monomial, Any]] = {}
    for mono, coeff in grouped.items():
        rest.setdefault(mono[0], {})[mono[1:]] = coeff
    exps = sorted(rest, reverse=True)
    return tuple((e - low, horner_scheme(rest[e])) for e, low in zip(exps, exps[1:] + [0]))


def horner_eval(scheme: Any, values: Sequence[Any]) -> Any:
    """A horner_scheme at one ring element per variable: each pair adds its
    inner value and multiplies by the variable step times, so one product
    per exponent step of each variable, and no powers, monomials or lists."""
    if not values:
        return scheme
    x, values = values[0], values[1:]
    acc = None
    for step, inner in scheme:
        value = horner_eval(inner, values) if values else inner
        acc = value if acc is None else acc + value
        for _ in range(step):
            acc = acc * x
    return acc


# ---------------------------------------------------------------------------
# partitions and the monomial-symmetric (orbit) machinery
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int, max_len: int) -> tuple[Partition, ...]:
    """All partitions of n >= 0 with bounded part size and length, lex-descending."""
    if n == 0:
        return ((),)
    if max_len == 0 or max_part == 0:
        return ()
    out: list[Partition] = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first, max_len - 1):
            out.append((first, *rest))
    return tuple(out)


@lru_cache(maxsize=None)
def conjugate_partition(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


@lru_cache(maxsize=None)
def _places(d: int, n_roots: int) -> dict[Partition, int]:
    """Each partition of d with at most n_roots parts -> its place in the
    lex-descending partitions(d, d, n_roots)."""
    return {lam: j for j, lam in enumerate(partitions(d, d, n_roots))}


def _raisings(sigma: Partition, a: int, n_roots: int) -> tuple[tuple[int, int], ...]:
    """Every partition gamma reached by raising a distinct entries of sigma,
    padded with zeros to n_roots entries, by one, as its place in
    partitions(|gamma|, |gamma|, n_roots), with its backward multiplicity:
    the number of a-sets of its entries whose lowering gives back sigma.
    multiply_by_elementary memoises the result in _RAISINGS.

    Entries are chosen per block of equal values, k of a block of cnt; a block
    of value v leaves k entries v + 1 and cnt - k entries v, so concatenating
    the blocks in order keeps the result sorted.  The k raised entries join
    the entries v + 1 that the block above kept, g in all, and lowering k of
    those g gives back the block: comb(g, k) ways.
    """
    free = min(a, n_roots - len(sigma))
    places = _places(sum(sigma) + a, n_roots)
    out: list[tuple[int, int]] = []
    states: list[tuple[Partition, int, int, int]] = [((), 1, a, 0)]
    done, left, above = 0, len(sigma) + free, None
    for v, cnt in [(v, len(list(run))) for v, run in groupby(sigma)] + [(0, free)]:
        done += cnt
        left -= cnt
        nxt = []
        for head, mult, rem, kept in states:
            kept = kept if above == v + 1 else 0
            # at least rem - left from this block, or the later ones cannot take the rest
            for k in range(max(0, rem - left), min(cnt, rem) + 1):
                head_k = head + (v + 1,) * k + (v,) * (cnt - k) if v else head + (1,) * k
                mult_k = mult * comb(kept + k, k)
                if k == rem:  # the later blocks stay as they are
                    out.append((places[head_k + sigma[done:]], mult_k))
                else:
                    nxt.append((head_k, mult_k, rem - k, cnt - k))
        states, above = nxt, v
    return tuple(out)


def orbit_from_product(
    coeffs: Sequence[Fraction], n_roots: int, degree: int, scale: Scalar
) -> dict[Partition, Scalar]:
    """scale times the degree-`degree` part of the orbit-basis expansion of
    prod_{j=1..n_roots} f(x_j), f = sum coeffs[k] x^k: the orbit whose
    elimination is the class numerator.

    Each variable occurs in exactly one factor, so the coefficient of the
    monomial-symmetric function m_lambda is prod_i coeffs[lambda_i] times
    coeffs[0]^(n_roots - len(lambda)).  The coefficients are scaled to
    integers by their common denominator D once, so each orbit coefficient is
    an int product and one exact division by D^n_roots.
    """
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    # scale times the constant term to the power of each count of idle roots
    idle = [scale * (ints[0] if ints else 0) ** k for k in range(n_roots + 1)]
    total = den**n_roots
    out: dict[Partition, Scalar] = {}
    for lam in partitions(degree, max_part=len(ints) - 1, max_len=n_roots):
        c = idle[n_roots - len(lam)]
        for part in lam:
            c *= ints[part]
            if not c:
                break
        if c:
            out[lam] = _exact(Fraction(c, total))
    return out


# (a, n_roots) -> {sigma: its raisings}: the expansions raise the same term
# many times (6,615 term lookups of 565 entries in suite_integrality(13)
# followed by suite_series_identities(8))
_RAISINGS: dict[tuple[int, int], dict[Partition, tuple[tuple[int, int], ...]]] = {}


def multiply_by_elementary(
    f: Mapping[Partition, Scalar], a: int, n_roots: int
) -> dict[Partition, Scalar]:
    """Orbit-basis product f * e_a in n_roots variables, f of one degree.

    Uses the forward rule: each term sigma of f adds its coefficient, times
    the backward multiplicity, at every partition gamma reached by raising a
    distinct entries of sigma (padded with zeros to n_roots entries) by one.
    The raisings of each (sigma, a, n_roots) are built once, and the sums are
    kept in a list by each gamma's place in the partitions of its degree.
    The one caller passes 1 <= a <= n_roots and an expansion: orbits of at
    most n_roots parts.
    """
    if not f:
        return {}
    d = sum(next(iter(f))) + a
    targets = partitions(d, d, n_roots)
    sums = [0] * len(targets)
    table = _RAISINGS.setdefault((a, n_roots), {})
    for sigma, c in f.items():
        raisings = table.get(sigma)
        if raisings is None:
            raisings = table[sigma] = _raisings(sigma, a, n_roots)
        for j, mult in raisings:
            sums[j] += c * mult
    return {gamma: c for gamma, c in zip(targets, sums) if c}


_ELEM_EXPANSION: dict[tuple[int, tuple[int, ...]], dict[Partition, int]] = {}


def elementary_product_orbit(eta: tuple[int, ...], n_roots: int) -> dict[Partition, int]:
    """Orbit-basis expansion of the product e_{eta_1} * e_{eta_2} * ... (eta desc);
    its coefficients are positive integers.  Every root count >= |eta| gives
    the same expansion, so it is built and memoised once, at |eta|."""
    if not eta:
        return {(): 1}
    n = min(n_roots, sum(eta))
    cached = _ELEM_EXPANSION.get((n, eta))
    if cached is None:
        prev = elementary_product_orbit(eta[:-1], n)
        cached = multiply_by_elementary(prev, eta[-1], n)
        _ELEM_EXPANSION[n, eta] = cached
    return cached


def reduce_orbit_to_elementary(
    f: Mapping[Partition, Scalar], n_roots: int
) -> dict[tuple[int, ...], Scalar]:
    """Classical lex leading-term elimination on an orbit-basis symmetric polynomial.

    Returns a map from e-index multisets (desc tuples, index i meaning one
    factor e_i) to coefficients.  The leading orbits are taken per degree
    from the lex-descending list of partitions with at most n_roots parts;
    e_eta, eta the conjugate of the leading orbit lam, has leading orbit lam
    with coefficient 1 and no lex-larger orbit, so subtracting it clears lam
    and every orbit still in the work map is lex-smaller.
    """
    work = accumulate({}, f)
    out: dict[tuple[int, ...], Scalar] = {}
    for d in sorted({sum(lam) for lam in work}, reverse=True):
        for lam in partitions(d, d, n_roots):
            coeff = work.get(lam)
            if coeff is None:
                continue
            eta = conjugate_partition(lam)
            out[eta] = coeff  # lam -> eta is one to one, so each eta comes once
            accumulate(work, elementary_product_orbit(eta, n_roots), -coeff)
            if lam in work:
                raise AssertionError("elimination did not lower the leading orbit")
    if work:
        # more parts than roots, or an orbit an expansion raised above its lead
        raise AssertionError(f"orbits {sorted(work, reverse=True)} left over with {n_roots} roots")
    return out


# ---------------------------------------------------------------------------
# elementary symmetric polynomials and power sums as GradedPolynomials
# ---------------------------------------------------------------------------


def elementary_symmetric(
    alphabet: Alphabet, root_names: Sequence[str], i: int, truncation: int
) -> GradedPolynomial:
    """The i-th elementary symmetric polynomial of the named roots."""
    from itertools import combinations

    idx = [alphabet.index(n) for n in root_names]
    terms: dict[Monomial, Scalar] = {}
    n = len(alphabet)
    for subset in combinations(idx, i):
        mono = [0] * n
        for j in subset:
            mono[j] = 1
        terms[tuple(mono)] = 1
    return GradedPolynomial(alphabet, truncation, terms)


@lru_cache(maxsize=None)
def newton_power_sum(k: int) -> "GradedPolynomial":
    """The k-th power sum written in elementary symmetric variables e1..ek.

    Independent of the elimination algorithm; used as its cross-check oracle.
    """
    alph = weighted_alphabet("e", k)
    if k == 0:
        raise AssertionError("power sums start at k = 1")
    prev = [newton_power_sum(j).embed(alph).with_bound(k) for j in range(1, k)]
    total = GradedPolynomial.zero(alph, k)
    for i in range(1, k):
        ei = GradedPolynomial.variable(alph, k, f"e{i}")
        total = total + (ei * prev[k - i - 1]).scale((-1) ** (i - 1))
    ek = GradedPolynomial.variable(alph, k, f"e{k}")
    return total + ek.scale((-1) ** (k - 1) * k)


# ---------------------------------------------------------------------------
# univariate exact series inversion (a list of ints and Fractions, index = degree)
# ---------------------------------------------------------------------------


def series_invert(a: Sequence[Scalar], n: int) -> list[Scalar]:
    inv0 = Fraction(1, a[0])
    out = [inv0] + [Fraction(0)] * n
    for k in range(1, n + 1):
        s = Fraction(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * out[k - j]
        out[k] = -inv0 * s
    return out
