"""Formal power-series identities, verified coefficient by coefficient.

Each checker expands both sides of one identity as GradedPolynomials over an
explicit alphabet and returns them serialized canonically per checked degree,
with its notes where it has them.  The decorator _identity(name, instance)
registers it: the check bound to its module name, the value of
IDENTITY_CHECKS[name], returns the VerificationReport whose verdict is
byte-equality of the two sides, under the instance text IDENTITY_INSTANCES[name]
of its max degree.  Two helpers build the shared setup: _root_tables the
alphabet of the two disjoint root sets of an identity about two classes, with
the elementary classes of each set and of their union, and _divisors the
weight-1 divisors of the exponential identities, each beside its 1 - e^{-x}
(exp-flip-series builds its 1 - e^{b} from e^x, which ties that series to
e^{-x}).  A check that wants the powers of one polynomial takes them as
running products.

Identity names are content-descriptive and stable; they are the names the CLI
accepts.  Root-set sizes are chosen so the full registry stays well inside
its runtime budget while still covering every degree the acceptance suite
demands; each report records the root configuration it used.
"""

from __future__ import annotations

import itertools
from functools import wraps
from math import comb, factorial
from operator import mul

from .arith import exact_ratio, todd_denominator, todd_ratio
from .poly import (
    Alphabet,
    GradedPolynomial,
    accumulate,
    elementary_symmetric,
    join_alphabets,
    root_alphabet,
    weighted_alphabet,
)
from .report import VerificationReport
from .series import (
    apply_series,
    exp_series,
    one_minus_exp_neg_series,
    q_poly,
    tangent_alphabet,
    todd_inverse_numerator,
    todd_inverse_root_series,
    universal_chern_character,
    universal_ct,
    universal_todd,
)


Row = tuple[str, GradedPolynomial, GradedPolynomial]  # (label, lhs, rhs) of one block


# identity -> its check through a max degree, and -> the instance text of
# its report through a max degree: the check names its report by it, and so
# do the suite and the CLI when it is falsified; _identity fills both
IDENTITY_CHECKS: dict = {}
IDENTITY_INSTANCES: dict = {}


def _identity(name: str, instance):
    """Register the sides of an identity, a function of the max degree, under
    its name and instance text (a function of the max degree too): the check
    that compares them is the one object bound to the module name and held
    by IDENTITY_CHECKS."""

    def register(sides):
        @wraps(sides)
        def check(max_degree: int) -> VerificationReport:
            return VerificationReport.compare(name, instance(max_degree), *sides(max_degree))

        IDENTITY_CHECKS[name], IDENTITY_INSTANCES[name] = check, instance
        return check

    return register


def _blocks(rows: list[Row], notes: str | None = None) -> tuple[str, str, str | None]:
    """The two sides, each one "# label" block per row, and the notes."""
    lhs, rhs = ("\n".join(f"# {row[0]}\n{row[i].serialize()}" for row in rows) for i in (1, 2))
    return lhs, rhs, notes


def _substituted_chern_numerator(m: int, rank, cp_values, target, bound: int) -> GradedPolynomial:
    """s_m numerator with r -> rank and cp_i -> cp_values[i], at bound."""
    images = {"r": rank}
    for i in range(1, m + 1):
        images[f"cp{i}"] = cp_values[i]
    return universal_chern_character(m).numerator.with_bound(bound).substitute(images, target)


def _substituted_todd_numerator(m: int, c_values, target, bound: int) -> GradedPolynomial:
    images = {f"c{i}": c_values[i] for i in range(1, m + 1)}
    return universal_todd(m).numerator.with_bound(bound).substitute(images, target)


def _root_tables(cap: int, *root_sets: tuple[str, int]):
    """The alphabet of the root sets (prefix, count), in order, and the
    elementary classes e_0..e_cap of each set, then of all the roots."""
    al = join_alphabets(*(root_alphabet(prefix, count) for prefix, count in root_sets))
    sets = [[f"{prefix}{i}" for i in range(1, count + 1)] for prefix, count in root_sets]
    sets.append(al.names())
    return al, *(
        [elementary_symmetric(al, roots, i, cap) for i in range(cap + 1)] for roots in sets
    )


def _divisors(max_degree: int, *names: str):
    """The alphabet of the weight-1 divisors named, the coefficients of
    1 - e^{-x} through max_degree, and each divisor x beside its 1 - e^{-x}."""
    al = Alphabet([(name, 1) for name in names])
    coeffs = one_minus_exp_neg_series(max_degree)
    xs = (GradedPolynomial.variable(al, max_degree, name) for name in names)
    return al, coeffs, [(x, apply_series(coeffs, x)) for x in xs]


# ---------------------------------------------------------------------------
# exponential identities on one or two divisor variables
# ---------------------------------------------------------------------------


@_identity("exp-sum-product", "degrees 0..{}".format)
def check_exp_sum_product(max_degree: int) -> tuple:
    _, coeffs, ((a, big_a), (b, big_b)) = _divisors(max_degree, "a", "b")
    lhs = apply_series(coeffs, a + b)
    rhs = big_a + big_b - big_a * big_b
    return lhs.serialize(), rhs.serialize()


@_identity("exp-flip-series", "degrees 0..{}".format)
def check_exp_flip_series(max_degree: int) -> tuple:
    al, _, ((b, big_b),) = _divisors(max_degree, "b")
    lhs = apply_series([-c for c in exp_series(max_degree)], b) + GradedPolynomial.constant(
        al, max_degree, 1
    )  # 1 - e^{b}
    rhs = GradedPolynomial.zero(al, max_degree)
    for power in itertools.accumulate([big_b] * max_degree, mul):
        rhs = rhs - power
    return lhs.serialize(), rhs.serialize()


@_identity("exp-difference-series", "degrees 0..{}".format)
def check_exp_difference_series(max_degree: int) -> tuple:
    _, coeffs, ((a, big_a), (b, big_b)) = _divisors(max_degree, "a", "b")
    lhs = apply_series(coeffs, a - b)
    rhs = big_a - big_b
    for power in itertools.accumulate([big_b] * max_degree, mul):
        rhs = rhs + big_a * power - power * big_b
    return lhs.serialize(), rhs.serialize()


# ---------------------------------------------------------------------------
# multiplicativity / additivity of the numerator classes on split roots
# ---------------------------------------------------------------------------


def _root_configs(max_degree: int) -> list[tuple[int, int, int]]:
    """(p, q, degree cap) pairs: 3+3 roots where affordable, 2+2 beyond."""
    configs = [(3, 3, min(max_degree, 6))]
    if max_degree > 6:
        configs.append((2, 2, max_degree))
    return configs


@_identity("chern-multiplicativity", lambda _: "tensor product of split classes")
def check_chern_multiplicativity(max_degree: int) -> tuple:
    rows: list[Row] = []
    for p, q, cap in _root_configs(max_degree):
        al, c_a, c_b, _ = _root_tables(cap, ("u", p), ("v", q))
        one = GradedPolynomial.constant(al, cap, 1)
        roots = [GradedPolynomial.variable(al, cap, name) for name in al.names()]
        total = one
        for u in roots[:p]:
            for v in roots[p:]:
                total = total * (one + u + v)
        c_tensor = {i: total.graded_part(i) for i in range(1, cap + 1)}
        s_a = [_substituted_chern_numerator(i, p, c_a, al, cap) for i in range(cap + 1)]
        s_b = [_substituted_chern_numerator(i, q, c_b, al, cap) for i in range(cap + 1)]
        for m in range(1, cap + 1):
            label = f"degree {m} ({p}+{q} roots)"
            lhs_m = _substituted_chern_numerator(m, p * q, c_tensor, al, cap)
            rhs_m = GradedPolynomial.zero(al, cap)
            for i in range(m + 1):
                rhs_m = rhs_m + (s_a[i] * s_b[m - i]).scale(comb(m, i))
            rows.append((label, lhs_m, rhs_m))
    return _blocks(rows, "binomial scalars m!/(i!(m-i)!) are integers by construction")


@_identity("todd-additivity", lambda _: "direct sum of split classes")
def check_todd_additivity(max_degree: int) -> tuple:
    rows: list[Row] = []
    for p, q, cap in _root_configs(max_degree):
        al, c_a, c_b, c_all = _root_tables(cap, ("u", p), ("v", q))
        td_a = [_substituted_todd_numerator(i, c_a, al, cap) for i in range(cap + 1)]
        td_b = [_substituted_todd_numerator(i, c_b, al, cap) for i in range(cap + 1)]
        for m in range(1, cap + 1):
            label = f"degree {m} ({p}+{q} roots)"
            lhs_m = _substituted_todd_numerator(m, c_all, al, cap)
            rhs_m = GradedPolynomial.zero(al, cap)
            tm = todd_denominator(m).value
            for i in range(m + 1):
                scalar = exact_ratio(
                    tm, todd_denominator(i).value * todd_denominator(m - i).value
                )
                rhs_m = rhs_m + (td_a[i] * td_b[m - i]).scale(scalar)
            rows.append((label, lhs_m, rhs_m))
    return _blocks(rows, "scalars T_m/(T_i*T_{m-i}) asserted integral")


_WEDGE_RANKS = 6  # the largest split rank top-chern-from-wedges checks


@_identity("top-chern-from-wedges", lambda d: f"split rank g, g=1..{min(d, _WEDGE_RANKS)}")
def check_top_chern_from_wedges(max_degree: int) -> tuple:
    """s_g of the alternating sum of dual wedge powers equals g! * c_g, for
    g = 1..min(max_degree, _WEDGE_RANKS).

    The alternating sum sum_i (-1)^i [wedge^i E*] for split E of rank g has
    total Chern class prod over nonempty subsets S of the roots of
    (1 - sum_S x)^((-1)^|S|); its rank is 0.
    """
    rows: list[Row] = []
    for g in range(1, min(max_degree, _WEDGE_RANKS) + 1):
        al = root_alphabet("x", g)
        names = al.names()
        # 1 - sum_S x is the total Chern class of the line O(-sum_S x); S goes by
        # its largest root, so the running product stays in the roots met so far
        factors = [
            ((*rest, names[top]), (-1) ** (size + 1))
            for top in range(g)
            for size in range(top, -1, -1)
            for rest in itertools.combinations(names[:top], size)
        ]
        total = GradedPolynomial.constant(al, g, 1).times_one_minus(factors)
        cp_values = {i: total.graded_part(i) for i in range(1, g + 1)}
        lhs = _substituted_chern_numerator(g, 0, cp_values, al, g)
        rhs = elementary_symmetric(al, names, g, g).scale(factorial(g))
        rows.append((f"g={g}", lhs, rhs))
    return _blocks(rows, "virtual rank 0 substituted for the rank variable")


@_identity("divisor-todd-vs-ct", "degrees 1..{}".format)
def check_divisor_todd_vs_ct(max_degree: int) -> tuple:
    """(T_m/T_{m-1}) * Q_m agrees with the combined class of [O]-[O(-D)].

    The virtual class [O]-[O(-D)] has rank 0 and total Chern class
    1/(1 - x), i.e. cp_i -> x^i.
    """
    rows: list[Row] = []
    for m in range(1, max_degree + 1):
        al = join_alphabets(tangent_alphabet(m), Alphabet([("x", 1)]))
        x = GradedPolynomial.variable(al, m, "x")
        lhs = q_poly(m).numerator.embed(al).scale(todd_ratio(m, 0, m - 1))
        images: dict[str, GradedPolynomial | int] = {"r": 0}
        for i, power in enumerate(itertools.accumulate([x] * m, mul), 1):  # x^1..x^m
            images[f"cp{i}"] = power
        rhs = universal_ct(m).numerator.substitute(images, al)
        rows.append((f"degree {m}", lhs, rhs))
    return _blocks(rows, "scalars T_m/T_{m-1} asserted integral")


@_identity("todd-restriction-substitution", "degrees 0..{}".format)
def check_restriction_substitution(max_degree: int) -> tuple:
    """The degree-m part of (1-e^{-x})/x * Td turns into Td_m under
    c_i -> c_i + x*c_{i-1} (with c_0 = 1)."""
    rows: list[Row] = []
    for m in range(0, max_degree + 1):
        al = join_alphabets(tangent_alphabet(m), Alphabet([("x", 1)]))
        x = GradedPolynomial.variable(al, m, "x")
        inv = apply_series(todd_inverse_root_series(m), x)
        td_total = GradedPolynomial.constant(al, m, 1)
        for k in range(1, m + 1):
            td_total = td_total + universal_todd(k).series_part.embed(al).with_bound(m)
        mixed = (inv * td_total).graded_part(m)
        c = [GradedPolynomial.constant(al, m, 1)] + [
            GradedPolynomial.variable(al, m, f"c{i}") for i in range(1, m + 1)
        ]
        images = {f"c{i}": c[i] + x * c[i - 1] for i in range(1, m + 1)}
        lhs = mixed.substitute(images, al)
        rhs = universal_todd(m).series_part.embed(al)
        rows.append((f"degree {m}", lhs, rhs))
    return _blocks(rows)


@_identity("immersion-todd-decomposition", "ranks 1..3, degrees up to {}".format)
def check_immersion_todd_decomposition(max_degree: int) -> tuple:
    """T_m/T_{m-r} * Td-numerator of the source tangent decomposes through the
    inverse-Todd numerators of the normal class and the restricted ambient
    tangent, for split tangent (y-roots) and normal (z-roots) classes, at
    normal ranks r = 1..3."""
    rows: list[Row] = []
    for r in range(1, min(3, max_degree) + 1):
        s_roots = max(1, min(3, max_degree - r))
        cap = max_degree
        al, c_y, c_z, c_all = _root_tables(cap, ("y", s_roots), ("z", r))
        z_images = {f"c{i}": c_z[i] for i in range(1, r + 1)}
        # inv[j] is the inverse-Todd numerator of degree j + r at the z-roots
        inv = [
            todd_inverse_numerator(j + r, r).numerator.with_bound(cap).substitute(z_images, al)
            for j in range(max_degree - r + 1)
        ]
        td_all = [
            _substituted_todd_numerator(k, c_all, al, cap) for k in range(max_degree - r + 1)
        ]
        for m in range(r, max_degree + 1):
            label = f"r={r} degree {m} ({s_roots} tangent roots)"
            scalar = todd_ratio(m, 0, m - r)
            lhs = _substituted_todd_numerator(m - r, c_y, al, cap).scale(scalar)
            rhs = GradedPolynomial.zero(al, cap)
            for j in range(m - r + 1):
                coef = todd_ratio(m, j + r, m - r - j)
                rhs = rhs + (inv[j] * td_all[m - r - j]).scale(coef)
            rows.append((label, lhs, rhs))
    return _blocks(rows, "scalars T_m/((j+r)! T_{m-r-j}) asserted integral")


# ---------------------------------------------------------------------------
# reduction of the bundle series modulo the hyperplane relation
# ---------------------------------------------------------------------------


def howe_reduce(r: int, a: int, degree_bound: int) -> list[GradedPolynomial]:
    """Expand e^{aT} * prod_{i<=r+1} (T-x_i)/(1-e^{-(T-x_i)}) and reduce by the
    relation prod_i (T - x_i) = 0, i.e. rewrite T^{r+1} through lower powers.

    The work is in the Chern alphabet (c1..c_{r+1}, T) throughout: the roots
    T - x_i have the Chern classes c_k(T - x) = sum_j (-1)^j C(r+1-j, k-j)
    T^{k-j} c_j (c_0 = 1), which are substituted into the universal Todd
    classes, and the relation is the monic T^{r+1} = -sum_{j>=1} (-1)^j c_j
    T^{r+1-j}.

    For r >= 1 and degree_bound >= r, returns [f_0, ..., f_r] with the reduced
    series equal to sum_j f_j(c1..c_{r+1}) * T^j; the entry f_j is exact
    through total degree degree_bound - j in the Chern classes of the bundle.
    """
    n, bound = r + 1, degree_bound
    al = join_alphabets(weighted_alphabet("c", n), Alphabet([("T", 1)]))
    t = GradedPolynomial.variable(al, bound, "T")
    c = [GradedPolynomial.constant(al, bound, 1)] + [
        GradedPolynomial.variable(al, bound, f"c{j}") for j in range(1, n + 1)
    ]
    t_powers = list(itertools.accumulate([t] * n, mul, initial=c[0]))  # T^0..T^n
    # the Chern classes of the roots T - x_i, zero above the rank r + 1
    images: dict[str, GradedPolynomial | int] = {
        f"c{k}": 0 for k in range(n + 1, bound + 1)
    }
    for k in range(1, n + 1):
        images[f"c{k}"] = GradedPolynomial.zero(al, bound)
        for j in range(k + 1):
            term = c[j] * t_powers[k - j]
            images[f"c{k}"] += term.scale((-1) ** j * comb(n - j, k - j))
    td = GradedPolynomial.constant(al, bound, 1)
    for k in range(1, bound + 1):
        td += universal_todd(k).series_part.with_bound(bound).substitute(images, al)
    terms = dict((td * apply_series(exp_series(bound, a), t)).terms)

    # the relation, from the top power of T down: each rewrite lowers the power
    for e in range(bound, n - 1, -1):
        top = {m: v for m, v in terms.items() if m[n] == e}
        for m in top:
            del terms[m]
        for j in range(1, n + 1):
            shift = tuple(int(i == j - 1) for i in range(n)) + (-j,)
            accumulate(terms, top, (-1) ** (j + 1), shift)
    return [
        GradedPolynomial(al, bound, {m[:n] + (0,): v for m, v in terms.items() if m[n] == j})
        for j in range(n)
    ]


def howe_instance(r: int, a: int) -> str:
    """The instance text of a howe_claims report; a = -r names the first."""
    return f"rank parameter r={r}, twist a={a}"


def howe_claims(r: int, degree_bound: int) -> list[VerificationReport]:
    """The leading-coefficient claims: f_r = 1 at twist 0, f_r = 0 at twists
    -r..-1, each through total degree degree_bound - r."""
    reports = []
    for a in range(-r, 1):
        fs = howe_reduce(r, a, degree_bound)
        fr = fs[r]
        target = (
            GradedPolynomial.constant(fr.alphabet, fr.truncation, 1)
            if a == 0
            else GradedPolynomial.zero(fr.alphabet, fr.truncation)
        )
        reports.append(
            VerificationReport.compare(
                "bundle-series-reduction",
                howe_instance(r, a),
                fr.serialize(),
                target.serialize(),
                notes=f"leading coefficient exact through degree {degree_bound - r}",
            )
        )
    return reports
