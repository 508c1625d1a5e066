"""Outside-in layer tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of the ``grrcheck`` modules
from the benchmark's side; nothing in ``src/`` knows about it.  Every
boundary keeps aggregated counts and times: calls, self time (its own time
minus the time of wrapped calls made inside it) and busy time (inclusive
time of its outermost activations).  Boundaries given a key function also
count distinct inputs.  Operation-level boundaries additionally record spans
(name, start, end, parent, op id), kept in memory and written out at the end.

Names are bound in several places (``from .geometry import pushforward_k``,
``IDENTITY_CHECKS``, ``SUITES``), so a wrapped function replaces the original
in every ``grrcheck`` module namespace and registry that holds it; methods
are wrapped on their class.  ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Boundary:
    calls: int = 0
    self_s: float = 0.0
    busy_s: float = 0.0
    depth: int = 0
    keys: set | None = None

    def summary(self) -> dict:
        out = {"calls": self.calls, "self_s": self.self_s, "busy_s": self.busy_s}
        if self.keys is not None:
            out["distinct"] = len(self.keys)
        return out


@dataclass
class Tracer:
    boundaries: dict[str, Boundary] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    _children: list[list[float]] = field(default_factory=list)
    _open_spans: list[int] = field(default_factory=list)
    _patches: list[tuple] = field(default_factory=list)
    _op_id: int | None = None

    # -- recording --------------------------------------------------------

    def _enter(self, name: str, span: bool) -> tuple:
        b = self.boundaries[name]
        b.calls += 1
        depth = b.depth
        b.depth = depth + 1
        span_index = None
        if span:
            parent = self._open_spans[-1] if self._open_spans else None
            span_index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self._op_id))
            self._open_spans.append(span_index)
        frame = [0.0]
        self._children.append(frame)
        return b, depth, frame, span_index, time.perf_counter()

    def _exit(self, state: tuple) -> None:
        end = time.perf_counter()
        b, depth, frame, span_index, start = state
        elapsed = end - start
        self._children.pop()
        b.self_s += elapsed - frame[0]
        if depth == 0:
            b.busy_s += elapsed
        b.depth = depth
        if self._children:
            self._children[-1][0] += elapsed
        if span_index is not None:
            self._open_spans.pop()
            name, _, _, parent, op_id = self.spans[span_index]
            self.spans[span_index] = (name, start, end, parent, op_id)

    def _wrapper(self, name, fn, key=None, span=False):
        b = self.boundaries.setdefault(name, Boundary(keys=set() if key else None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if key is not None:
                b.keys.add(key(*args, **kwargs))
            state = self._enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(state)

        return traced

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Mark one benchmark operation: the root span of everything it calls."""
        self.boundaries.setdefault("bench.op", Boundary())
        self._op_id = op_id
        state = self._enter("bench.op", True)
        try:
            yield
        finally:
            self._exit(state)
            self._op_id = None

    # -- patching ---------------------------------------------------------

    def function(self, name, fn, key=None, span=False) -> None:
        """Replace ``fn`` by a traced wrapper wherever a grrcheck module or
        registry holds it."""
        traced = self._wrapper(name, fn, key, span)
        for holder in _holders():
            items = holder if isinstance(holder, dict) else vars(holder)
            for attr, value in list(items.items()):
                if value is fn:
                    self._patches.append((holder, attr, fn))
                    if isinstance(holder, dict):
                        holder[attr] = traced
                    else:
                        setattr(holder, attr, traced)

    def method(self, name, cls, attr, key=None, span=False) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            traced = staticmethod(self._wrapper(name, raw.__func__, key, span))
        else:
            traced = self._wrapper(name, raw, key, span)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, traced)

    def install(self) -> None:
        _install_boundaries(self)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[attr] = original
            else:
                setattr(holder, attr, original)

    def restored(self) -> bool:
        """Whether every patched name holds its original object again."""
        for holder, attr, original in self._patches:
            items = holder if isinstance(holder, dict) else vars(holder)
            if items.get(attr) is not original:
                return False
        return True

    # -- output -----------------------------------------------------------

    def summary(self) -> dict:
        return {name: b.summary() for name, b in sorted(self.boundaries.items())}

    def write_spans(self, path: Path, origin: float) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start - origin, "end": end - origin,
                    "parent": parent, "op": op_id,
                }) + "\n")


def _holders():
    """Every place a grrcheck function can be looked up from."""
    from grrcheck import identities, suites

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("grrcheck")]
    return modules + [identities.IDENTITY_CHECKS, suites.SUITES]


def _k_key(f) -> tuple:
    return (f.tower.levels, frozenset(f.line_terms.items()))


def _install_boundaries(t: Tracer) -> None:
    from grrcheck import (
        arith, cli, geometry, grr, identities, poly, report, series, specparse, suites,
    )

    t.method("geometry.chow_mul", geometry.ChowClass, "__mul__")
    for attr in ("__add__", "__sub__", "scale"):
        t.method("geometry.chow_linear", geometry.ChowClass, attr)
    t.method("geometry.total_chern", geometry.KClass, "total_chern", key=_k_key)
    t.function(
        "geometry.pushforward_k", geometry.pushforward_k,
        key=lambda f, n_collapse=1: (_k_key(f), n_collapse),
    )
    t.function("geometry.pushforward_chow", geometry.pushforward_chow)
    t.method("geometry.tower_build", geometry.Tower, "__init__")

    t.function("grr.ct_on_tower", grr.ct_on_tower)
    t.function("grr.evaluate_universal", grr.evaluate_universal)
    t.function("grr.check_main_theorem", grr.check_main_theorem, span=True)

    for fn in (series.universal_todd, series.universal_chern_character,
               series.universal_ct, series.q_poly, series.todd_inverse_numerator):
        t.function(
            "series.universal", fn,
            key=lambda *a, _name=fn.__name__, **kw: (_name, a, tuple(sorted(kw.items()))),
        )
    for fn in (series.todd_series_oracle, series.chern_character_oracle,
               series.ct_oracle, series.q_oracle, series.todd_inverse_oracle):
        t.function("series.oracle", fn)

    t.method("poly.mul", poly.GradedPolynomial, "__mul__")
    t.method("poly.substitute", poly.GradedPolynomial, "substitute")
    t.method("poly.serialize", poly.GradedPolynomial, "serialize")
    t.function("poly.reduce", poly.reduce_orbit_to_elementary)

    t.method("report.compare", report.VerificationReport, "compare")
    t.method("report.to_json", report.VerificationReport, "to_json")

    for fn in set(identities.IDENTITY_CHECKS.values()) | {identities.howe_claims}:
        t.function("identities.verify", fn, span=True)
    for attr, fn in sorted(vars(arith).items()):
        if not attr.startswith("_") and callable(fn) and not isinstance(fn, type) \
                and getattr(fn, "__module__", None) == arith.__name__:
            t.function("arith", fn)
    for fn in set(suites.SUITES.values()) | {suites.suite_all}:
        t.function("suites", fn, span=True)

    for fn in (specparse.parse_geometry, specparse.parse_class, specparse.parse_divisor,
               specparse.build_geometry, specparse.evaluate_class):
        t.function("specparse", fn)
    t.function("cli.main", cli.main, span=True)
