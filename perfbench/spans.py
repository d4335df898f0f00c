"""Span recording for the traced benchmark run, from outside the package.

A :class:`Tracer` replaces fplm's public functions with timing wrappers at
every module attribute where a caller looks them up (a name imported into
another module is wrapped there too), records one span per call with its
name, start, end and parent, and counts calls of the two orientation
predicates together with the calls that fell back to exact rational
arithmetic. Leaving the ``installed()`` block puts every original back and
checks that it is back.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field


def _solve_attrs(args, kwargs, result):
    lap_free = args[0] if args else kwargs["lap_free"]
    return {"n_free": int(lap_free.shape[0])}


def _run_fplm_attrs(args, kwargs, result):
    return {"rounds_run": result.rounds_run, "residuals": dict(result.residuals)}


def _crossing_attrs(args, kwargs, result):
    return {"crossing_count": result.count}


# "<module>.<function>" under the fplm package -> extractor of span
# attributes from (args, kwargs, result), or None.
SPANNED = {
    "generators.generate": None,
    "meshio.mesh_from_json": None,
    "meshio.write_embedding_csv": None,
    "meshio.read_embedding_csv": None,
    "simplicial.validate_mesh": None,
    "simplicial.detect_boundary": None,
    "simplicial.detect_dividing_simplices": None,
    "simplicial.canonical_orientation": None,
    "simplicial.mesh_faces": None,
    "simplicial.mesh_edges": None,
    "laplacian.build_weights": None,
    "laplacian.assemble_system": None,
    "solver.solve_spd": _solve_attrs,
    "mapping.select_seed_simplex": None,
    "mapping.run_fplm": _run_fplm_attrs,
    "validity.audit": None,
    "validity.count_crossings": _crossing_attrs,
    "validity.orientation_histogram": None,
    "validity.check_hull_containment": None,
    "validity.check_boundary_convexity": None,
    "validity.convex_combination_residual": None,
    "geometry.signed_volumes": None,
}

# Called once per segment pair or simplex: counted, not spanned, so the
# trace stays small and its overhead stays modest.
COUNTED = ("geometry.orient2d", "geometry.orient3d")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PredicateCount:
    calls: int = 0
    exact: int = 0


class Tracer:
    """Spans and predicate counts of the fplm calls made while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.predicates = {name: PredicateCount() for name in COUNTED}
        self._stack: list[int] = []
        self._rationals_made = 0
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def installed(self):
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if name == "fplm" or name.startswith("fplm.")
        ]
        try:
            for qualname, attrs in SPANNED.items():
                original = _lookup(qualname)
                self._patch(modules, original, self._span_wrapper(qualname, original, attrs))
            for qualname in COUNTED:
                original = _lookup(qualname)
                self._patch(modules, original, self._count_wrapper(qualname, original))
            geometry = sys.modules["fplm.geometry"]
            self._patch([geometry], geometry.Fraction, self._rational_counter(geometry.Fraction))
            yield self
        finally:
            self._restore()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, child)]

    # ------------------------------------------------------------- patching

    def _patch(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def _restore(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        stale = [
            f"{mod.__name__}.{attr}"
            for mod, attr, original in self._patches
            if getattr(mod, attr) is not original
        ]
        self._patches.clear()
        if stale:
            raise RuntimeError(f"tracer failed to restore {', '.join(stale)}")

    def _span_wrapper(self, name, fn, attrs):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        count = self.predicates[name]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            before = tracer._rationals_made
            result = fn(*args)
            count.calls += 1
            if tracer._rationals_made != before:
                count.exact += 1
            return result

        return wrapper

    def _rational_counter(self, rational):
        # fplm.geometry builds a rational only on the exact fallback path
        tracer = self

        def counting_rational(*args, **kwargs):
            tracer._rationals_made += 1
            return rational(*args, **kwargs)

        return counting_rational


def _lookup(qualname):
    mod_name, fn_name = qualname.split(".")
    return getattr(sys.modules["fplm." + mod_name], fn_name)
