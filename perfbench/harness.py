"""Workloads, correctness gate and measurement loop of the fplm benchmark.

Each workload builds its input from a seed (generation, a random
relabelling of vertex ids and simplex order, and a JSON round trip), then
repeats the pipeline a user runs through ``fplm embed`` / ``fplm
validate``, replayed in-process through the package's public API, and
checks every repetition's verdict and counts. See README.md beside this
file for the metrics and the layer map.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import spans

GAMMA = 0.1
SETUP_REPEATS = 5
# Share of --seconds spent re-timing the embed stage on its own after the
# pipeline repetitions. The stage is short, so it gets many samples of its own.
EMBED_SHARE = 0.15


@dataclasses.dataclass(frozen=True)
class Expect:
    """What every repetition of a workload must produce, whatever the seed."""

    verdict: str
    branch: str | None
    rounds: int | None
    crossing_count: int | None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    resolution: tuple
    tiny_resolution: tuple
    expect: Expect
    # folded-foreign only: the drawing's crossing count at the tiny size
    tiny_crossings: int | None = None

    @property
    def foreign(self) -> bool:
        return self.tiny_crossings is not None

    def expect_at(self, tiny: bool) -> Expect:
        if tiny and self.foreign:
            return dataclasses.replace(self.expect, crossing_count=self.tiny_crossings)
        return self.expect


CERTIFIED = "injective-certified"
WORKLOADS = {
    w.name: w
    for w in (
        Workload("open-surface", "paraboloid", (20, 20), (10, 10),
                 Expect(CERTIFIED, "two-round", 2, 0)),
        Workload("closed-sphere", "sphere", (3,), (2,),
                 Expect(CERTIFIED, "one-round", 1, 0)),
        Workload("solid-ball", "ball3", (10,), (3,),
                 Expect(CERTIFIED, "two-round", 2, None)),
        Workload("folded-foreign", "twin-peaks", (20, 20), (12, 12),
                 Expect("violated", None, None, 703), tiny_crossings=231),
    )
}


@dataclasses.dataclass(frozen=True)
class Input:
    mesh_json: str
    n_vertices: int
    drawing: np.ndarray | None  # third-party (x, z) coordinates, folded-foreign only


@dataclasses.dataclass
class Rep:
    pipeline_s: float
    embed_s: float
    audit_s: float
    outcome: dict


# ------------------------------------------------------------------ set-up


def build_input(fplm, workload: Workload, seed: int, tiny: bool) -> Input:
    """Generate, relabel by the seed, and round-trip the mesh through JSON."""
    spec = fplm.GeneratorSpec(
        kind=workload.kind,
        resolution=workload.tiny_resolution if tiny else workload.resolution,
    )
    mesh, _ = fplm.generate(spec)
    mesh = relabel(fplm, mesh, seed)
    mesh_json = fplm.mesh_to_json(mesh)
    mesh = fplm.mesh_from_json(mesh_json)
    drawing = None
    if workload.foreign:
        drawing = np.ascontiguousarray(mesh.vertices[:, [0, 2]])
    return Input(mesh_json, mesh.n_vertices, drawing)


def relabel(fplm, mesh, seed: int):
    """Randomly permute vertex ids and simplex order; geometry is unchanged.

    The generator's first simplex stays first. On a closed mesh fplm pins
    simplex 0, and a random pinned triangle moved closed-sphere's audit time
    by about 15% and its peak memory by 22% from seed to seed.
    """
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    order = np.concatenate([[0], 1 + rng.permutation(mesh.n_simplices - 1)])
    simplices = new_id[mesh.simplices][order]
    return fplm.SimplicialMesh(vertices, simplices, mesh.intrinsic_dim)


# The imports run.py makes, timed inside a fresh interpreter; argv[1] is src/.
_IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import fplm, scipy.sparse.csgraph, scipy.sparse.linalg, scipy.spatial; "
    "print(time.perf_counter() - t0)"
)


def child_import_s(src: Path) -> float:
    """Seconds a fresh interpreter takes to import fplm and the scipy modules
    the solver and the audit use. The child is waited for."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CODE, str(src)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


# ---------------------------------------------------------------- pipeline


def run_pipeline(fplm, inp: Input) -> Rep:
    """Load, embed (or hand off the foreign drawing), audit; timed by stage."""
    t0 = time.perf_counter()
    mesh = fplm.mesh_from_json(inp.mesh_json)
    t1 = time.perf_counter()
    embedded = embed_stage(fplm, mesh, inp)
    t2 = time.perf_counter()
    if inp.drawing is not None:
        report = fplm.audit(mesh, embedded)
        embedded = None
    else:
        report = fplm.audit(mesh, embedded, graph=fplm.build_weights(mesh, GAMMA))
    t3 = time.perf_counter()
    return Rep(t3 - t0, t2 - t1, t3 - t2, outcome_of(report, embedded))


def embed_stage(fplm, mesh, inp: Input):
    """run_fplm, or on folded-foreign the step that stands in its place:
    the CSV hand-off of the third-party drawing (written, then read back
    as ``fplm validate`` reads it)."""
    if inp.drawing is not None:
        return fplm.read_embedding_csv(fplm.write_embedding_csv(inp.drawing))
    return fplm.run_fplm(mesh, gamma=GAMMA, config=fplm.SolveConfig())


def _time_embed_stage(fplm, mesh, inp: Input) -> float:
    gc.collect()
    t0 = time.perf_counter()
    embed_stage(fplm, mesh, inp)
    return time.perf_counter() - t0


def outcome_of(report, embedding) -> dict:
    outcome = {
        "verdict": report.verdict,
        "crossing_count": report.crossing_count,
        "orientation_counts": list(report.orientation_counts),
        "branch": None,
        "rounds": None,
    }
    if embedding is not None:
        outcome.update(
            branch=embedding.branch,
            rounds=embedding.rounds_run,
            residuals=dict(embedding.residuals),
            finite=bool(np.isfinite(embedding.coords).all()),
        )
    return outcome


def invariant(outcome: dict) -> tuple:
    """The part of an outcome that no relabelling may change."""
    return (
        outcome["verdict"],
        outcome["branch"],
        outcome["rounds"],
        outcome["crossing_count"],
    )


def gate(expect: Expect, outcome: dict, rel_tol: float) -> list[str]:
    """Reasons the outcome fails the workload's expectations; empty if none.

    Compares verdicts, branches and counts, never coordinates, so a solver
    change that moves coordinates within tolerance still passes.
    """
    bad = []
    for key in ("verdict", "branch", "rounds", "crossing_count"):
        want = getattr(expect, key)
        if outcome[key] != want:
            bad.append(f"{key} {outcome[key]!r}, expected {want!r}")
    pos, neg, zero = outcome["orientation_counts"]
    if expect.verdict == "violated":
        if not (pos and neg):
            bad.append(f"orientations {pos}+/{neg}- are not mixed")
    else:
        if not outcome.get("finite", False):
            bad.append("embedding has non-finite coordinates")
        residuals = outcome.get("residuals", {})
        if len(residuals) != expect.rounds:
            bad.append(f"{len(residuals)} residual(s) for {expect.rounds} round(s)")
        for name, value in residuals.items():
            if not value <= rel_tol:
                bad.append(f"{name} residual {value:.3e} > rel_tol {rel_tol:.1e}")
    return bad


# ------------------------------------------------------------- measurement


def measure(fplm, name: str, seed: int, seconds: float, trace: bool,
            *, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload for about ``seconds`` seconds.

    Returns (detail, result): ``result`` is the benchmark's one-line
    verdict, ``detail`` adds sample counts, percentiles, outcomes and the
    environment. Untraced runs report the end-to-end metrics; traced runs
    alternate untraced and traced repetitions and report the per-layer
    metrics plus the tracing overhead.
    """
    workload = WORKLOADS[name]
    expect = workload.expect_at(tiny)
    rel_tol = fplm.SolveConfig().rel_tol
    attempted = failed = 0
    errors: list[str] = []
    outcomes: list[dict] = []

    def attempt(inp, tracer=None):
        """One gated repetition; its Rep, or None if it raised."""
        nonlocal attempted, failed
        attempted += 1
        gc.collect()
        try:
            if tracer is None:
                rep = run_pipeline(fplm, inp)
            else:
                with tracer.installed():
                    rep = run_pipeline(fplm, inp)
        except Exception:
            failed += 1
            errors.append(traceback.format_exc())
            return None
        reasons = gate(expect, rep.outcome, rel_tol)
        if reasons:
            failed += 1
            errors.append("; ".join(reasons))
        outcomes.append(rep.outcome)
        return rep

    if not trace:
        src = Path(fplm.__file__).resolve().parents[1]

        def build():
            """One set-up: import in a fresh interpreter, then build the input."""
            imported = child_import_s(src)
            t0 = time.perf_counter()
            inp = build_input(fplm, workload, seed, tiny)
            return inp, imported + time.perf_counter() - t0

        builds, setup_scales, loops = _paced(build, count=SETUP_REPEATS)
        inp = builds[-1][0]
        attempt(inp)  # warm-up: gated, not timed
        reps, rep_scales, rep_loops = _paced(lambda: attempt(inp),
                                             seconds=seconds * (1.0 - EMBED_SHARE))
        timed = [(r, k) for r, k in zip(reps, rep_scales) if r is not None]
        if not timed:
            raise RuntimeError("no repetition completed:\n" + "\n".join(errors))
        mesh = fplm.mesh_from_json(inp.mesh_json)
        embed_only, embed_scales, embed_loops = _paced(
            lambda: _time_embed_stage(fplm, mesh, inp), seconds=seconds * EMBED_SHARE)
        wall = {
            "pipeline_s": [r.pipeline_s for r, _ in timed],
            "embed_s": [r.embed_s for r, _ in timed] + embed_only,
            "audit_s": [r.audit_s for r, _ in timed],
            "setup_s": [t for _, t in builds],
        }
        scales = {
            "pipeline_s": [k for _, k in timed],
            "embed_s": [k for _, k in timed] + embed_scales,
            "audit_s": [k for _, k in timed],
            "setup_s": setup_scales,
        }
        values = {
            name: statistics.median(t * k for t, k in zip(wall[name], scales[name]))
            for name in wall
        }
        values["throughput_vps"] = inp.n_vertices / values["pipeline_s"]
        values["peak_rss_mb"] = peak_rss_mb()
        metrics = {k: values[k] for k in END_TO_END}
        summaries = {k: summarize(v) for k, v in wall.items()}
        summaries["reference_loop_s"] = summarize(loops + rep_loops + embed_loops)
        summaries["scale"] = summarize(setup_scales + rep_scales + embed_scales)
    else:
        setup_tracer = spans.Tracer()
        with setup_tracer.installed():
            inp = build_input(fplm, workload, seed, tiny)
        pairs = _repeat(lambda: (attempt(inp), _traced_attempt(attempt, inp)), seconds)
        pairs = [(u, t) for u, t in pairs if u is not None and t[0] is not None]
        if not pairs:
            raise RuntimeError("no traced repetition completed:\n" + "\n".join(errors))
        untraced = statistics.median(u.pipeline_s for u, _ in pairs)
        per_rep = [
            layer_metrics(tracer, setup_tracer, rep.pipeline_s / untraced)
            for _, (rep, tracer) in pairs
        ]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in PER_LAYER}
        summaries = {"traced_pairs": len(pairs)}
        for u, (t, _) in pairs:
            if u.outcome != t.outcome:
                failed += 1
                errors.append("traced outcome differs from the untraced one")

    distinct = {invariant(o) for o in outcomes}
    if len(distinct) > 1:
        errors.append(f"outcomes differ between repetitions: {sorted(map(str, distinct))}")
    units = END_TO_END if not trace else PER_LAYER
    result = {
        "correct": failed == 0 and len(distinct) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "size": "tiny" if tiny else "full",
        "n_vertices": inp.n_vertices,
        "failed_ratio": failed / attempted,
        "timings": summaries,
        "outcome": outcomes[0] if outcomes else None,
        "expect": dataclasses.asdict(expect),
        "errors": errors[:5],
        "environment": environment(fplm),
    }
    return detail, result


def _traced_attempt(attempt, inp):
    tracer = spans.Tracer()
    return attempt(inp, tracer), tracer


def _paced(fn, *, seconds=None, count=None):
    """Call fn as _repeat does (or ``count`` times), with one pass of the
    reference loop before each call and one after the last.

    Returns the results, the scale of each (REFERENCE_LOOP_S over the mean
    of the two passes around it) and the loop times.
    """
    loops = []

    def step():
        loops.append(reference_loop())
        return fn()

    results = _repeat(step, seconds) if count is None else [step() for _ in range(count)]
    loops.append(reference_loop())
    scales = [2.0 * REFERENCE_LOOP_S / (a + b) for a, b in zip(loops, loops[1:])]
    return results, scales, loops


def _repeat(fn, seconds):
    """Call fn at least once, and again while another call fits in time."""
    start = time.perf_counter()
    results, durations = [], []
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return results


def summarize(samples: list[float]) -> dict:
    """Median, sample count and the highest percentile with >= 10 beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n, "percentile": None}
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            summary["percentile"] = {"p": p, "value": ordered[rank - 1]}
            break
    return summary


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------- calibration

# The host's speed switches between states up to 1.7x apart, for seconds to
# minutes at a time, so a wall-clock median moves with it from run to run.
# A pass of a fixed reference loop therefore runs before every timed sample
# and after the last, and each sample is scaled by REFERENCE_LOOP_S over the
# mean of the two passes around it: seconds at the speed at which the loop
# takes REFERENCE_LOOP_S. A reported timing is the median of its scaled
# samples. The constant only fixes the scale; it lies between the loop's
# times in the fast (0.015 s) and slow (0.029 s) states of the 2-core Xeon
# host the benchmark was tuned on. The loop is benchmark code, so a change
# to fplm cannot move it. Unscaled figures stay in the detail line.
REFERENCE_LOOP_S = 0.020
_LOOP_ARRAY = np.random.default_rng(12345).random(100_000)


def reference_loop() -> float:
    """Seconds one pass of fixed scalar-Python and numpy work takes.

    The garbage of the previous repetition is collected first and the cyclic
    collector is off while the loop runs, so that the loop's time depends on
    the host's speed and not on the heap a repetition left behind.
    """
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        exact = Fraction(0)
        table = {}
        for i in range(60_000):
            x = i * 0.37 - 1000.0
            y = x * x - 3.0 * x
            acc += y if y > 0.0 else -y
            table[i & 255] = (i, x)
            if i % 60 == 0:
                exact += Fraction(i, 7)
        np.sort(_LOOP_ARRAY)
        return time.perf_counter() - t0
    finally:
        gc.enable()


# ----------------------------------------------------------------- metrics

# name -> (unit, better)
END_TO_END = {
    "pipeline_s": ("s", "lower"),
    "embed_s": ("s", "lower"),
    "audit_s": ("s", "lower"),
    "throughput_vps": ("vertices/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_TOTAL = {  # metric -> span name whose total seconds it reports
    "validity.count_crossings_s": "validity.count_crossings",
    "geometry.signed_volumes_s": "geometry.signed_volumes",
    "validity.check_hull_containment_s": "validity.check_hull_containment",
    "validity.check_boundary_convexity_s": "validity.check_boundary_convexity",
    "validity.convex_combination_residual_s": "validity.convex_combination_residual",
    "simplicial.validate_mesh_s": "simplicial.validate_mesh",
    "simplicial.detect_boundary_s": "simplicial.detect_boundary",
    "simplicial.canonical_orientation_s": "simplicial.canonical_orientation",
    "simplicial.mesh_faces_s": "simplicial.mesh_faces",
    "simplicial.detect_dividing_simplices_s": "simplicial.detect_dividing_simplices",
    "laplacian.build_weights_s": "laplacian.build_weights",
    "laplacian.assemble_system_s": "laplacian.assemble_system",
    "mapping.select_seed_simplex_s": "mapping.select_seed_simplex",
    "meshio.mesh_from_json_s": "meshio.mesh_from_json",
    "meshio.write_embedding_csv_s": "meshio.write_embedding_csv",
    "meshio.read_embedding_csv_s": "meshio.read_embedding_csv",
}
_SELF = {
    "validity.orientation_histogram_self_s": "validity.orientation_histogram",
    "validity.audit_self_s": "validity.audit",
    "mapping.run_fplm_self_s": "mapping.run_fplm",
}
_CALLS = {
    "simplicial.detect_boundary_calls": "simplicial.detect_boundary",
    "simplicial.canonical_orientation_calls": "simplicial.canonical_orientation",
    "simplicial.mesh_faces_calls": "simplicial.mesh_faces",
    "simplicial.mesh_edges_calls": "simplicial.mesh_edges",
    "laplacian.build_weights_calls": "laplacian.build_weights",
    "laplacian.assemble_system_calls": "laplacian.assemble_system",
}

PER_LAYER = {
    **{k: ("s", "lower") for k in (*_TOTAL, *_SELF)},
    **{k: ("count", "lower") for k in _CALLS},
    "validity.crossing_count": ("count", "lower"),
    "geometry.orient2d_calls": ("count", "lower"),
    "geometry.orient2d_exact_calls": ("count", "lower"),
    "geometry.orient2d_exact_ratio": ("ratio", "lower"),
    "geometry.orient3d_calls": ("count", "lower"),
    "geometry.orient3d_exact_calls": ("count", "lower"),
    "solver.solve_spd_s.round1": ("s", "lower"),
    "solver.solve_spd_s.round2": ("s", "lower"),
    "solver.n_free.round1": ("count", "lower"),
    "solver.n_free.round2": ("count", "lower"),
    "solver.residual.round1": ("ratio", "lower"),
    "solver.residual.round2": ("ratio", "lower"),
    "mapping.rounds_run": ("count", "lower"),
    "generators.generate_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(pipeline: spans.Tracer, setup: spans.Tracer, overhead: float) -> dict:
    """Per-layer metrics of one traced repetition.

    Spans come from the traced pipeline, except ``generators.generate_s``,
    which comes from the traced set-up. A layer that does not run on the
    workload reports 0.
    """
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, self_s in zip(pipeline.spans, pipeline.self_times()):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1

    out = {k: total.get(name, 0.0) for k, name in _TOTAL.items()}
    out.update({k: own.get(name, 0.0) for k, name in _SELF.items()})
    out.update({k: calls.get(name, 0) for k, name in _CALLS.items()})

    crossings = [s.attrs["crossing_count"] for s in pipeline.spans
                 if s.name == "validity.count_crossings"]
    out["validity.crossing_count"] = sum(crossings)
    o2 = pipeline.predicates["geometry.orient2d"]
    o3 = pipeline.predicates["geometry.orient3d"]
    out["geometry.orient2d_calls"] = o2.calls
    out["geometry.orient2d_exact_calls"] = o2.exact
    out["geometry.orient2d_exact_ratio"] = o2.exact / o2.calls if o2.calls else 0.0
    out["geometry.orient3d_calls"] = o3.calls
    out["geometry.orient3d_exact_calls"] = o3.exact

    # solves are numbered by call order: run_fplm solves round 1 first
    solves = [s for s in pipeline.spans if s.name == "solver.solve_spd"]
    runs = [s for s in pipeline.spans if s.name == "mapping.run_fplm"]
    residuals = runs[0].attrs["residuals"] if runs else {}
    for k in (1, 2):
        solve = solves[k - 1] if len(solves) >= k else None
        out[f"solver.solve_spd_s.round{k}"] = solve.duration if solve else 0.0
        out[f"solver.n_free.round{k}"] = solve.attrs["n_free"] if solve else 0
        out[f"solver.residual.round{k}"] = residuals.get(f"round{k}", 0.0)
    out["mapping.rounds_run"] = runs[0].attrs["rounds_run"] if runs else 0
    out["generators.generate_s"] = sum(
        s.duration for s in setup.spans if s.name == "generators.generate"
    )
    out["trace.overhead_ratio"] = overhead
    return out


# ------------------------------------------------------------- environment


def environment(fplm) -> dict:
    import scipy

    root = Path(fplm.__file__).resolve().parents[2]
    return {
        "git_revision": git_revision(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fplm": fplm.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "thread_caps": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")
        },
    }


def git_revision(root: Path) -> str | None:
    """HEAD's commit id read from .git; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None
