"""Outside-in tracer for reesmult: spans around calls into each module's
public functions, recorded without touching the files under ``src/``.

``from .polyhedra import lattice_points`` binds a separate name in ``ideals``,
``rees``, ``cli`` and the package, so :meth:`Tracer.install` rebinds a
function in every ``reesmult`` module that holds it.  ``lru_cache`` objects
are wrapped from outside, so caching and ``cache_info()`` keep working; a call
is a cache miss when the cache's miss count moves during it.

A span is ``[name, parent index, start, end, miss]``, kept in memory and
written out at the end of the run.  A span's self time is its duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time

# layer -> (module, traced public functions).  Per-monomial helpers of
# ``hypersurface`` (is_section, regrade, ...) run tens of thousands of times per
# job; they are left in the self time of verify_local_decomposition.
LAYERS = {
    "polyhedra.facets": (
        "polyhedra",
        ("newton_from_points", "points_plus_cone", "irredundant_facets", "dual_cone",
         "homogeneous_rays"),
    ),
    "polyhedra.lattice": ("polyhedra", ("lattice_points",)),
    "ideals": (
        "ideals",
        ("minimalize", "newton", "newton_positive_facets", "power", "integral_closure",
         "is_normal", "first_non_closed_power", "multiplier_module", "multiplier_ideal",
         "systems_equal", "module_contains", "jumping_numbers", "lct"),
    ),
    "rees.cone": ("rees", ("extended_rees_cone", "rees_cone")),
    "rees.verify": (
        "rees",
        ("canonical_module", "principal_divisor_pairings", "multiplier_module_principal",
         "multiplier_module_general", "graded_piece", "decomposition_rhs_T",
         "decomposition_rhs_S", "rees_ideal_generators", "is_pair_rational",
         "verify_theoremB_T", "verify_theoremB_S", "verify_theoremA"),
    ),
    "hypersurface": ("hypersurface", ("divisor_data", "verify_local_decomposition")),
    "cli": ("cli", ("main",)),
}
LAYER_OF = {fn: layer for layer, (_, fns) in LAYERS.items() for fn in fns}
CACHED = ("newton", "extended_rees_cone", "rees_cone")
CONE_BUILDERS = ("extended_rees_cone", "rees_cone")
NORMALITY = ("first_non_closed_power", "is_normal")

# per-layer metrics, in the order BENCHMARK.json lists them
METRICS = (
    "polyhedra.facets.self_s", "polyhedra.facets.calls", "polyhedra.facets.max_call_ms",
    "polyhedra.facets.facets_out",
    "polyhedra.lattice.self_s", "polyhedra.lattice.calls", "polyhedra.lattice.box_points",
    "polyhedra.lattice.points_out", "polyhedra.lattice.out_per_box",
    "ideals.self_s", "ideals.normality_s", "ideals.newton_cache_hit_ratio",
    "ideals.jump_candidates", "ideals.jumps_per_candidate",
    "rees.cone.build_s", "rees.cone.slice_check_s", "rees.cone.cache_hit_ratio",
    "rees.verify.self_s", "rees.verify.levels", "rees.verify.points_compared",
    "hypersurface.self_s", "hypersurface.levels",
    "cli.start_import_ms", "cli.main_self_s", "cli.stdout_bytes",
    "trace.overhead_frac",
)


class Tracer:
    """Records spans and call counters for one process."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def install(self):
        """Wrap every traced function and rebind it wherever reesmult holds it.

        Covers the modules imported so far (``import reesmult`` loads all but
        ``cli``), so tracing changes nothing about what is imported.
        """
        import reesmult  # noqa: F401

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "reesmult" or name.startswith("reesmult."))]
        for modname, fns in LAYERS.values():
            home = sys.modules.get(f"reesmult.{modname}")
            if home is None:
                continue
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(fn_name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        on_result = getattr(self, f"_on_{name}", None)
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if cache_info:
                span[4] = int(cache_info().misses != misses)
            if on_result:
                on_result(args, kwargs, result, span)
            return result

        if cache_info:
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    # -- counters taken at the layer boundary --------------------------------

    def _on_lattice_points(self, args, kwargs, result, span):
        box = args[1] if len(args) > 1 else kwargs["box"]
        self._add("box_points", math.prod(int(hi) - int(lo) + 1 for lo, hi in box))
        self._add("points_out", len(result))

    def _on_jumping_numbers(self, args, kwargs, report, span):
        self._add("jump_candidates", len(report.candidates))
        self._add("jumps", len(report.jumps))

    def _on_verify_theoremB_T(self, args, kwargs, report, span):
        self._add("rees_levels", len(report.per_k))
        self._add("points_compared", sum(p.lhs_count + p.rhs_count for p in report.per_k))

    _on_verify_theoremB_S = _on_verify_theoremB_T

    def _on_verify_local_decomposition(self, args, kwargs, report, span):
        self._add("hypersurface_levels", len(report.per_k))

    def _count_facets(self, args, kwargs, result, span):
        # only calls entered from outside the layer, so nested calls
        # (newton_from_points -> points_plus_cone) count their output once
        parent = span[1]
        if parent < 0 or LAYER_OF[self.spans[parent][0]] != "polyhedra.facets":
            self._add("facets_out", len(getattr(result, "facets", result)))

    _on_newton_from_points = _count_facets
    _on_points_plus_cone = _count_facets
    _on_irredundant_facets = _count_facets
    _on_dual_cone = _count_facets
    _on_homogeneous_rays = _count_facets

    def record(self) -> dict:
        """Spans, counters and cache statistics of this process, as JSON data."""
        caches = {}
        for name in CACHED:
            info = getattr(sys.modules["reesmult"], name).cache_info()
            caches[name] = [info.hits, info.misses]
        return {"spans": self.spans, "counts": self.counts, "caches": caches}


def self_times(spans):
    """Per span: duration minus the time its direct children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


def summarize(records, cli_jobs=()):
    """Per-layer metrics over the records of one or more traced processes.

    ``cli_jobs`` holds, per replayed cli job, (child wall s, stdout bytes,
    index into ``records``); the job's ``cli.main`` span gives its
    in-process time.
    """
    acc = {name: 0 for name in METRICS}
    counts = {}
    caches = {name: [0, 0] for name in CACHED}
    main_s = []
    for rec in records:
        spans = rec["spans"]
        selfs = self_times(spans)
        main = 0.0
        for s, own in zip(spans, selfs):
            name, parent = s[0], s[1]
            dur = s[3] - s[2]
            layer = LAYER_OF[name]
            if layer == "polyhedra.facets":
                acc["polyhedra.facets.self_s"] += own
                acc["polyhedra.facets.calls"] += 1
                acc["polyhedra.facets.max_call_ms"] = max(
                    acc["polyhedra.facets.max_call_ms"], dur * 1e3)
            elif layer == "polyhedra.lattice":
                acc["polyhedra.lattice.self_s"] += own
                acc["polyhedra.lattice.calls"] += 1
                if parent >= 0 and spans[parent][0] in CONE_BUILDERS:
                    acc["rees.cone.slice_check_s"] += dur
            elif layer == "ideals":
                acc["ideals.self_s"] += own
                if name in NORMALITY:
                    acc["ideals.normality_s"] += dur
            elif layer == "rees.cone":
                if s[4]:
                    acc["rees.cone.build_s"] += dur
            elif layer == "rees.verify":
                acc["rees.verify.self_s"] += own
            elif layer == "hypersurface":
                acc["hypersurface.self_s"] += own
            else:
                acc["cli.main_self_s"] += own
                main += dur
        main_s.append(main)
        for key, value in rec["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for name, (hits, misses) in rec["caches"].items():
            caches[name][0] += hits
            caches[name][1] += misses

    acc["polyhedra.facets.facets_out"] = counts.get("facets_out", 0)
    acc["polyhedra.lattice.box_points"] = counts.get("box_points", 0)
    acc["polyhedra.lattice.points_out"] = counts.get("points_out", 0)
    acc["polyhedra.lattice.out_per_box"] = _ratio(
        counts.get("points_out", 0), counts.get("box_points", 0))
    acc["ideals.newton_cache_hit_ratio"] = _ratio(caches["newton"][0], sum(caches["newton"]))
    acc["ideals.jump_candidates"] = counts.get("jump_candidates", 0)
    acc["ideals.jumps_per_candidate"] = _ratio(
        counts.get("jumps", 0), counts.get("jump_candidates", 0))
    cone_hits = caches["extended_rees_cone"][0] + caches["rees_cone"][0]
    cone_calls = sum(caches["extended_rees_cone"]) + sum(caches["rees_cone"])
    acc["rees.cone.cache_hit_ratio"] = _ratio(cone_hits, cone_calls)
    acc["rees.verify.levels"] = counts.get("rees_levels", 0)
    acc["rees.verify.points_compared"] = counts.get("points_compared", 0)
    acc["hypersurface.levels"] = counts.get("hypersurface_levels", 0)
    if cli_jobs:
        acc["cli.start_import_ms"] = statistics.median(
            (wall - main_s[idx]) * 1e3 for wall, _, idx in cli_jobs)
        acc["cli.stdout_bytes"] = sum(nbytes for _, nbytes, _ in cli_jobs)
    return acc


def _ratio(num, den):
    return num / den if den else 0.0
