"""Per-layer spans around walshlab's module boundaries, installed from outside.

A span wraps a public function under the name a *calling* module bound it
with (``cli.select_trees``, ``triform.triform_scale_sum``, ...), so calls
from another module are timed while calls inside the defining module, such
as ``tiles.le`` in the loops of ``tiles.is_convex``, stay unwrapped.  Two
functions are imported lazily inside a function body (``covering.density``
by ``ensembles.dense_parallelograms`` and ``triform.lambda_tree`` by
``selection.single_tree_report``); those are wrapped on their home module
with a guard that skips the span when the caller is the home module itself.

``walsh`` and ``gridfn`` get no spans: their work is constructors and
methods called millions of times inside the other layers, where a wrapper
would mostly time itself.

Spans nest on one stack (the CLI is single-threaded).  A span's self time
is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# home module -> functions spanned where another module calls them
SPANNED: Dict[str, Tuple[str, ...]] = {
    "tiles": ("proj_collection", "all_bitiles", "down_set", "le", "diagonal_data"),
    "ensembles": (
        "random_convex_collection",
        "random_tree",
        "indicator_with_measure",
        "dense_parallelograms",
        "cone_slope_field",
    ),
    "selection": ("select_trees", "verify_certificate", "single_tree_report"),
    "mfcz": (
        "exceptional_sets",
        "admissible_bitiles",
        "build_good_function",
        "replacement_check",
        "g_norm_report",
    ),
    "maximal": ("dyadic_maximal_2d", "directional_maximal"),
    "triform": (
        "lambda_direct",
        "lambda_bitile",
        "lambda_bitile_sum",
        "lambda_tree",
        "offset_form",
        "max_mod_haar",
        "haar_multiplier",
    ),
    "_kernels": ("triform_scale_sum", "wht_rows"),
    "wavelets": ("coefficient_rows", "synthesis_rows", "project_tile_1d", "wave_packet"),
    "covering": ("greedy_cover", "overlap_check", "lemma7r_check", "lk_maximal", "density"),
}

# functions another module imports inside a function body, at call time
LAZY = {("covering", "density"), ("triform", "lambda_tree")}

MODULES = (
    "cli",
    "covering",
    "ensembles",
    "gridfn",
    "maximal",
    "mfcz",
    "selection",
    "tiles",
    "triform",
    "walsh",
    "wavelets",
    "_kernels",
)

SUITES = (
    "telescoping",
    "bitile_sum",
    "adaptedness",
    "appendix",
    "certificates",
    "replacement",
    "lemma7r",
)
PROBES = ("restricted", "single_tree", "counting", "gnorm", "cover_overlap", "lk_weak")

# counters computed from a span's arguments and result
COUNTS = (
    "selection.pool_size",
    "selection.trees",
    "selection.trees_phase1",
    "selection.trees_phase2",
    "selection.trees_phase3",
    "selection.score_passes",
    "mfcz.identity_bitiles",
    "kernels.triform_scale_sum.terms",
    "kernels.wht_rows.butterflies",
    "covering.cover_steps",
    "covering.removed",
)


def layer(module: str) -> str:
    return module.lstrip("_")


def span_names() -> List[str]:
    return [f"{layer(m)}.{f}" for m, names in SPANNED.items() for f in names]


class Recorder:
    """Aggregates spans in memory: calls, self and total time per name."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.stats: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.edges: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.errors = 0
        self._stack: List[List] = []  # [name, child time] of each open span

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None):
        stack, stats, clock = self._stack, self.stats, self.clock

        def spanned(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                entry = stats[name]
                entry[0] += 1
                entry[1] += duration - frame[1]
                entry[2] += duration
                if stack:
                    stack[-1][1] += duration
                self.edges[(parent, name)] += 1
            if after is not None:
                after(self.counts, args, result)
            return result

        spanned.__wrapped__ = fn
        return spanned


def _count_select(counts, args, cert) -> None:
    phases = [len(forest) for forest in cert.forests]
    counts["selection.pool_size"] += len(cert.collection)
    counts["selection.trees"] += sum(phases)
    for i, n in enumerate(phases, start=1):
        counts[f"selection.trees_phase{i}"] += n
    if cert.collection:  # an empty pool returns before any scoring pass
        counts["selection.score_passes"] += phases[1] + phases[2] + 2


def _count_replacement(counts, args, result) -> None:
    counts["mfcz.identity_bitiles"] += len(args[0])


def _count_scale_sum(counts, args, result) -> None:
    n, shift = args[0].shape[0], args[4]
    counts["kernels.triform_scale_sum.terms"] += n * n * (1 << shift)


def _count_wht(counts, args, result) -> None:
    rows, n = args[0].shape
    counts["kernels.wht_rows.butterflies"] += rows * (n // 2) * (n.bit_length() - 1)


def _count_cover(counts, args, result) -> None:
    steps = result[1].steps
    counts["covering.cover_steps"] += len(steps)
    counts["covering.removed"] += sum(len(step.removed) for step in steps)


def _count_dense(counts, args, result) -> None:
    counts["ensembles.dense_parallelograms.returned"] += len(result)


AFTER = {
    "selection.select_trees": _count_select,
    "mfcz.replacement_check": _count_replacement,
    "kernels.triform_scale_sum": _count_scale_sum,
    "kernels.wht_rows": _count_wht,
    "covering.greedy_cover": _count_cover,
    "ensembles.dense_parallelograms": _count_dense,
}


class Tracer:
    """Installs the spans into an imported walshlab package and removes them.

    Use as a context manager; every patched binding is restored on exit.
    Spanned functions that no module binds any more are listed in
    ``missing`` and report zero calls.
    """

    def __init__(self, package, recorder: Optional[Recorder] = None):
        self.package = package
        self.recorder = recorder or Recorder()
        self.missing: List[str] = []
        self._undo: List[Callable[[], None]] = []

    def _set(self, obj, attr, value) -> None:
        old = getattr(obj, attr)
        setattr(obj, attr, value)
        self._undo.append(lambda: setattr(obj, attr, old))

    def _set_item(self, mapping, key, value) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def install(self) -> "Tracer":
        mods = {m: getattr(self.package, m) for m in MODULES if hasattr(self.package, m)}
        rec = self.recorder
        for home, names in SPANNED.items():
            for fname in names:
                name = f"{layer(home)}.{fname}"
                orig = getattr(mods.get(home), fname, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                wrapped = rec.wrap(name, orig, AFTER.get(name))
                bound = False
                for mname, mod in mods.items():
                    if mname != home and mod.__dict__.get(fname) is orig:
                        self._set(mod, fname, wrapped)
                        bound = True
                if (home, fname) in LAZY:
                    self._set(mods[home], fname, _guard(mods[home].__name__, orig, wrapped))
                    bound = True
                if not bound:
                    self.missing.append(name)
        cli = mods["cli"]
        for suite, fn in list(cli.SUITE_RUNNERS.items()):
            self._set_item(cli.SUITE_RUNNERS, suite, rec.wrap(f"cli.suite.{suite}", fn))
        self._set(
            cli,
            "PROBES",
            tuple((p, rec.wrap(f"cli.probe.{p}", fn)) for p, fn in cli.PROBES),
        )
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


def _guard(home: str, orig: Callable, wrapped: Callable) -> Callable:
    """Span a home-module attribute only for callers outside that module."""

    def guarded(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == home:
            return orig(*args, **kwargs)
        return wrapped(*args, **kwargs)

    guarded.__wrapped__ = orig
    return guarded


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """Flat per-layer metrics of one traced run; times in seconds."""
    out: Dict[str, float] = {}
    for name in span_names():
        calls, self_ns, _ = rec.stats.get(name, (0, 0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_ns / 1e9
    for name in ("kernels.wht_rows", "triform.lambda_direct"):
        calls, _, total_ns = rec.stats.get(name, (0, 0, 0))
        out[f"{name}.per_call_ms"] = total_ns / calls / 1e6 if calls else 0.0
    for group, names in (("suite", SUITES), ("probe", PROBES)):
        for n in names:
            out[f"cli.{group}.{n}.total_s"] = rec.stats.get(f"cli.{group}.{n}", (0, 0, 0))[2] / 1e9
    for name in COUNTS:
        out[name] = rec.counts.get(name, 0.0)
    steps = out["covering.cover_steps"]
    out["covering.removed_per_step"] = out["covering.removed"] / steps if steps else 0.0
    tries = rec.edges.get(("ensembles.dense_parallelograms", "covering.density"), 0)
    returned = rec.counts.get("ensembles.dense_parallelograms.returned", 0.0)
    out["ensembles.dense_parallelograms.accept_ratio"] = returned / tries if tries else 0.0
    out["trace.errors"] = rec.errors
    return out
