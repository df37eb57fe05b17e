"""Command line harness: identity suites, constant probes, file transforms, covers.

Configuration is a plain-text key=value file; --seed and --suite override
it.  Every report is CSV with the fixed header
suite,case_id,lhs,rhs,ratio,pass and a .meta sidecar carrying the seed
and a sha256 of the report bytes, so a run is checkable byte for byte.
All randomness flows through numpy's default_rng (PCG64) seeded from the
configured seed plus a per-case tag; nothing reads the clock.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import math
import mmap
import os
import pickle
import sys
import tempfile
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

import numpy as np

from .covering import SlopeField, cover_picks, lemma7r_check, lk_maximal, square_integral
from .ensembles import (
    cone_slope_field,
    dense_parallelograms,
    indicator_with_measure,
    lemma7r_pair,
    linear_slope_field,
    measure_triple,
    parallelogram_ensemble,
    random_convex_collection,
    random_tree,
    signed_indicator,
    uniform_cells_2d,
)
from .gridfn import GridFunction1D, GridFunction2D
from .mfcz import (
    admissible_bitiles,
    build_good_function,
    exceptional_sets,
    g_norm_report,
    replacement_check,
)
from .selection import (
    Forest,
    select_forests,
    select_trees,
    single_tree_report,
    verify_certificate,
)
from .tiles import (
    ProjectionMode,
    all_bitiles,
    diagonal_data,
    fiberwise_data,
    proj_collection,
)
from .triform import (
    EpsilonField,
    constant_interval_weights,
    haar_multiplier,
    lambda_bitile,
    lambda_bitile_sum,
    lambda_direct,
    max_mod_haar,
    max_mod_haar_sup,
    offset_form,
    random_interval_weights,
    substitution_endpoint,
    substitution_modulated,
    substitution_offset,
    telescoping_profile,
)
from .walsh import WalshNumber

TOL = 1e-9
REPORT_HEADER = ("suite", "case_id", "lhs", "rhs", "ratio", "pass")
SELECTED_HEADER = (
    "trial",
    "shadow_scale",
    "shadow_index",
    "base_y",
    "slope",
    "height",
)
SUITE_NAMES = (
    "telescoping",
    "bitile_sum",
    "adaptedness",
    "appendix",
    "certificates",
    "replacement",
    "lemma7r",
)
MAX_RESOLUTION = 8
MAX_GRID = 8192  # the covering's column-mass removal needs grid * 1e-4 < 1


class CliError(Exception):
    """Usage or input problem; maps to exit code 2."""


@dataclass
class Config:
    resolution: int = 5
    seed: int = 1
    trials: int = 8
    p0: float = 4.0
    p1: float = 2.0
    p2: float = 4.0 / 3.0
    L: int = 1
    mode: str = "diagonal"
    a_bits: int = 3
    delta: float = 0.5
    grid: int = 128
    suite: Tuple[str, ...] = SUITE_NAMES


def _parse_config_file(path: str) -> Dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc.strerror or exc}")
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise CliError(f"config key {key} needs an integer, got {value!r}")


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise CliError(f"config key {key} needs a number, got {value!r}")


def _validate_suites(names: Sequence[str]) -> Tuple[str, ...]:
    for name in names:
        if name not in SUITE_NAMES:
            raise CliError(
                f"unknown suite {name!r}; choices: {', '.join(SUITE_NAMES)}"
            )
    return tuple(names)


def build_config(
    file_values: Optional[Dict[str, str]] = None,
    seed: Optional[int] = None,
    suites: Optional[Sequence[str]] = None,
) -> Config:
    """Defaults, then config file, then command-line overrides."""
    cfg = Config()
    known = {f.name for f in fields(Config)}
    for key, value in (file_values or {}).items():
        if key not in known:
            raise CliError(f"unknown config key: {key}")
        if key == "suite":
            cfg.suite = _validate_suites(
                [s.strip() for s in value.split(",") if s.strip()]
            )
        elif key == "mode":
            if value not in ("diagonal", "fiberwise"):
                raise CliError("mode must be diagonal or fiberwise")
            cfg.mode = value
        elif key in ("p0", "p1", "p2", "delta"):
            setattr(cfg, key, _parse_float(key, value))
        else:
            setattr(cfg, key, _parse_int(key, value))
    if seed is not None:
        cfg.seed = seed
    if suites:
        cfg.suite = _validate_suites(suites)

    if cfg.resolution < 2:
        raise CliError("resolution too small for bitiles")
    if cfg.resolution > MAX_RESOLUTION:
        raise CliError(f"resolution above supported range ({MAX_RESOLUTION})")
    if cfg.seed < 0:
        raise CliError("seed must be non-negative")
    if cfg.trials < 0:
        raise CliError("trials must be non-negative")
    for key in ("p0", "p1", "p2"):
        if getattr(cfg, key) <= 1.0:
            raise CliError(f"exponent {key} must exceed 1")
    if cfg.L < 1:
        raise CliError("L must be at least 1")
    if cfg.a_bits < 1:
        raise CliError("a_bits must be at least 1")
    if not 0.0 < cfg.delta <= 1.0:
        raise CliError("delta must lie in (0, 1]")
    if cfg.grid < 8 or cfg.grid & (cfg.grid - 1):
        raise CliError("grid must be a power of two, at least 8")
    if cfg.grid > MAX_GRID:
        raise CliError(f"grid above supported range ({MAX_GRID})")
    return cfg


def _a_value(cfg: Config) -> float:
    # a_bits is the binary expansion of the multiplier scaled into [1, 2):
    # 3 -> 1.5, 5 -> 1.25, 7 -> 1.75, 1 -> 1.0
    return cfg.a_bits / 2.0 ** (cfg.a_bits.bit_length() - 1)


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


# -- report rows -------------------------------------------------------------

Row = Tuple[str, str, float, float, float, bool]


def _ratio(lhs: float, rhs: float) -> float:
    if lhs == 0.0 and rhs == 0.0:
        return 0.0
    if rhs == 0.0:
        return math.inf
    return lhs / rhs


def _row(suite: str, case_id: str, lhs: float, rhs: float) -> Row:
    """Hard check: passes iff lhs <= rhs."""
    lhs, rhs = float(lhs), float(rhs)
    return (suite, case_id, lhs, rhs, _ratio(lhs, rhs), lhs <= rhs)


def _probe_row(suite: str, case_id: str, lhs: float, rhs: float) -> Row:
    """Constant probe: passes iff the ratio is finite (constant exists)."""
    lhs, rhs = float(lhs), float(rhs)
    ratio = _ratio(lhs, rhs)
    return (suite, case_id, lhs, rhs, ratio, math.isfinite(ratio))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.12g" % value
    return str(value)


def _write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".walshlab-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_csv(
    path: str, header: Optional[Sequence[str]], rows: Sequence[Sequence], seed: int
) -> None:
    lines = [",".join(header)] if header else []
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    _write_bytes(path, data)
    digest = hashlib.sha256(data).hexdigest()
    _write_bytes(path + ".meta", f"seed={seed}\nsha256={digest}\n".encode())


# -- trial map ---------------------------------------------------------------


class WorkerError(RuntimeError):
    """A trial worker ended without results, or raised what cannot be pickled.

    It also carries, as the cause of a case's exception, the worker's
    traceback of it.
    """


def _run_queue(calls, tasks, fd: int, taken, w: int) -> NoReturn:
    """In a forked worker: run the cases it pulls, write one pickle to fd, exit.

    Each pull reads one 4-byte case index (every buffer of the pipe holds
    whole indices) and stores i + 1 in the worker's shared slot taken[w]
    for the parent to name if the worker dies.  At EOF the pickle is
    (None, [(i, result), ...]); the first case i that raises ends the
    pulls and sends (i, (exception, traceback text)) instead, and an
    exception that does not survive pickling goes as a `WorkerError`
    naming it.  The worker never returns into the caller.
    """
    try:
        i, results = None, []
        try:
            while index := tasks.read(4):
                i = int.from_bytes(index, "little")
                taken[w] = i + 1
                results.append((i, calls[i]()))
            data = pickle.dumps((None, results), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # the parent raises it
            import traceback  # only here: importing it costs set-up time

            where = "".join(traceback.format_exception(exc))
            try:
                data = pickle.dumps((i, (exc, where)))
                pickle.loads(data)  # some exceptions pickle but cannot be rebuilt
            except Exception:
                name = f"{type(exc).__module__}.{type(exc).__qualname__}"
                error = WorkerError(f"case {i} raised {name}: {exc}")
                data = pickle.dumps((i, (error, where)))
        tasks.close()  # a failed worker must not hold the queue open while it writes
        with open(fd, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _map_trials(calls: Sequence[Callable[[], object]]) -> list:
    """The results of `calls`, in order, computed on every CPU we may use.

    Each call is one case, a pure function of (seed, tag, index), so its
    result does not depend on where it ran.  On one CPU of this process's
    affinity mask the calls run here.  With J > 1 the parent forks J
    workers, then writes every case index, in call order, into one shared
    pipe; each worker pulls one at a time, so a slow case holds up only
    its own worker, and at EOF sends its (index, result) pairs as one
    pickle through its own pipe.  The parent runs no case: a worker starts
    without the parent's file-backed pages, so a case run here would raise
    the peak RSS of the largest process, which the benchmark reads.  As
    indices are taken in order and a worker stops at its first failure,
    the earliest failing case is raised, with its type, as on one CPU; a
    worker that ends without results raises `WorkerError` naming its case
    instead of hanging the run.
    """
    jobs = 1
    if hasattr(os, "sched_getaffinity"):  # it exists only where fork does
        jobs = min(len(os.sched_getaffinity(0)), len(calls))
    if jobs <= 1:
        return [call() for call in calls]
    taken = memoryview(mmap.mmap(-1, 4 * jobs)).cast("i")  # shared, zeroed
    r, fd = os.pipe()
    tasks, queue = open(r, "rb", buffering=0), open(fd, "wb", buffering=0)
    pids, pipes = [], []
    try:
        for w in range(jobs):
            r, fd = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    queue.close()  # so the workers see EOF once the parent closes it
                    _run_queue(calls, tasks, fd, taken, w)
            finally:
                os.close(fd)  # the parent's copy; the worker never returns here
            pids.append(pid)
        tasks.close()  # with no worker left to read, a write fails, not blocks
        data = np.arange(len(calls), dtype="<i4").tobytes()
        try:
            while data:  # blocks while the pipe is full, so fork first
                data = data[queue.write(data) :]
        except BrokenPipeError:
            pass  # every worker has ended; its pipe says how
        queue.close()
        sent = [fh.read() for fh in pipes]
    finally:
        for fh in (tasks, queue, *pipes):
            fh.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    results, failed = [None] * len(calls), []
    for w, (data, code) in enumerate(zip(sent, codes)):
        if code or not data:
            case = taken[w] - 1
            at = f" in case {case}" if case >= 0 else ""
            message = f"trial worker ended without results{at} (exit code {code})"
            failed.append((case, WorkerError(message), None))
            continue
        i, share = pickle.loads(data)
        if i is not None:
            failed.append((i, share[0], WorkerError(share[1])))
            continue
        for i, result in share:
            results[i] = result
    if failed:
        _, exc, cause = min(failed, key=lambda f: f[0])
        raise exc from cause
    return results


# -- verify suites -----------------------------------------------------------
#
# A suite runner maps (cfg, t) to the rows of case t: trial t, or for
# telescoping the t-th scale offset m = t - (K - 1).


def _suite_telescoping(cfg: Config, t: int) -> List[Row]:
    K = cfg.resolution
    m = t - (K - 1)
    kernel, target = telescoping_profile(K, m)
    dev = float(np.max(np.abs(kernel - target)))
    return [_row("telescoping", f"m{m}", dev, TOL)]


def _suite_bitile_sum(cfg: Config, t: int) -> List[Row]:
    K = cfg.resolution
    rng = _rng(cfg.seed, 2, t)
    eps = EpsilonField.random(K, rng)
    F0, F1, F2 = (uniform_cells_2d(rng, K) for _ in range(3))
    direct = lambda_direct(eps, F0, F1, F2)
    summed = lambda_bitile_sum(eps, F0, F1, F2)
    dev = abs(direct - summed) / max(1.0, abs(direct))
    return [_row("bitile_sum", f"t{t}", dev, TOL)]


def _suite_adaptedness(cfg: Config, t: int) -> List[Row]:
    K = cfg.resolution
    n = 1 << K
    rng = _rng(cfg.seed, 3, t)
    coll = random_convex_collection(rng, K)
    P = coll[int(rng.integers(len(coll)))]
    f = GridFunction1D(K, rng.normal(size=n))
    if cfg.mode == "diagonal":
        a = WalshNumber.from_float(_a_value(cfg))
        data0 = diagonal_data(f, a)
        mode = ProjectionMode.diagonal(a)
    else:
        labels = rng.integers(0, n, size=n)
        data0 = fiberwise_data(f, labels)
        mode = ProjectionMode.fiberwise(labels)
    F1 = GridFunction2D(K, rng.normal(size=(n, n)))
    F2 = GridFunction2D(K, rng.normal(size=(n, n)))
    lhs = lambda_bitile(P, data0, F1, F2)
    rhs = lambda_bitile(
        P,
        proj_collection(coll, 0, data0, mode),
        proj_collection(coll, 1, F1, mode),
        proj_collection(coll, 2, F2, mode),
    )
    dev = abs(lhs - rhs) / max(1.0, abs(lhs))
    return [_row("adaptedness", f"{cfg.mode}_t{t}", dev, TOL)]


def _suite_appendix(cfg: Config, t: int) -> List[Row]:
    K = cfg.resolution
    n = 1 << K
    rng = _rng(cfg.seed, 4, t)
    f, g, h = (GridFunction1D(K, rng.normal(size=n)) for _ in range(3))
    labels = rng.integers(0, n, size=n)
    w = random_interval_weights(K, rng)
    eps = EpsilonField.from_interval_weights(w, K)
    rows = []

    lhs = lambda_direct(eps, *substitution_modulated(f, g, labels))
    rhs = max_mod_haar(w, labels, f).inner(g)
    dev = abs(lhs - rhs) / max(1.0, abs(rhs))
    rows.append(_row("appendix", f"modulated_t{t}", dev, TOL))

    lhs = lambda_direct(eps, *substitution_endpoint(f, g, h))
    rhs = f.inner(haar_multiplier(w, g * h))
    dev = abs(lhs - rhs) / max(1.0, abs(rhs))
    rows.append(_row("appendix", f"endpoint_t{t}", dev, TOL))

    proj, coef = offset_form(w, cfg.L, f, g, h)
    dev = abs(proj - coef) / max(1.0, abs(coef))
    rows.append(_row("appendix", f"offset_routes_t{t}", dev, TOL))
    direct = lambda_direct(
        EpsilonField.from_offset_weights(w, K, cfg.L),
        *substitution_offset(f, g, h, cfg.L),
    )
    dev = abs(direct - coef) / max(1.0, abs(coef))
    rows.append(_row("appendix", f"offset_direct_t{t}", dev, TOL))
    return rows


def _certificate_case(cfg: Config, t: int):
    rng = _rng(cfg.seed, 5, t)
    K = cfg.resolution
    e = indicator_with_measure(rng, K, float(rng.uniform(0.05, 0.4)))
    F = signed_indicator(rng, e, scale=float(e.values.mean()) ** -0.5)
    slot = t % 3
    mode = None
    if slot == 1:
        mode = ProjectionMode.diagonal(WalshNumber.from_float(1.0))
    cert = select_trees(slot, all_bitiles(K), F, mode=mode, level=1 + t % 2)
    return cert, F


def _suite_certificates(cfg: Config, t: int) -> List[Row]:
    cert, F = _certificate_case(cfg, t)
    ok, report = verify_certificate(cert, F)
    return [
        _row("certificates", f"t{t}_verify", 0.0 if ok else 1.0, 0.0),
        _row("certificates", f"t{t}_counting", report["counting_worst_ratio"], 1.0),
    ]


def _replacement_case(rng, K: int, cfg: Config | None = None):
    """Normalized indicator data, trimmed middle set, and a forest.

    The config's p0, p1, p2 (default: `Config`'s) normalize the three slots,
    and p0, p2 are the exponents of the maximal functions behind the sets.
    """
    cfg = cfg or Config()
    n = 1 << K
    e0 = GridFunction2D(K, (rng.random((n, n)) < 0.25).astype(np.float64))
    e1 = GridFunction2D(K, (rng.random((n, n)) < 0.35).astype(np.float64))
    e2 = GridFunction2D(K, (rng.random((n, n)) < 0.08).astype(np.float64))
    # low threshold keeps the slot-2 set inside the directional superlevel set
    sets = exceptional_sets(e0, e1, e2, p0=cfg.p0, p2=cfg.p2, threshold=2.0)

    def normalized(e, p):
        signs = rng.choice([-1.0, 1.0], size=e.values.shape)
        scale = e.values.mean() ** (-1.0 / p) if e.values.any() else 0.0
        return GridFunction2D(K, signs * e.values * scale)

    f0 = normalized(e0, cfg.p0)
    f1 = normalized(sets.e1_prime, cfg.p1)
    f2 = normalized(e2, cfg.p2)
    # no certificate: nothing verifies this forest's counting tables
    _, _, forests = select_forests(0, admissible_bitiles(sets.b1), f0, level=2)
    return sets, f0, f1, f2, Forest.of(forests)


def _suite_replacement(cfg: Config, t: int) -> List[Row]:
    rng = _rng(cfg.seed, 6, t)
    sets, f0, f1, f2, forest = _replacement_case(rng, cfg.resolution, cfg)
    good = build_good_function(f2, forest, sets.b2)
    # the trees of a selection are disjoint: each member enters once
    dev, violations = replacement_check(forest.members, f0, f1, f2, good)
    return [
        _row("replacement", f"t{t}_identity", dev, TOL),
        _row("replacement", f"t{t}_violations", float(len(violations)), 0.0),
    ]


def _suite_lemma7r(cfg: Config, t: int) -> List[Row]:
    pairs = 50
    rng = _rng(cfg.seed, 7, t)
    failures = 0
    for _ in range(pairs):
        r, rp = lemma7r_pair(rng)
        if lemma7r_check(r, rp) is not True:
            failures += 1
    return [_row("lemma7r", f"t{t}", float(failures), 0.0)]


SUITE_RUNNERS: Dict[str, Callable[[Config, int], List[Row]]] = {
    "telescoping": _suite_telescoping,
    "bitile_sum": _suite_bitile_sum,
    "adaptedness": _suite_adaptedness,
    "appendix": _suite_appendix,
    "certificates": _suite_certificates,
    "replacement": _suite_replacement,
    "lemma7r": _suite_lemma7r,
}


def run_verify(cfg: Config, out_dir: str) -> int:
    calls = [
        partial(SUITE_RUNNERS[name], cfg, t)
        for name in cfg.suite
        for t in range(cfg.resolution if name == "telescoping" else cfg.trials)
    ]
    rows = [row for case in _map_trials(calls) for row in case]
    _emit_csv(
        os.path.join(out_dir, "verify_report.csv"), REPORT_HEADER, rows, cfg.seed
    )
    lines = []
    for name in cfg.suite:
        in_suite = [r for r in rows if r[0] == name]
        passed = sum(1 for r in in_suite if r[5])
        lines.append(f"{name}: {passed}/{len(in_suite)} passed")
    all_pass = all(r[5] for r in rows)
    lines.append("result: PASS" if all_pass else "result: FAIL")
    summary = "\n".join(lines) + "\n"
    _write_bytes(os.path.join(out_dir, "verify_summary.txt"), summary.encode())
    sys.stdout.write(summary)
    return 0 if all_pass else 1


# -- constants ---------------------------------------------------------------


def _probe_restricted(cfg: Config, t: int) -> List[Row]:
    K = cfg.resolution
    rng = _rng(cfg.seed, 11, t)
    j1 = int(rng.integers(0, 9))
    j0 = int(rng.integers(0, j1 + 1))  # a0 >= a1 keeps the log non-negative
    j2 = int(rng.integers(0, 9))
    e0, e1, e2 = measure_triple(rng, K, (j0, j1, j2))
    F0, F1, F2 = (signed_indicator(rng, e) for e in (e0, e1, e2))
    eps = EpsilonField.random(K, rng)
    a0, a1, a2 = (float(e.values.mean()) for e in (e0, e1, e2))
    lhs = abs(lambda_direct(eps, F0, F1, F2))
    rhs = math.sqrt(a1 * a2) * (1.0 + math.log2(a0 / a1))
    return [_probe_row("constants", f"restricted_t{t}_K{K}", lhs, rhs)]


def _probe_single_tree(cfg: Config, t: int) -> List[Row]:
    K = cfg.resolution
    rng = _rng(cfg.seed, 12, t)
    tree = random_tree(rng, K)
    eps = EpsilonField.random(K, rng)
    F0, F1, F2 = (uniform_cells_2d(rng, K) for _ in range(3))
    mode = ProjectionMode.diagonal(WalshNumber.from_float(1.0))
    rep = single_tree_report(tree, eps, F0, F1, F2, mode)
    return [
        _probe_row(
            "constants", f"single_tree_t{t}_K{K}", abs(rep["value"]), rep["bound"]
        )
    ]


def _probe_counting(cfg: Config, t: int) -> List[Row]:
    cert, F = _certificate_case(cfg, t)
    _, report = verify_certificate(cert, F)
    K = cfg.resolution
    return [
        _row(
            "constants", f"counting_t{t}_K{K}", report["counting_worst_ratio"], 1.0
        )
    ]


def _probe_gnorm(cfg: Config, t: int) -> List[Row]:
    K = cfg.resolution
    rng = _rng(cfg.seed, 14, t)
    sets, f0, f1, f2, forest = _replacement_case(rng, K, cfg)
    good = build_good_function(f2, forest, sets.b2)
    rep = g_norm_report(good, forest, p2=cfg.p2, p=cfg.p0 / 2.0)
    bound = rep["counting_norm"] ** rep["exponent"]
    return [
        _probe_row("constants", f"gnorm_t{t}_K{K}", rep["g_norm"] ** 2, bound)
    ]


def _dense_scales(n: int) -> Tuple[int, int]:
    # shadows span at least one grid column
    lo = max(-5, 1 - n.bit_length())
    return lo, max(-3, lo)


def _probe_cover_overlap(cfg: Config, t: int) -> List[Row]:
    rng = _rng(cfg.seed, 15, t)
    u = cone_slope_field(rng, cfg.grid, 0.3)
    family = dense_parallelograms(
        rng, u, cfg.delta, count=25, scale_range=_dense_scales(cfg.grid)
    )
    selected = family[cover_picks(family, u)[0]]
    return [
        _probe_row(
            "constants",
            f"cover_overlap_t{t}_K{cfg.grid.bit_length() - 1}",
            square_integral(selected, cfg.grid),
            sum(selected.measures.tolist()) / cfg.delta,
        )
    ]


def _probe_lk_weak(cfg: Config, t: int) -> List[Row]:
    K = min(cfg.resolution, 6)
    n = 1 << K
    rng = _rng(cfg.seed, 16, t)
    u = cone_slope_field(rng, n, 0.3)
    family = dense_parallelograms(
        rng, u, cfg.delta, count=15, scale_range=_dense_scales(n)
    )
    f = GridFunction2D(K, np.abs(rng.uniform(-1.0, 1.0, (n, n))))
    lk = lk_maximal(f, family)
    cell = 4.0 ** -K
    values, counts = np.unique(lk.values, return_counts=True)
    above = np.cumsum(counts[::-1])[::-1]  # cells where lk reaches each value
    reached = values > 0.0
    weak = float(np.max(values[reached] * np.sqrt(cell * above[reached]), initial=0.0))
    rhs = cfg.delta ** -0.5 * f.norm(2)
    return [_probe_row("constants", f"lk_weak_t{t}_K{K}", weak, rhs)]


PROBES = (
    ("restricted", _probe_restricted),
    ("single_tree", _probe_single_tree),
    ("counting", _probe_counting),
    ("gnorm", _probe_gnorm),
    ("cover_overlap", _probe_cover_overlap),
    ("lk_weak", _probe_lk_weak),
)


def _percentile(values: Sequence[float], q: float) -> float:
    """`np.percentile(values, q)` of finite values, bit for bit, without the
    `numpy.ma` import it costs: numpy 2.4's default linear method, from the
    virtual index (n - 1) * (q / 100) and its `_lerp` of the neighbours."""
    x = sorted(values)
    v = (len(x) - 1) * (q / 100)
    if v >= len(x) - 1:
        return x[-1]
    i = math.floor(v)
    a, b, t = x[i], x[i + 1], v - i
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def run_constants(cfg: Config, out_dir: str) -> int:
    T = cfg.trials
    cases = _map_trials([partial(probe, cfg, t) for _, probe in PROBES for t in range(T)])
    rows: List[Row] = []
    for i, (name, _) in enumerate(PROBES):
        produced = [row for case in cases[i * T : (i + 1) * T] for row in case]
        rows.extend(produced)
        ratios = [r[4] for r in produced]
        if not ratios:
            continue
        top = max(ratios)
        p95 = _percentile(ratios, 95) if all(map(math.isfinite, ratios)) else math.inf
        rows.append(
            ("constants", f"{name}_max", top, 1.0, top, math.isfinite(top))
        )
        rows.append(
            ("constants", f"{name}_p95", p95, 1.0, p95, math.isfinite(p95))
        )
    _emit_csv(
        os.path.join(out_dir, "constants_report.csv"),
        REPORT_HEADER,
        rows,
        cfg.seed,
    )
    return 0


# -- transform ---------------------------------------------------------------


def _read_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}")
    rows: List[List[float]] = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        values = []
        for j, part in enumerate(line.split(","), start=1):
            try:
                values.append(float(part))
            except ValueError:
                raise CliError(f"{path}: parse error at row {i}, col {j}")
        rows.append(values)
    if not rows:
        raise CliError(f"{path}: empty input")
    width = len(rows[0])
    for i, r in enumerate(rows, start=1):
        if len(r) != width:
            raise CliError(f"{path}: parse error at row {i}, col {len(r)}")
    if width & (width - 1):
        raise CliError(f"{path}: row length must be a power of two")
    return np.array(rows, dtype=np.float64)


def _as_1d(path: str, arr: np.ndarray) -> GridFunction1D:
    if arr.shape[0] != 1:
        raise CliError(f"{path}: expected a single-row function")
    return GridFunction1D(arr.shape[1].bit_length() - 1, arr[0])


def _as_2d(path: str, arr: np.ndarray) -> GridFunction2D:
    if arr.shape[0] != arr.shape[1]:
        raise CliError(f"{path}: expected a square matrix")
    return GridFunction2D(arr.shape[1].bit_length() - 1, arr)


def _expect_inputs(op: str, inputs: Sequence[str], count: int) -> None:
    if len(inputs) != count:
        raise CliError(f"operator {op} takes exactly {count} input file(s)")


def run_transform(cfg: Config, op: str, inputs: Sequence[str], out_dir: str) -> int:
    if op == "lambda":
        _expect_inputs(op, inputs, 3)
        fs = [_as_2d(p, _read_matrix(p)) for p in inputs]
        K = fs[0].resolution
        if any(f.resolution != K for f in fs):
            raise CliError("lambda inputs must share one resolution")
        value = lambda_direct(EpsilonField.constant(K), *fs)
        out = np.array([[value]])
    elif op == "haar":
        _expect_inputs(op, inputs, 1)
        f = _as_1d(inputs[0], _read_matrix(inputs[0]))
        out = haar_multiplier(
            constant_interval_weights(f.resolution), f
        ).values[None, :]
    elif op == "maxmod":
        _expect_inputs(op, inputs, 1)
        f = _as_1d(inputs[0], _read_matrix(inputs[0]))
        weights = constant_interval_weights(f.resolution)
        out = max_mod_haar_sup(weights, f).values[None, :]
    elif op == "lk":
        _expect_inputs(op, inputs, 1)
        f = _as_2d(inputs[0], _read_matrix(inputs[0]))
        rng = _rng(cfg.seed, 21)
        coarse = max(-5, 1 - f.resolution)
        family = parallelogram_ensemble(
            rng, f.resolution, count=20, scale_range=(coarse, -1)
        )
        out = lk_maximal(f, family).values
    else:  # argparse restricts choices; belt and braces
        raise CliError(f"unknown operator {op}")
    path = os.path.join(out_dir, f"transform_{op}.csv")
    rows = [[float(v) for v in row] for row in out]
    _emit_csv(path, None, rows, cfg.seed)
    return 0


# -- cover -------------------------------------------------------------------


def _cover_trial(cfg: Config, t: int) -> Tuple[List[Row], List[tuple]]:
    """Report rows and selected-parallelogram rows of cover trial t."""
    n = cfg.grid
    rng = _rng(cfg.seed, 31, t)
    kind = ("constant", "linear", "cone")[t % 3]
    if kind == "constant":
        u = SlopeField.constant(n, float(rng.uniform(-0.5, 0.5)))
    elif kind == "linear":
        u = linear_slope_field(
            n,
            float(rng.uniform(-0.3, 0.3)),
            float(rng.uniform(-0.3, 0.3)),
            float(rng.uniform(-0.3, 0.3)),
        )
    else:
        u = cone_slope_field(rng, n, 0.3)
    family = dense_parallelograms(
        rng, u, cfg.delta, count=40, scale_range=_dense_scales(n)
    )
    picks, removals = cover_picks(family, u)
    selected = family[picks]
    removed = sum(map(len, removals))
    failures = np.count_nonzero(family.densities < cfg.delta)  # as the filter measured them
    rows = [
        _row("cover", f"{kind}_t{t}_uncovered", float(len(family) - removed), 0.0),
        _row("cover", f"{kind}_t{t}_density_failures", float(failures), 0.0),
        _probe_row(
            "cover",
            f"{kind}_t{t}_square",
            square_integral(selected, n),
            sum(selected.measures.tolist()) / cfg.delta,
        ),
    ]
    selected_rows = [
        (t, int(scale), int(index), base, slope, height)
        for scale, index, base, slope, height in selected.table.tolist()
    ]
    return rows, selected_rows


def run_cover(cfg: Config, out_dir: str) -> int:
    trials = _map_trials([partial(_cover_trial, cfg, t) for t in range(cfg.trials)])
    rows = [row for trial_rows, _ in trials for row in trial_rows]
    selected_rows = [row for _, trial_selected in trials for row in trial_selected]
    _emit_csv(
        os.path.join(out_dir, "cover_report.csv"), REPORT_HEADER, rows, cfg.seed
    )
    _emit_csv(
        os.path.join(out_dir, "cover_selected.csv"),
        SELECTED_HEADER,
        selected_rows,
        cfg.seed,
    )
    return 0 if all(r[5] for r in rows) else 1


# -- entry point -------------------------------------------------------------


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument(
        "--out", metavar="DIR", default=".", help="output directory"
    )
    parser.add_argument(
        "--suite",
        metavar="NAME",
        action="append",
        help="restrict verify to one suite (repeatable)",
    )


def _keep_freed_heap() -> None:
    """Keep freed arrays up to 32 MiB in glibc's heap, trimmed to a 4 MiB pad.

    A one-CPU kernels-k8 run then takes 2,000 page faults, not 35,600, for at
    most 0.5 MB more peak RSS; where there is no `mallopt` it does nothing.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's maximum
    mallopt(-2, 4 << 20)  # M_TOP_PAD


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_heap()  # the forked trial workers inherit it
    parser = argparse.ArgumentParser(
        prog="walshlab",
        description="Exact-identity suites and constant probes on the dyadic grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("verify", "run the exact-identity suites and write a report"),
        ("constants", "probe the up-to-constant inequalities"),
        ("cover", "run covering selections over random ensembles"),
    ):
        _common_flags(sub.add_parser(name, help=doc))
    tp = sub.add_parser("transform", help="apply an operator to CSV functions")
    tp.add_argument("op", choices=("haar", "maxmod", "lambda", "lk"))
    tp.add_argument("inputs", nargs="+", metavar="CSV")
    _common_flags(tp)

    args = parser.parse_args(argv)
    try:
        file_values = _parse_config_file(args.config) if args.config else None
        cfg = build_config(file_values, seed=args.seed, suites=args.suite)
        if args.command == "verify":
            return run_verify(cfg, args.out)
        if args.command == "constants":
            return run_constants(cfg, args.out)
        if args.command == "cover":
            return run_cover(cfg, args.out)
        return run_transform(cfg, args.op, args.inputs, args.out)
    except CliError as exc:
        print(f"walshlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
