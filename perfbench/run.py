"""End-to-end and per-layer benchmark of the walshlab CLI.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Load model: a closed loop with one client.  The harness starts one CLI
process at a time (``perfbench/child.py``, which calls
``walshlab.cli.main`` from the checkout's ``src``) and starts the next only
after the previous one has exited.  The workload seed becomes the CLI's
``--seed`` and every process of a run gets the same seed and the same
generated config file, so the medians over a run's processes filter out
machine noise, not input differences.

With ``--trace 0`` a run first starts the CLI for set-up only (import, no
work) ``SETUP_PROBES`` times, then runs the workload for ``--seconds``
(it starts another process only if one more of average length still ends
in time) and reports medians over its processes:

- ``wall_s``: spawn to exit, as the harness sees it;
- ``setup_s``: spawn to entry of ``walshlab.cli.main`` (CLOCK_MONOTONIC);
- ``run_s``: time inside ``walshlab.cli.main``;
- ``peak_rss_mb``: the child's own peak RSS, from ``os.wait4``.

With ``--trace 1`` a run alternates an untraced and a traced process for
``--seconds`` and reports the per-layer metrics of
``tracer.py`` (medians over the traced processes), ``trace.overhead``
(traced over untraced ``run_s``) and ``cli.report_digest_match``.

Every process's output is checked: exit code 0, every ``pass`` cell
``true``, the (suite, case_id) list equal to the one the workload's config
implies, each ``.meta`` sidecar naming the seed and the report's sha256,
and the reports of a traced process byte-identical to the untraced one.
A process that misses any of these counts as failed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Without ``--workload`` every workload runs in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from tracer import PROBES, SUITES as ALL_SUITES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_CLI = os.path.join(ROOT, "src", "walshlab", "cli.py")
REFERENCE = os.path.join(HERE, "reference_digests.json")
SETUP_PROBES = 5

REPORT_HEADER = "suite,case_id,lhs,rhs,ratio,pass"
SELECTED_HEADER = "trial,shadow_scale,shadow_index,base_y,slope,height"
# case ids a verify suite writes per trial t
SUITE_CASES = {
    "bitile_sum": ("t{t}",),
    "adaptedness": ("diagonal_t{t}",),
    "appendix": ("modulated_t{t}", "endpoint_t{t}", "offset_routes_t{t}", "offset_direct_t{t}"),
    "certificates": ("t{t}_verify", "t{t}_counting"),
    "replacement": ("t{t}_identity", "t{t}_violations"),
    "lemma7r": ("t{t}",),
}
COVER_KINDS = ("constant", "linear", "cone")
CLI_DEFAULT_GRID = 128


@dataclass(frozen=True)
class Workload:
    command: str
    config: Dict[str, object]
    why: str

    def config_text(self) -> str:
        return "".join(
            f"{k}={','.join(v) if isinstance(v, tuple) else v}\n"
            for k, v in self.config.items()
        )

    def expected_reports(self) -> List[Tuple[str, Optional[List[Tuple[str, str]]]]]:
        """Report files and the (suite, case_id) rows each must hold, in order."""
        K = int(self.config.get("resolution", 5))
        trials = int(self.config["trials"])
        rows: List[Tuple[str, str]] = []
        if self.command == "verify":
            for suite in self.config.get("suite", ALL_SUITES):
                if suite == "telescoping":
                    rows += [(suite, f"m{m}") for m in range(-(K - 1), 1)]
                    continue
                rows += [
                    (suite, case.format(t=t))
                    for t in range(trials)
                    for case in SUITE_CASES[suite]
                ]
            return [("verify_report.csv", rows)]
        if self.command == "constants":
            grid = int(self.config.get("grid", CLI_DEFAULT_GRID))
            sizes = {"cover_overlap": grid.bit_length() - 1, "lk_weak": min(K, 6)}
            for name in PROBES:
                k = sizes.get(name, K)
                rows += [("constants", f"{name}_t{t}_K{k}") for t in range(trials)]
                rows += [("constants", f"{name}_max"), ("constants", f"{name}_p95")]
            return [("constants_report.csv", rows)]
        for t in range(trials):
            kind = COVER_KINDS[t % 3]
            rows += [
                ("cover", f"{kind}_t{t}_{what}")
                for what in ("uncovered", "density_failures", "square")
            ]
        return [("cover_report.csv", rows), ("cover_selected.csv", None)]


# Each optimisable layer group does most of its work in one workload and
# little in another, so a gain in one layer shows on one workload and must
# leave the others unchanged.  verify-k6 leaves out the adaptedness suite:
# one of its trials takes 0.02 s to 7 s at K=6, depending on the scale of
# the random collection's top, so its total follows the seed, not the code.
WORKLOADS: Dict[str, Workload] = {
    "verify-k6": Workload(
        "verify",
        {
            "resolution": 6,
            "trials": 4,
            "suite": tuple(s for s in ALL_SUITES if s != "adaptedness"),
        },
        "verify at K=6 minus adaptedness (its cost per seed is heavy-tailed): bitile order, selection and mfcz on N=2016 pools",
    ),
    "constants-k5": Workload(
        "constants",
        {"resolution": 5, "trials": 48},
        "constants at K=5: many small pools (N=496), so the fixed cost per call dominates",
    ),
    "kernels-k8": Workload(
        "verify",
        {"resolution": 8, "trials": 2, "suite": ("telescoping", "bitile_sum", "appendix")},
        "verify telescoping, bitile_sum, appendix at K=8: the trilinear kernel and FWHT, no bitile order",
    ),
    "cover-g256": Workload(
        "cover",
        {"grid": 256, "trials": 96},
        "cover on a 256 grid: greedy covering, no bitiles",
    ),
}


# -- output check --------------------------------------------------------------


def check_report(
    path: str, seed: int, expected: Optional[List[Tuple[str, str]]]
) -> Tuple[List[str], Optional[str]]:
    """Problems found in one CSV report and its .meta, and the report's sha256."""
    name = os.path.basename(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path + ".meta", "rb") as fh:
            meta = fh.read()
    except OSError as exc:
        return [f"{name}: {exc.strerror or exc}"], None
    digest = hashlib.sha256(data).hexdigest()
    problems = []
    if meta != f"seed={seed}\nsha256={digest}\n".encode():
        problems.append(f"{name}.meta does not match seed {seed} and the report digest")
    lines = data.decode("utf-8", errors="replace").splitlines()
    if expected is None:
        if not lines or lines[0] != SELECTED_HEADER:
            problems.append(f"{name}: bad header")
        return problems, digest
    if not lines or lines[0] != REPORT_HEADER:
        return problems + [f"{name}: bad header"], digest
    cells = [line.split(",") for line in lines[1:]]
    if any(len(c) != 6 for c in cells):
        return problems + [f"{name}: row without 6 cells"], digest
    failing = [c[1] for c in cells if c[5] != "true"]
    if failing:
        problems.append(f"{name}: pass is not true for {', '.join(failing[:5])}")
    if [(c[0], c[1]) for c in cells] != expected:
        problems.append(f"{name}: case ids differ from the reference")
    return problems, digest


def check_outputs(wl: Workload, seed: int, out_dir: str) -> Tuple[List[str], Dict[str, str]]:
    problems: List[str] = []
    digests: Dict[str, str] = {}
    for fname, expected in wl.expected_reports():
        found, digest = check_report(os.path.join(out_dir, fname), seed, expected)
        problems += found
        if digest:
            digests[fname] = digest
    return problems, digests


# -- processes -------------------------------------------------------------------


@dataclass
class Sample:
    rc: int
    wall_s: float
    setup_s: float
    run_s: float = 0.0
    peak_rss_mb: float = 0.0
    stamp: dict = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)


def spawn(work: str, flags: List[str], cli_args: List[str]) -> Sample:
    """Run child.py once and wait for it; times come from CLOCK_MONOTONIC."""
    stamp_path = os.path.join(work, "stamp.json")
    if os.path.exists(stamp_path):
        os.unlink(stamp_path)
    argv = [sys.executable, os.path.join(HERE, "child.py"), stamp_path, *flags, "--", *cli_args]
    with open(os.path.join(work, "child.log"), "wb") as log:
        start = time.monotonic_ns()
        proc = subprocess.Popen(argv, cwd=work, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(proc.returncode, (end - start) / 1e9, 0.0)
    sample.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    try:
        with open(stamp_path, encoding="utf-8") as fh:
            stamp = json.load(fh)
    except (OSError, ValueError):
        with open(os.path.join(work, "child.log"), "rb") as fh:
            tail = fh.read()[-400:].decode("utf-8", errors="replace").strip()
        sample.problems.append(f"no timestamps from the child (exit {proc.returncode}): {tail}")
        return sample
    sample.stamp = stamp
    sample.setup_s = (stamp["main_ns"] - start) / 1e9
    if "end_ns" in stamp:
        sample.run_s = (stamp["end_ns"] - stamp["main_ns"]) / 1e9
    return sample


def run_cli(wl: Workload, seed: int, work: str, traced: bool) -> Sample:
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    cli_args = [wl.command, "--config", os.path.join(work, "workload.cfg"), "--seed", str(seed), "--out", out]
    sample = spawn(work, ["--trace"] if traced else [], cli_args)
    if sample.rc != 0:
        sample.problems.append(f"exit code {sample.rc}")
    if sample.stamp:
        problems, sample.digests = check_outputs(wl, seed, out)
        sample.problems += problems
    return sample


# -- result ------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(os.path.join(ROOT, ".git", ref)).strip()
        if not sha:
            for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unavailable (not a git checkout)"


def header_lines(wl_name: str, seed: int, probe: dict) -> List[str]:
    cpu = next(
        (l.split(":", 1)[1].strip() for l in _read("/proc/cpuinfo").splitlines() if l.startswith("model name")),
        "unknown",
    )
    mem = next((l.split()[1] for l in _read("/proc/meminfo").splitlines() if l.startswith("MemTotal")), "0")
    path = "numba" if probe.get("using_numba") else "numpy"
    return [
        f"# workload={wl_name} seed={seed} commit={git_commit()}",
        f"# nproc={os.cpu_count()} cpu={cpu} ram_gb={int(mem) / 2**20:.1f}",
        f"# python={sys.version.split()[0]} numpy={probe.get('numpy')} blas={probe.get('blas')}"
        f" blas_threads={probe.get('blas_threads')}",
        f"# walshlab._kernels.USING_NUMBA={probe.get('using_numba')}: every number is the {path} kernel path",
    ]


def _describe(i: int, s: Sample, traced: bool = False) -> str:
    kind = "traced" if traced else "run"
    digests = " ".join(f"{f}={d[:16]}" for f, d in sorted(s.digests.items()))
    status = "ok" if not s.problems else "FAILED: " + "; ".join(s.problems)
    return (
        f"{kind} {i}: wall_s={s.wall_s:.4f} setup_s={s.setup_s:.4f} run_s={s.run_s:.4f}"
        f" peak_rss_mb={s.peak_rss_mb:.1f} sha256 {digests} {status}"
    )


def _reference(wl_name: str, seed: int) -> Optional[Dict[str, str]]:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            table = json.load(fh)
    except (OSError, ValueError):
        return None
    return table.get(wl_name, {}).get(str(seed))


def run_workload(wl_name: str, seed: int, seconds: float, trace: bool, work: str) -> dict:
    wl = WORKLOADS[wl_name]
    os.makedirs(work, exist_ok=True)
    with open(os.path.join(work, "workload.cfg"), "w", encoding="utf-8") as fh:
        fh.write(wl.config_text())

    probes = [spawn(work, ["--setup-only"], []) for _ in range(SETUP_PROBES)]
    bad = [p for p in probes if p.rc != 0 or not p.stamp]
    if bad:
        print(f"set-up probe failed: {'; '.join(bad[0].problems) or bad[0].rc}", flush=True)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    for line in header_lines(wl_name, seed, probes[0].stamp):
        print(line, flush=True)
    print(f"# load: closed loop, 1 client; seconds={seconds:g} trace={int(trace)} config: "
          + wl.config_text().strip().replace("\n", " "), flush=True)

    runs: List[Sample] = []
    traced: List[Sample] = []
    start = time.monotonic()
    # start another round only if one more, at the mean round time so far,
    # still ends within the run
    while not runs or (time.monotonic() - start) * (len(runs) + 1) / len(runs) <= seconds:
        s = run_cli(wl, seed, work, traced=False)
        runs.append(s)
        print(_describe(len(runs) - 1, s), flush=True)
        if trace:
            t = run_cli(wl, seed, work, traced=True)
            if not t.problems and t.digests != s.digests:
                t.problems.append("traced reports differ from the untraced reports")
            traced.append(t)
            print(_describe(len(traced) - 1, t, traced=True), flush=True)
    # identical inputs must give identical reports in every process of a run
    first = runs[0].digests
    for s in runs[1:] + traced:
        if not s.problems and s.digests != first:
            s.problems.append("reports differ between processes with the same seed")

    samples = runs + traced
    failed = sum(1 for s in samples if s.problems)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed}
    print(f"failed_frac = {failed}/{len(samples)} = {failed / len(samples):.4f} (fraction)", flush=True)
    if not trace:
        setups = [p.setup_s for p in probes] + [s.setup_s for s in runs]
        metrics = {
            "wall_s": (statistics.median(s.wall_s for s in runs), "s"),
            "run_s": (statistics.median(s.run_s for s in runs), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in runs), "MB"),
        }
    else:
        metrics = layer_result(wl_name, seed, runs, traced)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}", flush=True)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("accept_ratio", "per_step", "overhead")):
        return "ratio"
    return "count"


def layer_result(wl_name: str, seed: int, runs: List[Sample], traced: List[Sample]) -> dict:
    layers = [t.stamp.get("layers") for t in traced if t.stamp.get("layers")]
    if not layers:
        return {}
    missing = sorted({m for t in traced for m in t.stamp.get("missing", [])})
    if missing:
        print(f"trace: no binding found for {', '.join(missing)}", flush=True)
    out = {
        name: (statistics.median(layer[name] for layer in layers), _unit(name))
        for name in layers[0]
    }
    out["trace.errors"] = (sum(layer["trace.errors"] for layer in layers), "count")
    out["trace.overhead"] = (
        statistics.median(t.run_s for t in traced) / statistics.median(s.run_s for s in runs),
        "ratio",
    )
    reference = _reference(wl_name, seed)
    if reference is None:
        print(f"cli.report_digest_match: no reference digests for {wl_name} seed {seed}", flush=True)
    matches = sum(1 for s in runs + traced if reference and s.digests == reference)
    out["cli.report_digest_match"] = (matches, "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="walshlab CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(SRC_CLI):
        print(f"perfbench: walshlab sources not found at {SRC_CLI}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        work = os.path.join(ROOT, ".perfbench_work", name)
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(os.path.dirname(work))
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
