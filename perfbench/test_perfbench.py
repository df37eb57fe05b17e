"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import walshlab  # noqa: E402
from walshlab import cli, covering, ensembles, selection, tiles, triform  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402


# -- self time -------------------------------------------------------------------


def test_self_time_of_nested_spans():
    now = [0]
    rec = tracer.Recorder(clock=lambda: now[0])

    def tick(n):
        now[0] += n

    leaf = rec.wrap("leaf", lambda: tick(5))
    mid = rec.wrap("mid", lambda: (tick(2), leaf(), tick(3)))
    top = rec.wrap("top", lambda: (tick(1), mid(), leaf(), tick(4)))
    top()
    # top: 1 + mid(2 + 5 + 3) + leaf(5) + 4 = 20, children cover 15
    assert rec.stats["top"] == [1, 5, 20]
    assert rec.stats["mid"] == [1, 5, 10]
    assert rec.stats["leaf"] == [2, 10, 10]
    assert rec.edges[("top", "leaf")] == 1 and rec.edges[("mid", "leaf")] == 1


def test_span_that_raises_is_counted_and_closed():
    now = [0]
    rec = tracer.Recorder(clock=lambda: now[0])

    def boom():
        now[0] += 7
        raise ValueError("x")

    inner = rec.wrap("inner", boom)

    def body():
        now[0] += 1
        with pytest.raises(ValueError):
            inner()

    rec.wrap("outer", body)()
    assert rec.errors == 1
    assert rec.stats["inner"] == [1, 7, 7]
    assert rec.stats["outer"] == [1, 1, 8]


# -- installing the spans ----------------------------------------------------------


def _bindings():
    mods = [getattr(walshlab, m) for m in tracer.MODULES]
    return (
        [dict(vars(m)) for m in mods],
        dict(cli.SUITE_RUNNERS),
        cli.PROBES,
    )


def test_wrappers_bind_in_callers_and_are_removed():
    before = _bindings()
    with tracer.Tracer(walshlab) as t:
        # caller-bound names are wrapped where they are bound ...
        assert cli.select_trees.__wrapped__ is selection.select_trees
        assert ensembles.le.__wrapped__ is tiles.le
        assert triform.triform_scale_sum.__wrapped__ is walshlab._kernels.triform_scale_sum
        # ... and the home module keeps its own hot loops unwrapped
        assert not hasattr(tiles.le, "__wrapped__")
        assert not hasattr(selection.select_trees, "__wrapped__")
        # lazily imported names are guarded on their home module
        assert covering.density.__wrapped__ is not None
        assert triform.lambda_tree.__wrapped__ is not None
        assert t.missing == []
    after = _bindings()
    assert after[0] == before[0]
    assert after[1] == before[1]
    assert after[2] is before[2]


def test_lazy_imports_are_spanned_only_across_modules():
    rng = np.random.default_rng(0)
    with tracer.Tracer(walshlab) as t:
        u = cli.cone_slope_field(rng, 16, 0.3)
        family = cli.dense_parallelograms(rng, u, 0.5, count=3, scale_range=(-3, -2))
        spans_after_dense = t.recorder.stats["covering.density"][0]
        # greedy_cover calls density inside covering: no span
        covering.greedy_cover(family, u, 0.5)
        assert t.recorder.stats["covering.density"][0] == spans_after_dense

        tree = ensembles.random_tree(rng, 3)
        eps = triform.EpsilonField.random(3, rng)
        F = [ensembles.uniform_cells_2d(rng, 3) for _ in range(3)]
        mode = tiles.ProjectionMode.diagonal(walshlab.WalshNumber.from_float(1.0))
        selection.single_tree_report(tree, eps, *F, mode)
    rec = t.recorder
    assert spans_after_dense >= 3
    assert rec.edges[("ensembles.dense_parallelograms", "covering.density")] == spans_after_dense
    assert rec.stats["triform.lambda_tree"][0] == 1
    metrics = tracer.layer_metrics(rec)
    assert 0 < metrics["ensembles.dense_parallelograms.accept_ratio"] <= 1


def _cli(args):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def test_traced_cli_run_reports_layers(tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("resolution=3\ntrials=1\nsuite=certificates,bitile_sum\n")
    with tracer.Tracer(walshlab) as t:
        assert _cli(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    m = tracer.layer_metrics(t.recorder)
    assert m["selection.select_trees.calls"] == 1
    assert m["selection.pool_size"] > 0
    assert m["selection.score_passes"] >= 2
    assert m["cli.suite.certificates.total_s"] >= m["selection.select_trees.self_s"]
    assert m["kernels.triform_scale_sum.terms"] > 0
    assert m["trace.errors"] == 0


# -- output check ----------------------------------------------------------------------


def _produce(tmp_path, wl, seed=3):
    cfg = tmp_path / "w.cfg"
    cfg.write_text(wl.config_text())
    out = tmp_path / "out"
    _cli([wl.command, "--config", str(cfg), "--seed", str(seed), "--out", str(out)])
    return str(out)


@pytest.mark.parametrize(
    "wl",
    [
        run.Workload("verify", {"resolution": 3, "trials": 2}, ""),
        run.Workload("constants", {"resolution": 3, "trials": 1, "grid": 16}, ""),
        run.Workload("cover", {"grid": 16, "trials": 4}, ""),
    ],
)
def test_expected_case_ids_match_the_cli(tmp_path, wl):
    out = _produce(tmp_path, wl)
    problems, digests = run.check_outputs(wl, 3, out)
    assert problems == []
    assert set(digests) == {f for f, _ in wl.expected_reports()}


def test_check_rejects_one_flipped_pass_cell(tmp_path):
    wl = run.Workload("verify", {"resolution": 3, "trials": 1, "suite": ("bitile_sum", "lemma7r")}, "")
    out = _produce(tmp_path, wl)
    path = os.path.join(out, "verify_report.csv")
    data = open(path, "rb").read()
    flipped = data.replace(b",true\n", b",false\n", 1)
    assert flipped != data
    with open(path, "wb") as fh:
        fh.write(flipped)
    with open(path + ".meta", "w") as fh:  # keep the sidecar consistent
        fh.write(f"seed=3\nsha256={hashlib.sha256(flipped).hexdigest()}\n")
    problems, _ = run.check_outputs(wl, 3, out)
    assert len(problems) == 1 and "pass is not true" in problems[0]


def test_check_rejects_wrong_case_ids_and_stale_meta(tmp_path):
    wl = run.Workload("verify", {"resolution": 3, "trials": 1, "suite": ("lemma7r",)}, "")
    out = _produce(tmp_path, wl)
    longer = run.Workload("verify", {"resolution": 3, "trials": 2, "suite": ("lemma7r",)}, "")
    problems, _ = run.check_outputs(longer, 3, out)
    assert any("case ids" in p for p in problems)
    problems, _ = run.check_outputs(wl, 4, out)
    assert any(".meta" in p for p in problems)
