"""The benchmark's span tracer installs on the CLI, runs it and leaves no trace.

`perfbench/tracer.py` patches the package's cross-module bindings, the
suite runners and the probes.  A run of each subcommand under it must
exit as it does untraced, and removing it must restore every binding.
The tracer is read from the checkout; nothing under `perfbench/` changes.
"""

import importlib.util
from pathlib import Path

import pytest

import walshlab
from walshlab import cli

TRACER = Path(walshlab.__file__).resolve().parents[2] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("walshlab_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer):
    mods = [getattr(walshlab, m) for m in tracer.MODULES]
    return [dict(vars(m)) for m in mods], dict(cli.SUITE_RUNNERS), cli.PROBES


def test_traced_commands_exit_zero_and_every_binding_is_restored(tracer, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("resolution=3\ntrials=2\ngrid=16\n")
    before = bindings(tracer)
    t = tracer.Tracer(walshlab).install()
    try:
        assert all(hasattr(fn, "__wrapped__") for fn in cli.SUITE_RUNNERS.values())
        assert all(hasattr(fn, "__wrapped__") for _, fn in cli.PROBES)
        for command in ("verify", "constants", "cover"):
            args = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
            assert cli.main(args) == 0, command
    finally:
        t.uninstall()
    assert t.recorder.errors == 0
    modules, runners, probes = bindings(tracer)
    for got, want in zip(modules, before[0]):
        assert got.keys() == want.keys()
        assert all(got[name] is want[name] for name in want)
    assert runners.keys() == before[1].keys()
    assert all(runners[s] is before[1][s] for s in runners)
    assert probes is before[2]
