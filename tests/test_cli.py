"""Command line harness: config handling, reports, transforms, exit codes."""

import ctypes
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

from walshlab import cli, selection
from walshlab.cli import CliError, build_config, main
from walshlab.gridfn import GridFunction2D
from walshlab.mfcz import admissible_bitiles
from walshlab.selection import Tree
from walshlab.triform import EpsilonField, lambda_direct
from walshlab.wavelets import walsh_fn


KERNELS_K8 = "resolution=8\ntrials=2\nsuite=telescoping,bitile_sum,appendix\n"
VERIFY_K6 = (
    "resolution=6\ntrials=4\n"
    "suite=telescoping,bitile_sum,appendix,certificates,replacement,lemma7r\n"
)


def write_config(tmp_path, text, name="cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = build_config()
        assert cfg.resolution == 5
        assert cfg.seed == 1
        assert cfg.suite == cli.SUITE_NAMES

    def test_file_values_and_overrides(self):
        cfg = build_config(
            {"resolution": "4", "trials": "3", "mode": "fiberwise"},
            seed=99,
            suites=["telescoping", "appendix"],
        )
        assert cfg.resolution == 4
        assert cfg.trials == 3
        assert cfg.mode == "fiberwise"
        assert cfg.seed == 99
        assert cfg.suite == ("telescoping", "appendix")

    def test_unknown_key(self):
        with pytest.raises(CliError, match="unknown config key: wibble"):
            build_config({"wibble": "1"})

    def test_resolution_floor(self):
        with pytest.raises(CliError, match="resolution too small for bitiles"):
            build_config({"resolution": "1"})

    def test_resolution_ceiling(self):
        with pytest.raises(CliError, match="above supported range"):
            build_config({"resolution": "9"})

    def test_grid_ceiling(self):
        assert build_config({"grid": "8192"}).grid == 8192
        with pytest.raises(CliError, match=r"above supported range \(8192\)"):
            build_config({"grid": "16384"})

    def test_bad_integer(self):
        with pytest.raises(CliError, match="needs an integer"):
            build_config({"trials": "three"})

    def test_bad_mode(self):
        with pytest.raises(CliError, match="diagonal or fiberwise"):
            build_config({"mode": "sideways"})

    def test_bad_delta(self):
        with pytest.raises(CliError, match="delta"):
            build_config({"delta": "1.5"})

    def test_bad_suite(self):
        with pytest.raises(CliError, match="unknown suite"):
            build_config({"suite": "telescoping,nosuch"})

    def test_comments_and_blanks(self, tmp_path):
        path = write_config(tmp_path, "# comment\n\nresolution = 4\n")
        assert cli._parse_config_file(path) == {"resolution": "4"}

    def test_missing_equals(self, tmp_path):
        path = write_config(tmp_path, "resolution 4\n")
        with pytest.raises(CliError, match="expected key=value"):
            cli._parse_config_file(path)

    @pytest.mark.parametrize(
        "bits,value", [(1, 1.0), (3, 1.5), (5, 1.25), (7, 1.75)]
    )
    def test_a_bits_scaling(self, bits, value):
        cfg = build_config({"a_bits": str(bits)})
        assert cli._a_value(cfg) == value


def run_main(args):
    return main([str(a) for a in args])


def src_env():
    """The environment with this checkout's package first on the path."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


SMALL = "resolution=3\ntrials=1\ngrid=32\n"


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL)
        assert run_main(["verify", "--config", cfg, "--out", tmp_path]) == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        report = (tmp_path / "verify_report.csv").read_text()
        lines = report.strip().split("\n")
        assert lines[0] == "suite,case_id,lhs,rhs,ratio,pass"
        assert all(line.endswith("true") for line in lines[1:])
        assert (tmp_path / "verify_summary.txt").exists()

    def test_meta_sidecar(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        run_main(["verify", "--config", cfg, "--out", tmp_path, "--seed", 11])
        data = (tmp_path / "verify_report.csv").read_bytes()
        meta = (tmp_path / "verify_report.csv.meta").read_text()
        assert f"seed=11\n" in meta
        assert hashlib.sha256(data).hexdigest() in meta

    def test_deterministic_per_seed(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            run_main(["verify", "--config", cfg, "--out", out, "--seed", 5])
        assert (a / "verify_report.csv").read_bytes() == (
            b / "verify_report.csv"
        ).read_bytes()

    def test_suite_flag_restricts(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        run_main(
            ["verify", "--config", cfg, "--out", tmp_path, "--suite", "telescoping"]
        )
        body = (tmp_path / "verify_report.csv").read_text().strip().split("\n")[1:]
        assert body and all(line.startswith("telescoping,") for line in body)

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        bad = lambda cfg, t: [cli._row("telescoping", "forced", 1.0, 0.0)]
        monkeypatch.setitem(cli.SUITE_RUNNERS, "telescoping", bad)
        cfg = write_config(tmp_path, SMALL)
        code = run_main(
            ["verify", "--config", cfg, "--out", tmp_path, "--suite", "telescoping"]
        )
        assert code == 1

    def test_k1_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "resolution=1\n")
        assert run_main(["verify", "--config", cfg, "--out", tmp_path]) == 2
        assert "resolution too small for bitiles" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, config, seed, digest",
        [
            # the verify-k6 and kernels-k8 benchmark workloads on seed 0
            (
                "verify",
                VERIFY_K6,
                0,
                "5b95b69abe11f9ffd0e1b5f70d1e47ee13f93181a96e2ec509aa6ea9c649c9ae",
            ),
            # verify-k6 and constants-k5 on more seeds: the bitile order's bits
            (
                "verify",
                VERIFY_K6,
                1,
                "1e0ddd6e3451f361ba7b9b02898528ef48a4921491527f100a5ade6027d4767b",
            ),
            (
                "verify",
                VERIFY_K6,
                3,
                "1a45bca4f5c4f9df90ee5022bb28bb8168575fe0186053ea896b6f6a844e61c1",
            ),
            (
                "constants",
                "resolution=5\ntrials=48\n",
                1,
                "c1def2d716abe76721db81d3364459569276e1d520c1466b47c72c685110a58a",
            ),
            (
                "verify",
                KERNELS_K8,
                0,
                "9082bc4f8624f5841948269f7470614775e1f7caa9f9d2a010cb4d05417d390e",
            ),
            # kernels-k8 on more seeds: the trilinear kernels' bits
            (
                "verify",
                KERNELS_K8,
                1,
                "bca086ebc902c3b1095ea16386c9e24130eac243be6f0500c371b54312bf3eff",
            ),
            (
                "verify",
                KERNELS_K8,
                3,
                "e17ef695aa93159a6888f9657f04d4aba93e56454356933598a0a06f20fda78f",
            ),
            # the adaptedness suite, which no benchmark workload runs
            (
                "verify",
                "resolution=6\ntrials=2\nsuite=adaptedness\nmode=diagonal\na_bits=3\n",
                0,
                "45350c9b4181c9b3a4c5a53f1600feb383dd446152d7adc46a899c94ca51bffc",
            ),
            (
                "verify",
                "resolution=6\ntrials=2\nsuite=adaptedness\nmode=fiberwise\n",
                0,
                "e8e533799cea142f3b5d4609bf847145c68a4ee7d246e34a606f8012bdc1ae28",
            ),
        ],
        ids=[
            "verify-k6",
            "verify-k6-seed1",
            "verify-k6-seed3",
            "constants-k5-seed1",
            "kernels-k8",
            "kernels-k8-seed1",
            "kernels-k8-seed3",
            "adaptedness-diagonal",
            "adaptedness-fiberwise",
        ],
    )
    def test_benchmark_reports_pinned(self, tmp_path, command, config, seed, digest):
        cfg = write_config(tmp_path, config)
        assert run_main([command, "--config", cfg, "--seed", seed, "--out", tmp_path]) == 0
        data = (tmp_path / f"{command}_report.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "case",
    [
        cli.SUITE_RUNNERS["certificates"],
        cli.SUITE_RUNNERS["replacement"],
        dict(cli.PROBES)["counting"],
        dict(cli.PROBES)["gnorm"],
    ],
)
def test_forest_cases_build_no_tree(case, monkeypatch):
    # forests reach verify_certificate, the replacement and its norm bound as rows
    def no_tree(tree):
        raise AssertionError("a Tree was built")

    monkeypatch.setattr(Tree, "__post_init__", no_tree)
    for t in range(3):
        assert case(cli.Config(resolution=5, seed=3), t)


@pytest.mark.parametrize(
    "case", [cli.SUITE_RUNNERS["replacement"], dict(cli.PROBES)["gnorm"]]
)
def test_replacement_cases_build_no_counting_tables(case, monkeypatch):
    # nothing verifies the replacement forest, so it needs no certificate
    def no_tables(*args):
        raise AssertionError("counting tables built")

    monkeypatch.setattr(selection, "_counting_tables", no_tables)
    for t in range(3):
        assert case(cli.Config(resolution=5, seed=3), t)


def test_replacement_forest_is_the_certificates_forest():
    for t in range(3):
        sets, f0, _, _, forest = cli._replacement_case(cli._rng(3, 6, t), 5)
        cert = selection.select_trees(0, admissible_bitiles(sets.b1), f0, level=2)
        assert forest == cert.trees and len(forest) > 0


class TestConstants:
    def test_zero_trials_header_only(self, tmp_path):
        cfg = write_config(tmp_path, "trials=0\n")
        assert run_main(["constants", "--config", cfg, "--out", tmp_path]) == 0
        report = (tmp_path / "constants_report.csv").read_text()
        assert report == "suite,case_id,lhs,rhs,ratio,pass\n"

    def test_summary_rows_present(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        run_main(["constants", "--config", cfg, "--out", tmp_path])
        report = (tmp_path / "constants_report.csv").read_text()
        for probe in ("restricted", "single_tree", "counting", "gnorm"):
            assert f"{probe}_max" in report
            assert f"{probe}_p95" in report
        # the counting certificate is exact, constant included
        for line in report.strip().split("\n")[1:]:
            if line.split(",")[1].startswith("counting_t"):
                assert line.endswith("true")

    def test_exponents_reach_the_replacement_case(self):
        # p2 normalizes the slot-2 data and is the directional maximal
        # function's exponent, so the replacement's squared norm follows it
        def gnorm_lhs(p2):
            cfg = build_config({"resolution": "5", "p2": p2})
            return [cli._probe_gnorm(cfg, t)[0][2] for t in range(4)]

        assert gnorm_lhs("1.5") != gnorm_lhs(repr(4.0 / 3.0))

    def test_benchmark_reports_match_reference_digests(self, tmp_path):
        # the constants-k5 benchmark workload on seed 0, against the digests
        # the benchmark harness checks every process's reports with
        ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference_digests.json"
        want = json.loads(ref.read_text())["constants-k5"]["0"]
        cfg = write_config(tmp_path, "resolution=5\ntrials=48\n")
        assert run_main(["constants", "--config", cfg, "--seed", 0, "--out", tmp_path]) == 0
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in want
        }
        assert got == want
        assert set(want) == {"constants_report.csv"}


def write_matrix(path, arr):
    np.savetxt(path, np.atleast_2d(arr), delimiter=",", fmt="%.12g")
    return str(path)


class TestTransform:
    def test_haar_identity_on_stored_haar(self, tmp_path):
        # unit weights reproduce a pure Haar function exactly
        src = write_matrix(tmp_path / "h.csv", walsh_fn(1, 3).values)
        assert run_main(["transform", "haar", src, "--out", tmp_path]) == 0
        out = np.loadtxt(tmp_path / "transform_haar.csv", delimiter=",")
        np.testing.assert_allclose(out, walsh_fn(1, 3).values, atol=1e-12)

    def test_maxmod_dominates_plain_multiplier(self, tmp_path):
        rng = np.random.default_rng(2)
        f = rng.normal(size=8)
        src = write_matrix(tmp_path / "f.csv", f)
        run_main(["transform", "haar", src, "--out", tmp_path])
        run_main(["transform", "maxmod", src, "--out", tmp_path])
        plain = np.loadtxt(tmp_path / "transform_haar.csv", delimiter=",")
        best = np.loadtxt(tmp_path / "transform_maxmod.csv", delimiter=",")
        assert np.all(best >= np.abs(plain) - 1e-12)

    @pytest.mark.parametrize(
        "op, digest",
        [
            ("maxmod", "ee98f954da50d2b722363436bcc3318c08144f4d2cc483fb7abb59f46bf09b7d"),
            ("lk", "9e2611a472fb3105c320571d7ae08742b6d8bce145615e202addb69782b1a0fd"),
        ],
    )
    def test_output_bytes_pinned(self, tmp_path, op, digest):
        # pinned output bytes on a fixed input: any change in either
        # operator's arithmetic or summation order shows here
        rng = np.random.default_rng(12)
        inputs = {"maxmod": rng.normal(size=32), "lk": np.abs(rng.normal(size=(16, 16)))}
        src = write_matrix(tmp_path / f"{op}.csv", inputs[op])
        assert run_main(["transform", op, src, "--out", tmp_path]) == 0
        data = (tmp_path / f"transform_{op}.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_lambda_matches_direct_evaluation(self, tmp_path):
        rng = np.random.default_rng(3)
        K = 3
        mats = [rng.normal(size=(8, 8)) for _ in range(3)]
        srcs = [
            write_matrix(tmp_path / f"m{i}.csv", m) for i, m in enumerate(mats)
        ]
        assert run_main(["transform", "lambda", *srcs, "--out", tmp_path]) == 0
        got = float(np.loadtxt(tmp_path / "transform_lambda.csv", delimiter=","))
        want = lambda_direct(
            EpsilonField.constant(K), *(GridFunction2D(K, m) for m in mats)
        )
        assert got == pytest.approx(want, rel=1e-10)

    def test_lk_output_shape(self, tmp_path):
        rng = np.random.default_rng(4)
        src = write_matrix(tmp_path / "f.csv", np.abs(rng.normal(size=(16, 16))))
        assert run_main(["transform", "lk", src, "--out", tmp_path]) == 0
        out = np.loadtxt(tmp_path / "transform_lk.csv", delimiter=",")
        assert out.shape == (16, 16)

    def test_missing_file(self, tmp_path, capsys):
        code = run_main(
            ["transform", "haar", tmp_path / "nope.csv", "--out", tmp_path]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_cell_reports_position(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text("1,2\n3,oops\n")
        assert run_main(["transform", "haar", src, "--out", tmp_path]) == 2
        assert "row 2, col 2" in capsys.readouterr().err

    def test_ragged_rows_rejected(self, tmp_path):
        src = tmp_path / "ragged.csv"
        src.write_text("1,2\n3\n")
        assert run_main(["transform", "haar", src, "--out", tmp_path]) == 2

    def test_non_power_of_two_width(self, tmp_path, capsys):
        src = tmp_path / "w3.csv"
        src.write_text("1,2,3\n")
        assert run_main(["transform", "haar", src, "--out", tmp_path]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_wrong_input_count(self, tmp_path):
        src = write_matrix(tmp_path / "f.csv", np.ones(8))
        assert run_main(["transform", "lambda", src, "--out", tmp_path]) == 2


class TestTopResolution:
    def test_certificates_at_k8_fit_in_memory(self, tmp_path):
        # a dense order over the 32640 bitiles of K = 8 needs about 8 GiB
        cfg = write_config(tmp_path, "resolution=8\ntrials=1\n")
        with open(tmp_path / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "walshlab.cli", "verify", "--config", cfg,
                 "--suite", "certificates", "--out", str(tmp_path)],
                env=src_env(),
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)  # the child's own peak RSS
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, (tmp_path / "stderr.txt").read_text()
        assert usage.ru_maxrss < 1024 * 1024  # kilobytes: under 1 GB
        summary = (tmp_path / "verify_summary.txt").read_text()
        assert "certificates: 2/2 passed" in summary


class TestCover:
    def test_zero_trials_empty_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "trials=0\ngrid=32\n")
        assert run_main(["cover", "--config", cfg, "--out", tmp_path]) == 0
        assert (
            tmp_path / "cover_report.csv"
        ).read_text() == "suite,case_id,lhs,rhs,ratio,pass\n"
        selected = (tmp_path / "cover_selected.csv").read_text()
        assert selected == ",".join(cli.SELECTED_HEADER) + "\n"

    def test_small_run(self, tmp_path):
        cfg = write_config(tmp_path, "trials=3\ngrid=32\ndelta=0.5\n")
        assert run_main(["cover", "--config", cfg, "--out", tmp_path]) == 0
        report = (tmp_path / "cover_report.csv").read_text().strip().split("\n")
        kinds = {line.split(",")[1].split("_")[0] for line in report[1:]}
        assert kinds == {"constant", "linear", "cone"}
        for line in report[1:]:
            if "_uncovered" in line:
                assert line.split(",")[2] == "0"

    def test_benchmark_reports_match_reference_digests(self, tmp_path):
        # the cover-g256 benchmark workload on seed 0, against the digests
        # the benchmark harness checks every process's reports with
        ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference_digests.json"
        want = json.loads(ref.read_text())["cover-g256"]["0"]
        cfg = write_config(tmp_path, "grid=256\ntrials=96\n")
        assert run_main(["cover", "--config", cfg, "--seed", 0, "--out", tmp_path]) == 0
        got = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in want
        }
        assert got == want
        assert set(want) == {"cover_report.csv", "cover_selected.csv"}

    @pytest.mark.parametrize(
        "config, seed, digests",
        [
            (
                "grid=64\ntrials=12\n",
                1,
                (
                    "5b58319379f501dfa5b0f01d41787ec067b8caaa279f0bb6749a453a648b8a5c",
                    "085921c8404632335fd5e95d5bcd47dd84b5e3dd6a7d6f04adc013400ee54fc3",
                ),
            ),
            (
                "grid=128\ntrials=6\n",
                2,
                (
                    "d7ee5053bf5f581613a10c74f9c1162835e468d24fe91b23aaa11c65e43c250a",
                    "399882f5a786f21a3f17c6d27d61841c8215b41316e6ee63f77b78995387bc04",
                ),
            ),
            (
                "grid=256\ntrials=96\n",
                1,
                (
                    "b8ecc4e84f0000e0408a86795c61d14b96013ffacf070f7af0c97043966a079f",
                    "ed41711c61b95f5eb7ae7fd9a19e4c9f3ee67572d23b23b7c37f06b691028165",
                ),
            ),
            (
                "grid=256\ntrials=96\n",
                3,
                (
                    "cb0b5c39562d80d3f1b8ba56da6bd5a29c5c21257b4efb9f0c88b3e1e71f2172",
                    "6ae3f0f431f405831f13227a6e736156a60baa5ddebd878faf3aeb6a15014afc",
                ),
            ),
            (
                "grid=2048\ntrials=3\n",
                1,
                (
                    "786b4804a2dcf4206776227ebee09274b2a8028562bbc8dedc550855bdee2e81",
                    "c28d5d604df2df4a1c9ba70198f3cb4fd0a9c682330642049a04076ae5f94356",
                ),
            ),
        ],
        ids=["g64-seed1", "g128-seed2", "g256-seed1", "g256-seed3", "g2048-seed1"],
    )
    def test_reports_pinned(self, tmp_path, config, seed, digests):
        cfg = write_config(tmp_path, config)
        assert run_main(["cover", "--config", cfg, "--seed", seed, "--out", tmp_path]) == 0
        got = tuple(
            hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("cover_report.csv", "cover_selected.csv")
        )
        assert got == digests

    def test_trials_at_grid_2048_hold_no_grid_sized_arrays(self):
        # 64 MB is two 2048 x 2048 float64 arrays; a trial reads the slope
        # field at its family's cells only and counts the square integral
        cfg = build_config({"grid": "2048", "trials": "3"})
        tracemalloc.start()
        try:
            peaks = []
            for t in range(3):  # constant, linear, cone
                start = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                cli._cover_trial(cfg, t)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert max(peaks) < 64 * 2**20, [p / 2**20 for p in peaks]

    def test_bad_delta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "delta=0\n")
        assert run_main(["cover", "--config", cfg, "--out", tmp_path]) == 2
        assert "delta" in capsys.readouterr().err


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def echo_after(i, delay):
    time.sleep(delay)
    return i, os.getpid()


def raise_after(exc, delay):
    time.sleep(delay)
    raise exc


def assert_no_child_left():
    # every forked worker has been reaped: none is left to wait for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its one pickled argument."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


class TestTrialMap:
    def test_results_in_call_order_from_workers(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        # later calls finish first, so completion order is not call order
        calls = [partial(echo_after, i, 0.002 * (8 - i)) for i in range(8)]
        got = cli._map_trials(calls)
        assert [i for i, _ in got] == list(range(8))
        assert os.getpid() not in {pid for _, pid in got}
        assert_no_child_left()

    def test_one_cpu_runs_in_process(self, monkeypatch):
        use_cpus(monkeypatch, 1)
        got = cli._map_trials([partial(echo_after, i, 0.0) for i in range(3)])
        assert got == [(i, os.getpid()) for i in range(3)]

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize(
        "command, config",
        [
            ("verify", "resolution=3\ntrials=2\nmode=diagonal\n"),
            ("verify", "resolution=3\ntrials=2\nmode=fiberwise\n"),
            ("constants", "resolution=3\ntrials=2\ngrid=16\n"),
            ("cover", "trials=4\ngrid=32\n"),
        ],
        ids=["verify-diagonal", "verify-fiberwise", "constants", "cover"],
    )
    def test_pool_writes_the_in_process_bytes(
        self, tmp_path, monkeypatch, command, config, seed
    ):
        cfg = write_config(tmp_path, config)
        outputs = {}
        for cpus in (1, 3):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            assert run_main([command, "--config", cfg, "--seed", seed, "--out", out]) == 0
            assert_no_child_left()
            outputs[cpus] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert outputs[1] == outputs[3]
        assert len(outputs[1]) >= 2  # a report and its .meta at least

    def test_usage_error_raised_in_a_worker_exits_2(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()

        def bad(cfg, t):
            if os.getpid() == parent:
                raise AssertionError("case ran in the parent")
            if t == 1:
                raise CliError("forced in a worker")
            return [cli._row("bitile_sum", f"t{t}", 0.0, 1.0)]

        monkeypatch.setitem(cli.SUITE_RUNNERS, "bitile_sum", bad)
        use_cpus(monkeypatch, 2)
        cfg = write_config(tmp_path, "resolution=3\ntrials=4\n")
        code = run_main(
            ["verify", "--config", cfg, "--out", tmp_path, "--suite", "bitile_sum"]
        )
        assert code == 2
        assert "walshlab: forced in a worker" in capsys.readouterr().err
        assert_no_child_left()

    def test_other_errors_keep_their_type(self, tmp_path, monkeypatch):
        parent = os.getpid()

        def bad(cfg, t):
            if os.getpid() == parent:
                raise AssertionError("case ran in the parent")
            raise ZeroDivisionError(f"probe case {t}")

        monkeypatch.setattr(cli, "PROBES", (("restricted", bad),))
        use_cpus(monkeypatch, 2)
        cfg = write_config(tmp_path, "resolution=3\ntrials=4\n")
        with pytest.raises(ZeroDivisionError, match="probe case 0"):
            run_main(["constants", "--config", cfg, "--out", tmp_path])
        assert_no_child_left()

    def test_dead_worker_raises_instead_of_hanging(self):
        # a worker killed mid-case (say, by the out-of-memory killer) must
        # not leave the parent waiting for its result; run apart, with a
        # timeout, so a regression fails instead of hanging the suite
        code = (
            "import os, signal\n"
            "from walshlab import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "def killed():\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "for die in (lambda: os._exit(9), killed):\n"
            "    try:\n"
            "        cli._map_trials([int, die, int, int])\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n"
            "    try:\n"
            "        os.waitpid(-1, os.WNOHANG)\n"
            "    except ChildProcessError:\n"
            "        print('no child left')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert out.stdout.splitlines() == [
            "WorkerError trial worker ended without results in case 1 (exit code 9)",
            "no child left",
            "WorkerError trial worker ended without results in case 1 (exit code -9)",
            "no child left",
        ], out.stderr

    def test_case_blocked_on_a_later_case_finishes(self):
        # case 0 waits for the byte the last case writes: fixed interleaved
        # shares hang whenever both fall in one share, as cases 0 and 4 of
        # five do on two workers; pulled one at a time they run apart.  The
        # alarm ends a stuck worker, so a regression fails instead of hanging
        code = (
            "import os, signal\n"
            "from walshlab import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "r, w = os.pipe()\n"
            "def wait():\n"
            "    signal.alarm(60)\n"
            "    return os.read(r, 1)\n"
            "print(cli._map_trials([wait, int, int, int, lambda: os.write(w, b'x')]))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert out.stdout.splitlines() == ["[b'x', 0, 0, 0, 1]"], out.stderr

    def test_more_cases_than_the_queue_pipe_holds(self):
        # 64 KiB of pipe holds 16,384 indices: written before any worker
        # pulls, the rest would block the parent forever
        code = (
            "import os\n"
            "from functools import partial\n"
            "from walshlab import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "calls = [partial(int, i) for i in range(20_000)]\n"
            "print(cli._map_trials(calls) == list(range(20_000)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert out.stdout.splitlines() == ["True"], out.stderr

    def test_each_case_runs_once_on_more_workers_than_cpus(self, tmp_path, monkeypatch):
        # four workers race for one queue: each case appends its index to a
        # shared file, so a case pulled twice or never shows there
        use_cpus(monkeypatch, 4)
        log = os.open(tmp_path / "log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            calls = [partial(os.write, log, b"%6d" % i) for i in range(3000)]
            got = cli._map_trials(calls)
        finally:
            os.close(log)
        assert got == [6] * 3000
        ran = (tmp_path / "log").read_bytes()
        ran = sorted(int(ran[k : k + 6]) for k in range(0, len(ran), 6))
        assert ran == list(range(3000))
        assert_no_child_left()

    def test_result_larger_than_a_pipe_buffer(self, monkeypatch):
        # each share is megabytes, far past the 64 KiB a pipe holds
        use_cpus(monkeypatch, 2)
        got = cli._map_trials([partial(np.arange, 100_000 + i) for i in range(5)])
        for i, a in enumerate(got):
            np.testing.assert_array_equal(a, np.arange(100_000 + i))
        assert_no_child_left()

    def test_earliest_failing_case_raises(self, monkeypatch):
        # case 4 fails at once while case 3 still runs; case 3 comes earlier
        use_cpus(monkeypatch, 2)
        calls = [partial(echo_after, i, 0.0) for i in range(6)]
        calls[3] = partial(raise_after, KeyError("case 3"), 0.05)
        calls[4] = partial(raise_after, KeyError("case 4"), 0.0)
        with pytest.raises(KeyError, match="case 3") as info:
            cli._map_trials(calls)
        # the worker's traceback comes along as the cause
        assert isinstance(info.value.__cause__, cli.WorkerError)
        assert "in raise_after" in str(info.value.__cause__)
        assert_no_child_left()

    def test_every_child_reaped_when_one_raises(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        calls = [partial(echo_after, i, 0.1) for i in range(6)]
        calls[0] = partial(raise_after, ValueError("first"), 0.0)
        with pytest.raises(ValueError, match="first"):
            cli._map_trials(calls)
        assert_no_child_left()

    def test_unpicklable_exception_is_named(self, monkeypatch):
        class LocalError(Exception):
            pass  # a local class: pickle cannot find it by name

        use_cpus(monkeypatch, 2)
        for exc, name in (
            (LocalError("boom"), "LocalError: boom"),
            (TwoArgError("x", "y"), "TwoArgError: x y"),
        ):
            calls = [partial(echo_after, 0, 0.0), partial(raise_after, exc, 0.0)]
            with pytest.raises(cli.WorkerError, match=f"case 1 raised .*{name}"):
                cli._map_trials(calls)
            assert_no_child_left()

    def test_import_leaves_multiprocessing_out(self, tmp_path, monkeypatch):
        # importing them costs set-up time on every run, pool or not; the
        # exact Lemma 7R check needs no `fractions` (which imports `decimal`)
        names = ("multiprocessing", "fractions", "decimal")
        code = f"import sys, walshlab.cli; print([m in sys.modules for m in {names}])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "[False, False, False]"

        # a two-CPU run forks without `multiprocessing` or
        # `concurrent.futures`, and no worker imports `numpy.ma` (about
        # 16 ms each); its reports are the one-CPU bytes
        code = (
            "import os, sys\n"
            "from walshlab import cli\n"
            "parent = os.getpid()\n"
            "def checked(run):\n"
            "    def case(cfg, t):\n"
            "        rows = run(cfg, t)\n"
            "        assert os.getpid() != parent, 'case ran in the parent'\n"
            "        assert 'numpy.ma' not in sys.modules, f'numpy.ma in case {t}'\n"
            "        return rows\n"
            "    return case\n"
            "for name in ('certificates', 'replacement'):\n"
            "    cli.SUITE_RUNNERS[name] = checked(cli.SUITE_RUNNERS[name])\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "args = ['verify', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
            "assert cli.main(args) == 0\n"
            "names = ('multiprocessing', 'concurrent.futures')\n"
            "print([m in sys.modules for m in names])\n"
        )
        cfg = write_config(
            tmp_path, "resolution=4\ntrials=4\nsuite=certificates,replacement\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, cfg, str(tmp_path / "cpus2")],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert out.stdout.splitlines()[-1:] == ["[False, False]"], out.stderr
        use_cpus(monkeypatch, 1)
        assert run_main(["verify", "--config", cfg, "--out", tmp_path / "cpus1"]) == 0
        two, one = (
            {p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
            for d in ("cpus2", "cpus1")
        )
        assert two == one and "verify_report.csv" in one

    def test_constants_parent_leaves_numpy_ma_out(self, tmp_path):
        # its 95th percentiles, taken in the parent, import no `numpy.ma`
        # (about 12 ms of serial set-up)
        code = (
            "import os, sys\n"
            "from walshlab import cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "args = ['constants', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
            "assert cli.main(args) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        cfg = write_config(tmp_path, "resolution=3\ntrials=4\ngrid=16\n")
        out = subprocess.run(
            [sys.executable, "-c", code, cfg, str(tmp_path / "out")],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert out.stdout.splitlines() == ["False"], out.stderr
        assert (tmp_path / "out" / "constants_report.csv").exists()


class TestPercentile:
    @pytest.mark.parametrize("q", [0, 50, 95, 100])
    def test_bit_identical_to_numpy(self, q):
        rng = np.random.default_rng(q)
        for n in range(1, 201):
            spread = rng.random(n) * 10.0 ** rng.integers(-3, 4)
            ties = rng.integers(0, 4, n) * 0.37  # many equal values, zeros too
            for values in (spread, ties):
                want = float(np.percentile(values, q))
                assert cli._percentile(values.tolist(), q).hex() == want.hex()


class TestHeapPolicy:
    def test_large_temporaries_are_not_faulted_in_afresh(self, tmp_path):
        # at K = 8 each temporary is a 512 KiB array; a one-CPU run that
        # hands them back to the kernel on free takes about 18,000 faults
        # more than the import, one that keeps them in the heap about 1,800
        cfg = write_config(
            tmp_path, "resolution=8\ntrials=1\nsuite=telescoping,bitile_sum,appendix\n"
        )
        env = dict(src_env(), PYTHONDONTWRITEBYTECODE="1")  # both compile alike
        run = (
            "import os, sys\n"
            "from walshlab import cli\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "args = ['verify', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
            "sys.exit(cli.main(args))\n"
        )

        def faults(*args):
            before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
            subprocess.run(
                [sys.executable, "-c", *args], env=env, capture_output=True, check=True,
                timeout=120,
            )
            return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

        work = faults(run, cfg, str(tmp_path / "out")) - faults("import walshlab.cli")
        assert work < 5000

    def test_runs_where_the_c_library_has_no_mallopt(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SMALL)
        use_cpus(monkeypatch, 1)
        assert run_main(["verify", "--config", cfg, "--out", tmp_path / "with"]) == 0
        opened = []

        def c_library(name):  # one without `mallopt`
            opened.append(name)
            return SimpleNamespace()

        monkeypatch.setattr(ctypes, "CDLL", c_library)
        assert run_main(["verify", "--config", cfg, "--out", tmp_path / "without"]) == 0
        assert opened == [None]
        with_, without = (
            {p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
            for d in ("with", "without")
        )
        assert with_ == without and "verify_report.csv" in with_
