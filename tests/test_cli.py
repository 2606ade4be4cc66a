import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from freewick import cli


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports this checkout's freewick."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _reached(*args, **kwargs):
    raise AssertionError("a moment route ran")


class TestPartitions:
    def test_gn_three(self, capsys):
        code, out = run(["partitions", "--n", "3", "--set", "gn"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 7
        assert len(payload["records"]) == 7
        assert payload["records"][0] == {"blocks": [[1], [2], [3]], "marks": [1, 1, 1]}

    def test_nc_four(self, capsys):
        code, out = run(["partitions", "--n", "4", "--set", "nc"], capsys)
        assert code == 0
        assert json.loads(out)["count"] == 14

    def test_gn_one(self, capsys):
        code, out = run(["partitions", "--n", "1", "--set", "gn"], capsys)
        assert code == 0
        assert json.loads(out)["count"] == 1

    def test_interval(self, capsys):
        code, out = run(["partitions", "--n", "3", "--set", "interval"], capsys)
        assert code == 0
        assert json.loads(out)["count"] == 7

    def test_bound_exceeded_exit_code(self, capsys):
        code, _ = run(["partitions", "--n", "20", "--set", "nc"], capsys)
        assert code == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "dump.json"
        code, out = run(["partitions", "--n", "2", "--set", "gn", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["count"] == 3

    def test_csv_format(self, capsys):
        code, out = run(["partitions", "--n", "2", "--set", "gn", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "blocks,marks"
        assert len(lines) == 4


class TestMoments:
    def test_default_meixner_fourth_power(self, capsys):
        code, out = run(["moments", "--power", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_gap"] < 1e-10
        for value in payload["paths"].values():
            assert abs(value - 4.0) < 1e-10

    def test_gauss_poisson_paths(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "gauss_poisson", "lambda": 0.0, "m": 6}))
        code, out = run(
            ["moments", "--config", str(cfg), "--word", "0:1", "--power", "6"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["paths"]) == {"fock", "nc_sum"}
        for value in payload["paths"].values():
            assert abs(value - 5.0) < 1e-10  # sixth moment of the unit window

    def test_general_mode_fibers(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "mode": "general",
                    "m": 2,
                    "fiber_nodes": 2,
                    "fibers": [
                        {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
                        {"atoms": [-0.5, 0.5], "weights": [0.5, 0.5]},
                    ],
                }
            )
        )
        code, out = run(["moments", "--config", str(cfg), "--power", "2"], capsys)
        assert code == 0
        assert json.loads(out)["max_gap"] < 1e-10

    def test_laws_tabulated_below_half_word(self, tmp_path, capsys):
        # shifts past the tabulated degree carry null content (g and a vanish
        # from the support size on), so the extended route drops them
        for fiber_nodes, power in ((1, 6), (2, 8)):
            cfg = tmp_path / f"cfg{fiber_nodes}.json"
            cfg.write_text(json.dumps({"m": 3, "fiber_nodes": fiber_nodes}))
            code, out = run(["moments", "--config", str(cfg), "--power", str(power)], capsys)
            assert code == 0
            payload = json.loads(out)
            assert set(payload["paths"]) == {"big_fock", "extended_fock", "nc_sum"}
            assert payload["max_gap"] < 1e-10

    def test_word_too_large_for_memory(self, tmp_path, capsys, monkeypatch):
        # a length-12 word at m=12 needs an extended-space level of 72**6
        # floats (slots {0..5} x 12 nodes); it is refused before any route runs
        monkeypatch.setattr(cli.cumulant, "moment", _reached)
        monkeypatch.setattr(cli.cumulant, "nc_moment_sum", _reached)
        monkeypatch.setattr(cli.xfock, "xmoment", _reached)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 12}))
        code, _ = run(["moments", "--config", str(cfg), "--power", "12"], capsys)
        assert code == 2

    def test_big_fock_runs_past_dense_level_size(self, tmp_path, capsys):
        # a dense level 5 over 80 nodes would take 24.4 GiB; the rank-one
        # term lists hold at most 3**5 terms of 5 slots
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 80, "mode": "gauss_poisson"}))
        code, out = run(["moments", "--config", str(cfg), "--power", "10"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["paths"]) == {"fock", "nc_sum"}
        assert payload["max_gap"] < 1e-10

    def test_route_seconds(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "gauss_poisson", "m": 4}))
        for config in ([], ["--config", str(cfg)]):
            code, out = run(["moments", *config, "--power", "4"], capsys)
            assert code == 0
            payload = json.loads(out)
            assert list(payload["route_seconds"]) == list(payload["paths"])
            assert all(t >= 0.0 for t in payload["route_seconds"].values())

    def test_word_factors(self, capsys):
        code, out = run(["moments", "--word", "0:0.5,0.5:1", "--power", "1"], capsys)
        assert code == 0
        payload = json.loads(out)
        # disjoint windows: the covariance vanishes
        for value in payload["paths"].values():
            assert abs(value) < 1e-12

    def test_bad_word(self, capsys):
        code, _ = run(["moments", "--word", "nonsense"], capsys)
        assert code == 2

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modus": "meixner"}))
        code, _ = run(["moments", "--config", str(cfg)], capsys)
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _ = run(["moments", "--config", "/nonexistent.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize("mode", ["meixner", "gauss_poisson"])
    def test_routes_refused_past_memory_limit(self, mode, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_memory_limit", lambda: 64)
        monkeypatch.setattr(cli.cumulant, "moment", _reached)
        monkeypatch.setattr(cli.cumulant, "nc_moment_sum", _reached)
        monkeypatch.setattr(cli.xfock, "xmoment", _reached)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": mode}))
        code, _ = run(["moments", "--config", str(cfg), "--power", "4"], capsys)
        assert code == 2

    def test_extended_route_charged_past_one_level(self, capsys, monkeypatch):
        # the default word to the 8th power reaches levels of 24**4 floats
        # (slots {0..3} x 6 nodes); xmoment's peak holds more than two of them
        monkeypatch.setattr(cli, "_memory_limit", lambda: 2 * 8 * 24**4)
        monkeypatch.setattr(cli.xfock, "xmoment", _reached)
        code, _ = run(["moments", "--power", "8"], capsys)
        assert code == 2

    def test_address_space_limit_refuses_extended_route(self, tmp_path):
        # one level of this length-12 word is 30**6 floats (5.4 GiB): past
        # a 3 GB RLIMIT_AS, so it is refused before the first allocation
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "meixner", "lambda": 0.7, "eta": 0.4, "m": 5}))
        args = ["moments", "--config", str(cfg), "--word", "0:0.6,0.3:1", "--power", "6"]
        out = run_fresh(
            "import resource\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "soft = 3 * 10**9 if hard == resource.RLIM_INFINITY else min(3 * 10**9, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
            "from freewick import cli\n"
            "assert cli._memory_limit() <= 3 * 10**9\n"
            f"print(cli.main({args!r}))"
        )
        assert out.strip() == "2"


BAD_CONFIGS = [
    {"m": 6.5},
    {"degree": 2.5},
    {"fiber_nodes": 2.5},
    {"seed": 1.5},
    {"m": True},
    {"seed": True},
    {"seed": -1},
    {"tolerance": "small"},
    {"tolerance": float("inf")},
    {"interval": [1, 0]},
    {"interval": [0]},
    {"interval": 5},
    {"mode": "general", "fibers": 3},
    {"mode": "general"},
    {"fibers": [{"atoms": [0.0], "weights": [1.0]}]},
]


@pytest.mark.parametrize("command", ["verify", "moments"])
@pytest.mark.parametrize("config", BAD_CONFIGS, ids=json.dumps)
def test_bad_config_exits_2(command, config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    extra = ["--suite", "cumulant"] if command == "verify" else []
    code, out = run([command, "--config", str(cfg), *extra], capsys)
    assert code == 2
    assert out == ""


class TestVerify:
    def test_wick_suite_passes(self, capsys):
        code, out = run(["verify", "--suite", "wick", "--n-max", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_failure_exit_code(self, tmp_path, capsys):
        # an unreachable tolerance forces residual > tol somewhere
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 1e-30}))
        code, out = run(
            ["verify", "--suite", "cumulant", "--config", str(cfg)], capsys
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_text_format(self, capsys):
        code, out = run(
            ["verify", "--suite", "meixner", "--format", "text"], capsys
        )
        assert code == 0
        assert "passed: True" in out

    def test_text_format_flattens_dict_keys(self, capsys):
        code, out = run(["verify", "--suite", "cumulant", "--seed", "3", "--format", "text"], capsys)
        assert code == 0
        lines = out.splitlines()
        for key, value in (("m", 6), ("fiber_nodes", 8), ("n_max", 4), ("seed", 3), ("tol", 1e-10)):
            assert f"params.{key}: {value}" in lines
        assert [line.split(":")[0] for line in lines if line.startswith("suite_seconds.")] == [
            "suite_seconds.cumulant"
        ]
        code, out = run(["moments", "--power", "2", "--format", "text"], capsys)
        assert code == 0
        keys = [line.split(":")[0] for line in out.splitlines() if ":" in line]
        assert [k for k in keys if k.startswith("route_seconds.")] == [
            "route_seconds.big_fock", "route_seconds.extended_fock", "route_seconds.nc_sum"
        ]
        assert not any(k.startswith("paths.") for k in keys)

    def test_meixner_json_serializable(self, capsys):
        # residuals coming out as numpy scalars must not break the encoder
        code, out = run(["verify", "--suite", "meixner", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True

    def test_n_max_bounded(self, capsys):
        code, _ = run(["verify", "--suite", "wick", "--n-max", "99"], capsys)
        assert code == 2

    def test_negative_seed_override(self, capsys):
        code, _ = run(["verify", "--suite", "wick", "--seed", "-1"], capsys)
        assert code == 2

    def test_seed_override_deterministic(self, capsys):
        code1, out1 = run(["verify", "--suite", "cumulant", "--seed", "7"], capsys)
        code2, out2 = run(["verify", "--suite", "cumulant", "--seed", "7"], capsys)
        assert code1 == code2 == 0
        r1 = [c["residual"] for c in json.loads(out1)["checks"]]
        r2 = [c["residual"] for c in json.loads(out2)["checks"]]
        assert r1 == r2

    def test_params_echo_overrides(self, capsys):
        code, out = run(["verify", "--suite", "wick", "--seed", "5", "--n-max", "2"], capsys)
        assert code == 0
        params = json.loads(out)["params"]
        assert set(params) == {"m", "fiber_nodes", "degree", "n_max", "seed", "tol"}
        assert params["seed"] == 5 and params["n_max"] == 2
        assert params["m"] == 6 and params["tol"] == 1e-10

    def test_suite_seconds(self, capsys):
        code, out = run(["verify", "--suite", "all"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload["suite_seconds"]) == payload["suites"]
        assert sum(payload["suite_seconds"].values()) == payload["elapsed_seconds"]


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        out = run_fresh(
            "import sys, freewick.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert out.strip() == "[]"

    def test_verify_all_runs_without_scipy(self):
        # a None entry makes any `import scipy` raise ImportError
        out = run_fresh(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from freewick import cli\n"
            "sys.exit(cli.main(['verify', '--suite', 'all']))"
        )
        payload = json.loads(out)
        assert payload["passed"] is True
        assert sum(c["passed"] for c in payload["checks"]) == 69
