import contextlib
import csv
import io
import json
import logging
import math
import os
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from freewick import cli, cumulant, field, fock, ncpart, xfock
from freewick.errors import ConfigError


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def strict_json(text):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity token."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


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


def _forbid_routes(monkeypatch):
    """Make every moment route, and the extended route's system, fail if reached."""
    for module, name in ((cli.cumulant, "moment"), (cli.cumulant, "nc_moment_sum"),
                         (cli.xfock, "xmoment"), (cli.jacobi, "JacobiSystem")):
        monkeypatch.setattr(module, name, _reached)


def _capped(nbytes, args):
    """Run the CLI in a new interpreter under an ``RLIMIT_AS`` of ``nbytes``;
    its exit code and what it wrote to stderr."""
    out = run_fresh(
        "import contextlib, io, json, resource\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        f"soft = {nbytes} if hard == resource.RLIM_INFINITY else min({nbytes}, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
        "from freewick import cli\n"
        f"assert cli._memory_limit() <= {nbytes}\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        f"    code = cli.main({args!r})\n"
        "print(json.dumps([code, err.getvalue()]))"
    )
    return tuple(json.loads(out.splitlines()[-1]))


TWO_LAWS = [
    {"atoms": [-1.0, 1.0], "weights": [0.5, 0.5]},
    {"atoms": [-0.5, 0.5], "weights": [0.5, 0.5]},
]


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
        assert cli.main(["partitions", "--n", "20", "--set", "nc"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "n=20 outside supported range" in err

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "dump.json"
        code, out = run(["partitions", "--n", "2", "--set", "gn", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["count"] == 3

    @pytest.mark.parametrize("which", ["nc", "gn", "interval"])
    def test_streamed_json_equals_dumps(self, which, tmp_path, capsys):
        # the JSON is written in batches of encoder chunks, never as one string
        if which == "nc":
            records = [
                {"blocks": [list(b) for b in p.blocks], "marks": []} for p in ncpart.enumerate_nc(8)
            ]
        else:
            enumerate_ = ncpart.enumerate_gn if which == "gn" else ncpart.enumerate_interval
            records = [
                {"blocks": [list(b) for b in mp.partition.blocks], "marks": list(mp.marks)}
                for mp in enumerate_(8)
            ]
        payload = {"set": which, "n": 8, "count": len(records), "records": records}
        expected = json.dumps(payload, indent=2) + "\n"
        args = ["partitions", "--n", "8", "--set", which]
        code, out = run(args, capsys)
        assert code == 0 and out == expected
        path = tmp_path / "dump.json"
        code, out = run(args + ["--out", str(path)], capsys)
        assert code == 0 and out == ""
        assert path.read_text(encoding="utf-8") == expected

    @pytest.mark.parametrize("batch", [1, 7])
    def test_records_json_across_batches(self, batch, monkeypatch):
        # the writer reads (blocks, marks) pairs from one pass of an iterator;
        # batch boundaries fall inside the record list, and an empty record
        # list and a record with no marks are written as json writes them too
        monkeypatch.setattr(cli, "_JSON_BATCH", batch)
        pairs = [(mp.partition.blocks, mp.marks) for mp in ncpart.enumerate_gn(4)]
        pairs.append((((1, 2, 3, 4),), ()))
        for records in (pairs, []):
            head = {"set": "gn", "n": 4, "count": len(records)}
            expected = dict(head, records=[{"blocks": b, "marks": m} for b, m in records])
            handle = io.StringIO()
            cli._write_records_json(dict(head, records=iter(records)), handle)
            assert handle.getvalue() == json.dumps(expected, indent=2) + "\n"

    def test_gn_three_text_and_csv(self, capsys):
        # literal pins of the two table formats: a block list and a mark list
        # hold commas, so CSV quotes them where it must
        code, out = run(["partitions", "--n", "3", "--set", "gn", "--format", "text"], capsys)
        assert code == 0 and out == (
            "blocks  marks\n"
            "1;2;3   1,1,1\n"
            "1;2,3   1,1\n"
            "1;2,3   1,-1\n"
            "1,2;3   1,1\n"
            "1,2;3   -1,1\n"
            "1,2,3   1\n"
            "1,2,3   -1\n"
            "set: gn\n"
            "n: 3\n"
            "count: 7\n"
        )
        code, out = run(["partitions", "--n", "3", "--set", "gn", "--format", "csv"], capsys)
        assert code == 0 and out == (
            'blocks,marks\n'
            '1;2;3,"1,1,1"\n'
            '"1;2,3","1,1"\n'
            '"1;2,3","1,-1"\n'
            '"1,2;3","1,1"\n'
            '"1,2;3","-1,1"\n'
            '"1,2,3",1\n'
            '"1,2,3",-1\n'
        )

    def test_csv_format(self, capsys):
        code, out = run(["partitions", "--n", "2", "--set", "gn", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "blocks,marks"
        assert len(lines) == 4

    @pytest.mark.parametrize("which", ["nc", "gn", "interval"])
    def test_csv_parses_back_into_records(self, which, capsys):
        # a block list holds commas, so the reader must see it as one field
        args = ["partitions", "--n", "5", "--set", which]
        _, out = run(args, capsys)
        records = json.loads(out)["records"]
        _, out = run(args + ["--format", "csv"], capsys)
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["blocks", "marks"]
        parsed = [
            {
                "blocks": [[int(x) for x in b.split(",")] for b in blocks.split(";")],
                "marks": [int(x) for x in marks.split(",")] if marks else [],
            }
            for blocks, marks in rows
        ]
        assert parsed == records


class TestMoments:
    def test_default_meixner_fourth_power(self, capsys):
        code, out = run(["moments", "--power", "4"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["max_abs_gap"] < 1e-10
        for value in payload["paths"].values():
            assert abs(value - 4.0) < 1e-10

    def test_nan_route_gives_nan_gap(self, capsys, monkeypatch):
        # a route that returns NaN must not vanish from the largest gap; JSON
        # writes it as null, text as nan
        monkeypatch.setattr(cumulant, "nc_moment_sum", lambda word, pg: math.nan)
        code, out = run(["moments", "--power", "2"], capsys)
        assert code == 0
        payload = strict_json(out)
        assert payload["paths"]["nc_sum"] is None
        assert payload["max_gap"] is None and payload["max_abs_gap"] is None
        assert payload["paths"]["big_fock"] == pytest.approx(1.0)
        code, out = run(["moments", "--power", "2", "--format", "text"], capsys)
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert ["max_gap", "nan"] in rows and ["max_abs_gap", "nan"] in rows

    def test_text_format(self, tmp_path, capsys):
        # a literal pin: the route table, then the payload's other entries;
        # on point masses at 1 over four cells every value is exact
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": 0.0, "m": 4}))
        code, out = run(["moments", "--config", str(cfg), "--power", "4", "--format", "text"],
                        capsys)
        assert code == 0
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines[6:8]] == [
            "route_seconds.big_fock", "route_seconds.nc_sum"
        ]
        assert lines[:6] + lines[8:] == [
            "path         value",
            "big_fock     3.0",
            "nc_sum       3.0",
            "max_gap      0.0",
            "max_abs_gap  0.0",
            "word_length: 4",
        ]

    def test_gauss_poisson_paths(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 0.0, "eta": 0.0, "m": 6}))
        code, out = run(
            ["moments", "--config", str(cfg), "--word", "0:1", "--power", "6"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        # point masses only: the extended space is the one big_fock runs on
        assert set(payload["paths"]) == {"big_fock", "nc_sum"}
        for value in payload["paths"].values():
            assert abs(value - 5.0) < 1e-10  # sixth moment of the unit window

    def test_fibers_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2, "fibers": TWO_LAWS}))
        code, out = run(["moments", "--config", str(cfg), "--power", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["paths"]) == {"big_fock", "extended_fock", "nc_sum"}
        assert payload["max_abs_gap"] < 1e-10

    def test_laws_tabulated_below_half_word(self, tmp_path, capsys):
        # shifts past the tabulated degree carry null content (g and a vanish
        # from the support size on), so the extended route drops them; a
        # one-atom law is a point mass, which leaves no extended route at all
        for fiber_nodes, power, routes in (
            (1, 6, {"big_fock", "nc_sum"}),
            (2, 8, {"big_fock", "extended_fock", "nc_sum"}),
        ):
            cfg = tmp_path / f"cfg{fiber_nodes}.json"
            cfg.write_text(json.dumps({"m": 3, "fiber_nodes": fiber_nodes}))
            code, out = run(["moments", "--config", str(cfg), "--power", str(power)], capsys)
            assert code == 0
            payload = json.loads(out)
            assert set(payload["paths"]) == routes
            assert payload["max_abs_gap"] < 1e-10

    def test_fibers_tabulated_to_half_word(self, tmp_path, capsys):
        # fiber_nodes sizes only the semicircle laws: ten-atom laws given as
        # fibers are tabulated as far as the length-8 word reads them, past
        # the default fiber_nodes of 8
        law = {"atoms": list(range(10)), "weights": [0.1] * 10}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 1, "fibers": [law]}))
        code, out = run(["moments", "--config", str(cfg), "--power", "8"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["paths"]) == {"big_fock", "extended_fock", "nc_sum"}
        assert payload["max_abs_gap"] < 1e-10
        for value in payload["paths"].values():
            assert abs(value - 122024.9) < 1e-6

    def test_word_too_large_for_memory(self, tmp_path, capsys, monkeypatch):
        # a half of this length-14 word runs as up to 3**7 rank-one terms of
        # 7 slots over the 64 m joint nodes of 64-atom laws, 7.8 MB per grid
        # node: m is set to put that past physical memory, and the word is
        # refused before any route runs
        _forbid_routes(monkeypatch)
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": memory // (8 * 3**7 * 7 * 64) + 1, "fiber_nodes": 64}))
        assert cli.main(["moments", "--config", str(cfg), "--power", "14"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "the big_fock route would take" in err

    def test_big_fock_runs_past_dense_level_size(self, tmp_path, capsys):
        # a dense level 5 over 80 nodes would take 24.4 GiB; the rank-one
        # term lists hold at most 3**5 terms of 5 slots
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 80, "eta": 0.0}))
        code, out = run(["moments", "--config", str(cfg), "--power", "10"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["paths"]) == {"big_fock", "nc_sum"}
        assert payload["max_abs_gap"] < 1e-10

    def test_route_seconds(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta": 0.0, "m": 4}))
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

    @pytest.mark.parametrize(
        "args, reason",
        [
            (["--power", "0"], "power must be positive"),
            (["--power", "15"], "word length 15 exceeds 14"),
        ],
        ids=["power", "word_length"],
    )
    def test_bad_word_shape_refused(self, args, reason, capsys, monkeypatch):
        monkeypatch.setattr(cli.cumulant, "moment", _reached)
        assert cli.main(["moments", *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and reason in err

    def test_degree_refused_by_name(self, tmp_path, capsys, monkeypatch):
        # the word bound is the non-crossing sum's own: no degree widens it,
        # and moments reads none
        _forbid_routes(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degree": 8}))
        assert cli.main(["moments", "--config", str(cfg), "--power", "15"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "degree" in err

    @pytest.mark.parametrize(
        "args", [["--power", "15"], ["--word", "0:0.5,0.5:1,0:1", "--power", "5"],
                 ["--power", str(10**12)]],
        ids=["power", "word", "huge_power"],
    )
    def test_word_past_nc_limit_refused_before_any_work(self, args, capsys, monkeypatch):
        # refused before any model is built, any charge is made or any route runs
        _forbid_routes(monkeypatch)
        for name in ("moment_bytes", "nc_moment_sum_bytes"):
            monkeypatch.setattr(cli.cumulant, name, _reached)
        monkeypatch.setattr(cli.xfock, "xmoment_bytes", _reached)
        monkeypatch.setattr(cli.ModelConfig, "build_model", _reached)
        assert cli.main(["moments", *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"exceeds {ncpart.NC_LIMIT}" in err

    def test_fourteen_factors_admitted(self, capsys, monkeypatch):
        # every route is charged and run at the non-crossing sum's bound; the
        # routes are constants here, since nc_sum takes seconds at 14
        for module, name, value in ((cli.cumulant, "moment", 1.0), (cli.xfock, "xmoment", 2.0),
                                    (cli.cumulant, "nc_moment_sum", 4.0)):
            monkeypatch.setattr(module, name, lambda *args, value=value: value)
        code, out = run(["moments", "--power", str(ncpart.NC_LIMIT)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["word_length"] == 14
        assert payload["paths"] == {"big_fock": 1.0, "extended_fock": 2.0, "nc_sum": 4.0}
        # the largest gap is relative, 3/4 between 1 and 4; the absolute one is 3
        assert payload["max_gap"] == 0.75 and payload["max_abs_gap"] == 3.0

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"modus": "meixner"}))
        code, _ = run(["moments", "--config", str(cfg)], capsys)
        assert code == 2

    def test_missing_config_file(self, capsys):
        code, _ = run(["moments", "--config", "/nonexistent.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "config", [{}, {"eta": 0.0}], ids=["meixner", "gauss_poisson"]
    )
    def test_routes_refused_past_memory_limit(self, config, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_memory_limit", lambda: 64)
        _forbid_routes(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _ = run(["moments", "--config", str(cfg), "--power", "4"], capsys)
        assert code == 2

    def test_extended_route_charged_past_one_level(self, tmp_path, capsys, monkeypatch):
        # with four-atom laws, the default word to the 10th power charges the
        # extended route 3**5 terms of 5 slots over {0..4} x 320 nodes and
        # its pairing blocks (16.6 MB), more than the big-Fock term lists over
        # the 1280 joint nodes (13.5 MB); a limit between the two refuses the
        # extended route, before any runs
        monkeypatch.setattr(cli, "_memory_limit", lambda: 15 * 10**6)
        _forbid_routes(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 320, "fiber_nodes": 4}))
        assert cli.main(["moments", "--config", str(cfg), "--power", "10"]) == 2
        assert "the extended_fock route would take" in capsys.readouterr().err

    def test_address_space_limit_refuses_extended_route(self, tmp_path):
        # the extended term lists of this length-14 word take 3.4 GB (3**7
        # terms of 7 slots over {0..6} x 4000 nodes): past a 3 GB RLIMIT_AS,
        # so it is refused before the first allocation; the big-Fock term
        # lists over the 16000 joint nodes of four-atom laws take 2.0 GB
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 0.7, "eta": 0.4, "m": 4000, "fiber_nodes": 4}))
        args = ["moments", "--config", str(cfg), "--word", "0:0.6,0.3:1", "--power", "7"]
        code, err = _capped(3 * 10**9, args)
        assert code == 2 and "the extended_fock route would take" in err

    def test_mapped_address_space_counts_against_limit(self, tmp_path):
        # the extended term lists of this length-12 word take 379 MB (3**6
        # terms of 6 slots over {0..5} x 1800 nodes): under a 400 MB
        # RLIMIT_AS, but not under what the imports have left of it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": 0.7, "eta": 0.4, "m": 1800, "fiber_nodes": 4}))
        args = ["moments", "--config", str(cfg), "--word", "0:0.6,0.3:1", "--power", "6"]
        code, err = _capped(4 * 10**8, args)
        assert code == 2 and "would take" in err

    def test_extended_route_at_scale_under_address_space_limit(self, tmp_path):
        # m = 24 to the 8th power: four dense levels over {0..3} x 24 nodes
        # would take 2.5 GiB; the term lists run it under a 1.5 GB RLIMIT_AS
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 24}))
        out = tmp_path / "out.json"
        args = ["moments", "--config", str(cfg), "--power", "8", "--out", str(out)]
        assert _capped(15 * 10**8, args)[0] == 0
        payload = json.loads(out.read_text())
        assert set(payload["paths"]) == {"big_fock", "extended_fock", "nc_sum"}
        assert payload["max_abs_gap"] < 1e-10


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
    # well formed, but no config sets the seed or widens the verify gate
    {"tolerance": 1e-10},
    {"seed": 0},
    {"interval": [1, 0]},
    {"interval": [0]},
    {"interval": 5},
    {"mode": "general", "fibers": 3},
    {"mode": "general"},
    {"mode": "meixner"},
    {"fibers": 3},
    {"fibers": [{"atoms": [0.0], "weights": [1.0]}]},
    {"lambda": 1.0, "fibers": TWO_LAWS},
    {"eta": 0.0, "fibers": TWO_LAWS},
    {"m": 2, "fibers": TWO_LAWS, "fiber_nodes": 3},
    # non-finite laws: a NaN fails neither the sign nor the normalization test
    {"m": 2, "fibers": [{"atoms": [-1.0, float("nan")], "weights": [0.5, 0.5]}, TWO_LAWS[1]]},
    {"m": 2, "fibers": [{"atoms": [-1.0, float("inf")], "weights": [0.5, 0.5]}, TWO_LAWS[1]]},
    {"m": 2, "fibers": [{"atoms": [-1.0, 1.0], "weights": [float("nan"), 0.5]}, TWO_LAWS[1]]},
    [{"m": 2}],
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


SMALL_RUNS = [
    ["partitions", "--n", "2"],
    ["moments", "--power", "2"],
    ["verify", "--suite", "cumulant"],
]


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize("args", SMALL_RUNS, ids=lambda args: args[0])
def test_unwritable_out_exits_2(args, target, tmp_path, capsys, monkeypatch):
    # refused before any work; exit 1 is kept for a failed verification
    for module, name in [(cli.suites, "run_suite"), (cli.ncpart, "enumerate_nc"),
                         (cli.cumulant, "moment"), (cli.cumulant, "nc_moment_sum")]:
        monkeypatch.setattr(module, name, _reached)
    path = tmp_path / "missing" / "report.json" if target == "missing_dir" else tmp_path
    assert cli.main([*args, "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"cannot write {path}" in err
    assert [p.name for p in tmp_path.iterdir()] == []


@pytest.mark.parametrize("level", ["bogus", "warn", "notset"])
def test_unknown_log_level_exits_2(level, capsys, monkeypatch):
    # refused with its accepted levels, before any work and before the root
    # logger gains a handler or a level; logging's aliases are not levels here
    root = logging.getLogger()
    before = (list(root.handlers), root.level)
    monkeypatch.setenv("FREEWICK_LOG", level)
    monkeypatch.setattr(cli.ncpart, "enumerate_nc", _reached)
    assert cli.main(["partitions", "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: FREEWICK_LOG={level!r}") and "debug, info" in err
    assert (list(root.handlers), root.level) == before


def test_read_only_out_is_kept(tmp_path, capsys, monkeypatch):
    # a replace would succeed where the user cannot write the file itself
    path = tmp_path / "report.json"
    path.write_text("earlier\n")
    path.chmod(0o444)
    if os.access(path, os.W_OK):
        pytest.skip("this user may write a read-only file")
    monkeypatch.setattr(cli.suites, "run_suite", _reached)
    assert cli.main(["verify", "--suite", "cumulant", "--out", str(path)]) == 2
    assert f"cannot write {path}" in capsys.readouterr().err
    assert path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), MemoryError("no room")],
                         ids=["disk_full", "out_of_memory"])
@pytest.mark.parametrize("args", SMALL_RUNS, ids=lambda args: args[0])
def test_failed_write_keeps_the_earlier_out(args, error, tmp_path, capsys, monkeypatch):
    # the writer fails midway: the earlier report stays, and no temporary is left
    fdopen = os.fdopen

    def half_writing(fd, *args, **kwargs):
        handle = fdopen(fd, *args, **kwargs)
        write = handle.write

        def fail_midway(text):
            write(text[: len(text) // 2])
            raise error

        handle.write = fail_midway
        return handle

    monkeypatch.setattr(cli.os, "fdopen", half_writing)
    path = tmp_path / "report.json"
    path.write_text("earlier\n")
    assert cli.main([*args, "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and ("cannot write" in err) == isinstance(error, OSError)
    assert path.read_text() == "earlier\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
    # a run that completes replaces it
    monkeypatch.undo()
    assert cli.main([*args, "--out", str(path)]) == 0
    assert json.loads(path.read_text())
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_out_to_devnull_keeps_the_device(capsys):
    # a device is written in place: a replace would swap it for a regular file
    before = os.stat(os.devnull)
    assert cli.main(["partitions", "--n", "2", "--out", os.devnull]) == 0
    after = os.stat(os.devnull)
    assert stat.S_ISCHR(after.st_mode) and after.st_rdev == before.st_rdev
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
def test_out_to_fifo_keeps_the_fifo(tmp_path, capsys):
    path = tmp_path / "report.fifo"
    os.mkfifo(path)
    got = []
    reader = threading.Thread(target=lambda: got.append(path.read_text()), daemon=True)
    reader.start()
    try:
        code = cli.main(["partitions", "--n", "2", "--out", str(path)])
    finally:
        if reader.is_alive():
            # unblock the reader, should the CLI never have opened the FIFO
            with contextlib.suppress(OSError):
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=30)
    assert code == 0 and capsys.readouterr().out == ""
    assert stat.S_ISFIFO(os.stat(path).st_mode)
    assert json.loads(got[0])["count"] == 2
    assert [p.name for p in tmp_path.iterdir()] == ["report.fifo"]


def test_replaced_out_keeps_its_mode(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("earlier\n")
    path.chmod(0o640)
    assert cli.main(["partitions", "--n", "2", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["count"] == 2
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640


def test_stale_temporary_is_neither_taken_nor_removed(tmp_path, capsys):
    # a killed run with this pid left a temporary under the pid-based name
    path = tmp_path / "r.json"
    stale = tmp_path / f".r.json.{os.getpid()}.tmp"
    stale.write_text("stale\n")
    assert cli.main(["partitions", "--n", "2", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["count"] == 2
    assert stale.read_text() == "stale\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "r.json"]


def test_temporary_of_another_run_is_not_removed(tmp_path, capsys, monkeypatch):
    # the name this run draws is already held: it is refused, and the file stays
    monkeypatch.setattr(cli.os, "urandom", lambda n: bytes(n))
    held = tmp_path / f".r.json.{bytes(8).hex()}.tmp"
    held.write_text("live\n")
    path = tmp_path / "r.json"
    assert cli.main(["partitions", "--n", "2", "--out", str(path)]) == 2
    assert f"cannot write {path}" in capsys.readouterr().err
    assert held.read_text() == "live\n"
    assert [p.name for p in tmp_path.iterdir()] == [held.name]


@pytest.mark.parametrize("args", [SMALL_RUNS[0], SMALL_RUNS[2]], ids=lambda args: args[0])
def test_out_of_memory_exits_2(args, capsys, monkeypatch):
    # a MemoryError, wherever it is raised, ends the run like a refusal
    def exhausted(*args):
        raise MemoryError("no room")

    monkeypatch.setattr(cli.suites, "suite_cumulant", exhausted)
    monkeypatch.setattr(cli.ncpart, "enumerate_nc", exhausted)
    assert cli.main(args) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error: out of memory: no room" in err


# the 69 checks of `verify --suite all`, in report order: exact (tol 0) or at the one gate
EXACT, TOL = 0.0, 1e-10
CHECK_TABLE = [
    ("wick", "nc_count_catalan_n1", EXACT),
    ("wick", "nc_count_catalan_n2", EXACT),
    ("wick", "nc_count_catalan_n3", EXACT),
    ("wick", "nc_count_catalan_n4", EXACT),
    ("wick", "nc_count_catalan_n5", EXACT),
    ("wick", "nc_count_catalan_n6", EXACT),
    ("wick", "nc_count_catalan_n7", EXACT),
    ("wick", "nc_count_catalan_n8", EXACT),
    ("wick", "nc_count_catalan_n9", EXACT),
    ("wick", "nc_count_catalan_n10", EXACT),
    ("wick", "nc_count_brute_n1", EXACT),
    ("wick", "gn_count_brute_n1", EXACT),
    ("wick", "gn_count_recursion_n1", EXACT),
    ("wick", "nc_count_brute_n2", EXACT),
    ("wick", "gn_count_brute_n2", EXACT),
    ("wick", "gn_count_recursion_n2", EXACT),
    ("wick", "nc_count_brute_n3", EXACT),
    ("wick", "gn_count_brute_n3", EXACT),
    ("wick", "gn_count_recursion_n3", EXACT),
    ("wick", "nc_count_brute_n4", EXACT),
    ("wick", "gn_count_brute_n4", EXACT),
    ("wick", "gn_count_recursion_n4", EXACT),
    ("wick", "nc_count_brute_n5", EXACT),
    ("wick", "gn_count_brute_n5", EXACT),
    ("wick", "gn_count_recursion_n5", EXACT),
    ("wick", "nc_count_brute_n6", EXACT),
    ("wick", "gn_count_brute_n6", EXACT),
    ("wick", "gn_count_recursion_n6", EXACT),
    ("wick", "nc_count_brute_n7", EXACT),
    ("wick", "gn_count_brute_n7", EXACT),
    ("wick", "gn_count_recursion_n7", EXACT),
    ("wick", "nc_count_brute_n8", EXACT),
    ("wick", "gn_count_brute_n8", EXACT),
    ("wick", "gn_count_recursion_n8", EXACT),
    ("wick", "wick_rule_n1", TOL),
    ("wick", "wick_rule_n2", TOL),
    ("wick", "wick_rule_n3", TOL),
    ("wick", "wick_rule_n4", TOL),
    ("wick", "normal_product_rule_n2", TOL),
    ("wick", "normal_product_rule_n3", TOL),
    ("wick", "normal_product_rule_n4", TOL),
    ("wick", "wick_forms_agree", TOL),
    ("wick", "wick_projection_property", TOL),
    ("cumulant", "moment_cumulant_lambda", TOL),
    ("cumulant", "moment_cumulant_fiber", TOL),
    ("cumulant", "cumulant_recursion_vs_direct", TOL),
    ("cumulant", "mixed_cumulants_vanish", EXACT),
    ("cumulant", "free_independence_moments", TOL),
    ("cumulant", "traciality", TOL),
    ("cumulant", "transform_lambda_closed_vs_series", TOL),
    ("cumulant", "transform_fiber_closed_vs_series", TOL),
    ("cumulant", "transform_meixner_closed_vs_series", TOL),
    ("xfock", "moments_big_fock_vs_extended", TOL),
    ("xfock", "moments_general_fibers", TOL),
    ("xfock", "k_transform_isometry", TOL),
    ("xfock", "k_transform_intertwines", TOL),
    ("xfock", "k_transform_roundtrip", TOL),
    ("xfock", "inner_product_formula", TOL),
    ("xfock", "power_jump_orthogonality", TOL),
    ("xfock", "power_jump_norm", TOL),
    ("meixner", "semicircle_recovers_b", TOL),
    ("meixner", "semicircle_recovers_a", TOL),
    ("meixner", "norms_are_eta_powers", TOL),
    ("meixner", "one_atom_zero_pattern", EXACT),
    ("meixner", "representation_second_order_form", TOL),
    ("meixner", "xzero_level_dependence", EXACT),
    ("meixner", "meixner_moments_vs_big_fock", TOL),
    ("meixner", "meixner_moments_vs_extended", TOL),
    ("meixner", "meixner_moments_vs_nc_sum", TOL),
]


class TestVerify:
    def test_wick_suite_passes(self, capsys):
        code, out = run(["verify", "--suite", "wick", "--n-max", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_failure_exit_code(self, capsys, monkeypatch):
        # one route made to disagree by 1e-6 fails the checks that compare it
        nc_moment_sum = cli.suites.cumulant.nc_moment_sum
        monkeypatch.setattr(
            cli.suites.cumulant, "nc_moment_sum", lambda fs, pg: nc_moment_sum(fs, pg) + 1e-6
        )
        code, out = run(["verify", "--suite", "cumulant"], capsys)
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        failed = {c["name"] for c in payload["checks"] if not c["passed"]}
        assert "moment_cumulant_lambda" in failed

    @pytest.mark.parametrize(
        "module,name,nth,suite,check",
        [
            (xfock, "xmoment", 3, "xfock", "moments_big_fock_vs_extended"),
            (fock, "distance", 1, "wick", "wick_rule_n1"),
            (xfock, "xzero", 1, "meixner", "xzero_level_dependence"),
            (ncpart, "catalan", 1, "wick", "nc_count_catalan_n1"),
        ],
        ids=["xmoment", "distance", "xzero", "catalan"],
    )
    def test_nan_sample_fails_its_check(self, module, name, nth, suite, check, capsys, monkeypatch):
        # one route's NaN, for a single sample, must fail the check it feeds
        route, calls = getattr(module, name), []

        def nan_once(*args):
            calls.append(None)
            out = route(*args)
            return out * math.nan if len(calls) == nth else out

        monkeypatch.setattr(module, name, nan_once)
        code, out = run(["verify", "--suite", suite], capsys)
        assert code == 1
        payload = strict_json(out)
        failed = [c for c in payload["checks"] if not c["passed"]]
        assert [c["name"] for c in failed] == [check] and payload["passed"] is False
        assert failed[0]["residual"] is None

    def test_projection_fails_when_its_level_is_missing(self, capsys, monkeypatch):
        # a Wick product that returns the zero vector drops the kernel's level:
        # the check must compare that missing level with the kernel, not skip it
        monkeypatch.setattr(
            field, "wick_apply", lambda f, v, g, form="explicit": fock.FockVector(v.base, [0.0], v.max_level)
        )
        code, out = run(["verify", "--suite", "wick"], capsys)
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert not checks["wick_projection_property"]["passed"]
        assert checks["wick_projection_property"]["residual"] > 0.1

    def test_text_format(self, capsys):
        code, out = run(
            ["verify", "--suite", "meixner", "--format", "text"], capsys
        )
        assert code == 0
        assert "passed: True" in out

    def test_csv_format(self, capsys):
        # a literal pin of the header and the first row
        code, out = run(["verify", "--suite", "wick", "--n-max", "2", "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[:2] == [
            "suite,check,residual,tol,passed",
            "wick,nc_count_catalan_n1,0.000e+00,0.0e+00,True",
        ]

    def test_text_format_flattens_dict_keys(self, capsys):
        code, out = run(["verify", "--suite", "cumulant", "--seed", "3", "--format", "text"], capsys)
        assert code == 0
        lines = out.splitlines()
        for key, value in (("m", 6), ("fiber_nodes", 8), ("n_max", 4), ("seed", 3)):
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
        assert cli.main(["verify", "--suite", "wick", "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "seed" in err

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
        assert set(params) == {"m", "fiber_nodes", "degree", "n_max", "seed"}
        assert params["seed"] == 5 and params["n_max"] == 2
        assert params["m"] == 6

    @pytest.mark.parametrize("fiber_nodes", [1, 2, 3])
    def test_too_few_fiber_nodes_refused(self, fiber_nodes, tmp_path, capsys, monkeypatch):
        # the xfock suite reads the node polynomials up to degree 4
        for name in cli.suites.SUITE_NAMES:
            monkeypatch.setattr(cli.suites, f"suite_{name}", _reached)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fiber_nodes": fiber_nodes}))
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "fiber_nodes" in err

    def test_degree_past_nc_limit_refused_before_any_suite(self, tmp_path, capsys, monkeypatch):
        # the cumulant suite's words reach degree factors, and nc_moment_sum
        # enumerates at most NC_LIMIT of them: refused before any suite runs
        monkeypatch.setattr(cli.suites, "run_suite", _reached)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"degree": ncpart.NC_LIMIT + 1}))
        assert cli.main(["verify", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "config error: degree must lie in 1..14" in err

    @pytest.mark.parametrize(
        "config",
        [{"lambda": 3.0, "eta": 0.0}, {"interval": [0.0, 2.0]}, {"fibers": TWO_LAWS, "m": 2}],
        ids=["lambda", "interval", "fibers"],
    )
    def test_unread_keys_refused(self, config, tmp_path, capsys, monkeypatch):
        # the suites build their own models: a key they never read is refused, by name
        for name in cli.suites.SUITE_NAMES:
            monkeypatch.setattr(cli.suites, f"suite_{name}", _reached)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["verify", "--suite", "meixner", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and sorted(set(config) - {"m"})[0] in err
        # moments reads them all
        code, _ = run(["moments", "--config", str(cfg), "--power", "2"], capsys)
        assert code == 0

    def test_every_tolerance_at_most_1e_10(self, capsys):
        # every check is exact or gated at the one constant, with no exception
        code, out = run(["verify", "--suite", "all"], capsys)
        assert code == 0
        checks = json.loads(out)["checks"]
        assert len(checks) == 69
        assert {c["tol"] for c in checks} == {0.0, 1e-10}
        # pinned by name, order and tolerance, so no refactor renames,
        # reorders or un-exacts a check
        assert [(c["suite"], c["name"], c["tol"]) for c in checks] == CHECK_TABLE

    @pytest.mark.parametrize(
        "config,suite",
        [
            ({"fiber_nodes": 4}, "all"),
            ({"m": 1}, "wick"),
            ({"m": 1}, "xfock"),
            ({"m": 1}, "meixner"),
        ],
        ids=["fiber_nodes4-all", "m1-wick", "m1-xfock", "m1-meixner"],
    )
    def test_edge_configs_pass(self, config, suite, tmp_path, capsys):
        # the smallest fiber table verify allows, and one cell; the cumulant
        # suite is left out at one cell, where it fails at seed 6 (an xfail
        # in test_cumulant)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out = run(["verify", "--suite", suite, "--config", str(cfg), "--seed", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True and payload["checks"]
        assert all(c["passed"] for c in payload["checks"])

    def test_each_check_carries_its_own_time(self, monkeypatch):
        # the two transform checks share their inputs, and only the
        # intertwining one realizes the field, so its sleeps land on it
        realize = xfock.big_fock_realize

        def slow(*args):
            time.sleep(0.05)
            return realize(*args)

        monkeypatch.setattr(xfock, "big_fock_realize", slow)
        checks = {c.name: c for c in cli.suites.run_suite("xfock", cli.suites.SuiteParams())}
        assert checks["k_transform_intertwines"].elapsed >= 20 * 0.05
        assert checks["k_transform_isometry"].elapsed < 20 * 0.05

    def test_suite_seconds(self, capsys):
        code, out = run(["verify", "--suite", "all"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert list(payload["suite_seconds"]) == payload["suites"]
        assert sum(payload["suite_seconds"].values()) == payload["elapsed_seconds"]
        # each check is timed, and a suite's time is the sum of its checks'
        assert all(c["elapsed"] >= 0 for c in payload["checks"])
        for suite, seconds in payload["suite_seconds"].items():
            assert sum(c["elapsed"] for c in payload["checks"] if c["suite"] == suite) == seconds


@pytest.mark.parametrize(
    "params",
    [
        {"fiber_nodes": 2},
        {"fiber_nodes": 3},
        {"n_max": 0},
        {"n_max": 7},
        {"seed": -1},
        {"m": 0},
        {"degree": 0},
        {"m": 6.5},
        {"seed": 1.5},
        {"n_max": 2.5},
        {"degree": 2.5},
        {"fiber_nodes": 8.0},
        {"m": True},
        {"degree": 15},
    ],
    ids=[
        "fiber_nodes2", "fiber_nodes3", "n_max0", "n_max7", "seed-1", "m0", "degree0",
        "m6.5", "seed1.5", "n_max2.5", "degree2.5", "fiber_nodes8.0", "m_true", "degree15",
    ],
)
def test_suite_params_refuse_what_suites_cannot_run(params):
    with pytest.raises(ConfigError, match=next(iter(params))):
        cli.suites.SuiteParams(**params)


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
