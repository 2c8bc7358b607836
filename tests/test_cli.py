import argparse
import csv
import dataclasses
import errno
import gc
import hashlib
import io
import json
import math
import os
import stat
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame import DegreeModel, GameParams, build_pi, sophisticated_mle
from netgame import cli
from netgame.cli import (
    DEFAULTS,
    PRESETS,
    _boolean,
    _Options,
    _scalar_list,
    _solution_rows,
    _tabulate,
    build_parser,
    main,
)
from netgame.population import ModelError
from netgame.typespace import type_labels

POSITIVE_EPS = "excess ratio eps = d_2/d_1 - 1 must be positive"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestProgramEntry:
    """``run`` is the program; ``main`` is what a caller runs in-process."""

    @pytest.mark.parametrize("argv, status", [
        (["example"], 0),
        (["solve", "--model", "oops"], 2),
        (["--no-such-flag"], 2),
    ], ids=["example", "model-error", "argparse-exit"])
    def test_only_the_entry_ends_the_process(self, argv, status, monkeypatch, capsys):
        class Ended(Exception):
            pass

        ended = []

        def end(code):  # os._exit never returns, so the stand-in raises
            ended.append((code, capsys.readouterr().out))
            raise Ended

        monkeypatch.setattr(cli.os, "_exit", end)
        before = gc.isenabled(), gc.get_freeze_count()
        try:
            assert main(argv) == status
        except SystemExit as exc:
            assert exc.code == status
        out = capsys.readouterr().out
        assert (gc.isenabled(), gc.get_freeze_count(), ended) == (*before, [])
        monkeypatch.setattr(sys, "argv", ["netgame", *argv])
        with pytest.raises(Ended):
            cli.run()
        assert ended == [(status, out)]

    def test_an_exception_from_main_takes_the_interpreters_path(self, monkeypatch):
        # a traceback and status 1, not an os._exit that would hide it
        monkeypatch.setattr(cli.os, "_exit", None)
        monkeypatch.setattr(cli, "main", lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            cli.run()

    def test_the_console_script_is_the_entry(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10 reads the table as text
            table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
            assert table.split() == ["netgame", "=", '"netgame.cli:run"']
        else:
            assert tomllib.loads(text)["project"]["scripts"] == {"netgame": "netgame.cli:run"}


class TestExample:
    def test_default_passes(self, capsys):
        code, out = run(capsys, "example")
        assert code == 0
        assert "all checks passed" in out

    def test_exact_passes(self, capsys):
        code, out = run(capsys, "example", "--exact", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and report["exact"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["benchmark_expectation"]["value"] == "5/12"
        assert by_name["sophisticated_estimate_high"]["value"] == "2/5"
        assert all(c["passed"] for c in report["checks"])

    def test_json_report_shape(self, capsys):
        code, out = run(capsys, "example", "--json")
        report = json.loads(out)
        assert {"name", "value", "expected", "tolerance", "mode", "passed"} <= \
            set(report["checks"][0])
        assert len(report["checks"]) == 11


class TestSweeps:
    def _read_pair(self, out_dir, name):
        with open(out_dir / f"{name}.csv", newline="") as fh:
            csv_rows = list(csv.reader(fh))
        payload = json.loads((out_dir / f"{name}.json").read_text())
        return csv_rows, payload

    def _assert_round_trip(self, csv_rows, payload):
        assert csv_rows[0] == payload["columns"]
        assert len(csv_rows) - 1 == len(payload["rows"])
        for text_row, row in zip(csv_rows[1:], payload["rows"]):
            for cell, value in zip(text_row, row):
                if isinstance(value, float):
                    assert float(cell) == value
                elif isinstance(value, int):
                    assert int(cell) == value
                else:
                    assert cell == str(value)

    def test_bias_sweep(self, tmp_path, capsys):
        code, out = run(capsys, "sweep", "bias", "--eps", "1,99",
                        "--out", str(tmp_path))
        assert code == 0
        csv_rows, payload = self._read_pair(tmp_path, "bias")
        assert csv_rows[0] == ["eps", "delta2", "bias"]
        assert len(csv_rows) == 2 * 1001 + 1
        self._assert_round_trip(csv_rows, payload)
        summary = {item["eps"]: item for item in payload["summary"]}
        assert summary[1.0]["max_bias"] == pytest.approx(0.1716, abs=5e-4)
        assert summary[99.0]["argmax"] == pytest.approx(0.091, abs=0.002)

    def test_sophistication_sweep(self, tmp_path, capsys):
        code, _ = run(capsys, "sweep", "sophistication", "--preset", "example",
                      "--out", str(tmp_path))
        assert code == 0
        csv_rows, payload = self._read_pair(tmp_path, "sophistication")
        self._assert_round_trip(csv_rows, payload)
        first, last = payload["rows"][0], payload["rows"][-1]
        assert first[1] == pytest.approx(0.5, abs=1e-12)        # naive flat
        assert last[2] == pytest.approx(15 / 36, abs=1e-12)     # endpoint
        assert last[2] == last[3]

    def test_outcomes_sweep(self, tmp_path, capsys):
        code, _ = run(capsys, "sweep", "outcomes", "--preset", "example",
                      "--grid", "5", "--out", str(tmp_path))
        assert code == 0
        csv_rows, payload = self._read_pair(tmp_path, "outcomes")
        self._assert_round_trip(csv_rows, payload)
        rows = payload["rows"]
        benchmark_low = [r for r in rows if r[1] == "benchmark" and r[2] == 4]
        assert benchmark_low[0][3] == pytest.approx(13 / 36, abs=1e-12)

    def test_precision_sweep(self, tmp_path, capsys):
        code, _ = run(capsys, "sweep", "precision", "--preset", "spread",
                      "--grid", "9", "--out", str(tmp_path))
        assert code == 0
        csv_rows, payload = self._read_pair(tmp_path, "precision")
        self._assert_round_trip(csv_rows, payload)
        rows = payload["rows"]
        finite = [r for r in rows if r[1] == 2 and r[3] == "naive"]
        infinite = [r for r in rows if r[1] == "inf" and r[3] == "naive"]
        assert finite and infinite


    def test_precision_sweep_bytes_are_pinned(self, tmp_path, capsys):
        code, _ = run(capsys, "sweep", "precision", "--preset", "spread",
                      "--grid", "9", "--out", str(tmp_path))
        assert code == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("precision.csv", "precision.json")}
        assert digests == {
            "precision.csv":
                "3ec4cf94ca4cbf73c28d083e85ec077b6fc6f160e15be7f650826de10a9ba2ba",
            "precision.json":
                "decdf815699d64ae9d40c92116cb02527e68849961b6ff6110f5fe0d856b822e",
        }

    def test_unstable_precision_rows_are_pinned(self, tmp_path, capsys):
        # the one mixed float column: an unstable row's value is ""
        code, _ = run(capsys, "sweep", "precision", "--d1", "inf", "--eps", "2", "--alpha",
                      "1.2", "--c", "3", "--etheta", "1", "--sigma", "0,1", "--grid", "9",
                      "--out", str(tmp_path))
        assert code == 0
        _, payload = self._read_pair(tmp_path, "precision")
        assert len(payload["rows"]) == 26
        assert sum(row[4] == "" and row[5] == "unstable" for row in payload["rows"]) == 8
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in ("precision.csv", "precision.json")) == (
            "1457aae6b2e196980c07f2faf6f0817df1d5c10d8d48ddf17f663b7c4ae51506",
            "a36979db42af6c2c5666ce2a09db39093e712fd8492d39dab9508a171ca5bc79")

    @pytest.mark.parametrize("preset, digests", [
        ("example", ("bfbd61bcdc286a29236ad15ebe6619a490b313fb884dfa2e33c431a07583be0b",
                     "6156d50f72a49ddd51e0e5568000342a7efb4f1627133b5b6cb2288cdf4eab05")),
        ("spread", ("c3b691bbc8590736af15fb356e524d79eb5efceec1b1057e46915c466db2778c",
                    "ec3c65c7cc494748cacaf0b0b4dceb6878609ac458a0107ee0b219559d827cdb")),
    ])
    def test_outcomes_sweep_bytes_are_pinned(self, preset, digests, tmp_path, capsys):
        code, _ = run(capsys, "sweep", "outcomes", "--preset", preset,
                      "--grid", "5", "--out", str(tmp_path))
        assert code == 0
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in ("outcomes.csv", "outcomes.json")) == digests

    @pytest.mark.parametrize("argv, digests", [
        (["--grid", "11"],
         ("0e973491af4abfe18e4c2bf52cccb9e84de353871035d6ef670898be13743966",
          "a647470f29786d56c60326e60addf90258431667cea4908f53ae145f824d47ef")),
        (["--eps", "0.5,3", "--grid", "7"],
         ("06b87aaa551d364d2b2040dc2f13255096233d87d87bc05a562d69f685429855",
          "0c0744c2e038d5fe04c644e88a38406dccc1f6b51eb795c4a0187236588dd852")),
    ], ids=["default-eps", "two-eps"])
    def test_bias_sweep_bytes_are_pinned(self, argv, digests, tmp_path, capsys):
        code, _ = run(capsys, "sweep", "bias", *argv, "--out", str(tmp_path))
        assert code == 0
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in ("bias.csv", "bias.json")) == digests

    @pytest.mark.parametrize("preset, digests", [
        ("example", ("bbc3e73660a26348e56722b91ec8a94e6e3ff679a854c7d57f5abeecc6293118",
                     "10cf13a74296bce39751fc1e8d017ec524e8e011b195f373f4e0ec8b1bb97ae7")),
        ("spread", ("5e89be7b0181b9a1e2b673de6035ea25ad722818065f19414fb04375cfb2f4c0",
                    "46fb9e77269558abe38254f4eba3ca75f70e0bb9501b9154b1dd352adbf0bd11")),
    ])
    def test_sophistication_sweep_bytes_are_pinned(self, preset, digests, tmp_path, capsys):
        code, _ = run(capsys, "sweep", "sophistication", "--preset", preset,
                      "--grid", "5", "--out", str(tmp_path))
        assert code == 0
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in ("sophistication.csv", "sophistication.json")) == digests

    def test_precision_sweep_weighs_once_per_lowest_degree(self, tmp_path, capsys,
                                                           monkeypatch):
        import netgame.equilibrium
        calls = []
        real = netgame.equilibrium.multinomial_pmf
        monkeypatch.setattr(netgame.equilibrium, "multinomial_pmf",
                            lambda c, p: calls.append(len(p)) or real(c, p))
        code, _ = run(capsys, "sweep", "precision", "--d1", "2,4,inf", "--sigma",
                      "0,0.5,1", "--grid", "7", "--out", str(tmp_path))
        assert code == 0
        assert calls == [5, 5]  # one call per finite d1, one row per interior point


class TestSimulate:
    def test_small_run_passes(self, capsys):
        code, out = run(capsys, "simulate", "--preset", "example",
                        "--n", "20000", "--trials", "3", "--seed", "1",
                        "--tol", "0.02", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"]
        assert report["sophisticated_high_mean"] == pytest.approx(0.4, abs=0.02)

    def test_byte_identical_reports(self, capsys):
        argv = ["simulate", "--preset", "example", "--n", "5000",
                "--trials", "2", "--seed", "7", "--json"]
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("model, digests", [
        (["--preset", "example", "--n", "3000"],
         ("5f99f326c8410ce87cb0a1d443068be82c3ecfb6495d774777fc9b91a0d7db1f",
          "33e8eb39f3a35a8ecf9d5e15d7db064c43a10d5e8e6ccb739c986a2feaa3e2ae",
          "a085c978df099c31c0206a57b99e042115ccebc0ec42f526dbf5de7b1122afc3")),
        (["--preset", "example", "--n", "3000", "--simple"],
         ("2955b38e2c7a2c3d67d26636ec32b89d0f7d3d0857954402c4634d373787a209",
          "90b6df0bceabcd957633c54fba5f37a12620f6def7bea5109220d6e09ad52937",
          "644afbbbf8a3fba9b50c7cf79d0baf54451227bc53997e32035c27cb29a984fe")),
        # K = 3 with an odd stub total: the last node loses a stub
        (["--model", "1,2,3:0.5,0.3,0.2", "--n", "1001"],
         ("7c098a9b919353d55ae370b6feb5248004ddb6bbfaff4f28ac69c6ae0828e502",
          "abe79fd9ae33b694d166324efec82fddd593ae98c807ceadd8f61d8bac1f1a58",
          "21ce1676ecf42bca6c6a459880be8cdfffa5e6a8d729062ea269bf112c734c98")),
        (["--model", "1,2,3:0.5,0.3,0.2", "--n", "1001", "--simple"],
         ("45f7c9dac9ffa8214a2b49e445c97253c1fee5ac683691dd56c417280d61b00c",
          "abe79fd9ae33b694d166324efec82fddd593ae98c807ceadd8f61d8bac1f1a58",
          "63fa88a82c5cd0ebcf1de6709ed92342d2995a8e7acdc95966f53f59354c27db")),
        # dense: trial 0's round 1 draws 1,378 edges twice or more, some three
        # times, then dissolves 1,420 accepted edges
        (["--model", "30,90:0.5,0.5", "--n", "5000", "--simple"],
         ("ac1d325ea65a5026271676e3508dc7f31caf292dbc9827c7f41cf772d6ab499b",
          "ff77623cd24f1be33d58b51dc54349757c3d8f7fd726c290e426f1c1c1dc133a",
          "4a93b88664541a09179d8d0c0fc5b4042bc82013ea7adefddbbed3f0644ea377")),
    ], ids=["example", "example-simple", "k3-parity", "k3-parity-simple", "dense-simple"])
    def test_simulate_bytes_are_pinned(self, model, digests, tmp_path, capsys):
        code, _ = run(capsys, "simulate", *model, "--trials", "3", "--seed", "11",
                      "--out", str(tmp_path))
        assert code == 0
        names = ("simulate.json", "edges.txt", "edges.meta.json")
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in names) == digests

    def test_miniature_simple_outputs(self, tmp_path, capsys):
        code, _ = run(capsys, "simulate", "--preset", "example", "--n", "10",
                      "--trials", "1", "--seed", "2", "--simple",
                      "--tol", "0.5", "--out", str(tmp_path))
        assert code == 0
        meta = json.loads((tmp_path / "edges.meta.json").read_text())
        assert meta["n"] == 10 and meta["mode"] == "simple"
        edges = (tmp_path / "edges.txt").read_text().splitlines()
        assert len(edges) == meta["edges"]
        report = json.loads((tmp_path / "simulate.json").read_text())
        assert report["seed"] == 2


class TestSolveDump:
    def test_per_type_expectations(self, tmp_path, capsys):
        code, _ = run(capsys, "solve", "--model", "2,6:0.6,0.4",
                      "--alpha", "1.2", "--c", "3.7", "--sigma", "0.5",
                      "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "solution.json").read_text())
        assert payload["columns"] == ["label", "rule", "degree", "observed",
                                      "expectation"]
        assert len(payload["rows"]) == 2 * (3 + 7)
        assert payload["residual"] <= 1e-10
        assert all(r[4] >= 1.0 / 3.7 - 1e-12 for r in payload["rows"])

    def test_boundary_parameters_exit_two(self, capsys):
        code = main(["solve", "--preset", "example", "--sigma", "0.5"])
        assert code == 2

    def test_a_boundary_that_rounds_inside_is_refused_as_singular(self, tmp_path, capsys):
        # 3 * 11 = 11 * 3, yet (3/11)*(11/3) rounds below one: this was reported as a
        # failed residual gate, not as the singular system it is
        code = main(["solve", "--model", "3,11:0.6,0.4", "--alpha", "3", "--c", "11",
                     "--etheta", "0.5", "--sigma", "0.5", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == ("error: singular type system; stability requires "
                                           "alpha * d_K/d_1 < cost\n")

    def test_outputs_take_the_mode_of_a_plain_open(self, tmp_path, capsys):
        old = os.umask(0o022)
        try:
            code, _ = run(capsys, "solve", "--out", str(tmp_path))
        finally:
            os.umask(old)
        assert code == 0
        for name in ("solution.csv", "solution.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o644

    @pytest.mark.parametrize("argv, digests", [
        ([], ("7f6b06382676e9e3d433298f69413470c5a277a4b0f491e5e54ab88e0c635bc6",
              "741f665b0d2b50f2fb0f2d0607098831ba8955673c17ef348e4c5a66afeafb8c")),
        # K = 3: three target degrees and all four rule blocks
        (["--model", "1,2,3:0.2,0.3,0.5", "--sigma", "0.3", "--alpha", "1", "--c", "4"],
         ("c70cfdba3175aa45490327a5e5343d74cb733000c86fcc03ec9b242d64a5aa87",
          "1c8b3b7ccadd97f34093c88e2f3e6bd91e9da26ed8d6729f9fa46dd4704b57a0")),
    ], ids=["default", "k3"])
    def test_solve_bytes_are_pinned(self, argv, digests, tmp_path, capsys):
        code, _ = run(capsys, "solve", *argv, "--out", str(tmp_path))
        assert code == 0
        assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                     for name in ("solution.csv", "solution.json")) == digests

    @pytest.mark.parametrize("model, rows", [("2,6:0.5,0.5", 20), ("32,96:0.5,0.5", 260)])
    def test_solves_a_hair_inside_the_stability_edge(self, model, rows, tmp_path, capsys):
        # margin 1e-10: the absolute residual grows with xi, near 3e9, and the
        # dump reports it while the backward error passes its gate
        code, _ = run(capsys, "solve", "--model", model, "--alpha", "1",
                      "--c", "3.0000000003", "--sigma", "0.5", "--out", str(tmp_path))
        assert code == 0
        twin = json.loads((tmp_path / "solution.json").read_text())
        assert len(twin["rows"]) == rows and 1e-8 < twin["residual"] < 1e-5

    def test_k3_bytes_hold_under_a_compensated_sum(self, tmp_path, capsys, request):
        # Python 3.12 adds floats in sum() with compensation; the bytes must not move
        def written(out):
            argv = ["--model", "1,2,3:0.2,0.3,0.5", "--sigma", "0.3", "--alpha", "1",
                    "--c", "4", "--out", str(out)]
            assert run(capsys, "solve", *argv)[0] == 0
            assert run(capsys, "pi", *argv)[0] == 0
            return [(out / name).read_bytes()
                    for name in ("solution.csv", "solution.json", "pi.csv")]

        plain = written(tmp_path / "sum")
        request.getfixturevalue("compensated_sum")
        assert written(tmp_path / "compensated") == plain

    def test_solve_and_pi_make_no_agent_type(self, tmp_path, capsys, monkeypatch):
        import netgame.typespace

        def refuse(self):
            raise AssertionError("an AgentType was made")

        monkeypatch.setattr(netgame.typespace.AgentType, "__post_init__", refuse)
        for command in ("solve", "pi"):
            code, _ = run(capsys, command, "--model", "1,2,3:0.2,0.3,0.5", "--sigma", "0.3",
                          "--alpha", "1", "--c", "4", "--out", str(tmp_path / command))
            assert code == 0


@st.composite
def solved_shapes(draw):
    """A model with K = 2 to 4 classes of degree 8 at most, its system at a
    drawn sigma, and one expectation per type."""
    k = draw(st.integers(2, 4))
    degrees = sorted(draw(st.lists(st.integers(1, 8), min_size=k, max_size=k, unique=True)))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    model = DegreeModel(tuple(degrees), tuple(r / sum(raw) for r in raw))
    sigma = draw(st.floats(0, 1))
    params = GameParams(1.0, 1.0, 2.0 * model.rho[-1] + 1.0, sigma, model)
    system = build_pi(model, params)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return model, system, rng.random(system.L) * 3


def _hexed(cells):
    return [cell.hex() if isinstance(cell, float) else cell for cell in cells]


class TestSolveRows:
    @settings(max_examples=40, deadline=None)
    @given(solved_shapes())
    def test_rows_labels_and_beliefs_match_the_types(self, shaped):
        model, system, xi = shaped
        types = system.types
        assert [_hexed(row) for row in _solution_rows(system, xi)] == [
            _hexed((t.label, t.rule, t.degree, "/".join(map(repr, t.shares)), float(x)))
            for t, x in zip(types, xi)]
        assert type_labels(*system.observations) == [t.label for t in types]
        half = system.L // 2
        for p, t in enumerate(types[:half]):
            assert _hexed(system.beliefs[0, p].tolist()) == _hexed(t.shares)
            assert _hexed(system.beliefs[1, p].tolist()) == \
                _hexed(sophisticated_mle(t.shares, model.degrees))


class TestPiDump:
    def test_k3_bytes_are_pinned(self, tmp_path, capsys):
        code, _ = run(capsys, "pi", "--model", "1,2,3:0.2,0.3,0.5", "--sigma", "0.3",
                      "--out", str(tmp_path))
        assert code == 0
        assert hashlib.sha256((tmp_path / "pi.csv").read_bytes()).hexdigest() == (
            "2d9ff56f7e8898b5abcd246663079094e3aa99a0d7ff49930554e7367c79521c")

    def test_labeled_header(self, tmp_path, capsys):
        code, _ = run(capsys, "pi", "--model", "2,4:0.5,0.5", "--sigma", "1",
                      "--out", str(tmp_path))
        assert code == 0
        with open(tmp_path / "pi.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "observer"
        assert len(rows) == 17
        body = [float(v) for v in rows[10][1:]]
        assert sum(body) == pytest.approx(1.0, abs=1e-12)


class TestConfigAndErrors:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 1\ngrid = 101  # comment\n")
        code, _ = run(capsys, "sweep", "bias", "--config", str(cfg),
                      "--grid", "11", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "bias.json").read_text())
        assert payload["eps"] == [1.0]          # from the file
        assert len(payload["rows"]) == 11       # flag wins over the file
        deltas = {r[1] for r in payload["rows"]}
        assert len(deltas) == 11

    def test_bad_model_exits_two(self, capsys):
        code = main(["sweep", "sophistication", "--model", "oops"])
        assert code == 2

    def test_unstable_model_exits_two(self, capsys):
        code = main(["sweep", "sophistication", "--model", "2,6:0.5,0.5",
                     "--alpha", "2", "--c", "3"])
        assert code == 2

    @pytest.mark.parametrize("argv, named", [
        (["sweep", "precision", "--eps", "nan"], "excess ratio"),
        (["sweep", "precision", "--eps", "inf"], "excess ratio"),
        (["sweep", "precision", "--d1", ","], "option d1"),
        (["simulate", "--n", "50", "--trials", "1", "--seed", "-1"], "seed"),
        (["sweep", "precision", "--sigma", ","], "option sigma"),
        (["sweep", "bias", "--eps", ","], "option eps"),
        (["simulate", "--n", "50", "--trials", "1", "--tol", "-1"], "option tol"),
        (["simulate", "--n", "50", "--trials", "1", "--tol", "inf"], "option tol"),
        (["sweep", "precision", "--eps", "-0.5"], POSITIVE_EPS),
        (["sweep", "precision", "--eps", "0"], POSITIVE_EPS),
        (["sweep", "precision", "--eps", "-0.5", "--d1", "inf"], POSITIVE_EPS),
        (["sweep", "bias", "--eps", "nan"], "excess ratio"),
        (["sweep", "bias", "--eps", "inf"], "excess ratio"),
        # the limit-only path checks its scalars as GameParams does
        (["sweep", "precision", "--d1", "inf", "--sigma", "2"], "sophistication share"),
        (["sweep", "precision", "--d1", "inf", "--alpha", "-1"], "complementarity level"),
        (["sweep", "precision", "--d1", "inf", "--etheta", "-1"], "mean preference"),
        (["sweep", "precision", "--d1", "inf", "--c", "-3"], "action cost"),
        (["sweep", "precision", "--d1", "inf", "--etheta", "nan"], "must be finite"),
        (["sweep", "precision", "--grid", "2"], "grid"),
        (["sweep", "precision", "--d1", "inf", "--grid", "2"], "grid"),
        (["sweep", "precision", "--d1", "2,2", "--sigma", "0.5", "--grid", "3"],
         "lowest degrees must be distinct"),
        (["sweep", "precision", "--d1", "2,inf,inf", "--sigma", "0.5", "--grid", "3"],
         "lowest degrees must be distinct"),
        # unset c defaults to 2 * alpha * d_K/d_1, which is 0 at alpha = 0
        (["pi", "--alpha", "0"], "default action cost 2 * alpha * d_K/d_1 is 0 at "
                                 "alpha = 0; set it with --c"),
        (["pi", "--alpha", "-1"], "complementarity level"),
    ], ids=["precision-eps-nan", "precision-eps-inf", "precision-empty-d1",
            "simulate-negative-seed", "precision-empty-sigma", "bias-empty-eps",
            "simulate-negative-tol", "simulate-infinite-tol", "precision-negative-eps",
            "precision-zero-eps", "precision-limit-only-negative-eps",
            "bias-eps-nan", "bias-eps-inf", "precision-limit-only-sigma-2",
            "precision-limit-only-negative-alpha", "precision-limit-only-negative-etheta",
            "precision-limit-only-negative-c", "precision-limit-only-etheta-nan",
            "precision-no-interior-grid", "precision-limit-only-no-interior-grid",
            "precision-repeated-d1", "precision-repeated-inf",
            "pi-zero-alpha-default-cost", "pi-negative-alpha-default-cost"])
    def test_bad_input_exits_two_without_output(self, argv, named, tmp_path, capsys):
        fresh = tmp_path / "fresh"
        assert main([*argv, "--out", str(fresh)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not fresh.exists()

    @pytest.mark.parametrize("trials", ["1", "20"])
    def test_simulate_over_the_stub_budget_exits_two_at_once(self, trials, tmp_path, capsys):
        # 1.5e10 stubs at n = 10, which a draw would hold in a 112 GiB array
        fresh = tmp_path / "fresh"
        start = time.perf_counter()
        assert main(["simulate", "--model", "1000000000,2000000000:0.5,0.5", "--n", "10",
                     "--trials", trials, "--out", str(fresh)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith("error: 15000000000 stubs at n = 10: 5 int64 stub arrays and "
                              "16 int64 node arrays need")
        assert not fresh.exists()

    @pytest.mark.parametrize("argv, types", [
        (["solve", "--model", "200,400,600:0.5,0.3,0.2"], 563_606),
        (["solve", "--model", "1000,2000,3000:0.5,0.3,0.2"], 14_018_006),
        (["pi", "--model", "3000,9000:0.5,0.5"], 24_004),
        (["sweep", "precision", "--d1", "100000,inf"], 800_004),
    ], ids=["solve", "solve-huge", "pi", "sweep-precision"])
    def test_a_type_system_over_the_budget_exits_two_at_once(self, argv, types, tmp_path,
                                                            capsys):
        # refused from the closed-form type count, before any type is enumerated
        fresh = tmp_path / "fresh"
        start = time.perf_counter()
        assert main([*argv, "--out", str(fresh)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: L = {types} types: the (L/2)^2 table, a solve block "
                              f"and LAPACK's copy of it need {24 * (types // 2) ** 2} bytes")
        assert not fresh.exists()

    @pytest.mark.parametrize("argv, named", [
        (["sweep", "bias", "--grid", "100000000000"], "the 100000000000 grid points"),
        (["sweep", "sophistication", "--grid", "100000000000"], "the 100000000000 grid points"),
        (["sweep", "outcomes", "--grid", "100000000000"], "the 100000000000 grid points"),
        (["sweep", "precision", "--grid", "100000000000"], "the 100000000000 grid points"),
        (["simulate", "--n", "1000", "--trials", "100000000000"],
         "100000000000 trials: the per-trial results"),
    ], ids=["bias", "sophistication", "outcomes", "precision", "simulate"])
    def test_a_huge_count_exits_two_at_once(self, argv, named, tmp_path, capsys):
        # refused from the count, before numpy is asked for the array
        fresh = tmp_path / "fresh"
        start = time.perf_counter()
        assert main([*argv, "--out", str(fresh)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} need ") and err.count("\n") == 1
        assert not fresh.exists()

    def test_precision_type_weights_over_the_budget_exit_two(self, tmp_path, capsys,
                                                             monkeypatch):
        # d1 = 2: L/2 = 3 + 7 observations, a 2400-byte table and solve blocks, and
        # 39 interior grid points of 10 type weights each, 3120 bytes
        from netgame import population
        monkeypatch.setattr(population, "MEMORY_BUDGET", 3119)
        fresh = tmp_path / "fresh"
        assert main(["sweep", "precision", "--d1", "2,inf", "--out", str(fresh)]) == 2
        assert capsys.readouterr().err == (
            "error: 39 true high shares at d1 = 2: the type weights need 3120 bytes "
            "(2.91e-06 GiB), over the budget of 3119 bytes\n")
        assert not fresh.exists()
        monkeypatch.setattr(population, "MEMORY_BUDGET", 3120)
        assert main(["sweep", "precision", "--d1", "2,inf", "--out", str(fresh)]) == 0

    def test_failed_sweep_leaves_no_default_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NETGAME_OUT", raising=False)
        assert main(["sweep", "bias", "--grid", "1"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_failed_edge_list_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        import netgame.netsim

        def torn(net, path):
            with open(path, "w") as fh:
                fh.write("0 1\n")
            raise OSError("disk full")

        monkeypatch.setattr(netgame.netsim, "write_edgelist", torn)
        out = tmp_path / "o"
        assert main(["simulate", "--n", "200", "--trials", "1", "--tol", "0.5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out / 'edges.txt'}: disk full\n"
        assert not out.exists()

    @pytest.mark.parametrize("below", ["new/deeper", "."], ids=["nested", "existing"])
    def test_a_failed_write_removes_only_the_directories_it_made(self, below, tmp_path,
                                                                 capsys, monkeypatch):
        # the directories the command made go, deepest first; one that was
        # there before stays, with its files' bytes
        import netgame.netsim

        def full(net, path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(netgame.netsim, "write_edgelist", full)
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_bytes(b"kept\n")
        out = kept / below
        assert main(["simulate", "--n", "200", "--trials", "1", "--tol", "0.5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'edges.txt'}: No space left on device\n")
        assert list(tmp_path.iterdir()) == [kept]
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]
        assert (kept / "notes.txt").read_bytes() == b"kept\n"

    def test_a_directory_in_a_files_place_renames_nothing(self, tmp_path, capsys):
        # every target is checked before the first rename, so bias.csv keeps
        # the old run's bytes and no temp file is left
        out = tmp_path / "d"
        assert main(["sweep", "bias", "--grid", "5", "--out", str(out)]) == 0
        (out / "bias.json").unlink()
        (out / "bias.json").mkdir()
        (out / "bias.json" / "inside.txt").write_text("kept\n")
        old = (out / "bias.csv").read_bytes()
        capsys.readouterr()
        assert main(["sweep", "bias", "--grid", "7", "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {out / 'bias.json'}: Is a directory\n")
        assert sorted(p.name for p in out.iterdir()) == ["bias.csv", "bias.json"]
        assert (out / "bias.csv").read_bytes() == old
        assert _snapshot(out / "bias.json") == {"inside.txt": b"kept\n"}

    def test_a_failed_last_write_keeps_every_old_file(self, tmp_path, capsys, monkeypatch):
        # no file is renamed into place until every one is written
        import netgame.netsim
        out = tmp_path / "o"
        argv = ["simulate", "--n", "200", "--trials", "1", "--tol", "0.5", "--out", str(out)]
        assert main(argv) == 0
        old = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(old) == ["edges.meta.json", "edges.txt", "simulate.json"]

        def full(net, path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(netgame.netsim, "write_metadata", full)
        capsys.readouterr()
        assert main([*argv, "--seed", "1"]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {out / 'edges.meta.json'}: No space left on device\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == old

    @pytest.mark.parametrize("argv, computes", [
        (["sweep", "bias", "--eps", "1", "--grid", "11"], "netgame.estimators.bias_surface"),
        (["simulate", "--n", "200", "--trials", "1", "--tol", "0.5"],
         "netgame.netsim.monte_carlo_estimator_check"),
        (["solve"], "netgame.typespace.build_pi"),
        (["pi"], "netgame.typespace.build_pi"),
    ], ids=["sweep", "simulate", "solve", "pi"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    def test_out_through_a_regular_file_exits_two(self, argv, computes, below, tmp_path,
                                                  capsys, monkeypatch):
        # the output path is checked before anything is computed
        calls = []
        monkeypatch.setattr(computes, lambda *a, **k: calls.append(a))
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "sub" if below else afile
        assert main([*argv, "--out", str(out)]) == 2
        assert (f"cannot write to output directory {out}: {afile} is not a directory"
                in capsys.readouterr().err)
        assert calls == []
        assert afile.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [afile]

    def test_env_var_out_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NETGAME_OUT", str(tmp_path / "envout"))
        code, _ = run(capsys, "sweep", "bias", "--eps", "1", "--grid", "11")
        assert code == 0
        assert (tmp_path / "envout" / "bias.csv").exists()


class TestResolverDefects:
    def test_config_simple_true_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("simple = true\n")
        code, out = run(capsys, "simulate", "--config", str(cfg), "--n", "2000",
                        "--trials", "1", "--tol", "0.5", "--json")
        assert code == 0
        assert json.loads(out)["mode"] == "simple"

    def test_config_simple_rejects_other_words(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("simple = yes\n")
        assert main(["simulate", "--config", str(cfg), "--n", "2000"]) == 2
        assert "simple" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "pi"])
    def test_list_preset_sigma_exits_two(self, command, capsys):
        assert main([command, "--preset", "spread"]) == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "precision"], ["sweep", "sophistication"], ["sweep", "outcomes"],
        ["solve"], ["pi"],
    ])
    def test_unreadable_alpha_exits_two(self, argv, tmp_path, capsys):
        assert main([*argv, "--alpha", "abc", "--out", str(tmp_path)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_nan_etheta_exits_two_without_csv(self, tmp_path, capsys):
        assert main(["solve", "--etheta", "nan", "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "solution.csv").exists()

    def test_infinite_cost_exits_two(self, tmp_path, capsys):
        assert main(["solve", "--c", "inf", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "--c", "6"], ["solve", "--sig", "0.5"], ["pi", "--conf", "x.cfg"],
        ["sweep", "precision", "--sig", "0.5"],
    ])
    def test_no_option_abbreviations(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, unread", [
        (["sweep", "bias"], ["--model", "2,6:0.5,0.5", "--alpha", "9"]),
        (["sweep", "sophistication"], ["--sigma", "0.3"]),
        (["sweep", "precision"], ["--model", "4,6:0.6,0.4"]),
    ], ids=["bias-model", "sophistication-sigma", "precision-model"])
    def test_flag_the_command_does_not_read_exits_two(self, command, unread, tmp_path,
                                                       capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, *unread, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(unread)}\n" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["sweep", "bias"], ["solve"], ["pi"]])
    def test_json_belongs_to_example_and_simulate(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--json", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --json" in capsys.readouterr().err

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1.2\nalhpa = 3\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "'alhpa'" in err and str(cfg) in err
        assert not (tmp_path / "solution.csv").exists()

    def test_config_key_of_another_command_is_accepted(self, tmp_path, capsys):
        # one file can serve several commands: solve ignores simulate's n
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 1\nn = 5000\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "solution.json").read_text())["alpha"] == 1.0

    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_config_exits_two(self, name, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / name), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file")

    def test_nan_in_payload_exits_two_without_files(self, tmp_path, capsys, monkeypatch):
        import netgame.analysis
        monkeypatch.setattr(netgame.analysis, "population_precision_sweep",
                            lambda *a, **k: [(0.0, 2, 0.5, "naive", float("nan"), "")])
        code = main(["sweep", "precision", "--d1", "2", "--grid", "3", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("precision.*"))

    def test_simulate_draws_each_network_once(self, tmp_path, capsys, monkeypatch):
        import netgame.cli
        import netgame.netsim
        calls = {"generate": [], "draw_multigraph": []}
        for name, seeds in calls.items():
            real = getattr(netgame.netsim, name)

            def counting(*args, _real=real, _seeds=seeds, **kwargs):
                net = _real(*args, **kwargs)
                _seeds.append(net.seed)
                return net

            monkeypatch.setattr(netgame.netsim, name, counting)
            # the CLI must not hold its own reference to either for a second draw
            monkeypatch.setattr(netgame.cli, name, counting, raising=False)
        code, _ = run(capsys, "simulate", "--n", "2000", "--trials", "3",
                      "--seed", "4", "--tol", "0.5", "--out", str(tmp_path))
        assert code == 0
        # trial 0 comes from generate; every trial is drawn once, in whatever
        # order the calling thread and the worker reach their draws
        assert calls["generate"] == [[4, 0]]
        assert sorted(calls["draw_multigraph"]) == [[4, 0], [4, 1], [4, 2]]
        meta = json.loads((tmp_path / "edges.meta.json").read_text())
        assert meta["seed"] == [4, 0]


class TestHandlers:
    """A command's handler computes its outputs; only the runner writes and prints."""

    @pytest.mark.parametrize("argv, handler, names", [
        (["sweep", "precision", "--d1", "2,inf", "--grid", "5"], "_sweep_precision",
         ["precision.csv", "precision.json"]),
        (["sweep", "sophistication", "--grid", "3"], "_sweep_sophistication",
         ["sophistication.csv", "sophistication.json"]),
        (["sweep", "outcomes", "--grid", "3"], "_sweep_outcomes",
         ["outcomes.csv", "outcomes.json"]),
        (["sweep", "bias", "--grid", "11"], "_sweep_bias", ["bias.csv", "bias.json"]),
        (["simulate", "--n", "200", "--trials", "1", "--tol", "0.5"], "_simulate",
         ["simulate.json", "edges.txt", "edges.meta.json"]),
        (["solve"], "_solve", ["solution.csv", "solution.json"]),
        (["pi"], "_pi", ["pi.csv"]),
    ], ids=["precision", "sophistication", "outcomes", "bias", "simulate", "solve", "pi"])
    def test_handler_neither_writes_nor_prints(self, argv, handler, names, tmp_path, capsys):
        import netgame.cli
        command = argv[1] if argv[0] == "sweep" else argv[0]
        opts = _Options(build_parser().parse_args(argv), DEFAULTS[command])
        out = tmp_path / "absent"
        files, text, code = getattr(netgame.cli, handler)(opts, out)
        assert code == 0 and text
        assert list(files) == names
        assert not out.exists()
        assert capsys.readouterr() == ("", "")

    def test_per_command_runners_are_gone(self):
        import netgame.cli
        assert [name for name in ("cmd_sweep", "cmd_solve", "_table")
                if hasattr(netgame.cli, name)] == []


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e308, -1e308]))
_STRINGS = st.one_of(
    st.text(), st.sampled_from(["", "a,b", 'say "hi"', '"', "\r\n", "x\ry", "x\ny", "é", "日本"]))
# the strings a table cell may be: none that csv.writer quotes
_UNQUOTED = st.one_of(
    st.text(st.characters(exclude_characters=',"\r\n')),
    st.sampled_from(["", "inf", "unstable", "é", "日本", "\t", "\x00", "d1=2/4"]))
_CELLS = st.one_of(_FLOATS, st.integers(), _UNQUOTED)
_META = st.dictionaries(st.text(), st.recursive(
    st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(), _STRINGS),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=6), max_size=4)
_TABLES = st.integers(2, 4).flatmap(lambda width: st.tuples(
    st.lists(_UNQUOTED, min_size=width, max_size=width).map(tuple),
    st.lists(st.lists(_CELLS, min_size=width, max_size=width).map(tuple), max_size=5)))


def _stdlib_table(name, columns, rows, meta):
    """A table's CSV and JSON as csv.writer and the indenting json.dumps write them."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([columns, *rows])
    payload = {**meta, "command": name, "columns": list(columns),
               "rows": [list(row) for row in rows]}
    return buf.getvalue(), json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _rendered(name, columns, rows, meta):
    files, _, _ = _tabulate(name, columns, rows, meta, Path("out"))
    return tuple("".join(files[f"{name}.{ext}"]) for ext in ("csv", "json"))


class TestRenderer:
    """One pass formats every cell for a table's CSV and its JSON twin."""

    @given(_TABLES, _META)
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_the_stdlib_writers(self, table, meta):
        columns, rows = table
        assert _rendered("t", columns, rows, meta) == _stdlib_table("t", columns, rows, meta)

    @pytest.mark.parametrize("columns, rows", [
        (("a", "b"), []), (("a", "b"), [("", "")]), (("n", "v"), [(1, 2.0)] * 2500),
    ], ids=["no-rows", "two-empty", "chunks"])
    def test_edge_tables_match_the_stdlib_writers(self, columns, rows):
        meta = {"nested": {"b": [1, 2.5, {"c": None}], "a": "x"}, "empty": [], "zero": -0.0}
        assert _rendered("t", columns, rows, meta) == _stdlib_table("t", columns, rows, meta)

    @pytest.mark.parametrize("bad", [None, True, np.float64(0.5), "a,b", '"', "x\ny"],
                             ids=["none", "bool", "numpy-float", "comma", "quote", "newline"])
    def test_a_cell_no_command_writes_is_refused(self, bad, tmp_path, capsys, monkeypatch):
        # only floats, ints and strings csv.writer leaves unquoted are formatted
        with pytest.raises(TypeError, match="a table cell must be"):
            _tabulate("t", ("x", "y"), [(0.5, "a"), (bad, "b")], {}, Path("out"))
        import netgame.analysis
        real = netgame.analysis.sigma_sweep

        def sweep(*args):
            rows = real(*args)
            return [*rows[:-1], dataclasses.replace(rows[-1], sophisticated=bad)]

        monkeypatch.setattr(netgame.analysis, "sigma_sweep", sweep)
        out = tmp_path / "out"
        with pytest.raises(TypeError, match="a table cell must be"):
            main(["sweep", "sophistication", "--grid", "3", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("rows", [[], [("",)], [(1.0,)]], ids=["no-rows", "empty", "float"])
    def test_a_one_column_table_is_refused(self, rows):
        with pytest.raises(ValueError, match="two columns or more"):
            _tabulate("t", ("x",), rows, {}, Path("out"))

    @pytest.mark.parametrize("rows", [
        [(0.5, "a"), (math.nan, "b")], [(math.inf, "a")], [(-math.inf, 1)],
        [("", 1), (math.nan, 2)],      # a column of strings and floats
    ], ids=["nan", "inf", "minus-inf", "mixed-column"])
    def test_a_non_finite_cell_is_refused(self, rows):
        with pytest.raises(ModelError, match=r"^cannot write JSON: -?(nan|inf) is not a finite"):
            _tabulate("t", ("x", "y"), rows, {}, Path("out"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_cell_writes_nothing(self, bad, tmp_path, capsys, monkeypatch):
        import netgame.analysis
        real = netgame.analysis.sigma_sweep

        def sweep(*args):
            rows = real(*args)
            return [*rows[:-1], dataclasses.replace(rows[-1], sophisticated=bad)]

        monkeypatch.setattr(netgame.analysis, "sigma_sweep", sweep)
        out = tmp_path / "out"
        assert main(["sweep", "sophistication", "--grid", "3", "--out", str(out)]) == 2
        assert "error: cannot write JSON: " in capsys.readouterr().err
        assert not out.exists()

    def test_a_ragged_table_is_refused(self):
        with pytest.raises(ValueError, match="one cell per column"):
            _tabulate("t", ("x", "y"), [(1, 2), (3,)], {}, Path("out"))

    def test_pi_streams_the_bytes_it_writes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NETGAME_OUT", raising=False)
        argv = ["pi", "--model", "1,2,3:0.2,0.3,0.5", "--sigma", "0.3"]
        code, text = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--out", str(tmp_path))[0] == 0
        assert text == (tmp_path / "pi.csv").read_text()


class TestStdout:
    """What each command prints and its exit code; ``{out}`` is the output directory."""

    @pytest.mark.parametrize("argv, expected", [
        (["simulate", "--preset", "example", "--n", "3000", "--trials", "3", "--seed", "11"],
         "naive high-share mean 0.5003 (predicted 0.5000, 3/3 trials within 0.01)\n"
         "sophisticated high-share mean 0.4003 (predicted 0.4000, 3/3 trials within 0.01)\n"
         "assortativity mean -0.0033\n"
         "all checks passed\n"),
        (["solve", "--out", "{out}"],
         "wrote 20 per-type expectations to {out}/solution.csv\n"),
        (["pi", "--out", "{out}"], "wrote 16x16 matrix to {out}/pi.csv\n"),
        (["sweep", "bias", "--out", "{out}"],
         "eps=1: max bias 0.1716 at delta2=0.4140\n"
         "eps=99: max bias 0.8182 at delta2=0.0910\n"
         "wrote 2002 rows to {out}/bias.csv\n"),
        (["sweep", "precision", "--grid", "9", "--out", "{out}"],
         "wrote 252 rows to {out}/precision.csv\n"),
    ], ids=["simulate", "solve", "pi-out", "sweep-bias", "sweep-precision"])
    def test_stdout_is_pinned(self, argv, expected, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NETGAME_OUT", raising=False)
        out = str(tmp_path / "o")
        code, text = run(capsys, *(a.replace("{out}", out) for a in argv))
        assert code == 0
        assert text.replace(out, "{out}") == expected

    @pytest.mark.parametrize("argv, digest", [
        (["simulate", "--preset", "example", "--n", "3000", "--trials", "3", "--seed", "11",
          "--json"], "5f99f326c8410ce87cb0a1d443068be82c3ecfb6495d774777fc9b91a0d7db1f"),
        (["pi"], "8f62dee0ceae4ac6193a58ce82d6af2800639a2b04054061ca3e18891090848c"),
    ], ids=["simulate-json", "pi-csv"])
    def test_long_stdout_is_pinned(self, argv, digest, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("NETGAME_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        code, text = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert list(tmp_path.iterdir()) == []   # no --out: nothing is written


def _parsers(parser, name="netgame"):
    """Every parser in the tree, keyed by its last word (a sweep by its kind)."""
    found = {name: parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child, p in action.choices.items():
                found.update(_parsers(p, child))
    return found


class TestOptionTable:
    def test_each_command_takes_the_flags_of_its_defaults(self):
        parsers = _parsers(build_parser())
        assert not any(p.allow_abbrev for p in parsers.values())
        runnable = {name: p for name, p in parsers.items()
                    if name not in ("netgame", "example", "sweep")}
        assert sorted(runnable) == sorted(DEFAULTS)
        for name, p in runnable.items():
            flags = {a.dest for a in p._actions if a.option_strings}
            assert flags - {"help", "config", "preset", "out", "json"} == set(DEFAULTS[name])

    def test_every_preset_key_is_read_by_some_command(self):
        assert set().union(*PRESETS.values()) <= set().union(*DEFAULTS.values())


def _spelled_out(argv):
    """``argv`` plus its command's DEFAULTS entries, as flags."""
    flags = []
    for key, value in DEFAULTS[argv[-1]].items():
        if key == "simple":
            flags += ["--simple"] if _boolean(value) else []
        elif value is not None:
            flags += [f"--{key}", value]
    return [*argv, *flags]


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestResolverDefaults:
    @pytest.mark.parametrize("argv", [
        ["sweep", "precision"], ["sweep", "sophistication"], ["sweep", "outcomes"],
        ["sweep", "bias"], ["simulate"], ["solve"], ["pi"],
    ])
    def test_defaults_match_spelled_out_flags(self, argv, tmp_path, capsys):
        bare, full = tmp_path / "bare", tmp_path / "full"
        code, out_bare = run(capsys, *argv, "--out", str(bare))
        assert code == 0
        code, out_full = run(capsys, *_spelled_out(argv), "--out", str(full))
        assert code == 0
        assert out_bare.replace(str(bare), "") == out_full.replace(str(full), "")
        assert _snapshot(bare) == _snapshot(full)

    # one float, one list, one int and the boolean key
    KEYS = [
        (["sweep", "precision"], "alpha", float,
         st.floats(0.0, 10.0).map(repr)),
        (["sweep", "precision"], "sigma", _scalar_list,
         st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3).map(
             lambda xs: ",".join(map(repr, xs)))),
        (["sweep", "precision"], "grid", int, st.integers(2, 500).map(str)),
        (["simulate"], "simple", _boolean, st.sampled_from(["true", "false"])),
    ]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_precedence(self, data):
        argv, key, parse, values = data.draw(st.sampled_from(self.KEYS))
        flag = data.draw(st.none() | values)
        if key == "simple" and flag == "false":
            flag = None                         # the bare flag can only switch it on
        config = data.draw(st.none() | values)
        preset = data.draw(st.sampled_from([None, *sorted(PRESETS)]))
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("" if config is None else f"{key} = {config}\n")
            full = [*argv, "--config", str(cfg)]
            if preset is not None:
                full += ["--preset", preset]
            if flag is not None:
                full += ["--simple"] if key == "simple" else [f"--{key}", flag]
            opts = _Options(build_parser().parse_args(full), DEFAULTS[argv[-1]])
            layers = [flag, config, PRESETS.get(preset, {}).get(key),
                      DEFAULTS[argv[-1]][key]]
            expected = parse(next(v for v in layers if v is not None))
            assert opts.get(key, parse) == expected
