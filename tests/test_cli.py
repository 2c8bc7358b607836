import csv
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgame.cli import (
    DEFAULTS,
    PRESETS,
    _boolean,
    _Options,
    _scalar_list,
    build_parser,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


class TestPiDump:
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
    ])
    def test_no_option_abbreviations(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.cfg", "."])
    def test_unreadable_config_exits_two(self, name, tmp_path, capsys):
        assert main(["solve", "--config", str(tmp_path / name), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot read config file")

    def test_nan_in_payload_exits_two_without_files(self, tmp_path, capsys, monkeypatch):
        import netgame.cli
        monkeypatch.setattr(netgame.cli, "average_expectation", lambda *a, **k: float("nan"))
        code = main(["sweep", "precision", "--d1", "2", "--grid", "3", "--out", str(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.glob("precision.*"))

    def test_simulate_draws_each_network_once(self, tmp_path, capsys, monkeypatch):
        import netgame.cli
        import netgame.netsim
        calls = []
        real = netgame.netsim.generate

        def counting(*args, **kwargs):
            calls.append(kwargs.get("seed"))
            return real(*args, **kwargs)

        monkeypatch.setattr(netgame.netsim, "generate", counting)
        # the CLI must not hold its own reference to generate for a second draw
        monkeypatch.setattr(netgame.cli, "generate", counting, raising=False)
        code, _ = run(capsys, "simulate", "--n", "2000", "--trials", "3",
                      "--seed", "4", "--tol", "0.5", "--out", str(tmp_path))
        assert code == 0
        assert calls == [[4, 0], [4, 1], [4, 2]]
        meta = json.loads((tmp_path / "edges.meta.json").read_text())
        assert meta["seed"] == [4, 0]


def _spelled_out(argv):
    """``argv`` plus its command's DEFAULTS entries, as flags it accepts."""
    name = argv[-1]
    flags = []
    for key, value in DEFAULTS[name].items():
        if key == "simple":
            extra = ["--simple"] if _boolean(value) else []
        else:
            extra = [f"--{key}", value]
        # simulate has no --c flag; parse_known_args leaves it unknown
        parsed, unknown = build_parser().parse_known_args([*argv, *extra])
        if extra and not unknown and vars(parsed).get(key) is not None:
            flags += extra
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
