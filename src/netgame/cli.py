"""Command-line front end.

Subcommands:
  example         reproduce the two-class worked example and check every value
  sweep KIND      emit figure data (precision | sophistication | outcomes | bias)
  simulate        Monte-Carlo estimator checks on sampled networks
  solve           solve one finite type system and dump per-type expectations
  pi              dump the interaction-expectation matrix as labeled CSV

Options may come from a config file of ``key = value`` lines (lists
comma-separated); flags override the file, which overrides the preset, which
overrides the command's entry in ``DEFAULTS``.  That entry lists every option
the command reads, and the command takes a flag for each of them and no other.
CSV output is comma-separated with a header row and LF line endings; every
CSV has a JSON twin carrying the same rows.  Output goes to ``--out``, else
``$NETGAME_OUT``, else ``netgame-out`` for ``sweep`` and ``solve``;
``simulate`` and ``pi`` write files only when one of the first two is set.
Every command but ``example`` runs through ``_run``: it resolves the options
and the output directory before anything is computed, calls the command's
handler, which computes every output and neither writes nor prints, then has
``_write_outputs`` put each returned file in place atomically and prints the
returned text.  So a command that fails creates no file and no directory.

Each handler imports the modules it runs when it is called, so a command loads
only those: ``import netgame.cli`` loads ``netgame.population`` and nothing
else of the package, ``simulate`` adds ``netsim`` but never the type system,
and ``solve`` never loads ``netsim`` or ``analysis``.

The program has one entry, ``run``: the ``netgame`` script and ``python -m
netgame.cli`` both go through it.  It calls ``main``, then ``gc.freeze()``,
also when argparse exits, then exits with main's status.  The interpreter's
shutdown runs several full collections over every tracked object, about
22,000 after a ``solve``, at about 2.4 ms each; frozen objects sit in the
permanent generation, which those collections skip.  ``main`` leaves the
collector alone, so a caller that runs a command in-process keeps its GC as
it was.
"""

import argparse
import csv
import functools
import gc
import io
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from .population import (
    ConvergenceError,
    DegreeModel,
    GameParams,
    ModelError,
    biased_neighbor_share,
)

PRESETS = {
    "example": {
        "model": "4,6:0.6,0.4",
        "etheta": "0.5",
        "alpha": "4",
        "c": "6",
    },
    "spread": {
        "model": "2,6:0.6,0.4",
        "etheta": "1",
        "alpha": "1.2",
        "c": "3.7",
        "eps": "2",
        "d1": "2,4,8,inf",
        "sigma": "0,0.5,1",
    },
}

# The options each runnable command reads, with its defaults: the last layer
# of option resolution, and the flags the command accepts.  None marks an
# option that is read but has no default.
DEFAULTS = {
    "precision": {**{k: v for k, v in PRESETS["spread"].items() if k != "model"},
                  "grid": "41"},
    "sophistication": {**PRESETS["example"], "grid": "101"},
    "outcomes": {**PRESETS["example"], "grid": "101"},
    "bias": {"eps": "1,99", "grid": "1001"},
    "simulate": {"model": PRESETS["example"]["model"], "n": "100000", "trials": "20",
                 "seed": "0", "tol": "0.01", "simple": "false"},
    "solve": {**{k: PRESETS["spread"][k] for k in ("model", "alpha", "c", "etheta")},
              "sigma": "0.5"},
    "pi": {"model": "2,4:0.5,0.5", "sigma": "1", "alpha": "1", "c": None, "etheta": "1"},
}

# Help for each option's flag; a command lists its flags in this order.
FLAG_HELP = {
    "model": "degrees:shares, e.g. 4,6:0.6,0.4",
    "sigma": "sophistication share (precision: a comma-separated list)",
    "alpha": "complementarity level",
    "c": "action cost (pi: unset means 2 * alpha * d_K/d_1)",
    "etheta": "mean preference E[theta]",
    "eps": "excess ratio d_2/d_1 - 1 (bias: a comma-separated list)",
    "d1": "comma-separated lowest degrees, 'inf' allowed",
    "grid": "grid point count",
    "n": "nodes per network",
    "trials": "networks to draw",
    "seed": "random seed",
    "tol": "largest gap of a trial's estimate that passes",
    "simple": "repair self-loops and multi-edges",
}


# ---------------------------------------------------------------------------
# Option resolution and parsing helpers
# ---------------------------------------------------------------------------

def _read_config(path) -> dict:
    """The file's ``key = value`` pairs; a key no command reads is an error."""
    known = {"out"}.union(*DEFAULTS.values(), *PRESETS.values())
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise ModelError(f"cannot read config file {path}: {reason}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ModelError(f"{path}:{lineno}: unknown option {key!r}")
        out[key] = value
    return out


class _Options:
    """Flag > config file > preset > the command's defaults."""

    def __init__(self, args, defaults):
        config = _read_config(args.config) if args.config else {}
        if args.preset is not None and args.preset not in PRESETS:
            raise ModelError(f"unknown preset {args.preset!r}; have {sorted(PRESETS)}")
        self.args = args
        self.layers = (vars(args), config, PRESETS.get(args.preset, {}), defaults)

    def get(self, key, parse=str):
        """``parse`` applied to the first layer that sets ``key``; None if none does."""
        value = next((layer[key] for layer in self.layers
                      if layer.get(key) is not None), None)
        try:
            return None if value is None else parse(value)
        except ModelError:              # a ValueError that already says what is wrong
            raise
        except (ValueError, TypeError, ArithmeticError) as exc:
            raise ModelError(f"option {key}: cannot read {value!r}") from exc

    def game(self, sigma):
        """The model and its game parameters at sophistication share ``sigma``.

        Where no layer sets ``c``, the cost is twice the stability bound
        alpha * d_K/d_1.
        """
        model = self.get("model", _parse_model)
        alpha = self.get("alpha", float)
        cost = self.get("c", float)
        if cost is None:
            cost = 2.0 * alpha * model.degrees[-1] / model.degrees[0]
            if cost == 0:
                raise ModelError("the default action cost 2 * alpha * d_K/d_1 is 0 "
                                 "at alpha = 0; set it with --c")
        return model, GameParams(self.get("etheta", float), alpha, cost, sigma, model)


def _scalar(text, exact=False):
    # exact mode parses through str so decimal literals become true rationals
    if exact:
        return Fraction(str(text))
    return float(text)


def _scalar_list(text) -> list:
    values = [float(part) for part in text.split(",") if part != ""]
    if not values:
        raise ValueError(text)
    return values


def _tolerance(text) -> float:
    tol = float(text)
    if not 0 <= tol < math.inf:
        raise ModelError(f"option tol: must be finite and non-negative, got {text}")
    return tol


def _d1_list(text):
    """The finite lowest degrees in order, then one ``math.inf`` per ``inf``;
    a repeat of either is left for the precision study to reject."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ModelError(f"option d1: no lowest degree in {text!r}")
    return [int(part) for part in parts if part != "inf"] + [math.inf] * parts.count("inf")


def _boolean(text) -> bool:
    text = str(text).lower()            # a bare flag arrives as True
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _parse_model(text, exact=False) -> DegreeModel:
    try:
        deg_part, share_part = str(text).split(":")
        degrees = tuple(int(d) for d in deg_part.split(","))
        shares = tuple(_scalar(s, exact) for s in share_part.split(","))
    except (ValueError, TypeError) as exc:
        raise ModelError(
            f"model argument {text!r} should look like '4,6:0.6,0.4'") from exc
    return DegreeModel(degrees, shares)


def _grid(text) -> np.ndarray:
    count = int(text)
    if count < 2:
        raise ModelError("grid needs at least two points")
    return np.linspace(0.0, 1.0, count)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _output_dir(opts, default=None) -> Path | None:
    """The ``out`` option, else ``$NETGAME_OUT``, else ``default``; None if none is set.

    Called before a command computes anything: a path whose nearest existing
    ancestor (or itself) is no directory is a ``ModelError``.  Creates nothing.
    """
    out = opts.get("out") or os.environ.get("NETGAME_OUT") or default
    if out is None:
        return None
    out = Path(out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ModelError(f"cannot write to output directory {out}: "
                         f"{existing} is not a directory")
    return out


def _write_outputs(out: Path, files: dict) -> None:
    """Put ``files`` (name: a text, an iterable of texts written one after
    another, or a function that writes a path) in the directory ``out`` from
    :func:`_output_dir`.

    Each file is written to a temp file there with the mode a plain ``open``
    would give it (``mkstemp`` makes it 0600), then renamed into place; on any
    failure the temp file is removed.  A directory that cannot be made or
    written to is a ``ModelError``.
    """
    umask = os.umask(0)
    os.umask(umask)
    for name, content in files.items():
        try:  # the first file makes the directory
            out.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=out, prefix=name + ".")
        except OSError as exc:
            raise ModelError(f"cannot write to output directory {out}: "
                             f"{exc.strerror or exc}") from None
        os.close(fd)
        try:
            os.chmod(tmp, 0o666 & ~umask)
            if callable(content):
                content(tmp)
            else:
                with open(tmp, "w", newline="\n") as fh:
                    fh.writelines(_chunks(content))
            os.replace(tmp, out / name)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise


def _chunks(content):
    """A text, or an iterable of texts, as an iterable of texts."""
    return (content,) if isinstance(content, str) else content


def _json_text(payload) -> str:
    """Indented, key-sorted JSON; a NaN or infinity is an error, not a bare token."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ModelError(f"cannot write JSON: {exc}") from None


# The characters for which csv.writer's QUOTE_MINIMAL may quote a field
_CSV_SPECIAL = (",", '"', "\r", "\n")
# Rows joined into one text when a table is written
_CHUNK_ROWS = 1024


def _csv_field(text) -> str:
    """``text`` as one field of ``csv.writer(lineterminator="\\n")``: unchanged
    unless it holds a character the writer may quote, else as the writer writes it."""
    if not any(ch in text for ch in _CSV_SPECIAL):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _field(cell) -> str:
    """One cell's CSV field as csv.writer writes it; a float must be finite, as
    it must be in the JSON twin."""
    if isinstance(cell, str):
        return _csv_field(cell)
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, int):
        return int.__repr__(cell)
    if isinstance(cell, float):
        if not math.isfinite(cell):
            raise ModelError(f"cannot write JSON: {cell!r} is not a finite number")
        return float.__repr__(cell)
    raise TypeError(f"Object of type {type(cell).__name__} is not JSON serializable")


def _value(cell, field) -> str:
    """One cell's JSON value as json.dumps writes it, given its CSV ``field``."""
    if isinstance(cell, str):
        return json.encoder.encode_basestring_ascii(cell)
    if cell is None:
        return "null"
    if isinstance(cell, bool):
        return "true" if cell else "false"
    return field  # a number reads the same in both


def _fields(cells) -> list:
    """The CSV fields of a run of cells (a column, or a row of ``pi``), each
    formatted once; a run of plain floats, ints or strings takes one ``map``."""
    kinds = set(map(type, cells))
    if kinds == {float} and all(map(math.isfinite, cells)):
        return list(map(float.__repr__, cells))
    if kinds == {int}:
        return list(map(int.__repr__, cells))
    if kinds == {str} and not any(ch in "".join(cells) for ch in _CSV_SPECIAL):
        return list(cells)
    return list(map(_field, cells))


def _values(cells, fields) -> list:
    """The JSON values of the same cells: a number's is its CSV field."""
    kinds = set(map(type, cells))
    if kinds <= {float, int}:
        return fields
    if kinds == {str}:
        return list(map(json.encoder.encode_basestring_ascii, cells))
    return list(map(_value, cells, fields))


def _joined(columns, cell_sep, row_sep):
    """Texts given per column, joined row by row, ``_CHUNK_ROWS`` rows to a chunk."""
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        rows = zip(*(texts[start:start + _CHUNK_ROWS] for texts in columns))
        yield row_sep.join(map(cell_sep.join, rows))


def _run(name, handler, default_out, args) -> int:
    """Resolve the options and output directory, get (files, stdout text, exit code)
    from ``handler(opts, out)``, write the files if there is a directory, print.
    The stdout text may come as an iterable of texts, as a file's may."""
    opts = _Options(args, DEFAULTS[name])
    out = _output_dir(opts, default_out)
    files, text, code = handler(opts, out)
    if out is not None:
        _write_outputs(out, files)
    sys.stdout.writelines(_chunks(text))
    return code


def _tabulate(name, columns, rows, meta, out, noun="rows"):
    """A handler's result for a table: NAME.csv, its JSON twin, and the line
    naming where they go.

    Every cell is formatted here, once, for both files, so a cell that cannot
    be written fails before any file is.  Each file is then joined from those
    texts as it is written, byte for byte as ``csv.writer(lineterminator="\\n")``
    and ``json.dumps(indent=2, sort_keys=True)`` write the table.
    """
    width = len(columns)
    if not width or any(len(row) != width for row in rows):
        raise ValueError("a table needs one cell per column in every row")
    cells = list(zip(*rows)) or [()] * width
    fields = [_fields(column) for column in cells]
    values = [_values(column, texts) for column, texts in zip(cells, fields)]
    header = _fields(columns)
    if width == 1:  # csv.writer writes a row of one empty field as ""
        header = [f or '""' for f in header]
        fields[0] = [f or '""' for f in fields[0]]

    # the scalar members go through one json.dumps, split at the rows member: a
    # nested key is indented deeper, and a string's newlines are escaped
    marker = '\n  "rows": ['
    payload = {**meta, "command": name, "columns": list(columns), "rows": []}
    head, _, tail = _json_text(payload).partition(marker + "]")
    head += marker
    tail = ("\n  ]" if rows else "]") + tail

    def csv_file():
        yield ",".join(header) + "\n"
        for chunk in _joined(fields, ",", "\n"):
            yield chunk + "\n"

    def json_file():
        yield head
        sep = "\n"
        for chunk in _joined(values, ",\n      ", "\n    ],\n    [\n      "):
            yield sep + "    [\n      " + chunk + "\n    ]"
            sep = ",\n"
        yield tail

    return ({f"{name}.csv": csv_file(), f"{name}.json": json_file()},
            f"wrote {len(rows)} {noun} to {out / (name + '.csv')}\n", 0)


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------

def _example_checks(exact: bool) -> list:
    from .behavior import best_response, utility
    from .equilibrium import benchmark_expectation, infinite_naive
    from .estimators import debias_shares

    preset = PRESETS["example"]
    model = _parse_model(preset["model"], exact)
    etheta, alpha, cost = (_scalar(preset[key], exact) for key in ("etheta", "alpha", "c"))
    params = GameParams(etheta, alpha, cost, 1, model)
    d_lo, d_hi = model.degrees

    bench = benchmark_expectation(model, params)
    x_naive = infinite_naive(model, params)
    act_b_lo = best_response(etheta, d_lo, bench, model, params)
    act_b_hi = best_response(etheta, d_hi, bench, model, params)
    act_n_lo = best_response(etheta, d_lo, x_naive, model, params)
    act_n_hi = best_response(etheta, d_hi, x_naive, model, params)
    est_hi = debias_shares(biased_neighbor_share(model), model.degrees)[1]

    rational = 0.0 if exact else 1e-12      # tolerance 0 compares exactly
    table = [
        ("benchmark_expectation", bench, Fraction(15, 36), rational),
        ("all_naive_expectation", x_naive, Fraction(18, 36), rational),
        ("action_benchmark_low", act_b_lo, Fraction(13, 36), rational),
        ("action_benchmark_high", act_b_hi, Fraction(18, 36), rational),
        ("action_all_naive_low", act_n_lo, Fraction(15, 36), rational),
        ("action_all_naive_high", act_n_hi, Fraction(21, 36), rational),
        ("sophisticated_estimate_high", est_hi, Fraction(4, 10), rational),
        ("utility_benchmark_low",
         utility(act_b_lo, etheta, d_lo, bench, model, params), 0.3912, 5e-4),
        ("utility_benchmark_high",
         utility(act_b_hi, etheta, d_hi, bench, model, params), 0.75, 5e-4),
        ("expected_utility_naive_low",
         utility(act_n_lo, etheta, d_lo, bench, model, params), 0.3819, 5e-4),
        ("expected_utility_naive_high",
         utility(act_n_hi, etheta, d_hi, bench, model, params), 0.7291, 5e-4),
    ]
    checks = []
    for name, value, expected, tol in table:
        if tol == 0:
            passed, value, expected = value == expected, str(value), str(expected)
        else:
            value, expected = float(value), float(expected)
            passed = abs(value - expected) <= tol
        checks.append({"name": name, "value": value, "expected": expected,
                       "tolerance": tol, "mode": "exact" if tol == 0 else "approx",
                       "passed": bool(passed)})
    return checks


def cmd_example(args) -> int:
    checks = _example_checks(bool(args.exact))
    passed = all(c["passed"] for c in checks)
    if args.json:
        report = {"command": "example", "exact": bool(args.exact),
                  "passed": passed, "checks": checks}
        print(_json_text(report), end="")
    else:
        width = max(len(c["name"]) for c in checks)
        for c in checks:
            status = "ok" if c["passed"] else "FAIL"
            print(f"{c['name']:<{width}}  {c['value']!s:>22}  "
                  f"expected {c['expected']!s:>10}  [{status}]")
        print("all checks passed" if passed else "CHECK FAILURES ABOVE")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _game_meta(opts, params) -> dict:
    return {"model": opts.get("model"), "alpha": params.alpha, "c": params.cost,
            "etheta": params.mean_preference}


def _sweep_precision(opts, out):
    """finite systems against their large-sample limit, by lowest degree"""
    from .analysis import population_precision_sweep

    eps, alpha, cost, etheta = (opts.get(key, float)
                                for key in ("eps", "alpha", "c", "etheta"))
    sigmas = opts.get("sigma", _scalar_list)
    d1_list = opts.get("d1", _d1_list)
    rows = population_precision_sweep(eps, alpha, cost, etheta, sigmas, d1_list,
                                      opts.get("grid", _grid)[1:-1])
    columns = ("sigma", "d1", "delta2", "rule", "value", "flag")
    meta = {"eps": eps, "alpha": alpha, "c": cost, "etheta": etheta, "sigmas": sigmas,
            "d1": [d if d < math.inf else "inf" for d in d1_list]}
    return _tabulate("precision", columns, rows, meta, out)


def _sweep_sophistication(opts, out):
    """expectations by sophistication share"""
    from .analysis import sigma_sweep

    model, params = opts.game(0.0)
    sigmas = opts.get("grid", _grid)
    columns = ("sigma", "naive", "sophisticated", "benchmark")
    rows = [(r.sigma, r.naive, r.sophisticated, r.benchmark)
            for r in sigma_sweep(model, params.alpha, params.cost,
                                 params.mean_preference, sigmas)]
    return _tabulate("sophistication", columns, rows, _game_meta(opts, params), out)


def _sweep_outcomes(opts, out):
    """actions and utilities by sophistication share"""
    from .analysis import sigma_sweep
    from .behavior import best_response, utility
    from .estimators import NAIVE, SOPHISTICATED

    sigmas = opts.get("grid", _grid)
    model, params = opts.game(0.0)
    etheta = params.mean_preference
    columns = ("sigma", "rule", "degree", "action", "expected_utility")
    rows = []
    for r in sigma_sweep(model, params.alpha, params.cost, etheta, sigmas):
        held = {NAIVE: r.naive, SOPHISTICATED: r.sophisticated, "benchmark": r.benchmark}
        for rule, expectation in held.items():
            for d in model.degrees:
                action = best_response(etheta, d, expectation, model, params)
                eu = utility(action, etheta, d, r.benchmark, model, params)
                rows.append((r.sigma, rule, d, float(action), float(eu)))
    return _tabulate("outcomes", columns, rows, _game_meta(opts, params), out)


def _sweep_bias(opts, out):
    """the estimator-gap surface"""
    from .estimators import bias_surface

    eps_list = opts.get("eps", _scalar_list)
    grid = opts.get("grid", _grid)
    columns = ("eps", "delta2", "bias")
    rows = []
    summary = []
    for eps in eps_list:
        pairs = bias_surface(eps, grid=[float(x) for x in grid])
        rows.extend((eps, x, b) for x, b in pairs)
        best = max(pairs, key=lambda p: p[1])
        summary.append({"eps": eps, "argmax": best[0], "max_bias": best[1]})
    files, text, code = _tabulate("bias", columns, rows, {"eps": eps_list, "summary": summary}, out)
    peaks = "".join(f"eps={item['eps']:g}: max bias {item['max_bias']:.4f} "
                    f"at delta2={item['argmax']:.4f}\n" for item in summary)
    return files, peaks + text, code


SWEEPS = {
    "precision": _sweep_precision,
    "sophistication": _sweep_sophistication,
    "outcomes": _sweep_outcomes,
    "bias": _sweep_bias,
}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _simulate(opts, out):
    from .netsim import monte_carlo_estimator_check, write_edgelist, write_metadata

    model = opts.get("model", _parse_model)
    n, trials, seed = (opts.get(key, int) for key in ("n", "trials", "seed"))
    simple = opts.get("simple", _boolean)
    tol = opts.get("tol", _tolerance)

    report = monte_carlo_estimator_check(model, n, trials=trials, seed=seed,
                                         simple=simple)
    naive_hits = int(np.sum(
        np.abs(report.naive_estimates[:, -1] - report.predicted_naive[-1]) <= tol))
    soph_hits = int(np.sum(
        np.abs(report.sophisticated_estimates[:, -1]
               - report.predicted_sophisticated[-1]) <= tol))
    passed = naive_hits == trials and soph_hits == trials

    payload = {
        "command": "simulate",
        "n": n,
        "trials": trials,
        "seed": seed,
        "mode": "simple" if simple else "multigraph",
        "tolerance": tol,
        "predicted_naive_high": report.predicted_naive[-1],
        "predicted_sophisticated_high": report.predicted_sophisticated[-1],
        "naive_high_per_trial": [float(v) for v in report.naive_estimates[:, -1]],
        "sophisticated_high_per_trial": [
            float(v) for v in report.sophisticated_estimates[:, -1]],
        "naive_high_mean": float(report.naive_mean[-1]),
        "sophisticated_high_mean": float(report.sophisticated_mean[-1]),
        "naive_trials_within_tol": naive_hits,
        "sophisticated_trials_within_tol": soph_hits,
        "assortativity": [float(v) for v in report.assortativity],
        "node_estimate_sd": {
            f"{rule}:d{d}": sd for (rule, d), sd in sorted(report.node_estimate_sd.items())
        },
        "passed": bool(passed),
    }
    net = report.first_network
    files = {"simulate.json": _json_text(payload),
             "edges.txt": lambda path: write_edgelist(net, path),
             "edges.meta.json": lambda path: write_metadata(net, path)}
    text = files["simulate.json"]
    if not opts.args.json:
        text = (f"naive high-share mean {payload['naive_high_mean']:.4f} "
                f"(predicted {payload['predicted_naive_high']:.4f}, "
                f"{naive_hits}/{trials} trials within {tol})\n"
                f"sophisticated high-share mean {payload['sophisticated_high_mean']:.4f} "
                f"(predicted {payload['predicted_sophisticated_high']:.4f}, "
                f"{soph_hits}/{trials} trials within {tol})\n"
                f"assortativity mean {float(np.mean(report.assortativity)):+.4f}\n"
                f"{'all checks passed' if passed else 'CHECK FAILURES'}\n")
    return files, text, 0 if passed else 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _solution_rows(system, xi) -> list:
    """One (label, rule, degree, observed shares, expectation) row per type of
    ``system``, in its row order.  The two rule blocks list the same
    observations, so each observation's degree and texts are made once and
    serve both; no :class:`~netgame.typespace.AgentType` is made."""
    from .estimators import RULES
    from .typespace import type_labels

    degrees, shares = system.observations
    observed = ["/".join(map(repr, row)) for row in shares]
    rules = [rule for rule in RULES for _ in degrees]
    return list(zip(type_labels(degrees, shares), rules, degrees * 2, observed * 2,
                    xi.tolist()))


def _solve(opts, out):
    from .equilibrium import solve_direct
    from .typespace import build_pi

    model, params = opts.game(opts.get("sigma", float))
    solution = solve_direct(build_pi(model, params), params)
    columns = ("label", "rule", "degree", "observed", "expectation")
    rows = _solution_rows(solution.system, solution.xi)
    meta = {**_game_meta(opts, params), "sigma": params.sigma,
            "method": solution.method, "residual": solution.residual}
    return _tabulate("solution", columns, rows, meta, out, "per-type expectations")


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

def _pi(opts, out):
    from .typespace import build_pi, pi_csv_rows

    model, params = opts.game(opts.get("sigma", float))
    system = build_pi(model, params)
    # one row formatted at a time, straight into the file or onto stdout
    lines = (",".join(_fields(row[:1]) + _fields(row[1:])) + "\n"
             for row in pi_csv_rows(system))
    if out is None:
        return {}, lines, 0
    return {"pi.csv": lines}, f"wrote {system.L}x{system.L} matrix to {out / 'pi.csv'}\n", 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _command(sub, name, help, handler, default_out=None, json_help=None):
    """Subcommand ``name`` for ``_run``: the common options, one flag per DEFAULTS key."""
    # no abbreviations: "--c" must never be read as "--config"
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.add_argument("--config", help="key = value option file")
    p.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
    p.add_argument("--out", help="output directory (default $NETGAME_OUT)")
    if json_help:
        p.add_argument("--json", action="store_true", help=json_help)
    for key in sorted(DEFAULTS[name], key=list(FLAG_HELP).index):
        # --simple is a bare switch: it can only turn the mode on
        switch = {"action": "store_true", "default": None} if key == "simple" else {}
        p.add_argument(f"--{key}", help=FLAG_HELP[key], **switch)
    p.set_defaults(func=functools.partial(_run, name, handler, default_out))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgame",
        description="Network-game equilibria under degree-biased neighbor sampling",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_example = sub.add_parser("example", help="check the worked example values",
                               allow_abbrev=False)
    p_example.add_argument("--exact", action="store_true",
                           help="exact rational arithmetic")
    p_example.add_argument("--json", action="store_true")
    p_example.set_defaults(func=cmd_example)

    p_sweep = sub.add_parser("sweep", help="emit figure data as CSV + JSON",
                             allow_abbrev=False)
    kinds = p_sweep.add_subparsers(dest="kind", required=True)
    for kind, handler in SWEEPS.items():
        _command(kinds, kind, handler.__doc__, handler, "netgame-out")

    _command(sub, "simulate", "Monte-Carlo estimator checks", _simulate,
             json_help="machine-readable stdout")
    _command(sub, "solve", "solve one finite type system", _solve, "netgame-out")
    _command(sub, "pi", "dump the expectation matrix as CSV", _pi)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The program: :func:`main` on ``sys.argv``, then ``gc.freeze()``, then exit
    with main's status.  The freeze also follows argparse's own exit (``--help``,
    a bad flag), so the interpreter's shutdown skips every object the command
    left in its full collections."""
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
