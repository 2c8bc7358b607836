"""Command-line front end.

Subcommands:
  example         reproduce the two-class worked example and check every value
  sweep KIND      emit figure data (precision | sophistication | outcomes | bias)
  simulate        Monte-Carlo estimator checks on sampled networks
  solve           solve one finite type system and dump per-type expectations
  pi              dump the interaction-expectation matrix as labeled CSV

Options may come from a config file of ``key = value`` lines (lists
comma-separated); flags override the file, which overrides the preset, which
overrides the command's entry in ``DEFAULTS``.
CSV output is comma-separated with a header row and LF line endings; every
CSV has a JSON twin carrying the same rows.  Files are written atomically.
"""

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from .analysis import _two_class_model, naive_curve, sigma_sweep, sophisticated_curve
from .behavior import best_response, utility
from .equilibrium import (
    ConvergenceError,
    average_expectation,
    benchmark_expectation,
    infinite_naive,
    infinite_sophisticated,
    solve_direct,
)
from .estimators import NAIVE, SOPHISTICATED, bias_surface, debias_shares
from .netsim import monte_carlo_estimator_check, write_edgelist, write_metadata
from .population import (
    DegreeModel,
    GameParams,
    ModelError,
    biased_neighbor_share,
)
from .typespace import build_pi, pi_csv_rows

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

# Per-command defaults: the last layer of option resolution.
DEFAULTS = {
    "precision": {**PRESETS["spread"], "grid": "41"},
    "sophistication": {**PRESETS["example"], "grid": "101"},
    "outcomes": {**PRESETS["example"], "grid": "101"},
    "bias": {"eps": "1,99", "grid": "1001"},
    "simulate": {**PRESETS["example"], "n": "100000", "trials": "20", "seed": "0",
                 "tol": "0.01", "simple": "false"},
    "solve": {**PRESETS["spread"], "sigma": "0.5"},
    "pi": {"model": "2,4:0.5,0.5", "sigma": "1", "alpha": "1", "etheta": "1"},
}

SWEEP_KINDS = ("precision", "sophistication", "outcomes", "bias")


# ---------------------------------------------------------------------------
# Option resolution and parsing helpers
# ---------------------------------------------------------------------------

def _read_config(path) -> dict:
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
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class _Options:
    """Flag > config file > preset > the command's defaults."""

    def __init__(self, args, defaults):
        config = _read_config(args.config) if args.config else {}
        if args.preset is not None and args.preset not in PRESETS:
            raise ModelError(f"unknown preset {args.preset!r}; have {sorted(PRESETS)}")
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
        return model, GameParams(self.get("etheta", float), alpha, cost, sigma, model)


def _scalar(text, exact=False):
    # exact mode parses through str so decimal literals become true rationals
    if exact:
        return Fraction(str(text))
    return float(text)


def _scalar_list(text) -> list:
    return [float(part) for part in text.split(",") if part != ""]


def _d1_list(text):
    finite, infinite = [], False
    for part in text.split(","):
        part = part.strip()
        if part == "inf":
            infinite = True
        elif part:
            finite.append(int(part))
    return finite, infinite


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

def _out_dir(opts) -> Path:
    out = opts.get("out") or os.environ.get("NETGAME_OUT") or "netgame-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _json_text(payload) -> str:
    """Indented, key-sorted JSON; a NaN or infinity is an error, not a bare token."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ModelError(f"cannot write JSON: {exc}") from None


def _write_table(out: Path, name: str, columns, rows, meta) -> None:
    payload = {"command": name, "columns": list(columns), "rows": [list(r) for r in rows]}
    payload.update(meta)
    text = _json_text(payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _atomic_write(out / f"{name}.csv", buf.getvalue())
    _atomic_write(out / f"{name}.json", text)


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------

def _example_checks(exact: bool) -> list:
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

    rational = [
        ("benchmark_expectation", bench, Fraction(15, 36)),
        ("all_naive_expectation", x_naive, Fraction(18, 36)),
        ("action_benchmark_low", act_b_lo, Fraction(13, 36)),
        ("action_benchmark_high", act_b_hi, Fraction(18, 36)),
        ("action_all_naive_low", act_n_lo, Fraction(15, 36)),
        ("action_all_naive_high", act_n_hi, Fraction(21, 36)),
        ("sophisticated_estimate_high", est_hi, Fraction(4, 10)),
    ]
    approx = [
        ("utility_benchmark_low",
         utility(act_b_lo, etheta, d_lo, bench, model, params), 0.3912),
        ("utility_benchmark_high",
         utility(act_b_hi, etheta, d_hi, bench, model, params), 0.75),
        ("expected_utility_naive_low",
         utility(act_n_lo, etheta, d_lo, bench, model, params), 0.3819),
        ("expected_utility_naive_high",
         utility(act_n_hi, etheta, d_hi, bench, model, params), 0.7291),
    ]
    checks = []
    for name, value, expected in rational:
        if exact:
            passed = value == expected
            tol = 0.0
        else:
            tol = 1e-12
            passed = abs(value - float(expected)) <= tol
        checks.append({
            "name": name,
            "value": str(value) if exact else float(value),
            "expected": str(expected) if exact else float(expected),
            "tolerance": tol,
            "mode": "exact" if exact else "approx",
            "passed": bool(passed),
        })
    for name, value, expected in approx:
        passed = abs(float(value) - expected) <= 5e-4
        checks.append({
            "name": name,
            "value": float(value),
            "expected": expected,
            "tolerance": 5e-4,
            "mode": "approx",
            "passed": bool(passed),
        })
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


def _sweep_precision(opts, out: Path):
    eps, alpha, cost, etheta = (opts.get(key, float)
                                for key in ("eps", "alpha", "c", "etheta"))
    sigmas = opts.get("sigma", _scalar_list)
    finite, infinite = opts.get("d1", _d1_list)
    grid = opts.get("grid", _grid)[1:-1]
    columns = ("sigma", "d1", "delta2", "rule", "value", "flag")
    rows = []
    for sigma in sigmas:
        solutions = {}
        for d1 in finite:
            model = _two_class_model(d1, eps)
            params = GameParams(etheta, alpha, cost, sigma, model)
            solutions[d1] = (model, solve_direct(build_pi(model, params), params))
        for delta2 in map(float, grid):
            for d1 in finite:
                base_model, solution = solutions[d1]
                point = DegreeModel(base_model.degrees, (1 - delta2, delta2))
                for rule in (NAIVE, SOPHISTICATED):
                    rows.append((sigma, d1, delta2, rule,
                                 average_expectation(solution, point, rule=rule), ""))
                rows.append((sigma, d1, delta2, "all",
                             average_expectation(solution, point, sigma=sigma), ""))
            if infinite:
                try:
                    nv = naive_curve(delta2, eps, alpha, cost, etheta)
                    sv = sophisticated_curve(delta2, eps, alpha, cost, sigma, etheta)
                except ModelError:
                    rows.append((sigma, "inf", delta2, "all", "", "unstable"))
                    continue
                rows.append((sigma, "inf", delta2, NAIVE, float(nv), ""))
                rows.append((sigma, "inf", delta2, SOPHISTICATED, float(sv), ""))
                rows.append((sigma, "inf", delta2, "all",
                             float((1 - sigma) * nv + sigma * sv), ""))
    meta = {"eps": eps, "alpha": alpha, "c": cost, "etheta": etheta,
            "sigmas": sigmas, "d1": finite + (["inf"] if infinite else [])}
    _write_table(out, "precision", columns, rows, meta)
    return rows


def _sweep_sophistication(opts, out: Path):
    model, params = opts.game(0.0)
    sigmas = opts.get("grid", _grid)
    columns = ("sigma", "naive", "sophisticated", "benchmark")
    rows = [(r.sigma, r.naive, r.sophisticated, r.benchmark)
            for r in sigma_sweep(model, params.alpha, params.cost,
                                 params.mean_preference, sigmas)]
    _write_table(out, "sophistication", columns, rows, _game_meta(opts, params))
    return rows


def _sweep_outcomes(opts, out: Path):
    sigmas = opts.get("grid", _grid)
    columns = ("sigma", "rule", "degree", "action", "expected_utility")
    rows = []
    for sigma in sigmas:
        model, params = opts.game(float(sigma))
        etheta = params.mean_preference
        bench = benchmark_expectation(model, params)
        held = {
            NAIVE: infinite_naive(model, params),
            SOPHISTICATED: infinite_sophisticated(model, params),
            "benchmark": bench,
        }
        for rule, expectation in held.items():
            for d in model.degrees:
                action = best_response(etheta, d, expectation, model, params)
                eu = utility(action, etheta, d, bench, model, params)
                rows.append((float(sigma), rule, d, float(action), float(eu)))
    _write_table(out, "outcomes", columns, rows, _game_meta(opts, params))
    return rows


def _sweep_bias(opts, out: Path):
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
    meta = {"eps": eps_list, "summary": summary}
    _write_table(out, "bias", columns, rows, meta)
    for item in summary:
        print(f"eps={item['eps']:g}: max bias {item['max_bias']:.4f} "
              f"at delta2={item['argmax']:.4f}")
    return rows


def cmd_sweep(args) -> int:
    opts = _Options(args, DEFAULTS[args.kind])
    out = _out_dir(opts)
    runner = {
        "precision": _sweep_precision,
        "sophistication": _sweep_sophistication,
        "outcomes": _sweep_outcomes,
        "bias": _sweep_bias,
    }[args.kind]
    rows = runner(opts, out)
    print(f"wrote {len(rows)} rows to {out / (args.kind + '.csv')}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    opts = _Options(args, DEFAULTS["simulate"])
    model = opts.get("model", _parse_model)
    n, trials, seed = (opts.get(key, int) for key in ("n", "trials", "seed"))
    simple = opts.get("simple", _boolean)
    tol = opts.get("tol", float)

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
    text = _json_text(payload)
    if args.json:
        print(text, end="")
    else:
        print(f"naive high-share mean {payload['naive_high_mean']:.4f} "
              f"(predicted {payload['predicted_naive_high']:.4f}, "
              f"{naive_hits}/{trials} trials within {tol})")
        print(f"sophisticated high-share mean "
              f"{payload['sophisticated_high_mean']:.4f} "
              f"(predicted {payload['predicted_sophisticated_high']:.4f}, "
              f"{soph_hits}/{trials} trials within {tol})")
        print(f"assortativity mean {float(np.mean(report.assortativity)):+.4f}")
        print("all checks passed" if passed else "CHECK FAILURES")
    if opts.get("out") or os.environ.get("NETGAME_OUT"):
        out = _out_dir(opts)
        _atomic_write(out / "simulate.json", text)
        write_edgelist(report.first_network, out / "edges.txt")
        write_metadata(report.first_network, out / "edges.meta.json")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    opts = _Options(args, DEFAULTS["solve"])
    model, params = opts.game(opts.get("sigma", float))
    solution = solve_direct(build_pi(model, params), params)
    columns = ("label", "rule", "degree", "observed", "expectation")
    rows = [
        (t.label, t.rule, t.degree,
         "/".join(repr(float(v)) for v in t.observed.values), float(x))
        for t, x in zip(solution.system.types, solution.xi)
    ]
    meta = {**_game_meta(opts, params), "sigma": params.sigma,
            "method": solution.method, "residual": solution.residual}
    out = _out_dir(opts)
    _write_table(out, "solution", columns, rows, meta)
    print(f"wrote {len(rows)} per-type expectations to {out / 'solution.csv'}")
    return 0


# ---------------------------------------------------------------------------
# pi
# ---------------------------------------------------------------------------

def cmd_pi(args) -> int:
    opts = _Options(args, DEFAULTS["pi"])
    model, params = opts.game(opts.get("sigma", float))
    system = build_pi(model, params)
    rows = pi_csv_rows(system)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    if opts.get("out") or os.environ.get("NETGAME_OUT"):
        out = _out_dir(opts)
        _atomic_write(out / "pi.csv", buf.getvalue())
        print(f"wrote {system.L}x{system.L} matrix to {out / 'pi.csv'}")
    else:
        print(buf.getvalue(), end="")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgame",
        description="Network-game equilibria under degree-biased neighbor sampling",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # no abbreviations: "--c" must never be read as "--config"
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common(p):
        p.add_argument("--config", help="key = value option file")
        p.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
        p.add_argument("--out", help="output directory (default $NETGAME_OUT)")
        p.add_argument("--json", action="store_true", help="machine-readable stdout")

    p_example = command("example", "check the worked example values")
    p_example.add_argument("--exact", action="store_true",
                           help="exact rational arithmetic")
    p_example.add_argument("--json", action="store_true")
    p_example.set_defaults(func=cmd_example)

    p_sweep = command("sweep", "emit figure data as CSV + JSON")
    p_sweep.add_argument("kind", choices=SWEEP_KINDS)
    common(p_sweep)
    p_sweep.add_argument("--model", help="degrees:shares, e.g. 4,6:0.6,0.4")
    p_sweep.add_argument("--alpha")
    p_sweep.add_argument("--c")
    p_sweep.add_argument("--etheta")
    p_sweep.add_argument("--sigma", help="comma-separated sophistication shares")
    p_sweep.add_argument("--d1", help="comma-separated lowest degrees, 'inf' allowed")
    p_sweep.add_argument("--eps", help="excess ratio(s)")
    p_sweep.add_argument("--grid", help="grid point count")
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = command("simulate", "Monte-Carlo estimator checks")
    common(p_sim)
    p_sim.add_argument("--model")
    p_sim.add_argument("--n")
    p_sim.add_argument("--trials")
    p_sim.add_argument("--seed")
    p_sim.add_argument("--tol")
    p_sim.add_argument("--simple", action="store_true", default=None,
                       help="repair self-loops and multi-edges")
    p_sim.set_defaults(func=cmd_simulate)

    p_solve = command("solve", "solve one finite type system")
    common(p_solve)
    p_solve.add_argument("--model")
    p_solve.add_argument("--sigma")
    p_solve.add_argument("--alpha")
    p_solve.add_argument("--c")
    p_solve.add_argument("--etheta")
    p_solve.set_defaults(func=cmd_solve)

    p_pi = command("pi", "dump the expectation matrix as CSV")
    common(p_pi)
    p_pi.add_argument("--model")
    p_pi.add_argument("--sigma")
    p_pi.add_argument("--alpha")
    p_pi.add_argument("--c")
    p_pi.add_argument("--etheta")
    p_pi.set_defaults(func=cmd_pi)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
