"""The benchmark's workloads: how each op's argv is drawn and how its output is checked.

Every op is one ``netgame`` CLI command.  The argv is drawn from the run's
seed; the program sees only the argv.  Checks run after the child exits and
raise ``CheckFailed`` with a ``kind`` naming the check, so the self-test can
require that a corrupted output is caught by the check meant to catch it.
"""

import csv
import io
import json
import math
import random
import shutil
from pathlib import Path

import numpy as np

from netgame import (
    DegreeModel,
    GameParams,
    average_expectation,
    build_pi,
    class_counts,
    solve_direct,
    solve_iterative,
)

SOLVE_MODEL = "8,16,24:0.5,0.3,0.2"
SOLVE_ROWS = 1046          # L = 2 * (C(10,2) + C(18,2) + C(26,2))
SWEEP_D1 = "2,4,8,16,32,inf"
SWEEP_ROWS = 2106          # 3 sigmas x 39 grid points x (5 finite d1 + inf) x 3 rules
RESIDUAL_TOL = 1e-8        # the CLI's own direct-solve gate
ITERATIVE_TOL = 1e-10      # direct vs iterative agreement, acceptance criterion 3
RECOMPUTE_TOL = 1e-12      # allowed drift of a recomputed sweep value
NETWORK_N = 100000


class CheckFailed(Exception):
    """An op's output failed a check; ``kind`` names the check."""

    def __init__(self, kind, detail):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _game(rng):
    """Draw (alpha, c) with contraction ratio 3 * alpha / c in [0.3, 0.8].

    Both workloads that solve have d_K / d_1 = 3, so this keeps every system
    stable and the iterative cross-check fast.
    """
    c = rng.uniform(3.0, 6.0)
    alpha = c * rng.uniform(0.3, 0.8) / 3
    return f"{alpha:.6g}", f"{c:.6g}"


# ---------------------------------------------------------------------------
# Shared readers
# ---------------------------------------------------------------------------

def _reject_constant(token):
    raise CheckFailed("nonfinite", f"JSON holds {token}")


def load_json(path):
    """Parse a JSON file, rejecting NaN and infinity tokens."""
    return json.loads(Path(path).read_text(), parse_constant=_reject_constant)


def _finite_cell(cell):
    for part in cell.split("/"):
        try:
            value = float(part)
        except ValueError:
            continue
        if not math.isfinite(value):
            return False
    return True


def _csv_cell(value):
    # the CLI writes floats as repr and everything else as str
    return repr(value) if isinstance(value, float) else str(value)


def read_table(out, name, labels=()):
    """Parse ``name.csv`` and its JSON twin and require them to agree row for row.

    Every cell must be finite; ``labels`` lists (column, cell) pairs that are
    labels rather than numbers, such as the precision sweep's ``d1 = inf``.
    """
    rows = list(csv.reader(io.StringIO((out / f"{name}.csv").read_text())))
    header, body = rows[0], rows[1:]
    for i, row in enumerate(body, 1):
        for column, cell in zip(header, row):
            if not _finite_cell(cell) and (column, cell) not in labels:
                raise CheckFailed("nonfinite", f"{name}.csv row {i} {column} = {cell!r}")
    twin = load_json(out / f"{name}.json")
    if twin["columns"] != header or len(twin["rows"]) != len(body):
        raise CheckFailed("twin", f"{name}.json shape differs from {name}.csv")
    for i, (row, jrow) in enumerate(zip(body, twin["rows"]), 1):
        if row != [_csv_cell(v) for v in jrow]:
            raise CheckFailed("twin", f"{name}.csv row {i} differs from its JSON twin")
    return body, twin


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """One kind of op.  Subclasses draw argvs and check outputs."""

    name = ""

    def argv(self, rng, out):
        raise NotImplementedError

    def check(self, argv, out, rng):
        """Per-op output check; raises CheckFailed."""
        raise NotImplementedError

    def check_once(self, argv, out, rerun):
        """Once-per-run check on the first op; returns state for the self-test."""
        raise NotImplementedError

    def corruptions(self, argv, out, state):
        """(expected kind, corrupt(copy), check(copy)) triples for the self-test."""
        raise NotImplementedError

    def recheck(self, argv):
        """The per-op check, as a function of an output directory."""
        return lambda copy: self.check(argv, copy, random.Random(0))


def _edit_table(name, edit):
    """A corruption that applies ``edit(body, cell)`` to ``name.csv`` and its twin alike.

    ``body`` is the list of data rows; ``cell`` turns a float into that
    file's cell (``repr`` for the CSV, the float itself for the JSON).
    """
    def corrupt(copy):
        path = copy / f"{name}.csv"
        rows = list(csv.reader(io.StringIO(path.read_text())))
        body = rows[1:]
        edit(body, repr)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows[:1] + body)
        path.write_text(buf.getvalue())
        twin = json.loads((copy / f"{name}.json").read_text())
        edit(twin["rows"], float)
        (copy / f"{name}.json").write_text(json.dumps(twin))
    return corrupt


def _nan_cell(name, row, column):
    def edit(body, cell):
        body[row][column] = cell(math.nan)
    return _edit_table(name, edit)


def _drop_last_row(name):
    return _edit_table(name, lambda body, cell: body.pop())


def _shift_value(name, row, column, delta):
    def edit(body, cell):
        body[row][column] = cell(float(body[row][column]) + delta)
    return _edit_table(name, edit)


class SolveFine(Workload):
    """One K = 3 system with L = 1046 per op: build_pi, then the dense solve."""

    name = "solve-fine"

    def argv(self, rng, out):
        alpha, c = _game(rng)
        return ["solve", "--model", SOLVE_MODEL, "--etheta", "1",
                "--sigma", f"{rng.uniform(0.2, 0.8):.4f}",
                "--alpha", alpha, "--c", c, "--out", str(out)]

    def check(self, argv, out, rng):
        body, twin = read_table(out, "solution")
        if len(body) != SOLVE_ROWS:
            raise CheckFailed("row_count", f"{len(body)} rows, want {SOLVE_ROWS}")
        if not twin["residual"] <= RESIDUAL_TOL:
            raise CheckFailed("residual", f"residual {twin['residual']!r}")

    def check_once(self, argv, out, rerun):
        """Rebuild the system in-process and solve it by iteration."""
        degrees, shares = SOLVE_MODEL.split(":")
        model = DegreeModel(tuple(int(d) for d in degrees.split(",")),
                            tuple(float(s) for s in shares.split(",")))
        params = GameParams(float(_flag(argv, "--etheta")), float(_flag(argv, "--alpha")),
                            float(_flag(argv, "--c")), float(_flag(argv, "--sigma")), model)
        solution = solve_iterative(build_pi(model, params), params)
        reference = ([t.label for t in solution.system.types], solution.xi)
        self._compare(read_table(out, "solution")[0], reference)
        return reference

    @staticmethod
    def _compare(body, reference):
        labels, xi = reference
        if [row[0] for row in body] != labels:
            raise CheckFailed("iterative", "type labels differ from the library's order")
        gap = float(np.max(np.abs(np.array([float(row[4]) for row in body]) - xi)))
        if not gap <= ITERATIVE_TOL:
            raise CheckFailed("iterative", f"direct vs iterative gap {gap:.3e}")

    def corruptions(self, argv, out, state):
        return [
            ("nonfinite", _nan_cell("solution", 4, 4), self.recheck(argv)),
            ("row_count", _drop_last_row("solution"), self.recheck(argv)),
            ("iterative", _shift_value("solution", 6, 4, 1e-9),
             lambda c: self._compare(read_table(c, "solution")[0], state)),
        ]


class PrecisionSweep(Workload):
    """15 small systems (L <= 260) and 1755 average_expectation calls per op."""

    name = "precision-sweep"
    labels = (("d1", "inf"),)

    def argv(self, rng, out):
        alpha, c = _game(rng)
        sigmas = sorted(rng.sample(range(1, 10000), 3))
        return ["sweep", "precision", "--eps", "2", "--d1", SWEEP_D1, "--etheta", "1",
                "--alpha", alpha, "--c", c,
                "--sigma", ",".join(f"{s / 10000:.4f}" for s in sigmas),
                "--out", str(out)]

    def check(self, argv, out, rng):
        body, _ = read_table(out, "precision", self.labels)
        if len(body) != SWEEP_ROWS:
            raise CheckFailed("row_count", f"{len(body)} rows, want {SWEEP_ROWS}")
        finite = [i for i, row in enumerate(body) if row[1] != "inf"]
        index = rng.choice(finite)
        self._compare(body[index], self.recompute(argv, body[index]))

    @staticmethod
    def recompute(argv, row):
        """One finite row through build_pi, solve_direct and average_expectation."""
        sigma, d1, delta2, rule = float(row[0]), int(row[1]), float(row[2]), row[3]
        d2 = int(round(d1 * (1 + float(_flag(argv, "--eps")))))
        model = DegreeModel((d1, d2), (0.5, 0.5))
        params = GameParams(float(_flag(argv, "--etheta")), float(_flag(argv, "--alpha")),
                            float(_flag(argv, "--c")), sigma, model)
        solution = solve_direct(build_pi(model, params), params)
        point = DegreeModel(model.degrees, (1 - delta2, delta2))
        if rule == "all":
            return average_expectation(solution, point, sigma=sigma)
        return average_expectation(solution, point, rule=rule)

    @staticmethod
    def _compare(row, value):
        gap = abs(float(row[4]) - value)
        if not gap <= RECOMPUTE_TOL:
            raise CheckFailed("recompute", f"row {row[:4]} off by {gap:.3e}")

    def check_once(self, argv, out, rerun):
        row = read_table(out, "precision", self.labels)[0][0]
        return self.recompute(argv, row)

    def corruptions(self, argv, out, state):
        return [
            ("nonfinite", _nan_cell("precision", 2, 4), self.recheck(argv)),
            ("row_count", _drop_last_row("precision"), self.recheck(argv)),
            ("recompute", _shift_value("precision", 0, 4, 1e-10),
             lambda c: self._compare(read_table(c, "precision", self.labels)[0][0], state)),
        ]


class MonteCarlo(Workload):
    """20 multigraph networks at n = 1e5 and a 240,000-line edge list per op."""

    name = "montecarlo"
    trials = 20
    simple = False

    def argv(self, rng, out):
        argv = ["simulate", "--preset", "example", "--n", str(NETWORK_N),
                "--trials", str(self.trials), "--seed", str(rng.randrange(1, 2**31))]
        return argv + (["--simple"] if self.simple else []) + ["--out", str(out)]

    def check(self, argv, out, rng):
        report = load_json(out / "simulate.json")
        if report["passed"] is not True:
            raise CheckFailed("estimators", "the CLI's estimator checks did not pass")
        meta = load_json(out / "edges.meta.json")
        text = (out / "edges.txt").read_bytes()
        lines = text.count(b"\n")
        if lines != meta["edges"]:
            raise CheckFailed("edge_count", f"{lines} lines, meta says {meta['edges']}")
        pairs = np.array(text.split(), dtype=np.int64).reshape(-1, 2)
        n = meta["n"]
        if self.simple:
            lo, hi = pairs.min(axis=1), pairs.max(axis=1)
            if (lo == hi).any():
                raise CheckFailed("self_loop", "simple network holds a self-loop")
            if np.unique(lo * n + hi).size != len(pairs):
                raise CheckFailed("repeated", "simple network repeats a pair")
        if not np.array_equal(np.bincount(pairs.ravel(), minlength=n), realized_degrees(meta)):
            raise CheckFailed("degree", "edge endpoints do not match realized degrees")

    def check_once(self, argv, out, rerun):
        """Replay the op's seed and require byte-identical outputs."""
        replay = rerun()
        self._same_bytes(out, replay)
        return replay

    @staticmethod
    def _same_bytes(out, replay):
        for name in ("edges.txt", "simulate.json"):
            if (out / name).read_bytes() != (replay / name).read_bytes():
                raise CheckFailed("replay", f"{name} differs on replay of the same seed")

    def corruptions(self, argv, out, state):
        def nan_field(copy):
            report = json.loads((copy / "simulate.json").read_text())
            report["naive_high_mean"] = float("nan")
            (copy / "simulate.json").write_text(json.dumps(report))

        def drop_edge(copy):
            lines = (copy / "edges.txt").read_bytes().splitlines(keepends=True)
            (copy / "edges.txt").write_bytes(b"".join(lines[:-1]))

        def flip_byte(copy):
            data = bytearray((copy / "edges.txt").read_bytes())
            data[len(data) // 2] = ord("7") if data[len(data) // 2] != ord("7") else ord("3")
            (copy / "edges.txt").write_bytes(bytes(data))

        return [
            ("nonfinite", nan_field, self.recheck(argv)),
            ("edge_count", drop_edge, self.recheck(argv)),
            ("replay", flip_byte, lambda copy: self._same_bytes(copy, state)),
        ]


class MonteCarloSimple(MonteCarlo):
    """2 simple networks at n = 1e5 per op: the rejection path of generate."""

    name = "montecarlo-simple"
    trials = 2
    simple = True

    def corruptions(self, argv, out, state):
        def duplicate_edge(copy):
            lines = (copy / "edges.txt").read_bytes().splitlines(keepends=True)
            lines[1] = lines[0]
            (copy / "edges.txt").write_bytes(b"".join(lines))

        return super().corruptions(argv, out, state) + [
            ("repeated", duplicate_edge, self.recheck(argv)),
        ]


def realized_degrees(meta):
    """Per-node degrees the generator promises for this metadata.

    Class sizes follow the library's largest-remainder rounding; a parity
    adjustment takes one stub from the last node of the top class.
    """
    model = DegreeModel(tuple(meta["degrees"]), tuple(meta["shares"]))
    degrees = np.repeat(meta["degrees"], class_counts(model, meta["n"]))
    if meta["parity_adjusted"]:
        degrees[-1] -= 1
    return degrees


def self_test(workload, argv, out, state, scratch):
    """Corrupt copies of a real output; each must fail the check meant to catch it.

    Returns a list of problems, empty when every corruption was caught.
    """
    problems = []
    for kind, corrupt, check in workload.corruptions(argv, out, state):
        copy = scratch / f"selftest-{kind}"
        shutil.copytree(out, copy)
        corrupt(copy)
        try:
            check(copy)
        except CheckFailed as exc:
            if exc.kind != kind:
                problems.append(f"{kind} corruption caught as {exc.kind}")
        except Exception as exc:        # a check that crashes on bad input is a defect too
            problems.append(f"{kind} corruption raised {type(exc).__name__}: {exc}")
        else:
            problems.append(f"{kind} corruption passed the checks")
        shutil.rmtree(copy)
    return problems


WORKLOADS = {w.name: w for w in (SolveFine(), PrecisionSweep(), MonteCarlo(), MonteCarloSimple())}
