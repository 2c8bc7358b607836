"""Run one ``netgame`` CLI command with a span around each traced library call.

Usage: python perfbench/traced_cli.py SPANS_JSON OP_ID ARGV...

Each traced function is replaced, in every ``netgame`` module namespace that
binds it, by a wrapper that records a span (name, start, end, parent, op id,
counts).  Counts are computed from the objects the functions return.  Spans
stay in memory and are written to SPANS_JSON once, after the command exits;
the time spent after the command (row deduplication and the write) is
reported as ``post_s`` so the benchmark can leave it out of the op's time.
``draw_probability`` is deliberately not traced: it runs once per matrix
entry, and a span per call would cost more than the work it measures.
"""

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np

from netgame import analysis, cli, equilibrium, estimators, netsim, population, typespace


def _generate_name(args, kwargs):
    simple = kwargs.get("simple", args[3] if len(args) > 3 else False)
    return "netsim.generate." + ("simple" if simple else "multigraph")


def _dense_solve(L):
    """Computed, not measured: LU flops and 8-byte entries of pi and of I - (a/c) pi D."""
    return {"flops": 2 * L ** 3 / 3, "matrix_bytes": 2 * 8 * L ** 2}


# (module, function, span name from the call's arguments if not module.function,
#  counts from the call's arguments and result)
TRACED = [
    (cli, "main", None, None),
    (typespace, "build_pi", None, lambda a, k, r: {"rows": r.L, "entries": r.L ** 2}),
    (typespace, "enumerate_types", None, None),
    (population, "feasible_observed_shares", None, None),
    (estimators, "sophisticated_mle", None, None),
    (estimators, "debias_shares", None, None),
    (equilibrium, "solve_direct", None, lambda a, k, r: _dense_solve(r.system.L)),
    (equilibrium, "type_probabilities", None, lambda a, k, r: {"weights": len(r)}),
    (equilibrium, "average_expectation", None, None),
    (analysis, "naive_curve", None, None),
    (analysis, "sophisticated_curve", None, None),
    (netsim, "generate", _generate_name, lambda a, k, r: {"edges": r.m}),
    (netsim, "empirical_neighbor_shares", None, None),
    (netsim, "degree_assortativity", None, None),
    (netsim, "monte_carlo_estimator_check", None, None),
    (netsim, "write_edgelist", None, lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    (netsim, "write_metadata", None, None),
]


class Tracer:
    """Spans of one op, kept in memory until the op ends."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.stack = []
        self.systems = []   # (span index, ExpectationMatrix) for row deduplication

    def wrap(self, name, fn, namer, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0, parent, self.op_id, None]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            if name == "typespace.build_pi":
                self.systems.append((index, result))
            return result
        return traced

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "netgame" or key.startswith("netgame.")]
        for module, attr, namer, count in TRACED:
            original = getattr(module, attr)
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            wrapper = self.wrap(name, original, namer, count)
            for holder in modules:
                if getattr(holder, attr, None) is original:
                    setattr(holder, attr, wrapper)

    def count_distinct_rows(self):
        for index, system in self.systems:
            self.spans[index][5]["distinct"] = int(np.unique(system.pi, axis=0).shape[0])


def main():
    spans_path, op_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(op_id)
    tracer.install()
    code = cli.main(argv)
    post = perf_counter()
    tracer.count_distinct_rows()
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "post_s": perf_counter() - post}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
