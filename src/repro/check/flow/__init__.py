"""Flow-sensitive static analysis: CFG, dataflow solver, LMP011–LMP015.

The subpackage splits into the engine and the rules that ride on it:

* :mod:`~repro.check.flow.cfg` — intraprocedural CFG builder with
  correct edges for ``try/except/finally``, ``with``, ``while/else``,
  and generator ``yield`` suspension points;
* :mod:`~repro.check.flow.solver` — generic worklist fixpoint over
  pluggable abstract domains, forward or backward;
* :mod:`~repro.check.flow.callgraph` — name-based call graph of the
  linted tree (sim-time-consuming generators, parameter names);
* :mod:`~repro.check.flow.rules` — the five flow rules, registered in
  the linter's one rule registry (:data:`repro.check.lint.ALL_RULES`)
  and run by its one driver;
* :mod:`~repro.check.flow.mutants` — the seeded-defect self-test
  behind ``repro check --mutants``.
"""

from repro.check.flow.callgraph import CallGraph, FunctionInfo
from repro.check.flow.cfg import CFG, Edge, Node, build_cfg, iter_functions
from repro.check.flow.solver import DataflowResult, Domain, solve

__all__ = [
    "CFG",
    "CallGraph",
    "DataflowResult",
    "Domain",
    "Edge",
    "FunctionInfo",
    "Node",
    "build_cfg",
    "iter_functions",
    "solve",
]
