"""Fixpoint taint propagation over the project call graph.

A *taint source* is a predicate over canonical external dotted names
(``time.time``, ``random.random``, ``multiprocessing.Pool``).  A project
function is tainted when any call path from it reaches a source; the
analysis is a reverse breadth-first fixpoint over the call graph, so the
evidence chain attached to each tainted function is a *shortest* witness
path ``f -> g -> ... -> time.time`` -- exactly what a violation message
should print.

The lattice is the powerset of labels ordered by inclusion; propagation
is monotone (labels only ever accumulate) and the graph is finite, so the
sweep terminates at the least fixpoint.  Like the graph layer this
under-approximates: calls the resolver skipped (dynamic dispatch,
``getattr``) contribute no taint, so every reported chain is real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.lintkit.graph import ProjectGraph

__all__ = ["Taint", "TaintAnalysis"]


@dataclass(frozen=True)
class Taint:
    """One label's taint witness for one function."""

    label: str
    #: Qualified project names from the function down to the external
    #: sink name (inclusive): ``("m.f", "m2.g", "time.time")``.
    chain: tuple[str, ...]

    @property
    def sink(self) -> str:
        return self.chain[-1]


class TaintAnalysis:
    """Label -> tainted-function map for one project graph."""

    def __init__(
        self,
        graph: ProjectGraph,
        sources: Mapping[str, Callable[[str], bool]],
    ) -> None:
        self.graph = graph
        #: label -> {function qualname -> Taint with shortest chain}.
        self.tainted: dict[str, dict[str, Taint]] = {
            label: {} for label in sources
        }
        for label, predicate in sources.items():
            self._propagate(label, predicate)

    def _propagate(
        self, label: str, predicate: Callable[[str], bool]
    ) -> None:
        table = self.tainted[label]
        frontier: list[str] = []
        # Seed: functions that call a matching external name directly.
        for fn in self.graph.functions.values():
            sinks = sorted(
                site.target
                for site in fn.calls
                if not site.resolved and predicate(site.target)
            )
            best = (fn.qualname, sinks[0]) if sinks else None
            if best is not None:
                table[fn.qualname] = Taint(label=label, chain=best)
                frontier.append(fn.qualname)
        # Reverse BFS: callers of a tainted function become tainted with a
        # one-longer chain; first visit wins, so chains stay shortest.
        while frontier:
            next_frontier: list[str] = []
            for tainted_fn in frontier:
                taint = table[tainted_fn]
                for caller in sorted(self.graph.callers.get(tainted_fn, ())):
                    if caller in table:
                        continue
                    table[caller] = Taint(
                        label=label, chain=(caller,) + taint.chain
                    )
                    next_frontier.append(caller)
            frontier = next_frontier
