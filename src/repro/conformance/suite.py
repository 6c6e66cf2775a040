"""The conformance suite: fuzz -> check -> shrink, as a library.

:class:`ConformanceSuite` binds an engine matrix (specs) to a law catalog
and runs seeded traces through every applicable ``(spec, law)`` cell.  On
a violation it greedily shrinks the trace to a minimal reproducer (same
law, same spec, re-checked at every step) and records a
:class:`Finding` carrying both the original and shrunk traces -- exactly
what gets written to the regression corpus and the JSON report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.conformance.engines import EngineSpec, default_specs
from repro.conformance.fuzz import trace_for_seed
from repro.conformance.laws import Law, Violation, all_laws, resolve_laws
from repro.conformance.shrink import shrink_trace
from repro.conformance.trace import Trace
from repro.core.errors import InvalidParameterError

__all__ = ["Finding", "RunResult", "ConformanceSuite"]

#: Execution modes: ``direct`` checks factory engines as built;
#: ``service`` lifts every spec into its
#: :class:`~repro.service.adapter.ServiceBackedEngine` twin so the same
#: laws run through the keyed store (the daemon/API state machine).
_MODES = ("direct", "service")


@dataclass(frozen=True)
class Finding:
    """One falsified ``(engine, law)`` cell with its minimal reproducer."""

    seed: int | None
    violation: Violation
    trace: Trace
    shrunk: Trace
    shrink_evaluations: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "law": self.violation.law_id,
            "engine": self.violation.engine,
            "message": self.violation.message,
            "time": self.violation.time,
            "details": dict(self.violation.details),
            "trace": self.trace.to_dict(),
            "shrunk": self.shrunk.to_dict(),
            "shrink_evaluations": self.shrink_evaluations,
        }


@dataclass
class RunResult:
    """Everything one suite run learned."""

    engines: list[str]
    laws: list[str]
    seeds: int
    start_seed: int
    cases: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def describe(self) -> str:
        verdict = (
            "all laws hold"
            if self.ok
            else f"{len(self.findings)} violation(s)"
        )
        return (
            f"{self.cases} (engine, law, trace) cells over "
            f"{self.seeds} seed(s) x {len(self.engines)} engine(s): {verdict}"
        )


class ConformanceSuite:
    """Differential + metamorphic checking over the factory engine matrix."""

    def __init__(
        self,
        specs: Mapping[str, EngineSpec] | None = None,
        laws: Iterable[Law] | None = None,
        *,
        shrink_budget: int = 2000,
        mode: str = "direct",
        service_workers: int | None = None,
    ) -> None:
        if mode not in _MODES:
            raise InvalidParameterError(
                f"mode must be one of {_MODES}, got {mode!r}"
            )
        if service_workers is not None and mode != "service":
            raise InvalidParameterError(
                "service_workers only applies to mode='service'"
            )
        self.mode = mode
        self.service_workers = service_workers
        resolved = dict(specs) if specs is not None else default_specs()
        if mode == "service":
            # Lazy import: repro.service.adapter imports this package's
            # engine specs, so the dependency must stay one-way at load.
            from repro.service.adapter import SERVICE_LAW_IDS, service_specs

            # With service_workers every cell is served from a sharded
            # multi-process front (svcNw- naming), so the laws cross the
            # IPC plane end to end instead of an in-process store.  That
            # makes this service mode a driver of the worker plane, the
            # sanctioned RK008 pattern, so RK010's concurrency chain into
            # ShardedServiceStore is accepted here and only here.
            resolved = service_specs(  # lintkit: ignore[RK010]
                resolved, workers=service_workers
            )
            if laws is None:
                # Default to the laws whose contract the store must
                # preserve verbatim; callers can still pass any catalog.
                laws = resolve_laws(list(SERVICE_LAW_IDS))
        self.specs = resolved
        self.laws = tuple(laws) if laws is not None else all_laws()
        self.shrink_budget = shrink_budget

    def check_trace(
        self, trace: Trace, *, seed: int | None = None
    ) -> tuple[int, list[Finding]]:
        """Run every applicable ``(spec, law)`` cell on one trace.

        Returns ``(cells_checked, findings)``.  Each falsified cell is
        shrunk immediately; a cell that passes contributes no finding.
        """
        cells = 0
        findings: list[Finding] = []
        for spec in self.specs.values():
            for law in self.laws:
                if not law.applies(spec):
                    continue
                cells += 1
                violations = law.check(spec, trace)
                if violations:
                    findings.append(
                        self._shrink_finding(spec, law, trace, violations[0], seed)
                    )
        return cells, findings

    def _shrink_finding(
        self,
        spec: EngineSpec,
        law: Law,
        trace: Trace,
        violation: Violation,
        seed: int | None,
    ) -> Finding:
        def still_fails(candidate: Trace) -> bool:
            return any(
                v.law_id == law.law_id for v in law.check(spec, candidate)
            )

        result = shrink_trace(
            trace, still_fails, max_evaluations=self.shrink_budget
        )
        # Report the violation as it manifests on the *shrunk* trace (the
        # message on the original can reference times that no longer exist).
        final = next(
            (
                v
                for v in law.check(spec, result.trace)
                if v.law_id == law.law_id
            ),
            violation,
        )
        return Finding(
            seed=seed,
            violation=final,
            trace=trace,
            shrunk=result.trace,
            shrink_evaluations=result.evaluations,
        )

    def run(self, n_seeds: int, *, start_seed: int = 0) -> RunResult:
        """Fuzz ``n_seeds`` consecutive seeds through the whole matrix."""
        result = RunResult(
            engines=sorted(self.specs),
            laws=[law.law_id for law in self.laws],
            seeds=n_seeds,
            start_seed=start_seed,
        )
        for seed in range(start_seed, start_seed + n_seeds):
            trace = trace_for_seed(seed)
            cells, findings = self.check_trace(trace, seed=seed)
            result.cases += cells
            result.findings.extend(findings)
        return result
