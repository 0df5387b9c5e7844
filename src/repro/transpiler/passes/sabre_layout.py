"""SABRE layout: multi-trial initial-placement search with routing refinement.

For each trial a random initial layout is refined by routing the circuit
forward and backward (the final layout of one direction becomes the initial
layout of the other), then the refined layout is routed one final time and
the best trial is kept according to a *post-selection metric* — SWAP count
(stock SABRE) or decomposition-aware circuit depth (MIRAGE's improvement,
paper Section IV-B).

Trials are fully independent: each one draws from its own RNG stream
spawned via :class:`numpy.random.SeedSequence`, so the best result is
identical no matter in which order — or on which
:class:`~repro.transpiler.executors.TrialExecutor` — the trials run.
:func:`run_layout_trial` is a module-level function over a picklable
:class:`TrialTask` precisely so the process-pool executor can ship trials
to worker processes.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable, Sequence

import numpy as np

from repro.circuits.dag import DAGCircuit
from repro.polytopes.coverage import CoverageSet, get_coverage_set
from repro.transpiler import metrics as metrics_mod
from repro.transpiler.executors import TrialExecutor, executor_scope
from repro.transpiler.kernel import IntDAG, adopt_intdag, int_dag
from repro.transpiler.layout import Layout
from repro.transpiler.passes.sabre_swap import RoutedOps, RoutingResult, SabreSwap
from repro.transpiler.topologies import CouplingMap

#: Paper defaults: 20 layout trials, 4 forward/backward rounds, 20 routing
#: trials.  The pure-Python reproduction keeps them configurable because the
#: full 20 x 20 budget is slow; benches state the budget they use.
DEFAULT_LAYOUT_TRIALS = 4
DEFAULT_REFINEMENT_ROUNDS = 2
DEFAULT_ROUTING_TRIALS = 1

RouterFactory = Callable[[int], SabreSwap]
SelectionMetric = Callable[[RoutingResult], float]


@dataclasses.dataclass
class LayoutResult:
    """Best routing found across all layout/routing trials.

    Attributes:
        routing: the winning trial's routed result.
        score: its post-selection score (lower is better).
        trial_index: index of the winning trial.
        metric_name: label of the post-selection metric.
        trial_scores: score of every trial, in trial order.
        trial_seconds: summed wall-clock seconds spent inside the trials
            (worker time — under a parallel executor this exceeds the
            elapsed wall clock of the search).
    """

    routing: RoutingResult
    score: float
    trial_index: int
    metric_name: str
    trial_scores: list[float] | None = None
    trial_seconds: float = 0.0

    @property
    def dag(self) -> DAGCircuit:
        return self.routing.dag


def _reverse_dag(dag: DAGCircuit) -> DAGCircuit:
    reverse = DAGCircuit(dag.num_qubits, f"{dag.name}_rev")
    for node in reversed(list(dag.topological_nodes())):
        reverse.add_node(node.gate, node.qubits)
    return reverse


def seed_sequence(
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> np.random.SeedSequence:
    """Coerce any supported seed specification into a ``SeedSequence``.

    A caller-provided ``SeedSequence`` is rebuilt from its entropy and
    spawn key rather than used directly: ``spawn()`` mutates the parent's
    spawn counter, so reusing the caller's instance would make every run
    draw different child streams (silently breaking "same seed, same
    result").  The rebuilt copy always spawns from a fresh counter.
    A caller-provided ``Generator``, by contrast, is consumed — one draw
    of entropy advances its state, so reusing it gives fresh randomness.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=seed.spawn_key
        )
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(2**63)))
    return np.random.SeedSequence(seed)


def swap_count_metric(result: RoutingResult) -> float:
    """Stock SABRE post-selection: fewest inserted SWAP gates."""
    return float(result.swaps_added)


@dataclasses.dataclass(frozen=True)
class DepthMetric:
    """MIRAGE post-selection: smallest decomposition-aware critical path.

    Scores a flat-kernel result straight from its routed event stream,
    weighted by the per-gate pulse costs of the ``IntDAG``'s memoised
    :class:`~repro.core.mirage_pass.MirrorTable` under this metric's
    coverage set, so no trial builds a ``DAGCircuit`` for its score.  The
    score equals ``metrics.evaluate(result.dag).depth`` bit for bit; a
    result that already holds a DAG (the object router) is scored by
    ``evaluate``.

    A frozen dataclass rather than a closure so that trial tasks carrying
    it stay picklable for the process-pool executor.
    """

    basis: str = "sqrt_iswap"
    coverage: CoverageSet | None = None

    def __call__(self, result: RoutingResult) -> float:
        routed = result.routed
        if not isinstance(routed, RoutedOps):
            return metrics_mod.evaluate(
                routed, basis=self.basis, coverage=self.coverage
            ).depth
        # repro.core imports this module, so import on first use.
        from repro.core.mirage_pass import mirror_table

        coverage = (
            self.coverage if self.coverage is not None
            else get_coverage_set(self.basis)
        )
        return routed.critical_path(mirror_table(routed.intdag, coverage))


def depth_metric(
    basis: str = "sqrt_iswap", coverage: CoverageSet | None = None
) -> SelectionMetric:
    """Build the MIRAGE depth post-selection metric."""
    return DepthMetric(basis=basis, coverage=coverage)


@dataclasses.dataclass(frozen=True)
class SabreRouterFactory:
    """Picklable factory building a stock :class:`SabreSwap` per trial."""

    coupling: CouplingMap

    def __call__(self, trial: int) -> SabreSwap:
        return SabreSwap(self.coupling)


@dataclasses.dataclass(frozen=True)
class TrialSpec:
    """The heavy, trial-invariant half of a layout search, picklable.

    Every trial of one circuit shares the same DAGs, coupling map, router
    factory and post-selection metric; only the ``(trial_index, seed)``
    pair differs.  Splitting the spec out lets
    :meth:`~repro.transpiler.executors.TrialExecutor.map_shared` serialise
    it once per dispatch instead of once per trial.

    ``reverse_dag`` may be ``None`` (a *deferred* spec): the reverse DAG
    is then derived from ``dag`` on first use — in whichever process runs
    the first trial — and cached on the spec instance, so the dispatcher
    neither builds nor ships it and its construction overlaps early trial
    execution on other workers.  The derivation is deterministic, keeping
    results byte-identical to an eagerly-built spec.

    ``intdag`` is the flat-kernel lowering of ``dag``, built once by the
    dispatcher and shipped as plain ndarrays through the zero-copy
    transport (the pickle memo deduplicates it against the copy memoised
    on ``dag`` itself).  Workers adopt it instead of re-lowering the DAG
    per trial; ``None`` simply makes the first worker lower on demand.
    """

    dag: DAGCircuit
    reverse_dag: DAGCircuit | None
    coupling: CouplingMap
    router_factory: RouterFactory
    refinement_rounds: int
    routing_trials: int
    selection_metric: SelectionMetric
    intdag: IntDAG | None = None

    def resolved_reverse_dag(self) -> DAGCircuit:
        """The reverse DAG, deriving (and caching) it when deferred.

        Worker processes memoise the unpickled spec per payload, so the
        derivation runs at most once per process; under a thread executor
        a rare race can derive it twice, producing identical DAGs (the
        construction is deterministic), so last-write-wins is benign.
        """
        if self.reverse_dag is not None:
            return self.reverse_dag
        cached = getattr(self, "_reverse_cache", None)
        if cached is None:
            cached = _reverse_dag(self.dag)
            object.__setattr__(self, "_reverse_cache", cached)
        return cached


@dataclasses.dataclass(frozen=True)
class TrialRef:
    """The light, per-trial half: which trial, and its private RNG stream."""

    trial_index: int
    seed: np.random.SeedSequence


@dataclasses.dataclass(frozen=True)
class TrialTask:
    """Everything one independent layout trial needs, picklable.

    Kept as the single-object view of a ``(TrialSpec, TrialRef)`` pair for
    callers that drive trials by hand; executor dispatch uses the split
    form so the spec ships once per chunk rather than once per trial.
    """

    trial_index: int
    seed: np.random.SeedSequence
    dag: DAGCircuit
    reverse_dag: DAGCircuit
    coupling: CouplingMap
    router_factory: RouterFactory
    refinement_rounds: int
    routing_trials: int
    selection_metric: SelectionMetric

    @property
    def spec(self) -> TrialSpec:
        return TrialSpec(
            dag=self.dag,
            reverse_dag=self.reverse_dag,
            coupling=self.coupling,
            router_factory=self.router_factory,
            refinement_rounds=self.refinement_rounds,
            routing_trials=self.routing_trials,
            selection_metric=self.selection_metric,
        )

    @property
    def ref(self) -> TrialRef:
        return TrialRef(trial_index=self.trial_index, seed=self.seed)


@dataclasses.dataclass
class TrialOutcome:
    """Score, routing and wall time of one completed layout trial."""

    routing: RoutingResult
    score: float
    trial_index: int
    seconds: float = 0.0


def run_trial(spec: TrialSpec, ref: TrialRef) -> TrialOutcome:
    """Run one independent layout trial (module-level for picklability).

    The trial's entire randomness — initial layout, router tie-breaking in
    every refinement round and final routing — comes from one generator
    seeded by ``ref.seed``, so the outcome depends only on ``(spec, ref)``,
    never on sibling trials or execution order.

    That purity is also the replay contract of the fault-tolerant
    dispatch layer: after a worker crash or hang the lost ``(spec, ref)``
    pairs are simply re-dispatched (possibly on a respawned pool, a
    downgraded transport, or in-process), and the replayed outcomes are
    byte-identical to what the dead worker would have returned.  Keep
    this function free of hidden state — no module globals, no
    side effects beyond the memoised derived data (the reverse DAG and
    the ``IntDAG`` caches, mirror tables included) — or crash recovery
    silently stops being deterministic.  Only the kept routing's
    ``.dag`` is ever built: refinement rounds read ``final_layout``, and
    the selection metrics score a routing's event stream.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(ref.seed)
    router = spec.router_factory(ref.trial_index)
    adopt_intdag(spec.dag, spec.intdag)
    reverse_dag = spec.resolved_reverse_dag()
    layout = Layout.random(
        spec.dag.num_qubits, spec.coupling.num_qubits, seed=rng
    )
    for _ in range(spec.refinement_rounds):
        forward = router.run(spec.dag, layout, seed=rng)
        layout = forward.final_layout
        backward = router.run(reverse_dag, layout, seed=rng)
        layout = backward.final_layout
    best_routing: RoutingResult | None = None
    best_score = math.inf
    for _ in range(max(1, spec.routing_trials)):
        result = router.run(spec.dag, layout, seed=rng)
        score = spec.selection_metric(result)
        if best_routing is None or score < best_score:
            best_routing = result
            best_score = score
    assert best_routing is not None  # routing_trials >= 1
    return TrialOutcome(
        routing=best_routing,
        score=best_score,
        trial_index=ref.trial_index,
        seconds=time.perf_counter() - start,
    )


def run_layout_trial(task: TrialTask) -> TrialOutcome:
    """Run one self-contained :class:`TrialTask` (see :func:`run_trial`)."""
    return run_trial(task.spec, task.ref)


@dataclasses.dataclass(frozen=True)
class BatchTrialRef:
    """One trial of one circuit inside a multi-circuit dispatch."""

    circuit_index: int
    ref: TrialRef


def run_batch_trial(
    specs: Sequence[TrialSpec], batch_ref: BatchTrialRef
) -> TrialOutcome:
    """Run one trial of a multi-circuit batch against its shared specs.

    ``specs`` — one :class:`TrialSpec` per circuit — is the shared payload
    of the circuit-level fan-out engine
    (:func:`repro.core.transpile.transpile_many`): all circuits' DAGs and
    the one coverage set travel to workers together, once per chunk, and
    pickle's internal memo deduplicates the coverage set across specs.
    """
    return run_trial(specs[batch_ref.circuit_index], batch_ref.ref)


def select_best(
    outcomes: Sequence[TrialOutcome],
    metric_name: str = "swaps",
) -> LayoutResult:
    """Pick the winning trial: lowest score, ties to the lowest index.

    The tie-break keeps the winner independent of trial execution order,
    so any executor (or fan-out mode) returns the same result.
    """
    best = min(outcomes, key=lambda o: (o.score, o.trial_index))
    return LayoutResult(
        routing=best.routing,
        score=best.score,
        trial_index=best.trial_index,
        metric_name=metric_name,
        trial_scores=[outcome.score for outcome in outcomes],
        trial_seconds=sum(outcome.seconds for outcome in outcomes),
    )


class SabreLayout:
    """Multi-trial layout search driving any SABRE-compatible router.

    Args:
        coupling: device coupling map.
        router_factory: builds the router used for trial ``i`` (lets MIRAGE
            distribute aggression levels across trials).  Must be picklable
            for the process executor — use a module-level function or a
            frozen dataclass such as :class:`SabreRouterFactory`.
        layout_trials: number of independent random initial layouts.
        refinement_rounds: forward/backward routing rounds per trial.
        routing_trials: independent final routings per refined layout.
        selection_metric: callable scoring a :class:`RoutingResult`
            (lower is better); defaults to SWAP count.
        metric_name: label stored in the result.
        seed: base RNG seed — an int, a ``SeedSequence`` or a ``Generator``
            (``None`` for nondeterministic).  Per-trial streams are spawned
            from it, so results do not depend on trial execution order.
        executor: trial execution strategy — ``"serial"`` (default),
            ``"threads"``, ``"processes"`` or a
            :class:`~repro.transpiler.executors.TrialExecutor` instance.
            Executors created from a string spec are closed after each run;
            instances are borrowed and left open for reuse.
        max_workers: worker count for executors created from a string spec
            (ignored when an executor instance is passed).
    """

    def __init__(
        self,
        coupling: CouplingMap,
        router_factory: RouterFactory | None = None,
        *,
        layout_trials: int = DEFAULT_LAYOUT_TRIALS,
        refinement_rounds: int = DEFAULT_REFINEMENT_ROUNDS,
        routing_trials: int = DEFAULT_ROUTING_TRIALS,
        selection_metric: SelectionMetric | None = None,
        metric_name: str = "swaps",
        seed: int | np.random.SeedSequence | np.random.Generator | None = None,
        executor: str | TrialExecutor | None = None,
        max_workers: int | None = None,
    ) -> None:
        self.coupling = coupling
        self.router_factory = router_factory or SabreRouterFactory(coupling)
        self.layout_trials = layout_trials
        self.refinement_rounds = refinement_rounds
        self.routing_trials = routing_trials
        self.selection_metric = selection_metric or swap_count_metric
        self.metric_name = metric_name
        self.seed = seed
        self.executor = executor
        self.max_workers = max_workers

    def trial_spec(
        self, dag: DAGCircuit, *, defer_reverse: bool = False
    ) -> TrialSpec:
        """Build the heavy, trial-invariant payload for ``dag``.

        With ``defer_reverse=True`` the reverse DAG is left out of the
        spec entirely — trial runners derive it on first use (memoised
        per process), so it is neither constructed on the dispatching
        thread nor shipped across the process boundary.
        """
        return TrialSpec(
            dag=dag,
            reverse_dag=None if defer_reverse else _reverse_dag(dag),
            coupling=self.coupling,
            router_factory=self.router_factory,
            refinement_rounds=self.refinement_rounds,
            routing_trials=self.routing_trials,
            selection_metric=self.selection_metric,
            intdag=int_dag(dag),
        )

    def trial_refs(self) -> list[TrialRef]:
        """Spawn the light, order-insensitive per-trial seed records."""
        trial_seeds = seed_sequence(self.seed).spawn(self.layout_trials)
        return [
            TrialRef(trial_index=trial, seed=trial_seeds[trial])
            for trial in range(self.layout_trials)
        ]

    def trial_tasks(self, dag: DAGCircuit) -> list[TrialTask]:
        """Build the independent, order-insensitive tasks for ``dag``."""
        spec = self.trial_spec(dag)
        return [
            TrialTask(
                trial_index=ref.trial_index,
                seed=ref.seed,
                dag=spec.dag,
                reverse_dag=spec.reverse_dag,
                coupling=spec.coupling,
                router_factory=spec.router_factory,
                refinement_rounds=spec.refinement_rounds,
                routing_trials=spec.routing_trials,
                selection_metric=spec.selection_metric,
            )
            for ref in self.trial_refs()
        ]

    def run(self, dag: DAGCircuit) -> LayoutResult:
        """Search layouts and return the best routed result.

        Ties between equal-scoring trials always go to the lowest trial
        index, keeping the winner independent of the executor.  Trials are
        dispatched in split spec/ref form so pool-backed executors ship
        the DAGs and coverage set once per chunk, not once per trial.

        When the executor can stream (:meth:`TrialExecutor.open_dispatch`)
        the trials go through a :class:`DispatchSession` with a *deferred*
        spec: the payload is published and the trials start before any
        reverse DAG exists, and its construction happens inside the
        workers (memoised per process), overlapping early trial work
        instead of serialising on the dispatching thread.  Executors
        without a streaming transport fall back to the barrier
        :meth:`TrialExecutor.map_shared` path with an eager spec; both
        paths are byte-identical for a fixed seed.
        """
        refs = self.trial_refs()
        with executor_scope(self.executor, self.max_workers) as executor:
            session = (
                executor.open_dispatch(run_trial) if len(refs) > 1 else None
            )
            if session is None:
                spec = self.trial_spec(dag)
                outcomes = executor.map_shared(run_trial, spec, refs)
            else:
                with session:
                    spec = self.trial_spec(dag, defer_reverse=True)
                    slot = session.add_payload(spec)
                    futures = session.submit(slot, refs)
                    outcomes = [
                        outcome
                        for future in futures
                        for outcome in future.result()
                    ]
        return select_best(outcomes, self.metric_name)
