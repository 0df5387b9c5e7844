"""Result objects returned by the top-level transpilation API.

:class:`TranspileResult` describes one transpiled circuit, including the
per-stage timing report of the pipeline that produced it;
:class:`BatchResult` aggregates the results of one
:func:`repro.core.transpile.transpile_many` call, plus the provenance of
how the batch was scheduled (fan-out mode, executor, dispatch counters).
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

from repro.circuits.circuit import QuantumCircuit
from repro.transpiler.layout import Layout
from repro.transpiler.metrics import CircuitMetrics


@dataclasses.dataclass
class TranspileResult:
    """Everything produced by one transpilation run.

    Attributes
    ----------
    circuit : QuantumCircuit
        The routed circuit on physical qubits.
    metrics : CircuitMetrics
        Depth / cost / SWAP metrics of the routed circuit.
    method : str
        ``"mirage"``, ``"sabre"`` or ``"vf2"`` (SWAP-free embedding).
    basis : str
        Basis gate the cost metrics are expressed in.
    initial_layout : Layout
        Virtual-to-physical layout at circuit start.
    final_layout : Layout
        Layout after the last gate (differs when SWAPs or mirror gates
        moved data).
    swaps_added : int
        SWAP gates inserted by routing.
    mirrors_accepted : int
        Mirror substitutions performed (MIRAGE only).
    mirror_candidates : int
        Two-qubit gates that reached the intermediate layer.
    runtime_seconds : float
        Transpilation time of this circuit.  Under ``fanout="trials"``
        this is elapsed wall clock (parallel trials overlap); under
        ``fanout="circuits"`` it is the per-circuit serial work plus
        this circuit's summed *worker* trial time, which a parallel
        executor overlaps across circuits.  Compare timings across
        fan-out modes at the batch level (``BatchResult.runtime_seconds``),
        not through this field.
    selection_metric : str
        Post-selection metric used across trials.
    trial_index : int
        Index of the winning routing trial (``-1`` if routing was skipped).
    input_metrics : CircuitMetrics or None
        Metrics of the cleaned, consolidated input circuit (before
        routing) for improvement reporting.
    pipeline_report : list of dict or None
        Per-stage timing records (name, seconds, gate counts, skipped
        flag) of the pipeline run that produced this result.  Batch
        fan-out runs show a ``plan`` stage (trial planning) in place of
        in-line routing time; the ``route`` record then holds selection
        only, with the trial time reported in ``trial_seconds``.
    trial_seconds : float or None
        Summed wall-clock seconds spent inside this circuit's routing
        trials (worker time).  ``None`` when routing was skipped (VF2
        embedding) or for results predating this field.
    output_permutation : list of int or None
        Wire permutation absorbed by eliding the input program's SWAP
        gates: input qubit ``q`` ends on virtual qubit
        ``output_permutation[q]``, i.e. on physical qubit
        ``final_layout.v2p(output_permutation[q])``.  ``None`` when the
        pipeline had no clean stage.
    """

    circuit: QuantumCircuit
    metrics: CircuitMetrics
    method: str
    basis: str
    initial_layout: Layout
    final_layout: Layout
    swaps_added: int
    mirrors_accepted: int
    mirror_candidates: int
    runtime_seconds: float
    selection_metric: str
    trial_index: int
    input_metrics: CircuitMetrics | None = None
    pipeline_report: list[dict] | None = None
    trial_seconds: float | None = None
    output_permutation: list[int] | None = None

    def stage_seconds(self) -> dict[str, float]:
        """Wall-clock seconds per pipeline stage.

        Returns
        -------
        dict of str to float
            Stage name to summed seconds; empty if no report is attached.
        """
        seconds: dict[str, float] = {}
        for record in self.pipeline_report or []:
            seconds[record["name"]] = (
                seconds.get(record["name"], 0.0) + record["seconds"]
            )
        return seconds

    @property
    def mirror_acceptance_rate(self) -> float:
        """Fraction of intermediate-layer candidates accepted as mirrors."""
        if self.mirror_candidates == 0:
            return 0.0
        return self.mirrors_accepted / self.mirror_candidates

    def summary(self) -> dict[str, float | int | str]:
        """Flat summary row, convenient for tables and benches."""
        return {
            "method": self.method,
            "basis": self.basis,
            "depth": round(self.metrics.depth, 3),
            "total_cost": round(self.metrics.total_cost, 3),
            "swaps": self.swaps_added,
            "two_qubit_gates": self.metrics.two_qubit_count,
            "mirrors": self.mirrors_accepted,
            "mirror_rate": round(self.mirror_acceptance_rate, 3),
            "runtime_s": round(self.runtime_seconds, 3),
            "selection": self.selection_metric,
        }


@dataclasses.dataclass
class BatchResult:
    """Results of one :func:`repro.core.transpile.transpile_many` call.

    Attributes
    ----------
    results : list of TranspileResult
        One result per input circuit, in input order — regardless of the
        fan-out mode or executor that produced them.  Under
        ``transpile_many(..., on_error="return")`` a circuit whose
        deadline expired holds its
        :class:`~repro.exceptions.DeadlineExceededError` instance at
        that position instead; the aggregate helpers below skip such
        entries.
    runtime_seconds : float
        Wall-clock time of the whole batch.
    executor : str
        Name of the trial executor used (``"serial"``, ``"threads"``,
        ``"processes"``, ...).
    fanout : str
        Scheduling mode that ran the batch — ``"trials"`` (circuits
        walked sequentially, parallelism inside each circuit's trial
        fan-out) or ``"circuits"`` (every circuit's trials pooled into
        one shared dispatch).  Fixed-seed outputs are byte-identical
        across modes; only the timing profile differs.
    dispatch : dict or None
        Provenance counters of the shared dispatch accumulated on the
        executor during this batch: ``shared_pickles`` (heavy payload /
        anchor serialisations), ``payload_pickles`` (per-circuit spec
        serialisations under the streaming scheduler), ``plan_payloads``
        (shared planning-spec serialisations under executor-side
        planning), ``chunks``, ``tasks``, ``plan_tasks`` (front
        pipelines run as executor tasks), ``shm_segments``
        (shared-memory segments published — 0 when the transport is
        disabled or unavailable), ``bytes_shipped`` (payload-transport
        bytes attached to chunks — O(1) per chunk in shared-memory mode,
        one blob per chunk otherwise), ``header_bytes`` (zero-copy index
        headers published; 0 when ``MIRAGE_ZEROCOPY_DISABLE=1``) and
        ``bytes_copied`` (payload bytes workers materialised before
        unpickling — bounded by the index headers when the zero-copy
        layout is active, whole payloads otherwise), plus ``circuits``
        and ``routed`` counts.  Under circuit-level fan-out it also
        records ``scheduler`` (``"stream"`` or ``"barrier"`` — the mode
        actually used, after any fallback), ``overlap_seconds``
        (planning/selection wall-clock performed while dispatched trials
        were still in flight; 0 under the barrier scheduler),
        ``plan_mode`` (``"local"`` or ``"executor"`` — where front
        pipelines actually ran, after ``"auto"`` resolution and any
        fallback) and ``plan_seconds`` (summed front-pipeline seconds —
        producer-thread time under local planning, worker time under
        executor planning).  ``None`` when unavailable (e.g. results
        predating this field).
    """

    results: list[TranspileResult]
    runtime_seconds: float
    executor: str
    fanout: str = "trials"
    dispatch: dict | None = None

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[TranspileResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> TranspileResult:
        return self.results[index]

    def stage_seconds(self) -> dict[str, float]:
        """Per-stage wall-clock seconds summed across the batch.

        Returns
        -------
        dict of str to float
            Stage name to summed seconds across all circuits.  Under
            parallel executors the sum can exceed ``runtime_seconds``
            (worker time vs. elapsed time).
        """
        seconds: dict[str, float] = {}
        for result in self._completed():
            for name, value in result.stage_seconds().items():
                seconds[name] = seconds.get(name, 0.0) + value
        return seconds

    def _completed(self) -> list[TranspileResult]:
        """Results that are actual results (skips ``on_error="return"``
        exception placeholders)."""
        return [r for r in self.results if isinstance(r, TranspileResult)]

    def circuit_seconds(self) -> list[float]:
        """Per-circuit ``runtime_seconds``, in input order.

        Exception placeholders contribute ``0.0`` (no result exists to
        time) so positions stay aligned with the input batch.
        """
        return [
            result.runtime_seconds if isinstance(result, TranspileResult)
            else 0.0
            for result in self.results
        ]

    def trial_seconds(self) -> float:
        """Summed routing-trial worker seconds across the batch."""
        return sum(
            result.trial_seconds or 0.0 for result in self._completed()
        )

    def summary(self) -> dict[str, float | int | str]:
        """Flat summary row of the whole batch."""
        completed = self._completed()
        return {
            "circuits": len(self.results),
            "executor": self.executor,
            "fanout": self.fanout,
            "total_swaps": sum(r.swaps_added for r in completed),
            "total_mirrors": sum(r.mirrors_accepted for r in completed),
            "mean_depth": round(
                sum(r.metrics.depth for r in completed) / len(completed),
                3,
            )
            if completed
            else 0.0,
            "runtime_s": round(self.runtime_seconds, 3),
        }

    def summaries(self) -> list[dict[str, float | int | str]]:
        """Per-circuit summary rows (exception placeholders skipped)."""
        return [result.summary() for result in self._completed()]
