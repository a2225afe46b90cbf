"""Single-deployment serving: the one-rack case of the serving loop.

:class:`ServingEngine` serves one arrival trace on one deployment — N
overlay replicas or N multi-FPGA pipelines.  It runs the same event loop
as the fleet (:func:`repro.cluster.loop.run_serving_loop`) over one rack
whose boards are the service's replicas, with one tenant, no autoscaler
and hedged retries off, and returns the loop's core
:class:`~repro.serving.metrics.ServingReport`.  The loop module
documents the event sources, the latency decomposition and the
fault-tolerant execution paths.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.loop import run_serving_loop
from repro.cluster.tenancy import TenantPolicy
from repro.cluster.topology import build_fleet
from repro.errors import ServingError
from repro.faults.schedule import FaultSchedule
from repro.integrity.policy import IntegrityPolicy
from repro.serving.admission import AdmissionPolicy
from repro.serving.batcher import BatchPolicy
from repro.serving.metrics import ServingReport
from repro.serving.request import (
    DROP_DEADLINE,
    DROP_NO_REPLICA,
    DROP_RETRY_EXHAUSTED,
    DROP_SDC,
    InferenceRequest,
    RetryPolicy,
)
from repro.serving.scheduler import PipelineService, ReplicaService
from repro.trace.metrics import MetricsRegistry, as_metrics
from repro.trace.span import Tracer, as_tracer

__all__ = [
    "DROP_DEADLINE",
    "DROP_NO_REPLICA",
    "DROP_RETRY_EXHAUSTED",
    "DROP_SDC",
    "ServingEngine",
]


class ServingEngine:
    """Run one arrival trace through batcher → router → replicas.

    Args:
        service: Replica or pipeline deployment to dispatch onto.
        batch_policy: Dynamic-batching knobs.
        admission_policy: Queue bound and degradation knobs.
        slo_s: Latency objective for violation accounting.
        fault_schedule: Optional deterministic fault events to replay
            against the run's virtual clock.
        retry_policy: Backoff/attempt budget for fault retries.
        integrity_policy: How silent-corruption faults (transient TPE
            upsets, uncorrectable DRAM bit-flips) are handled.  Under
            the default ``OFF`` the struck batch is aborted the instant
            the fault fires.  Under a detecting policy the corruption
            rides to the batch's *retirement*, where the ABFT checksum
            verification catches it: the batch pays its full service
            time, then is dropped (``DETECT``), re-executed through the
            deadline-aware retry path (``DETECT_REEXECUTE``), or — for
            localizable accumulator upsets — corrected in place from
            the syndromes with no re-execution (``DETECT_CORRECT``).
            Link faults keep the abort path under every policy: the bus
            protocol's own CRC catches those at transfer time.
        tracer: Optional :class:`~repro.trace.span.Tracer`.  Every
            retired request emits its lifecycle span tree
            (``request`` → ``queue`` / ``compute`` / ``dram``) stamped
            with the virtual clock; batches land on their replica's
            track, faults and failovers as instants.  Tracing only
            observes timestamps the engine already computed — a traced
            run's report is identical to an untraced one.
        metrics: Optional :class:`~repro.trace.metrics.MetricsRegistry`
            receiving ``serving_*`` counters, the request latency
            histogram, and per-replica utilization gauges.
    """

    def __init__(
        self,
        service: ReplicaService | PipelineService,
        batch_policy: BatchPolicy | None = None,
        admission_policy: AdmissionPolicy | None = None,
        slo_s: float = 10e-3,
        fault_schedule: FaultSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
        integrity_policy: "IntegrityPolicy | str" = IntegrityPolicy.OFF,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if slo_s <= 0:
            raise ServingError(f"slo_s must be positive, got {slo_s}")
        self.service = service
        self.batch_policy = batch_policy or BatchPolicy()
        self.admission_policy = admission_policy or AdmissionPolicy()
        self.slo_s = slo_s
        self.fault_schedule = fault_schedule
        self.retry_policy = retry_policy or RetryPolicy()
        self.integrity_policy = IntegrityPolicy.parse(integrity_policy)
        self.tracer = as_tracer(tracer)
        self.metrics = as_metrics(metrics)

    def run(self, requests: Sequence[InferenceRequest]) -> ServingReport:
        """Serve ``requests`` (sorted by arrival) to completion."""
        names = self.service.replica_names()
        return run_serving_loop(
            self, requests,
            topology=build_fleet(1, len(names), board_names=names),
            domains=None,
            tenant_policy=TenantPolicy(),
            autoscale_policy=None,
            hedge_retries=False,
            cold_start_s=0.0,
        ).core
