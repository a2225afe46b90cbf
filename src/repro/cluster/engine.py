"""Fleet-scale serving: failure domains, self-healing, autoscaling.

:class:`ClusterEngine` runs the serving event loop
(:func:`repro.cluster.loop.run_serving_loop`) over a rack/board fleet.
It is the same loop :class:`~repro.serving.engine.ServingEngine` runs
over one rack, with every fleet feature switched on by the engine's
own arguments:

* **Failure domains** — the fault schedule may carry the correlated
  domain events of :mod:`repro.cluster.events` (rack power loss,
  network partition, correlated DRAM) alongside the per-board taxonomy;
  each fans out deterministically to the rack's member boards, and the
  health monitor rolls outages up per rack.
* **Self-healing routing** — the :class:`~repro.cluster.router.
  ClusterRouter` drains a board the instant any gate closes and
  re-admits it when the gate reopens; retried requests are *hedged*
  away from the board that just failed them when an alternative is
  free.
* **Autoscaling** — an optional :class:`~repro.cluster.autoscale.
  Autoscaler` ticks on the virtual clock, reading the fleet gauges the
  loop publishes into a :class:`MetricsRegistry`; activated boards
  pay the compiled-schedule weight-reload cold start before serving.
* **Tenancy** — arrivals carry a tenant; admission enforces per-tenant
  quotas on top of the global bound and batch formation is fair-share
  (stride) scheduled.  Accounting is conserved *per tenant*:
  ``offered == completed + rejected + dropped`` under any fault mix.
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.loop import run_serving_loop
from repro.cluster.report import ClusterReport
from repro.cluster.service import FleetPipelineService, FleetService
from repro.cluster.tenancy import TenantPolicy
from repro.cluster.topology import FleetTopology
from repro.errors import ServingError
from repro.faults.schedule import FaultSchedule
from repro.integrity.policy import IntegrityPolicy
from repro.serving.admission import AdmissionPolicy
from repro.serving.batcher import BatchPolicy
from repro.serving.request import InferenceRequest, RetryPolicy
from repro.trace.metrics import MetricsRegistry, as_metrics
from repro.trace.span import Tracer, as_tracer


class ClusterEngine:
    """Serve one arrival trace through a rack/board fleet.

    Args:
        service: A :class:`~repro.cluster.service.FleetService` or
            :class:`~repro.cluster.service.FleetPipelineService` (any
            service exposing ``topology`` and ``cold_start_s`` whose
            replica names are the topology's board names).
        batch_policy: Dynamic-batching knobs (fleet-wide).
        admission_policy: Global queue bound and degradation knobs.
        slo_s: Latency objective for violation accounting.
        fault_schedule: Deterministic fault events — the per-board
            taxonomy plus the correlated domain events of
            :mod:`repro.cluster.events`; merge independent schedules
            with :meth:`FaultSchedule.merge`.
        retry_policy: Backoff/attempt budget for fault retries.
        integrity_policy: ABFT handling of silent corruption, as for
            :class:`~repro.serving.engine.ServingEngine`.
        tenant_policy: Fair-share weights and per-tenant quotas.
        autoscale_policy: Enables the gauge-driven autoscaler; ``None``
            serves from the full fleet throughout.
        hedge_retries: Steer a retried request away from the board that
            failed it when any alternative board is free.
        tracer: Optional tracer; fleet transitions land as
            ``cluster.*`` instants alongside the engine's usual spans.
        metrics: Optional registry; receives the ``cluster_*`` gauges
            and counters (the autoscaler reads the gauges back).
    """

    def __init__(
        self,
        service: FleetService | FleetPipelineService,
        batch_policy: BatchPolicy | None = None,
        admission_policy: AdmissionPolicy | None = None,
        slo_s: float = 10e-3,
        fault_schedule: FaultSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
        integrity_policy: "IntegrityPolicy | str" = IntegrityPolicy.OFF,
        tenant_policy: TenantPolicy | None = None,
        autoscale_policy: AutoscalePolicy | None = None,
        hedge_retries: bool = True,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if slo_s <= 0:
            raise ServingError(f"slo_s must be positive, got {slo_s}")
        topology = getattr(service, "topology", None)
        if not isinstance(topology, FleetTopology):
            raise ServingError(
                "cluster engine needs a fleet service (with a topology); "
                f"got {type(service).__name__}"
            )
        if service.replica_names() != list(topology.board_names):
            raise ServingError(
                "service replica names do not match the fleet topology"
            )
        self.service = service
        self.topology = topology
        self.cold_start_s = float(getattr(service, "cold_start_s", 0.0))
        self.batch_policy = batch_policy or BatchPolicy()
        self.admission_policy = admission_policy or AdmissionPolicy()
        self.slo_s = slo_s
        self.fault_schedule = fault_schedule
        self.retry_policy = retry_policy or RetryPolicy()
        self.integrity_policy = IntegrityPolicy.parse(integrity_policy)
        self.tenant_policy = tenant_policy or TenantPolicy()
        self.autoscale_policy = autoscale_policy
        self.hedge_retries = hedge_retries
        self.tracer = as_tracer(tracer)
        self.metrics = as_metrics(metrics)

    def run(self, requests: Sequence[InferenceRequest]) -> ClusterReport:
        """Serve ``requests`` (sorted by arrival) to completion."""
        report = run_serving_loop(
            self, requests,
            topology=self.topology,
            domains=self.topology.domains(),
            tenant_policy=self.tenant_policy,
            autoscale_policy=self.autoscale_policy,
            hedge_retries=self.hedge_retries,
            cold_start_s=self.cold_start_s,
        )
        if self.metrics.enabled:
            for rack, util in report.rack_utilization.items():
                self.metrics.gauge(
                    "cluster_rack_utilization",
                    "mean member busy fraction over the makespan",
                ).set(util, rack=rack)
        return report
