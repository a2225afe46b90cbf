"""Serving manifest: every observable of a set of single-engine runs.

The manifest pins what :class:`~repro.serving.engine.ServingEngine`
returns for a fixed set of seeded runs: every :class:`ServingReport`
field, each request's ``(id, dispatch_s, complete_s, replica, attempts,
batch_size, drop_reason)``, the sha256 of the run's Chrome-trace JSON
and its full Prometheus text.  The runs cover replica serving under all
four integrity policies with a mixed fault schedule, a replicated
multi-device pipeline (latency != occupancy), and the fixed-time stub
services of the fault and integrity unit tests.  Any change to the
serving event loop's behaviour shows up as a line diff.

Regenerate the golden (only when a change is *meant* to move it)::

    PYTHONPATH=src python -m tests.serving_manifest \
        > tests/golden/serving_manifest.txt
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.faults import (
    DramBitFlip,
    FaultSchedule,
    LinkFault,
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlowdown,
    TPEFault,
    generate_fault_schedule,
)
from repro.overlay.config import OverlayConfig
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    BatchServiceModel,
    PipelineService,
    ReplicaService,
    RetryPolicy,
    ServingEngine,
    make_requests,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.trace import Tracer
from repro.trace.export import chrome_trace_json, prometheus_text
from repro.trace.metrics import MetricsRegistry
from repro.workloads.models.smallcnn import build_smallcnn
from repro.workloads.registry import build_workload
from tests.test_serving_faults import StubService as FaultStub
from tests.test_serving_integrity import StubService as IntegrityStub

GRID = OverlayConfig(3, 2, 2)
POLICIES = ("off", "detect", "detect-reexecute", "detect-correct")


def board_faults(names, seed, duration_s, stuck_fraction=0.2):
    """The cluster tests' per-board mix: every fault kind at once."""
    return generate_fault_schedule(
        seed=seed, duration_s=duration_s, replicas=list(names),
        grid=GRID, crash_rate_hz=60.0, mean_repair_s=0.010,
        bitflip_rate_hz=200.0, correctable_fraction=0.3,
        tpe_fault_rate_hz=100.0, stuck_fraction=stuck_fraction,
        link_fault_rate_hz=30.0, slowdown_rate_hz=30.0,
    )


def _request_line(r) -> str:
    return (
        f"{r.request_id} {r.dispatch_s!r} {r.complete_s!r} {r.replica} "
        f"{r.attempts} {r.batch_size} {r.drop_reason}"
    )


def run_lines(case: str, service, requests, **kwargs) -> list[str]:
    """Serve ``requests`` traced and metered; one line per observable."""
    tracer = Tracer(unit="s")
    metrics = MetricsRegistry()
    report = ServingEngine(
        service, tracer=tracer, metrics=metrics, **kwargs
    ).run(requests)
    lines = [f"== {case}"]
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if field.name in ("completed", "dropped"):
            lines.append(f"{field.name} {len(value)}")
            lines.extend(f"  {_request_line(r)}" for r in value)
        else:
            lines.append(f"{field.name} {value!r}")
    digest = hashlib.sha256(
        chrome_trace_json(tracer).encode()
    ).hexdigest()
    lines.append(f"chrome_trace_sha256 {digest}")
    lines.append("prometheus")
    lines.extend(
        f"  {line}" for line in prometheus_text(metrics).splitlines()
    )
    return lines


def replica_runs() -> list[str]:
    """SmallCNN on two 3x2x2 replicas, every fault kind, all policies."""
    model = BatchServiceModel(build_smallcnn(), GRID)
    lines = []
    for policy in POLICIES:
        service = ReplicaService(model, n_replicas=2)
        times = poisson_arrivals(8000.0, 500, seed=3)
        lines += run_lines(
            f"replica-smallcnn-{policy}", service,
            make_requests(times, "SmallCNN", deadline_s=5e-3),
            batch_policy=BatchPolicy(max_batch=8, max_wait_s=0.5e-3),
            admission_policy=AdmissionPolicy(capacity=64),
            fault_schedule=board_faults(
                service.replica_names(), seed=5,
                duration_s=times[-1] - times[0],
            ),
            retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.2e-3),
            integrity_policy=policy,
        )
    return lines


def pipeline_runs() -> list[str]:
    """Two replicated 2-device Sentimental-seqCNN pipelines, no stuck
    TPEs (a stuck TPE would price a degraded pipeline)."""
    service = PipelineService(
        build_workload("Sentimental-seqCNN"), GRID, n_devices=2,
        n_replicas=2,
    )
    times = poisson_arrivals(2000.0, 300, seed=7)
    return run_lines(
        "pipeline-seqcnn", service,
        make_requests(times, "Sentimental-seqCNN", deadline_s=20e-3),
        batch_policy=BatchPolicy(max_batch=4, max_wait_s=1e-3),
        fault_schedule=board_faults(
            service.replica_names(), seed=9,
            duration_s=times[-1] - times[0], stuck_fraction=0.0,
        ),
        retry_policy=RetryPolicy(max_attempts=4, backoff_base_s=0.2e-3),
        integrity_policy="detect-reexecute",
    )


def stub_runs() -> list[str]:
    """The unit tests' fixed-time stubs under hand-placed faults."""
    lines = []
    events = [
        ReplicaCrash(0.0505, "stub0"),
        ReplicaSlowdown(0.060, "stub1", factor=2.0),
        ReplicaRecovery(0.075, "stub1"),
        TPEFault(0.070, "stub1", 0, 0, 0, stuck=True),
        DramBitFlip(0.080, "stub1", correctable=False),
        LinkFault(0.090, "stub1"),
        ReplicaRecovery(0.150, "stub0"),
        ReplicaCrash(0.160, "stub1"),
    ]
    lines += run_lines(
        "stub-faults", FaultStub(n_replicas=2),
        make_requests(uniform_arrivals(500.0, 120), "stub",
                      deadline_s=30e-3),
        batch_policy=BatchPolicy(max_batch=1, max_wait_s=0.0),
        fault_schedule=FaultSchedule.from_events(events),
        retry_policy=RetryPolicy(),
    )
    # Every replica down for good: stranded work is dropped.
    lines += run_lines(
        "stub-faults-strand", FaultStub(n_replicas=1),
        make_requests(uniform_arrivals(500.0, 20), "stub"),
        batch_policy=BatchPolicy(max_batch=2, max_wait_s=1e-3),
        fault_schedule=FaultSchedule.from_events(
            [ReplicaCrash(0.005, "stub0")]
        ),
        retry_policy=RetryPolicy(),
    )
    upsets = [
        TPEFault(0.0005 + 0.005 * i, f"stub{i % 2}", 0, 0, 0, stuck=False)
        for i in range(6)
    ] + [
        DramBitFlip(0.0007 + 0.007 * i, f"stub{i % 2}", correctable=False)
        for i in range(4)
    ]
    for policy in POLICIES:
        lines += run_lines(
            f"stub-integrity-{policy}", IntegrityStub(n_replicas=2),
            make_requests([i * 1e-3 for i in range(40)], "stub"),
            batch_policy=BatchPolicy(max_batch=4, max_wait_s=0.5e-3),
            fault_schedule=FaultSchedule.from_events(upsets),
            retry_policy=RetryPolicy(),
            integrity_policy=policy,
        )
    return lines


def serving_manifest() -> list[str]:
    return replica_runs() + pipeline_runs() + stub_runs()


if __name__ == "__main__":
    print("\n".join(serving_manifest()))
