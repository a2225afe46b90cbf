"""Replica dispatch and pipeline service models."""

import pytest

import repro.serving.scheduler as scheduler
from repro.cluster.router import ClusterRouter
from repro.cluster.topology import build_fleet
from repro.errors import FTDLError, ServingError
from repro.faults.mask import FaultMask, largest_healthy_subgrid
from repro.serving.batcher import Batch, BatchServiceModel
from repro.serving.request import InferenceRequest
from repro.serving.scheduler import PipelineService, ReplicaService
from repro.workloads.layers import EwopLayer, MatMulLayer
from repro.workloads.network import Network


def _net() -> Network:
    return Network(
        name="n", application="test",
        layers=(
            MatMulLayer("fc1", in_features=64, out_features=32),
            MatMulLayer("fc2", in_features=32, out_features=8),
        ),
    )


def _batch(size: int, t: float = 0.0) -> Batch:
    return Batch(
        requests=tuple(
            InferenceRequest(request_id=i, model="n", arrival_s=t)
            for i in range(size)
        ),
        formed_s=t,
    )


class TestReplicaService:
    def test_occupancy_equals_latency(self, tiny_config):
        svc = ReplicaService(BatchServiceModel(_net(), tiny_config), 2)
        assert svc.occupancy_s(4) == svc.latency_s(4)
        assert svc.replica_names() == ["overlay0", "overlay1"]

    def test_invalid_replica_count(self, tiny_config):
        with pytest.raises(ServingError):
            ReplicaService(BatchServiceModel(_net(), tiny_config), 0)


class TestPipelineService:
    def test_latency_exceeds_occupancy(self, tiny_config):
        svc = PipelineService(_net(), tiny_config, n_devices=2)
        if svc.n_devices > 1:
            assert svc.latency_s(2) > svc.occupancy_s(2)
        else:
            assert svc.latency_s(2) == svc.occupancy_s(2)

    def test_occupancy_is_bottleneck_stage(self, tiny_config):
        svc = PipelineService(_net(), tiny_config, n_devices=2)
        stage_times = [s.service_s(2) for s in svc._stages]
        assert svc.occupancy_s(2) == max(stage_times)
        assert svc.latency_s(2) == pytest.approx(sum(stage_times))

    def test_ewop_only_network_rejected(self, tiny_config):
        net = Network(
            name="ew", application="test",
            layers=(EwopLayer("relu", op="relu", n_elements=16),),
        )
        # plan_deployment rejects it first with PartitionError; either
        # way it is a typed FTDLError, not a crash.
        with pytest.raises(FTDLError):
            PipelineService(net, tiny_config, n_devices=2)

    def test_cache_stats_aggregate(self, tiny_config):
        svc = PipelineService(_net(), tiny_config, n_devices=2)
        svc.latency_s(1)
        stats = svc.cache_stats()
        assert stats.misses >= svc.n_devices  # every stage compiled


def _one_rack(svc) -> ClusterRouter:
    """The router a single-deployment run places batches with."""
    names = svc.replica_names()
    return ClusterRouter(build_fleet(1, len(names), board_names=names))


def _place(router, board, svc, batch: Batch, now: float):
    return router.dispatch(
        board, batch, now,
        occupancy_s=svc.occupancy_s(batch.size),
        latency_s=svc.latency_s(batch.size),
    )


class TestDispatchScheduler:
    """Batch placement on a one-rack :class:`ClusterRouter`."""

    def test_earliest_free_placement(self, tiny_config):
        svc = ReplicaService(BatchServiceModel(_net(), tiny_config), 2)
        router = _one_rack(svc)
        r0 = router.free_board(0.0)
        d0 = _place(router, r0, svc, _batch(2), 0.0)
        r1 = router.free_board(0.0)
        assert r1 is not r0
        _place(router, r1, svc, _batch(2), 0.0)
        assert router.free_board(0.0) is None
        assert router.next_free_s() == pytest.approx(d0.complete_s)

    def test_dispatch_busy_replica_raises(self, tiny_config):
        svc = ReplicaService(BatchServiceModel(_net(), tiny_config), 1)
        router = _one_rack(svc)
        board = router.free_board(0.0)
        _place(router, board, svc, _batch(1), 0.0)
        with pytest.raises(ServingError):
            _place(router, board, svc, _batch(1), 0.0)

    def test_utilization_accounting(self, tiny_config):
        svc = ReplicaService(BatchServiceModel(_net(), tiny_config), 2)
        router = _one_rack(svc)
        board = router.free_board(0.0)
        d = _place(router, board, svc, _batch(1), 0.0)
        util = router.utilization(makespan_s=2 * d.complete_s)
        assert util["overlay0"] == pytest.approx(0.5)
        assert util["overlay1"] == 0.0


class TestDegradeSlowdown:
    """Stuck-TPE slowdown: memoized per (stage, sub-grid) and priced
    with the healthy model's own objective."""

    MASK = frozenset([(0, 0, 0)])

    @pytest.fixture
    def built(self, monkeypatch):
        """Count every BatchServiceModel the service models build."""
        models = []

        class Counting(BatchServiceModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

        monkeypatch.setattr(scheduler, "BatchServiceModel", Counting)
        return models

    @staticmethod
    def _expected(stages, batch_size):
        mask = FaultMask.from_coords(TestDegradeSlowdown.MASK)
        worst = 1.0
        for stage in stages:
            config = largest_healthy_subgrid(stage.config, mask)
            degraded = BatchServiceModel(
                stage.network, config, objective=stage.cache.objective
            )
            worst = max(worst, degraded.service_s(batch_size)
                        / stage.service_s(batch_size))
        return worst

    def test_pipeline_repeats_build_no_model(self, tiny_config, built):
        svc = PipelineService(_net(), tiny_config, n_devices=2)
        del built[:]  # the healthy stages
        first = svc.degrade_slowdown(self.MASK, 2)
        assert len(built) == svc.n_devices  # one per degraded stage
        for batch_size in (2, 2, 4):
            svc.degrade_slowdown(self.MASK, batch_size)
        assert len(built) == svc.n_devices
        assert all(m.cache.objective == "balance" for m in built)
        assert first == self._expected(svc._stages, 2)
        assert first > 1.0

    def test_replica_uses_healthy_objective(self, tiny_config, built):
        model = BatchServiceModel(_net(), tiny_config, objective="balance")
        svc = ReplicaService(model, 2)
        factor = svc.degrade_slowdown(self.MASK, 4)
        svc.degrade_slowdown(self.MASK, 4)
        assert len(built) == 1
        assert built[0].cache.objective == "balance"
        assert factor == self._expected([model], 4)
