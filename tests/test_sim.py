"""Simulator tests: exact utilization laws, conservation, determinism."""
import dataclasses
import math

import numpy as np
import pytest

from fedkit import sim as sim_module
from fedkit.client import TrainConfig, local_train
from fedkit.compression import CodecConfig, compress_params, decompress_params
from fedkit.errors import InvalidBounds, NonTerminating
from fedkit.models import ModelSpec, make_blobs
from fedkit.params import serialize_params, serialized_size
from fedkit.sim import (
    _ARRIVE,
    SimClient,
    SimScenario,
    _Job,
    _Sim,
    draw_batch_times,
    run_simulation,
)

SPEC = ModelSpec(layer_dims=(5, 8, 3), activation="relu", loss="softmax_cross_entropy")


def shard(seed):
    return make_blobs(classes=3, dim=5, per_class=20, seed=seed)


def two_speed_scenario(scheduler, *, epochs=3, steps=100, jitter=0.0, codec=None, **kw):
    cfg = TrainConfig(optimizer="sgd", lr=0.05, batch_size=16, local_steps=steps, seed=0)
    clients = [
        SimClient("c0", shard(1), cfg, mean_batch_time=1.0),
        SimClient("c1", shard(2), cfg, mean_batch_time=2.0),
    ]
    return SimScenario(
        model_spec=SPEC,
        clients=clients,
        num_global_epochs=epochs,
        scheduler=scheduler,
        codec=codec,
        jitter=jitter,
        **kw,
    )


def assert_gantt_tiles_timeline(result):
    """Each client's compute+idle intervals must tile [0, t_end] exactly."""
    t_end = result.virtual_time
    for cid in result.utilization.per_client:
        spans = [g for g in result.utilization.gantt if g.client_id == cid]
        spans.sort(key=lambda g: g.start)
        assert spans[0].start == 0.0
        assert spans[-1].end == t_end
        for prev, cur in zip(spans, spans[1:]):
            assert cur.start == prev.end
        compute = sum(g.end - g.start for g in spans if g.kind == "compute")
        assert compute == result.utilization.per_client[cid].compute_seconds


class TestUtilizationLaws:
    def test_sync_two_speed_utilization_is_exact(self):
        # fast client spends half of every round waiting for the slow one
        res = run_simulation(two_speed_scenario("SyncScheduler"))
        utils = {cid: u.utilization for cid, u in res.utilization.per_client.items()}
        assert utils == {"c0": 0.5, "c1": 1.0}
        assert res.virtual_time == 600.0
        assert res.epoch == 3
        assert res.aggregations == 3
        assert res.updates_processed == 6

    def test_async_keeps_every_client_busy(self):
        res = run_simulation(two_speed_scenario("AsyncScheduler"))
        for u in res.utilization.per_client.values():
            assert u.utilization == 1.0
        assert res.updates_processed == 6

    def test_compass_groups_remove_sync_stalls(self):
        res = run_simulation(two_speed_scenario("CompassScheduler", epochs=4))
        for u in res.utilization.per_client.values():
            assert u.utilization == 1.0

    def test_transfer_time_counts_as_idle(self):
        res = run_simulation(two_speed_scenario("SyncScheduler", fixed_latency=5.0))
        # each round gains 10s of wire time (5 out, 5 back) for both clients
        assert res.virtual_time == 630.0
        slow = res.utilization.per_client["c1"]
        assert slow.compute_seconds == 600.0
        assert slow.utilization == pytest.approx(600.0 / 630.0)

    def test_finite_bandwidth_slows_transfers(self):
        fast = run_simulation(two_speed_scenario("SyncScheduler"))
        slow = run_simulation(two_speed_scenario("SyncScheduler", bandwidth=1e4))
        assert slow.virtual_time > fast.virtual_time


@pytest.mark.parametrize("scheduler", ["SyncScheduler", "AsyncScheduler", "CompassScheduler"])
@pytest.mark.parametrize("jitter", [0.0, 0.4])
def test_gantt_conservation(scheduler, jitter):
    res = run_simulation(
        two_speed_scenario(scheduler, epochs=2, steps=30, jitter=jitter, seed=5)
    )
    assert_gantt_tiles_timeline(res)
    for u in res.utilization.per_client.values():
        assert 0.0 < u.utilization <= 1.0


class TestDeterminism:
    def test_identical_scenarios_reproduce_bit_identical_runs(self):
        a = run_simulation(two_speed_scenario("CompassScheduler", jitter=0.3, seed=9))
        b = run_simulation(two_speed_scenario("CompassScheduler", jitter=0.3, seed=9))
        assert serialize_params(a.final_params) == serialize_params(b.final_params)
        assert a.metrics == b.metrics
        assert a.virtual_time == b.virtual_time

    def test_seed_changes_jittered_timeline(self):
        a = run_simulation(two_speed_scenario("SyncScheduler", jitter=0.3, seed=1))
        b = run_simulation(two_speed_scenario("SyncScheduler", jitter=0.3, seed=2))
        assert a.virtual_time != b.virtual_time

    def test_models_are_time_independent_for_sync(self):
        # latency delays the clock but must not touch the math
        a = run_simulation(two_speed_scenario("SyncScheduler"))
        b = run_simulation(two_speed_scenario("SyncScheduler", fixed_latency=3.0))
        assert serialize_params(a.final_params) == serialize_params(b.final_params)


class TestEvaluation:
    def test_eval_metrics_once_per_aggregation(self):
        sc = two_speed_scenario("SyncScheduler")
        sc.eval_dataset = shard(7)
        res = run_simulation(sc)
        val_losses = [m for m in res.metrics if m.kind == "val_loss"]
        assert len(val_losses) == res.aggregations
        assert all(math.isfinite(m.value) for m in val_losses)
        assert [m for m in res.metrics if m.kind == "val_accuracy"]

    def test_epoch_markers_recorded(self):
        res = run_simulation(two_speed_scenario("SyncScheduler"))
        marks = [m for m in res.metrics if m.kind == "epoch"]
        assert [m.value for m in marks] == [1.0, 2.0, 3.0]
        assert [m.timestamp for m in marks] == [200.0, 400.0, 600.0]


class TestGuards:
    def test_event_budget_raises(self):
        sc = two_speed_scenario("SyncScheduler", epochs=50, steps=5)
        sc.max_events = 10
        with pytest.raises(NonTerminating):
            run_simulation(sc)

    def test_bad_jitter_rejected(self):
        with pytest.raises(InvalidBounds):
            two_speed_scenario("SyncScheduler", jitter=1.0)

    def test_duplicate_ids_rejected(self):
        cfg = TrainConfig(local_steps=2)
        with pytest.raises(InvalidBounds):
            SimScenario(
                model_spec=SPEC,
                clients=[
                    SimClient("x", shard(1), cfg, 1.0),
                    SimClient("x", shard(2), cfg, 1.0),
                ],
                num_global_epochs=1,
            )


class TestCodecInLoop:
    def test_lossy_codec_changes_but_tracks_baseline(self):
        base = run_simulation(two_speed_scenario("SyncScheduler", steps=20))
        # threshold 0 so even these small test tensors hit the lossy stage
        lossy = run_simulation(
            two_speed_scenario(
                "SyncScheduler",
                steps=20,
                codec=CodecConfig(eb_rel=0.01, small_tensor_threshold=0),
            )
        )
        a = serialize_params(base.final_params)
        b = serialize_params(lossy.final_params)
        assert a != b
        for name in base.final_params.names:
            x = base.final_params[name]
            y = lossy.final_params[name]
            assert np.all(np.isfinite(y))
            # error bound is per round; a handful of rounds stays the same order
            span = x.max() - x.min()
            assert np.max(np.abs(x - y)) < 10 * 0.01 * max(span, 1e-12)


class TestBatchTimeDraws:
    def test_spread_ratio_is_exact(self):
        times = draw_batch_times(8, fastest=0.25, spread=6.0, seed=3)
        assert len(times) == 8
        assert min(times) == pytest.approx(0.25)
        assert max(times) == pytest.approx(1.5)
        assert max(times) / min(times) == pytest.approx(6.0)

    def test_deterministic_per_seed(self):
        assert draw_batch_times(5, seed=4) == draw_batch_times(5, seed=4)
        assert draw_batch_times(5, seed=4) != draw_batch_times(5, seed=5)

    def test_single_client_gets_fastest(self):
        assert draw_batch_times(1, fastest=0.7) == [0.7]


# ---------------------------------------------------------------------------
# lazy cohort training against the eager, one-client-at-a-time simulator


class EagerSim(_Sim):
    """The simulator before cohorts: each round trains alone, at dispatch."""

    def __init__(self, sc):
        super().__init__(sc)
        self.trained = 0

    def _schedule_round(self, cid, params, epoch, steps, now):
        start = now + self._transfer(self.model_bytes)
        duration = steps * self.clients[cid].mean_batch_time
        if self.sc.jitter > 0.0:
            duration *= float(self.rng.uniform(1.0 - self.sc.jitter, 1.0 + self.sc.jitter))
        end = start + duration
        update = local_train(self.states[cid], params, steps=steps, base_epoch=epoch)
        update = dataclasses.replace(update, wall_meta=(start, end))
        if self.sc.codec is not None:
            blob = compress_params(update.params, self.sc.codec)
            update = dataclasses.replace(update, params=decompress_params(blob))
            update_bytes = len(blob)
        else:
            update_bytes = serialized_size(update.params)
        self.segments.append((cid, start, end))
        self.trained += 1
        job = _Job(cid, params, epoch, steps, start, end, update, update_bytes)
        self._push(end + self._transfer(update_bytes), _ARRIVE, cid, job)


def oracle_scenario(scheduler, aggregator, codec, bandwidth, jitter, configs=None):
    # 37, 50 and 23 rows in batches of 8: every client has partial last batches
    rows = (37, 50, 23)
    # the deadline slack exceeds the jitter: a group whose deadline passes
    # before any member arrives makes the simulator re-fire that deadline
    # without end (NonTerminating), with or without cohorts
    compass = {"qmin": 2, "qmax": 9, "latitude": 0.5} if scheduler == "CompassScheduler" else None
    clients = []
    for i, n in enumerate(rows):
        ds = make_blobs(classes=3, dim=5, per_class=20, seed=60 + i).subset(np.arange(n))
        kw = dict(optimizer="sgd", lr=0.05, batch_size=8, local_steps=9, seed=70 + i,
                  prox_mu=0.5, send_delta=aggregator == "FedBuffAggregator")
        kw.update(configs[i] if configs else {})
        speed = (1.0, 1.7, 2.9)[i]
        clients.append(SimClient(f"c{i}", ds, TrainConfig(**kw), mean_batch_time=speed))
    return SimScenario(
        model_spec=SPEC, clients=clients, num_global_epochs=3 if compass is None else 6,
        scheduler=scheduler, aggregator=aggregator, scheduler_kwargs=compass or {},
        aggregator_kwargs={"buffer_size": 2} if aggregator == "FedBuffAggregator" else {},
        eval_dataset=shard(7), fixed_latency=0.25, bandwidth=bandwidth, jitter=jitter, seed=3,
        codec=codec, max_updates=8 if scheduler == "AsyncScheduler" else None,
    )


def assert_same_run(lazy, eager):
    assert lazy.final_params == eager.final_params
    assert lazy.metrics == eager.metrics
    assert lazy.virtual_time == eager.virtual_time
    assert lazy.utilization.gantt == eager.utilization.gantt
    assert (lazy.epoch, lazy.aggregations, lazy.updates_processed) == (
        eager.epoch, eager.aggregations, eager.updates_processed)


ORACLE_MODES = [
    ("SyncScheduler", "FedAvgAggregator"),
    ("AsyncScheduler", "FedAsyncAggregator"),
    ("CompassScheduler", "FedCompassAggregator"),
    ("AsyncScheduler", "FedBuffAggregator"),
]


QZ = CodecConfig(lossy="qz", eb_rel=0.01, small_tensor_threshold=0)


@pytest.mark.parametrize("scheduler,aggregator", ORACLE_MODES)
@pytest.mark.parametrize("codec", [None, QZ], ids=["raw", "qz"])
@pytest.mark.parametrize("bandwidth", [math.inf, 1e4])
@pytest.mark.parametrize("jitter", [0.0, 0.3])
def test_cohort_simulator_equals_eager_simulator(scheduler, aggregator, codec, bandwidth, jitter):
    sc = oracle_scenario(scheduler, aggregator, codec, bandwidth, jitter)
    eager = EagerSim(sc)
    assert_same_run(run_simulation(sc), eager.run())


@pytest.mark.parametrize("scheduler,aggregator", ORACLE_MODES)
def test_cohort_simulator_with_per_client_settings(scheduler, aggregator):
    configs = [dict(optimizer="adam", lr=0.01), dict(lr=0.02, prox_mu=0.0), {}]
    sc = oracle_scenario(scheduler, aggregator, None, math.inf, 0.3, configs)
    assert_same_run(run_simulation(sc), EagerSim(sc).run())


def test_rounds_the_run_never_uses_are_not_trained(monkeypatch):
    trained = []
    real = sim_module.train_cohort

    def counting(jobs):
        trained.append(len(jobs))
        return real(jobs)

    monkeypatch.setattr(sim_module, "train_cohort", counting)
    sc = oracle_scenario("AsyncScheduler", "FedAsyncAggregator", None, math.inf, 0.0)
    res = run_simulation(sc)
    eager = EagerSim(sc)
    eager.run()
    # eager training also trained the rounds still in flight at the end
    assert res.updates_processed <= sum(trained) < eager.trained
