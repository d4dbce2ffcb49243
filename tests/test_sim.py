"""Simulator tests: exact utilization laws, conservation, determinism."""
import dataclasses
import gc
import math
import sys
import tracemalloc

import numpy as np
import pytest

from fedkit import client as client_module
from fedkit import sim as sim_module
from fedkit.client import TrainConfig, local_train
from fedkit.compression import CodecConfig, compress_params, decompress_params
from fedkit.errors import DimMismatch, InvalidBounds, NonTerminating
from fedkit.models import ModelSpec, PartitionSpec, make_blobs, partition
from fedkit.params import serialize_params, serialized_size
from fedkit.sim import (
    _ARRIVE,
    SimClient,
    SimScenario,
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
        self._push(end + self._transfer(update_bytes), _ARRIVE, cid, update)


AGGREGATOR_KWARGS = {"FedBuffAggregator": {"buffer_size": 2}, "FedAdamAggregator": {"server_lr": 0.05}}


def oracle_scenario(scheduler, aggregator, codec, bandwidth, jitter, configs=None):
    # 37, 50 and 23 rows in batches of 8: every client has partial last batches
    rows = (37, 50, 23)
    compass = {"qmin": 2, "qmax": 9, "latitude": 0.5} if scheduler == "CompassScheduler" else None
    clients = []
    for i, n in enumerate(rows):
        ds = make_blobs(classes=3, dim=5, per_class=20, seed=60 + i).subset(np.arange(n))
        kw = dict(optimizer="sgd", lr=0.05, batch_size=8, local_steps=9, seed=70 + i,
                  prox_mu=0.5, send_delta=aggregator in ("FedBuffAggregator", "FedAdamAggregator"))
        kw.update(configs[i] if configs else {})
        speed = (1.0, 1.7, 2.9)[i]
        clients.append(SimClient(f"c{i}", ds, TrainConfig(**kw), mean_batch_time=speed))
    return SimScenario(
        model_spec=SPEC, clients=clients, num_global_epochs=3 if compass is None else 6,
        scheduler=scheduler, aggregator=aggregator, scheduler_kwargs=compass or {},
        aggregator_kwargs=AGGREGATOR_KWARGS.get(aggregator, {}),
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
    ("SyncScheduler", "FedAdamAggregator"),
]


QZ = CodecConfig(lossy="qz", eb_rel=0.01, small_tensor_threshold=0)


@pytest.fixture(params=[None, 1, 3], ids=["cohort", "one", "ahead"])
def cores(request, monkeypatch):
    """How the simulator trains: the small test model's whole cohort stacked,
    or as a large model is trained, one client per slice, on the reader's
    thread (one core) or three slices ahead of it (three cores, more than a
    2-core box has, with threads switching as often as they can)."""
    if request.param is None:
        yield None
        return
    monkeypatch.setattr(client_module, "_STACK_BYTES", 1)
    monkeypatch.setattr(client_module, "_cores", lambda: request.param)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield request.param
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("scheduler,aggregator", ORACLE_MODES)
@pytest.mark.parametrize("codec", [None, QZ], ids=["raw", "qz"])
@pytest.mark.parametrize("bandwidth", [math.inf, 1e4])
@pytest.mark.parametrize("jitter", [0.0, 0.3])
def test_cohort_simulator_equals_eager_simulator(scheduler, aggregator, codec, bandwidth, jitter, cores):
    sc = oracle_scenario(scheduler, aggregator, codec, bandwidth, jitter)
    eager = EagerSim(sc)
    assert_same_run(run_simulation(sc), eager.run())


@pytest.mark.parametrize("scheduler,aggregator", ORACLE_MODES)
def test_cohort_simulator_with_per_client_settings(scheduler, aggregator, cores):
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


def test_fedbuff_trains_a_deferred_round_before_its_client_goes_again(cores, monkeypatch):
    # FedBuff replies before it aggregates, so a client is dispatched again
    # while its last update waits, not yet trained, in the buffer
    again, cohorts = [], []
    schedule, train = _Sim._schedule_round, sim_module.train_cohort

    def recording_schedule(self, cid, *args):
        if cid in self.rounds.pending:
            again.append(cid)
        return schedule(self, cid, *args)

    def recording_train(jobs):
        cohorts.append([st.client_id for st, _, _, _ in jobs])
        return train(jobs)

    monkeypatch.setattr(_Sim, "_schedule_round", recording_schedule)
    monkeypatch.setattr(sim_module, "train_cohort", recording_train)
    sc = oracle_scenario("AsyncScheduler", "FedBuffAggregator", None, math.inf, 0.3)
    lazy = run_simulation(sc)
    assert again
    assert all(len(set(ids)) == len(ids) for ids in cohorts)
    assert_same_run(lazy, EagerSim(sc).run())


@pytest.mark.parametrize("scheduler,aggregator", ORACLE_MODES)
def test_a_run_leaves_no_reference_cycle(scheduler, aggregator, cores):
    # a cycle would keep a finished run's models until the collector runs
    sc = oracle_scenario(scheduler, aggregator, None, math.inf, 0.3)
    gc.collect()
    gc.disable()
    try:
        run_simulation(sc)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.usefixtures("no_thread_left")
@pytest.mark.parametrize("cores", [1, 3], ids=["one", "ahead"], indirect=True)
def test_a_training_error_ends_the_run_and_its_workers(cores):
    sc = oracle_scenario("SyncScheduler", "FedAvgAggregator", None, math.inf, 0.0)
    bad = sc.clients[2].dataset
    sc.clients[2].dataset = dataclasses.replace(bad, labels=np.full_like(bad.labels, 3))
    with pytest.raises(DimMismatch):
        run_simulation(sc)


def test_a_sync_round_holds_a_few_models_not_one_per_client(monkeypatch):
    # one Sync+FedAdam round of 12 clients of a 1M-parameter float64 model,
    # one client per slice, trained two slices ahead of the rule: each update
    # is folded in and let go, so the peak does not grow with the clients.
    # Holding every update until the round closes peaks at 19 models here.
    monkeypatch.setattr(client_module, "_cores", lambda: 2)
    k = 12
    spec = ModelSpec((784, 1024, 200, 10), "relu", "softmax_cross_entropy")
    shards = partition(make_blobs(classes=10, dim=784, per_class=k, seed=1), PartitionSpec("iid", k, seed=2))
    cfg = TrainConfig(optimizer="sgd", lr=0.05, batch_size=16, local_steps=1, send_delta=True)
    sc = SimScenario(
        model_spec=spec, clients=[SimClient(f"c{i:02d}", shards[i], cfg, 1.0 + i) for i in range(k)],
        num_global_epochs=1, aggregator="FedAdamAggregator", aggregator_kwargs={"server_lr": 0.01},
    )
    model = 8 * sum(a * b + b for a, b in zip(spec.layer_dims, spec.layer_dims[1:]))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = run_simulation(sc)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert res.updates_processed == k
    assert peak <= 8 * model, f"peak of {peak / model:.2f} models"


def unreached_group_scenario(seed, latitude=0.2):
    # with jitter above the deadline latitude, some seeds give a Compass group
    # whose deadline passes before any member arrives
    spec = ModelSpec((5, 8, 3), "relu", "softmax_cross_entropy")
    shards = partition(make_blobs(classes=3, dim=5, per_class=30, seed=1), PartitionSpec("iid", 3, seed=3))
    train = TrainConfig(optimizer="sgd", lr=0.05, batch_size=8, local_steps=9)
    clients = [
        SimClient(f"c{i}", shards[i], train, mean_batch_time=speed)
        for i, speed in enumerate((1.0, 1.7, 2.9))
    ]
    return SimScenario(
        model_spec=spec, clients=clients, num_global_epochs=40, scheduler="CompassScheduler",
        scheduler_kwargs={"qmin": 2, "qmax": 9, "latitude": latitude}, jitter=0.3, seed=seed,
        max_events=5000,
    )


def run_recording_late_arrivals(sc):
    """Run ``sc``; returns the result and, for each arrival into an open group
    past its deadline, the group, the time and how many members were still out."""
    sim = _Sim(sc)
    scheduler, process = sim.agent.scheduler, sim.agent.process_update
    late = []

    def recording_process(update, now):
        group = scheduler.groups[scheduler.assignment[update.client_id]]
        if not group.closed and group.t_arrival is not None:
            if now > group.t_arrival * (1.0 + scheduler.latitude):
                late.append((group, now, len(group.members) - len(group.arrived)))
        return process(update, now)

    sim.agent.process_update = recording_process
    res = sim.run()
    assert (res.epoch, res.aggregations) == (40, 40)
    stamps = [m.timestamp for m in res.metrics if m.kind == "epoch"]
    assert stamps == sorted(stamps)
    # the group aggregates at its first late arrival
    for group, now, _ in late:
        assert group.closed and now in stamps
    assert_same_run(res, EagerSim(sc).run())
    return late


@pytest.mark.parametrize("seed", [25, 27, 34, 35, 44, 53])
def test_compass_group_unreached_by_its_deadline_aggregates_at_first_late_arrival(seed):
    assert run_recording_late_arrivals(unreached_group_scenario(seed))


def test_compass_late_arrival_closes_its_group_while_other_members_are_out():
    late = run_recording_late_arrivals(unreached_group_scenario(0, latitude=0.0))
    assert max(out for _, _, out in late) > 1
