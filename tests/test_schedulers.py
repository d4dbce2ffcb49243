import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkit.aggregators import FedAvgAggregator
from fedkit.errors import (
    DuplicateUpdate,
    InvalidBounds,
    NegativeStaleness,
    NonFiniteValue,
    UnknownClient,
    UnknownStrategyName,
)
from fedkit.params import ModelUpdate, ParameterSet
from fedkit.schedulers import (
    Aggregate,
    AsyncScheduler,
    CompassScheduler,
    SpeedEstimate,
    SyncScheduler,
    compass_assign,
    make_scheduler,
)
from fedkit.server import ServerAgent


def recipients(act):
    return [u.client_id for u in act.updates]


def pset(v=0.0):
    return ParameterSet({"w": np.array([v], dtype=np.float32)})


def upd(cid, steps=10, start=0.0, end=10.0, base_epoch=0):
    return ModelUpdate(
        client_id=cid,
        params=pset(1.0),
        is_delta=False,
        sample_count=4,
        local_steps=steps,
        base_epoch=base_epoch,
        wall_meta=(start, end),
    )


class TestSync:
    def test_waits_for_all_then_aggregates_sorted(self):
        s = SyncScheduler(["b", "a", "c"], default_steps=7)
        assert s.on_update(upd("b"), 1.0) is None
        assert s.on_update(upd("c"), 2.0) is None
        act = s.on_update(upd("a"), 3.0)
        assert isinstance(act, Aggregate)
        assert recipients(act) == ["a", "b", "c"]
        assert s.assign(recipients(act), 3.0) == {"a": 7, "b": 7, "c": 7}

    def test_duplicate_submission_rejected(self):
        s = SyncScheduler(["a", "b"], default_steps=5)
        s.on_update(upd("a"), 0.0)
        with pytest.raises(DuplicateUpdate):
            s.on_update(upd("a"), 1.0)

    def test_unknown_client_rejected(self):
        s = SyncScheduler(["a"], default_steps=5)
        with pytest.raises(UnknownClient):
            s.on_update(upd("zz"), 0.0)
        with pytest.raises(UnknownClient):
            s.assign(["zz"], 0.0)

    def test_next_round_accepts_resubmission(self):
        s = SyncScheduler(["a", "b"], default_steps=5)
        s.on_update(upd("a"), 0.0)
        assert isinstance(s.on_update(upd("b"), 0.5), Aggregate)
        # round rolled over, same client may submit again
        assert s.on_update(upd("a"), 1.0) is None


class TestAsync:
    def test_every_update_aggregates_alone(self):
        s = AsyncScheduler(["a", "b"], default_steps=9)
        act = s.on_update(upd("b"), 0.0)
        assert isinstance(act, Aggregate)
        assert recipients(act) == ["b"]
        assert s.assign(recipients(act), 0.0) == {"b": 9}

    def test_unknown_client(self):
        s = AsyncScheduler(["a"], default_steps=9)
        with pytest.raises(UnknownClient):
            s.on_update(upd("nope"), 0.0)
        with pytest.raises(UnknownClient):
            s.assign(["nope"], 0.0)


@pytest.mark.parametrize("cls", [SyncScheduler, AsyncScheduler])
def test_fixed_step_schedulers_need_a_client(cls):
    with pytest.raises(InvalidBounds):
        cls([], default_steps=5)


class TestCompassAssign:
    def test_joins_earliest_feasible_group(self):
        from fedkit.schedulers import GroupRecord

        groups = [
            GroupRecord(gid=0, t_arrival=50.0),
            GroupRecord(gid=1, t_arrival=100.0),
        ]
        # 1 s/step from t=0: group 0 needs 50 steps, group 1 needs 100
        gid, steps, t_new = compass_assign(SpeedEstimate(1.0), 0.0, groups, qmin=20, qmax=200)
        assert (gid, steps, t_new) == (0, 50, None)

    def test_too_close_deadline_skipped(self):
        from fedkit.schedulers import GroupRecord

        groups = [GroupRecord(gid=0, t_arrival=5.0)]
        # only 5 steps fit before t=5, below qmin -> found a new group
        gid, steps, t_new = compass_assign(SpeedEstimate(1.0), 0.0, groups, qmin=20, qmax=200)
        assert gid is None
        assert steps == 200
        assert t_new == 200.0

    def test_too_far_deadline_skipped(self):
        from fedkit.schedulers import GroupRecord

        groups = [GroupRecord(gid=0, t_arrival=1000.0)]
        gid, steps, t_new = compass_assign(SpeedEstimate(1.0), 0.0, groups, qmin=20, qmax=200)
        assert gid is None

    def test_closed_and_unknown_arrival_groups_ignored(self):
        from fedkit.schedulers import GroupRecord

        groups = [
            GroupRecord(gid=0, t_arrival=100.0, closed=True),
            GroupRecord(gid=1, t_arrival=None),
        ]
        gid, steps, t_new = compass_assign(SpeedEstimate(1.0), 0.0, groups)
        assert gid is None

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBounds):
            compass_assign(SpeedEstimate(1.0), 0.0, [], qmin=0, qmax=10)
        with pytest.raises(InvalidBounds):
            compass_assign(SpeedEstimate(1.0), 0.0, [], qmin=30, qmax=10)

    @settings(max_examples=200, deadline=None)
    @given(
        pst=st.floats(min_value=1e-3, max_value=1e3),
        t_arrival=st.floats(min_value=0.0, max_value=1e6),
        now=st.floats(min_value=0.0, max_value=1e6),
        qmin=st.integers(min_value=1, max_value=50),
        qspread=st.integers(min_value=0, max_value=500),
    )
    def test_assigned_steps_always_within_bounds(self, pst, t_arrival, now, qmin, qspread):
        from fedkit.schedulers import GroupRecord

        qmax = qmin + qspread
        groups = [GroupRecord(gid=0, t_arrival=t_arrival)]
        gid, steps, _ = compass_assign(SpeedEstimate(pst), now, groups, qmin, qmax)
        assert qmin <= steps <= qmax
        if gid is not None:
            # joining a group means its deadline is reachable with those steps
            assert abs((t_arrival - now) / pst - steps) <= 0.5 + 1e-9


def drive(sched, cid, start, steps, pst, epoch=0):
    """Submit an update covering [start, start + steps*pst] and return the action."""
    end = start + steps * pst
    return sched.on_update(upd(cid, steps=steps, start=start, end=end, base_epoch=epoch), end)


class TestCompassScheduler:
    def test_first_contact_solo_group_full_budget(self):
        s = CompassScheduler(["a", "b"], qmin=20, qmax=200)
        assert s.assign(["a"], 0.0) == {"a": 200}
        assert s.assign(["b"], 0.0) == {"b": 200}
        assert len(s.groups) == 2
        assert all(g.t_arrival is None for g in s.groups.values())

    def test_two_speed_clients_coalesce_into_shared_groups(self):
        # fast does 1 s/step, slow 2 s/step; defaults qmin=20 qmax=200.
        # Hand trace: solo bootstrap rounds at t=200 (fast) and t=400 (slow),
        # fast bridges via a 200-step round, then both land in one group at
        # t=600 and every 200 s after that (fast 200 steps, slow 100).
        s = CompassScheduler(["fast", "slow"], qmin=20, qmax=200)
        assert s.assign(["fast"], 0.0) == {"fast": 200}
        assert s.assign(["slow"], 0.0) == {"slow": 200}

        act = drive(s, "fast", 0.0, 200, 1.0)  # arrives t=200
        assert isinstance(act, Aggregate) and recipients(act) == ["fast"]
        r = s.assign(recipients(act), 200.0)
        assert r["fast"] == 200  # new group, t_arrival 400

        act = drive(s, "fast", 200.0, 200, 1.0)  # arrives t=400
        assert isinstance(act, Aggregate) and recipients(act) == ["fast"]
        r = s.assign(recipients(act), 400.0)
        fast_steps = r["fast"]
        assert fast_steps == 200  # founds group with t_arrival 600

        act = drive(s, "slow", 0.0, 200, 2.0)  # arrives t=400
        assert isinstance(act, Aggregate) and recipients(act) == ["slow"]
        r = s.assign(recipients(act), 400.0)
        slow_steps = r["slow"]
        assert slow_steps == 100  # joins fast's group: (600-400)/2

        # both now target t=600 in the same group
        gids = {s.assignment["fast"], s.assignment["slow"]}
        assert len(gids) == 1
        (gid,) = gids
        assert s.groups[gid].t_arrival == 600.0

        assert drive(s, "fast", 400.0, fast_steps, 1.0) is None  # t=600
        act = drive(s, "slow", 400.0, slow_steps, 2.0)  # t=600
        assert isinstance(act, Aggregate)
        assert recipients(act) == ["fast", "slow"]
        # steady state: next shared deadline 200 s out, work split by speed
        assert s.assign(recipients(act), 600.0) == {"fast": 200, "slow": 100}

    def test_joined_members_arrive_exactly_at_group_deadline(self):
        s = CompassScheduler(["fast", "slow"], qmin=20, qmax=200)
        s.assign(["fast", "slow"], 0.0)
        drive(s, "fast", 0.0, 200, 1.0)
        s.assign(["fast"], 200.0)
        drive(s, "fast", 200.0, 200, 1.0)
        r = s.assign(["fast"], 400.0)
        drive(s, "slow", 0.0, 200, 2.0)
        r2 = s.assign(["slow"], 400.0)
        gid = s.assignment["slow"]
        t_a = s.groups[gid].t_arrival
        # with exact speeds both assigned budgets finish precisely at t_arrival
        assert 400.0 + r["fast"] * 1.0 == t_a
        assert 400.0 + r2["slow"] * 2.0 == t_a

    def test_speed_estimate_ema(self):
        s = CompassScheduler(["a"], speed_ema=0.5)
        s.assign(["a"], 0.0)
        drive(s, "a", 0.0, 100, 1.0)  # first observation: 1.0 s/step
        assert s.speeds["a"].per_step_time == pytest.approx(1.0)
        s.assign(["a"], 100.0)
        start = 100.0
        end = start + 100 * 3.0  # now runs at 3 s/step
        s.on_update(upd("a", steps=100, start=start, end=end), end)
        assert s.speeds["a"].per_step_time == pytest.approx(0.5 * 3.0 + 0.5 * 1.0)

    def test_deadline_fires_and_straggler_goes_late(self):
        s = CompassScheduler(["fast", "slow"], qmin=20, qmax=200)
        s.assign(["fast", "slow"], 0.0)
        drive(s, "fast", 0.0, 200, 1.0)
        s.assign(["fast"], 200.0)
        drive(s, "fast", 200.0, 200, 1.0)
        s.assign(["fast"], 400.0)
        drive(s, "slow", 0.0, 200, 2.0)
        s.assign(["slow"], 400.0)
        # shared group with t_arrival=600; fast arrives on time
        assert drive(s, "fast", 400.0, 200, 1.0) is None
        gid = s.assignment["slow"]
        deadline = s.groups[gid].t_arrival * 1.2
        assert s.next_deadline() == deadline
        assert s.check_deadline(deadline - 1.0) is None  # not yet expired
        act = s.check_deadline(deadline + 1.0)
        assert isinstance(act, Aggregate)
        assert recipients(act) == ["fast"]
        s.assign(recipients(act), deadline + 1.0)
        # slow finally reports: late path, aggregated alone
        late = s.on_update(upd("slow", steps=100, start=400.0, end=800.0), 800.0)
        assert isinstance(late, Aggregate)
        assert late.mode == "late"
        assert recipients(late) == ["slow"]
        s.assign(recipients(late), 800.0)
        assert gid not in s.groups  # record dropped once the straggler returned

    def test_deadline_needs_at_least_one_arrival(self):
        s = CompassScheduler(["a"], qmin=20, qmax=200)
        s.assign(["a"], 0.0)
        drive(s, "a", 0.0, 200, 1.0)
        s.assign(["a"], 200.0)  # group with t_arrival=400, nobody arrived
        assert s.next_deadline() is None
        assert s.check_deadline(1e9) is None

    def test_update_without_assignment_rejected(self):
        s = CompassScheduler(["a"])
        with pytest.raises(UnknownClient):
            s.on_update(upd("a"), 0.0)
        with pytest.raises(UnknownClient):
            s.assign(["ghost"], 0.0)

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBounds):
            CompassScheduler(["a"], qmin=0)
        with pytest.raises(InvalidBounds):
            CompassScheduler(["a"], qmin=50, qmax=10)

    @settings(max_examples=50, deadline=None)
    @given(
        psts=st.lists(st.floats(min_value=0.5, max_value=8.0), min_size=2, max_size=5),
        rounds=st.integers(min_value=1, max_value=4),
    )
    def test_assignments_always_within_bounds(self, psts, rounds):
        ids = [f"c{i}" for i in range(len(psts))]
        s = CompassScheduler(ids, qmin=20, qmax=200)
        clock = {cid: 0.0 for cid in ids}
        steps = {cid: s.assign([cid], 0.0)[cid] for cid in ids}
        waiting = set()  # submitted, no reply yet
        for _ in range(rounds):
            # process arrivals in completion-time order like a real run
            order = sorted(ids, key=lambda c: (clock[c] + steps[c] * psts[ids.index(c)], c))
            for cid in order:
                if cid in waiting:
                    continue
                pst = psts[ids.index(cid)]
                end = clock[cid] + steps[cid] * pst
                act = drive(s, cid, clock[cid], steps[cid], pst)
                clock[cid] = end
                if isinstance(act, Aggregate):
                    for rid, n in s.assign(recipients(act), end).items():
                        assert 20 <= n <= 200
                        steps[rid] = n
                        clock[rid] = end
                        waiting.discard(rid)
                else:
                    waiting.add(cid)


class TestAgentNextDeadline:
    """``ServerAgent.next_deadline``: when the simulator and the socket server check deadlines."""

    @pytest.mark.parametrize("cls", [SyncScheduler, AsyncScheduler])
    def test_none_without_deadlines(self, cls):
        agent = ServerAgent(pset(), cls(["a", "b"], 5), FedAvgAggregator(), target_epochs=3)
        for cid in ("a", "b"):
            agent.handle_model_request(cid, 0.0)
        assert agent.next_deadline() is None
        agent.process_update(upd("a"), 10.0)
        assert agent.next_deadline() is None

    def test_compass_just_past_the_scheduler_deadline_until_done(self):
        s = CompassScheduler(["a", "b", "c"], qmin=20, qmax=200)
        agent = ServerAgent(pset(), s, FedAvgAggregator(), target_epochs=3)
        for cid in ("a", "b", "c"):
            agent.handle_model_request(cid, 0.0)
        # a and b aggregate alone in their first groups, then share a group
        # due at t=400; a arrives in it on time
        agent.process_update(upd("a", steps=200, start=0.0, end=200.0), 200.0)
        agent.process_update(upd("b", steps=200, start=0.0, end=200.0), 200.0)
        assert s.assignment["a"] == s.assignment["b"]
        assert agent.next_deadline() is None  # nobody has arrived in it yet
        assert agent.process_update(upd("a", steps=200, start=200.0, end=400.0), 400.0) == {}
        deadline = s.next_deadline()
        assert deadline == 400.0 * 1.2
        assert agent.next_deadline() == math.nextafter(deadline, math.inf)
        assert agent.check_deadlines(deadline) == {}  # the group needs a later time
        # c's first group ends the run; a's group still has its deadline
        agent.process_update(upd("c", steps=200, start=0.0, end=300.0), 450.0)
        assert agent.done and s.next_deadline() == deadline
        assert agent.next_deadline() is None


class TestAgentChecks:
    """``ServerAgent.process_update`` refuses a bad update before the scheduler holds it."""

    def test_stale_update_is_refused_without_losing_the_round(self):
        agent = ServerAgent(pset(), SyncScheduler(["a", "b"], 5), FedAvgAggregator())
        assert agent.process_update(upd("a"), 1.0) == {}
        with pytest.raises(NegativeStaleness):
            agent.process_update(upd("b", base_epoch=3), 2.0)
        replies = agent.process_update(upd("b"), 3.0)
        assert {cid: rep[1:] for cid, rep in replies.items()} == {"a": (1, 5), "b": (1, 5)}
        assert agent.update_count == 2

    def test_refused_updates_do_not_count(self):
        agent = ServerAgent(pset(), AsyncScheduler(["a", "b"], 5), FedAvgAggregator(), target_updates=2)
        for _ in range(2):
            with pytest.raises(UnknownClient):
                agent.process_update(upd("zz"), 1.0)
        assert (agent.update_count, agent.epoch, agent.done) == (0, 0, False)

    @pytest.mark.parametrize("end", [math.nan, math.inf, 1e308])
    def test_compass_refuses_a_speed_it_cannot_schedule_and_changes_nothing(self, end):
        # a NaN, infinite or overflowing seconds-per-step would make a group's
        # arrival or a step count non-finite, and fail the next client's update
        agent = ServerAgent(pset(), CompassScheduler(["a", "b"], qmin=1, qmax=10), FedAvgAggregator())
        agent.handle_model_request("a", 0.0)
        agent.handle_model_request("b", 0.0)
        sched = agent.scheduler
        before = repr((sched.speeds, sched.groups, sched.assignment))
        with pytest.raises(NonFiniteValue):
            agent.process_update(upd("a", end=end), 1.0)
        assert repr((sched.speeds, sched.groups, sched.assignment)) == before
        assert (agent.update_count, agent.epoch) == (0, 0)
        for cid in ("b", "a"):
            replies = agent.process_update(upd(cid), 2.0)
            assert list(replies) == [cid]
        assert agent.epoch == 2


class RecordingStrategy:
    """FedAvg that records the client ids of every aggregation it is given."""

    def __init__(self):
        self.inner = FedAvgAggregator()
        self.held: list[list[str]] = []

    def apply(self, state, updates, late=False):
        self.held.append(sorted(u.client_id for u in updates))
        return self.inner.apply(state, updates, late=late)

    def finalize(self, state):
        return self.inner.finalize(state)


REPLY_SCHEDULERS = {
    "sync": lambda ids: SyncScheduler(ids, 5),
    "async": lambda ids: AsyncScheduler(ids, 5),
    "compass": lambda ids: CompassScheduler(ids, qmin=1, qmax=10),
}


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(REPLY_SCHEDULERS)),
    n=st.integers(min_value=1, max_value=4),
    # (submit? else check deadlines, which ready client, seconds that pass first)
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 3), st.floats(min_value=0.0, max_value=30.0)),
        max_size=40,
    ),
)
def test_each_aggregation_replies_to_exactly_its_members(name, n, ops):
    """Every reply goes to a client whose update an aggregation of that call
    held, every such client gets one, and each accepted update gets exactly
    one reply, whatever the arrival order and deadline checks."""
    ids = [f"c{i}" for i in range(n)]
    strategy = RecordingStrategy()
    agent = ServerAgent(pset(), REPLY_SCHEDULERS[name](ids), strategy)
    ready = {}  # client id -> (epoch, steps, dispatch time) of the round it runs
    waiting = set()  # submitted, no reply yet
    now = 0.0
    for cid in ids:
        _, epoch, steps = agent.handle_model_request(cid, now)
        ready[cid] = (epoch, steps, now)

    def submit(cid):
        epoch, steps, start = ready.pop(cid)
        waiting.add(cid)
        return agent.process_update(upd(cid, steps, start, now, base_epoch=epoch), now)

    def deliver(call, arg):
        seen = len(strategy.held)
        replies = call(arg)
        members = [cid for held in strategy.held[seen:] for cid in held]
        assert sorted(replies) == sorted(members)
        assert set(replies) <= waiting  # no second reply to one update
        for cid, rep in replies.items():
            waiting.discard(cid)
            ready[cid] = (rep.epoch, rep.next_steps, now)

    for is_submit, pick, dt in ops:
        now += dt
        if is_submit and ready:
            cid = sorted(ready)[pick % len(ready)]
            deliver(submit, cid)
        else:
            deliver(agent.check_deadlines, now)
    # drain: every client still out submits, then every deadline passes
    for _ in range(3):
        if not waiting:
            break
        now += 1.0
        for cid in sorted(ready):
            deliver(submit, cid)
        now += 1e6
        deliver(agent.check_deadlines, now)
    assert not waiting


def test_registry_and_factory():
    s = make_scheduler("SyncScheduler", ["a"], 5)
    assert isinstance(s, SyncScheduler)
    s = make_scheduler("CompassScheduler", ["a"], 5, {"qmin": 10, "qmax": 50})
    assert s.qmin == 10
    with pytest.raises(UnknownStrategyName):
        make_scheduler("RandomScheduler", ["a"], 5)
