"""Round schedulers: decide when updates aggregate and what clients do next.

Three policies are provided.  ``SyncScheduler`` buffers until every
registered client reports, ``AsyncScheduler`` aggregates each update the
moment it lands, and ``CompassScheduler`` estimates per-client speeds and
groups clients so their submissions arrive together.

The scheduler protocol is two-phase.  ``on_update`` returns either
``Buffered`` (hold the connection, no reply yet) or ``Aggregate`` (the
caller feeds the enclosed updates to its aggregation strategy).  After
applying an ``Aggregate``, the caller asks ``replies(params, epoch, now)``
for the per-client :class:`Reply` assignments to send out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import DuplicateUpdate, InvalidBounds, UnknownClient, UnknownStrategyName
from .params import ModelUpdate, ParameterSet

QMIN = 20
QMAX = 200
LATITUDE = 0.2  # deadline slack factor on a group's expected arrival time
SPEED_EMA = 0.5


@dataclass(frozen=True)
class Buffered:
    client_id: str


@dataclass(frozen=True)
class Aggregate:
    updates: tuple[ModelUpdate, ...]
    mode: str = "round"  # round | late


@dataclass(frozen=True)
class Reply:
    params: ParameterSet
    epoch: int
    next_steps: int


@dataclass
class SpeedEstimate:
    per_step_time: float
    observations: int = 1

    def observe(self, per_step_time: float, ema: float = SPEED_EMA) -> None:
        self.per_step_time = ema * per_step_time + (1.0 - ema) * self.per_step_time
        self.observations += 1


@dataclass
class GroupRecord:
    gid: int
    t_arrival: Optional[float]  # None until the founder's speed is known
    members: set = field(default_factory=set)
    steps: dict = field(default_factory=dict)  # client_id -> assigned steps
    arrived: dict = field(default_factory=dict)  # client_id -> ModelUpdate
    closed: bool = False


def compass_assign(
    speed: SpeedEstimate,
    now: float,
    groups: list[GroupRecord],
    qmin: int = QMIN,
    qmax: int = QMAX,
) -> tuple[Optional[int], int, Optional[float]]:
    """Pick a group for one client.

    Scans open groups in ascending expected-arrival order and joins the first
    whose deadline this client can meet with a step count inside
    ``[qmin, qmax]``.  Otherwise the client founds a new group with ``qmax``
    steps.  Returns ``(gid_to_join_or_None, steps, t_arrival_for_new_group)``.
    """
    if qmin < 1 or qmax < qmin:
        raise InvalidBounds(f"need 1 <= qmin <= qmax, got [{qmin}, {qmax}]")
    pst = speed.per_step_time
    open_groups = sorted(
        (g for g in groups if not g.closed and g.t_arrival is not None),
        key=lambda g: (g.t_arrival, g.gid),
    )
    for g in open_groups:
        q = round((g.t_arrival - now) / pst)
        if qmin <= q <= qmax:
            return g.gid, int(q), None
    return None, qmax, now + qmax * pst


class SyncScheduler:
    """One aggregation per round, after every registered client reports."""

    def __init__(self, client_ids, default_steps: int):
        self.clients = sorted(client_ids)
        if not self.clients:
            raise InvalidBounds("sync scheduler needs at least one client")
        self.default_steps = int(default_steps)
        self._buffer: dict[str, ModelUpdate] = {}
        self._round_members: list[str] = []

    def initial_assignment(self, client_id: str, now: float) -> int:
        if client_id not in self.clients:
            raise UnknownClient(f"{client_id!r} is not registered")
        return self.default_steps

    def on_update(self, update: ModelUpdate, now: float):
        cid = update.client_id
        if cid not in self.clients:
            raise UnknownClient(f"{cid!r} is not registered")
        if cid in self._buffer:
            raise DuplicateUpdate(f"{cid!r} already submitted this round")
        self._buffer[cid] = update
        if len(self._buffer) == len(self.clients):
            ordered = tuple(self._buffer[c] for c in sorted(self._buffer))
            self._round_members = sorted(self._buffer)
            self._buffer = {}
            return Aggregate(ordered)
        return Buffered(cid)

    def replies(self, params: ParameterSet, epoch: int, now: float) -> dict[str, Reply]:
        members, self._round_members = self._round_members, []
        return {c: Reply(params, epoch, self.default_steps) for c in members}

    def check_deadline(self, now: float):
        return None

    def next_deadline(self) -> Optional[float]:
        return None


class AsyncScheduler:
    """Every update aggregates immediately; only the submitter gets a reply."""

    def __init__(self, client_ids, default_steps: int):
        self.clients = sorted(client_ids)
        self.default_steps = int(default_steps)
        self._last: Optional[str] = None

    def initial_assignment(self, client_id: str, now: float) -> int:
        if client_id not in self.clients:
            raise UnknownClient(f"{client_id!r} is not registered")
        return self.default_steps

    def on_update(self, update: ModelUpdate, now: float):
        if update.client_id not in self.clients:
            raise UnknownClient(f"{update.client_id!r} is not registered")
        self._last = update.client_id
        return Aggregate((update,))

    def replies(self, params: ParameterSet, epoch: int, now: float) -> dict[str, Reply]:
        last, self._last = self._last, None
        if last is None:
            return {}
        return {last: Reply(params, epoch, self.default_steps)}

    def check_deadline(self, now: float):
        return None

    def next_deadline(self) -> Optional[float]:
        return None


class CompassScheduler:
    """Groups clients by estimated speed so arrivals coincide.

    First contact assigns ``qmax`` steps in a fresh solo group (no speed
    estimate exists yet, so its arrival time is unknown).  Afterwards each
    submission refreshes the client's exponential moving average of
    seconds-per-step and the client is routed by :func:`compass_assign`.
    A group aggregates when all members arrive, or once its deadline
    ``t_arrival * (1 + latitude)`` passes with at least one arrival; members
    still out at that point fold in later through the staleness-discounted
    late path.
    """

    def __init__(
        self,
        client_ids,
        default_steps: int = QMAX,  # unused: first contact uses qmax
        qmin: int = QMIN,
        qmax: int = QMAX,
        latitude: float = LATITUDE,
        speed_ema: float = SPEED_EMA,
    ):
        if qmin < 1 or qmax < qmin:
            raise InvalidBounds(f"need 1 <= qmin <= qmax, got [{qmin}, {qmax}]")
        self.clients = sorted(client_ids)
        self.qmin = int(qmin)
        self.qmax = int(qmax)
        self.latitude = float(latitude)
        self.speed_ema = float(speed_ema)
        self.speeds: dict[str, SpeedEstimate] = {}
        self.groups: dict[int, GroupRecord] = {}
        self.assignment: dict[str, int] = {}
        self._next_gid = 0
        self._pending_replies: list[str] = []  # client ids

    # -- internals -----------------------------------------------------------

    def _new_group(self, t_arrival: Optional[float]) -> GroupRecord:
        g = GroupRecord(gid=self._next_gid, t_arrival=t_arrival)
        self._next_gid += 1
        self.groups[g.gid] = g
        return g

    def _assign(self, client_id: str, now: float) -> int:
        """Route one client into a group; returns its step budget."""
        speed = self.speeds.get(client_id)
        if speed is None:
            g = self._new_group(None)
            steps = self.qmax
        else:
            gid, steps, t_new = compass_assign(
                speed, now, list(self.groups.values()), self.qmin, self.qmax
            )
            g = self.groups[gid] if gid is not None else self._new_group(t_new)
        g.members.add(client_id)
        g.steps[client_id] = steps
        self.assignment[client_id] = g.gid
        return steps

    def _observe_speed(self, update: ModelUpdate) -> None:
        if update.wall_meta is None or update.local_steps <= 0:
            return
        start, end = update.wall_meta
        per_step = max((end - start) / update.local_steps, 1e-12)
        est = self.speeds.get(update.client_id)
        if est is None:
            self.speeds[update.client_id] = SpeedEstimate(per_step)
        else:
            est.observe(per_step, self.speed_ema)

    # -- protocol -------------------------------------------------------------

    def initial_assignment(self, client_id: str, now: float) -> int:
        if client_id not in self.clients:
            raise UnknownClient(f"{client_id!r} is not registered")
        return self._assign(client_id, now)

    def on_update(self, update: ModelUpdate, now: float):
        cid = update.client_id
        gid = self.assignment.get(cid)
        if gid is None:
            raise UnknownClient(f"{cid!r} has no group assignment")
        self._observe_speed(update)
        group = self.groups[gid]
        if group.closed:
            # straggler past its group's deadline: aggregate alone, discounted
            self._pending_replies = [cid]
            self._drop_group_if_done(group, cid)
            return Aggregate((update,), mode="late")
        group.arrived[cid] = update
        if len(group.arrived) == len(group.members):
            group.closed = True
            ordered = tuple(group.arrived[c] for c in sorted(group.arrived))
            self._pending_replies = sorted(group.arrived)
            del self.groups[group.gid]
            return Aggregate(ordered)
        return Buffered(cid)

    def check_deadline(self, now: float):
        """Aggregate any deadline-expired group that has at least one arrival."""
        for g in sorted(self.groups.values(), key=lambda g: g.gid):
            if g.closed or g.t_arrival is None or not g.arrived:
                continue
            if now > g.t_arrival * (1.0 + self.latitude):
                g.closed = True
                ordered = tuple(g.arrived[c] for c in sorted(g.arrived))
                self._pending_replies = sorted(g.arrived)
                # group record stays until stragglers report back
                if len(g.arrived) == len(g.members):
                    del self.groups[g.gid]
                return Aggregate(ordered)
        return None

    def next_deadline(self) -> Optional[float]:
        """Earliest deadline of an open group that has at least one arrival.

        A group with no arrival has nothing to aggregate when its deadline
        passes; it aggregates at the first deadline check after a member
        arrives, however late.
        """
        times = [
            g.t_arrival * (1.0 + self.latitude)
            for g in self.groups.values()
            if not g.closed and g.t_arrival is not None and g.arrived
        ]
        return min(times) if times else None

    def _drop_group_if_done(self, group: GroupRecord, arriving: str) -> None:
        group.members.discard(arriving)
        group.arrived.pop(arriving, None)
        if not (group.members - set(group.arrived)):
            self.groups.pop(group.gid, None)

    def _per_step(self, client_id: str) -> float:
        est = self.speeds.get(client_id)
        return est.per_step_time if est is not None else math.inf

    def replies(self, params: ParameterSet, epoch: int, now: float) -> dict[str, Reply]:
        pending, self._pending_replies = self._pending_replies, []
        # Reassign fastest members first.  The founder pins the next group's
        # horizon at qmax * its_per_step, so a fast founder leaves the widest
        # window: every client within qmax/qmin of its speed can rejoin the
        # same group instead of splintering into per-speed tiers.
        pending.sort(key=lambda cid: (self._per_step(cid), cid))
        out = {}
        for cid in pending:
            steps = self._assign(cid, now)
            out[cid] = Reply(params, epoch, steps)
        return out


SCHEDULERS = {
    "SyncScheduler": SyncScheduler,
    "AsyncScheduler": AsyncScheduler,
    "CompassScheduler": CompassScheduler,
}


def make_scheduler(name: str, client_ids, default_steps: int, kwargs: Optional[dict] = None):
    if name not in SCHEDULERS:
        raise UnknownStrategyName(f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}")
    return SCHEDULERS[name](client_ids, default_steps, **(kwargs or {}))
