"""Round schedulers: decide when updates aggregate and what clients do next.

Three policies are provided.  ``SyncScheduler`` buffers until every
registered client reports, ``AsyncScheduler`` aggregates each update the
moment it lands, and ``CompassScheduler`` estimates per-client speeds and
groups clients so their submissions arrive together.

A scheduler keeps no reply state between calls.  ``on_update`` and
``check_deadline`` return an :class:`Aggregate` or ``None`` (the update is
held; no reply yet).  An ``Aggregate`` names its recipients: they are the
clients whose updates it holds.  The caller feeds those updates to its
aggregation strategy, then asks ``assign(client_ids, now)`` for each
recipient's next step count; the same call gives a client its first round.
``server.ServerAgent`` builds the replies, and checks an update against the
global model before a scheduler ever holds it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    DuplicateUpdate,
    InvalidBounds,
    NonFiniteValue,
    UnknownClient,
    UnknownStrategyName,
)
from .params import ModelUpdate

QMIN = 20
QMAX = 200
LATITUDE = 0.2  # deadline slack factor on a group's expected arrival time
SPEED_EMA = 0.5


@dataclass(slots=True)
class Aggregate:
    updates: tuple[ModelUpdate, ...]
    mode: str = "round"  # round | late


# the fewest seconds per step a speed sample is taken to claim
MIN_PER_STEP = 1e-12


@dataclass
class SpeedEstimate:
    per_step_time: float

    def observed(self, per_step_time: float, ema: float = SPEED_EMA) -> float:
        """The estimate after one more sample, without taking it in."""
        return ema * per_step_time + (1.0 - ema) * self.per_step_time


@dataclass
class GroupRecord:
    gid: int
    t_arrival: Optional[float]  # None until the founder's speed is known
    members: set = field(default_factory=set)
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


class _FixedSteps:
    """Every registered client runs ``default_steps`` local steps each round.

    Holds what the sync and async policies share: the client list, ``assign``
    and the deadline stubs (neither policy has a deadline).
    """

    def __init__(self, client_ids, default_steps: int):
        self.clients = sorted(client_ids)
        if not self.clients:
            raise InvalidBounds(f"{type(self).__name__} needs at least one client")
        self.default_steps = int(default_steps)

    def _check(self, client_id: str) -> None:
        if client_id not in self.clients:
            raise UnknownClient(f"{client_id!r} is not registered")

    def assign(self, client_ids, now: float) -> dict[str, int]:
        for cid in client_ids:
            self._check(cid)
        return dict.fromkeys(client_ids, self.default_steps)

    def check_deadline(self, now: float) -> Optional[Aggregate]:
        return None

    def next_deadline(self) -> Optional[float]:
        return None


class SyncScheduler(_FixedSteps):
    """One aggregation per round, after every registered client reports."""

    def __init__(self, client_ids, default_steps: int):
        super().__init__(client_ids, default_steps)
        self._buffer: dict[str, ModelUpdate] = {}

    def on_update(self, update: ModelUpdate, now: float) -> Optional[Aggregate]:
        cid = update.client_id
        self._check(cid)
        if cid in self._buffer:
            raise DuplicateUpdate(f"{cid!r} already submitted this round")
        self._buffer[cid] = update
        if len(self._buffer) < len(self.clients):
            return None
        buffer, self._buffer = self._buffer, {}
        return Aggregate(tuple(buffer[c] for c in sorted(buffer)))


class AsyncScheduler(_FixedSteps):
    """Every update aggregates immediately; only the submitter gets a reply."""

    def on_update(self, update: ModelUpdate, now: float) -> Optional[Aggregate]:
        self._check(update.client_id)
        return Aggregate((update,))


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
        self.qmin = qmin
        self.qmax = qmax
        self.latitude = latitude
        self.speed_ema = speed_ema
        self.speeds: dict[str, SpeedEstimate] = {}
        self.groups: dict[int, GroupRecord] = {}
        self.assignment: dict[str, int] = {}
        self._next_gid = 0

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
        self.assignment[client_id] = g.gid
        return steps

    def _observe_speed(self, update: ModelUpdate) -> None:
        """Take the update's seconds per step into its client's estimate.

        A group's arrival is ``now + qmax * pst`` and a step count is
        ``(arrival - now) / pst``, with every estimate ``pst`` at least
        ``MIN_PER_STEP``.  A sample that leaves ``qmax * pst / MIN_PER_STEP``
        non-finite could make either non-finite, so it raises
        :class:`NonFiniteValue` before anything changes.
        """
        if update.wall_meta is None or update.local_steps <= 0:
            return
        start, end = update.wall_meta
        per_step = max((end - start) / update.local_steps, MIN_PER_STEP)
        est = self.speeds.get(update.client_id)
        pst = per_step if est is None else est.observed(per_step, self.speed_ema)
        if not math.isfinite(self.qmax * pst / MIN_PER_STEP):
            raise NonFiniteValue(
                f"{update.client_id!r} claims {per_step} s per step over {update.wall_meta}"
            )
        if est is None:
            self.speeds[update.client_id] = SpeedEstimate(pst)
        else:
            est.per_step_time = pst

    # -- protocol -------------------------------------------------------------

    def assign(self, client_ids, now: float) -> dict[str, int]:
        """Route each client into a group; returns each one's step budget."""
        for cid in client_ids:
            if cid not in self.clients:
                raise UnknownClient(f"{cid!r} is not registered")
        # Reassign fastest members first.  The founder pins the next group's
        # horizon at qmax * its_per_step, so a fast founder leaves the widest
        # window: every client within qmax/qmin of its speed can rejoin the
        # same group instead of splintering into per-speed tiers.
        order = sorted(client_ids, key=lambda cid: (self._per_step(cid), cid))
        return {cid: self._assign(cid, now) for cid in order}

    def on_update(self, update: ModelUpdate, now: float) -> Optional[Aggregate]:
        cid = update.client_id
        gid = self.assignment.get(cid)
        if gid is None:
            raise UnknownClient(f"{cid!r} has no group assignment")
        self._observe_speed(update)
        group = self.groups[gid]
        if group.closed:
            # straggler past its group's deadline: aggregate alone, discounted
            self._drop_group_if_done(group, cid)
            return Aggregate((update,), mode="late")
        group.arrived[cid] = update
        if len(group.arrived) == len(group.members):
            group.closed = True
            del self.groups[group.gid]
            return Aggregate(tuple(group.arrived[c] for c in sorted(group.arrived)))
        return None

    def check_deadline(self, now: float) -> Optional[Aggregate]:
        """Aggregate any deadline-expired group that has at least one arrival."""
        for g in sorted(self.groups.values(), key=lambda g: g.gid):
            if g.closed or g.t_arrival is None or not g.arrived:
                continue
            if now > g.t_arrival * (1.0 + self.latitude):
                g.closed = True
                # group record stays until stragglers report back
                if len(g.arrived) == len(g.members):
                    del self.groups[g.gid]
                return Aggregate(tuple(g.arrived[c] for c in sorted(g.arrived)))
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


SCHEDULERS = {
    "SyncScheduler": SyncScheduler,
    "AsyncScheduler": AsyncScheduler,
    "CompassScheduler": CompassScheduler,
}


def make_scheduler(name: str, client_ids, default_steps: int, kwargs: Optional[dict] = None):
    if name not in SCHEDULERS:
        raise UnknownStrategyName(f"unknown scheduler {name!r}; known: {sorted(SCHEDULERS)}")
    return SCHEDULERS[name](client_ids, default_steps, **(kwargs or {}))
