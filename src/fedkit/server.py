"""Transport-independent server logic.

A :class:`ServerAgent` owns the global model, a scheduler, and an
aggregation strategy.  Both the in-process simulator and the socket
transport drive the same three entry points (``handle_model_request``,
``process_update``, ``check_deadlines``), which is what makes simulated
and networked runs produce identical models for identical event orders.
Both ask ``next_deadline`` when the deadline check is next due, and both
give the agent a clock that starts at 0 when the run does.
``make_server_agent`` builds one for either kind of run and fixes when the
run ends.

The agent builds every :class:`Reply`.  The scheduler only says when
updates aggregate and how many steps each client runs next: after an
aggregation, its recipients are the clients whose updates it held, and the
agent asks ``scheduler.assign`` for their step counts.  An update is checked
against the global model (structure, and a base epoch no later than the
server's) before the scheduler holds it, so a bad update is refused on its
own and never costs the round it would have joined.  The structure check
reads only the update's layout, so it never trains a simulated update whose
params are deferred.  An update counts
towards ``target_updates`` once the scheduler has accepted it.

The agent keeps the run record of both paths as typed columns: per counted
aggregation its time and epoch (16 bytes), and per evaluation score its
time, kind and value.  A long-lived server thus holds no object per
aggregation.  Both drivers score the global model through ``evaluate``,
which skips a call when no aggregation was counted since the one before:
the simulator calls it after every event, so it scores after each event
that aggregated, and the runner calls it once, after ``finalize``.
``metrics`` reads the record as a list of :class:`~fedkit.params.MetricRecord`
rows built at each read: the epoch rows first, then the evaluation rows.
"""
from __future__ import annotations

import math
import sys
from array import array
from typing import NamedTuple, Optional

from .aggregators import AggregatorState, _staleness, make_aggregator
from .models import init_params
from .params import MetricRecord, ModelUpdate, ParameterSet
from .schedulers import Aggregate, make_scheduler


class Reply(NamedTuple):
    """What a client is sent: the global model, its epoch, and the local steps to run next."""

    params: ParameterSet
    epoch: int
    next_steps: int


class ServerAgent:
    def __init__(
        self,
        initial_params: ParameterSet,
        scheduler,
        strategy,
        target_epochs: Optional[int] = None,
        target_updates: Optional[int] = None,
    ):
        self.state = AggregatorState(global_params=initial_params, epoch=0)
        self.scheduler = scheduler
        self.strategy = strategy
        self.target_epochs = target_epochs
        self.target_updates = target_updates
        # updates the scheduler accepted (refused ones must not count)
        self.update_count = 0
        self.aggregation_count = 0
        self._scored_aggs = 0  # aggregation_count at the last evaluate
        # the run record's columns (see the module docstring)
        self._epoch_times = array("d")
        self._epochs = array("q")
        self._eval_times = array("d")
        self._eval_kinds: list[str] = []
        self._eval_values = array("d")

    @property
    def global_params(self) -> ParameterSet:
        return self.state.global_params

    @property
    def epoch(self) -> int:
        return self.state.epoch

    @property
    def metrics(self) -> list[MetricRecord]:
        """The run record as rows, epoch rows first; a new list at each read."""
        rows = [
            MetricRecord(t, "server", "epoch", float(e))
            for t, e in zip(self._epoch_times, self._epochs)
        ]
        rows += [
            MetricRecord(t, "server", k, v)
            for t, k, v in zip(self._eval_times, self._eval_kinds, self._eval_values)
        ]
        return rows

    @property
    def done(self) -> bool:
        if self.target_epochs is not None and self.state.epoch >= self.target_epochs:
            return True
        return self.target_updates is not None and self.update_count >= self.target_updates

    def handle_model_request(self, client_id: str, now: float) -> Reply:
        """First contact: the global model and the client's first step count."""
        return self._replies([client_id], now)[client_id]

    def process_update(self, update: ModelUpdate, now: float) -> dict[str, Reply]:
        """Feed one client update in; returns replies that became ready."""
        self.state.global_params.check_structure(update.params)
        _staleness(self.state, update)
        action = self.scheduler.on_update(update, now)
        self.update_count += 1
        return {} if action is None else self._apply(action, now)

    def next_deadline(self) -> Optional[float]:
        """The first time at which ``check_deadlines`` has work, or None.

        A group aggregates once ``now`` exceeds its deadline, so this is the
        float just past the scheduler's earliest deadline.  A run that is
        done has no deadline: nothing aggregates after its end.
        """
        if self.done:
            return None
        t = self.scheduler.next_deadline()
        return None if t is None else math.nextafter(t, math.inf)

    def check_deadlines(self, now: float) -> dict[str, Reply]:
        replies: dict[str, Reply] = {}
        while True:
            action = self.scheduler.check_deadline(now)
            if action is None:
                return replies
            replies.update(self._apply(action, now))

    def finalize(self, now: float) -> None:
        """End the run: a run counted in updates folds a partial buffer in."""
        if self.target_updates is not None and self.strategy.finalize(self.state):
            self.aggregation_count += 1
            self._record(now)

    def _apply(self, action: Aggregate, now: float) -> dict[str, Reply]:
        if self.strategy.apply(self.state, list(action.updates), late=(action.mode == "late")):
            self.aggregation_count += 1
            self._record(now)
        return self._replies([u.client_id for u in action.updates], now)

    def _replies(self, client_ids: list[str], now: float) -> dict[str, Reply]:
        params, epoch = self.state.global_params, self.state.epoch
        steps = self.scheduler.assign(client_ids, now)
        return {cid: Reply(params, epoch, n) for cid, n in steps.items()}

    def evaluate(self, now: float, score) -> None:
        """Record ``score(global_params)`` at ``now`` if an aggregation was counted since the last call.

        ``score`` is None when the run has no evaluation set.
        """
        if self.aggregation_count == self._scored_aggs:
            return
        self._scored_aggs = self.aggregation_count
        if score is not None:
            self.record_eval(now, score(self.state.global_params))

    def record_eval(self, now: float, scores: dict) -> None:
        """Record the evaluation ``scores`` taken at ``now``, in kind order, each as ``val_<kind>``."""
        for kind, value in sorted(scores.items()):
            self._eval_times.append(now)
            self._eval_kinds.append(sys.intern(f"val_{kind}"))
            self._eval_values.append(float(value))

    def _record(self, now: float) -> None:
        self._epoch_times.append(now)
        self._epochs.append(self.state.epoch)


def make_server_agent(run, max_updates: Optional[int] = None) -> ServerAgent:
    """Build the server for a ``SimScenario`` or an ``ExperimentConfig``.

    An asynchronous run is counted in ``num_global_epochs * n_clients``
    processed updates, so total client work stays comparable across modes;
    ``max_updates`` overrides that count.  Every other run is counted in
    aggregations, ``num_global_epochs`` of them.  The scheduler's
    ``default_steps`` is the largest ``local_steps`` of any client, and the
    sync and async schedulers give every client that many.
    """
    ids = sorted(c.client_id for c in run.clients)
    default_steps = max(c.train.local_steps for c in run.clients)
    scheduler = make_scheduler(run.scheduler, ids, default_steps, run.scheduler_kwargs)
    strategy = make_aggregator(run.aggregator, run.aggregator_kwargs)
    init = init_params(run.model_spec, seed=run.init_seed)
    if max_updates is None and run.scheduler == "AsyncScheduler":
        max_updates = run.num_global_epochs * len(ids)
    if max_updates is not None:
        return ServerAgent(init, scheduler, strategy, target_updates=max_updates)
    return ServerAgent(init, scheduler, strategy, target_epochs=run.num_global_epochs)
