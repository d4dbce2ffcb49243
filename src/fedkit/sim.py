"""Virtual-clock discrete-event simulation of heterogeneous federated runs.

Gradients are computed for real; only time is simulated.  Each client has a
mean seconds-per-batch, so a round of ``k`` local steps occupies
``k * mean_batch_time`` virtual seconds (optionally jittered), and every
transfer costs ``fixed_latency + bytes / bandwidth``.  Events are processed
in ``(time, kind, subject, seq)`` order, which makes runs bit-reproducible:
the same scenario yields the same final model and the same metric stream.

A round is trained when its result is first needed, not when it is
dispatched.  Dispatch stamps the round's virtual start and end and queues it.
With infinite bandwidth the arrival time needs no upload size, so the
arrival is queued at once, and when the arrival of an untrained round comes
up, every queued round trains as one cohort (``client.train_cohort``: all
clients' steps stacked).  With finite bandwidth the upload size sets the
arrival time, so the rounds that one event dispatched train together at the
end of that event and their arrivals are queued then, in dispatch order.
Either way the heap sees the same pushes in the same order as when every
round trained alone at dispatch, and each client trains its rounds in order,
so the results are the same bit for bit; a round the run never uses is never
trained.

Termination is the server's: ``server.make_server_agent`` decides whether
the run is counted in aggregations or in processed updates, and the
simulation stops when the agent is done.
"""
from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

# local_train stays bound here: perfbench's tracer wraps fedkit.sim.local_train
from .client import ClientState, TrainConfig, local_train, train_cohort  # noqa: F401
from .compression import CodecConfig, compress_params, decompress_params
from .errors import InvalidBounds, NonTerminating
from .metrics import write_table
from .models import Dataset, ModelSpec, dataset_metrics
from .params import MetricRecord, ModelUpdate, ParameterSet, serialize_params, serialized_size
from .privacy import PrivacyConfig
from .server import ServerAgent, make_server_agent

_ARRIVE = 0
_DEADLINE = 1


@dataclass
class SimClient:
    client_id: str
    dataset: Dataset
    train: TrainConfig
    mean_batch_time: float
    privacy: Optional[PrivacyConfig] = None


@dataclass
class SimScenario:
    model_spec: ModelSpec
    clients: list
    num_global_epochs: int
    scheduler: str = "SyncScheduler"
    scheduler_kwargs: dict = field(default_factory=dict)
    aggregator: str = "FedAvgAggregator"
    aggregator_kwargs: dict = field(default_factory=dict)
    eval_dataset: Optional[Dataset] = None
    init_seed: int = 0
    fixed_latency: float = 0.0
    bandwidth: float = math.inf  # bytes per virtual second
    codec: Optional[CodecConfig] = None
    jitter: float = 0.0  # per-round multiplicative spread, 0 disables
    seed: int = 0
    max_events: int = 1_000_000
    # optional hard cap on processed updates; equalizes client work when
    # comparing schedulers whose aggregations consume different group sizes
    max_updates: Optional[int] = None

    def __post_init__(self):
        if self.num_global_epochs < 1:
            raise InvalidBounds(f"num_global_epochs must be >= 1, got {self.num_global_epochs}")
        if not 0.0 <= self.jitter < 1.0:
            raise InvalidBounds(f"jitter must be in [0, 1), got {self.jitter}")
        ids = [c.client_id for c in self.clients]
        if len(set(ids)) != len(ids):
            raise InvalidBounds("duplicate client ids")


@dataclass(frozen=True)
class GanttInterval:
    client_id: str
    start: float
    end: float
    kind: str  # compute | idle


@dataclass(frozen=True)
class ClientUtilization:
    compute_seconds: float
    total_seconds: float

    @property
    def utilization(self) -> float:
        return self.compute_seconds / self.total_seconds if self.total_seconds > 0 else 0.0


UTILIZATION_COLUMNS = ("client_id", "compute_seconds", "total_seconds", "utilization")
GANTT_COLUMNS = ("client_id", "start", "end", "kind")


@dataclass
class UtilizationReport:
    per_client: dict
    gantt: list

    @property
    def mean_utilization(self) -> float:
        if not self.per_client:
            return 0.0
        return sum(u.utilization for u in self.per_client.values()) / len(self.per_client)

    def write_tables(self, out_dir) -> None:
        """Write ``utilization.csv`` and ``gantt.csv`` into ``out_dir``."""
        out_dir = Path(out_dir)
        write_table(
            out_dir / "utilization.csv",
            UTILIZATION_COLUMNS,
            [
                [cid, u.compute_seconds, u.total_seconds, u.utilization]
                for cid, u in sorted(self.per_client.items())
            ],
        )
        write_table(
            out_dir / "gantt.csv",
            GANTT_COLUMNS,
            [[g.client_id, g.start, g.end, g.kind] for g in self.gantt],
        )


@dataclass
class SimResult:
    final_params: ParameterSet
    epoch: int
    aggregations: int
    updates_processed: int
    virtual_time: float
    metrics: list
    utilization: UtilizationReport
    agent: ServerAgent


def draw_batch_times(n: int, fastest: float = 0.2, spread: float = 10.0, seed: int = 0):
    """Exponential speed draws rescaled linearly onto [fastest, fastest*spread].

    The rescaling pins the max/min ratio to exactly ``spread`` so scenario
    heterogeneity does not wobble with the seed.
    """
    if n < 2:
        return [fastest] * n
    u = np.random.default_rng(seed).exponential(1.0, size=n)
    lo, hi = u.min(), u.max()
    scaled = fastest * (1.0 + (spread - 1.0) * (u - lo) / (hi - lo))
    return [float(s) for s in scaled]


@dataclass
class _Job:
    """One dispatched round: what to train, and when it runs in virtual time."""

    cid: str
    base: ParameterSet
    epoch: int
    steps: int
    start: float
    end: float
    update: Optional[ModelUpdate] = None  # set once trained
    nbytes: int = 0  # upload size of ``update``


class _Sim:
    def __init__(self, sc: SimScenario):
        self.sc = sc
        self.ids = sorted(c.client_id for c in sc.clients)
        by_id = {c.client_id: c for c in sc.clients}
        self.clients = {cid: by_id[cid] for cid in self.ids}
        self.states = {
            cid: ClientState(
                cid, c.dataset, sc.model_spec, c.train, privacy=c.privacy
            )
            for cid, c in self.clients.items()
        }
        self.agent = make_server_agent(sc, sc.max_updates)
        self.rng = np.random.default_rng(sc.seed)
        self.heap: list = []
        self.seq = 0
        self.pending: list[_Job] = []  # dispatched rounds not trained yet
        self.segments: list[tuple[str, float, float]] = []
        self.metrics: list[MetricRecord] = []
        self.model_bytes = serialized_size(self.agent.global_params)
        self._seen_aggs = 0
        self._pending_deadlines: set[float] = set()

    def _push(self, time: float, kind: int, subject: str, payload=None) -> None:
        heapq.heappush(self.heap, (time, kind, subject, self.seq, payload))
        self.seq += 1

    def _transfer(self, nbytes: int) -> float:
        if math.isinf(self.sc.bandwidth):
            return self.sc.fixed_latency
        return self.sc.fixed_latency + nbytes / self.sc.bandwidth

    def _schedule_round(self, cid: str, params: ParameterSet, epoch: int, steps: int, now: float):
        """Stamp a round's virtual times and queue its job; training waits.

        With infinite bandwidth the arrival time needs no payload size, so the
        arrival is pushed now and the job trains when it pops.  Otherwise the
        caller trains the pending jobs at the end of the event and pushes
        their arrivals then, in dispatch order.
        """
        start = now + self._transfer(self.model_bytes)
        duration = steps * self.clients[cid].mean_batch_time
        if self.sc.jitter > 0.0:
            duration *= float(self.rng.uniform(1.0 - self.sc.jitter, 1.0 + self.sc.jitter))
        end = start + duration
        job = _Job(cid, params, epoch, steps, start, end)
        self.segments.append((cid, start, end))
        self.pending.append(job)
        if math.isinf(self.sc.bandwidth):
            self._push(end + self._transfer(0), _ARRIVE, cid, job)

    def _train_pending(self) -> list:
        """Train every pending job as one cohort; returns those jobs."""
        jobs, self.pending = self.pending, []
        updates = train_cohort(
            [(self.states[j.cid], j.base, j.steps, j.epoch) for j in jobs]
        )
        for job, update in zip(jobs, updates):
            update = dataclasses.replace(update, wall_meta=(job.start, job.end))
            if self.sc.codec is not None:
                blob = compress_params(update.params, self.sc.codec)
                update = dataclasses.replace(update, params=decompress_params(blob))
                job.nbytes = len(blob)
            else:
                job.nbytes = serialized_size(update.params)
            job.update = update
        return jobs

    def _push_trained(self) -> None:
        """With finite bandwidth: train what this event dispatched, push arrivals."""
        if self.pending and not math.isinf(self.sc.bandwidth):
            for job in self._train_pending():
                self._push(job.end + self._transfer(job.nbytes), _ARRIVE, job.cid, job)

    def _refresh_deadline(self) -> None:
        nxt = self.agent.scheduler.next_deadline()
        if nxt is None:
            return
        # strict inequality in the deadline check needs a nudge past it
        t = math.nextafter(nxt, math.inf)
        if t not in self._pending_deadlines:
            self._pending_deadlines.add(t)
            self._push(t, _DEADLINE, "", None)

    def _evaluate(self, now: float) -> None:
        new_aggs = self.agent.aggregation_count
        if new_aggs == self._seen_aggs:
            return
        self._seen_aggs = new_aggs
        if self.sc.eval_dataset is None:
            return
        scores = dataset_metrics(self.sc.model_spec, self.agent.global_params, self.sc.eval_dataset)
        for kind, value in sorted(scores.items()):
            self.metrics.append(MetricRecord(now, "server", f"val_{kind}", float(value)))

    def run(self) -> SimResult:
        sc = self.sc
        for cid in self.ids:
            params, epoch, steps = self.agent.handle_model_request(cid, 0.0)
            self._schedule_round(cid, params, epoch, steps, 0.0)
        self._push_trained()
        self._refresh_deadline()

        now = 0.0
        events = 0
        while self.heap:
            events += 1
            if events > sc.max_events:
                raise NonTerminating(f"no termination within {sc.max_events} events")
            now, kind, subject, _, payload = heapq.heappop(self.heap)
            if kind == _DEADLINE:
                self._pending_deadlines.discard(now)
                replies = self.agent.check_deadlines(now)
            else:
                if payload.update is None:
                    self._train_pending()
                replies = self.agent.process_update(payload.update, now)
            self._evaluate(now)
            if self.agent.done:
                break
            for cid, rep in sorted(replies.items()):
                self._schedule_round(cid, rep.params, rep.epoch, rep.next_steps, now)
            self._push_trained()
            self._refresh_deadline()
        else:
            if not self.agent.done:
                raise NonTerminating("event queue drained before the run completed")

        self.agent.finalize(now)
        self._evaluate(now)

        report = self._utilization(t_end=now)
        return SimResult(
            final_params=self.agent.global_params,
            epoch=self.agent.epoch,
            aggregations=self.agent.aggregation_count,
            updates_processed=self.agent.update_count,
            virtual_time=now,
            metrics=self.agent.metrics + self.metrics,
            utilization=report,
            agent=self.agent,
        )

    def _utilization(self, t_end: float) -> UtilizationReport:
        per_client = {}
        gantt: list[GanttInterval] = []
        for cid in self.ids:
            segs = sorted(
                (max(0.0, s), min(e, t_end))
                for c, s, e in self.segments
                if c == cid and s < t_end
            )
            compute = 0.0
            cursor = 0.0
            for s, e in segs:
                if e <= s:
                    continue
                if s > cursor:
                    gantt.append(GanttInterval(cid, cursor, s, "idle"))
                gantt.append(GanttInterval(cid, s, e, "compute"))
                compute += e - s
                cursor = e
            if cursor < t_end:
                gantt.append(GanttInterval(cid, cursor, t_end, "idle"))
            per_client[cid] = ClientUtilization(compute_seconds=compute, total_seconds=t_end)
        return UtilizationReport(per_client=per_client, gantt=gantt)


def run_simulation(scenario: SimScenario) -> SimResult:
    return _Sim(scenario).run()
