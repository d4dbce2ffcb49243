"""Virtual-clock discrete-event simulation of heterogeneous federated runs.

Gradients are computed for real; only time is simulated.  Each client has a
mean seconds-per-batch, so a round of ``k`` local steps occupies
``k * mean_batch_time`` virtual seconds (optionally jittered), and every
transfer costs ``fixed_latency + bytes / bandwidth``.  Events are processed
in ``(time, kind, subject, seq)`` order, which makes runs bit-reproducible:
the same scenario yields the same final model and the same metric stream.

A round is trained when an aggregation rule first reads its params.
Dispatch stamps the round's virtual start and end and makes its update with
every field but the params, a :class:`~fedkit.params.DeferredSet` of the
model's layout; the server and the scheduler need no more.  The first read
trains every pending round, the read one first, one ``client.train_cohort``
slice at a time (``client.train_ahead``).  A small model's slice holds them
all, trained stacked on the reader's thread.  A large model's slice is one
client, and one worker per core trains a few slices ahead of the rule while
it folds each update in and lets it go, so a round holds a few models, not
one per client.  Training stops with the event that started it.  A round
still pending when its client is dispatched again trains first, so each
client trains its rounds in order, even under FedBuff, which replies before
it aggregates.  With finite bandwidth the upload size sets the arrival time,
so the rounds one event dispatched train at its end.  The heap sees the same
pushes in the same order as when every round trained alone at dispatch, so
the results are the same bit for bit; rounds the run never needs train only
alongside ones it does.

Termination is the server's: ``server.make_server_agent`` decides whether
the run is counted in aggregations or in processed updates, and the
simulation stops when the agent is done.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

# local_train stays bound here: perfbench's tracer wraps fedkit.sim.local_train
from .client import ClientState, TrainConfig, cohort_slices, local_train  # noqa: F401
from .client import train_ahead, train_cohort
from .compression import CodecConfig, compress_params, decompress_params
from .errors import InvalidBounds, NonTerminating
from .metrics import write_table
from .models import Dataset, ModelSpec, dataset_metrics
from .params import DeferredSet, MetricRecord, ModelUpdate, ParameterSet, serialized_size
from .privacy import PrivacyConfig
from .server import Reply, ServerAgent, make_server_agent

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
    """A dispatched round: what to train, and once trained, its params until they are read."""

    state: ClientState
    base: ParameterSet
    steps: int
    epoch: int
    params: Optional[ParameterSet] = None
    nbytes: Optional[int] = None  # upload size, set once trained


def _train_slice(codec: Optional[CodecConfig], part: list) -> None:
    """Train the jobs of ``part`` as one cohort; each gets its params, through the codec, and its size."""
    trained = train_cohort([(j.state, j.base, j.steps, j.epoch) for j in part])
    for job, update in zip(part, trained):
        if codec is None:
            job.params, job.nbytes = update.params, serialized_size(update.params)
        else:
            blob = compress_params(update.params, codec)
            job.params, job.nbytes = decompress_params(blob), len(blob)


class _Rounds:
    """The dispatched rounds of a run, each trained when it is first needed.

    It refers to no update, so the deferred params of every update can refer
    to it without making a reference cycle.
    """

    def __init__(self, codec: Optional[CodecConfig]):
        self.codec = codec
        self.pending: dict[str, _Job] = {}  # client id -> its round not yet trained, in dispatch order
        self.training = None  # a client.train_ahead over pending rounds, while it runs

    def take(self, job: _Job) -> ParameterSet:
        """``job``'s params, trained if they are not yet; ``job`` holds them no more."""
        self.train(job)
        params, job.params = job.params, None
        return params

    def train(self, job: _Job) -> None:
        """Have ``job`` trained; training not under way starts on every pending round, ``job`` first."""
        while job.nbytes is None:
            if self.training is None:
                codec = self.codec
                jobs = [job, *(j for j in self.pending.values() if j is not job)]
                slices, workers = cohort_slices(job.base, jobs)
                self.training = train_ahead(lambda part: _train_slice(codec, part), slices, workers)
            if next(self.training, None) is None:
                self.settle()

    def settle(self) -> None:
        """Stop training: the slices started finish, and the rounds not trained stay pending."""
        if self.training is not None:
            self.training.close()
            self.training = None
        self.pending = {cid: j for cid, j in self.pending.items() if j.nbytes is None}


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
        self.rounds = _Rounds(sc.codec)
        self.dispatched: list[tuple[ModelUpdate, _Job]] = []  # by this event; arrivals not pushed yet
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
        """Stamp a round's virtual times and make its update; training waits.

        A round of ``cid`` still pending trains first.  The arrival is pushed
        at the end of the event (:meth:`_push_arrivals`).
        """
        rounds = self.rounds
        if cid in rounds.pending:
            rounds.train(rounds.pending.pop(cid))
        start = now + self._transfer(self.model_bytes)
        duration = steps * self.clients[cid].mean_batch_time
        if self.sc.jitter > 0.0:
            duration *= float(self.rng.uniform(1.0 - self.sc.jitter, 1.0 + self.sc.jitter))
        end = start + duration
        self.segments.append((cid, start, end))
        st = self.states[cid]
        job = rounds.pending[cid] = _Job(st, params, steps, epoch)
        update = ModelUpdate(
            cid, DeferredSet(params._layout, lambda: rounds.take(job)),
            st.cfg.send_delta, len(st.dataset), steps, epoch, wall_meta=(start, end),
        )
        self.dispatched.append((update, job))

    def _push_arrivals(self) -> None:
        """Push the arrivals of the rounds this event dispatched, in dispatch order.

        With infinite bandwidth the arrival time needs no upload size.
        Otherwise the upload size sets it, so each round trains first.
        """
        for update, job in self.dispatched:
            if not math.isinf(self.sc.bandwidth):
                self.rounds.train(job)
            arrival = update.wall_meta[1] + self._transfer(job.nbytes or 0)
            self._push(arrival, _ARRIVE, update.client_id, update)
        self.dispatched = []

    def _refresh_deadline(self, now: float) -> None:
        nxt = self.agent.next_deadline()
        if nxt is None:
            return
        # a deadline that passed before its group's first arrival fires now
        t = max(nxt, now)
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

    def _dispatch(self, replies: dict[str, Reply], now: float) -> None:
        """Start each replied client's next round, in client id order."""
        for cid, rep in sorted(replies.items()):
            self._schedule_round(cid, rep.params, rep.epoch, rep.next_steps, now)
        self._push_arrivals()
        self.rounds.settle()
        self._refresh_deadline(now)

    def run(self) -> SimResult:
        sc = self.sc
        self._dispatch({cid: self.agent.handle_model_request(cid, 0.0) for cid in self.ids}, 0.0)

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
                replies = self.agent.process_update(payload, now)
            self.rounds.settle()
            self._evaluate(now)
            if self.agent.done:
                break
            self._dispatch(replies, now)
        else:
            if not self.agent.done:
                raise NonTerminating("event queue drained before the run completed")

        self.agent.finalize(now)
        self.rounds.settle()
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
