"""Client-side training agent.

A :class:`ClientState` owns a data shard, a model spec, an optimizer, and the
batching RNG.  All of it persists across rounds: Adam moments keep warm, the
shuffle cursor continues where the previous round stopped, and the step
counter only ever grows.  Two states constructed with the same arguments
produce bit-identical updates for the same inputs, which is what makes
simulated and socket-distributed runs comparable.

Training runs in cohorts.  :func:`train_cohort` trains several clients
together, each from its own base model, and :func:`local_train` is a cohort
of one.  A cohort keeps its clients' weights as the rows of one flat buffer
per dtype of the model (in practice one), and likewise the gradient that
``backward`` writes into and, with ``prox_mu > 0``, the base models plus a
scratch block.  At each step the clients whose batches have the same length
take one stacked ``backward`` (one ``np.matmul`` over the stack per product),
and the proximal pull and the optimizer step are a few whole-block
operations.  Each client still draws its own batches and keeps its own
optimizer, so every update equals, bit for bit, the one the client would
compute alone.

Each step runs in a :class:`~fedkit.models.Plan`, made once per (clients,
batch length, dtype) shape in each slice: preallocated work arrays for the
gathered features and labels, the pre- and post-activations, the ReLU masks,
the softmax or ``mse`` gradient and the back-propagated deltas.  The checks
run once per round, before any client draws a batch: the features' width
and every label of each shard (:class:`~fedkit.errors.DimMismatch`), and the
gradients' dtypes against the model's (:class:`~fedkit.errors.ShapeMismatch`).
A client's batch is a set of row indices, gathered straight into the plan's
input arrays, and the step computes no loss.  The call still goes through
``backward``, with the plan carried in its ``out`` mapping.

A cohort is cut into slices whose transient stacks stay within
``_STACK_BYTES`` (:func:`cohort_slices`), so a large model trains one client
per worker.  Only the weight buffer outlives the call, as the rows that the
returned updates are sets over; nothing is kept per client besides the
optimizer state, and plans belong to the slice that made them.

Every training call, the simulator's and each socket client's alike, holds
OpenBLAS at one thread while it runs, so the products of both paths are the
same single-threaded products and the cores go to clients instead of to
BLAS.  A cohort of two or more slices trains them on one worker thread per
core (:func:`train_ahead`, which the simulator also uses to fold each
update in while the next ones train).  Where no OpenBLAS can be found,
nothing is capped and the slices run one after another on the caller's
thread.
"""
from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .models import Dataset, ModelSpec, Plan, PlannedGrads, Scratch, backward, check_shard
from .optim import SGD, make_optimizer
from .params import FlatStack, ModelUpdate, ParameterSet
from .privacy import PrivacyConfig, apply_privacy


@dataclass(frozen=True)
class TrainConfig:
    optimizer: str = "sgd"  # sgd | adam
    lr: float = 0.01
    batch_size: int = 32
    local_steps: int = 10
    prox_mu: float = 0.0  # > 0 adds the proximal pull toward the round's base model
    send_delta: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError(f"lr must be non-negative, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.local_steps < 0:
            raise ConfigError(f"local_steps must be non-negative, got {self.local_steps}")
        if self.prox_mu < 0:
            raise ConfigError(f"prox_mu must be non-negative, got {self.prox_mu}")


class ClientState:
    """Mutable per-client training state."""

    def __init__(
        self,
        client_id: str,
        dataset: Dataset,
        model_spec: ModelSpec,
        cfg: TrainConfig,
        privacy: Optional[PrivacyConfig] = None,
    ):
        self.client_id = client_id
        self.dataset = dataset
        self.model_spec = model_spec
        self.cfg = cfg
        self.privacy = privacy or PrivacyConfig()
        self.optimizer = make_optimizer(cfg.optimizer, cfg.lr)
        self.rng = np.random.default_rng(cfg.seed)
        # independent stream so privacy noise does not disturb batching
        self.privacy_rng = np.random.default_rng([cfg.seed, 0x9E3779B9])
        self.steps_taken = 0
        self._perm = np.zeros(0, dtype=np.int64)
        self._cursor = 0

    def next_indices(self) -> np.ndarray:
        """Row indices of the next slice of the seeded shuffle; reshuffles at each epoch boundary."""
        n = len(self.dataset)
        if self._cursor >= len(self._perm):
            self._perm = self.rng.permutation(n)
            self._cursor = 0
        end = min(self._cursor + self.cfg.batch_size, n)
        idx = self._perm[self._cursor : end]
        self._cursor = end
        return idx

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Features and labels of the rows of :meth:`next_indices`."""
        idx = self.next_indices()
        return self.dataset.features[idx], self.dataset.labels[idx]


# the bytes of one transient (rows, params) stack of a cohort slice: gradients,
# gathered weights, the prox base and its scratch.  A model larger than this
# trains one client per worker, each with the buffers of a lone local_train.
_STACK_BYTES = 1 << 22


@functools.cache
def _openblas() -> list:
    """``(get, set)`` thread-count functions of each loaded OpenBLAS; empty if none.

    Found on first use, from the libraries mapped into the process by then.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:  # no /proc: not Linux
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_%s_num_threads64_", "openblas_%s_num_threads64_",
                     "scipy_openblas_%s_num_threads", "openblas_%s_num_threads"):
            get, put = (getattr(lib, name % verb, None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                found.append((get, put))
                break
    return found


class _OneBlasThread:
    """Holds every OpenBLAS at one thread while at least one holder is inside.

    The thread count is process-wide: the first holder in saves it and sets 1,
    and the last one out, on return or on an exception, restores it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved: list = []

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                self._saved = [(put, get()) for get, put in _openblas()]
                for put, _ in self._saved:
                    put(1)
            self._holders += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                for put, count in self._saved:
                    put(count)


_ONE_BLAS_THREAD = _OneBlasThread()


def _cores() -> int:
    # only asked where _openblas found a library through /proc, so on Linux
    return len(os.sched_getaffinity(0))


def _worker_count(slices: int) -> int:
    """Threads that train ``slices`` slices: one per core, if BLAS can be held at one."""
    return min(slices, _cores()) if _openblas() else 1


def local_train(
    state: ClientState,
    base: ParameterSet,
    steps: Optional[int] = None,
    base_epoch: int = 0,
    clock=time.monotonic,
) -> ModelUpdate:
    """Run ``steps`` minibatch steps from ``base`` and package the result.

    The trained weights (or the delta, per ``send_delta``) pass through the
    privacy pipeline before being wrapped into a :class:`ModelUpdate`.  This
    is :func:`train_cohort` with a cohort of one.
    """
    return train_cohort([(state, base, steps, base_epoch)], clock)[0]


def train_cohort(jobs, clock=time.monotonic) -> list[ModelUpdate]:
    """Train several clients together; one :class:`ModelUpdate` per job, in order.

    Each job is ``(state, base, steps, base_epoch)`` as the arguments of
    :func:`local_train`, for distinct clients of one model spec and one
    parameter structure.  The updates equal those of one ``local_train``
    call per job, bit for bit and in any order of calls.  ``wall_meta`` runs
    from the start of the cohort to the end of the client's training.  The
    call holds OpenBLAS at one thread, and slices train on one worker thread
    per core.
    """
    jobs = [
        (st, base, st.cfg.local_steps if steps is None else steps, epoch)
        for st, base, steps, epoch in jobs
    ]
    if len({id(st) for st, _, _, _ in jobs}) != len(jobs):
        raise ConfigError("a client can train only once per cohort")
    start = clock()
    updates: list = [None] * len(jobs)
    busy = []
    for i, job in enumerate(jobs):
        if job[2] > 0:
            busy.append(i)
        else:
            updates[i] = _package(job, job[1], start, clock())
    if not busy:
        return updates
    # every check of the round, before any client draws a batch
    spec, like = jobs[busy[0]][0].model_spec, jobs[busy[0]][1]
    targets = {}
    for i in busy:
        st, base = jobs[i][0], jobs[i][1]
        if st.model_spec != spec:
            raise ConfigError("a cohort trains one model spec")
        base.check_structure(like)
        targets[i] = check_shard(spec, base, st.dataset.features, st.dataset.labels)

    def train(part: list) -> None:
        trained = _train_rows([jobs[i] for i in part], [targets[i] for i in part])
        end = clock()
        # packaged at once, while a large model's weights are still in cache
        for i, params in zip(part, trained):
            updates[i] = _package(jobs[i], params, start, end)

    with _ONE_BLAS_THREAD:
        for _ in train_ahead(train, *cohort_slices(like, busy)):
            pass
    return updates


def cohort_slices(like: ParameterSet, items: list) -> tuple[list, int]:
    """``items``, one per client of ``like``'s structure, cut as :func:`train_cohort` cuts a cohort.

    Returns the consecutive slices, each with transient stacks of at most
    ``_STACK_BYTES``, and the number of threads that train them.
    """
    layout = like._layout
    row_bytes = sum(dt.itemsize * n for dt, n in zip(layout.dtypes, layout.sizes))
    size = max(1, _STACK_BYTES // max(row_bytes, 1))
    slices = [items[lo : lo + size] for lo in range(0, len(items), size)]
    return slices, _worker_count(len(slices))


def train_ahead(train, slices: list, workers: int):
    """Calls ``train(part)`` for every slice, in order, and yields each slice once it is trained.

    With one worker the slices train on the caller's thread as it asks for
    them.  Otherwise ``workers`` threads train them, at most ``workers``
    slices ahead of the last one yielded.  A slice's exception is raised in
    its turn.  Closing the generator, or an exception, waits for the slices
    started, starts no other and ends every worker; ``close`` raises the
    exception of a started slice not yet yielded.
    """
    if workers == 1:
        for part in slices:
            train(part)
            yield part
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers, thread_name_prefix="fedkit-train")
    futures = []
    try:
        futures += [pool.submit(train, part) for part in slices[:workers]]
        for i, part in enumerate(slices):
            futures[i].result()
            if i + workers < len(slices):
                futures.append(pool.submit(train, slices[i + workers]))
            yield part
    except GeneratorExit:
        pool.shutdown(wait=True, cancel_futures=True)
        for future in futures:
            if not future.cancelled():
                future.result()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _package(job, params: ParameterSet, start: float, end: float) -> ModelUpdate:
    """The update of a trained job: its payload after ``send_delta`` and privacy."""
    st, base, steps, epoch = job
    payload = _transmitted(params, base, st.cfg.send_delta)
    payload = apply_privacy(payload, st.privacy, st.privacy_rng)
    return ModelUpdate(
        client_id=st.client_id,
        params=payload,
        is_delta=st.cfg.send_delta,
        sample_count=len(st.dataset),
        local_steps=steps,
        base_epoch=epoch,
        wall_meta=(start, end),
    )


def _train_rows(jobs, targets) -> list[ParameterSet]:
    """Train the jobs of one slice as rows of shared stacks; one set per job.

    ``targets[i]`` are job ``i``'s labels as :func:`~fedkit.models.check_shard`
    returned them: the shards were checked once for the whole round, so no
    step checks anything.  Row ``r`` of the weight stack ``w`` starts as a
    copy of job ``r``'s base.  At each step every client that still has
    steps draws the indices of its batch; clients whose batches have one
    length and feature dtype form a group.  The group's rows are gathered
    with ``take`` into the input arrays of its plan, one per (group size,
    batch length, dtype), made on first use, and one ``backward`` call on
    the group's weight rows runs the plan and writes into the same rows of
    the gradient stack ``g``.  A group of one runs the 2-D path on its rows.
    A group that is not a contiguous block of rows works on a gathered copy
    of its weights and scatters its gradients back.  No row is ever masked
    or padded, so every row sees exactly the operations of a lone client.
    Then the proximal pull ``g += mu*(w - b)`` and the optimizer step run on
    the active rows: as one block when the clients share SGD with one
    learning rate and one ``prox_mu``, else client by client on its own
    optimizer.  Each trained set is the set over its row of ``w``.
    """
    order = sorted(range(len(jobs)), key=lambda i: -jobs[i][2])  # stable
    states = [jobs[i][0] for i in order]
    bases = [jobs[i][1] for i in order]
    budgets = [jobs[i][2] for i in order]
    targets = [targets[i] for i in order]
    features = [st.dataset.features for st in states]
    k = len(jobs)
    spec = states[0].model_spec
    w = FlatStack(bases[0], k, sources=bases)
    g = FlatStack(bases[0], k)
    gathered = None  # (weights, gradients) stacks for scattered groups, made on first use
    plans: dict[tuple, Plan] = {}  # (rows, batch length, dtype) -> plan
    scratch = Scratch()  # the plans' work arrays: they run one at a time
    calls: dict[tuple, tuple] = {}  # (first row, or None if gathered; plan) -> backward's arguments
    mus = [st.cfg.prox_mu for st in states]
    opts = [st.optimizer for st in states]
    block = all(
        type(o) is SGD and o.lr == opts[0].lr and mu == mus[0] for o, mu in zip(opts, mus)
    )
    b = t = None
    if any(mu > 0.0 for mu in mus):
        b, t = FlatStack(bases[0], k, sources=bases), FlatStack(bases[0], k)
    # clients with the largest budgets come first, so the active rows of any
    # step are the leading block [0, active)
    active = k
    steppers = _steppers(opts, mus, block, (w, g, b, t), active)
    for step in range(budgets[0]):
        if budgets[active - 1] <= step:
            while budgets[active - 1] <= step:
                active -= 1
            steppers = _steppers(opts, mus, block, (w, g, b, t), active)
        groups: dict[tuple, list] = {}
        for r in range(active):
            idx = states[r].next_indices()
            groups.setdefault((len(idx), features[r].dtype), []).append((r, idx))
        for (n, dtype), members in groups.items():
            m, rows = len(members), [r for r, _ in members]
            plan = plans.get((m, n, dtype))
            if plan is None:
                lead = () if m == 1 else (m,)
                plan = plans[m, n, dtype] = Plan(
                    spec, bases[0], dtype, lead, n, inputs=True, scratch=scratch
                )
            inputs = ((plan.x,), (plan.y,)) if m == 1 else (plan.x, plan.y)
            # the indices come from the client's shuffle, so "clip" changes
            # none of them; it only spares take the buffer "raise" writes through
            for (r, idx), x, y in zip(members, *inputs):
                features[r].take(idx, axis=0, out=x, mode="clip")
                targets[r].take(idx, axis=0, out=y, mode="clip")
            # a block of rows is used in place; other groups are gathered
            lo = rows[0] if rows[-1] - rows[0] == m - 1 else None
            call = calls.get((lo, plan))
            if call is None:
                if lo is None and gathered is None:
                    gathered = FlatStack(bases[0], k), FlatStack(bases[0], k)
                ws, gs = (w, g) if lo is not None else gathered
                at = slice(0, m) if lo is None else lo if m == 1 else slice(lo, lo + m)
                call = calls[lo, plan] = (_views(ws, at), PlannedGrads(_views(gs, at), plan))
            if lo is None:
                for src, dst in zip(w.bufs, gathered[0].bufs):
                    np.take(src, rows, axis=0, out=dst[:m])
            backward(spec, call[0], plan.x, plan.y, out=call[1])
            if lo is None:
                for src, dst in zip(gathered[1].bufs, g.bufs):
                    dst[rows] = src[:m]
        for args in steppers:
            _prox_and_step(*args)
        for r in range(active):
            states[r].steps_taken += 1
    trained = [None] * k
    for r, i in enumerate(order):
        trained[i] = w.row(r)
    return trained


def _views(stack: FlatStack, rows) -> dict:
    """Name -> writeable view of ``rows`` (a row index or a slice of rows) of ``stack``."""
    return {name: v[rows, ...] for name, v in stack.stacks.items()}


def _steppers(opts, mus, block: bool, stacks, active: int) -> list:
    """``_prox_and_step`` arguments for rows ``[0, active)``: one block, or one per row."""
    if block:
        return [(opts[0], mus[0], *_pick(stacks, slice(0, active)))]
    return [(opts[r], mus[r], *_pick(stacks, r)) for r in range(active)]


def _pick(stacks, rows) -> list:
    """Per stack (None stays None), its buffers indexed by ``rows``."""
    return [None if s is None else [buf[rows] for buf in s.bufs] for s in stacks]


def _prox_and_step(opt, mu: float, ws, gs, bs, ts) -> None:
    """``g += mu*(w - b)`` when ``mu > 0``, then ``opt.update(ws, gs)``.

    Every operation is elementwise, so one call on a block of rows equals one
    call per row, bit for bit.
    """
    if mu > 0.0:
        for wv, bv, tv, gv in zip(ws, bs, ts, gs):
            np.subtract(wv, bv, out=tv)
            tv *= gv.dtype.type(mu)
            gv += tv
    opt.update(ws, gs)


def _transmitted(trained: ParameterSet, base: ParameterSet, send_delta: bool) -> ParameterSet:
    """The trained weights, or ``trained - base`` when sending deltas.

    A trained set other than ``base`` came fresh from the optimizer and has
    not been returned to anyone, so it becomes the delta in place.
    """
    if not send_delta:
        return trained
    if trained is base:  # zero steps: base belongs to the caller
        return ParameterSet._wrap(base._layout, [b - b for b in base._bufs])
    for t, b in zip(trained._bufs, base._bufs):
        t.flags.writeable = True
        np.subtract(t, b, out=t)
        t.flags.writeable = False
    return trained
