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
compute alone.  A cohort is cut into slices whose transient stacks stay
within ``_STACK_BYTES``, so a large model trains one client at a time.  Only
the weight buffer outlives the call, as the views that the returned updates
adopt; nothing is kept per client besides the optimizer state.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, UnknownStrategyName
from .models import Dataset, ModelSpec, backward, dataset_metrics
from .optim import SGD, make_optimizer
from .params import FlatStack, ModelUpdate, ParameterSet, save_params
from .privacy import PrivacyConfig, apply_privacy

TRAINERS = ("VanillaTrainer",)


@dataclass(frozen=True)
class TrainConfig:
    trainer: str = "VanillaTrainer"
    optimizer: str = "sgd"  # sgd | adam
    lr: float = 0.01
    batch_size: int = 32
    local_steps: int = 10
    prox_mu: float = 0.0  # > 0 adds the proximal pull toward the round's base model
    send_delta: bool = False
    seed: int = 0
    checkpoint_dir: Optional[str] = None

    def __post_init__(self):
        if self.trainer not in TRAINERS:
            raise UnknownStrategyName(f"unknown trainer {self.trainer!r}; known: {TRAINERS}")
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
        eval_dataset: Optional[Dataset] = None,
    ):
        self.client_id = client_id
        self.dataset = dataset
        self.model_spec = model_spec
        self.cfg = cfg
        self.privacy = privacy or PrivacyConfig()
        self.eval_dataset = eval_dataset
        self.optimizer = make_optimizer(cfg.optimizer, cfg.lr)
        self.rng = np.random.default_rng(cfg.seed)
        # independent stream so privacy noise does not disturb batching
        self.privacy_rng = np.random.default_rng([cfg.seed, 0x9E3779B9])
        self.steps_taken = 0
        self._perm = np.zeros(0, dtype=np.int64)
        self._cursor = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Next slice of the seeded shuffle; reshuffles at each epoch boundary."""
        n = len(self.dataset)
        if self._cursor >= len(self._perm):
            self._perm = self.rng.permutation(n)
            self._cursor = 0
        end = min(self._cursor + self.cfg.batch_size, n)
        idx = self._perm[self._cursor : end]
        self._cursor = end
        return self.dataset.features[idx], self.dataset.labels[idx]


# the bytes of one transient (rows, params) stack of a cohort slice: gradients,
# gathered weights, the prox base and its scratch.  A model larger than this
# trains one client at a time, with the buffers of a lone local_train.
_STACK_BYTES = 1 << 22


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
    from the start of the cohort to the end of the client's training.
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
    if busy:
        # consecutive slices, each with transient stacks of at most _STACK_BYTES
        row_bytes = sum(a.nbytes for _, a in jobs[busy[0]][1].items())
        size = max(1, _STACK_BYTES // max(row_bytes, 1))
        for lo in range(0, len(busy), size):
            part = busy[lo : lo + size]
            trained = _train_rows([jobs[i] for i in part])
            end = clock()
            # packaged at once, while a large model's weights are still in cache
            for i, params in zip(part, trained):
                updates[i] = _package(jobs[i], params, start, end)
    return updates


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


def _train_rows(jobs) -> list[ParameterSet]:
    """Train the jobs of one slice as rows of shared stacks; one set per job.

    Row ``r`` of the weight stack ``w`` starts as a copy of job ``r``'s base.
    At each step every client that still has steps draws its own batch;
    clients whose batches have one length and dtype form a group, and one
    ``backward`` call on the group's rows writes into the same rows of the
    gradient stack ``g``.  A group of one runs the 2-D path on its rows.  A
    group that is not a contiguous block of rows works on a gathered copy of
    its weights and scatters its gradients back.  No row is ever masked or
    padded, so every row sees exactly the operations of a lone client.
    Then the proximal pull ``g += mu*(w - b)`` and the optimizer step run on
    the active rows: as one block when the clients share SGD with one
    learning rate and one ``prox_mu``, else client by client on its own
    optimizer.  Each trained set adopts the views of its row of ``w``.
    """
    order = sorted(range(len(jobs)), key=lambda i: -jobs[i][2])  # stable
    states = [jobs[i][0] for i in order]
    bases = [jobs[i][1] for i in order]
    budgets = [jobs[i][2] for i in order]
    k = len(jobs)
    spec = states[0].model_spec
    for st, base in zip(states, bases):
        if st.model_spec != spec:
            raise ConfigError("a cohort trains one model spec")
        base.check_structure(bases[0])
    w = FlatStack(bases[0], k, sources=bases)
    g = FlatStack(bases[0], k)
    gathered = None  # (weights, gradients) stacks for scattered groups, made on first use
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
            x, y = states[r].next_batch()
            groups.setdefault((len(x), x.dtype), []).append((r, x, y))
        for members in groups.values():
            rows = [r for r, _, _ in members]
            m = len(rows)
            if m == 1:
                r, x, y = members[0]
                backward(spec, w.row(r), x, y, out=g.row(r))
                continue
            _, x0, y0 = members[0]
            x = np.concatenate([x for _, x, _ in members]).reshape(m, *x0.shape)
            y = np.concatenate([y for _, _, y in members]).reshape(m, *y0.shape)
            lo = rows[0]
            if rows[-1] - lo == m - 1:  # a block of rows, used in place
                backward(spec, _block(w, lo, lo + m), x, y, out=_block(g, lo, lo + m))
                continue
            if gathered is None:
                gathered = FlatStack(bases[0], k), FlatStack(bases[0], k)
            gw, gg = gathered
            for src, dst in zip(w.bufs, gw.bufs):
                np.take(src, rows, axis=0, out=dst[:m])
            backward(spec, _block(gw, 0, m), x, y, out=_block(gg, 0, m))
            for src, dst in zip(gg.bufs, g.bufs):
                dst[rows] = src[:m]
        for args in steppers:
            _prox_and_step(*args)
        for r in range(active):
            states[r].steps_taken += 1
    trained = [None] * k
    for r, i in enumerate(order):
        trained[i] = ParameterSet._adopt_views(w.row(r))
    return trained


def _block(stack: FlatStack, lo: int, hi: int) -> dict:
    """Name -> (hi - lo, *shape) view of rows ``lo:hi`` of ``stack``."""
    return {name: v[lo:hi] for name, v in stack.stacks.items()}


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
        return ParameterSet._adopt((name, b - b) for name, b in base.items())
    for (_, t), (_, b) in zip(trained.items(), base.items()):
        t.flags.writeable = True
        np.subtract(t, b, out=t)
        t.flags.writeable = False
    return trained


def evaluate(state: ClientState, params: ParameterSet) -> dict:
    """Loss plus accuracy/mse on the evaluation split (train shard if absent)."""
    ds = state.eval_dataset if state.eval_dataset is not None else state.dataset
    return dataset_metrics(state.model_spec, params, ds)


def save_checkpoint(state: ClientState, params: ParameterSet, tag: str) -> Optional[str]:
    """Write a ``.apfm`` checkpoint if the config names a directory."""
    if not state.cfg.checkpoint_dir:
        return None
    os.makedirs(state.cfg.checkpoint_dir, exist_ok=True)
    path = os.path.join(state.cfg.checkpoint_dir, f"{state.client_id}_{tag}.apfm")
    save_params(params, path)
    return path
