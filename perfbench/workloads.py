"""The benchmark's workloads, driven through fedkit's public functions only.

Every workload is a closed loop: the simulator is a batch job, and socket
clients wait for each reply before sending the next request.  A workload
builds its inputs from the seed in ``setup``, measures in ``run`` and checks
what it can only check outside the timed region in ``verify``.

Functions that the traced run must see (``run_simulation``, ``run_local``,
``load_config``, ``make_blobs``, ``partition``) are looked up on their
module at call time.  Everything the benchmark calls for its own checks is
bound here at import, so the tracer never counts it as program work.
"""
from __future__ import annotations

import hashlib
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fedkit import config as fk_config
from fedkit import models as fk_models
from fedkit import runner as fk_runner
from fedkit import sim as fk_sim
from fedkit.aggregators import make_aggregator
from fedkit.client import TrainConfig
from fedkit.models import ModelSpec, PartitionSpec, dataset_metrics, split_train_val
from fedkit.params import ModelUpdate, ParameterSet, serialize_params
from fedkit.schedulers import make_scheduler
from fedkit.server import ServerAgent
from fedkit.sim import SimClient, SimScenario, draw_batch_times
from fedkit.transport import Communicator, SocketServer
from fedkit.wire import FilesystemConnector

perf = time.perf_counter

# the 1.2M-parameter float64 MLP shared by sim-wide and loopback-fl
WIDE_DIMS = (784, 1024, 384, 10)
# loopback-fl trains two clients, one per core of the 2-core reference box
FL_CLIENTS = 2
# the rtt workloads drive one connection: two closed-loop clients contend for
# the interpreter lock and made the latency of each bimodal and unsteady
RTT_CLIENTS = 1
# the gated latency is this quantile of the samples: on a shared host, slow
# samples measure the neighbours more than the program
FAST_QUANTILE = 0.10


@dataclass
class Outcome:
    """What one timed run measured."""

    updates: int = 0  # client updates the server processed in the timed region
    busy: float = 0.0  # wall seconds of the timed region
    # latency of each client cycle, grouped by scenario where a workload has several
    samples_ms: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    # secondary figures for the printed summary: name -> (value, unit, n)
    report: dict = field(default_factory=dict)
    # counts that only the workload sees, merged into the per-layer metrics
    counts: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def sample(self, group: str, ms: float) -> None:
        self.samples_ms.setdefault(group, []).append(ms)

    @property
    def pooled(self) -> list:
        return [x for group in self.samples_ms.values() for x in group]

    def fast_ms(self) -> float:
        """The fast-decile sample, averaged over groups so each scenario counts once."""
        return statistics.fmean(percentile(g, FAST_QUANTILE) for g in self.samples_ms.values())


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, max(0, int(np.ceil(q * len(ordered))) - 1))]


def _digest(params: ParameterSet) -> str:
    return hashlib.sha256(serialize_params(params)).hexdigest()


def _same_bits(a: ParameterSet, b: ParameterSet) -> bool:
    if a.names != b.names:
        return False
    for name in a.names:
        x, y = a[name], b[name]
        if x.dtype != y.dtype or x.shape != y.shape:
            return False
        if not np.array_equal(x.view(np.uint8), y.view(np.uint8)):
            return False
    return True


# -- simulation workloads ----------------------------------------------------


class _SimWorkload:
    """Runs each scenario of a pass through ``run_simulation`` until time is up.

    A sample is one ``run_simulation`` call, as wall milliseconds per update
    it processed.  Every scenario runs at least twice, so the gate can check
    that repeated runs give the same model bytes and accuracy.
    """

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def setup(self) -> dict:
        raise NotImplementedError

    def close(self, ctx) -> None:
        pass

    def accuracy(self, ctx, mode, result) -> float:
        raise NotImplementedError

    def run(self, ctx, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        first: dict = {}
        utilization = []
        deadline = perf() + seconds
        passes = 0
        while passes < 2 or perf() < deadline:
            for mode, scen in ctx["scenarios"].items():
                if passes >= 2 and perf() >= deadline:
                    break
                if tracer is not None:
                    tracer.run_id = f"{mode}#{passes}"
                out.attempted += 1
                t0 = perf()
                try:
                    res = fk_sim.run_simulation(scen)
                except Exception as e:  # counted, reported, and the loop goes on
                    out.fail(f"{mode}: {type(e).__name__}: {e}")
                    continue
                dt = perf() - t0
                out.busy += dt
                out.updates += res.updates_processed
                out.sample(mode, 1000.0 * dt / res.updates_processed)
                key = (_digest(res.final_params), self.accuracy(ctx, mode, res))
                if first.setdefault(mode, key) != key:
                    out.fail(f"{mode}: run {passes} differs from run 0")
                utilization.append(res.utilization.mean_utilization)
            passes += 1
        out.accuracy = [first[m][1] for m in first]
        out.counts["sim.updates_used"] = out.updates
        if utilization:
            out.counts["sim.mean_utilization"] = statistics.fmean(utilization)
            out.report["val_accuracy"] = (statistics.fmean(out.accuracy), "1", len(out.accuracy))
        return out

    def verify(self, ctx, out: Outcome) -> None:
        pass


class SimDrift(_SimWorkload):
    """The ac06 reference scenario: ten mixed-speed clients, tiny MLP, 150 steps."""

    name = "sim-drift"
    MODES = {
        "fedavg": ("SyncScheduler", "FedAvgAggregator"),
        "fedasync": ("AsyncScheduler", "FedAsyncAggregator"),
        "fedcompass": ("CompassScheduler", "FedCompassAggregator"),
    }

    def setup(self):
        s, tiny = self.seed, self.tiny
        spec = ModelSpec((16, 32, 10), "relu", "softmax_cross_entropy")
        ds = fk_models.make_blobs(classes=10, dim=16, per_class=30 if tiny else 300, spread=5.0, seed=s)
        train, val = split_train_val(ds, 0.2, seed=s)
        shards = fk_models.partition(
            train, PartitionSpec("class_restricted", 10, seed=s, classes_range=(5, 7))
        )
        cfg = TrainConfig(
            optimizer="sgd", lr=0.02, batch_size=32, local_steps=5 if tiny else 150,
            seed=s, send_delta=True, prox_mu=1.0,
        )
        speeds = draw_batch_times(10, 0.2, 10.0)
        clients = [SimClient(f"c{i:02d}", shards[i], cfg, speeds[i]) for i in range(10)]
        scenarios = {
            mode: SimScenario(
                model_spec=spec, clients=clients, num_global_epochs=10_000,
                scheduler=scheduler, aggregator=aggregator,
                init_seed=s, seed=s, max_updates=10 if tiny else 20,
            )
            for mode, (scheduler, aggregator) in self.MODES.items()
        }
        return {"scenarios": scenarios, "spec": spec, "val": val}

    def accuracy(self, ctx, mode, result):
        return float(dataset_metrics(ctx["spec"], result.final_params, ctx["val"])["accuracy"])


class SimWide(_SimWorkload):
    """K=100 clients, 1.2M-parameter MLP, one local step, Sync + FedAdam."""

    name = "sim-wide"

    def setup(self):
        s, tiny = self.seed, self.tiny
        n_clients = 10 if tiny else 100
        dims = (784, 32, 10) if tiny else WIDE_DIMS
        spec = ModelSpec(dims, "relu", "softmax_cross_entropy")
        ds = fk_models.make_blobs(
            classes=10, dim=784, per_class=25 * n_clients // 10, spread=8.0, seed=s
        )
        train, val = split_train_val(ds, 0.2, seed=s)
        shards = fk_models.partition(train, PartitionSpec("iid", n_clients, seed=s))
        cfg = TrainConfig(optimizer="sgd", lr=0.05, batch_size=16, local_steps=1, seed=s, send_delta=True)
        speeds = draw_batch_times(n_clients, 0.2, 10.0, seed=s)
        clients = [SimClient(f"c{i:03d}", shards[i], cfg, speeds[i]) for i in range(n_clients)]
        scen = SimScenario(
            model_spec=spec, clients=clients, num_global_epochs=1,
            scheduler="SyncScheduler", aggregator="FedAdamAggregator",
            # the default server step of 1.0 diverges on this model
            aggregator_kwargs={"server_lr": 0.01}, eval_dataset=val, init_seed=s, seed=s,
        )
        return {"scenarios": {"fedadam": scen}}

    def accuracy(self, ctx, mode, result):
        return [r.value for r in result.metrics if r.kind == "val_accuracy"][-1]


# -- loopback workloads --------------------------------------------------------

_FL_YAML = """\
server_configs:
  scheduler: SyncScheduler
  aggregator: FedAvgAggregator
  num_global_epochs: {epochs}
  model_configs:
    layer_dims: {dims}
    activation: relu
    loss: softmax_cross_entropy
    init_seed: {seed}
  evaluation:
    dataset_name: blobs
    dataset_kwargs: {{{data}, role: val}}
client_configs:
  train_configs:
    optimizer: sgd
    lr: 0.05
    batch_size: 16
    local_steps: 1
    seed: {seed}
  comm_configs:
    compressor_configs:
      enable_compression: true
      lossy_compressor: qz
      lossless_compressor: deflate
  data_configs:
    dataset_name: blobs
    dataset_kwargs: {{{data}, role: train, partition: {{scheme: iid, seed: {seed}}}}}
clients:
{clients}
"""


class LoopbackFL:
    """``run_local`` over TCP loopback: two clients, 1.2M model, qz+deflate uploads.

    A sample is the interval between two successive aggregations, which is
    when both clients' ``submit_update`` calls return.  Model replies travel
    raw and inline (9.6 MB, under the 10 MiB inline limit).
    """

    name = "loopback-fl"

    def __init__(self, seed: int, tiny: bool, out_dir: Path):
        self.seed = seed
        self.tiny = tiny
        self.out_dir = out_dir

    def setup(self):
        s = self.seed
        dims = [784, 32, 10] if self.tiny else list(WIDE_DIMS)
        data = (f"classes: 10, dim: 784, per_class: {10 if self.tiny else 40}, spread: 8.0, "
                f"seed: {s}, val_fraction: 0.2, split_seed: {s}")
        text = _FL_YAML.format(
            epochs=2 if self.tiny else 8, dims=dims, seed=s, data=data,
            clients="\n".join(f"  - client_id: c{i}" for i in range(FL_CLIENTS)),
        )
        path = self.out_dir / f"loopback-fl-{s}.yaml"
        path.write_text(text)
        cfg = fk_config.load_config(path)
        # what run_local does before its first round: datasets, server, first fetch
        for plan in cfg.clients:
            fk_config.client_dataset(cfg, plan)
        with fk_runner.serve(cfg, port=0) as srv:
            for plan in cfg.clients:
                with Communicator(srv.host, srv.port, token=cfg.comm.resolve_token()) as com:
                    com.fetch_model(plan.client_id)
        return {"cfg": cfg}

    def close(self, ctx) -> None:
        pass

    def run(self, ctx, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        cfg = ctx["cfg"]
        deadline = perf() + seconds
        runs = 0
        while runs < 2 or perf() < deadline:
            if tracer is not None:
                tracer.run_id = f"run_local#{runs}"
            out.attempted += 1
            t0 = perf()
            try:
                res = fk_runner.run_local(cfg, timeout=120.0)
            except Exception as e:
                out.fail(f"run_local: {type(e).__name__}: {e}")
                runs += 1
                continue
            out.busy += perf() - t0
            out.updates += res.updates_processed
            stamps = [r.timestamp for r in res.metrics if r.kind == "epoch"]
            for a, b in zip(stamps, stamps[1:]):
                out.sample("round", 1000.0 * (b - a))
            out.accuracy.append([r.value for r in res.metrics if r.kind == "val_accuracy"][-1])
            if runs == 0:
                ctx["first"] = res.final_params
            elif not _same_bits(res.final_params, ctx["first"]):
                out.fail(f"run_local run {runs} differs from run 0")
            runs += 1
        if out.samples_ms:
            rounds = out.samples_ms["round"]
            out.report["round_p50_ms"] = (statistics.median(rounds), "ms", len(rounds))
            out.report["round_p90_ms"] = (percentile(rounds, 0.90), "ms", len(rounds))
        if out.accuracy:
            out.report["val_accuracy"] = (out.accuracy[0], "1", len(out.accuracy))
        return out

    def verify(self, ctx, out: Outcome) -> None:
        """The socket run must match the simulator on the same config within 1e-9."""
        if "first" not in ctx:
            return
        cfg = ctx["cfg"]
        blob_sizes = []
        compress = fk_sim.compress_params

        def counted(params, codec):
            blob = compress(params, codec)
            blob_sizes.append(len(blob))
            return blob

        out.attempted += 1
        fk_sim.compress_params = counted
        try:
            ref = fk_sim.run_simulation(fk_config.build_scenario(cfg)).final_params
        except Exception as e:
            out.fail(f"reference simulation: {type(e).__name__}: {e}")
            return
        finally:
            fk_sim.compress_params = compress
        live = ctx["first"]
        if ref.names != live.names:
            out.fail(f"socket run has tensors {live.names}, the simulator {ref.names}")
            return
        worst = max(float(np.max(np.abs(ref[n] - live[n]))) for n in ref.names)
        if not worst <= 1e-9:
            out.fail(f"socket run differs from the simulator by {worst}")
        if blob_sizes:
            # the simulator encodes the same updates with the same codec
            out.report["upload_bytes_per_update"] = (
                statistics.fmean(blob_sizes), "B", len(blob_sizes))


class LoopbackRTT:
    """Closed-loop ``Communicator`` round trips against an Async + FedAvg ``SocketServer``.

    FedAvg over one full-model update returns that model, so every reply must
    equal the submitted tensors bit for bit.  Each client alternates between
    two payloads, so a stale reply cannot pass.  Bodies above the inline limit
    are staged through a ``FilesystemConnector`` whose directory belongs to
    one session; a session records the staged files left behind and deletes
    its directory.
    """

    def __init__(self, name: str, n_floats: int, per_session, tail, seed: int,
                 out_dir: Path, inline_limit: int):
        self.name = name
        self.tail = tail  # (label, quantile) of the printed tail percentile
        self.n_floats = n_floats
        self.per_session = per_session  # round trips per client per session, None = one session
        self.seed = seed
        self.out_dir = out_dir
        self.inline_limit = inline_limit
        self.files_left = 0
        self.bytes_left = 0

    def _payload(self, k: int) -> ParameterSet:
        rng = np.random.default_rng([self.seed, k])
        chunk = 1 << 20
        sizes = [min(chunk, self.n_floats - i) for i in range(0, self.n_floats, chunk)]
        return ParameterSet(
            (f"t{i:03d}", rng.standard_normal(n).astype(np.float32)) for i, n in enumerate(sizes)
        )

    def _session(self, payloads):
        spool = Path(tempfile.mkdtemp(prefix="spool-", dir=self.out_dir))
        fs = FilesystemConnector(spool)
        ids = [f"c{i}" for i in range(RTT_CLIENTS)]
        agent = ServerAgent(
            payloads[0][0],
            make_scheduler("AsyncScheduler", ids, 1, {}),
            make_aggregator("FedAvgAggregator", {}),
        )
        srv = SocketServer(
            agent, connectors={fs.connector_id: fs}, send_connector=fs,
            inline_limit=self.inline_limit,
        )
        srv.start()
        coms, epochs = [], []
        for cid in ids:
            com = Communicator(srv.host, srv.port, connectors={fs.connector_id: fs})
            _, epoch, _, _ = com.fetch_model(cid)
            coms.append(com)
            epochs.append(epoch)
        return {"spool": spool, "fs": fs, "srv": srv, "coms": coms, "epochs": epochs, "ids": ids}

    def _end_session(self, sess) -> None:
        for com in sess["coms"]:
            com.close()
        sess["srv"].stop()
        files = [p for p in sess["spool"].iterdir() if p.is_file()]
        self.files_left += len(files)
        self.bytes_left += sum(p.stat().st_size for p in files)
        shutil.rmtree(sess["spool"], ignore_errors=True)

    def setup(self):
        payloads = [[self._payload(2 * c + k) for k in range(2)] for c in range(RTT_CLIENTS)]
        return {"payloads": payloads, "session": self._session(payloads)}

    def close(self, ctx) -> None:
        if ctx.get("session") is not None:
            self._end_session(ctx.pop("session"))

    def _client(self, sess, index: int, mine, deadline: float, result: dict) -> None:
        com, cid = sess["coms"][index], sess["ids"][index]
        epoch = sess["epochs"][index]
        samples, attempted, problems = [], 0, []
        i = 0
        while (perf() < deadline if self.per_session is None else i < self.per_session):
            sent = mine[i % 2]
            update = ModelUpdate(
                client_id=cid, params=sent, is_delta=False, sample_count=1,
                local_steps=1, base_epoch=epoch,
            )
            attempted += 1
            i += 1
            try:
                t0 = perf()
                params, epoch, _, _ = com.submit_update(
                    update, connector=sess["fs"], inline_limit=self.inline_limit
                )
                samples.append(1000.0 * (perf() - t0))
            except Exception as e:
                problems.append(f"{cid}: {type(e).__name__}: {e}")
                break
            if not _same_bits(params, sent):
                problems.append(f"{cid}: reply {i} differs from the submitted tensors")
        result[index] = (samples, attempted, problems)

    def run(self, ctx, seconds: float, tracer=None) -> Outcome:
        out = Outcome()
        deadline = perf() + seconds
        sessions = 0
        while sessions < 1 or perf() < deadline:
            sess = ctx.pop("session", None) or self._session(ctx["payloads"])
            if tracer is not None:
                tracer.run_id = f"session#{sessions}"
            result: dict = {}
            threads = [
                threading.Thread(
                    target=self._client, args=(sess, i, ctx["payloads"][i], deadline, result)
                )
                for i in range(RTT_CLIENTS)
            ]
            t0 = perf()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=150.0)
            out.busy += perf() - t0
            self._end_session(sess)
            sessions += 1
            for i, t in enumerate(threads):
                if t.is_alive() or i not in result:
                    out.attempted += 1
                    out.fail(f"client {i} did not finish")
                    continue
                samples, attempted, problems = result[i]
                for ms in samples:
                    out.sample("rtt", ms)
                out.attempted += attempted
                out.updates += len(samples)
                for p in problems:
                    out.fail(p)
        key = self.name.rsplit("-", 1)[1]
        if out.samples_ms:
            rtts = out.samples_ms["rtt"]
            out.report[f"rtt_{key}_p50_ms"] = (statistics.median(rtts), "ms", len(rtts))
            label, q = self.tail
            out.report[f"rtt_{key}_{label}_ms"] = (percentile(rtts, q), "ms", len(rtts))
        out.counts["wire.spool_files_left"] = self.files_left
        out.counts["wire.spool_bytes_left"] = self.bytes_left
        return out

    def verify(self, ctx, out: Outcome) -> None:
        pass


def make(name: str, seed: int, tiny: bool, out_dir: Path):
    if name == "sim-drift":
        return SimDrift(seed, tiny)
    if name == "sim-wide":
        return SimWide(seed, tiny)
    if name == "loopback-fl":
        return LoopbackFL(seed, tiny, out_dir)
    if name == "loopback-rtt-1k":
        return LoopbackRTT(name, 256, None, ("p99", 0.99), seed, out_dir, 10 * 2**20)
    if name == "loopback-rtt-16m":
        # tiny keeps the staging path with a 2 MB body over a 1 MiB inline limit
        if tiny:
            return LoopbackRTT(name, 1 << 19, 2, ("p90", 0.9), seed, out_dir, 1 << 20)
        return LoopbackRTT(name, 1 << 22, 5, ("p90", 0.9), seed, out_dir, 10 * 2**20)
    raise KeyError(name)
