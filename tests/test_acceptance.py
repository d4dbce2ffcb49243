"""End-to-end acceptance checks, one test per shipping criterion.

Each test states its tolerance inline.  These are intentionally heavier
than the unit suites; together they should stay under ~15 minutes.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from fedkit.aggregators import AggregatorState, FedAvgAggregator, FedAvgMAggregator
from fedkit.bench import synthetic_params
from fedkit.client import TrainConfig
from fedkit.compression import CodecConfig, compress_params, decompress_params
from fedkit.config import build_scenario, load_config
from fedkit.errors import FedkitError, Unauthenticated
from fedkit.metrics import export_metrics
from fedkit.models import (
    ModelSpec,
    PartitionSpec,
    backward,
    backward_from_output_grad,
    backward_with_input_grad,
    dataset_metrics,
    forward,
    init_params,
    load_bundled_diabetes,
    make_blobs,
    partition,
    split_train_val,
)
from fedkit.params import ModelUpdate, ParameterSet, serialize_params, serialized_size
from fedkit.privacy import PrivacyConfig, apply_privacy, perturb
from fedkit.runner import run_local
from fedkit.schedulers import GroupRecord, SpeedEstimate, compass_assign, make_scheduler
from fedkit.server import ServerAgent
from fedkit.sim import SimClient, SimScenario, draw_batch_times, run_simulation
from fedkit.topology import NeighborGraph, TreeTopology, dfl_round, hier_round
from fedkit.transport import Communicator, SocketServer
from fedkit.vfl import VflConfig, run_vfl_experiment
from fedkit.wire import (
    DEFAULT_INLINE_LIMIT,
    FilesystemConnector,
    MessageType,
    decode_frame,
    encode_frame,
)
from fedkit.aggregators import make_aggregator


# ---------------------------------------------------------------------------
# 1. serialized size law


# (param_count, advertised MiB); the 2-param row is checked in raw bytes
SIZE_TABLE = [
    (2, None),
    (1_200_000, 4.58),
    (11_170_000, 42.66),
    (23_520_000, 89.93),
    (42_510_000, 162.58),
    (88_220_000, 336.55),
]


def _header_bytes(p: ParameterSet) -> int:
    # count prefix + per tensor: name len u16, name, dtype u8, ndim u8, dims u32 each
    return 4 + sum(2 + len(n.encode()) + 1 + 1 + 4 * p[n].ndim for n in p.names)


def test_ac01_serialized_size_law():
    for count, mib in SIZE_TABLE:
        p = synthetic_params(count)
        blob = serialize_params(p)
        assert len(blob) == serialized_size(p)
        data = len(blob) - _header_bytes(p)
        assert data == 4 * count  # float32: exactly 4 bytes per parameter
        if mib is None:
            assert data == 8
        else:
            assert abs(len(blob) / 2**20 - mib) / mib < 0.01  # within 1%
        del p, blob


# ---------------------------------------------------------------------------
# 2. lossy compression error bound and ratio


def test_ac02_compression_bound_ratio_and_small_tensor_passthrough():
    rng = np.random.default_rng(7)
    cfg = CodecConfig(lossy="qz", lossless="deflate", eb_rel=0.01)
    for dtype in (np.float32, np.float64):
        arr = rng.normal(size=120_000).astype(dtype)
        p = ParameterSet([("w", arr)])
        blob = compress_params(p, cfg)
        out = decompress_params(blob)["w"]
        assert out.dtype == arr.dtype
        span = float(arr.max() - arr.min())
        # hard error bound: eb_rel * range, 1e-12 slack for float arithmetic
        assert float(np.max(np.abs(out - arr))) <= 0.01 * span + 1e-12
        assert arr.nbytes / len(blob) >= 3.0
    # tensors under the lossy threshold round-trip bit-exactly
    small = ParameterSet([("s", rng.normal(size=1023).astype(np.float32))])
    back = decompress_params(compress_params(small, cfg))["s"]
    assert back.tobytes() == small["s"].tobytes()


# ---------------------------------------------------------------------------
# 3. aggregation oracle equivalences


def _rand_params(rng, scale=1.0):
    return ParameterSet(
        [("w0", scale * rng.normal(size=(3, 2))), ("b0", scale * rng.normal(size=2))]
    )


def _flat_weighted_mean(updates):
    counts = np.array([u.sample_count for u in updates], dtype=np.float64)
    ws = counts / counts.sum()
    names = updates[0].params.names
    return {
        n: sum(w * u.params[n] for w, u in zip(ws, updates)) for n in names
    }


def test_ac03_oracle_equivalences():
    rng = np.random.default_rng(31)

    # (a) hierarchical aggregation == flat weighted average, 100 random trees
    checked = 0
    while checked < 100:
        m = int(rng.integers(3, 16))
        parent = {"n0": None}
        for i in range(1, m):
            parent[f"n{i}"] = f"n{int(rng.integers(0, i))}"
        tree = TreeTopology(parent)
        if len(tree.leaves) < 2:
            continue
        updates = {
            leaf: ModelUpdate(
                client_id=leaf,
                params=_rand_params(rng),
                is_delta=False,
                sample_count=int(rng.integers(1, 50)),
                local_steps=1,
                base_epoch=0,
            )
            for leaf in tree.leaves
        }
        root = hier_round(tree, updates)
        flat = _flat_weighted_mean([updates[leaf] for leaf in tree.leaves])
        for n in root.names:
            assert float(np.max(np.abs(root[n] - flat[n]))) <= 1e-9
        checked += 1

    # (b) complete-graph decentralized round == equal-weight average
    for n in (3, 5, 8):
        ids = [f"p{i}" for i in range(n)]
        models = {c: _rand_params(rng) for c in ids}
        out = dfl_round(NeighborGraph.complete(ids), models)
        for name in models[ids[0]].names:
            target = np.mean([models[c][name] for c in ids], axis=0)
            for c in ids:
                assert float(np.max(np.abs(out[c][name] - target))) <= 1e-12

    # (c) FedAvgM with zero momentum == FedAvg over the same delta updates
    base = _rand_params(rng)
    ups = [
        ModelUpdate(
            client_id=f"c{i}",
            params=_rand_params(rng, scale=0.1),
            is_delta=True,
            sample_count=int(rng.integers(1, 40)),
            local_steps=1,
            base_epoch=0,
        )
        for i in range(6)
    ]
    s_momentum = AggregatorState(global_params=base)
    FedAvgMAggregator(server_lr=1.0, beta=0.0).apply(s_momentum, ups)
    s_avg = AggregatorState(global_params=base)
    FedAvgAggregator().apply(s_avg, ups)
    for n in base.names:
        diff = np.max(np.abs(s_momentum.global_params[n] - s_avg.global_params[n]))
        assert float(diff) <= 1e-12

    # (d) every compass step assignment stays inside [qmin, qmax]
    for _ in range(1000):
        now = float(rng.uniform(0, 1000))
        groups = []
        for gid in range(int(rng.integers(0, 6))):
            t_a = None if rng.random() < 0.2 else now + float(rng.uniform(0.1, 500))
            g = GroupRecord(gid=gid, t_arrival=t_a)
            g.closed = rng.random() < 0.3
            groups.append(g)
        est = SpeedEstimate(float(rng.uniform(0.01, 30.0)))
        _, steps, _ = compass_assign(est, now, groups, 20, 200)
        assert 20 <= steps <= 200


# ---------------------------------------------------------------------------
# 4. gradient checks against central finite differences


def _fd_check(loss_fn, params: ParameterSet, analytic: ParameterSet, h=1e-6):
    """Relative error of finite differences vs analytic over all coordinates."""
    fd, an = [], []
    for name in params.names:
        a = params[name]
        for idx in np.ndindex(a.shape):
            for sign in (+1.0, -1.0):
                shifted = a.copy()
                shifted[idx] += sign * h
                moved = ParameterSet(
                    (n, shifted if n == name else params[n]) for n in params.names
                )
                if sign > 0:
                    up = loss_fn(moved)
                else:
                    down = loss_fn(moved)
            fd.append((up - down) / (2 * h))
            an.append(float(analytic[name][idx]))
    fd = np.array(fd)
    an = np.array(an)
    return float(np.linalg.norm(fd - an) / max(np.linalg.norm(an), 1e-12))


def test_ac04_gradient_checks():
    rng = np.random.default_rng(44)

    # 60 plain network instances
    for _ in range(60):
        depth = int(rng.integers(2, 4))
        dims = tuple(int(rng.integers(2, 6)) for _ in range(depth))
        loss_kind = "mse" if rng.random() < 0.5 else "softmax_cross_entropy"
        act = "relu" if rng.random() < 0.7 else "identity"
        spec = ModelSpec(dims, act, loss_kind)
        params = init_params(spec, seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=(4, dims[0]))
        if loss_kind == "mse":
            y = rng.normal(size=(4, dims[-1]))
        else:
            y = rng.integers(0, dims[-1], size=4)
        _, grads = backward(spec, params, x, y)
        rel = _fd_check(lambda p: backward(spec, p, x, y)[0], params, grads)
        assert rel < 1e-4

    # 40 composite split-network instances: clients embed, head predicts
    for _ in range(40):
        blocks = ((0, 1), (2, 3, 4))
        client_specs = (
            ModelSpec((2, 3, 2), "relu", "mse"),
            ModelSpec((3, 3, 2), "relu", "mse"),
        )
        head_spec = ModelSpec((4, 3, 1), "relu", "mse")
        cfg = VflConfig(blocks, client_specs, head_spec)
        x = rng.normal(size=(5, 5))
        y = rng.normal(size=(5, 1))
        xs = [x[:, list(b)] for b in blocks]
        client_ps = [
            init_params(s, seed=int(rng.integers(1 << 30))) for s in client_specs
        ]
        head_p = init_params(head_spec, seed=int(rng.integers(1 << 30)))

        z = np.hstack([forward(s, p, xi) for s, p, xi in zip(client_specs, client_ps, xs)])
        _, head_grads, dz = backward_with_input_grad(head_spec, head_p, z, y)
        slices = cfg.embedding_slices()

        def composite_loss(head=None, swap=None):
            zs = []
            for i, (s, p, xi) in enumerate(zip(client_specs, client_ps, xs)):
                if swap is not None and swap[0] == i:
                    p = swap[1]
                zs.append(forward(s, p, xi))
            hp = head_p if head is None else head
            return backward(head_spec, hp, np.hstack(zs), y)[0]

        rel = _fd_check(lambda p: composite_loss(head=p), head_p, head_grads)
        assert rel < 1e-4
        for i, (s, p, xi) in enumerate(zip(client_specs, client_ps, xs)):
            _, cg, _ = backward_from_output_grad(s, p, xi, dz[:, slices[i]])
            rel = _fd_check(lambda q: composite_loss(swap=(i, q)), p, cg)
            assert rel < 1e-4


# ---------------------------------------------------------------------------
# 5 & 6. the ten-client mixed-speed reference scenario

DRIFT_SPEC = ModelSpec((16, 32, 10), "relu", "softmax_cross_entropy")
DRIFT_SPEEDS = draw_batch_times(10, fastest=0.2, spread=10.0, seed=0)
DRIFT_MODES = {
    "fedavg": ("SyncScheduler", "FedAvgAggregator"),
    "fedasync": ("AsyncScheduler", "FedAsyncAggregator"),
    "fedcompass": ("CompassScheduler", "FedCompassAggregator"),
}


def _drift_run(mode: str, seed: int):
    """One run on the shared reference scenario; returns (accuracy, min util)."""
    ds = make_blobs(classes=10, dim=16, per_class=300, spread=5.0, seed=seed)
    train, val = split_train_val(ds, 0.2, seed=seed)
    shards = partition(
        train, PartitionSpec("class_restricted", 10, seed=seed, classes_range=(5, 7))
    )
    # proximal term keeps update size step-count independent, so schedulers
    # that assign uneven step budgets stay comparable
    cfg = TrainConfig(
        optimizer="sgd", lr=0.02, batch_size=32, local_steps=150,
        seed=seed, send_delta=True, prox_mu=1.0,
    )
    clients = [SimClient(f"c{i:02d}", shards[i], cfg, DRIFT_SPEEDS[i]) for i in range(10)]
    scheduler, aggregator = DRIFT_MODES[mode]
    scen = SimScenario(
        model_spec=DRIFT_SPEC, clients=clients, num_global_epochs=10_000,
        scheduler=scheduler, aggregator=aggregator,
        init_seed=seed, seed=seed, max_updates=300,
    )
    res = run_simulation(scen)
    acc = dataset_metrics(DRIFT_SPEC, res.final_params, val)["accuracy"]
    util = min(u.utilization for u in res.utilization.per_client.values())
    return acc, util


def test_ac05_utilization_reproduction():
    spec = ModelSpec((5, 8, 3), "relu", "softmax_cross_entropy")
    shard = make_blobs(classes=3, dim=5, per_class=20, seed=0)
    cfg = TrainConfig(optimizer="sgd", lr=0.05, batch_size=16, local_steps=100, seed=0)

    def two_speed(scheduler, aggregator):
        clients = [
            SimClient("c0", shard, cfg, 1.0),
            SimClient("c1", shard, cfg, 2.0),
        ]
        scen = SimScenario(
            model_spec=spec, clients=clients, num_global_epochs=3,
            scheduler=scheduler, aggregator=aggregator,
        )
        return run_simulation(scen).utilization.per_client

    # (a) two-speed synchronous: fast client busy exactly half the time
    sync = two_speed("SyncScheduler", "FedAvgAggregator")
    assert sync["c0"].utilization == 0.5
    assert sync["c1"].utilization == 1.0

    # (b) async with zero transfer cost: nobody ever waits
    asyn = two_speed("AsyncScheduler", "FedAsyncAggregator")
    assert asyn["c0"].utilization == 1.0
    assert asyn["c1"].utilization == 1.0

    # (c) grouped scheduler on the reference scenario: every client >= 0.80
    _, min_util = _drift_run("fedcompass", seed=0)
    assert min_util >= 0.80


def test_ac06_client_drift_ordering():
    means = {}
    for mode in DRIFT_MODES:
        means[mode] = float(np.mean([_drift_run(mode, s)[0] for s in range(5)]))
    # orderings on 5-seed mean accuracy; margins in absolute points
    assert means["fedavg"] > means["fedasync"]
    assert means["fedcompass"] > means["fedasync"] + 0.02
    assert means["fedcompass"] >= means["fedavg"] - 0.01


# ---------------------------------------------------------------------------
# 7. differential privacy accuracy trend and noise calibration

DP_SPEC = ModelSpec((8, 16, 4), "relu", "softmax_cross_entropy")


def _dp_run(epsilon: float, seed: int) -> float:
    ds = make_blobs(classes=4, dim=8, per_class=250, spread=4.0, seed=seed)
    train, val = split_train_val(ds, 0.2, seed=seed)
    shards = partition(train, PartitionSpec("iid", 5, seed=seed))
    cfg = TrainConfig(
        optimizer="sgd", lr=0.05, batch_size=32, local_steps=20, seed=seed,
        send_delta=True,
    )
    priv = PrivacyConfig(enabled=True, epsilon=epsilon, clip_norm=0.5, clip_kind="l2")
    clients = [SimClient(f"c{i}", shards[i], cfg, 1.0, privacy=priv) for i in range(5)]
    scen = SimScenario(
        model_spec=DP_SPEC, clients=clients, num_global_epochs=10,
        scheduler="SyncScheduler", aggregator="FedAvgAggregator",
        init_seed=seed, seed=seed,
    )
    res = run_simulation(scen)
    return dataset_metrics(DP_SPEC, res.final_params, val)["accuracy"]


def test_ac07_privacy_trend_and_noise_scale():
    ladder = [math.inf, 10.0, 1.0, 0.1]
    means = [float(np.mean([_dp_run(eps, s) for s in range(5)])) for eps in ladder]
    # non-increasing down the ladder, 1 point slack per adjacent pair
    for prev, nxt in zip(means, means[1:]):
        assert nxt <= prev + 0.01
    assert means[-1] < means[0]

    # calibration: mean |noise| == clip/epsilon within 5% over 1e5 draws
    for clip, eps in ((0.5, 2.0), (1.0, 0.25)):
        pc = PrivacyConfig(enabled=True, epsilon=eps, clip_norm=clip, clip_kind="l2")
        zeros = ParameterSet([("z", np.zeros(100_000))])
        noisy = perturb(zeros, pc, np.random.default_rng(123))
        got = float(np.mean(np.abs(noisy["z"])))
        assert abs(got - clip / eps) / (clip / eps) < 0.05

    # infinite epsilon is a bit-exact no-op and leaves the rng untouched
    pc = PrivacyConfig(enabled=True, epsilon=math.inf, clip_norm=math.inf)
    p = ParameterSet([("w", np.random.default_rng(9).normal(size=257))])
    rng = np.random.default_rng(17)
    out = apply_privacy(p, pc, rng)
    assert out["w"].tobytes() == p["w"].tobytes()
    assert rng.standard_normal() == np.random.default_rng(17).standard_normal()


# ---------------------------------------------------------------------------
# 8. vertical split training on the bundled regression table


def test_ac08_vertical_split_case_study():
    ds = load_bundled_diabetes()
    assert ds.features.shape == (442, 10)
    wins = 0
    for seed in range(5):
        run = run_vfl_experiment(ds, epochs=200, lr=0.01, seed=seed)
        assert tuple(len(b) for b in run.config.feature_split) == (3, 3, 4)
        # oracle baseline: always predict the training-label mean
        train, val = split_train_val(ds, val_fraction=0.2, seed=seed)
        baseline = float(np.mean((val.labels - float(train.labels.mean())) ** 2))
        if run.val_mse < baseline:
            wins += 1
        losses = [h["train_loss"] for h in run.history]
        assert losses[-1] < losses[0]  # training curve decreasing overall
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops > (len(losses) - 1) / 2
    assert wins >= 4


# ---------------------------------------------------------------------------
# 9. wire protocol and transport behavior


def _tiny_agent(params: ParameterSet) -> ServerAgent:
    return ServerAgent(
        params,
        make_scheduler("AsyncScheduler", ["c0"], 1, {}),
        make_aggregator("FedAvgAggregator", {}),
    )


def test_ac09_protocol_and_transport(tmp_path: Path):
    # golden bytes: minimal 12-byte frame
    golden = bytes.fromhex("4150464c0207000000000000")
    assert encode_frame(MessageType.SHUTDOWN) == golden
    frame = decode_frame(golden)
    assert frame.msg_type == MessageType.SHUTDOWN
    assert frame.token == b"" and frame.payload == b""

    # 1e4 fuzz iterations: decoder may reject, never crash unstructured
    rng = np.random.default_rng(99)
    rejected = 0
    for i in range(10_000):
        if i % 3 == 0:
            buf = bytes(rng.integers(0, 256, int(rng.integers(0, 48)), dtype=np.uint8))
        else:
            mutated = bytearray(golden)
            for _ in range(int(rng.integers(1, 4))):
                mutated[int(rng.integers(len(mutated)))] = int(rng.integers(256))
            buf = bytes(mutated)
        try:
            decode_frame(buf)
        except FedkitError:
            rejected += 1
    assert rejected > 0

    # a bad token is rejected before the scheduler ever sees the request
    agent = _tiny_agent(synthetic_params(64))
    with SocketServer(agent, token=b"right") as srv:
        with Communicator(srv.host, srv.port, token=b"wrong") as comm:
            with pytest.raises(Unauthenticated):
                comm.fetch_model("c0")
        assert agent.update_count == 0
        assert srv.unauthorized_count == 1

    # payloads over the inline limit travel by reference automatically
    big = synthetic_params(3_000_000)  # ~11.4 MiB of tensor data
    assert serialized_size(big) > DEFAULT_INLINE_LIMIT
    spool = FilesystemConnector(tmp_path / "spool")
    agent = _tiny_agent(big)
    with SocketServer(
        agent, connectors={spool.connector_id: spool}, send_connector=spool
    ) as srv:
        with Communicator(
            srv.host, srv.port, connectors={spool.connector_id: spool}
        ) as comm:
            update = ModelUpdate(
                client_id="c0", params=big, is_delta=False,
                sample_count=1, local_steps=1, base_epoch=0,
            )
            new_global, _, _, _ = comm.submit_update(update, connector=spool)
    staged = list((tmp_path / "spool").iterdir())
    assert staged  # out-of-band files were created
    assert new_global["t000"].shape == big["t000"].shape

    # small payloads stay inline: no staging files appear
    small_spool = FilesystemConnector(tmp_path / "spool-small")
    agent = _tiny_agent(synthetic_params(64))
    with SocketServer(
        agent, connectors={small_spool.connector_id: small_spool},
    ) as srv:
        with Communicator(
            srv.host, srv.port, connectors={small_spool.connector_id: small_spool}
        ) as comm:
            update = ModelUpdate(
                client_id="c0", params=synthetic_params(64), is_delta=False,
                sample_count=1, local_steps=1, base_epoch=0,
            )
            comm.submit_update(update, connector=small_spool)
    assert not list((tmp_path / "spool-small").iterdir())


SIM_VS_SOCKET_DOC = """
server_configs:
  scheduler: SyncScheduler
  aggregator: FedAvgAggregator
  num_global_epochs: 3
  model_configs:
    layer_dims: [5, 8, 3]
    activation: relu
    loss: softmax_cross_entropy
    init_seed: 5
client_configs:
  train_configs:
    optimizer: sgd
    lr: 0.05
    batch_size: 16
    local_steps: 8
    seed: 1
  data_configs:
    dataset_name: blobs
    dataset_kwargs:
      classes: 3
      dim: 5
      per_class: 30
      seed: 4
      partition:
        scheme: iid
clients:
  - client_id: alpha
  - client_id: beta
"""


def test_ac09b_simulation_matches_socket_run(tmp_path: Path):
    cfg_path = tmp_path / "server.yaml"
    cfg_path.write_text(SIM_VS_SOCKET_DOC)
    cfg = load_config(cfg_path)
    sim = run_simulation(build_scenario(cfg))
    live = run_local(cfg, run_dir=tmp_path / "run")
    for name in sim.final_params.names:
        diff = np.max(np.abs(sim.final_params[name] - live.final_params[name]))
        assert float(diff) <= 1e-9


# ---------------------------------------------------------------------------
# 10. determinism of the metrics stream


def test_ac10_metrics_files_are_reproducible(tmp_path: Path):
    def one_run():
        shard = make_blobs(classes=3, dim=5, per_class=20, seed=2)
        cfg = TrainConfig(optimizer="adam", lr=0.01, batch_size=16, local_steps=12, seed=3)
        clients = [
            SimClient("c0", shard, cfg, 1.0),
            SimClient("c1", shard, cfg, 1.7),
            SimClient("c2", shard, cfg, 2.4),
        ]
        scen = SimScenario(
            model_spec=ModelSpec((5, 8, 3), "relu", "softmax_cross_entropy"),
            clients=clients, num_global_epochs=4,
            scheduler="CompassScheduler", aggregator="FedCompassAggregator",
            eval_dataset=shard, jitter=0.3, seed=11, init_seed=6,
            codec=CodecConfig(lossy="qz", lossless="deflate", eb_rel=0.01,
                              small_tensor_threshold=0),
        )
        return run_simulation(scen)

    first, second = one_run(), one_run()
    for fmt in ("csv", "jsonl"):
        a = tmp_path / f"a.{fmt}"
        b = tmp_path / f"b.{fmt}"
        export_metrics(first.metrics, fmt, a)
        export_metrics(second.metrics, fmt, b)
        assert a.read_bytes() == b.read_bytes()
    assert serialize_params(first.final_params) == serialize_params(second.final_params)
