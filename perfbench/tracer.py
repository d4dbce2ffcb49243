"""Span tracer that wraps fedkit callables at the names their callers use.

fedkit modules bind imports by name (``from .client import local_train``),
so a layer is wrapped at every module that looks it up, not only where it
is defined.  Methods and constructors are wrapped on the class that defines
them, which covers every caller at once.

Each span records its name, the binding site, start, end, parent span and
run id, plus its self time: its duration minus that of its direct children.  Span stacks are per thread, because the socket workloads run
server threads next to the client threads.  Spans stay in memory until the
benchmark writes them out after the run.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

# Layers whose self time the per-layer metrics and the summary report.
LAYERS = {
    # name: [(module, holder, attribute)]; holder None is the module itself,
    # otherwise a class name, "subclasses:<base>" or "registry:<dict name>"
    "models.backward": [("fedkit.client", None, "backward")],
    "optim.step": [("fedkit.optim", "SGD", "step"), ("fedkit.optim", "Adam", "step")],
    "client.local_train": [("fedkit.sim", None, "local_train"), ("fedkit.runner", None, "local_train")],
    "models.dataset_metrics": [
        ("fedkit.sim", None, "dataset_metrics"),
        ("fedkit.runner", None, "dataset_metrics"),
    ],
    "params.ParameterSet": [("fedkit.params", "ParameterSet", "__init__")],
    "params.serialize_params": [
        ("fedkit.transport", None, "serialize_params"),
        ("fedkit.compression", None, "serialize_params"),
        ("fedkit.params", None, "serialize_params"),
    ],
    "params.deserialize_params": [
        ("fedkit.transport", None, "deserialize_params"),
        ("fedkit.params", None, "deserialize_params"),
    ],
    "aggregators.apply": [("fedkit.aggregators", "subclasses:_Strategy", "apply")],
    "schedulers.on_update": [("fedkit.schedulers", "registry:SCHEDULERS", "on_update")],
    "server.process_update": [("fedkit.server", "ServerAgent", "process_update")],
    "sim.run_simulation": [("fedkit.sim", None, "run_simulation")],
    "compression.compress_params": [
        ("fedkit.sim", None, "compress_params"),
        ("fedkit.transport", None, "compress_params"),
    ],
    "compression.decompress_params": [
        ("fedkit.sim", None, "decompress_params"),
        ("fedkit.transport", None, "decompress_params"),
    ],
    "wire.encode_frame": [("fedkit.transport", None, "encode_frame")],
    "wire.read_frame": [("fedkit.transport", None, "read_frame")],
    "wire.stage_body": [("fedkit.transport", None, "stage_body")],
    "wire.fetch_body": [("fedkit.transport", None, "fetch_body")],
    "wire.FilesystemConnector.put": [("fedkit.wire", "FilesystemConnector", "put")],
    "wire.FilesystemConnector.get": [("fedkit.wire", "FilesystemConnector", "get")],
    "transport.encode_update": [("fedkit.transport", None, "encode_update")],
    "transport.decode_update": [("fedkit.transport", None, "decode_update")],
    "transport.encode_model_reply": [("fedkit.transport", None, "encode_model_reply")],
    "transport.decode_model_reply": [("fedkit.transport", None, "decode_model_reply")],
    "transport.request": [("fedkit.transport", "Communicator", "request")],
    "runner.run_local": [("fedkit.runner", None, "run_local")],
    "config.load_config": [("fedkit.config", None, "load_config")],
    "models.make_blobs": [("fedkit.models", None, "make_blobs")],
    "models.partition": [("fedkit.models", None, "partition")],
}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _stage_body_staged(args, kwargs, result):
    from fedkit.wire import DEFAULT_INLINE_LIMIT

    connector = _arg(args, kwargs, 2, "connector")
    limit = _arg(args, kwargs, 3, "inline_limit", DEFAULT_INLINE_LIMIT)
    return (int(connector is not None and len(args[1]) > limit),)


# Counts taken at the same boundaries as the spans:
# name -> (keys, f(args, kwargs, result) -> tuple of values for those keys)
_EXTRAS = {
    "params.ParameterSet": (("tensors",), lambda a, k, r: (len(a[0]),)),
    "params.serialize_params": (("bytes",), lambda a, k, r: (len(r),)),
    "aggregators.apply": (("updates",), lambda a, k, r: (len(_arg(a, k, 2, "updates")),)),
    "compression.compress_params": (("bytes_in", "bytes_out"), lambda a, k, r: (
        sum(t.nbytes for _, t in a[0].items()), len(r))),
    "wire.encode_frame": (("bytes",), lambda a, k, r: (len(r),)),
    "wire.stage_body": (("staged",), _stage_body_staged),
    "wire.FilesystemConnector.put": (("bytes",), lambda a, k, r: (len(a[1]),)),
}
FAILED = "failed"


def _holders(module, holder: str | None):
    if holder is None:
        return [module]
    kind, _, target = holder.rpartition(":")
    if kind == "subclasses":
        seen, todo = [], [getattr(module, target)]
        while todo:
            cls = todo.pop()
            seen.append(cls)
            todo.extend(cls.__subclasses__())
        return seen
    if kind == "registry":
        return list(dict.fromkeys(getattr(module, target).values()))
    return [getattr(module, target)]


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = ""
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, sites in LAYERS.items():
            for mod_name, holder, attr in sites:
                module = importlib.import_module(mod_name)
                for owner in _holders(module, holder):
                    if holder is not None and attr not in vars(owner):
                        continue
                    original = getattr(owner, attr)
                    site = mod_name.rsplit(".", 1)[1]
                    setattr(owner, attr, self._wrap(name, site, original))
                    self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _wrap(self, name: str, site: str, fn):
        extra = _EXTRAS.get(name, (None, None))[1]
        spans = self.spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [next(self._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                spans.append((frame[0], name, site, t0, t1, parent, self.run_id,
                              t1 - t0 - frame[1], FAILED))
                raise
            t1 = perf()
            stack.pop()
            if stack:
                stack[-1][1] += t1 - t0
            spans.append((frame[0], name, site, t0, t1, parent, self.run_id,
                          t1 - t0 - frame[1], extra(args, kwargs, result) if extra else None))
            return result

        return traced

    def layer_totals(self) -> dict:
        """Per layer: calls, busy_s, self_s, plus summed counts; and per site."""
        totals: dict = defaultdict(lambda: defaultdict(float))
        for _, name, site, t0, t1, _, _, self_s, extra in self.spans:
            for key in (name, f"{name}@{site}"):
                row = totals[key]
                row["calls"] += 1
                row["busy_s"] += t1 - t0
                row["self_s"] += self_s
                if extra == FAILED:
                    row[FAILED] += 1
                elif extra:
                    for k, v in zip(_EXTRAS[name][0], extra):
                        row[k] += v
        return totals

    def write(self, path) -> None:
        """Save the spans as columns of a compressed ``.npz``; names are indexes."""
        import numpy as np

        names = sorted({s[1] for s in self.spans})
        sites = sorted({s[2] for s in self.spans})
        runs = sorted({s[6] for s in self.spans})
        index = {v: i for i, v in enumerate(names)}
        site_index = {v: i for i, v in enumerate(sites)}
        run_index = {v: i for i, v in enumerate(runs)}
        cols = list(zip(*self.spans)) if self.spans else [()] * 9
        np.savez_compressed(
            path,
            id=np.array(cols[0], dtype=np.int64),
            name=np.array([index[v] for v in cols[1]], dtype=np.int32),
            site=np.array([site_index[v] for v in cols[2]], dtype=np.int32),
            start=np.array(cols[3], dtype=np.float64),
            end=np.array(cols[4], dtype=np.float64),
            parent=np.array(cols[5], dtype=np.int64),
            run=np.array([run_index[v] for v in cols[6]], dtype=np.int32),
            self_s=np.array(cols[7], dtype=np.float64),
            names=np.array(names), sites=np.array(sites), runs=np.array(runs),
        )
