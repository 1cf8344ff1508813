"""Span recorder for the traced pass, and the per-layer figures drawn from it.

install() rebinds every public function of the program's modules, in every
module namespace that holds it by name (so intra-module calls such as
core.make_algebra from core.enumerate_algebras are seen too), to a wrapper
that records a span: name, request, parent span, start and busy time, plus a
per-function count (copies returned, search nodes, bytes written) and a
repeat flag.  Spans stay in memory in flat arrays and are reduced when the
pass ends; a layer's self time is its spans' busy time minus that of their
direct children.  Generator functions get one span whose busy time sums the
resumptions.  Spans recorded in forked pool workers stay in those workers.
"""
from __future__ import annotations

import importlib
import inspect
import statistics
import time
from array import array

LAYERS = ("core", "order", "embed", "fraisse", "ramsey", "chains", "serialize", "cli", "parallel")

# Called per atom or per order inside other functions' inner loops (is_proper
# twice per ordered_isomorphic call, a million times in order-sweep): a span
# per call would cost more than the call and swamp its callers' figures.
UNTRACED = frozenset({"core.level_key", "order.is_proper"})

clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.request = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.busy = array("d")
        self.count = array("q")
        self.repeat = array("b")
        self.stack: list[int] = []
        self.request_id = -1

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def open(self, name_id: int) -> int:
        idx = len(self.busy)
        self.name.append(name_id)
        self.request.append(self.request_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(clock())
        self.busy.append(0.0)
        self.count.append(0)
        self.repeat.append(0)
        self.stack.append(idx)
        return idx

    def wrap(self, name: str, fn, before=None, after=None):
        """A span-recording stand-in for fn.

        before(args, kwargs) runs ahead of the call and its result reaches
        after(tracer, idx, args, kwargs, result, token), which sets counts.
        """
        nid = self.name_id(name)
        busy, stack = self.busy, self.stack

        if inspect.isgeneratorfunction(fn):

            def resume(idx, iterator):
                while True:
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        busy[idx] += clock() - t0
                        stack.pop()
                    yield item

            def generator_wrapper(*args, **kwargs):
                idx = self.open(nid)
                t0 = clock()
                try:
                    iterator = fn(*args, **kwargs)
                finally:
                    busy[idx] += clock() - t0
                    stack.pop()
                return resume(idx, iterator)

            return generator_wrapper

        def wrapper(*args, **kwargs):
            token = None if before is None else before(args, kwargs)
            idx = self.open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy[idx] = clock() - t0
                stack.pop()
            if after is not None:
                after(self, idx, args, kwargs, result, token)
            return result

        return wrapper


def _hooks(modules: dict) -> dict:
    """Counts recorded at the boundaries where the work happens."""
    arrows_cache = modules["ramsey"]._arrows
    seen_embeddings: set = set()

    def embeddings_after(tracer, idx, args, kwargs, result, token):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "plain")
        key = (args[0], args[1], mode)
        tracer.count[idx] = len(result)
        if key in seen_embeddings:
            tracer.repeat[idx] = 1
        seen_embeddings.add(key)

    def arrows_before(args, kwargs):
        return arrows_cache.cache_info().hits

    def arrows_after(tracer, idx, args, kwargs, result, hits):
        if arrows_cache.cache_info().hits > hits:
            tracer.repeat[idx] = 1
        else:
            tracer.count[idx] = result.stats.nodes

    def format_after(tracer, idx, args, kwargs, result, token):
        tracer.count[idx] = len(result)  # canonical JSON is ASCII

    return {
        "embed.enumerate_embeddings": (None, embeddings_after),
        "ramsey.arrows": (arrows_before, arrows_after),
        "serialize.format_io": (None, format_after),
    }


def install() -> Tracer:
    """Trace every public function of every layer; returns the recorder."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"ramsey_ba.{layer}") for layer in LAYERS}
    namespaces = list(modules.values()) + [importlib.import_module("ramsey_ba")]
    hooks = _hooks(modules)
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or name in UNTRACED
            ):
                continue
            traced = _shard_timing(tracer, fn) if name == "parallel.ordered_map" else fn
            wrapped = tracer.wrap(name, traced, *hooks.get(name, (None, None)))
            for namespace in namespaces:
                for holder_attr, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, holder_attr, wrapped)
    return tracer


def _shard_timing(tracer: Tracer, ordered_map):
    """ordered_map that records a span per shard when it runs in-process."""

    def timed_ordered_map(fn, items, workers=1):
        if workers <= 1:
            fn = tracer.wrap("parallel.shard", fn)
        return ordered_map(fn, items, workers)

    return timed_ordered_map


# ---------------------------------------------------------------------------
# reduction


class Totals:
    __slots__ = ("calls", "s", "self_s", "count", "repeats", "repeat_s")

    def __init__(self) -> None:
        self.calls = self.repeats = self.count = 0
        self.s = self.self_s = self.repeat_s = 0.0


def _child_busy(tracer: Tracer) -> list[float]:
    """Busy time of each span's direct children."""
    busy = tracer.busy
    child = [0.0] * len(busy)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += busy[i]
    return child


def _reduce(tracer: Tracer, child: list[float], requests: set[int]) -> dict[str, Totals]:
    busy, name, request = tracer.busy, tracer.name, tracer.request
    totals: dict[str, Totals] = {}
    for i in range(len(busy)):
        if request[i] not in requests:
            continue
        key = tracer.names[name[i]]
        t = totals.get(key)
        if t is None:
            t = totals[key] = Totals()
        t.calls += 1
        t.s += busy[i]
        t.self_s += busy[i] - child[i]
        t.count += tracer.count[i]
        if tracer.repeat[i]:
            t.repeats += 1
            t.repeat_s += busy[i]
    return totals


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_figures(tracer: Tracer, tags: list[str]) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name.

    A layer the workload never calls reads 0.  On class-suites every figure
    except parallel.* comes from the one-worker requests: the two-worker
    suite request does its work in pool workers whose spans stay there.
    """
    child = _child_busy(tracer)
    own = _reduce(tracer, child, {i for i, tag in enumerate(tags) if tag != "suite-w2"})
    out: dict[str, float] = {}

    def get(key: str) -> Totals:
        return own.get(key) or Totals()

    def put(key: str, *fields: str) -> None:
        for field in fields:
            out[f"{key}.{field}"] = getattr(get(key), field)

    emb = get("embed.enumerate_embeddings")
    put("embed.enumerate_embeddings", "calls", "s")
    out["embed.enumerate_embeddings.copies"] = emb.count
    out["embed.enumerate_embeddings.us_per_copy"] = _ratio(emb.s * 1e6, emb.count)
    out["embed.enumerate_embeddings.repeat_share"] = _ratio(emb.repeats, emb.calls)
    put("embed.compose", "calls", "s")
    put("embed.validate_embedding", "calls", "s")

    arr = get("ramsey.arrows")
    put("ramsey.arrows", "calls")
    out["ramsey.arrows.repeat_share"] = _ratio(arr.repeats, arr.calls)
    put("ramsey.arrows", "self_s")
    out["ramsey.arrows.repeat_ms"] = _ratio(arr.repeat_s * 1e3, arr.repeats)
    out["ramsey.search_nodes"] = arr.count
    out["ramsey.nodes_per_s"] = _ratio(arr.count, arr.self_s)
    put("ramsey.recheck_bad_coloring", "calls", "s")
    for key in ("ramsey.dual_ramsey_oracle", "ramsey.construct_witness", "ramsey.min_witness"):
        put(key, "s")

    put("serialize.format_io", "s")
    out["serialize.format_io.bytes"] = get("serialize.format_io").count
    out["serialize.parse.s"] = sum(
        get(f"serialize.{key}").s for key in ("load_json_file", "parse_algebra", "parse_embedding")
    )
    put("cli.run", "calls", "self_s")

    put("fraisse.amalgamate", "calls", "self_s")
    put("fraisse.check_ap", "s")
    put("fraisse.check_hp", "s")
    for key in ("core.make_algebra", "core.enumerate_algebras", "core.generated_subalgebra"):
        put(key, "calls", "s")

    put("order.ordered_isomorphic", "calls", "s")
    put("order.enumerate_proper_orders", "s")
    put("chains.chains_extending", "calls", "s")
    put("chains.enumerate_maximal_chains", "s")

    out.update(_parallel_figures(tracer, child, tags))
    return out


def _parallel_figures(tracer: Tracer, child: list[float], tags: list[str]) -> dict[str, float]:
    """Suite fan-out figures: ordered_map time per worker count, and shard
    balance in the one-worker request, where shards run in-process."""
    by_tag = {tag: {i for i, x in enumerate(tags) if x == tag} for tag in ("suite-w1", "suite-w2")}
    out = {}
    for workers in (1, 2):
        totals = _reduce(tracer, child, by_tag[f"suite-w{workers}"])
        out[f"parallel.ordered_map.s_w{workers}"] = totals.get("parallel.ordered_map", Totals()).s
    shards_of: dict[int, list[float]] = {}
    for i in range(len(tracer.busy)):
        if tracer.request[i] in by_tag["suite-w1"]:
            label = tracer.names[tracer.name[i]]
            if label == "parallel.ordered_map":
                shards_of.setdefault(i, [])
            elif label == "parallel.shard":
                shards_of.setdefault(tracer.parent[i], []).append(tracer.busy[i])
    out["parallel.shards"] = sum(len(times) for times in shards_of.values())
    imbalance = 0.0
    if shards_of:
        longest = max(shards_of, key=lambda i: tracer.busy[i])
        times = shards_of[longest]
        if times:
            imbalance = max(times) / statistics.fmean(times)
    out["parallel.shard_imbalance"] = imbalance
    return out
