"""Span tracing of invlab's layers from outside the package, and per-layer metrics.

``Tracer.install`` wraps every public function of each invlab module, in
every invlab module that binds it by name (``cli_sim``, ``average_cost`` and
``policy_structure`` each import ``infinite_horizon_vi`` themselves), plus
``GridMDP.expected_next``.  ``uninstall`` restores the originals, so traced
and untraced passes can alternate in one process.

Most calls become spans kept in memory: name, layer, start, end, parent
span and pass id.  Hot leaf calls (one Bellman backup, one belief-node cost)
run hundreds of thousands of times per pass; they are only counted and
timed, per pass and per enclosing span, so memory stays flat.  Calls nest
and run on one thread, so a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("dp_core", "average_cost", "policy_structure", "pomdp", "cli_sim", "demand", "costs")

# called per backup / per belief node / per belief check: counted, not recorded as spans
LEAF_CALLS = {"dp_core.expected_next", "pomdp.comdp_cost", "pomdp.validate_belief"}

# spans that frame a command rather than do a layer's work
GLUE_SPANS = {"pass", "cli_sim.main", "cli_sim.run"}

CERTIFY = ("average_cost.greedy_policy", "average_cost.check_optimality_inequality", "average_cost.assumption_B_diagnostic")

# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "dp_core.build_s": "s",
    "dp_core.build_calls": "count",
    "dp_core.P_mb": "MB",
    "dp_core.build_peak_mb": "MB",
    "dp_core.vi_s": "s",
    "dp_core.backup_calls": "count",
    "dp_core.backup_s": "s",
    "dp_core.backup_bytes_computed": "bytes",
    "dp_core.finite_vi_s": "s",
    "dp_core.self_s": "s",
    "average_cost.ladder_s": "s",
    "average_cost.top_rung_backups": "count",
    "average_cost.certify_s": "s",
    "average_cost.self_s": "s",
    "policy_structure.g_function_calls": "count",
    "policy_structure.g_function_s": "s",
    "policy_structure.extract_sS_s": "s",
    "policy_structure.verify_s": "s",
    "policy_structure.self_s": "s",
    "pomdp.tree_s": "s",
    "pomdp.tree_nodes": "count",
    "pomdp.comdp_cost_calls": "count",
    "pomdp.nodes_per_s": "1/s",
    "pomdp.rollout_s": "s",
    "pomdp.rollout_steps_per_s": "1/s",
    "pomdp.self_s": "s",
    "cli_sim.simulate_policy_s": "s",
    "cli_sim.sim_steps_per_s": "1/s",
    "cli_sim.sim_arrays_mb": "MB",
    "cli_sim.write_s": "s",
    "cli_sim.artifact_bytes": "bytes",
    "cli_sim.load_config_s": "s",
    "cli_sim.self_s": "s",
    "demand.build_s": "s",
    "demand.self_s": "s",
    "costs.expected_holding_calls": "count",
    "costs.self_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def backup_bytes(mdp) -> int:
    """Bytes one ``expected_next`` call reads and writes, computed from array shapes.

    Index tables plus the gathered values: the shift path gathers through
    ``_y_next`` and then ``_y_of``; the dense path through ``next_idx``.
    """
    if mdp.shift_kernel:
        return 2 * (mdp._y_next.nbytes + mdp._y_of.nbytes)
    return 2 * mdp.next_idx.nbytes + mdp.cost.nbytes


def _attrs_for(name: str):
    """Post-call hook recording sizes a metric needs, from arguments and result."""
    if name == "dp_core.make_inventory_mdp":
        return lambda args, result: {"P_mb": result.P.nbytes / 1e6}
    if name == "pomdp.belief_value_iteration":
        return lambda args, result: {"nodes": result.node_count}
    if name == "pomdp.pomdp_simulate":
        return lambda args, result: {"steps": args["reps"] * args["horizon"]}
    if name == "cli_sim.simulate_policy":
        # u (float64) and shocks (int64), each reps x N
        return lambda args, result: {
            "steps": args["reps"] * args["N"],
            "arrays_mb": 16 * args["reps"] * args["N"] / 1e6,
        }
    return None


class _Frame:
    __slots__ = ("span_id", "child_s", "leaf_calls")

    def __init__(self, span_id):
        self.span_id = span_id
        self.child_s = 0.0
        self.leaf_calls = defaultdict(int) if span_id is not None else None


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.leaf: dict = {}  # pass id -> name -> [calls, seconds, self seconds, bytes]
        self.pass_id = None
        self._stack: list[_Frame] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, record: bool) -> _Frame:
        frame = _Frame(len(self.spans) if record else None)
        if record:
            self.spans.append(None)  # reserve the id; filled in on close
        self._stack.append(frame)
        return frame

    def _pop(self, frame: _Frame, elapsed: float) -> _Frame | None:
        """Close ``frame``, charging its time to the enclosing frame; returns that frame."""
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child_s += elapsed
        return parent

    def _close_leaf(self, frame: _Frame, name: str, start: float, end: float, nbytes: int):
        parent = self._pop(frame, end - start)
        entry = self.leaf.setdefault(self.pass_id, {}).setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - frame.child_s
        entry[3] += nbytes
        if parent is not None and parent.leaf_calls is not None:
            parent.leaf_calls[name] += 1

    def _close(self, frame: _Frame, name: str, layer: str, start: float, end: float, attrs=None):
        self._pop(frame, end - start)
        span = {
            "id": frame.span_id,
            "name": name,
            "layer": layer,
            "start": start,
            "end": end,
            "self_s": end - start - frame.child_s,
            "parent": next((f.span_id for f in reversed(self._stack) if f.span_id is not None), None),
            "pass": self.pass_id,
        }
        if frame.leaf_calls:
            span["leaf_calls"] = dict(frame.leaf_calls)
        if attrs:
            span.update(attrs)
        self.spans[frame.span_id] = span

    @contextlib.contextmanager
    def span(self, name: str, layer: str = "bench"):
        """One span around the benchmark's own code."""
        frame = self._open(True)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, layer, start, perf_counter())

    def _wrap(self, name: str, fn):
        tracer = self
        if name in LEAF_CALLS:
            counts_bytes = name == "dp_core.expected_next"

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                frame = tracer._open(False)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    tracer._close_leaf(frame, name, start, end, backup_bytes(args[0]) if counts_bytes else 0)

            return leaf

        layer = name.split(".")[0]
        hook = _attrs_for(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(True)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, name, layer, start, perf_counter(), {"error": True})
                raise
            end = perf_counter()
            attrs = None
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = hook(bound.arguments, result)
            tracer._close(frame, name, layer, start, end, attrs)
            return result

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every public invlab function wherever a module binds it by name."""
        if self._patches:
            return
        modules = {n: m for n, m in sys.modules.items() if n == "invlab" or n.startswith("invlab.")}
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"invlab.{layer}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)][1])
        grid_mdp = modules["invlab.dp_core"].GridMDP
        original = grid_mdp.expected_next
        self._patches.append((grid_mdp, "expected_next", original))
        grid_mdp.expected_next = self._wrap("dp_core.expected_next", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "leaf_calls": {str(k): v for k, v in self.leaf.items()}}, fh)


def pass_metrics(tracer: Tracer, pass_id, pass_s: float, artifact_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (``pass_s`` is its traced wall time)."""
    spans = [s for s in tracer.spans if s is not None and s["pass"] == pass_id]
    leaf = tracer.leaf.get(pass_id, {})
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        layer_self[s["layer"]] += s["self_s"]
    for name, (n, secs, self_secs, _) in leaf.items():
        total[name] += secs
        calls[name] += n
        layer_self[name.split(".")[0]] += self_secs

    def attr_sum(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    top_rung = 0
    ladders = {s["id"] for s in spans if s["name"] == "average_cost.solve_ladder"}
    for lid in ladders:
        rungs = [s for s in spans if s["parent"] == lid and s["name"] == "dp_core.infinite_horizon_vi"]
        if rungs:
            top_rung += rungs[-1].get("leaf_calls", {}).get("dp_core.expected_next", 0)

    tree_s = total["pomdp.belief_value_iteration"]
    rollout_s = total["pomdp.pomdp_simulate"]
    sim_s = total["cli_sim.simulate_policy"]
    nodes = attr_sum("pomdp.belief_value_iteration", "nodes")
    m = {
        "dp_core.build_s": total["dp_core.make_inventory_mdp"],
        "dp_core.build_calls": calls["dp_core.make_inventory_mdp"],
        "dp_core.P_mb": max((s.get("P_mb", 0.0) for s in spans if s["name"] == "dp_core.make_inventory_mdp"), default=0.0),
        "dp_core.vi_s": total["dp_core.infinite_horizon_vi"],
        "dp_core.backup_calls": calls["dp_core.expected_next"],
        "dp_core.backup_s": total["dp_core.expected_next"],
        "dp_core.backup_bytes_computed": leaf.get("dp_core.expected_next", [0, 0, 0, 0])[3],
        "dp_core.finite_vi_s": total["dp_core.finite_horizon_vi"],
        "average_cost.ladder_s": total["average_cost.solve_ladder"],
        "average_cost.top_rung_backups": top_rung,
        "average_cost.certify_s": sum(total[n] for n in CERTIFY),
        "policy_structure.g_function_calls": calls["policy_structure.g_function"],
        "policy_structure.g_function_s": total["policy_structure.g_function"],
        "policy_structure.extract_sS_s": total["policy_structure.extract_sS"],
        "policy_structure.verify_s": total["policy_structure.verify_structure"],
        "pomdp.tree_s": tree_s,
        "pomdp.tree_nodes": nodes,
        "pomdp.comdp_cost_calls": calls["pomdp.comdp_cost"],
        "pomdp.nodes_per_s": nodes / tree_s if tree_s else 0.0,
        "pomdp.rollout_s": rollout_s,
        "pomdp.rollout_steps_per_s": attr_sum("pomdp.pomdp_simulate", "steps") / rollout_s if rollout_s else 0.0,
        "cli_sim.simulate_policy_s": sim_s,
        "cli_sim.sim_steps_per_s": attr_sum("cli_sim.simulate_policy", "steps") / sim_s if sim_s else 0.0,
        "cli_sim.sim_arrays_mb": max((s.get("arrays_mb", 0.0) for s in spans if s["name"] == "cli_sim.simulate_policy"), default=0.0),
        "cli_sim.write_s": total["cli_sim.write_csv"],
        "cli_sim.artifact_bytes": artifact_bytes,
        "cli_sim.load_config_s": total["cli_sim.load_config"],
        "demand.build_s": total["demand.from_atoms"] + total["demand.quantize"],
        "costs.expected_holding_calls": calls["costs.expected_holding"],
        "trace.pass_s": pass_s,
    }
    for layer in LAYERS:
        if layer != "cli_sim":
            m[f"{layer}.self_s"] = layer_self[layer]
    # pass time outside every layer span: the benchmark loop, argument parsing
    # and the private command handlers' own code
    m["cli_sim.self_s"] = sum(s["self_s"] for s in spans if s["name"] in GLUE_SPANS)
    return m


def summarize(per_pass: list[dict], untraced_pass_s: list[float], build_peak_mb: float) -> dict:
    """Median of each per-layer metric over the traced passes, plus tracing overhead."""
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    out["dp_core.build_peak_mb"] = build_peak_mb
    out["trace.untraced_pass_s"] = statistics.median(untraced_pass_s)
    out["trace.overhead_s"] = out["trace.pass_s"] - out["trace.untraced_pass_s"]
    out["trace.overhead_frac"] = out["trace.overhead_s"] / out["trace.untraced_pass_s"]
    return {name: out[name] for name in PER_LAYER}
