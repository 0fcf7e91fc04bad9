"""Output checks for the benchmark's ``invctl`` commands, run outside the timed region.

``check_command`` re-derives certificates from the artifacts a command wrote;
``summary`` extracts the outputs that are compared with the reference outputs
stored in ``reference/``.  Every function returns a list of failure messages,
empty when the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

OI_SLACK_TOL = -1e-5  # acceptance criterion 5
MC_HALF_WIDTHS = 4.0


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def artifact_digest(out: Path) -> tuple[str, int]:
    """SHA-256 over every artifact's name and bytes, and their total size."""
    h = hashlib.sha256()
    size = 0
    for f in sorted(out.iterdir()):
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        size += len(data)
    return h.hexdigest(), size


def _outputs(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())["outputs"]


def check_command(command: str, out: Path, config_path: Path, invlab) -> list[str]:
    """Certificates for one command's artifacts; ``invlab`` is the imported package."""
    failures = []
    outputs = _outputs(out)
    if command == "solve-discounted":
        config = invlab.cli_sim.load_config(config_path)
        mdp = config.build_mdp()
        values = [float(r["v"]) for r in read_csv(out / "values.csv")]
        phi = [float(r["action"]) for r in read_csv(out / "policy.csv")]
        residual = invlab.dp_core.check_stationary_optimality(mdp, phi, values, config.solver.alpha)
        if not residual <= 2 * config.solver.eps:
            failures.append(f"Bellman residual {residual!r} exceeds 2*eps")
    elif command == "solve-average":
        for key in ("slack_lower", "slack_upper"):
            if not outputs[key] >= OI_SLACK_TOL:
                failures.append(f"{key} {outputs[key]!r} below {OI_SLACK_TOL}")
        if not outputs["w_lower"] <= outputs["w_upper"]:
            failures.append(f"w_lower {outputs['w_lower']!r} above w_upper {outputs['w_upper']!r}")
    elif command == "verify-structure":
        if outputs["violations"] != 0:
            failures.append(f"{outputs['violations']} structure violations")
    elif command == "pomdp-simulate":
        half = (outputs["ci_high"] - outputs["ci_low"]) / 2
        if not abs(outputs["mean"] - outputs["tree_value"]) <= MC_HALF_WIDTHS * half:
            failures.append(f"MC mean {outputs['mean']!r} farther than 4 half-widths from tree value {outputs['tree_value']!r}")
    elif command == "simulate":
        disc = outputs["discounted"]
        half = (disc["ci_high"] - disc["ci_low"]) / 2
        allowance = MC_HALF_WIDTHS * half + outputs["truncation_bound"]
        if not abs(disc["mean"] - outputs["solver_value"]) <= allowance:
            failures.append(f"MC mean {disc['mean']!r} farther than {allowance!r} from solver value {outputs['solver_value']!r}")
    return failures


def summary(command: str, out: Path) -> dict:
    """Outputs kept as reference: ``approx`` entries agree within eps, ``exact`` ones exactly."""
    o = _outputs(out)
    approx, exact = {}, {}
    if (out / "values.csv").exists():
        approx["values"] = [float(r["v"]) for r in read_csv(out / "values.csv")]
    if command == "solve-finite":
        exact["thresholds"] = [[r["s"], r["S"]] for r in read_csv(out / "thresholds.csv")]
    elif command == "solve-discounted":
        exact["s_S"] = [o.get("s_alpha"), o.get("S_alpha")]
    elif command == "solve-average":
        approx.update(w_lower=o["w_lower"], w_upper=o["w_upper"])
    elif command == "verify-structure":
        exact.update(violations=o["violations"], thresholds=o["thresholds"])
    elif command == "pomdp-solve":
        approx["value"] = o["value"]
        exact.update(root_actions=o["root_actions"], nodes=o["nodes"])
    elif command == "pomdp-simulate":
        approx.update(tree_value=o["tree_value"], mean=o["mean"])
    elif command == "simulate":
        approx.update(
            solver_value=o["solver_value"],
            discounted_mean=o["discounted"]["mean"],
            running_average_mean=o["running_average"]["mean"],
        )
    return {"approx": approx, "exact": exact}


def compare_reference(got: dict, ref: dict, eps: float) -> list[str]:
    failures = []
    for key, want in ref["exact"].items():
        if got["exact"].get(key) != want:
            failures.append(f"{key} differs from the reference")
    for key, want in ref["approx"].items():
        have = got["approx"].get(key)
        want_list = want if isinstance(want, list) else [want]
        have_list = have if isinstance(have, list) else [have]
        if have is None or len(have_list) != len(want_list):
            failures.append(f"{key} missing or resized against the reference")
            continue
        worst = max(abs(h - w) for h, w in zip(have_list, want_list))
        if not worst <= eps:
            failures.append(f"{key} differs from the reference by {worst!r} > eps")
    return failures
