"""Correctness checks on one verb run's output directory.

A run passes when the verb exited 0 and:

* the assignment holds every mesh element exactly once and every rank owns
  at least one element;
* every ``level<i>`` phase (i >= 1) moved zero internode bytes;
* for a rebalance, no element left its level-0 group and the weighted
  imbalance did not rise;
* its output digest equals that of every other run of the same inputs,
  whatever the scheduler seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

_LEVEL_PHASE = re.compile(r"level([1-9][0-9]*)$")


def digest(out_dir: str) -> str:
    """SHA-256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def assignment_problems(assignment: dict, inputs) -> list[str]:
    """What is wrong with an element -> rank assignment for these inputs."""
    from hierpart.balance import imbalance

    problems = []
    elements = set(inputs.mesh.elements)
    missing = elements - assignment.keys()
    unknown = assignment.keys() - elements
    if missing or unknown:
        problems.append(f"assignment misses {len(missing)} elements "
                        f"{sorted(missing)[:3]} and has {len(unknown)} unknown "
                        f"{sorted(unknown)[:3]}")
    nparts = inputs.tree.total_ranks
    owned = set(assignment.values())
    outside = sorted(r for r in owned if not 0 <= r < nparts)
    if outside:
        problems.append(f"ranks {outside[:3]} outside 0..{nparts - 1}")
    empty = sorted(set(range(nparts)) - owned)
    if empty:
        problems.append(f"ranks {empty[:3]} own no element")
    if inputs.workload.verb == "rebalance" and not problems:
        tree = inputs.tree
        left = [e for e, r in assignment.items()
                if tree.group_index(r, 0) != tree.group_index(inputs.before[e], 0)]
        if left:
            problems.append(f"{len(left)} elements left their level-0 group, "
                            f"e.g. {sorted(left)[:3]}")
        pre = imbalance(inputs.before, inputs.weights, nparts)
        post = imbalance(assignment, inputs.weights, nparts)
        if post > pre:
            problems.append(f"imbalance rose from {pre} to {post}")
    return problems


def report_problems(report: dict) -> list[str]:
    """Traffic that the locality claim forbids: internode bytes below level 0."""
    return [f"phase {row['phase']} moved {row['internode_bytes']} internode bytes"
            for row in report["traffic"]["phases"]
            if _LEVEL_PHASE.match(row["phase"]) and row["internode_bytes"]]


def check_output(out_dir: str, inputs) -> tuple[list[str], str, dict, dict]:
    """(problems, digest, assignment, report) of one finished verb run."""
    from hierpart.formats import FormatError, load_assignment

    try:
        assignment = load_assignment(os.path.join(out_dir, "assignment.json"))
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)["report"]
    except (FormatError, OSError, ValueError, KeyError) as err:
        return [f"unreadable output: {err}"], "", {}, {}
    problems = assignment_problems(assignment, inputs) + report_problems(report)
    return problems, digest(out_dir), assignment, report


def output_counts(assignment: dict, report: dict, inputs) -> dict:
    """The deterministic counts of one run: traffic and moved elements."""
    traffic = report["traffic"]
    return {
        "internode_bytes": traffic["total_internode_bytes"],
        "intranode_bytes": traffic["total_intranode_bytes"],
        "messages": traffic["total_messages"],
        "moved_elements": sum(1 for e, r in assignment.items()
                              if inputs.before.get(e) != r),
    }


def quality(assignment: dict, inputs, adjacency) -> dict:
    """Edge cut and max/mean load (weighted where the workload has weights)."""
    from hierpart.balance import imbalance
    from hierpart.metrics import edge_cut

    return {
        "edge_cut": edge_cut(adjacency, assignment),
        "imbalance": imbalance(assignment, inputs.weights,
                               inputs.tree.total_ranks),
    }
