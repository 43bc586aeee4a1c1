"""Output checks and provenance for one finished pipeline run.

inspect_run reads a run's output directory with its own parsers (and
gapminer's load_network for the edge order) and returns the problems it
found together with a record of digests and exact counts. run.py counts a run
with any problem as failed, and also fails a run whose record differs from
the first run of the same corpus and pipeline seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import defaultdict
from pathlib import Path

from gapminer.concept_net import load_network
from gapminer.pipeline import STAGES, verify_manifest

COLD_STATUSES = {stage: "ok" for stage in STAGES}
RERUN_STATUSES = {
    stage: ("skipped" if stage in ("ingest", "network", "persist") else "ok") for stage in STAGES
}
MIN_PERSISTENCE = 1  # PipelineConfig default, which every workload uses

_CLOSING_PAPER = re.compile(r"D\d+K\d+P005$")  # closes a 6-cycle in planted-cycle


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[1:]


def _positive_edges(network) -> set[tuple[str, str]]:
    """Edges whose endpoints strictly earlier edges already join, in
    (time, tie_rank) order: exactly the births of dimension-1 classes."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    positive = set()
    for pair, _ in sorted(network.edges.items(), key=lambda kv: (kv[1].time, kv[1].tie_rank)):
        ru, rv = find(pair[0]), find(pair[1])
        if ru == rv:
            positive.add(pair)
        else:
            parent[ru] = rv
    return positive


def inspect_run(out: Path, statuses: dict, *, rerun: bool, gap_openers: int | None) -> tuple[list[str], dict]:
    """Check one run's outputs; gap_openers, when given, selects the
    planted-cycle ground truth with that many closing papers."""
    problems: list[str] = []
    expected = RERUN_STATUSES if rerun else COLD_STATUSES
    if statuses != expected:
        problems.append(f"stage statuses {statuses}, expected {expected}")
    if not verify_manifest(out):
        problems.append("verify_manifest failed")

    ingest = json.loads((out / "ingest.json").read_text(encoding="utf-8"))
    accepted = ingest["accepted"]
    classification = _csv_rows(out / "classification.csv")
    metric_ids = [row[0] for row in _csv_rows(out / "metrics.csv")]
    class_ids = [row[0] for row in classification]
    for name, ids in (("classification.csv", class_ids), ("metrics.csv", metric_ids)):
        if len(ids) != accepted or len(set(ids)) != accepted:
            problems.append(f"{name} has {len(ids)} rows ({len(set(ids))} ids) for {accepted} accepted papers")
    if set(class_ids) != set(metric_ids):
        problems.append("classification.csv and metrics.csv list different papers")
    for paper_id, category, n_gap, _ in classification:
        if (category == "GapOpener") != (int(n_gap) > 0):
            problems.append(f"{paper_id}: category {category} with n_gap_edges {n_gap}")
            break

    sums: dict[tuple[str, str, str], float] = defaultdict(float)
    for grouping, group, _, _, fraction, source, _ in _csv_rows(out / "shares.csv"):
        sums[(grouping, group, source)] += float(fraction)
    bad = [key for key, total in sums.items() if abs(total - 1.0) > 1e-9]
    if not sums or bad:
        problems.append(f"shares.csv fractions do not sum to 1 for {bad[:3] or 'any group'}")

    if gap_openers is not None:
        wrong = []
        for paper_id, category, _, _ in classification:
            if _CLOSING_PAPER.match(paper_id):
                truth = "GapOpener"
            elif paper_id.startswith("G"):
                truth = "NoNovelPair"
            else:
                truth = "NovelPairNonGap"
            if category != truth:
                wrong.append(f"{paper_id}={category} (expected {truth})")
        found = sum(1 for row in classification if row[1] == "GapOpener")
        if wrong or found != gap_openers:
            problems.append(f"ground truth: {found} gap openers, expected {gap_openers}; {wrong[:3]}")

    networks = json.loads((out / "networks" / "index.json").read_text(encoding="utf-8"))["disciplines"]
    diagrams = json.loads((out / "diagrams" / "index.json").read_text(encoding="utf-8"))["disciplines"]
    counts = defaultdict(int)
    for discipline in sorted(networks):
        network = load_network(out / networks[discipline]["file"], discipline)
        births: set[tuple[str, str]] = set()
        for dim, u, v, birth, death in _csv_rows(out / diagrams[discipline]["file"]):
            if dim == "2":
                counts["dim2_rows"] += 1
            elif dim == "1":
                births.add((u, v))
                if death == "inf" or int(death) - int(birth) >= MIN_PERSISTENCE:
                    counts["gap_edges"] += 1
                if death != "inf":
                    counts["dim1_pairs"] += 1
        if births != _positive_edges(network):
            problems.append(f"{discipline}: dimension-1 births differ from the positive edges")
        counts["edges"] += len(network.edges)
    # Every triangle either kills a dimension-1 class or is a dimension-2 row.
    counts["triangles"] = counts["dim1_pairs"] + counts["dim2_rows"]

    files = [p for p in sorted(out.rglob("*")) if p.is_file()]
    record = {
        "digests": {name: _sha256(out / name) for name in ("classification.csv", "shares.csv", "metrics.csv")},
        "counts": {
            "papers": ingest["papers"],
            "edges": counts["edges"],
            "triangles": counts["triangles"],
            "dim1_pairs": counts["dim1_pairs"],
            "gap_edges": counts["gap_edges"],
            "artifact_files": len(files),
            "artifact_bytes": sum(p.stat().st_size for p in files),
        },
    }
    return problems, record
