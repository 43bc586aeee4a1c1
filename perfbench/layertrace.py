"""Span tracing of gapminer's layers, installed from outside the program.

The tracer replaces each public layer function listed in LAYERS with a
wrapper, in every gapminer module namespace that holds a reference to it
(`from .topology import ...` copies a reference into `pipeline` and
`classify`, so each copy is replaced). A wrapper records one span (name,
start, end, parent) per call plus counts taken from the returned value.
Stage spans come from the pipeline's own `stage <name>: ...` INFO log lines,
caught by a logging handler, so no private method is touched.

Spans are kept in memory and handed to the caller at the end of the run.
Spans recorded inside pool workers never reach this process, which is why
traced runs use threads=1.
"""

from __future__ import annotations

import functools
import logging
import re
import sys
import time
from typing import Callable

from gapminer.pipeline import STAGES

_STAGE_LINE = re.compile(r"stage (\w+): (running|inputs unchanged, skipped)$")

# Time spent extracting counts after a call returns; excluded from self times.
BOOKKEEPING = "trace.bookkeeping"


def _triangles(filtration, args, kwargs) -> dict:
    return {"triangles": sum(1 for s in filtration.simplices if len(s.vertices) == 3)}


def _dim1_pairs(diagram, args, kwargs) -> dict:
    return {"pairs_dim1": sum(1 for p in diagram.pairs if p.dim == 1)}


def _diagram_rows(_, args, kwargs) -> dict:
    records = args[0]
    return {"rows": len(records), "dim2_rows": sum(1 for r in records if r.dim == 2)}


def _gap_openers(classifications, args, kwargs) -> dict:
    return {"gap_openers": sum(1 for c in classifications.values() if c.category.value == "GapOpener")}


def _swap_attempts(baseline, args, kwargs) -> dict:
    # _rewire makes rewire_factor * len(edges) attempts per replicate, and none
    # when a year has fewer than two resolvable citation edges.
    store, year = args[0], args[1]
    edges = sum(len(baseline.resolvable_refs(store.papers[pid])) for pid in store.by_year.get(year, ()))
    if edges < 2:
        return {"swap_attempts": 0}
    return {"swap_attempts": kwargs.get("rewire_factor", 10) * baseline.n_rand * edges}


# (module, attribute, counter): the layer calls the traced run records.
LAYERS: tuple[tuple[str, str, Callable | None], ...] = (
    ("corpus", "load_corpus", lambda store, a, k: {"papers": len(store)}),
    ("corpus", "save_corpus", None),
    ("corpus", "build_citation_index", None),
    ("corpus", "CorpusStore.from_records", None),
    ("concept_net", "build_network", lambda net, a, k: {"edges": len(net.edges)}),
    ("concept_net", "randomize_labels", None),
    ("concept_net", "save_network", None),
    ("concept_net", "load_network", None),
    ("topology", "build_flag_filtration", _triangles),
    ("topology", "compute_persistence", _dim1_pairs),
    ("topology", "save_diagram_records", _diagram_rows),
    ("topology", "load_diagram_records", None),
    ("topology", "gap_edges", lambda edges, a, k: {"gap_edges": len(edges)}),
    ("classify", "classify_all", _gap_openers),
    ("classify", "share_table", None),
    ("classify", "null_comparison", None),
    ("metrics", "compute_metrics_rows", None),
    ("metrics", "compute_novelty_profiles", None),
    ("metrics", "YearCocitationBaseline", _swap_attempts),
    ("metrics", "cd_index", None),
    ("metrics", "percentile_rank", None),
)


class Tracer:
    """Collects spans as dicts: name, start, end, parent index, counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._stage: int | None = None
        self._root: int | None = None

    # ---- spans ----------------------------------------------------------------

    def _open(self, name: str, parent: int | None) -> int:
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "counts": {}}
        )
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()

    def _call_parent(self) -> int | None:
        if self._stack:
            return self._stack[-1]
        return self._stage if self._stage is not None else self._root

    def begin(self) -> None:
        """Open the root span covering one pipeline.run call."""
        self._root = self._open("pipeline.run", None)

    def end(self) -> None:
        if self._stage is not None:
            self._close(self._stage)
            self._stage = None
        self._close(self._root)

    def stage(self, name: str) -> None:
        """A stage begins where the previous one ends."""
        if self._stage is not None:
            self._close(self._stage)
        self._stage = self._open(f"pipeline.{name}", self._root)

    # ---- installation -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name, tracer._call_parent())
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer._close(index)
            if counter is not None:
                book = tracer._open(BOOKKEEPING, tracer._call_parent())
                tracer.spans[index]["counts"] = counter(result, args, kwargs)
                tracer._close(book)
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS entry in every loaded gapminer module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("gapminer.")]
        for module_name, attr, counter in LAYERS:
            home = sys.modules[f"gapminer.{module_name}"]
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = getattr(cls, method).__func__
                wrapped = self.wrap(name, original, counter)
                setattr(cls, method, classmethod(wrapped))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        logger = logging.getLogger("gapminer.pipeline")
        logger.addHandler(_StageHandler(self))
        logger.setLevel(logging.INFO)


class _StageHandler(logging.Handler):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        match = _STAGE_LINE.match(record.getMessage())
        if match:
            self.tracer.stage(match.group(1))


# ---- per-layer metrics ---------------------------------------------------------

LAYER_TIMES = tuple(f"{module}.{attr.rsplit('.', 1)[-1]}" for module, attr, _ in LAYERS)
_METRIC_NAMES = {"metrics.YearCocitationBaseline": "metrics.cocitation_baseline"}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], null_replicates: int) -> dict[str, float]:
    """Per-layer numbers of one traced cold run (see README.md for each)."""

    def ancestors(span: dict) -> set[str]:
        names = set()
        while span["parent"] is not None:
            span = spans[span["parent"]]
            names.add(span["name"])
        return names

    def calls(name: str, *, within: str | None = None, real_only: bool = False) -> list[dict]:
        found = []
        for span in spans:
            if span["name"] != name:
                continue
            above = ancestors(span)
            if within is not None and within not in above:
                continue
            if real_only and "classify.null_comparison" in above:
                continue
            found.append(span)
        return found

    def total(name: str) -> float:
        return sum(_duration(s) for s in calls(name))

    def count(name: str, key: str, **scope) -> int:
        return sum(s["counts"][key] for s in calls(name, **scope))

    out: dict[str, float] = {}
    root = next(s for s in spans if s["name"] == "pipeline.run")
    for stage in STAGES:
        out[f"pipeline.{stage}_s"] = total(f"pipeline.{stage}")
    # Self time of the pipeline: run time that no layer call covers.
    layers = set(LAYER_TIMES)
    covered = sum(
        _duration(s)
        for s in spans
        if (s["name"] in layers or s["name"] == BOOKKEEPING) and not ancestors(s) & layers
    )
    out["pipeline.self_s"] = _duration(root) - covered
    for name in LAYER_TIMES:
        if name != "topology.gap_edges":  # wrapped for its count only
            out[f"{_METRIC_NAMES.get(name, name)}_s"] = total(name)
    out["classify.null_replicate_s"] = out["classify.null_comparison_s"] / max(null_replicates, 1)

    out["corpus.papers"] = count("corpus.load_corpus", "papers", within="pipeline.ingest")
    out["concept_net.build_network_calls"] = len(calls("concept_net.build_network"))
    out["concept_net.edges"] = count("concept_net.build_network", "edges", within="pipeline.network")
    triangles = count("topology.build_flag_filtration", "triangles", within="pipeline.persist")
    deaths = count("topology.compute_persistence", "pairs_dim1", within="pipeline.persist")
    rows = count("topology.save_diagram_records", "rows", within="pipeline.persist")
    dim2 = count("topology.save_diagram_records", "dim2_rows", within="pipeline.persist")
    out["topology.triangles"] = triangles
    out["topology.pairs_dim1"] = deaths
    out["topology.gap_edges"] = count(
        "topology.gap_edges", "gap_edges", within="pipeline.classify", real_only=True
    )
    out["topology.diagram_rows"] = rows
    out["topology.dim2_row_share"] = dim2 / rows if rows else 0.0
    # Dimension-1 deaths per triangle built; 0 when no triangle was built.
    out["topology.triangle_yield"] = deaths / triangles if triangles else 0.0
    out["classify.gap_openers"] = count(
        "classify.classify_all", "gap_openers", within="pipeline.classify", real_only=True
    )
    out["metrics.swap_attempts"] = count("metrics.YearCocitationBaseline", "swap_attempts")
    return out
