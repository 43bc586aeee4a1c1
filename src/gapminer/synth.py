"""Deterministic synthetic corpus generators for tests and benchmarks.

Two generators are built in:

* planted-cycle: per discipline, one or more concept cycles whose edges
  arrive one year at a time, so the paper contributing the closing edge is
  the unique gap opener of its cycle (a 3-cycle closes as a filled triangle
  and opens nothing). Optional filler papers either introduce a pair of
  brand-new concepts (novel, never a gap) or repeat an already-introduced
  pair (nothing novel).
* random-pairs: a large random corpus with reference lists, venues, authors,
  and coordinates, used for scale runs.

GENERATORS maps each name to its function, whose keyword-only parameters
are the generator's settings and the `gapminer synth` flags. Given the same
parameters and seed, output files are byte-identical.
"""

from __future__ import annotations

import random
from inspect import Parameter, signature
from pathlib import Path

from .corpus import write_corpus
from .errors import ConfigError

_TITLE_VERBS = (
    "producing", "generating", "developing", "constructing", "confirming",
    "supporting", "improving", "enhancing", "exploiting", "launching",
)


def _shuffled_take(rng: random.Random, items: list, k: int) -> list:
    pool = list(items)
    rng.shuffle(pool)
    return pool[:k]


def planted_cycle(
    out_path: Path,
    seed: int,
    *,
    cycle_len: int = 5,
    cycles: int = 1,
    disciplines: int = 1,
    filler_fresh: int = 0,
    filler_dup: int = 0,
) -> Path:
    """One gap opener per planted cycle: the paper closing the loop.

    Cycle k of discipline d walks concepts D{d}K{k}C0..C{n-1}; edge i arrives
    in year 2000 + i, so the wrap-around edge arrives last. Fresh
    fillers introduce two brand-new concepts; duplicate fillers re-state the
    first cycle edge a year after the cycle completed.
    """
    if cycle_len < 3:
        raise ConfigError("cycle length must be at least 3")
    if disciplines < 1 or cycles < 1:
        raise ConfigError("need at least one discipline and one cycle")
    rng = random.Random(seed)
    records: list[dict] = []
    earlier: dict[int, list[str]] = {}  # each discipline's papers so far

    def emit(paper_id: str, year: int, d: int, concepts: list[str]) -> None:
        """One paper of discipline D{d}, citing up to three earlier ones of
        it, with one to three of the discipline's eight authors."""
        cited = earlier.setdefault(d, [])
        n_refs = rng.randrange(min(3, len(cited)) + 1) if cited else 0
        record = {
            "id": paper_id,
            "year": year,
            "l0": [[f"D{d}", 1.0]],
            "l3": [[c, 1.0] for c in sorted(concepts)],
            "refs": sorted(_shuffled_take(rng, cited, n_refs)),
            "title": f"{_TITLE_VERBS[rng.randrange(len(_TITLE_VERBS))]} "
            f"{concepts[0]} with {concepts[-1]}",
            "venue": f"VD{d}_{rng.randrange(3)}",
            "authors": _shuffled_take(rng, [f"A{d}_{i}" for i in range(8)], 1 + rng.randrange(3)),
        }
        affil = [
            [author, round(rng.random() * 140 - 70, 4), round(rng.random() * 360 - 180, 4)]
            for author in record["authors"]
            if rng.random() < 0.7
        ]
        if affil:
            record["affil"] = affil
        cited.append(paper_id)
        records.append(record)

    for d in range(disciplines):
        for k in range(cycles):
            concepts = [f"D{d}K{k}C{i}" for i in range(cycle_len)]
            for i in range(cycle_len):
                pair = [concepts[i], concepts[(i + 1) % cycle_len]]
                emit(f"D{d}K{k}P{i:03d}", 2000 + i, d, pair)
    for j in range(filler_fresh):
        d = j % disciplines
        emit(f"F{j:05d}", 2000 + (j % cycle_len), d, [f"D{d}F{j}a", f"D{d}F{j}b"])
    for j in range(filler_dup):
        d, k = j % disciplines, j % cycles
        emit(f"G{j:05d}", 2000 + cycle_len, d, [f"D{d}K{k}C0", f"D{d}K{k}C1"])
    return write_corpus(records, out_path)


def random_pairs(
    out_path: Path,
    seed: int,
    *,
    papers: int = 1000,
    concepts: int = 200,
    disciplines: int = 4,
    venues: int = 50,
    author_pool: int = 500,
    max_refs: int = 6,
) -> Path:
    """Uniform random corpus; concepts are partitioned across disciplines."""
    for name, value, floor in (
        ("papers", papers, 0), ("max_refs", max_refs, 0), ("disciplines", disciplines, 1),
        ("venues", venues, 1), ("author_pool", author_pool, 1),
    ):
        if value < floor:
            raise ConfigError(f"{name} must be at least {floor}")
    if concepts < disciplines * 4:
        raise ConfigError("concepts must be at least four per discipline")
    rng = random.Random(seed)
    per_discipline = concepts // disciplines
    lines: list[dict] = []
    for j in range(papers):
        d = rng.randrange(disciplines)
        base = d * per_discipline
        k = 2 + rng.randrange(3)
        chosen: set[int] = set()
        while len(chosen) < k:
            chosen.add(base + rng.randrange(per_discipline))
        l0 = [[f"D{d}", 1.0]]
        if disciplines > 1 and rng.random() < 0.1:
            d2 = rng.randrange(disciplines - 1)
            if d2 >= d:
                d2 += 1
            l0.append([f"D{d2}", 1.0])
        record: dict = {
            "id": f"P{j:07d}",
            "year": 1980 + rng.randrange(41),
            "l0": sorted(l0),
            "l3": [[f"C{c:06d}", 1.0] for c in sorted(chosen)],
            "refs": [],
        }
        if j and max_refs:
            n_refs = rng.randrange(0, max_refs + 1)
            refs = {f"P{rng.randrange(j):07d}" for _ in range(n_refs)}
            record["refs"] = sorted(refs)
        record["venue"] = f"V{rng.randrange(venues):05d}"
        team_size = 1 + rng.randrange(5)
        team = sorted({f"A{rng.randrange(author_pool):06d}" for _ in range(team_size)})
        record["authors"] = team
        affil = []
        for author in team:
            if rng.random() < 0.5:
                affil.append(
                    [author, round(rng.random() * 140 - 70, 4), round(rng.random() * 360 - 180, 4)]
                )
        if affil:
            record["affil"] = affil
        record["title"] = (
            f"{_TITLE_VERBS[rng.randrange(len(_TITLE_VERBS))]} topic {j % 97}"
        )
        lines.append(record)
    return write_corpus(lines, out_path)


GENERATORS = {"planted-cycle": planted_cycle, "random-pairs": random_pairs}


def generator_params(generator: str) -> list[Parameter]:
    """The named generator's settings: its keyword-only parameters."""
    parameters = signature(GENERATORS[generator]).parameters.values()
    return [p for p in parameters if p.kind is Parameter.KEYWORD_ONLY]


def make_synthetic(generator: str, out_path: Path, seed: int, **params) -> Path:
    """Run a named generator. An unknown name, or a parameter the generator
    does not take, is a config error, raised before anything is written."""
    if generator not in GENERATORS:
        raise ConfigError(f"unknown generator {generator!r}; available: {', '.join(GENERATORS)}")
    unknown = sorted(set(params) - {p.name for p in generator_params(generator)})
    if unknown:
        flags = ", ".join("--" + name.replace("_", "-") for name in unknown)
        raise ConfigError(f"generator {generator} does not take {flags}")
    return GENERATORS[generator](out_path, seed, **params)
