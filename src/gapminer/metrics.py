"""Per-paper scientometric quantities.

Covers the disruption index with yearly percentiles, the Sleeping Beauty
coefficient, reference-journal novelty against a citation-switched baseline,
fixed citation windows with top-cited flags, concept age/popularity for novel
pairs, team composition, and title verb ratios. All functions are pure over
the immutable store and citation index; missing values are returned as None
and exported as empty fields.

The per-paper table is built in two parts: `paper_stats_rows` computes every
column that no seed decides (the network stage's paper_stats.csv, read back
as text by `load_paper_stats`), and `compute_metrics_rows` splices the
category and the seeded novelty percentile into those rows. Each part hands
out one row at a time, so neither table is ever held whole.
"""

from __future__ import annotations

import logging
import math
import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate, combinations
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .concept_net import Pair
from .corpus import CitationIndex, CorpusStore, PaperRecord
from .util import derive_seed, read_csv

logger = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0088
Z_STD_FLOOR = 1e-6  # the least standard deviation a novelty z-score divides by
REWIRE_FACTOR = 10  # citation-switching attempts per edge, per replicate
FRESHNESS_TEAM_SIZES = range(2, 21)  # team sizes whose freshness is defined
CITATION_WINDOWS = tuple(range(1, 21))
TOP_K_LEVELS = (1, 5, 10, 15, 20)


# --------------------------------------------------------------------------
# Disruption
# --------------------------------------------------------------------------

class DisruptionCounts(NamedTuple):
    cites_focal_only: int
    cites_both: int
    cites_refs_only: int


def disruption_counts(
    paper: PaperRecord, index: CitationIndex, *, window: int | None = None
) -> DisruptionCounts:
    """Partition the citation neighborhood of a paper.

    cites_focal_only: papers citing it but none of its references;
    cites_both: papers citing it and at least one reference;
    cites_refs_only: papers citing a reference but not the paper itself.
    With a window, only citers published within `window` years count.
    """
    forward = index.forward
    citers = forward.get(paper.paper_id, frozenset())
    ref_citers = set().union(*[forward.get(ref, ()) for ref in paper.references])
    ref_citers.discard(paper.paper_id)
    if window is not None:
        year_of = index.year_of
        first, last = paper.year, paper.year + window
        citers = {c for c in citers if first <= year_of[c] <= last}
        ref_citers = {c for c in ref_citers if first <= year_of[c] <= last}
    both = len(citers & ref_citers)
    return DisruptionCounts(len(citers) - both, both, len(ref_citers) - both)


def cd_index(
    paper: PaperRecord, index: CitationIndex, *, window: int | None = None
) -> float | None:
    """(only-focal - both) / (only-focal + both + only-refs), in [-1, 1].

    Undefined (None) for papers without references or with an empty citation
    neighborhood; those are excluded downstream.
    """
    if not paper.references:
        return None
    counts = disruption_counts(paper, index, window=window)
    denominator = counts.cites_focal_only + counts.cites_both + counts.cites_refs_only
    if denominator == 0:
        return None
    return (counts.cites_focal_only - counts.cites_both) / denominator


def percentile_rank(
    values: Mapping[str, float], cohort_of: Mapping[str, object]
) -> dict[str, float]:
    """Mid-rank percentiles in [0, 100] within each cohort.

    percentile = 100 * (strictly below + 0.5 * equal) / cohort size. Ids
    missing from `values` stay missing.
    """
    cohorts: dict[object, list[float]] = defaultdict(list)
    for pid, value in values.items():
        cohorts[cohort_of[pid]].append(value)
    for members in cohorts.values():
        members.sort()
    result: dict[str, float] = {}
    for pid, value in values.items():
        members = cohorts[cohort_of[pid]]
        below = bisect_left(members, value)
        equal = bisect_right(members, value) - below
        result[pid] = 100.0 * (below + 0.5 * equal) / len(members)
    return result


# --------------------------------------------------------------------------
# Sleeping Beauty
# --------------------------------------------------------------------------

def citation_ages(
    paper: PaperRecord, index: CitationIndex, *, horizon_year: int, max_age: int
) -> list[int]:
    """Citations per year of age, from publication (age 0) through
    min(max_age, horizon_year - paper.year), from one pass over the citers.
    Citers dated before the paper have no age and are not counted."""
    year = paper.year
    last_age = min(max_age, horizon_year - year)
    counts = [0] * (last_age + 1)
    year_of = index.year_of
    for citer in index.citers(paper.paper_id):
        age = year_of[citer] - year
        if 0 <= age <= last_age:
            counts[age] += 1
    return counts


def sleeping_beauty(counts: Sequence[int]) -> float:
    """Cumulative normalized deviation below the line from the publication-year
    citation count to the peak, over citations per year of age (age 0 first);
    the earliest peak wins ties. Zero when the peak is at age zero or the
    trajectory is exactly linear."""
    peak_age = counts.index(max(counts))
    if peak_age == 0:
        return 0.0
    first = counts[0]
    slope = (counts[peak_age] - first) / peak_age
    total = 0.0
    for age in range(peak_age + 1):
        reference = slope * age + first
        total += (reference - counts[age]) / max(1, counts[age])
    return total


# --------------------------------------------------------------------------
# Citation windows and top-cited flags
# --------------------------------------------------------------------------

def _windows(ages: Sequence[int], observable: int) -> list[int | None]:
    """Each CITATION_WINDOWS count as a prefix sum of an age histogram that
    reaches age min(20, observable); a window ending after `observable`
    years is None."""
    cumulative = list(accumulate(ages))
    return [cumulative[k] if k <= observable else None for k in CITATION_WINDOWS]


def top_k_flag(
    citation_counts: Mapping[str, int], k: float, cohorts: Mapping[object, Sequence[str]]
) -> set[str]:
    """The papers among the top k% by citations in any of their cohorts;
    `cohorts` maps each cohort to its paper ids.

    The threshold is the m-th largest count with m = max(1, floor(k*n/100));
    ties at the threshold are all flagged (so degenerate cohorts flag
    everyone). Membership in several cohorts flags on any of them.
    """
    flagged: set[str] = set()
    widened = 0
    for members in cohorts.values():
        counts = sorted((citation_counts[pid] for pid in members), reverse=True)
        m = max(1, math.floor(k * len(members) / 100.0))
        threshold = counts[m - 1]
        hits = [pid for pid in members if citation_counts[pid] >= threshold]
        flagged.update(hits)
        if len(hits) > m:
            widened += 1
    if widened:
        logger.info("top-%s%%: ties widened the flagged set in %d cohorts", k, widened)
    return flagged


# --------------------------------------------------------------------------
# Novelty (reference-journal pairing z-scores)
# --------------------------------------------------------------------------

def _switch_citations(
    citing: Sequence[int], cited: list[int], n: int, rng: random.Random, factor: int
) -> None:
    """Citation switching: swap the cited endpoints of random edge pairs, in
    place in `cited`. Edge e is (citing[e], cited[e]), over paper ids in
    range(n) that citing and cited papers share.

    Preserves each paper's reference count and each cited paper's (hence each
    journal's) citation count exactly; swaps creating duplicate references or
    self-citations are rejected.

    Each attempt draws two edge positions exactly as `rng.randrange(total)`
    does (getrandbits of total.bit_length() bits, redrawn while out of range),
    so the random stream, every accepted swap and the final `rng` state are
    those of the randrange loop kept in tests/helpers.py.
    """
    total = len(cited)
    if total < 2:
        return
    # A (citing, cited) pair is the key citing * n + cited; row[e] is the
    # citing part of edge e's key, which swaps never change.
    row = [p * n for p in citing]
    present = {base + r for base, r in zip(row, cited)}
    getrandbits = rng.getrandbits
    k = total.bit_length()
    for _ in range(factor * total):
        a = getrandbits(k)
        while a >= total:
            a = getrandbits(k)
        b = getrandbits(k)
        while b >= total:
            b = getrandbits(k)
        row1 = row[a]
        row2 = row[b]
        if row1 == row2:  # same edge or same citing paper
            continue
        r1 = cited[a]
        r2 = cited[b]
        if r1 == r2:
            continue
        key12 = row1 + r2
        key21 = row2 + r1
        if key12 in present or key21 in present or r2 == citing[a] or r1 == citing[b]:
            continue
        present.remove(row1 + r1)
        present.remove(row2 + r2)
        present.add(key12)
        present.add(key21)
        cited[a] = r2
        cited[b] = r1


def _percentile(values: Iterable[float], q: float) -> float:
    """The q-th percentile by linear interpolation between order statistics
    (Hyndman and Fan's definition 7).

    The float steps are those of the array-library percentile the tests
    compare against, so results agree bit for bit: the virtual index is
    (n - 1) * (q / 100), and the interpolation counts back from the upper
    neighbour once the fraction reaches one half.
    """
    ordered = sorted(values)
    virtual = (len(ordered) - 1) * (q / 100)
    i = math.floor(virtual)
    if i + 1 >= len(ordered):
        return ordered[-1]
    lo = ordered[i]
    hi = ordered[i + 1]
    g = virtual - i
    diff = hi - lo
    return hi - diff * (1 - g) if g >= 0.5 else lo + diff * g


class YearCocitationBaseline:
    """One publication year's journal-pair counts, the randomized baseline
    from citation-switched replicates, and each paper's novelty from them.

    A journal pair's count is the number of citing papers whose resolvable
    references include it (a same-journal pair needs two references into
    that journal); each paper counts a pair at most once. `tenths` maps each
    paper whose references resolve to two or more distinct venues, in the
    year's order, to the 10th percentile of its reference pairs' z-scores:
    the novelty proxy, lower meaning more atypical pairings.
    """

    def __init__(
        self,
        store: CorpusStore,
        year: int,
        *,
        n_rand: int = 10,
        seed: int = 0,
    ) -> None:
        if n_rand < 1:
            raise ValueError("n_rand must be at least 1")
        self.n_rand = n_rand
        venue_of: dict[str, str] = {}
        ids: dict[str, int] = {}  # citing and cited papers share one id space
        citing: list[int] = []
        cited: list[int] = []
        spans: list[tuple[str, int, int]] = []  # papers with two or more edges
        for pid in store.by_year.get(year, ()):
            start = len(cited)
            own = ids.setdefault(pid, len(ids))
            for ref in store.papers[pid].references:
                rec = store.papers.get(ref)
                if rec is None or rec.venue_id is None:
                    continue
                venue_of[ref] = rec.venue_id
                citing.append(own)
                cited.append(ids.setdefault(ref, len(ids)))
            if len(cited) - start >= 2:
                spans.append((pid, start, len(cited)))
        self._venue_of = venue_of
        # Venue codes in name order, so a code pair (a, b) with a <= b is the
        # name pair in order; the pair's key is a * n_venues + b.
        venues = sorted(set(venue_of.values()))
        n_venues = len(venues)
        code = {v: i for i, v in enumerate(venues)}
        venue_code = [0] * len(ids)
        for ref, venue in venue_of.items():
            venue_code[ids[ref]] = code[venue]

        def pair_keys(cited: list[int], start: int, end: int) -> list[int]:
            """The keys of every reference pair of edges start..end-1."""
            codes = sorted(venue_code[r] for r in cited[start:end])
            return [a * n_venues + b for a, b in combinations(codes, 2)]

        def pair_counts(cited: list[int]) -> Counter:
            keys: list[int] = []
            for _, start, end in spans:
                keys.extend(set(pair_keys(cited, start, end)))
            return Counter(keys)

        observed = pair_counts(cited)
        sums = dict.fromkeys(observed, 0.0)
        squares = dict.fromkeys(observed, 0.0)
        for replicate in range(n_rand):
            rng = random.Random(derive_seed(seed, "rewire", year, replicate))
            switched = list(cited)
            _switch_citations(citing, switched, len(ids), rng, REWIRE_FACTOR)
            counts = pair_counts(switched)
            for key in sums:
                c = counts.get(key, 0)
                sums[key] += c
                squares[key] += c * c

        def z(key: int) -> float:
            mean = sums[key] / n_rand
            variance = max(squares[key] / n_rand - mean * mean, 0.0)
            return (observed[key] - mean) / max(math.sqrt(variance), Z_STD_FLOOR)

        self.tenths: dict[str, float] = {
            pid: _percentile(map(z, pair_keys(cited, start, end)), 10)
            for pid, start, end in spans
            if len({venue_code[r] for r in cited[start:end]}) >= 2
        }

    def resolvable_refs(self, paper: PaperRecord) -> list[str]:
        return [r for r in paper.references if r in self._venue_of]


def compute_novelty_profiles(
    store: CorpusStore, *, n_rand: int = 10, seed: int = 0
) -> dict[str, float]:
    """Each eligible paper's novelty as a percentile within its year."""
    tenths: dict[str, float] = {}
    for year in store.years():
        tenths.update(YearCocitationBaseline(store, year, n_rand=n_rand, seed=seed).tenths)
    return percentile_rank(tenths, {pid: store.papers[pid].year for pid in tenths})


# --------------------------------------------------------------------------
# Concept pair statistics
# --------------------------------------------------------------------------

class ConceptOccurrences:
    """Per-concept sorted years of level-3 assignments, for popularity counts."""

    def __init__(self, store: CorpusStore) -> None:
        years: dict[str, list[int]] = defaultdict(list)
        for rec in store.iter_papers():
            for concept in rec.level3_ids:
                years[concept].append(rec.year)
        self._years = {c: sorted(ys) for c, ys in years.items()}

    def count_before(self, concept: str, year: int) -> int:
        return bisect_left(self._years.get(concept, ()), year)

    def first_year(self, concept: str) -> int:
        """The year of the concept's first level-3 assignment."""
        return self._years[concept][0]


@dataclass(frozen=True)
class ConceptPairStats:
    concept_age: float
    concept_popularity: float


def concept_pair_stats(
    paper: PaperRecord,
    pairs: Iterable[Pair],
    occurrences: ConceptOccurrences,
) -> ConceptPairStats | None:
    """Averages over the paper's novel pairs of its endpoints' age, the years
    since a concept's first level-3 use, and of their prior level-3 uses."""
    pairs = sorted(pairs)
    if not pairs:
        return None
    first, before, year = occurrences.first_year, occurrences.count_before, paper.year
    ages = [year - (first(u) + first(v)) / 2.0 for u, v in pairs]
    prior = [(before(u, year) + before(v, year)) / 2.0 for u, v in pairs]
    return ConceptPairStats(
        concept_age=sum(ages) / len(pairs),
        concept_popularity=sum(prior) / len(pairs),
    )


# --------------------------------------------------------------------------
# Team statistics
# --------------------------------------------------------------------------

class AuthorIndex:
    """First publication year per author and first joint year per author pair."""

    def __init__(self, store: CorpusStore) -> None:
        first: dict[str, int] = {}
        joint: dict[tuple[str, str], int] = {}
        for rec in store.iter_papers():
            for author in rec.authors:
                if author not in first or rec.year < first[author]:
                    first[author] = rec.year
            distinct = sorted(set(rec.authors))
            for a, b in combinations(distinct, 2):
                key = (a, b)
                if key not in joint or rec.year < joint[key]:
                    joint[key] = rec.year
        self._first = first
        self._joint = joint

    def first_year(self, author: str) -> int | None:
        return self._first.get(author)

    def repeat_collaborators(self, team: Iterable[str], year: int) -> set[str]:
        """Members of `team` who published with another member before `year`,
        from one look-up per distinct pair."""
        joint = self._joint
        found: set[str] = set()
        for pair in combinations(sorted(set(team)), 2):
            first = joint.get(pair)
            if first is not None and first < year:
                found.update(pair)
        return found


@dataclass(frozen=True)
class TeamStats:
    team_size: int
    mean_career_age: float | None
    freshness: float | None
    mean_geo_distance_km: float | None


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance on a spherical Earth."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def team_stats(paper: PaperRecord, authors: AuthorIndex) -> TeamStats:
    """Team size, mean career age, freshness, and mean pairwise distance.

    Freshness (share of members with no prior collaboration with any current
    teammate) is only defined for team sizes in FRESHNESS_TEAM_SIZES;
    distance needs at least two located affiliations. Out-of-range inputs
    yield per-field missing values.
    """
    size = len(paper.authors)
    career: float | None = None
    if size:
        first_years = [authors.first_year(a) for a in paper.authors]
        career = sum(paper.year - (fy if fy is not None else paper.year) for fy in first_years) / size
    freshness: float | None = None
    if size in FRESHNESS_TEAM_SIZES:
        repeat = authors.repeat_collaborators(paper.authors, paper.year)
        freshness = sum(1 for a in paper.authors if a not in repeat) / size
    geo: float | None = None
    located = [(lat, lon) for _, lat, lon in paper.affiliations]
    if len(located) >= 2:
        distances = [
            haversine_km(lat1, lon1, lat2, lon2)
            for (lat1, lon1), (lat2, lon2) in combinations(located, 2)
        ]
        geo = sum(distances) / len(distances)
    return TeamStats(size, career, freshness, geo)


# --------------------------------------------------------------------------
# Title verb ratios
# --------------------------------------------------------------------------

_TOKEN = re.compile(r"[a-z]+")

# Fig-style default lexicon: creation/innovation verbs plus demonstration,
# improvement, and exploitation verbs, with common inflections listed
# explicitly (no stemming).
DEFAULT_VERB_LEXICON = (
    "produce", "produces", "produced", "producing",
    "generate", "generates", "generated", "generating",
    "develop", "develops", "developed", "developing",
    "construct", "constructs", "constructed", "constructing",
    "invent", "invents", "invented", "inventing",
    "embark", "embarks", "embarked", "embarking",
    "launch", "launches", "launched", "launching",
    "revolutionize", "revolutionizes", "revolutionized", "revolutionizing",
    "innovate", "innovates", "innovated", "innovating",
    "pioneer", "pioneers", "pioneered", "pioneering",
    "endorse", "endorses", "endorsed", "endorsing",
    "affirm", "affirms", "affirmed", "affirming",
    "confirm", "confirms", "confirmed", "confirming",
    "support", "supports", "supported", "supporting",
    "demonstrate", "demonstrates", "demonstrated", "demonstrating",
    "ameliorate", "ameliorates", "ameliorated", "ameliorating",
    "promote", "promotes", "promoted", "promoting",
    "enhance", "enhances", "enhanced", "enhancing",
    "modify", "modifies", "modified", "modifying",
    "improve", "improves", "improved", "improving",
    "update", "updates", "updated", "updating",
    "exploit", "exploits", "exploited", "exploiting",
    "leverage", "leverages", "leveraged", "leveraging",
    "extract", "extracts", "extracted", "extracting",
    "harness", "harnesses", "harnessed", "harnessing",
)


def _verb_frequencies(titles: Iterable[str], lexicon: frozenset[str]) -> tuple[Counter, int]:
    counts: Counter = Counter()
    total = 0
    for title in titles:
        tokens = _TOKEN.findall(title.lower())
        total += len(tokens)
        for token in tokens:
            if token in lexicon:
                counts[token] += 1
    return counts, total


def verb_ratio(
    titles_a: Sequence[str],
    titles_b: Sequence[str],
    lexicon: Sequence[str] = DEFAULT_VERB_LEXICON,
) -> dict[str, float] | None:
    """Per-verb ratio of occurrences per million tokens between two title
    collections, or None when either holds no token. Verbs absent from B map
    to +inf, absent from both are omitted."""
    lex = frozenset(lexicon)
    counts_a, total_a = _verb_frequencies(titles_a, lex)
    counts_b, total_b = _verb_frequencies(titles_b, lex)
    if total_a == 0 or total_b == 0:
        return None
    ratios: dict[str, float] = {}
    for verb in sorted(lex):
        freq_a = counts_a.get(verb, 0) * 1e6 / total_a
        freq_b = counts_b.get(verb, 0) * 1e6 / total_b
        if freq_a == 0.0 and freq_b == 0.0:
            continue
        ratios[verb] = math.inf if freq_b == 0.0 else freq_a / freq_b
    return ratios


# --------------------------------------------------------------------------
# Assembled per-paper table
# --------------------------------------------------------------------------

# The seed-free columns, which the network stage writes to paper_stats.csv.
PAPER_STATS_HEADER = (
    ("paper_id", "cd", "cd_pct", "sb")
    + tuple(f"c{k}" for k in CITATION_WINDOWS)
    + tuple(f"top{k}" for k in TOP_K_LEVELS)
    + ("concept_age", "concept_pop", "team_size", "career_age", "freshness", "geo_km")
)


def _splice(stats: Sequence, category: object, novelty_pct: object) -> tuple:
    """A metrics.csv row (or header) from a paper_stats.csv one."""
    return (stats[0], category, *stats[1:4], novelty_pct, *stats[4:])


METRICS_HEADER = _splice(PAPER_STATS_HEADER, "category", "novelty_pct")


def paper_stats_rows(
    store: CorpusStore,
    index: CitationIndex,
    novel_pairs_by_paper: Mapping[str, Iterable[Pair]],
    *,
    cd_window: int | None,
    sb_horizon: int,
) -> Iterator[tuple]:
    """One row per paper, in (year, paper_id) order, matching
    PAPER_STATS_HEADER: every metric that no seed decides, yielded in turn."""
    horizon = store.year_max()
    if horizon is None:
        return
    occurrences = ConceptOccurrences(store)
    authors = AuthorIndex(store)

    cd_values: dict[str, float] = {}
    for rec in store.iter_papers():
        value = cd_index(rec, index, window=cd_window)
        if value is not None:
            cd_values[rec.paper_id] = value
    cd_percentiles = percentile_rank(cd_values, index.year_of)

    citation_counts = {pid: index.citation_count(pid) for pid in store.papers}
    cohorts: dict[tuple[int, str], list[str]] = defaultdict(list)
    for rec in store.iter_papers():
        for discipline in rec.level0_ids:
            cohorts[(rec.year, discipline)].append(rec.paper_id)
    top_flags = [top_k_flag(citation_counts, k, cohorts) for k in TOP_K_LEVELS]

    # One age histogram per paper serves its windows and its trajectory.
    max_age = max(sb_horizon, CITATION_WINDOWS[-1])
    for rec in store.iter_papers():
        pid = rec.paper_id
        ages = citation_ages(rec, index, horizon_year=horizon, max_age=max_age)
        observable = horizon - rec.year
        pair_stats = concept_pair_stats(rec, novel_pairs_by_paper.get(pid, ()), occurrences)
        team = team_stats(rec, authors)
        yield (
            pid,
            cd_values.get(pid),
            cd_percentiles.get(pid),
            sleeping_beauty(ages[: min(sb_horizon, observable) + 1]),
            *_windows(ages, observable),
            *(int(pid in flagged) for flagged in top_flags),
            pair_stats.concept_age if pair_stats else None,
            pair_stats.concept_popularity if pair_stats else None,
            team.team_size if rec.authors else None,
            team.mean_career_age,
            team.freshness,
            team.mean_geo_distance_km,
        )


def _paper_stats_row(row: list[str]) -> list[str]:
    if len(row) != len(PAPER_STATS_HEADER):
        raise ValueError(f"expected {len(PAPER_STATS_HEADER)} fields, got {len(row)}")
    return row


def load_paper_stats(path: str | Path) -> Iterator[list[str]]:
    """The rows of paper_stats.csv as the text fields they hold, read as they
    are asked for; a malformed row or header raises DataError."""
    return read_csv(path, PAPER_STATS_HEADER, _paper_stats_row)


def compute_metrics_rows(
    store: CorpusStore,
    categories: Mapping[str, str],
    paper_stats: Iterable[Sequence],
    *,
    seed: int = 0,
    n_rand: int = 10,
) -> Iterator[tuple]:
    """The metrics.csv rows: each paper_stats row, in its order, with the
    paper's category and seeded novelty percentile spliced in and its other
    fields passed through unchanged. The novelty percentiles are computed
    before this returns; each row is spliced as it is asked for."""
    novelty_percentiles = compute_novelty_profiles(store, n_rand=n_rand, seed=seed)
    return (
        _splice(row, categories[row[0]], novelty_percentiles.get(row[0]))
        for row in paper_stats
    )
