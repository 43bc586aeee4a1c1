"""Per-paper scientometric quantities.

Covers the disruption index with yearly percentiles, the Sleeping Beauty
coefficient, reference-journal novelty against a citation-switched baseline,
fixed citation windows with top-cited flags, concept age/popularity for novel
pairs, team composition, and title verb ratios. All functions are pure over
the immutable store and citation index; missing values are returned as None
and exported as empty fields.
"""

from __future__ import annotations

import logging
import math
import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .concept_net import Pair
from .corpus import CitationIndex, CorpusStore, PaperRecord
from .util import derive_seed

logger = logging.getLogger(__name__)

EARTH_RADIUS_KM = 6371.0088
CITATION_WINDOWS = tuple(range(1, 21))
TOP_K_LEVELS = (1, 5, 10, 15, 20)


# --------------------------------------------------------------------------
# Disruption
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DisruptionCounts:
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

    def in_window(pid: str) -> bool:
        if window is None:
            return True
        return paper.year <= index.year_of[pid] <= paper.year + window

    citers = {c for c in index.citers(paper.paper_id) if in_window(c)}
    ref_citers: set[str] = set()
    for ref in paper.references:
        ref_citers.update(c for c in index.citers(ref) if in_window(c))
    ref_citers.discard(paper.paper_id)
    both = citers & ref_citers
    return DisruptionCounts(
        cites_focal_only=len(citers - ref_citers),
        cites_both=len(both),
        cites_refs_only=len(ref_citers - citers),
    )


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

@dataclass(frozen=True)
class CitationTrajectory:
    """Citations per year of age, from publication (age 0) through the
    observable horizon (at most the configured maximum age)."""

    paper_id: str
    counts: tuple[int, ...]

    @property
    def peak_age(self) -> int:
        """Age of the citation peak; earliest year wins ties."""
        best = max(self.counts)
        return self.counts.index(best)


def citation_trajectory(
    paper: PaperRecord,
    index: CitationIndex,
    *,
    horizon_year: int,
    max_age: int = 20,
) -> CitationTrajectory:
    last_age = min(max_age, horizon_year - paper.year)
    counts = [0] * (last_age + 1)
    for citer in index.citers(paper.paper_id):
        age = index.year_of[citer] - paper.year
        if 0 <= age <= last_age:
            counts[age] += 1
    return CitationTrajectory(paper.paper_id, tuple(counts))


def sleeping_beauty(trajectory: CitationTrajectory) -> float:
    """Cumulative normalized deviation below the line from the publication-year
    citation count to the peak; zero when the peak is at age zero or the
    trajectory is exactly linear."""
    peak_age = trajectory.peak_age
    if peak_age == 0:
        return 0.0
    counts = trajectory.counts
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

def citation_windows(
    paper: PaperRecord,
    index: CitationIndex,
    *,
    horizon_year: int,
    windows: Sequence[int] = CITATION_WINDOWS,
) -> dict[int, int | None]:
    """Citations received within `k` years of publication, for each k.

    A window whose end lies beyond the observable horizon is missing rather
    than zero (right-censoring).
    """
    citer_years = [index.year_of[c] for c in index.citers(paper.paper_id)]
    out: dict[int, int | None] = {}
    for k in windows:
        if paper.year + k > horizon_year:
            out[k] = None
        else:
            out[k] = sum(1 for y in citer_years if paper.year <= y <= paper.year + k)
    return out


def top_k_flag(
    citation_counts: Mapping[str, int],
    k: float,
    cohort_of: Mapping[str, Sequence[object]],
) -> dict[str, int]:
    """1 for papers among the top k% by citations in any of their cohorts.

    The threshold is the m-th largest count with m = max(1, floor(k*n/100));
    ties at the threshold are all flagged (so degenerate cohorts flag
    everyone). Membership in several cohorts flags on any of them.
    """
    flags, _ = top_k_flag_detailed(citation_counts, k, cohort_of)
    return flags


def top_k_flag_detailed(
    citation_counts: Mapping[str, int],
    k: float,
    cohort_of: Mapping[str, Sequence[object]],
) -> tuple[dict[str, int], int]:
    cohorts: dict[object, list[str]] = defaultdict(list)
    for pid in citation_counts:
        for key in cohort_of[pid]:
            cohorts[key].append(pid)
    flags = {pid: 0 for pid in citation_counts}
    widened = 0
    for members in cohorts.values():
        counts = sorted((citation_counts[pid] for pid in members), reverse=True)
        m = max(1, math.floor(k * len(members) / 100.0))
        threshold = counts[m - 1]
        flagged = 0
        for pid in members:
            if citation_counts[pid] >= threshold:
                flags[pid] = 1
                flagged += 1
        if flagged > m:
            widened += 1
    if widened:
        logger.info("top-%s%%: ties widened the flagged set in %d cohorts", k, widened)
    return flags, widened


# --------------------------------------------------------------------------
# Novelty (reference-journal pairing z-scores)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NoveltyProfile:
    paper_id: str
    z_scores: tuple[float, ...]
    tenth_percentile: float
    yearly_percentile: float | None = None


def _pair_counts(
    edges: Sequence[tuple[str, str]], venue_of: Mapping[str, str]
) -> Counter:
    """Journal co-citation counts: number of citing papers whose reference
    list contains each unordered venue pair (same-venue pairs need two
    references into that venue). Each paper counts a pair at most once."""
    per_paper: dict[str, list[str]] = defaultdict(list)
    for citing, cited in edges:
        per_paper[citing].append(venue_of[cited])
    counts: Counter = Counter()
    for venues in per_paper.values():
        pairs = set()
        n = len(venues)
        for i in range(n):
            vi = venues[i]
            for j in range(i + 1, n):
                vj = venues[j]
                pairs.add((vi, vj) if vi <= vj else (vj, vi))
        counts.update(pairs)
    return counts


def _rewire(
    edges: list[tuple[str, str]], rng: random.Random, factor: int
) -> list[tuple[str, str]]:
    """Citation switching: swap the cited endpoints of random edge pairs.

    Preserves each paper's reference count and each cited paper's (hence each
    journal's) citation count exactly; swaps creating duplicate references or
    self-citations are rejected.

    Each attempt draws two edge positions exactly as `rng.randrange(total)`
    does (getrandbits of total.bit_length() bits, redrawn while out of range),
    so the random stream, every accepted swap and the final `rng` state are
    those of the randrange loop kept in tests/helpers.py.
    """
    total = len(edges)
    if total < 2:
        return list(edges)
    ids: dict[str, int] = {}
    citing = [ids.setdefault(p, len(ids)) for p, _ in edges]
    cited = [ids.setdefault(r, len(ids)) for _, r in edges]
    n = len(ids)
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
    names = list(ids)
    return [(names[p], names[r]) for p, r in zip(citing, cited)]


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
    """Observed journal-pair counts for one publication year plus the
    randomized baseline from citation-switched replicates."""

    def __init__(
        self,
        store: CorpusStore,
        year: int,
        *,
        n_rand: int = 10,
        seed: int = 0,
        rewire_factor: int = 10,
        std_floor: float = 1e-6,
    ) -> None:
        if n_rand < 1:
            raise ValueError("n_rand must be at least 1")
        self.year = year
        self.std_floor = std_floor
        self.n_rand = n_rand
        venue_of: dict[str, str] = {}
        edges: list[tuple[str, str]] = []
        for pid in store.by_year.get(year, ()):
            for ref in store.papers[pid].references:
                cited = store.papers.get(ref)
                if cited is None or cited.venue_id is None:
                    continue
                venue_of[ref] = cited.venue_id
                edges.append((pid, ref))
        self._venue_of = venue_of
        self._edges = edges
        self.observed = _pair_counts(edges, venue_of)
        sums: dict[tuple[str, str], float] = defaultdict(float)
        squares: dict[tuple[str, str], float] = defaultdict(float)
        for replicate in range(n_rand):
            rng = random.Random(derive_seed(seed, "rewire", year, replicate))
            counts = _pair_counts(_rewire(edges, rng, rewire_factor), venue_of)
            for pair, c in counts.items():
                sums[pair] += c
                squares[pair] += c * c
        self._sums = sums
        self._squares = squares

    def resolvable_refs(self, paper: PaperRecord) -> list[str]:
        return [r for r in paper.references if r in self._venue_of]

    def venue(self, ref: str) -> str:
        return self._venue_of[ref]

    def z(self, pair: tuple[str, str]) -> float:
        observed = self.observed.get(pair, 0)
        mean = self._sums.get(pair, 0.0) / self.n_rand
        variance = max(self._squares.get(pair, 0.0) / self.n_rand - mean * mean, 0.0)
        return (observed - mean) / max(math.sqrt(variance), self.std_floor)


def novelty(
    paper: PaperRecord,
    store: CorpusStore,
    index: CitationIndex,
    n_rand: int = 10,
    seed: int = 0,
    *,
    baseline: YearCocitationBaseline | None = None,
    rewire_factor: int = 10,
) -> NoveltyProfile | None:
    """Z-score profile of the paper's referenced-journal pairs.

    The 10th percentile of the distribution (linear interpolation) is the
    novelty proxy; lower means more atypical pairings. Requires references
    resolving to at least two distinct venues, else None. The yearly
    percentile is filled by compute_novelty_profiles.
    """
    if baseline is None:
        baseline = YearCocitationBaseline(
            store, paper.year, n_rand=n_rand, seed=seed, rewire_factor=rewire_factor
        )
    refs = baseline.resolvable_refs(paper)
    if len(refs) < 2:
        return None
    venues = [baseline.venue(r) for r in refs]
    if len(set(venues)) < 2:
        return None
    z_scores = []
    for i, j in combinations(range(len(refs)), 2):
        vi, vj = venues[i], venues[j]
        z_scores.append(baseline.z((vi, vj) if vi <= vj else (vj, vi)))
    tenth = _percentile(z_scores, 10)
    return NoveltyProfile(paper.paper_id, tuple(z_scores), tenth)


def compute_novelty_profiles(
    store: CorpusStore,
    index: CitationIndex,
    *,
    n_rand: int = 10,
    seed: int = 0,
    rewire_factor: int = 10,
) -> dict[str, NoveltyProfile]:
    """Novelty for every eligible paper, with yearly percentiles filled in."""
    profiles: dict[str, NoveltyProfile] = {}
    for year in store.years():
        baseline = YearCocitationBaseline(
            store, year, n_rand=n_rand, seed=seed, rewire_factor=rewire_factor
        )
        for pid in store.by_year[year]:
            profile = novelty(
                store.papers[pid], store, index, n_rand, seed, baseline=baseline
            )
            if profile is not None:
                profiles[pid] = profile
    tenths = {pid: p.tenth_percentile for pid, p in profiles.items()}
    year_of = {pid: store.papers[pid].year for pid in profiles}
    percentiles = percentile_rank(tenths, year_of)
    return {
        pid: NoveltyProfile(pid, p.z_scores, p.tenth_percentile, percentiles[pid])
        for pid, p in profiles.items()
    }


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

    def count_through(self, concept: str, year: int) -> int:
        return bisect_right(self._years.get(concept, ()), year)


@dataclass(frozen=True)
class ConceptPairStats:
    concept_age: float
    concept_popularity: float
    popularity_after_5y: float
    popularity_after_10y: float


def concept_pair_stats(
    paper: PaperRecord,
    pairs: Iterable[Pair],
    store: CorpusStore,
    occurrences: ConceptOccurrences | None = None,
) -> ConceptPairStats | None:
    """Average endpoint age and prior-occurrence count over the paper's novel
    pairs, plus cumulative occurrence counts five and ten years on."""
    pairs = sorted(pairs)
    if not pairs:
        return None
    if occurrences is None:
        occurrences = ConceptOccurrences(store)
    registry = store.concept_registry
    ages = []
    prior = []
    after5 = []
    after10 = []
    for u, v in pairs:
        ages.append(
            (
                (paper.year - registry[u].first_year_seen)
                + (paper.year - registry[v].first_year_seen)
            )
            / 2.0
        )
        prior.append(
            (occurrences.count_before(u, paper.year) + occurrences.count_before(v, paper.year))
            / 2.0
        )
        after5.append(
            (
                occurrences.count_through(u, paper.year + 5)
                + occurrences.count_through(v, paper.year + 5)
            )
            / 2.0
        )
        after10.append(
            (
                occurrences.count_through(u, paper.year + 10)
                + occurrences.count_through(v, paper.year + 10)
            )
            / 2.0
        )
    n = len(pairs)
    return ConceptPairStats(
        concept_age=sum(ages) / n,
        concept_popularity=sum(prior) / n,
        popularity_after_5y=sum(after5) / n,
        popularity_after_10y=sum(after10) / n,
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

    def collaborated_before(self, a: str, b: str, year: int) -> bool:
        key = (a, b) if a < b else (b, a)
        joint = self._joint.get(key)
        return joint is not None and joint < year


@dataclass(frozen=True)
class TeamStats:
    team_size: int
    mean_career_age: float | None
    freshness: float | None
    mean_geo_distance_km: float | None


def haversine_km(
    lat1: float, lon1: float, lat2: float, lon2: float, radius: float = EARTH_RADIUS_KM
) -> float:
    """Great-circle distance on a spherical Earth."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * radius * math.asin(min(1.0, math.sqrt(a)))


def team_stats(
    paper: PaperRecord,
    authors: AuthorIndex,
    *,
    freshness_min_size: int = 2,
    freshness_max_size: int = 20,
) -> TeamStats:
    """Team size, mean career age, freshness, and mean pairwise distance.

    Freshness (share of members with no prior collaboration with any current
    teammate) is only defined for team sizes within the configured range;
    distance needs at least two located affiliations. Out-of-range inputs
    yield per-field missing values.
    """
    size = len(paper.authors)
    career: float | None = None
    if size:
        first_years = [authors.first_year(a) for a in paper.authors]
        career = sum(paper.year - (fy if fy is not None else paper.year) for fy in first_years) / size
    freshness: float | None = None
    if freshness_min_size <= size <= freshness_max_size:
        fresh = 0
        for a in paper.authors:
            teammates = [b for b in paper.authors if b != a]
            if not any(authors.collaborated_before(a, b, paper.year) for b in teammates):
                fresh += 1
        freshness = fresh / size
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
) -> dict[str, float]:
    """Per-verb ratio of occurrences per million tokens between two title
    collections. Verbs absent from B map to +inf, absent from both are
    omitted."""
    if not titles_a or not titles_b:
        raise ValueError("both title collections must be non-empty")
    lex = frozenset(lexicon)
    counts_a, total_a = _verb_frequencies(titles_a, lex)
    counts_b, total_b = _verb_frequencies(titles_b, lex)
    if total_a == 0 or total_b == 0:
        raise ValueError("title collections must contain at least one token")
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

METRICS_HEADER = (
    ("paper_id", "category", "cd", "cd_pct", "sb", "novelty_pct")
    + tuple(f"c{k}" for k in CITATION_WINDOWS)
    + tuple(f"top{k}" for k in TOP_K_LEVELS)
    + ("concept_age", "concept_pop", "team_size", "career_age", "freshness", "geo_km")
)


def compute_metrics_rows(
    store: CorpusStore,
    index: CitationIndex,
    categories: Mapping[str, str],
    novel_pairs_by_paper: Mapping[str, Iterable[Pair]],
    *,
    seed: int = 0,
    n_rand: int = 10,
    rewire_factor: int = 10,
    cd_window: int | None = None,
    sb_horizon: int = 20,
) -> list[tuple]:
    """One row per paper, in (year, paper_id) order, matching METRICS_HEADER."""
    horizon = store.year_max()
    if horizon is None:
        return []
    occurrences = ConceptOccurrences(store)
    authors = AuthorIndex(store)
    novelty_profiles = compute_novelty_profiles(
        store, index, n_rand=n_rand, seed=seed, rewire_factor=rewire_factor
    )

    cd_values: dict[str, float] = {}
    for rec in store.iter_papers():
        value = cd_index(rec, index, window=cd_window)
        if value is not None:
            cd_values[rec.paper_id] = value
    year_of = {pid: rec.year for pid, rec in store.papers.items()}
    cd_percentiles = percentile_rank(cd_values, year_of)

    citation_counts = {pid: index.citation_count(pid) for pid in store.papers}
    cohort_of = {
        pid: [(rec.year, d) for d in rec.level0_ids]
        for pid, rec in store.papers.items()
    }
    top_flags = {k: top_k_flag(citation_counts, k, cohort_of) for k in TOP_K_LEVELS}

    rows: list[tuple] = []
    for rec in store.iter_papers():
        pid = rec.paper_id
        trajectory = citation_trajectory(rec, index, horizon_year=horizon, max_age=sb_horizon)
        windows = citation_windows(rec, index, horizon_year=horizon)
        profile = novelty_profiles.get(pid)
        pair_stats = concept_pair_stats(
            rec, novel_pairs_by_paper.get(pid, ()), store, occurrences
        )
        team = team_stats(rec, authors)
        row = (
            pid,
            categories[pid],
            cd_values.get(pid),
            cd_percentiles.get(pid),
            sleeping_beauty(trajectory),
            profile.yearly_percentile if profile else None,
            *(windows[k] for k in CITATION_WINDOWS),
            *(top_flags[k][pid] for k in TOP_K_LEVELS),
            pair_stats.concept_age if pair_stats else None,
            pair_stats.concept_popularity if pair_stats else None,
            team.team_size if rec.authors else None,
            team.mean_career_age,
            team.freshness,
            team.mean_geo_distance_km,
        )
        rows.append(row)
    return rows
