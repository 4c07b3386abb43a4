"""Simulated general-population test sets by balanced subsampling.

Given a pool of scored/labelled records, draw (without replacement) a test
set with exact class sizes, an exact symptomatic fraction per class, a 1:1
gender ratio within each class, and (optionally) the same age-bin
distribution in both classes.

Age equalization targets the normalized per-bin minimum of the two classes'
pool availability (the feasible common envelope) and apportions counts with
largest-remainder rounding; the symptomatic and gender constraints are then
spread across bins by controlled rounding so that every marginal is hit
exactly. Without age equalization each class is one bin holding every age.
Cell draws go through ``rngs.draw_sorted`` (per-cell RNG substreams over
id-sorted members), so results do not depend on pool ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cohort import Cohort
from .errors import ConfigError, InsufficientPool
from .matching import MatchSpec, stratum_keyer, stratum_label, stratum_order
from .rngs import draw_sorted


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Largest-remainder apportionment of ``total`` by ``weights``.

    Ties in remainders resolve toward earlier positions.
    """
    s = sum(weights)
    if s <= 0:
        raise ValueError("weights must have positive sum")
    quotas = [total * w / s for w in weights]
    counts = [int(math.floor(q)) for q in quotas]
    left = total - sum(counts)
    order = sorted(range(len(weights)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in order[:left]:
        counts[i] += 1
    return counts


def _controlled_split(cell_sizes: list[int], part_total: int) -> list[int]:
    """Split ``part_total`` across cells of the given sizes, proportionally,
    such that each part is within [0, cell] and parts sum exactly."""
    remaining_part = part_total
    remaining_all = sum(cell_sizes)
    out = []
    for size in cell_sizes:
        if remaining_all == 0:
            out.append(0)
            continue
        ideal = size * remaining_part / remaining_all
        lo = max(0, remaining_part - (remaining_all - size))
        hi = min(size, remaining_part)
        v = min(hi, max(lo, _round_half_up(ideal)))
        out.append(v)
        remaining_part -= v
        remaining_all -= size
    return out


@dataclass(frozen=True)
class PopulationSpec:
    n_pos: int
    n_neg: int
    p_sym_pos: float = 0.65
    p_sym_neg: float = 0.20
    equalize_age: bool = True
    seed: int = 0

    def __post_init__(self):
        """Raise ``ConfigError`` naming the first field out of its range."""
        for name in ("n_pos", "n_neg"):
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be >= 1")
        for name in ("p_sym_pos", "p_sym_neg"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(name, "must lie in (0, 1)")


@dataclass(frozen=True)
class ResampleReport:
    # records drawn per target cell (label, symptomatic, gender, age bin), the
    # cells ``shortfalls`` names; the bin is None without age equalization
    achieved: dict[tuple, int]
    shortfalls: tuple[tuple, ...]
    # pool records never drawn from, by reason: a blank label ("no_label",
    # checked first) or a blank age ("no_age")
    skipped: dict[str, int]

    def n_total(self) -> int:
        return sum(self.achieved.values())

    def to_dict(self) -> dict:
        return {
            "achieved": {stratum_label(k): self.achieved[k] for k in sorted(self.achieved, key=stratum_order)},
            "shortfalls": [list(stratum_order(c)) for c in self.shortfalls],
            "skipped": self.skipped,
        }


def _pool_index(pool: Cohort) -> tuple[dict[tuple, list[str]], dict[str, int]]:
    """Ids by (label, symptomatic, gender, age bin), and the count of
    records skipped for a blank label or age, by reason. The cells are the
    strata of matching on ``any_symptom`` without the channel, so a record
    with a blank acute flag raises ``MissingCovariate("any_symptom")``."""
    key_of = stratum_keyer(MatchSpec(("any_symptom",), include_channel=False))
    index: dict[tuple, list[str]] = {}
    skipped = {"no_label": 0, "no_age": 0}
    for r in pool.records:
        if r.label is None:
            skipped["no_label"] += 1
            continue
        if r.age_years is None:
            skipped["no_age"] += 1
            continue
        b, gender, sym = key_of(r)
        # the symptomatic status stays a bool: each cell's substream hashes str(cell)
        index.setdefault((r.label, bool(sym), gender, b), []).append(r.id)
    return index, skipped


def resample_general_population(
    pool: Cohort, spec: PopulationSpec, strict: bool = True
) -> tuple[Cohort, ResampleReport]:
    """Draw a general-population style test set from ``pool``.

    With ``strict`` (default) any unsatisfiable cell raises
    ``InsufficientPool``; otherwise the cell takes what is available and is
    flagged in the report.
    """
    index, skipped = _pool_index(pool)

    # bins present for either class, in a stable order
    pool_bins = sorted({k[3] for k in index})
    if spec.equalize_age:
        # per bin, the smaller of the two classes' pool counts of drawable (not "other") genders
        bins = pool_bins
        envelope = [min(sum(len(v) for k, v in index.items() if k[0] == c and k[2] != "other" and k[3] == b)
                        for c in (1, 0)) for b in bins]
        if sum(envelope) == 0:
            raise InsufficientPool("age-envelope", max(spec.n_pos, spec.n_neg), 0)
    else:
        # one bin, None, holding every age
        bins, envelope = [None], [1]

    targets: dict[tuple, int] = {}
    for cls, n_cls, p_sym in ((1, spec.n_pos, spec.p_sym_pos), (0, spec.n_neg, spec.p_sym_neg)):
        n_sym = _round_half_up(n_cls * p_sym)
        n_male = n_cls // 2  # odd totals give the extra record to female
        per_bin = _apportion(n_cls, envelope)
        sym_per_bin = _controlled_split(per_bin, n_sym)
        # males spread over the (bin x symptomatic) cells in fixed order
        cells = []
        for i in range(len(bins)):
            cells.append((bins[i], True, sym_per_bin[i]))
            cells.append((bins[i], False, per_bin[i] - sym_per_bin[i]))
        male_per_cell = _controlled_split([c[2] for c in cells], n_male)
        for (b, sym, size), m in zip(cells, male_per_cell):
            targets[(cls, sym, "male", b)] = m
            targets[(cls, sym, "female", b)] = size - m

    chosen: set[str] = set()
    achieved: dict[tuple, int] = {}
    shortfalls: list[tuple] = []
    for cell in sorted(targets, key=stratum_order):
        need = targets[cell]
        if need == 0:
            continue
        cls, sym, gender, b = cell
        ages = pool_bins if b is None else (b,)
        members = [m for a in ages for m in index.get((cls, sym, gender, a), [])]
        if len(members) < need:
            if strict:
                raise InsufficientPool(str(cell), need, len(members))
            shortfalls.append(cell)
            need = len(members)
        if need:
            achieved[cell] = need
            chosen.update(draw_sorted(members, need, spec.seed, "resample", cell))

    out = pool.derive(
        (r for r in pool.records if r.id in chosen), "resample", seed=spec.seed, n_pos=spec.n_pos,
        n_neg=spec.n_neg, p_sym_pos=spec.p_sym_pos, p_sym_neg=spec.p_sym_neg, equalize_age=spec.equalize_age,
    )
    return out, ResampleReport(achieved=achieved, shortfalls=tuple(shortfalls), skipped=skipped)
