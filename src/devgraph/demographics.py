"""Age and gender statistics per consumer class, and gender engagement
curves over age bands with min-max normalization."""

from __future__ import annotations

from collections import Counter
from dataclasses import astuple, dataclass

import numpy as np

from .diffusion import ConsumerClass
from .ingest import _csv_rows, _write_rows

GENDERS = ("male", "female")
DEFAULT_BANDS = tuple((lo, lo + 5) for lo in range(13, 73, 5))
ACTIVE_CLASSES = frozenset({ConsumerClass.ACTIVE_DIRECT, ConsumerClass.ACTIVE_INDIRECT})


@dataclass(frozen=True)
class DemographicRecord:
    node: str
    age: int
    gender: str  # male / female / unknown


@dataclass(frozen=True)
class ClassDemographics:
    class_name: str
    size: int
    covered: int
    coverage: float
    mean_age: float | None
    median_age: float | None
    std_age: float | None
    under_18: float | None
    male_fraction: float | None
    female_fraction: float | None
    unknown_gender: int


def read_demographics_csv(path: str, diagnostics: Counter | None = None) -> dict[str, DemographicRecord]:
    """node,age,gender rows (see `_csv_rows`); malformed rows and ages
    outside (0, 120) are dropped and tallied."""
    if diagnostics is None:
        diagnostics = Counter()
    out: dict[str, DemographicRecord] = {}
    for node, age, gender in _csv_rows(path, "node,age,gender", "malformed_demographics",
                                       lambda node, age, gender: (node, int(age), gender),
                                       diagnostics):
        if not 0 < age < 120:
            diagnostics["age_out_of_range"] += 1
            continue
        gender = gender.strip().lower()
        if gender not in GENDERS:
            gender = "unknown"
        out[node] = DemographicRecord(node=node, age=age, gender=gender)
    return out


def write_demographics_csv(demo: dict[str, DemographicRecord], path: str) -> None:
    _write_rows(path, "node,age,gender",
                ((node, demo[node].age, demo[node].gender) for node in sorted(demo)))


def class_demographics(classes: dict[str, ConsumerClass],
                       demo: dict[str, DemographicRecord]) -> dict[str, ClassDemographics]:
    """Per-class age/gender statistics over the demographically covered
    members; population (not sample) standard deviation."""
    members: dict[str, list[str]] = {}
    for node, cls in classes.items():
        members.setdefault(cls.value, []).append(node)
    out: dict[str, ClassDemographics] = {}
    for cls in ConsumerClass:
        nodes = members.get(cls.value, [])
        covered = [demo[n] for n in nodes if n in demo]
        known = [r for r in covered if r.gender in GENDERS]
        if covered:
            ages = np.array([r.age for r in covered], dtype=np.float64)
            males = sum(r.gender == "male" for r in known)
            stats = dict(
                mean_age=float(ages.mean()),
                median_age=float(np.median(ages)),
                std_age=float(ages.std(ddof=0)),
                under_18=float((ages < 18).mean()),
                male_fraction=males / len(known) if known else None,
                female_fraction=(len(known) - males) / len(known) if known else None,
            )
        else:
            stats = dict(mean_age=None, median_age=None, std_age=None,
                         under_18=None, male_fraction=None, female_fraction=None)
        out[cls.value] = ClassDemographics(
            class_name=cls.value, size=len(nodes), covered=len(covered),
            coverage=len(covered) / len(nodes) if nodes else 0.0,
            unknown_gender=len(covered) - len(known), **stats)
    return out


def min_max_normalize(values: list[float]) -> list[float]:
    """x' = (x - min) / (max - min); constant input is an error."""
    lo, hi = min(values), max(values)
    if hi == lo:
        raise ValueError("flat engagement: max equals min")
    return [(x - lo) / (hi - lo) for x in values]


@dataclass(frozen=True)
class EngagementCurve:
    gender: str
    bands: tuple[tuple[int, int], ...]
    raw: tuple[float | None, ...]
    normalized: tuple[float | None, ...]


def engagement_by_age(classes: dict[str, ConsumerClass],
                      demo: dict[str, DemographicRecord]) -> dict[str, EngagementCurve]:
    """Per gender: the share of covered users in each age band of
    DEFAULT_BANDS who are active consumers (ACTIVE_CLASSES), min-max
    normalized per gender. Bands with no covered users carry None and stay
    out of the normalization."""
    curves: dict[str, EngagementCurve] = {}
    for gender in GENDERS:
        totals = [0] * len(DEFAULT_BANDS)
        active = [0] * len(DEFAULT_BANDS)
        for node, rec in demo.items():
            if rec.gender != gender or node not in classes:
                continue
            for i, (lo, hi) in enumerate(DEFAULT_BANDS):
                if lo <= rec.age < hi:
                    totals[i] += 1
                    if classes[node] in ACTIVE_CLASSES:
                        active[i] += 1
                    break
        raw: list[float | None] = [a / t if t else None for a, t in zip(active, totals)]
        present = [x for x in raw if x is not None]
        if len(present) < 2:
            raise ValueError(f"need at least 2 bands with data for {gender}")
        norm_present = min_max_normalize(present)
        it = iter(norm_present)
        normalized = [next(it) if x is not None else None for x in raw]
        curves[gender] = EngagementCurve(gender=gender, bands=DEFAULT_BANDS,
                                         raw=tuple(raw), normalized=tuple(normalized))
    return curves


def write_engagement_csv(curves: dict[str, EngagementCurve], path: str) -> None:
    _write_rows(path, "gender,band_lo,band_hi,raw,normalized",
                ((gender, lo, hi, raw, norm) for gender, c in sorted(curves.items())
                 for (lo, hi), raw, norm in zip(c.bands, c.raw, c.normalized)))


def write_class_demographics_csv(stats: dict[str, ClassDemographics], path: str) -> None:
    # the dataclass's fields are the columns, in order
    _write_rows(path, "class,size,covered,coverage,mean_age,median_age,std_age,"
                "under_18,male_fraction,female_fraction,unknown_gender",
                (astuple(stats[name]) for name in sorted(stats)))


def age_histogram(classes: dict[str, ConsumerClass],
                  demo: dict[str, DemographicRecord]) -> dict[str, list[int]]:
    """Per-class covered-user counts per age band of DEFAULT_BANDS."""
    hist = {cls.value: [0] * len(DEFAULT_BANDS) for cls in ConsumerClass}
    for node, cls in classes.items():
        rec = demo.get(node)
        if rec is None:
            continue
        for i, (lo, hi) in enumerate(DEFAULT_BANDS):
            if lo <= rec.age < hi:
                hist[cls.value][i] += 1
                break
    return hist


def write_age_histogram_csv(hist: dict[str, list[int]], path: str) -> None:
    _write_rows(path, "class,band_lo,band_hi,count",
                ((name, lo, hi, count) for name in sorted(hist)
                 for (lo, hi), count in zip(DEFAULT_BANDS, hist[name])))
