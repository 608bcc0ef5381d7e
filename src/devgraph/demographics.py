"""Age and gender statistics per consumer class, and gender engagement
curves over age bands with min-max normalization."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .diffusion import ConsumerClass
from .ingest import _csv_rows

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

    def as_dict(self) -> dict:
        return {
            "class": self.class_name, "size": self.size, "covered": self.covered,
            "coverage": self.coverage, "mean_age": self.mean_age,
            "median_age": self.median_age, "std_age": self.std_age,
            "under_18": self.under_18, "male_fraction": self.male_fraction,
            "female_fraction": self.female_fraction,
            "unknown_gender": self.unknown_gender,
        }


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("node,age,gender\n")
        for node in sorted(demo):
            rec = demo[node]
            fh.write(f"{node},{rec.age},{rec.gender}\n")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("gender,band_lo,band_hi,raw,normalized\n")
        for gender in sorted(curves):
            c = curves[gender]
            for (lo, hi), raw, norm in zip(c.bands, c.raw, c.normalized):
                r = "" if raw is None else f"{raw:.10g}"
                n = "" if norm is None else f"{norm:.10g}"
                fh.write(f"{gender},{lo},{hi},{r},{n}\n")


def write_class_demographics_csv(stats: dict[str, ClassDemographics], path: str) -> None:
    cols = ("class", "size", "covered", "coverage", "mean_age", "median_age",
            "std_age", "under_18", "male_fraction", "female_fraction", "unknown_gender")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for name in sorted(stats):
            d = stats[name].as_dict()
            cells = []
            for c in cols:
                v = d[c]
                if v is None:
                    cells.append("")
                elif isinstance(v, float):
                    cells.append(f"{v:.10g}")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("class,band_lo,band_hi,count\n")
        for name in sorted(hist):
            for (lo, hi), count in zip(DEFAULT_BANDS, hist[name]):
                fh.write(f"{name},{lo},{hi},{count}\n")
