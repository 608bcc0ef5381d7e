"""Age and gender statistics per consumer class, and gender engagement
curves over age bands with min-max normalization, from class codes and
each node's age and gender code over one numbering."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import astuple, dataclass

import numpy as np

from .diffusion import _CLASSES, ConsumerClass, class_mask
from .graph import id_codes
from .ingest import _csv_rows, _write_rows

GENDERS = ("male", "female", "unknown")
DEFAULT_BANDS = tuple((lo, lo + 5) for lo in range(13, 73, 5))
ACTIVE_CLASSES = frozenset({ConsumerClass.ACTIVE_DIRECT, ConsumerClass.ACTIVE_INDIRECT})


class Demographics:
    """The node,age,gender table as columns, one row per node: `ids`, each
    one's int64 `age` and its `gender` as a code into GENDERS."""

    def __init__(self, ids: list[str], age: np.ndarray, gender: np.ndarray):
        self.ids, self.age, self.gender = ids, age, gender

    def __len__(self) -> int:
        return len(self.ids)

    def over(self, ids: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
        """The age (a float) and gender code of each of `ids`, from one
        `id_codes`; NaN and -1 where the table has no row."""
        row = id_codes(self.ids, ids)
        return np.append(self.age, np.nan)[row], np.append(self.gender, -1)[row]


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


def read_demographics_csv(path: str, diagnostics: Counter | None = None) -> Demographics:
    """node,age,gender rows (see `_csv_rows`); malformed rows and ages
    outside (0, 120) are dropped and tallied. A gender other than male or
    female is unknown; a later row for a node replaces an earlier one."""
    if diagnostics is None:
        diagnostics = Counter()
    rows: dict[str, tuple[int, int]] = {}
    for node, age, gender in _csv_rows(path, "node,age,gender", "malformed_demographics",
                                       lambda node, age, gender: (node, int(age), gender),
                                       diagnostics):
        if not 0 < age < 120:
            diagnostics["age_out_of_range"] += 1
            continue
        gender = gender.strip().lower()
        rows[node] = age, GENDERS.index(gender if gender in GENDERS else "unknown")
    age, gender = np.array(list(rows.values()), dtype=np.int64).reshape(-1, 2).T
    return Demographics(list(rows), age, gender)


def write_demographics_csv(demo: Demographics, path: str) -> None:
    names = np.array(GENDERS, dtype=object)[demo.gender].tolist()
    _write_rows(path, "node,age,gender", sorted(zip(demo.ids, demo.age.tolist(), names)))


def _bands(age: np.ndarray) -> np.ndarray:
    """Each age's band in DEFAULT_BANDS, which abut, or -1 (for NaN too)."""
    band = np.searchsorted([lo for lo, _ in DEFAULT_BANDS], age, side="right") - 1
    return np.where(age < DEFAULT_BANDS[-1][1], band, -1)


def class_demographics(classes: np.ndarray, age: np.ndarray,
                       gender: np.ndarray) -> dict[str, ClassDemographics]:
    """Per-class age/gender statistics over the covered members, those with
    an age (not NaN), each class's ages in node order; population (not
    sample) standard deviation."""
    k, g, covered = len(_CLASSES), len(GENDERS), ~np.isnan(age)
    cls, ages = classes[covered], age[covered].astype(np.float64)
    size = np.bincount(classes, minlength=k).tolist()
    by_gender = np.bincount(cls * g + gender[covered], minlength=k * g).reshape(k, g).tolist()
    under_18 = np.bincount(cls[ages < 18], minlength=k).tolist()
    groups = np.split(ages[np.argsort(cls, kind="stable")],
                      np.cumsum(np.bincount(cls, minlength=k))[:-1])
    out: dict[str, ClassDemographics] = {}
    for c, a in enumerate(groups):
        n, (males, females, unknown) = len(a), by_gender[c]
        stats = dict.fromkeys(("mean_age", "median_age", "std_age", "under_18",
                               "male_fraction", "female_fraction"))
        if n:
            s = np.sort(a)
            stats.update(mean_age=float(a.mean()), std_age=float(a.std(ddof=0)),
                         median_age=float((s[(n - 1) // 2] + s[n // 2]) / 2),
                         under_18=under_18[c] / n)
        if males + females:
            stats.update(male_fraction=males / (males + females),
                         female_fraction=females / (males + females))
        name = _CLASSES[c].value
        out[name] = ClassDemographics(
            class_name=name, size=size[c], covered=n,
            coverage=n / size[c] if size[c] else 0.0, unknown_gender=unknown, **stats)
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


def engagement_by_age(classes: np.ndarray, age: np.ndarray,
                      gender: np.ndarray) -> dict[str, EngagementCurve]:
    """Per known gender: the share of covered users in each age band of
    DEFAULT_BANDS who are active consumers (ACTIVE_CLASSES), min-max
    normalized per gender. Bands with no covered users carry None and stay
    out of the normalization."""
    band, b = _bands(age), len(DEFAULT_BANDS)
    inside = band >= 0
    cell = gender[inside] * b + band[inside]
    totals, active = (np.bincount(x, minlength=len(GENDERS) * b).reshape(-1, b).tolist()
                      for x in (cell, cell[class_mask(classes[inside], ACTIVE_CLASSES)]))
    curves: dict[str, EngagementCurve] = {}
    for name, t_row, a_row in zip(GENDERS[:2], totals, active):
        raw: list[float | None] = [a / t if t else None for a, t in zip(a_row, t_row)]
        present = [x for x in raw if x is not None]
        if len(present) < 2:
            raise ValueError(f"need at least 2 bands with data for {name}")
        it = iter(min_max_normalize(present))
        normalized = [next(it) if x is not None else None for x in raw]
        curves[name] = EngagementCurve(gender=name, bands=DEFAULT_BANDS,
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


def age_histogram(classes: np.ndarray, age: np.ndarray) -> dict[str, list[int]]:
    """Per-class covered-user counts per age band of DEFAULT_BANDS, from
    class codes and each node's age (NaN if unknown)."""
    band, b = _bands(age), len(DEFAULT_BANDS)
    inside = band >= 0
    counts = np.bincount(classes[inside] * b + band[inside], minlength=len(_CLASSES) * b)
    return {cls.value: row for cls, row in zip(_CLASSES, counts.reshape(-1, b).tolist())}


def write_age_histogram_csv(hist: dict[str, list[int]], path: str) -> None:
    _write_rows(path, "class,band_lo,band_hi,count",
                ((name, lo, hi, count) for name in sorted(hist)
                 for (lo, hi), count in zip(DEFAULT_BANDS, hist[name])))
