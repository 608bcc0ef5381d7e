"""Per-class demographic statistics and engagement-by-age curves, stated
by id through `id_helpers`."""

import math
import random
from collections import Counter

import pytest

from devgraph.demographics import (
    min_max_normalize,
    read_demographics_csv,
    write_demographics_csv,
    write_engagement_csv,
)
from devgraph.diffusion import ConsumerClass

from id_helpers import class_demographics, demographics_table, engagement_by_age, records
from id_oracles import DemographicRecord


def by_band(curve):
    """Normalized value by band start; a missing band raises KeyError."""
    return dict(zip((lo for lo, _ in curve.bands), curve.normalized))


def rec(node, age, gender="male"):
    return DemographicRecord(node=node, age=age, gender=gender)


class TestClassStats:
    def test_population_moments(self):
        classes = {f"n{i}": ConsumerClass.PRODUCER for i in range(3)}
        demo = {f"n{i}": rec(f"n{i}", age) for i, age in enumerate((20, 30, 40))}
        stats = class_demographics(classes, demo)["producer"]
        assert stats.mean_age == 30
        assert stats.median_age == 30
        assert stats.std_age == pytest.approx(math.sqrt(200 / 3))

    def test_under_18_fraction(self):
        classes = {"a": ConsumerClass.PASSIVE, "b": ConsumerClass.PASSIVE}
        demo = {"a": rec("a", 17), "b": rec("b", 19)}
        assert class_demographics(classes, demo)["passive"].under_18 == 0.5

    def test_coverage_and_null_flags(self):
        classes = {"a": ConsumerClass.PRODUCER, "b": ConsumerClass.PRODUCER,
                   "c": ConsumerClass.BRIDGE}
        demo = {"a": rec("a", 30)}
        stats = class_demographics(classes, demo)
        assert stats["producer"].coverage == 0.5
        assert stats["bridge"].covered == 0
        assert stats["bridge"].mean_age is None
        assert stats["unexposed"].size == 0

    def test_gender_ratio_over_known_only(self):
        classes = {n: ConsumerClass.PRODUCER for n in "abcd"}
        demo = {"a": rec("a", 30, "male"), "b": rec("b", 31, "male"),
                "c": rec("c", 32, "female"), "d": rec("d", 33, "unknown")}
        stats = class_demographics(classes, demo)["producer"]
        assert stats.male_fraction == pytest.approx(2 / 3)
        assert stats.female_fraction == pytest.approx(1 / 3)
        assert stats.unknown_gender == 1

    def test_order_invariance(self):
        rng = random.Random(3)
        items = [(f"n{i}", rng.choice(list(ConsumerClass)), rng.randint(13, 70),
                  rng.choice(("male", "female", "unknown"))) for i in range(60)]
        classes = {n: c for n, c, _, _ in items}
        demo = {n: rec(n, a, g) for n, _, a, g in items if a % 3}
        base = class_demographics(classes, demo)
        shuffled_items = items[:]
        rng.shuffle(shuffled_items)
        other = class_demographics({n: c for n, c, _, _ in shuffled_items},
                                   {n: rec(n, a, g) for n, _, a, g in shuffled_items if a % 3})
        assert base == other


class TestMinMax:
    def test_exact_mapping(self):
        assert min_max_normalize([2, 4, 6]) == [0.0, 0.5, 1.0]

    def test_flat_error(self):
        with pytest.raises(ValueError, match="flat engagement"):
            min_max_normalize([3, 3, 3])

    def test_endpoints_present(self):
        out = min_max_normalize([5, 1, 9, 3])
        assert min(out) == 0.0 and max(out) == 1.0
        assert all(0.0 <= x <= 1.0 for x in out)


def planted_population(per_cell=40):
    """Deterministic engagement planting: male rate peaks in 38-52, female
    in 18-27; exact round(p * cell) actives per (gender, band) cell."""
    male_rates = {13: 0.05, 18: 0.1, 23: 0.2, 28: 0.3, 33: 0.5, 38: 0.8,
                  43: 0.9, 48: 0.8, 53: 0.5, 58: 0.3, 63: 0.2, 68: 0.1}
    female_rates = {13: 0.3, 18: 0.9, 23: 0.8, 28: 0.5, 33: 0.3, 38: 0.2,
                    43: 0.15, 48: 0.1, 53: 0.08, 58: 0.05, 63: 0.03, 68: 0.02}
    classes = {}
    demo = {}
    for gender, rates in (("male", male_rates), ("female", female_rates)):
        for lo, rate in rates.items():
            n_active = round(rate * per_cell)
            for j in range(per_cell):
                node = f"{gender}{lo}x{j}"
                demo[node] = rec(node, lo + j % 5, gender)
                classes[node] = (ConsumerClass.ACTIVE_DIRECT if j < n_active
                                 else ConsumerClass.PASSIVE)
    return classes, demo, male_rates, female_rates


class TestEngagement:
    def test_planted_rates_recovered(self):
        classes, demo, male_rates, female_rates = planted_population()
        curves = engagement_by_age(classes, demo)
        for lo, rate in male_rates.items():
            assert curves["male"].raw[[b[0] for b in curves["male"].bands].index(lo)] \
                == pytest.approx(round(rate * 40) / 40)
        m = curves["male"]
        f = curves["female"]
        assert max(x for x in m.normalized if x is not None) == 1.0
        assert min(x for x in m.normalized if x is not None) == 0.0
        # peak locations match the planted ground truth
        assert by_band(m)[43] == 1.0
        assert by_band(f)[18] == 1.0

    def test_crossing_shape(self):
        classes, demo, _, _ = planted_population()
        curves = engagement_by_age(classes, demo)
        m, f = by_band(curves["male"]), by_band(curves["female"])
        # female dominates in the 20s, male dominates 38-53
        for lo in (18, 23):
            assert f[lo] > m[lo]
        for lo in (38, 43, 48):
            assert m[lo] > f[lo]

    def test_empty_band_excluded(self):
        classes = {}
        demo = {}
        for j in range(10):
            for lo in (13, 23):
                for gender in ("male", "female"):
                    node = f"{gender}{lo}x{j}"
                    demo[node] = rec(node, lo, gender)
                    active = j < (5 if lo == 13 else 2)
                    classes[node] = (ConsumerClass.ACTIVE_DIRECT if active
                                     else ConsumerClass.PASSIVE)
        curves = engagement_by_age(classes, demo)
        # band 18-23 has nobody: None in raw and normalized
        idx = [b[0] for b in curves["male"].bands].index(18)
        assert curves["male"].raw[idx] is None
        assert curves["male"].normalized[idx] is None

    def test_single_nonzero_band(self):
        classes = {}
        demo = {}
        for j in range(10):
            for lo in (13, 18, 23):
                node = f"m{lo}x{j}"
                demo[node] = rec(node, lo, "male")
                classes[node] = (ConsumerClass.ACTIVE_DIRECT
                                 if lo == 18 and j < 5 else ConsumerClass.PASSIVE)
                fnode = f"f{lo}x{j}"
                demo[fnode] = rec(fnode, lo, "female")
                classes[fnode] = (ConsumerClass.ACTIVE_DIRECT
                                  if lo == 23 and j < 4 else ConsumerClass.PASSIVE)
        curves = engagement_by_age(classes, demo)
        male = by_band(curves["male"])
        assert male[18] == 1.0
        assert male[13] == 0.0
        assert male[23] == 0.0

    def test_flat_engagement_error(self):
        classes = {}
        demo = {}
        for j in range(4):
            for lo in (13, 18):
                for gender in ("male", "female"):
                    node = f"{gender}{lo}x{j}"
                    demo[node] = rec(node, lo, gender)
                    classes[node] = ConsumerClass.PASSIVE
        with pytest.raises(ValueError, match="flat engagement"):
            engagement_by_age(classes, demo)

    def test_too_few_bands_error(self):
        classes = {"a": ConsumerClass.PASSIVE, "b": ConsumerClass.PASSIVE}
        demo = {"a": rec("a", 14, "male"), "b": rec("b", 15, "female")}
        with pytest.raises(ValueError, match="at least 2 bands"):
            engagement_by_age(classes, demo)


class TestIO:
    def test_round_trip(self, tmp_path):
        demo = {"a": rec("a", 30, "male"), "b": rec("b", 25, "unknown")}
        p = tmp_path / "demo.csv"
        write_demographics_csv(demographics_table(demo), str(p))
        assert records(read_demographics_csv(str(p))) == demo

    def test_out_of_range_dropped(self, tmp_path):
        p = tmp_path / "demo.csv"
        p.write_text("node,age,gender\na,30,male\nb,0,male\nc,130,female\nd,-4,male\ne,abc,male\n")
        diags = Counter()
        demo = read_demographics_csv(str(p), diagnostics=diags)
        assert demo.ids == ["a"]
        assert diags["age_out_of_range"] == 3
        assert diags["malformed_demographics"] == 1

    def test_gender_normalized(self, tmp_path):
        p = tmp_path / "demo.csv"
        p.write_text("a,30,MALE\nb,31,nonbinary\n")
        demo = records(read_demographics_csv(str(p)))
        assert demo["a"].gender == "male"
        assert demo["b"].gender == "unknown"

    def test_engagement_csv(self, tmp_path):
        classes, demo, _, _ = planted_population()
        curves = engagement_by_age(classes, demo)
        p = tmp_path / "engagement.csv"
        write_engagement_csv(curves, str(p))
        lines = p.read_text().splitlines()
        assert lines[0] == "gender,band_lo,band_hi,raw,normalized"
        assert len(lines) == 1 + 2 * 12
