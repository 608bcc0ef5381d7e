"""Local perception biases: the share of observed neighbors that are deviant
(majority-illusion curve) and the volume friendship paradox."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graph import LayeredGraph
from .ingest import _write_rows


@dataclass(frozen=True)
class PerceptionCurve:
    """fraction_at_least[i] = share of eligible nodes whose deviant-neighbor
    fraction is >= thresholds[i]."""
    thresholds: tuple[float, ...]
    fraction_at_least: tuple[float, ...]
    layer: str
    eligible: int
    excluded_zero_outdegree: int


def _check_step(step: float) -> None:
    if not 0 < step <= 1:
        raise ValueError("step must be in (0, 1]")


def perception_curve(g: LayeredGraph, layer: str, deviant_active: np.ndarray,
                     exclude: np.ndarray | None = None,
                     step: float = 0.01) -> PerceptionCurve:
    """ICDF over nodes of the fraction of out-neighbors (the accounts a node
    observes) in the node mask deviant_active; `step` in (0, 1] spaces the
    thresholds.

    Nodes in the mask `exclude` (typically the producers themselves) and
    nodes with no out-neighbors are left out of the population; the
    zero-out-degree count is reported on the curve. The counts are one
    bincount over the layer's edge arrays.
    """
    _check_step(step)
    lay = g.layer(layer)
    degree = g.out_degrees(layer)
    hits = np.bincount(lay.src[deviant_active[lay.dst]], minlength=g.n_nodes)
    kept = np.ones(g.n_nodes, dtype=bool) if exclude is None else ~exclude
    eligible = kept & (degree > 0)
    if not eligible.any():
        raise ValueError("no eligible nodes: every node lacks out-neighbors")
    n_steps = round(1.0 / step)
    # integer grid keeps thresholds like 0.30 exactly equal to the literal
    thresholds = np.arange(n_steps + 1) / n_steps
    fracs = np.sort(hits[eligible] / degree[eligible])
    at_least = 1.0 - np.searchsorted(fracs, thresholds, side="left") / len(fracs)
    return PerceptionCurve(thresholds=tuple(float(t) for t in thresholds),
                           fraction_at_least=tuple(float(v) for v in at_least),
                           layer=layer, eligible=len(fracs),
                           excluded_zero_outdegree=int(np.count_nonzero(kept & (degree == 0))))


def volume_paradox_fraction(g: LayeredGraph, layer: str, reblog_counts: np.ndarray,
                            counted: np.ndarray, exclude: np.ndarray | None = None) -> float:
    """Fraction of nodes whose own deviant reblog count falls strictly below
    the mean count of their out-neighbors.

    The mask `counted` marks the nodes with a count in reblog_counts (any
    other counts 0) and so the eligible neighbors (posted or reblogged at
    least once); nodes without any eligible neighbor, or in the mask
    `exclude`, are excluded from the denominator. Neighbor counts and sums
    are bincounts over the layer's edge arrays, added in out-neighbor order.
    """
    lay = g.layer(layer)
    count = np.where(counted, reblog_counts, 0).astype(np.float64)
    sel = counted[lay.dst]
    src, dst = lay.src[sel], lay.dst[sel]
    n_eligible = np.bincount(src, minlength=g.n_nodes)
    total = np.bincount(src, weights=count[dst], minlength=g.n_nodes)
    considered = n_eligible > 0 if exclude is None else ~exclude & (n_eligible > 0)
    if not considered.any():
        raise ValueError("no nodes with eligible out-neighbors")
    below = count[considered] < total[considered] / n_eligible[considered]
    return int(np.count_nonzero(below)) / int(np.count_nonzero(considered))


def write_curves_csv(curves: Iterable[PerceptionCurve], path: str) -> None:
    _write_rows(path, "threshold,fraction,layer",
                ((f"{t:.4g}", v, curve.layer) for curve in curves
                 for t, v in zip(curve.thresholds, curve.fraction_at_least)))
