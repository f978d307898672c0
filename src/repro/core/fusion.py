"""Multi-sensor location fusion (paper Section 4.1.2, Equation 7).

Two computations are provided:

* :func:`exact_region_probability` (and its batched form
  :func:`batch_region_probabilities`) and :class:`CellDecomposition` —
  the exact Bayesian posterior under the paper's model assumptions
  (conditional sensor independence, uniform prior over the universe).
  This is what the fusion engine, and so the Location Service, uses.
* :func:`eq7_region_probability` — the paper's general formula,
  verbatim.  Equation (7) squares some area priors when more than one
  sensor reports (its numerator and denominator are products of
  area-weighted terms), so the two disagree slightly for n >= 2; the
  printed form is kept for the reproduction benches that compare the
  two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import FusionError
from repro.geometry import Rect

# One reading reduced to what Eq. (7) needs: its rectangle and (p, q).
WeightedRect = Tuple[Rect, float, float]


def _validate(readings: Sequence[WeightedRect], universe_area: float) -> None:
    if universe_area <= 0.0:
        raise FusionError("universe area must be positive")
    for i, (rect, p, q) in enumerate(readings):
        if not 0.0 <= p <= 1.0:
            raise FusionError(f"reading {i}: p={p} is not a probability")
        if not 0.0 <= q <= 1.0:
            raise FusionError(f"reading {i}: q={q} is not a probability")
        if rect.area > universe_area + 1e-6:
            raise FusionError(f"reading {i}: rect larger than the universe")


def eq7_region_probability(region: Rect,
                           readings: Sequence[WeightedRect],
                           universe_area: float) -> float:
    """P(person in ``region`` | all readings) via the paper's Eq. (7).

    ::

            prod_i [p_i * a_int(Ai,R) + q_i * (a_R - a_int(Ai,R))]
        -------------------------------------------------------------
            (numerator) +
            prod_i [p_i * (a_Ai - a_int(Ai,R)) +
                    q_i * (a_U - a_Ai + a_int(Ai,R))]

    With no readings the result is the uniform prior a_R / a_U.
    """
    _validate(readings, universe_area)
    area_r = region.area
    if not readings:
        return min(1.0, area_r / universe_area)
    numerator = 1.0
    denominator_term = 1.0
    for rect, p, q in readings:
        a_i = rect.area
        a_int = rect.intersection_area(region)
        numerator *= p * a_int + q * (area_r - a_int)
        denominator_term *= (p * (a_i - a_int)
                             + q * (universe_area - a_i + a_int))
    denominator = numerator + denominator_term
    if denominator <= 0.0:
        return 0.0
    return numerator / denominator


def exact_region_probability(region: Rect,
                             readings: Sequence[WeightedRect],
                             universe_area: float) -> float:
    """The exact posterior P(person in ``region`` | readings).

    Derived the same way as the paper's Equations (1)-(3): uniform
    prior ``a_R / a_U``; per reading,
    ``P(s_i says A_i | person in R) = p_i*f + q_i*(1-f)`` with
    ``f = a_int / a_R`` and the analogous expression outside R.  This
    reproduces Equations (4) and (5) exactly.
    """
    _validate(readings, universe_area)
    area_r = region.area
    if area_r <= 0.0:
        return 0.0
    area_r = min(area_r, universe_area)
    prior = area_r / universe_area
    if not readings:
        return prior
    outside = universe_area - area_r
    like_in = 1.0
    like_out = 1.0
    for rect, p, q in readings:
        a_i = rect.area
        a_int = rect.intersection_area(region)
        f_in = min(1.0, a_int / area_r)
        like_in *= p * f_in + q * (1.0 - f_in)
        if outside <= 0.0:
            f_out = 0.0
        else:
            f_out = min(1.0, max(0.0, (a_i - a_int) / outside))
        like_out *= p * f_out + q * (1.0 - f_out)
    numerator = like_in * prior
    denominator = numerator + like_out * (1.0 - prior)
    if denominator <= 0.0:
        return 0.0
    return numerator / denominator


def batch_region_probabilities(regions: Sequence[Rect],
                               readings: Sequence[WeightedRect],
                               universe_area: float) -> List[float]:
    """Exact region probabilities for many regions in one validated pass.

    Bit-for-bit identical to calling :func:`exact_region_probability`
    per region — same expressions in the same order — but the input
    validation and per-reading areas are hoisted out of the loop.  The
    fusion engine uses this to evaluate every lattice node at once.
    """
    _validate(readings, universe_area)
    # Per-reading corners, (p, q) and areas unpacked once; the inner
    # loops below inline Rect.intersection_area (identical min/max
    # expressions, so results stay bit-for-bit equal to the scalar
    # function) to avoid a method call per (region, reading) pair.
    unpacked = [(rect.min_x, rect.min_y, rect.max_x, rect.max_y,
                 p, q, rect.area) for rect, p, q in readings]
    out: List[float] = []
    for region in regions:
        area_r = region.area
        if area_r <= 0.0:
            out.append(0.0)
            continue
        area_r = min(area_r, universe_area)
        prior = area_r / universe_area
        if not unpacked:
            out.append(prior)
            continue
        rx0, ry0, rx1, ry1 = (region.min_x, region.min_y,
                              region.max_x, region.max_y)
        outside = universe_area - area_r
        like_in = 1.0
        like_out = 1.0
        for x0, y0, x1, y1, p, q, a_i in unpacked:
            w = (x1 if x1 < rx1 else rx1) - (x0 if x0 > rx0 else rx0)
            h = (y1 if y1 < ry1 else ry1) - (y0 if y0 > ry0 else ry0)
            a_int = w * h if w > 0.0 and h > 0.0 else 0.0
            f_in = min(1.0, a_int / area_r)
            like_in *= p * f_in + q * (1.0 - f_in)
            if outside <= 0.0:
                f_out = 0.0
            else:
                f_out = min(1.0, max(0.0, (a_i - a_int) / outside))
            like_out *= p * f_out + q * (1.0 - f_out)
        numerator = like_in * prior
        denominator = numerator + like_out * (1.0 - prior)
        out.append(0.0 if denominator <= 0.0 else numerator / denominator)
    return out


def support_confidence(supporters: Sequence[Tuple[float, float]]) -> float:
    """Confidence that a region's supporting sensors are all correct.

    ``supporters`` holds the (p, q) pairs of every reading whose
    rectangle contains the region.  The value is::

        1 / (1 + prod_i (q_i / p_i))

    i.e. the posterior that the consensus is a true detection rather
    than a joint false detection, with the area prior removed.  This is
    the number the Section 4.4 buckets grade: its boundaries are the
    deployed sensors' ``p`` values, and a single sensor's reading lands
    near its own ``p`` (exactly ``p`` when ``q = 1 - p``), reinforcing
    sensors push it up, and temporal degradation pulls it down.

    The paper's Eq. (7) (kept verbatim in
    :func:`eq7_region_probability`) answers a different question —
    "where in the building is the person" under a uniform prior — and
    for small regions in a large building its absolute value is
    necessarily tiny, which would make the paper's own probability
    buckets unreachable.  Separating the two lets applications
    threshold on sensor trustworthiness, as the paper's examples do,
    while region posteriors stay available for spatial reasoning.
    """
    if not supporters:
        return 0.0
    odds_against = 1.0
    for p, q in supporters:
        if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
            raise FusionError(f"({p}, {q}) is not a probability pair")
        if p <= 0.0:
            return 0.0
        odds_against *= q / p
    return 1.0 / (1.0 + odds_against)


@dataclass(frozen=True)
class Cell:
    """One atomic cell of the arrangement of reading rectangles.

    ``signature`` is the set of reading indices whose rectangle covers
    the cell; ``area`` is the cell's total area (cells with the same
    signature are merged).
    """

    signature: FrozenSet[int]
    area: float


class CellDecomposition:
    """The exact joint posterior over the arrangement of rectangles.

    The reading rectangles partition the universe into at most
    ``(2n+1)^2`` grid cells; merging cells by coverage signature gives
    the atomic regions of the arrangement.  Under the paper's model
    (conditional independence, uniform prior) the posterior weight of
    a cell with signature S is::

        w(S) = area(S)/area(U) * prod_{i in S} p_i * prod_{i not in S} q_i

    normalized over all cells (including the uncovered remainder).
    This is the ground-truth spatial probability distribution that
    both Eq. (7) and the exact region formula approximate at region
    granularity.
    """

    def __init__(self, readings: Sequence[WeightedRect],
                 universe: Rect) -> None:
        _validate(readings, universe.area)
        self.universe = universe
        self.readings = list(readings)
        self.cells = self._decompose()
        self._posterior = self._compute_posterior()

    def _decompose(self) -> List[Cell]:
        xs = {self.universe.min_x, self.universe.max_x}
        ys = {self.universe.min_y, self.universe.max_y}
        clipped: List[Optional[Rect]] = []
        for rect, _, _ in self.readings:
            c = rect.clipped_to(self.universe)
            clipped.append(c)
            if c is not None:
                xs.update((c.min_x, c.max_x))
                ys.update((c.min_y, c.max_y))
        xs_sorted = sorted(xs)
        ys_sorted = sorted(ys)
        # Kept for probability_in_rect, which re-slices this grid along
        # a query rectangle instead of re-decomposing from scratch.
        self._xs = xs_sorted
        self._ys = ys_sorted
        self._clipped = clipped
        areas: Dict[FrozenSet[int], float] = {}
        for x0, x1 in zip(xs_sorted, xs_sorted[1:]):
            if x1 <= x0:
                continue
            cx = (x0 + x1) / 2.0
            for y0, y1 in zip(ys_sorted, ys_sorted[1:]):
                if y1 <= y0:
                    continue
                cy = (y0 + y1) / 2.0
                signature = frozenset(
                    i for i, c in enumerate(clipped)
                    if c is not None
                    and c.min_x <= cx <= c.max_x
                    and c.min_y <= cy <= c.max_y
                )
                areas[signature] = areas.get(signature, 0.0) + \
                    (x1 - x0) * (y1 - y0)
        return [Cell(sig, area) for sig, area in areas.items()]

    def _compute_posterior(self) -> Dict[FrozenSet[int], float]:
        weights: Dict[FrozenSet[int], float] = {}
        total = 0.0
        for cell in self.cells:
            w = cell.area / self.universe.area
            for i, (_, p, q) in enumerate(self.readings):
                w *= p if i in cell.signature else q
            weights[cell.signature] = weights.get(cell.signature, 0.0) + w
            total += w
        if total <= 0.0:
            raise FusionError("zero total posterior weight")
        return {sig: w / total for sig, w in weights.items()}

    def probability_of_signature(self, signature: FrozenSet[int]) -> float:
        """Posterior probability that the person is in the cells covered
        by exactly the readings in ``signature``."""
        return self._posterior.get(frozenset(signature), 0.0)

    def probability_in_reading(self, index: int) -> float:
        """Posterior probability the person is inside reading ``index``'s
        rectangle (sum over all cells the rectangle covers)."""
        if not 0 <= index < len(self.readings):
            raise FusionError(f"no reading with index {index}")
        return sum(prob for sig, prob in self._posterior.items()
                   if index in sig)

    def probability_in_rect(self, region: Rect) -> float:
        """Posterior probability of an arbitrary rectangle.

        The stored grid lines are split along the query's edges so
        cells align exactly with it; the per-reading (p, q) factors
        are reused as-is.  This avoids rebuilding (and re-validating
        and re-normalizing) a whole augmented decomposition per query.
        """
        if region.area > self.universe.area + 1e-6:
            raise FusionError("query region larger than the universe")
        query = region.clipped_to(self.universe)
        xs = self._xs
        ys = self._ys
        if query is not None:
            if not (query.min_x in xs and query.max_x in xs):
                xs = sorted(set(xs) | {query.min_x, query.max_x})
            if not (query.min_y in ys and query.max_y in ys):
                ys = sorted(set(ys) | {query.min_y, query.max_y})
        clipped = self._clipped
        ps = [p for _, p, _ in self.readings]
        qs = [q for _, _, q in self.readings]
        u_area = self.universe.area
        total = 0.0
        inside = 0.0
        for x0, x1 in zip(xs, xs[1:]):
            if x1 <= x0:
                continue
            cx = (x0 + x1) / 2.0
            for y0, y1 in zip(ys, ys[1:]):
                if y1 <= y0:
                    continue
                cy = (y0 + y1) / 2.0
                w = (x1 - x0) * (y1 - y0) / u_area
                for i, c in enumerate(clipped):
                    if (c is not None
                            and c.min_x <= cx <= c.max_x
                            and c.min_y <= cy <= c.max_y):
                        w *= ps[i]
                    else:
                        w *= qs[i]
                total += w
                if (query is not None
                        and query.min_x <= cx <= query.max_x
                        and query.min_y <= cy <= query.max_y):
                    inside += w
        if total <= 0.0:
            raise FusionError("zero total posterior weight")
        return inside / total

    def map_signature(self) -> FrozenSet[int]:
        """The maximum-a-posteriori covered signature (ties: smaller
        area; never the empty signature unless nothing is covered)."""
        best: Optional[Tuple[float, float, Tuple[int, ...]]] = None
        best_sig: FrozenSet[int] = frozenset()
        area_by_sig: Dict[FrozenSet[int], float] = {}
        for cell in self.cells:
            area_by_sig[cell.signature] = \
                area_by_sig.get(cell.signature, 0.0) + cell.area
        for sig, prob in self._posterior.items():
            if not sig:
                continue
            key = (prob, -area_by_sig.get(sig, 0.0), tuple(sorted(sig)))
            if best is None or key > best:
                best = key
                best_sig = sig
        return best_sig
