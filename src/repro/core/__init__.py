"""The paper's primary contribution: probabilistic multi-sensor fusion.

Everything in Sections 3.2 and 4.1-4.4 lives here: the sensor error
model (x, y, z -> p, q), temporal degradation functions, normalized
readings, the containment lattice of sensor rectangles, the Bayesian
fusion equations (4)-(7), conflict resolution for disjoint readings,
and the classification of the probability space into application-
facing buckets.
"""

from repro.core.calibration import (
    BinomialEstimator,
    CalibrationReport,
    CarryProbabilityEstimator,
    DetectionProbabilityEstimator,
    MisidentificationEstimator,
    RateEstimate,
    TdfFit,
    TdfFitter,
    wilson_interval,
)
from repro.core.classify import ProbabilityBucket, ProbabilityClassifier
from repro.core.conflict import (
    DEFAULT_RULES,
    ConflictResolver,
    ConflictRule,
    FreshestReadingRule,
    HighestProbabilityRule,
    MovingRectangleRule,
)
from repro.core.engine import FusionEngine, FusionResult
from repro.core.estimate import LocationEstimate
from repro.core.fusion import (
    Cell,
    CellDecomposition,
    WeightedRect,
    batch_region_probabilities,
    eq7_region_probability,
    exact_region_probability,
    support_confidence,
)
from repro.core.lattice import BOTTOM, TOP, LatticeNode, RegionLattice
from repro.core.pairwise import (
    eq4_containment,
    eq4_from_rects,
    eq5_single_sensor,
    eq6_corrected,
    eq6_from_rects,
    eq6_intersection,
)
from repro.core.reading import (
    NormalizedReading,
    Reading,
    reading_from_coordinate,
    reading_from_region,
)
from repro.core.sensorspec import SensorSpec, derive_pq
from repro.core.tdf import (
    ConstantTDF,
    ExponentialTDF,
    LinearTDF,
    StepTDF,
    TemporalDegradationFunction,
)

__all__ = [
    "BOTTOM",
    "BinomialEstimator",
    "CalibrationReport",
    "CarryProbabilityEstimator",
    "Cell",
    "CellDecomposition",
    "DetectionProbabilityEstimator",
    "MisidentificationEstimator",
    "RateEstimate",
    "TdfFit",
    "TdfFitter",
    "wilson_interval",
    "ConflictResolver",
    "ConflictRule",
    "ConstantTDF",
    "DEFAULT_RULES",
    "ExponentialTDF",
    "FreshestReadingRule",
    "FusionEngine",
    "FusionResult",
    "HighestProbabilityRule",
    "LatticeNode",
    "LinearTDF",
    "LocationEstimate",
    "MovingRectangleRule",
    "NormalizedReading",
    "ProbabilityBucket",
    "ProbabilityClassifier",
    "Reading",
    "RegionLattice",
    "SensorSpec",
    "StepTDF",
    "TOP",
    "TemporalDegradationFunction",
    "WeightedRect",
    "derive_pq",
    "eq4_containment",
    "eq4_from_rects",
    "eq5_single_sensor",
    "eq6_corrected",
    "eq6_from_rects",
    "eq6_intersection",
    "batch_region_probabilities",
    "eq7_region_probability",
    "exact_region_probability",
    "reading_from_coordinate",
    "reading_from_region",
    "support_confidence",
]
