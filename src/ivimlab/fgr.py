"""Lung-volume biomarker and its ROC/Youden classifier.

The expected total lung volume for a gestational age comes from a published
cubic growth model. ``train_classifier`` standardizes the observed/expected
ratio against the control group and picks the Youden-optimal threshold from
``roc``; the ``TrainedClassifier`` it returns checks, scores and decides on
its own. Because growth-restricted lungs are smaller, low scores normally
indicate disease; the training step measures both score directions and keeps
the better one rather than assuming a sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


GA_WEEKS_MIN = 15.0
GA_WEEKS_MAX = 45.0

# cubic gestational-age model for the expected total lung volume (mL)
_TLV_C3 = -0.0132
_TLV_C2 = 1.14
_TLV_C1 = -27.38
_TLV_C0 = 207.50


class Group(Enum):
    FGR = "fgr"
    CONTROL = "control"

    @classmethod
    def parse(cls, name: str) -> "Group":
        try:
            return _GROUPS[name.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown group {name!r}; expected fgr or control") from None


_GROUPS = {group.value: group for group in Group}


class Polarity(Enum):
    POSITIVE_HIGH = "positive_high"  # scores above the threshold are FGR
    POSITIVE_LOW = "positive_low"    # scores below the threshold are FGR


def parse_ga_weeks(text: str) -> float:
    """Gestational age from decimal weeks or clinical 'w+d' notation.

    In 'w+d', weeks are a whole number and days a whole number from 0 to 6.
    The notation is all this checks; :class:`SubjectRecord` checks the range.
    """
    token = text.strip()
    if "+" not in token:
        return float(token)
    w, _, d = (part.strip() for part in token.partition("+"))
    if not w.isdecimal():
        raise ValueError(f"weeks in {token!r} must be a whole number")
    if not (d.isdecimal() and int(d) <= 6):
        raise ValueError(f"days in {token!r} must be a whole number from 0 to 6")
    return int(w) + int(d) / 7.0


@dataclass(frozen=True)
class SubjectRecord:
    """One subject; checks every record's gestational-age range and lung volume.

    ``expected_tlv`` checks its own argument against the same range.
    """

    id: str
    ga_weeks: float
    group: Group
    tlv_ml: float

    def __post_init__(self):
        if not (GA_WEEKS_MIN <= self.ga_weeks <= GA_WEEKS_MAX):
            raise ValueError(f"{self.id!r}: gestational age {self.ga_weeks} outside "
                             f"[{GA_WEEKS_MIN}, {GA_WEEKS_MAX}] weeks")
        if not math.isfinite(self.tlv_ml):
            raise ValueError(f"{self.id!r}: measured lung volume must be finite, "
                             f"got {self.tlv_ml}")
        if not self.tlv_ml > 0:
            raise ValueError(f"{self.id!r}: measured lung volume must be positive")


def expected_tlv(ga_weeks: float) -> float:
    """Expected total lung volume (mL) at a gestational age, Horner form.

    Positive on the whole domain: the minimum is 6.6 mL, near 17.1 weeks.
    """
    if not (GA_WEEKS_MIN <= ga_weeks <= GA_WEEKS_MAX):
        raise ValueError(f"gestational age {ga_weeks} outside [{GA_WEEKS_MIN}, {GA_WEEKS_MAX}]")
    return ((_TLV_C3 * ga_weeks + _TLV_C2) * ga_weeks + _TLV_C1) * ga_weeks + _TLV_C0


def oe_tlv(record: SubjectRecord) -> float:
    """Observed-to-expected lung volume ratio of a subject."""
    return record.tlv_ml / expected_tlv(record.ga_weeks)


def zscore_fit(control_values) -> tuple[float, float]:
    """Mean and sample sd of the control reference values."""
    v = np.asarray(control_values, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValueError("need at least two control values to standardize")
    mean = float(v.mean())
    sd = float(v.std(ddof=1))
    if sd == 0.0:
        raise ValueError("control values are constant; z-scores undefined")
    return mean, sd


@dataclass(frozen=True)
class RocAnalysis:
    auc: float
    youden_threshold: float
    youden_j: float
    polarity: Polarity


def roc(scores, labels, polarity: Polarity = Polarity.POSITIVE_HIGH) -> RocAnalysis:
    """ROC over midpoint thresholds, trapezoidal AUC, Youden operating point.

    ``labels`` is an iterable of booleans (True = positive/FGR). Candidate
    thresholds sit halfway between consecutive distinct scores plus the two
    infinite endpoints, so the decision boundary never coincides with a
    training score. Youden ties prefer the more specific threshold.

    ``youden_threshold`` is on the original score scale for either polarity:
    :meth:`TrainedClassifier.predict` compares scores with it unchanged.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=bool).ravel()
    if s.size != y.size:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(y.sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc needs both classes present")

    oriented = s if polarity is Polarity.POSITIVE_HIGH else -s
    distinct = np.unique(oriented)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    thr = np.concatenate([[math.inf], mids[::-1], [-math.inf]])

    called = oriented > thr[:, None]  # one row per threshold
    sens = (called & y).sum(axis=1) / n_pos
    spec = (~called & ~y).sum(axis=1) / n_neg

    fpr = 1.0 - spec
    auc = float((np.diff(fpr) * (sens[1:] + sens[:-1]) / 2.0).sum())

    j = sens + spec - 1.0
    best = np.flatnonzero(j >= j.max() - 1e-15)
    # prefer high specificity, then the larger threshold, deterministically
    best = best[np.lexsort((-thr[best], -spec[best]))][0]
    youden_thr = float(thr[best])

    return RocAnalysis(
        auc=auc,
        youden_threshold=-youden_thr if polarity is Polarity.POSITIVE_LOW else youden_thr,
        youden_j=float(j[best]), polarity=polarity,
    )


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def accuracy(self) -> float:
        total = self.tp + self.fp + self.tn + self.fn
        return (self.tp + self.tn) / total if total else math.nan


def confusion(predictions, labels) -> Confusion:
    """Counts with FGR as the positive class."""
    pred = list(predictions)
    lab = list(labels)
    if len(pred) != len(lab):
        raise ValueError("predictions and labels must have equal length")
    tp = sum(1 for p, l in zip(pred, lab) if p is Group.FGR and l is Group.FGR)
    tn = sum(1 for p, l in zip(pred, lab) if p is Group.CONTROL and l is Group.CONTROL)
    fp = sum(1 for p, l in zip(pred, lab) if p is Group.FGR and l is Group.CONTROL)
    fn = sum(1 for p, l in zip(pred, lab) if p is Group.CONTROL and l is Group.FGR)
    return Confusion(tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass(frozen=True)
class TrainedClassifier:
    """The classifier's rule: a subject's score is its O/E ratio's z-score
    against the controls, and a score strictly past the threshold in the
    polarity's direction is FGR; one exactly at the threshold is Control."""

    control_mean: float
    control_sd: float
    polarity: Polarity
    threshold: float  # on the z-score scale
    auc: float
    youden_j: float

    def __post_init__(self):
        if not self.control_sd > 0:
            raise ValueError(f"control sd must be positive, got {self.control_sd}")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")

    def score(self, record: SubjectRecord) -> float:
        return (oe_tlv(record) - self.control_mean) / self.control_sd

    def predict(self, record: SubjectRecord) -> Group:
        score = self.score(record)
        positive = (score > self.threshold if self.polarity is Polarity.POSITIVE_HIGH
                    else score < self.threshold)
        return Group.FGR if positive else Group.CONTROL


def train_classifier(records: list[SubjectRecord]) -> TrainedClassifier:
    """Calibrate the volume-ratio classifier on a training cohort.

    Ratios are standardized against the control subjects; the score direction
    (high vs low = disease) is chosen by training AUC, so the classifier does
    not presuppose which way the ratios separate. A training set whose groups
    do not separate at all (best Youden J of 0) is a ValueError.
    """
    if len(records) < 2:
        raise ValueError("training needs at least two subjects")
    ratios = np.array([oe_tlv(r) for r in records])
    labels = np.array([r.group is Group.FGR for r in records])
    if labels.all() or not labels.any():
        raise ValueError("training set must contain both FGR and control subjects")
    mean, sd = zscore_fit(ratios[~labels])
    z = (ratios - mean) / sd

    high = roc(z, labels, Polarity.POSITIVE_HIGH)
    low = roc(z, labels, Polarity.POSITIVE_LOW)
    best = high if high.auc >= low.auc else low
    if best.youden_j <= 0.0:
        raise ValueError("the training groups do not separate: the best Youden J is 0")
    return TrainedClassifier(
        control_mean=mean, control_sd=sd, polarity=best.polarity,
        threshold=best.youden_threshold, auc=best.auc, youden_j=best.youden_j,
    )
