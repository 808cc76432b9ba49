"""Off-diagonal-decay diagnostics for (cross-)Gram matrices.

Two matrix-algebra norms are implemented for a one-dimensional integer index
model (offset = |k - l|): the polynomial-decay sup norm with exponent s > 1,
and the weighted Schur norm (max of weighted row/column sup-sums).  Both are
solid: shrinking entries in modulus can only shrink the norm.

Membership of an infinite matrix in a decay algebra is undecidable from
finitely many truncations, so ``ladder_verdict`` is a heuristic: from the
profile norms of one matrix rebuilt at every ladder size (the battery's
reference check records those of the reference Gram), the trend decides
between ``localized``, ``growth-detected`` and ``inconclusive``.  No report
prints the verdict; a battery whose reference is not ``localized`` fails
with a message that names it and the norms.
"""

from dataclasses import dataclass

import numpy as np

from . import fields, linalg
from .errors import BadExponentError, InsufficientDataError

#: Ladder norms whose max/min ratio stays below 1 + TOL_GROWTH count as flat.
TOL_GROWTH = 0.05

#: Cap for fitted decay exponents; |log| of the smallest positive double, the
#: steepest slope measurable from nonzero entries.
MAX_DECAY_EXPONENT = 745.0

VERDICT_LOCALIZED = "localized"
VERDICT_GROWTH = "growth-detected"
VERDICT_INCONCLUSIVE = "inconclusive"

#: The (optional, required) numbers of each weight form, its growth first.
_WEIGHT_FORMS = {"polynomial": (("delta",), ()), "subexponential": (("rate", "power"), ())}


@dataclass(frozen=True)
class WeightSpec:
    """Symmetric weight on integer offsets, >= 1 everywhere.

    ``polynomial``: w(x) = (1 + |x|)**delta with delta > 0 (delta <= 1
    keeps the weight inside the admissible class for the weighted Schur
    algebra; larger values are accepted but flagged by callers if they
    care).  ``subexponential``: w(x) = exp(rate * |x|**power) with rate >= 0
    and 0 < power < 1.
    """

    form: str = "polynomial"
    delta: float = 1.0
    rate: float = 0.0
    power: float = 0.5

    def __post_init__(self):
        fields.require_kind("weight form", self.form, _WEIGHT_FORMS)
        for name in ("delta", "rate", "power"):
            object.__setattr__(self, name,
                               float(fields.require_finite(name, getattr(self, name))))
        if self.form == "polynomial":
            if self.delta <= 0:
                raise BadExponentError(f"polynomial weight needs delta > 0, got {self.delta}")
        elif self.rate < 0:
            raise ValueError(f"subexponential rate must be >= 0, got {self.rate}")
        elif not 0 < self.power < 1:
            raise BadExponentError(
                f"subexponential power must lie in (0, 1), got {self.power}")

    def __call__(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        if self.form == "polynomial":
            return np.power(1.0 + ax, self.delta)
        return np.exp(self.rate * np.power(ax, self.power))

    def to_json(self) -> dict:
        if self.form == "polynomial":
            return {"form": "polynomial", "delta": self.delta}
        return {"form": "subexponential", "rate": self.rate, "power": self.power}

    @classmethod
    def from_json(cls, obj: dict) -> "WeightSpec":
        """The ``weight`` object of a Schur profile: ``form`` and the numbers
        of that form."""
        fields.require_tagged(fields.require_object("weight", obj), _WEIGHT_FORMS,
                              "weight form", cls.form, key="form", section="weight")
        return cls(**obj)


#: The (optional, required) fields of each profile kind.
_PROFILE_KINDS = {"jaffard": (("s",), ()), "schur": (("weight",), ())}


@dataclass(frozen=True)
class LocalizationProfile:
    """Which decay norm to use: polynomial sup norm or weighted Schur norm."""

    kind: str = "jaffard"
    s: float = 2.0
    weight: WeightSpec = WeightSpec()

    def __post_init__(self):
        if fields.require_kind("profile kind", self.kind, _PROFILE_KINDS) == "jaffard":
            object.__setattr__(self, "s", float(fields.require_finite("s", self.s)))
            if self.s <= 1:
                raise BadExponentError(
                    f"polynomial sup norm needs s > 1 for the 1-D index model, got {self.s}"
                )

    def norm(self, a) -> float:
        if self.kind == "jaffard":
            return jaffard_norm(a, self.s)
        return schur_norm(a, self.weight)

    def to_json(self) -> dict:
        if self.kind == "jaffard":
            return {"kind": "jaffard", "s": self.s}
        return {"kind": "schur", "weight": self.weight.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "LocalizationProfile":
        """``{"kind": "jaffard", "s"}`` or ``{"kind": "schur", "weight"}``."""
        fields.require_tagged(obj, _PROFILE_KINDS, "profile kind", cls.kind)
        if "weight" in obj:
            obj = dict(obj, weight=WeightSpec.from_json(obj["weight"]))
        return cls(**obj)


def _offsets(rows: int, cols: int) -> np.ndarray:
    return np.abs(np.subtract.outer(np.arange(rows), np.arange(cols)))


def _weighted_moduli(a, weight, field: str) -> np.ndarray:
    """|A_{k,l}| weight(|k-l|), 0 where A_{k,l} = 0 (never 0 * inf); a nonzero
    entry whose weight overflows is a ``BadExponentError`` naming ``field``."""
    m = np.abs(linalg.as_matrix(a))
    with np.errstate(over="ignore"):
        w = np.where(m > 0, weight(_offsets(*m.shape)), 0.0)
    if np.isinf(w).any():
        raise BadExponentError(f"{field} overflows the weight of a nonzero entry of "
                               f"the {m.shape[0]}x{m.shape[1]} matrix")
    return m * w


def jaffard_norm(a, s: float) -> float:
    """Polynomial-decay sup norm: max over entries of |A_{k,l}| (1+|k-l|)^s."""
    if s <= 1:
        raise BadExponentError(f"exponent must exceed the index dimension 1, got {s}")
    return float(np.max(_weighted_moduli(  # a table of the weight of each offset r
        a, lambda r: np.power(1.0 + np.arange(max(r.shape)), s)[r], f"'s' = {s:g}")))


def schur_norm(a, weight: WeightSpec) -> float:
    """Weighted Schur norm: max of weighted row-sum sup and column-sum sup.

    The weighted moduli are summed by ``linalg.line_sums``, the kernel
    behind the battery's 1-/max-norms, so with the constant weight 1 this
    equals max(||A||_1, ||A||_inf) as ``linalg.condition_1_inf`` sums them,
    bit for bit.
    """
    field = _WEIGHT_FORMS[weight.form][0][0]
    mw = _weighted_moduli(a, weight, f"{field!r} = {getattr(weight, field):g}")
    return float(max(np.max(linalg.line_sums(mw)), np.max(linalg.line_sums(mw.T))))


def ladder_verdict(norms) -> str:
    """The trend verdict on one matrix's profile norms along a ladder, by
    their max/min and last/first ratios against 1 + ``TOL_GROWTH``."""
    values = np.asarray(norms, dtype=float)
    hi, lo = float(values.max()), float(values.min())
    if hi == 0.0:
        return VERDICT_LOCALIZED  # identically zero matrices: nothing to decay
    if lo > 0.0 and hi <= (1.0 + TOL_GROWTH) * lo:
        return VERDICT_LOCALIZED
    if values[0] > 0.0 and values[-1] > (1.0 + TOL_GROWTH) * values[0]:
        return VERDICT_GROWTH
    return VERDICT_INCONCLUSIVE


def fit_decay_exponent(a) -> float:
    """Least-squares decay exponent of off-diagonal maxima.

    Fits log(max_{|k-l|=r} |A_{k,l}|) against -log(1+r) over offsets r >= 1
    with a nonzero maximum; needs at least three such offsets.  Superfast
    decay (entries vanishing beyond a band) simply drops the zero offsets,
    and the result is clipped to ``MAX_DECAY_EXPONENT``.
    """
    m = np.abs(linalg.as_matrix(a))
    off = _offsets(*m.shape)
    peaks = np.zeros(off.max(initial=0) + 1)
    np.maximum.at(peaks, off.ravel(), m.ravel())  # flat indices: numpy's fast path
    rs = np.flatnonzero(peaks[1:] > 0) + 1
    if rs.size < 3:
        raise InsufficientDataError(
            f"need >= 3 off-diagonal offsets with nonzero maxima, found {rs.size}"
        )
    x = -np.log1p(rs.astype(float))
    y = np.log(peaks[rs])
    slope = float(np.polyfit(x, y, 1)[0])
    return float(np.clip(slope, -MAX_DECAY_EXPONENT, MAX_DECAY_EXPONENT))
