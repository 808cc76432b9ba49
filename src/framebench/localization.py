"""Off-diagonal-decay diagnostics for (cross-)Gram matrices.

Two matrix-algebra norms are implemented for a one-dimensional integer index
model (offset = |k - l|): the polynomial-decay sup norm with exponent s > 1,
and the weighted Schur norm (max of weighted row/column sup-sums).  Both are
solid: shrinking entries in modulus can only shrink the norm.

Membership of an infinite matrix in a decay algebra is undecidable from
finitely many truncations.  The ladder verdicts below are therefore explicit
heuristics: a family generator rebuilds the families at every ladder size,
the profile norm is recorded per size, and the trend decides between
``localized``, ``growth-detected`` and ``inconclusive``.  Every report labels
the verdict as heuristic evidence.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import frames
from .errors import BadExponentError, InsufficientDataError
from .frames import TruncationLadder, VectorFamily

#: Ladder norms whose max/min ratio stays below 1 + TOL_GROWTH count as flat.
TOL_GROWTH = 0.05

#: Cap for fitted decay exponents; |log| of the smallest positive double, the
#: steepest slope measurable from nonzero entries.
MAX_DECAY_EXPONENT = 745.0

VERDICT_LOCALIZED = "localized"
VERDICT_GROWTH = "growth-detected"
VERDICT_INCONCLUSIVE = "inconclusive"

HEURISTIC_NOTE = (
    "ladder-ratio heuristic: finitely many truncations cannot decide "
    "membership in an infinite-dimensional decay algebra; treat the verdict "
    "as evidence, not proof"
)


@dataclass(frozen=True)
class WeightSpec:
    """Symmetric weight on integer offsets, >= 1 everywhere.

    ``polynomial``: w(x) = scale * (1 + |x|)**delta with scale >= 1 and
    delta > 0 (delta <= 1 keeps the weight inside the admissible class for
    the weighted Schur algebra; larger values are accepted but flagged by
    callers if they care).  ``subexponential``: w(x) = exp(rate * |x|**power)
    with rate >= 0 and 0 < power < 1.
    """

    form: str = "polynomial"
    delta: float = 1.0
    scale: float = 1.0
    rate: float = 0.0
    power: float = 0.5

    def __post_init__(self):
        if self.form == "polynomial":
            if self.delta <= 0:
                raise BadExponentError(f"polynomial weight needs delta > 0, got {self.delta}")
            if self.scale < 1:
                raise ValueError(f"weight(0) = scale must be >= 1, got {self.scale}")
        elif self.form == "subexponential":
            if self.rate < 0:
                raise ValueError(f"subexponential rate must be >= 0, got {self.rate}")
            if not 0 < self.power < 1:
                raise BadExponentError(
                    f"subexponential power must lie in (0, 1), got {self.power}"
                )
        else:
            raise ValueError(f"unknown weight form {self.form!r}")

    def __call__(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        if self.form == "polynomial":
            return self.scale * np.power(1.0 + ax, self.delta)
        return np.exp(self.rate * np.power(ax, self.power))

    def to_json(self) -> dict:
        if self.form == "polynomial":
            return {"form": "polynomial", "delta": self.delta, "scale": self.scale}
        return {"form": "subexponential", "rate": self.rate, "power": self.power}

    @classmethod
    def from_json(cls, obj: dict) -> "WeightSpec":
        form = obj.get("form", "polynomial")
        if form == "polynomial":
            return cls(form="polynomial", delta=float(obj.get("delta", 1.0)),
                       scale=float(obj.get("scale", 1.0)))
        if form == "subexponential":
            return cls(form="subexponential", rate=float(obj.get("rate", 0.0)),
                       power=float(obj.get("power", 0.5)))
        raise ValueError(f"unknown weight form {form!r}")


@dataclass(frozen=True)
class LocalizationProfile:
    """Which decay norm to use: polynomial sup norm or weighted Schur norm."""

    kind: str = "jaffard"
    s: float = 2.0
    weight: WeightSpec = WeightSpec()

    def __post_init__(self):
        if self.kind == "jaffard":
            if self.s <= 1:
                raise BadExponentError(
                    f"polynomial sup norm needs s > 1 for the 1-D index model, got {self.s}"
                )
        elif self.kind != "schur":
            raise ValueError(f"unknown profile kind {self.kind!r}")

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
        kind = obj.get("kind", "jaffard")
        if kind == "schur":
            return cls(kind="schur", weight=WeightSpec.from_json(obj.get("weight", {})))
        return cls(kind=kind, s=float(obj.get("s", 2.0)))


@dataclass(frozen=True)
class DecayReport:
    """Profile norms along a ladder plus the trend verdict."""

    profile: LocalizationProfile
    ladder_norms: Tuple[Tuple[int, float], ...]
    fitted_exponent: float
    verdict: str
    note: str = HEURISTIC_NOTE

    def to_json(self) -> dict:
        return {
            "profile": self.profile.to_json(),
            "ladder": [[int(s), float(v)] for s, v in self.ladder_norms],
            "fitted_exponent": self.fitted_exponent,
            "verdict": self.verdict,
            "note": self.note,
        }


def _offsets(rows: int, cols: int) -> np.ndarray:
    return np.abs(np.subtract.outer(np.arange(rows), np.arange(cols)))


def jaffard_norm(a, s: float) -> float:
    """Polynomial-decay sup norm: max over entries of |A_{k,l}| (1+|k-l|)^s."""
    if s <= 1:
        raise BadExponentError(f"exponent must exceed the index dimension 1, got {s}")
    m = np.abs(np.asarray(a, dtype=complex))
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    w = np.power(1.0 + _offsets(*m.shape), s)
    return float(np.max(m * w))


def schur_norm(a, weight: WeightSpec) -> float:
    """Weighted Schur norm: max of weighted row-sum sup and column-sum sup.

    Rows and columns are reduced with the same contiguous-slice summation the
    operator 1-/inf-norms use, so with the constant weight 1 this equals
    max(pnorm_operator(a, 1), pnorm_operator(a, inf)) bit for bit.
    """
    m = np.abs(np.asarray(a, dtype=complex))
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    w = weight(np.subtract.outer(np.arange(m.shape[0]), np.arange(m.shape[1])))
    mw = m * w

    def slice_sum(vec):
        return float(np.add.reduce(np.ascontiguousarray(vec)))

    row_sup = max(slice_sum(mw[i, :]) for i in range(mw.shape[0]))
    col_sup = max(slice_sum(mw[:, j]) for j in range(mw.shape[1]))
    return max(row_sup, col_sup)


def _ladder_verdict(norms) -> str:
    values = np.asarray(norms, dtype=float)
    hi, lo = float(values.max()), float(values.min())
    if hi == 0.0:
        return VERDICT_LOCALIZED  # identically zero matrices: nothing to decay
    if lo > 0.0 and hi <= (1.0 + TOL_GROWTH) * lo:
        return VERDICT_LOCALIZED
    if values[0] > 0.0 and values[-1] > (1.0 + TOL_GROWTH) * values[0]:
        return VERDICT_GROWTH
    return VERDICT_INCONCLUSIVE


def _fit_ladder_exponent(sizes, norms) -> float:
    values = np.asarray(norms, dtype=float)
    if np.any(values <= 0):
        return 0.0
    slope = np.polyfit(np.log(np.asarray(sizes, dtype=float)), np.log(values), 1)[0]
    return float(slope)


def decay_report(profile: LocalizationProfile, sizes, norms) -> DecayReport:
    """Assemble a report from per-size profile norms."""
    return DecayReport(
        profile=profile,
        ladder_norms=tuple((int(s), float(v)) for s, v in zip(sizes, norms)),
        fitted_exponent=_fit_ladder_exponent(sizes, norms),
        verdict=_ladder_verdict(norms),
    )


FamilyPairGen = Callable[[int], Tuple[VectorFamily, VectorFamily]]


def mutual_localization(family_gen: FamilyPairGen, profile: LocalizationProfile,
                        ladder: TruncationLadder) -> DecayReport:
    """Profile norm of the cross Gram of ``family_gen(size)`` along a ladder.

    The callback rebuilds both families at every size so the ladder probes a
    consistent definition instead of re-truncating one fixed matrix.
    """
    norms = []
    for size in ladder:
        psi, phi = family_gen(size)
        norms.append(profile.norm(frames.cross_gram(psi, phi)))
    return decay_report(profile, ladder.sizes, norms)


def fit_decay_exponent(a) -> float:
    """Least-squares decay exponent of off-diagonal maxima.

    Fits log(max_{|k-l|=r} |A_{k,l}|) against -log(1+r) over offsets r >= 1
    with a nonzero maximum; needs at least three such offsets.  Superfast
    decay (entries vanishing beyond a band) simply drops the zero offsets,
    and the result is clipped to ``MAX_DECAY_EXPONENT``.
    """
    m = np.abs(np.asarray(a, dtype=complex))
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    off = _offsets(*m.shape)
    rs, ys = [], []
    for r in range(1, int(off.max()) + 1 if off.size else 1):
        vals = m[off == r]
        if vals.size and vals.max() > 0:
            rs.append(r)
            ys.append(float(vals.max()))
    if len(rs) < 3:
        raise InsufficientDataError(
            f"need >= 3 off-diagonal offsets with nonzero maxima, found {len(rs)}"
        )
    x = -np.log1p(np.asarray(rs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    slope = float(np.polyfit(x, y, 1)[0])
    return float(np.clip(slope, -MAX_DECAY_EXPONENT, MAX_DECAY_EXPONENT))
