"""Stable sampling of one-dimensional shift-invariant spaces.

A generator (centered B-spline or tabulated profile) spans a shift-invariant
space through its integer translates.  Sampling the space on a perturbed
integer set x_k = k + delta_k (|delta_k| <= C) gives the point-evaluation
matrix P[l, k] = g(x_l - k) over a finite index window; its normal matrix
P^H P is the autocorrelation Gram of the associated dual-companion family,
and the ladder behaviour of that Gram decides stable sampling.

Windows are centered integer ranges.  Truncation causes edge effects, so all
symbol-limit quantities are computed on interior submatrices (a band of
width support_radius + ceil(C) is trimmed on each side).

P[l, k] vanishes unless |l - k| <= ceil(support_radius + C), so P^H P and
the shift Gram are band matrices.  ``stable_sampling_verdict`` builds only
their bands and takes every witness from the banded Hermitian kernels of
``linalg``: each bisection step costs n times the squared bandwidth and
the exact inverse norm n^2 times the bandwidth.  ``sampling_matrix``,
``autocorrelation_gram`` and ``shift_gram`` are the dense constructions of
the same matrices, kept for demonstrations and as the test oracle.
"""

from dataclasses import dataclass
import math
from typing import Optional, Tuple

import numpy as np
import scipy.linalg as sla

from . import frames, linalg
from .errors import (
    GeneratorUnsuitableError,
    LadderTooShortError,
    NotSeparatedError,
    PerturbationViolationError,
)
from .frames import TruncationLadder
from .ladder import LADDER_DECAY_FACTOR, VERDICT_PASS, Witness, consensus, verdicts_agree

SEP_MIN = 1e-6


def bspline_eval(degree: int, t):
    """Centered cardinal B-spline of the given degree, vectorized over t.

    Degree 0 is the indicator of [-1/2, 1/2); degree n is the n-fold
    self-convolution, supported on [-(n+1)/2, (n+1)/2].  Evaluated by the
    uniform-knot recursion, which is exact piecewise-polynomial arithmetic.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    x = np.asarray(t, dtype=float) + (degree + 1) / 2.0
    vals = [np.where((j <= x) & (x < j + 1), 1.0, 0.0) for j in range(degree + 1)]
    for d in range(1, degree + 1):
        vals = [
            (x - j) / d * vals[j] + (j + d + 1 - x) / d * vals[j + 1]
            for j in range(degree + 1 - d)
        ]
    out = vals[0]
    return out if out.shape else float(out)


@dataclass(frozen=True)
class Generator:
    """Shift-invariant-space generator: centered B-spline or tabulated.

    Tabulated generators carry samples on a uniform grid centered at 0 with
    step ``step`` and a claimed polynomial decay exponent ``decay_s`` > 1.
    The claim is validated at construction: the decay constant is fitted on
    the inner half of the grid and tested on the outer half.
    """

    kind: str = "bspline"
    degree: int = 3
    samples: Optional[np.ndarray] = None
    step: float = 1.0
    decay_s: float = 2.0

    def __post_init__(self):
        if self.kind == "bspline":
            if self.degree < 0:
                raise GeneratorUnsuitableError(f"degree must be >= 0, got {self.degree}")
        elif self.kind == "tabulated":
            if self.samples is None:
                raise GeneratorUnsuitableError("tabulated generator needs samples")
            s = np.array(self.samples, dtype=complex)
            if s.ndim != 1 or s.size < 5:
                raise GeneratorUnsuitableError("need a 1-D grid of >= 5 samples")
            if not np.all(np.isfinite(s)):
                raise GeneratorUnsuitableError("samples must be finite")
            if self.step <= 0:
                raise GeneratorUnsuitableError(f"step must be > 0, got {self.step}")
            if self.decay_s <= 1:
                raise GeneratorUnsuitableError(
                    f"decay exponent must exceed 1, got {self.decay_s}"
                )
            s.flags.writeable = False
            object.__setattr__(self, "samples", s)
            self._check_decay_claim()
        else:
            raise GeneratorUnsuitableError(f"unknown generator kind {self.kind!r}")

    def _grid(self) -> np.ndarray:
        n = self.samples.size
        return (np.arange(n) - (n - 1) / 2.0) * self.step

    def _check_decay_claim(self):
        grid = self._grid()
        mags = np.abs(self.samples)
        inner = np.abs(grid) <= grid.max() / 2.0
        weights = np.power(1.0 + np.abs(grid), self.decay_s)
        c = float(np.max(mags[inner] * weights[inner]))
        bound = c * np.power(1.0 + np.abs(grid[~inner]), -self.decay_s)
        if np.any(mags[~inner] > bound * (1.0 + 1e-12)):
            worst = float(np.max(mags[~inner] - bound))
            raise GeneratorUnsuitableError(
                "tabulated samples violate the claimed polynomial decay "
                f"(outer-half excess {worst:.3e})"
            )

    @property
    def support_radius(self) -> float:
        if self.kind == "bspline":
            return (self.degree + 1) / 2.0
        return float(self._grid().max())

    @property
    def continuous(self) -> bool:
        # degree-0 box is the one discontinuous generator we accept; its
        # integer shifts are exactly orthonormal, so every verdict below is
        # still meaningful.
        return self.kind != "bspline" or self.degree >= 1

    def to_json(self) -> dict:
        if self.kind == "bspline":
            return {"kind": "bspline", "degree": self.degree}
        return {
            "kind": "tabulated",
            "grid": {
                "samples": np.stack([self.samples.real, self.samples.imag],
                                    axis=1).tolist(),
                "step": self.step,
                "decay_s": self.decay_s,
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Generator":
        kind = obj.get("kind", "bspline")
        if kind == "bspline":
            return cls(kind="bspline", degree=int(obj.get("degree", 3)))
        if kind != "tabulated":
            raise ValueError(f"unknown generator kind {kind!r}")
        payload = obj.get("grid", obj)  # nested form is canonical, flat accepted
        raw = np.asarray(payload["samples"])
        samples = (np.array([complex(re, im) for re, im in raw])
                   if raw.ndim == 2 else raw.astype(complex))
        return cls(kind="tabulated", samples=samples,
                   step=float(payload.get("step", 1.0)),
                   decay_s=float(payload.get("decay_s", 2.0)))


def generator_eval(g: Generator, t):
    """Evaluate the generator at scalar or array argument.

    B-splines go through the exact recursion; tabulated generators are
    linearly interpolated and vanish outside their grid.
    """
    if g.kind == "bspline":
        return bspline_eval(g.degree, t)
    grid = g._grid()
    tt = np.asarray(t, dtype=float)
    re = np.interp(tt, grid, g.samples.real, left=0.0, right=0.0)
    im = np.interp(tt, grid, g.samples.imag, left=0.0, right=0.0)
    out = re + 1j * im
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class SamplingSet:
    """Perturbed integer sampling points x_k = k + delta_k with |delta_k| <= C.

    The perturbation is given by a rule so that every window size draws
    consistent (nested) deltas:

    * ``constant``: delta_k = value for all k,
    * ``seeded-uniform``: delta_k uniform in [-bound, bound], derived
      deterministically from (seed, k) so windows nest,
    * ``explicit``: a fixed array over the centered window of its length;
      a shorter window takes the centered slice, so windows nest.
    """

    rule: str = "constant"
    value: float = 0.0
    bound: float = 0.0
    seed: int = 0
    explicit: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.rule == "constant":
            object.__setattr__(self, "bound", abs(self.value))
        elif self.rule == "seeded-uniform":
            if self.bound < 0:
                raise PerturbationViolationError(f"bound must be >= 0, got {self.bound}")
        elif self.rule == "explicit":
            d = np.array(self.explicit, dtype=float)
            if d.ndim != 1:
                raise ValueError("explicit deltas must be 1-D")
            d.flags.writeable = False
            object.__setattr__(self, "explicit", d)
            bound = self.bound if self.bound > 0 else (float(np.max(np.abs(d))) if d.size else 0.0)
            object.__setattr__(self, "bound", bound)
        else:
            raise PerturbationViolationError(f"unknown sampling rule {self.rule!r}")

    @classmethod
    def constant(cls, value: float) -> "SamplingSet":
        return cls(rule="constant", value=float(value))

    @classmethod
    def seeded_uniform(cls, bound: float, seed: int = 0) -> "SamplingSet":
        return cls(rule="seeded-uniform", bound=float(bound), seed=int(seed))

    @classmethod
    def from_deltas(cls, deltas, bound: Optional[float] = None) -> "SamplingSet":
        return cls(rule="explicit", explicit=np.asarray(deltas, dtype=float),
                   bound=0.0 if bound is None else float(bound))

    def window(self, n: int) -> np.ndarray:
        """Centered integer window of length n."""
        return np.arange(n) - n // 2

    def deltas(self, n: int) -> np.ndarray:
        if self.rule == "constant":
            return np.full(n, self.value)
        if self.rule == "seeded-uniform":
            ints = self.window(n)
            return np.array([
                np.random.default_rng((self.seed, int(k) & 0xFFFFFFFF)).uniform(
                    -self.bound, self.bound)
                for k in ints
            ])
        if n > self.explicit.size:
            raise PerturbationViolationError(
                f"explicit deltas cover {self.explicit.size} points, window wants {n}"
            )
        start = self.explicit.size // 2 - n // 2
        return self.explicit[start:start + n]

    def points(self, n: int) -> np.ndarray:
        """Validated sampling points over the centered window of length n."""
        d = self.deltas(n)
        if np.max(np.abs(d)) > self.bound + 1e-15:
            raise PerturbationViolationError(
                f"max |delta| = {np.max(np.abs(d)):.3e} exceeds bound {self.bound:.3e}"
            )
        x = self.window(n) + d
        gaps = np.diff(np.sort(x))
        if gaps.size and gaps.min() < SEP_MIN:
            raise NotSeparatedError(
                f"minimal spacing {gaps.min():.3e} below sep_min {SEP_MIN:.0e}"
            )
        return x

    def to_json(self) -> dict:
        if self.rule == "constant":
            return {"kind": "constant", "value": self.value}
        if self.rule == "seeded-uniform":
            return {"kind": "seeded-uniform", "bound": self.bound, "seed": self.seed}
        return {"kind": "explicit", "deltas": self.explicit.tolist(), "bound": self.bound}

    @classmethod
    def from_json(cls, obj: dict) -> "SamplingSet":
        kind = obj.get("kind", "constant")
        if kind == "constant":
            return cls.constant(float(obj.get("value", 0.0)))
        if kind == "seeded-uniform":
            return cls.seeded_uniform(float(obj["bound"]), int(obj.get("seed", 0)))
        if kind == "explicit":
            return cls.from_deltas(obj["deltas"], obj.get("bound"))
        raise ValueError(f"unknown sampling rule {kind!r}")


def sampling_matrix(g: Generator, x: SamplingSet, window: int) -> np.ndarray:
    """Point-evaluation matrix P[l, k] = g(x_l - k) over the centered window.

    Row l is the analysis pattern of the point-evaluation functional at x_l
    against the integer shifts: applied to shift coefficients it returns the
    sample value at x_l.
    """
    pts = x.points(window)
    ints = x.window(window)
    return np.asarray(generator_eval(g, np.subtract.outer(pts, ints)), dtype=complex)


def autocorrelation_gram(g: Generator, x: SamplingSet, window: int) -> np.ndarray:
    """Normal matrix P^H P of the sampling matrix (Hermitian PSD).

    Entry (k, n) sums g(x_l - k) conj(g(x_l - n)) over the window; this is
    the Gram of the dual-companion family of the sampling functionals, built
    here directly (the summation order is whatever the matrix product uses,
    and callers comparing against P^H P reproduce it exactly by computing
    the same product).
    """
    p = sampling_matrix(g, x, window)
    return p.conj().T @ p


def _shift_row(g: Generator, length: int) -> np.ndarray:
    """Entries m = 0 .. length - 1 of the shift Gram's first column: the L2
    inner product of g(t) and g(t - m)."""
    if g.kind == "bspline":
        # Autocorrelation of a centered degree-n B-spline at integer offsets
        # is the centered degree-(2n+1) B-spline there.
        return np.asarray(bspline_eval(2 * g.degree + 1, np.arange(length, dtype=float)))
    grid = g._grid()
    radius = g.support_radius
    row = np.zeros(length, dtype=complex)
    for m in range(min(length, math.ceil(2 * radius))):
        # On the overlap [m - R, R], g(t) and g(t - m) are both linear between
        # consecutive merged breakpoints, so their product is a quadratic
        # there and Simpson's rule integrates it exactly.
        knots = np.union1d(grid, grid + m)
        knots = knots[(knots >= m - radius) & (knots <= radius)]
        pts = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2.0])
        vals = generator_eval(g, pts) * np.conj(generator_eval(g, pts - m))
        ends, mids = vals[:knots.size], vals[knots.size:]
        row[m] = np.sum(np.diff(knots) / 6.0 * (ends[:-1] + 4.0 * mids + ends[1:]))
    return row


def shift_gram(g: Generator, window: int) -> np.ndarray:
    """Gram matrix of the integer shifts of the generator over the window.

    Entry (k, l) is the L2 inner product of the shifts by l and by k, a
    Hermitian Toeplitz matrix.  B-splines use the exact closed form;
    tabulated generators are integrated exactly, cell by cell between the
    merged breakpoints of the two linear interpolants.
    """
    row = _shift_row(g, window)
    # row[m] integrates g(t) conj(g(t - m)); entry (k, l) is row[k - l] on and
    # below the diagonal and conj(row)[l - k] above it.
    return sla.toeplitz(row, np.conj(row)).astype(complex)


def _shift_band(g: Generator, size: int, rows: int) -> np.ndarray:
    """The first ``rows`` diagonals of ``shift_gram(g, size)`` in lower band
    storage (``linalg.band_min_eig``)."""
    return np.repeat(_shift_row(g, rows)[:, None], size, axis=1)


def _interior_gram_band(g: Generator, pts: np.ndarray, width: int,
                        trim: int) -> np.ndarray:
    """Lower band of the interior of P^H P for the window sampled at ``pts``.

    P[l, k] = g(x_l - k) vanishes unless |l - k| <= ``width``, so only the
    n x (2 width + 1) values of P near its diagonal are evaluated, at the
    same arguments ``sampling_matrix`` uses; the Gram has bandwidth
    2 width, clamped to the interior size minus one.
    """
    n = pts.size
    span = 2 * width + 1
    # col[k, t] = P[k + t - width, k]: column k of P from its first possibly
    # nonzero row on, zero where that row lies outside the window.
    rows = np.arange(n)[:, None] + np.arange(-width, width + 1)
    inside = (rows >= 0) & (rows < n)
    ints = np.broadcast_to(np.arange(n)[:, None] - n // 2, rows.shape)
    vals = np.asarray(generator_eval(g, pts[rows[inside]] - ints[inside]))
    col = np.zeros(rows.shape, dtype=vals.dtype)
    col[inside] = vals
    interior = n - 2 * trim
    band = np.zeros((min(span - 1, interior - 1) + 1, interior), dtype=col.dtype)
    for d in range(band.shape[0]):
        # G[k + d, k] sums conj(P[l, k + d]) P[l, k] over the rows l they share.
        band[d, :interior - d] = np.einsum(
            "ij,ij->i", np.conj(col[trim + d:n - trim, :span - d]),
            col[trim:n - trim - d, d:])
    return band


@dataclass(frozen=True)
class SamplingReport:
    """Stable-sampling verdict with per-item ladders.

    Items: (a) direct two-sided sampling bounds from the generalized
    eigenproblem of (P^H P, shift Gram); (b) sup-norm variant, marked
    duality-derived; (c)/(d)/(e) invertibility of the autocorrelation Gram
    in the 1-, max- and 2-norm.
    """

    items: Tuple[Witness, ...]
    stable: bool
    consistent: bool
    ladder: Tuple[int, ...]
    trim: int
    direct_bounds: Tuple[Tuple[int, float, float], ...]
    generator_continuous: bool
    note: str

    def item(self, item_id: str) -> Witness:
        for it in self.items:
            if it.id == item_id:
                return it
        raise KeyError(item_id)

    def to_json(self) -> dict:
        return {
            "ladder": list(self.ladder),
            "trim": self.trim,
            "items": [it.to_json() for it in self.items],
            "stable": self.stable,
            "consistent": self.consistent,
            "direct_bounds": [[int(s), a, b] for s, a, b in self.direct_bounds],
            "generator_continuous": self.generator_continuous,
            "note": self.note,
        }

    def witness_csv(self) -> str:
        """CSV table (size, witness per item) for plotting."""
        header = "size," + ",".join(f"item_{it.id}" for it in self.items)
        lines = [header]
        for idx, size in enumerate(self.ladder):
            cells = [str(size)]
            for it in self.items:
                v = it.quantities[idx][1]
                cells.append("singular" if math.isinf(v) else repr(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


_ITEM_STATEMENTS = {
    "a": "perturbed samples bound the 2-norm of the shift-invariant slice from both sides",
    "b": "sup-norm sampling stability (duality-derived, not computed independently)",
    "c": "autocorrelation Gram stays invertible in the 1-norm",
    "d": "autocorrelation Gram stays invertible in the max-norm",
    "e": "autocorrelation Gram stays invertible in the 2-norm",
}

PROXY_DISCLAIMER = (
    "edge effects are trimmed (interior submatrices); a witness degrading by "
    f"more than a factor of {LADDER_DECAY_FACTOR:g} across the window ladder "
    "fails its uniformity proxy"
)


def generator_suitability(g: Generator, probe_window: int = 64,
                          tol: float = frames.TOL_FRAME) -> dict:
    """Check the generator prerequisites: decay and stable integer shifts.

    Tabulated decay is validated at construction; here the integer shifts
    must form a Riesz basis of their span (positive smallest eigenvalue of
    the shift Gram on a probe window).  Continuity is recorded, not
    enforced: the degree-0 box is accepted because its shifts are exactly
    orthonormal.
    """
    rows = min(math.ceil(2 * g.support_radius), probe_window)
    lam_min = max(linalg.band_min_eig(_shift_band(g, probe_window, rows)), 0.0)
    if lam_min <= tol:
        raise GeneratorUnsuitableError(
            f"integer shifts fail the Riesz check: smallest Gram eigenvalue "
            f"{lam_min:.3e} <= {tol:.0e}"
        )
    return {"continuous": g.continuous, "shift_riesz_lower": lam_min}


def stable_sampling_verdict(g: Generator, x: SamplingSet,
                            ladder: TruncationLadder,
                            tol: float = frames.TOL_FRAME) -> SamplingReport:
    """Decide stable sampling from autocorrelation-Gram ladders.

    The sampling points are drawn and validated once, for the largest
    window; every smaller window takes their centered slice, so the whole
    ladder is checked before anything is computed.  Per window size the
    interior of G = P^H P (a boundary band of width support_radius + ceil(C)
    trimmed on each side) is built in band storage, and the witnesses are
    its smallest eigenvalue (item e), its 1-norm condition number (item c;
    G is Hermitian, so item d, the max-norm one, is the same number) and the
    extremal generalized eigenvalues of the pencil (interior G, interior
    shift Gram) as direct sampling bounds (item a).  Item (b) carries the
    consensus verdict, annotated duality-derived.
    """
    trim = int(math.ceil(g.support_radius)) + int(math.ceil(x.bound))
    for size in ladder:
        if size - 2 * trim < 2:
            raise LadderTooShortError(
                f"window {size} leaves fewer than 2 interior indices after "
                f"trimming {trim} per side"
            )
    largest = ladder.sizes[-1]
    pts = x.points(largest)
    suit = generator_suitability(g, probe_window=max(ladder.sizes[0], 32), tol=tol)
    width = math.ceil(g.support_radius + x.bound)

    q = {key: [] for key in ("a", "c", "d", "e")}
    bounds_ladder = []
    for size in ladder:
        start = largest // 2 - size // 2
        gi = _interior_gram_band(g, pts[start:start + size], width, trim)
        shift = _shift_band(g, gi.shape[1], gi.shape[0])

        lam_min = linalg.band_min_eig(gi)
        q["e"].append(max(lam_min, 0.0))
        # G is positive semidefinite, so its singular values are its
        # eigenvalues and the singular flag compares the extremal two.
        if lam_min <= linalg.TOL_SING * -linalg.band_min_eig(-gi):
            cond = math.inf
        else:
            cond = linalg.band_condition(gi)
        q["c"].append(cond)
        q["d"].append(cond)

        lo = max(linalg.band_min_eig(gi, shift), 0.0)
        hi = -linalg.band_min_eig(-gi, shift)
        q["a"].append(lo)
        bounds_ladder.append((size, lo, hi))

    notes = {
        "a": "extremal generalized eigenvalues of (interior autocorrelation "
             "Gram, interior shift Gram): direct two-sided sampling bounds",
        "c": "interior 1-norm condition number",
        "d": "interior max-norm condition number",
        "e": "interior smallest eigenvalue",
    }
    items = {
        key: Witness.from_ladder(key, _ITEM_STATEMENTS[key], notes[key],
                                 ladder.sizes, q[key],
                                 "gain" if key in "ae" else "condition", tol)
        for key in "acde"
    }

    computed = [items[k].verdict for k in "acde"]
    items["b"] = Witness(
        id="b", statement=_ITEM_STATEMENTS["b"],
        proxy_note="duality-derived: carries the consensus verdict of the "
                   "computed items and is never asserted independently",
        quantities=items["e"].quantities,
        verdict=consensus(computed), kind="gain",
    )

    return SamplingReport(
        items=tuple(items[k] for k in "abcde"),
        stable=all(v == VERDICT_PASS for v in computed),
        consistent=verdicts_agree(computed),
        ladder=ladder.sizes,
        trim=trim,
        direct_bounds=tuple(bounds_ladder),
        generator_continuous=suit["continuous"],
        note=PROXY_DISCLAIMER,
    )
