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
``linalg``: each bisection step costs n times the squared bandwidth.  So a
band is stored only through its last diagonal that holds a nonzero entry
of G or of the shift Gram, which is often below the bound
2 ceil(support_radius + C): a B-spline of degree >= 1 vanishes at
|t| >= support_radius, so no point couples two shifts that far apart (the
cubic at C = 0.2 has bandwidth 3, not 6), and a tabulated profile may
vanish well inside its grid.  The
windows of a ladder nest, so the bands are built once, for the largest
window, and by Courant-Fischer each bisection after the first size starts
from its predecessor's result; each ends with a Rayleigh-quotient jump, so
a benchmark verdict (cubic, |delta| <= 0.2, ladder 128, 256, 512) makes
about 222 factorizations, not 400; the Riesz check of the integer shifts,
on their symbol, makes none.  The exact inverse norm costs one banded
factorization plus, for a B-spline (whose Gram is totally positive, so its
inverse has checkerboard signs), one solve of n rows, and for a tabulated
generator solves of about n^2 / 2 right-hand-side rows.  No dense n x n
matrix is formed.  The verdict is the one path that loads anything of
scipy: on their first call the band kernels load its compiled LAPACK
module, ``scipy.linalg._flapack``, without the ``scipy.linalg`` package
(see ``linalg``).

Seeded-uniform deltas follow numpy's stream: delta_k is the first
``default_rng((seed, k mod 2^32)).uniform(-bound, bound)`` draw.  The whole
window is drawn in one vectorized pass over numpy's seeding and PCG64
arithmetic, bit for bit, with no generator built per point.
"""

from dataclasses import dataclass, replace
import functools
import math
from typing import Optional, Tuple

import numpy as np

from . import fields, frames, linalg
from .errors import (
    BadExponentError,
    GeneratorUnsuitableError,
    LadderTooShortError,
    NotSeparatedError,
    PerturbationViolationError,
)
from .frames import TruncationLadder
from .ladder import (LADDER_DECAY_FACTOR, VERDICT_PASS, Witness, consensus, verdicts_agree,
                     witness_value)

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


#: The (optional, required) fields of each generator kind.
_KINDS = {"bspline": (("degree",), ()), "tabulated": ((), ("grid",))}


@dataclass(frozen=True)
class Generator:
    """Shift-invariant-space generator: centered B-spline or tabulated.

    Tabulated generators carry samples on a uniform grid centered at 0 with
    step ``step`` and a claimed polynomial decay exponent ``decay_s`` > 1.
    The claim is validated at construction: the decay constant is fitted on
    the inner half of the grid and tested on the outer half.  A degree
    below 0, a step <= 0 and a ``decay_s`` <= 1 (a ``BadExponentError``)
    are input errors; fewer than 5 samples, or samples that break the
    claim, make a ``GeneratorUnsuitableError``.
    """

    kind: str = "bspline"
    degree: int = 3
    samples: Optional[np.ndarray] = None
    step: float = 1.0
    decay_s: float = 2.0

    def __post_init__(self):
        if fields.require_kind("generator kind", self.kind, _KINDS) == "bspline":
            fields.require_integer("degree", self.degree, minimum=0)
        else:
            if self.samples is None:
                raise ValueError("a tabulated generator needs 'samples'")
            s = np.array(fields.require_numbers("samples", self.samples))
            for name in ("step", "decay_s"):
                object.__setattr__(self, name,
                                   float(fields.require_finite(name, getattr(self, name))))
            if s.ndim != 1:
                raise ValueError("tabulated samples must be 1-D")
            if self.step <= 0:
                raise ValueError(f"'step' must be > 0, got {self.step}")
            if self.decay_s <= 1:
                raise BadExponentError(
                    f"tabulated decay needs 'decay_s' > 1, got {self.decay_s}")
            if s.size < 5:
                raise GeneratorUnsuitableError("need a 1-D grid of >= 5 samples")
            if not math.isfinite((s.size - 1) * self.step):
                raise ValueError(f"'step' = {self.step:g} puts the grid past the float range")
            s.flags.writeable = False
            object.__setattr__(self, "samples", s)
            self._check_decay_claim()

    def _grid(self) -> np.ndarray:
        n = self.samples.size
        return (np.arange(n) - (n - 1) / 2.0) * self.step

    def _check_decay_claim(self):
        grid = self._grid()
        mags = np.abs(self.samples)
        inner = np.abs(grid) <= grid.max() / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            c = float(np.max(mags[inner] * np.power(1.0 + np.abs(grid[inner]), self.decay_s)))
        if not math.isfinite(c):
            raise ValueError(f"'decay_s' = {self.decay_s:g} overflows the decay constant")
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

    @classmethod
    def from_json(cls, obj: dict) -> "Generator":
        """A B-spline ``{"kind", "degree"}``, or a tabulated generator
        ``{"kind", "grid"}`` whose ``samples`` (``[re, im]`` pairs),
        ``step`` and ``decay_s`` sit in the ``grid`` object."""
        if fields.require_tagged(obj, _KINDS, "generator kind", cls.kind) == "bspline":
            return cls(**obj)
        params = fields.require_fields(fields.require_object("grid", obj["grid"]),
                                       ("step", "decay_s"), required=("samples",),
                                       section="grid")
        return cls(**dict(params, kind="tabulated",
                          samples=fields.require_pairs("samples", params["samples"])))


def generator_eval(g: Generator, t):
    """Evaluate the generator at scalar or array argument.

    B-splines go through the exact recursion; tabulated generators are
    linearly interpolated and vanish outside their grid.
    """
    if g.kind == "bspline":
        return bspline_eval(g.degree, t)
    grid = g._grid()
    tt = np.asarray(t, dtype=float)
    out = np.interp(tt, grid, g.samples.real, left=0.0, right=0.0)
    if np.iscomplexobj(g.samples):  # real samples have no imaginary part to add
        out = out + 1j * np.interp(tt, grid, g.samples.imag, left=0.0, right=0.0)
    return out if out.shape else out.item()


# numpy's SeedSequence and PCG64 constants (numpy.random.bit_generator and
# pcg64.h); the seeded-uniform stream is defined by them.
_M32 = 0xFFFFFFFF
_SEED_INIT_A, _SEED_MULT_A = 0x43B0D7E5, 0x931E8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# Seeding from state 0 takes two LCG steps (srandom) and the first output one
# more, so the state it outputs is s M^2 + (2 i + 1)(M^2 + M + 1) mod 2^128
# for the seed words s and i: s _PCG_MULT_S + i _PCG_MULT_I + _PCG_ADD.
_PCG_ADD = (_PCG_MULT ** 2 + _PCG_MULT + 1) % 2**128
_PCG_MULT_S = _PCG_MULT ** 2 % 2**128
_PCG_MULT_I = 2 * _PCG_ADD % 2**128


def _limbs(k: int) -> list:
    """The four 32-bit limbs of a 128-bit integer, least significant first."""
    return [(k >> 32 * r) & _M32 for r in range(4)]


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """Column of SeedSequence hash constants h_0 = init, h_{j+1} = h_j mult
    (mod 2^32), j < count + 1."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & _M32)
    return np.array(h, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of ``values`` with its consecutive
    constant pair (h_j, h_{j+1})."""
    v = (values ^ h[:-1]) * h[1:]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _SEED_MIX_L * x - _SEED_MIX_R * y
    return r ^ (r >> 16)


def _mul_add_128(acc: np.ndarray, limbs: np.ndarray, k: int) -> None:
    """acc += limbs * k for a 128-bit constant k, in 32-bit limbs (rows,
    least significant first) held in uint64 so that no partial sum
    overflows; ``acc`` has a fifth row for the carries out of the top limb,
    which mod 2^128 drops."""
    for b, kb in enumerate(_limbs(k)):
        p = limbs[:4 - b] * kb
        acc[b:4] += p & _M32
        acc[b + 1:] += p >> 32


def _seeded_uniform_draw(seed: int, keys: np.ndarray, bound: float) -> np.ndarray:
    """The first ``default_rng((seed, k)).uniform(-bound, bound)`` draw for
    each uint32 key k, bit for bit, in one vectorized pass.

    The three stages are numpy's: SeedSequence (``mix_entropy`` over a pool
    of 4 words, then ``generate_state(4, uint64)``), PCG64 seeding and one
    XSL-RR output with the 128-bit products split into 32-bit limbs, and
    ``Generator.uniform``, low + (high - low) (next_uint64 >> 11) 2^-53.
    All arithmetic stays on arrays, where unsigned overflow wraps silently;
    on numpy scalars it warns.  The uint64 words of ``generate_state`` are
    read as a little-endian host lays them out.  The tests keep the
    per-point ``default_rng`` draw as the oracle.
    """
    n = keys.size
    # entropy: the seed's little-endian 32-bit words (at least one), then k
    words = [(seed >> shift) & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.empty((len(words) + 1, n), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = keys
    h = _hash_chain(_SEED_INIT_A, _SEED_MULT_A, 16 + 4 * max(len(entropy) - 4, 0))
    pool = np.zeros((4, n), dtype=np.uint32)  # missing entropy words hash as 0
    pool[:len(entropy)] = entropy[:4]
    pool = _hashmix(pool, h[:5])
    j = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[j:j + 4]))
        j += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, h[j:j + 5]))
        j += 4
    state = _hashmix(np.tile(pool, (2, 1)),
                     _hash_chain(_SEED_INIT_B, _SEED_MULT_B, 8)).astype(np.uint64)
    # as uint64 words, state is (s_hi, s_lo, i_hi, i_lo)
    acc = np.zeros((5, n), dtype=np.uint64)
    acc[:4] = np.array(_limbs(_PCG_ADD), dtype=np.uint64)[:, None]
    _mul_add_128(acc, state[[2, 3, 0, 1]], _PCG_MULT_S)
    _mul_add_128(acc, state[[6, 7, 4, 5]], _PCG_MULT_I)
    for r in range(3):
        acc[r + 1] += acc[r] >> 32
    x = acc[:4] & _M32
    out = ((x[3] << 32) | x[2]) ^ ((x[1] << 32) | x[0])
    rot = x[3] >> 26
    out = (out >> rot) | (out << ((64 - rot) & 63))
    return -bound + (bound - -bound) * ((out >> 11) * 2.0 ** -53)


#: The (optional, required) fields of each delta rule.
_RULES = {"constant": (("value",), ()), "seeded-uniform": (("seed",), ("bound",)),
          "explicit": (("bound",), ("deltas",))}


@dataclass(frozen=True)
class SamplingSet:
    """Perturbed integer sampling points x_k = k + delta_k with |delta_k| <= C.

    The perturbation is given by a rule so that every window size draws
    consistent (nested) deltas:

    * ``constant``: delta_k = value for all k,
    * ``seeded-uniform``: delta_k uniform in [-bound, bound], the first
      ``default_rng((seed, k mod 2^32)).uniform(-bound, bound)`` draw for
      the centered index k, so windows nest; the window is drawn in one
      vectorized pass,
    * ``explicit``: a fixed array over the centered window of its length;
      a shorter window takes the centered slice, so windows nest.  An
      absent ``bound`` (None) defaults to max |delta|; a stated bound is
      kept, so a bound of 0 rejects nonzero deltas when the points are
      drawn.

    A stated bound that is negative or not a finite number, a value or an
    explicit delta that is not a finite number (a bool or a string is not
    one), and a seed that is not a non-negative integer are each a
    ``ValueError``; a bound and a value are stored as floats.
    """

    rule: str = "constant"
    value: float = 0.0
    bound: Optional[float] = None
    seed: int = 0
    explicit: Optional[np.ndarray] = None

    def __post_init__(self):
        fields.require_kind("sampling rule", self.rule, _RULES)
        if self.bound is not None:
            bound = float(fields.require_finite("bound", self.bound))
            if bound < 0.0:
                raise ValueError(f"delta bound must be a finite number >= 0, got {bound}")
            object.__setattr__(self, "bound", bound)
        if self.rule == "constant":
            value = float(fields.require_finite("value", self.value))
            object.__setattr__(self, "value", value)
            object.__setattr__(self, "bound", abs(value))
        elif self.rule == "seeded-uniform":
            if self.bound is None:
                raise ValueError("the seeded-uniform rule needs a bound")
            object.__setattr__(self, "seed",
                               int(fields.require_integer("seed", self.seed, minimum=0)))
        else:
            d = np.array(fields.require_numbers("deltas", self.explicit), dtype=float)
            if d.ndim != 1:
                raise ValueError("explicit deltas must be 1-D")
            d.flags.writeable = False
            object.__setattr__(self, "explicit", d)
            if self.bound is None:
                object.__setattr__(self, "bound", float(np.max(np.abs(d))) if d.size else 0.0)

    @classmethod
    def seeded_uniform(cls, bound: float, seed: int = 0) -> "SamplingSet":
        return cls(rule="seeded-uniform", bound=bound, seed=seed)

    def window(self, n: int) -> np.ndarray:
        """Centered integer window of length n."""
        return np.arange(n) - n // 2

    def deltas(self, n: int) -> np.ndarray:
        if self.rule == "constant":
            return np.full(n, self.value)
        if self.rule == "seeded-uniform":
            keys = (self.window(n) & _M32).astype(np.uint32)
            return _seeded_uniform_draw(self.seed, keys, self.bound)
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

    @classmethod
    def from_json(cls, obj: dict) -> "SamplingSet":
        """``{"kind", ...}`` with the fields of the rule in ``_RULES``;
        ``kind`` is the ``rule`` field and ``deltas`` the ``explicit`` one.
        An explicit rule leaves ``bound`` out for max |delta|; a ``null``
        bound is a ``ValueError``, as for any rule."""
        fields.require_tagged(obj, _RULES, "sampling rule", cls.rule)
        if obj.get("bound", 0.0) is None:
            raise ValueError("'bound' must be a number, got None")
        renamed = {"kind": "rule", "deltas": "explicit"}
        return cls(**{renamed.get(key, key): value for key, value in obj.items()})


@functools.lru_cache(maxsize=None)
def _bspline_shift_entries(degree: int) -> np.ndarray:
    """The nonzero entries m = 0 .. degree of a degree-``degree`` B-spline's
    shift row, read-only.  The autocorrelation of a centered degree-n
    B-spline at integer offsets is the centered degree-(2n+1) B-spline
    there, which vanishes at |m| >= n + 1."""
    entries = bspline_eval(2 * degree + 1, np.arange(degree + 1, dtype=float))
    entries.flags.writeable = False
    return entries


def _shift_row(g: Generator, length: int) -> np.ndarray:
    """Entries m = 0 .. length - 1 of the shift Gram's first column: the L2
    inner product of g(t) and g(t - m)."""
    if g.kind == "bspline":
        entries = _bspline_shift_entries(g.degree)[:length]
        row = np.zeros(length)
        row[:entries.size] = entries
        return row
    grid = g._grid()
    radius = g.support_radius
    row = np.zeros(length, dtype=g.samples.dtype)
    for m in range(min(length, math.ceil(2 * radius))):
        # On the overlap [m - R, R], g(t) and g(t - m) are both linear between
        # consecutive merged breakpoints, so their product is a quadratic
        # there and Simpson's rule integrates it exactly.
        knots = np.sort(np.concatenate([grid, grid + m]))
        knots = knots[np.concatenate([[True], knots[1:] != knots[:-1]])]
        knots = knots[(knots >= m - radius) & (knots <= radius)]
        pts = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2.0])
        vals = generator_eval(g, pts) * np.conj(generator_eval(g, pts - m))
        ends, mids = vals[:knots.size], vals[knots.size:]
        row[m] = np.sum(np.diff(knots) / 6.0 * (ends[:-1] + 4.0 * mids + ends[1:]))
    return row


def _symbol_min(g: Generator, row, tol: float, largest: int) -> Tuple[float, float]:
    """Bounds lo <= min A <= hi on the symbol A(xi) = sum_m a_m
    e^(2 pi i m xi) of the shift row a, the integer shifts' lower Riesz bound
    (Christensen, Frames and Riesz Bases, 2016).  A B-spline's, at xi = 1/2,
    is t_d, the coefficient of x^(2d+1) in tan x: tan' = 1 + tan^2 gives
    t_0 = 1 and (2n+1) t_n = sum_(j<n) t_j t_(n-1-j), positive terms that
    fall with n.  Otherwise hi is A's minimum on the grid j / M, within
    1 / (2M) of the minimizer, where A' = 0, so lo = hi - pi^2 sum_m m^2
    |a_m| / M^2 up to rounding; M, a power of two >= 8 lags, doubles while
    (lo, hi) straddles ``tol`` and M <= ``largest``, the largest window."""
    if g.kind == "bspline":
        t = np.ones(1)
        while t.size <= g.degree and t[-1] > 0.0:
            t = np.append(t, t @ t[::-1] / (2 * t.size + 1))
        return float(t[-1]), float(t[-1])
    lag = np.arange(row.size)
    m = 1 << (8 * row.size - 1).bit_length()
    while True:
        phase = np.exp(2j * math.pi / m * np.arange(m))[np.outer(np.arange(m), lag) % m]
        hi = float(2.0 * np.min((phase @ row).real) - row[0].real)
        lo = hi - math.pi ** 2 * np.sum(lag ** 2 * np.abs(row)) / m ** 2
        if lo > tol or hi <= tol or 2 * m > largest:
            return lo, hi
        m *= 2


def _band_rows(band: np.ndarray) -> int:
    """Rows of a band (or lags of a shift row) through its last nonzero one."""
    return int(np.flatnonzero(band.reshape(len(band), -1).any(axis=1)).max(initial=0)) + 1


def _interior_gram_band(g: Generator, pts: np.ndarray, width: int,
                        trim: int) -> np.ndarray:
    """Lower band of the interior of P^H P for the window sampled at ``pts``.

    P[l, k] = g(x_l - k) vanishes unless |l - k| <= ``width``, so only the
    n x (2 width + 1) values of P near its diagonal are evaluated, each at
    its argument x_l - k; the band has 2 width + 1 rows,
    clamped to the interior size, of which the trailing ones may be all
    zero (the verdict cuts them, see the module docstring).
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
            lines.append(",".join([str(size), *(str(witness_value(it.quantities[idx][1]))
                                                for it in self.items)]))
        return "\n".join(lines) + "\n"


#: id -> (kind, statement, proxy note) of each sampling item.  Item b repeats
#: item e's ladder and carries the consensus verdict of the other four.
_ITEMS = {
    "a": ("gain", "perturbed samples bound the 2-norm of the shift-invariant "
          "slice from both sides",
          "extremal generalized eigenvalues of (interior autocorrelation Gram, "
          "interior shift Gram): direct two-sided sampling bounds"),
    "b": ("gain", "sup-norm sampling stability (duality-derived, not computed "
          "independently)",
          "duality-derived: carries the consensus verdict of the computed items "
          "and is never asserted independently"),
    "c": ("condition", "autocorrelation Gram stays invertible in the 1-norm",
          "interior 1-norm condition number"),
    "d": ("condition", "autocorrelation Gram stays invertible in the max-norm",
          "interior max-norm condition number"),
    "e": ("gain", "autocorrelation Gram stays invertible in the 2-norm",
          "interior smallest eigenvalue"),
}

PROXY_DISCLAIMER = (
    "edge effects are trimmed (interior submatrices); a witness degrading by "
    f"more than a factor of {LADDER_DECAY_FACTOR:g} across the window ladder "
    "fails its uniformity proxy"
)


def stable_sampling_verdict(g: Generator, x: SamplingSet,
                            ladder: TruncationLadder,
                            tol: float = frames.TOL_FRAME) -> SamplingReport:
    """Decide stable sampling from autocorrelation-Gram ladders.

    The sampling points are drawn and validated once, for the largest
    window; every smaller window takes their centered slice, so the whole
    ladder is checked before anything is computed.  The interior of
    G = P^H P (a boundary band of width support_radius + ceil(C) trimmed on
    each side) is built in band storage once, for the largest window: each
    smaller window's interior G is, entry for entry, its central principal
    section, and so is each interior shift Gram of the largest one's.  Both
    are stored through the last nonzero diagonal of either (the pencil needs
    one bandwidth).  Per size the witnesses are the smallest eigenvalue of
    G (item e), its 1-norm condition number (item c; G is Hermitian, so
    item d, the max-norm one, is the same number) and the extremal
    generalized eigenvalues of the pencil (interior G, interior shift Gram)
    as direct sampling bounds (item a).  Item (b) carries the consensus verdict,
    annotated duality-derived.

    A shift row or G past the float range is a ``NumericalFailureError``.
    Before any band is built, the minimum of the shift row's symbol (the
    shifts' lower Riesz bound, at or below every shift-Gram section's
    lambda_min) gates the generator: unless it is certified above ``tol``
    the shifts are no Riesz basis (``GeneratorUnsuitableError``).  A
    B-spline's is decided by its degree, before its shift row is built.  By
    Courant-Fischer, lambda_min of G and of the pencil only fall along the
    ladder and lambda_max of the pencil only rises, so each size's three
    bisections take the previous size's results as ``upper`` hints.
    lambda_max of G, which only the singular flag needs, is bisected only
    when the flag is not already false by lambda_max <= ||G||_1.
    """
    trim = int(math.ceil(g.support_radius)) + int(math.ceil(x.bound))
    for size in ladder:
        if size - 2 * trim < 2:
            raise LadderTooShortError(
                f"window {size} leaves fewer than 2 interior indices after trimming "
                f"ceil({g.support_radius:g}) + ceil({x.bound:g}) per side: the "
                "generator's support radius and the delta rule's bound")
    largest = ladder.sizes[-1]
    pts = x.points(largest)
    width = math.ceil(g.support_radius + x.bound)
    shift_row = functools.partial(linalg._finite, "shift Gram entries", _shift_row, g,
                                  2 * width + 1)
    row = None if g.kind == "bspline" else shift_row()
    lo, hi = linalg._finite("shift Gram symbol bounds", _symbol_min, g, row, tol, largest)
    if lo <= tol:
        found = f"{hi:.3e} <=" if lo == hi else f"in [{lo:.3e}, {hi:.3e}], not certified above"
        raise GeneratorUnsuitableError(
            f"integer shifts fail the Riesz check: symbol minimum {found} {tol:g}")
    row = shift_row() if row is None else row
    # The largest interior G and shift Gram, banded through the last nonzero
    # diagonal of either; every smaller size takes their central sections.
    g_all = linalg._finite("autocorrelation Gram entries", _interior_gram_band,
                           g, pts, width, trim)
    band_rows = max(_band_rows(row[:len(g_all)]), _band_rows(g_all))
    g_all = g_all[:band_rows]
    shift_all = np.repeat(row[:band_rows, None], largest - 2 * trim, axis=1)

    # beta(t - k) is the B-spline on the unit-spaced knots from
    # k - (d + 1) / 2 to k + (d + 1) / 2 (d the degree), so for points
    # x_1 < ... < x_m the collocation matrix [beta(x_l - k)] over increasing
    # integers k is totally positive (Karlin, Total Positivity, 1968;
    # de Boor, Indiana Univ. Math. J. 25, 1976), and so is its column
    # section Q = P[:, interior].  The interior G = Q^T Q = sum_l q_l q_l^T
    # does not depend on the order of the rows q_l, so unsorted points give
    # the G of the sorted ones, and by Cauchy-Binet every minor of G is a
    # sum of products of two minors of Q, >= 0.  So G is totally positive,
    # G^-1 has checkerboard signs, and item c takes one solve
    # (``linalg.band_condition``).  A tabulated generator carries no such
    # guarantee and takes the block solves.
    checkerboard = g.kind == "bspline"
    rows, bounds_ladder = [], []
    hints = (None, None, None)
    for size in ladder:
        start, n = largest // 2 - size // 2, size - 2 * trim
        gi = g_all[:min(band_rows, n), start:start + n]
        shift = shift_all[:gi.shape[0], :n]
        # lambda_min(G), the pencil's lambda_min and -lambda_max: each is
        # bounded above by the previous size's value
        hints = (linalg.band_min_eig(gi, upper=hints[0]),
                 linalg.band_min_eig(gi, shift, upper=hints[1]),
                 linalg.band_min_eig(-gi, shift, upper=hints[2]))
        lam_min = max(hints[0], 0.0)
        # G is positive semidefinite, so its singular values are its
        # eigenvalues and the singular flag compares the extremal two.
        # lambda_max <= ||G||_1, so lambda_max is bisected only when
        # lam_min <= TOL_SING ||G||_1; above that the flag is false.
        if (lam_min > linalg.TOL_SING * linalg.band_norm(gi)
                or not linalg.is_singular((lam_min, -linalg.band_min_eig(-gi)))):
            cond = linalg.band_condition(gi, checkerboard=checkerboard)
        else:
            cond = math.inf
        lo, hi = max(hints[1], 0.0), -hints[2]
        rows.append((lo, lam_min, cond, cond, lam_min))
        bounds_ladder.append((size, lo, hi))

    items = {key: Witness.from_ladder(key, statement, note, ladder.sizes, values,
                                      kind, tol)
             for (key, (kind, statement, note)), values
             in zip(_ITEMS.items(), zip(*rows))}
    computed = [items[k].verdict for k in "acde"]
    items["b"] = replace(items["b"], verdict=consensus(computed))

    return SamplingReport(
        items=tuple(items.values()),
        stable=all(v == VERDICT_PASS for v in computed),
        consistent=verdicts_agree(computed),
        ladder=ladder.sizes,
        trim=trim,
        direct_bounds=tuple(bounds_ladder),
        generator_continuous=g.continuous,
        note=PROXY_DISCLAIMER,
    )
