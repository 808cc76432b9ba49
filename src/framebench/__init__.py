"""framebench: numerical workbench for finite truncations of localized frames.

Submodules
----------
linalg
    Dense kernels (dtype rule of ``fields``): Hermitian eigenpairs and the
    inverse square root from them, absolute row sums (``line_sums``) and
    the 1-/max-norm condition pair built on them from a given inverse, the
    max-norm gain probe, the operator 2-norm, band kernels.
frames
    Vector families against an ambient ONB, Gram matrices, the frame
    operator, frame/Riesz bounds.
localization
    Off-diagonal decay norms (polynomial sup norm, weighted Schur norm),
    the decay-exponent fit and the ladder verdict on per-size norms.
rdual
    Riesz-dual sequences and the frame-vs-Riesz duality verdict.
ladder
    Ladder verdict rules (uniformity across truncations, borderline band)
    and the ``Witness`` record shared by battery and sampling reports.
equivalence
    The ten-condition consistency battery over a truncation ladder, plus the
    harmonic-decay counterexample fixture.
sampling
    Shift-invariant spaces: B-spline and tabulated generators, perturbed
    integer sampling sets and stable-sampling verdicts from banded Grams.
fields
    The one rule for numeric config fields, dataclass numbers and dtypes.
cli
    JSON-config command line driver emitting reproducible reports.
"""

__version__ = "0.1.0"

from . import (equivalence, errors, fields, frames, ladder, linalg, localization, rdual,
               sampling)
from .equivalence import (
    EquivalenceReport,
    counterexample_family,
    perturbed_onb_family,
    run_battery,
)
from .frames import (
    FrameBounds,
    TruncationLadder,
    VectorFamily,
    cross_gram,
    frame_bounds,
    frame_operator,
    gram,
    riesz_bounds,
)
from .ladder import Witness
from .linalg import hermitian_eig, pnorm_operator
from .localization import (
    LocalizationProfile,
    WeightSpec,
    fit_decay_exponent,
    jaffard_norm,
    schur_norm,
)
from .sampling import (
    Generator,
    SamplingReport,
    SamplingSet,
    bspline_eval,
    generator_eval,
    stable_sampling_verdict,
)
