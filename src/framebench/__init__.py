"""framebench: numerical workbench for finite truncations of localized frames.

Submodules
----------
linalg
    Dense kernels (dtype rule of ``fields``): Hermitian eigendecomposition
    and its fractional powers, row p-norms (``line_norms``) and the operator
    p-norms built on them, condition numbers, gain probes, band kernels.
frames
    Vector families against an ambient ONB, Gram matrices, frame/Riesz
    bounds, canonical duals, frame-operator powers.
localization
    Off-diagonal decay norms (polynomial sup norm, weighted Schur norm) and
    ladder-based localization evidence.
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
    integer sampling sets, autocorrelation Grams and stable-sampling verdicts.
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
    analysis,
    canonical_dual,
    cross_gram,
    frame_bounds,
    frame_operator,
    gram,
    power_transform,
    riesz_bounds,
    synthesis,
)
from .ladder import Witness
from .linalg import (
    SpectralDecomposition,
    condition_p,
    hermitian_eig,
    pnorm_operator,
)
from .localization import (
    DecayReport,
    LocalizationProfile,
    WeightSpec,
    fit_decay_exponent,
    jaffard_norm,
    mutual_localization,
    schur_norm,
)
from .sampling import (
    Generator,
    SamplingReport,
    SamplingSet,
    autocorrelation_gram,
    bspline_eval,
    generator_eval,
    sampling_matrix,
    shift_gram,
    stable_sampling_verdict,
)
