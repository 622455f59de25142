"""Limit spectra of conditional Fisher information in deep orthogonal networks.

The package has two halves. The theory half (`specmeasure`, `freeconv`,
`meanfield`) computes the infinite-width limit spectrum of the dual
conditional Fisher information matrix by propagating spectral measures
through free multiplicative convolutions. The experiment half (`rmtsim`,
`trainlab`) samples finite orthogonally-initialized networks, measures
eigenvalues, and sweeps learning-rate stability boundaries so the theory
can be checked end to end. `cli` binds both halves behind subcommands.
"""

__version__ = "0.1.0"

from .specmeasure import (
    GridDensity,
    NumericalError,
    SpectralMeasure,
    affine_pushforward,
    distance_L1,
    moment,
    stieltjes_invert,
)
from .freeconv import (
    AsymptoticRegime,
    LayerError,
    LayerSchedule,
    TwoAtomJacobianLaw,
    asymptotic_max,
    atom_rule,
    di_conditions,
    free_mult_conv_two_atom,
    max_support_track,
    mean_track,
    propagate_schedule,
    solve_three_layer,
    theta_mean_limit,
)
from .meanfield import (
    HardTanh,
    Linear,
    MeanFieldParams,
    ShiftedRelu,
    layer_sigmas,
    mean_field_schedule,
    moment_map,
    tune_constant_q,
)
from .rmtsim import (
    FimDraw,
    OrthogonalNet,
    dual_fim,
    empirical_measure,
    network_fim_sample,
    sample_haar_orthogonal,
)
from .trainlab import (
    Dataset,
    SweepResult,
    load_idx,
    lr_depth_sweep,
    synth_dataset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
