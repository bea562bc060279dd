"""Isometric alignment of diffusion geometries via bandlimited correlation
of graph harmonics, with an MNN baseline and an experiment harness."""

__version__ = "0.1.0"

from .align import (
    AlignmentParams,
    AlignmentResult,
    bandlimited_correlation,
    gft_features,
    harmonic_alignment,
    multi_alignment,
    orthogonalize,
    unified_diffusion_map,
)
from .baselines import MnnParams, mnn_correct
from .core import DataMatrix, Report, Rng, load_matrix, write_output
from .evaluation import (
    ExperimentConfig,
    class_average_reconstruction,
    corruption_experiment,
    knn_classify,
    neighborhood_overlap,
    partial_corruption,
    random_orthogonal,
    transfer_experiment,
)
from .filters import bandlimiting_weights, itersine_window
from .graph import (
    BandwidthSpec,
    KernelGraph,
    anisotropic_kernel_graph,
    gauss_kernel_graph,
)
from .spectral import (
    FourierBasis,
    drop_trivial,
    fourier_basis,
)

__all__ = [name for name in dir() if not name.startswith("_")]
