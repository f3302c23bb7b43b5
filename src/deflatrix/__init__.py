"""Top-K PCA by Hotelling deflation with an inexact power-iteration
sub-routine, instrumented to measure error propagation and to evaluate the
matching theoretical bounds."""

from .bounds import (
    BoundInputs,
    BoundRow,
    affine_recurrence_closed_form,
    build_bound_report,
    directional_gap_bound,
    eigengaps,
    eigvec_drift_bound,
    geometric_tail_bound,
    sum_recurrence_closed_form,
)
from .clustering import (
    Dataset,
    build_rnn_graph,
    kmeans,
    mutual_information,
    normalized_laplacian,
    run_clustering_experiment,
    spectral_embed,
    synthetic_blobs,
)
from .deflate import (
    DeflationRun,
    aligned_top_eigenvector,
    deflate_step,
    reference_run,
    run_inexact_deflation,
)
from .diagnostics import (
    StepDiagnostics,
    alignment_lower_bound_check,
    bound_report,
    diagnose_run,
    eigvec_inner_identity_check,
    matrix_gap_recurrence_check,
)
from .errors import (
    DeflatrixError,
    DegenerateGapError,
    DegenerateIterateError,
    DimensionMismatchError,
    InvalidSpectrumError,
    IsolatedNodeError,
    PreconditionError,
    SchemaError,
)
from .linalg import (
    ExplicitSpectrum,
    ExponentialSpectrum,
    PowerLawSpectrum,
    RandomSource,
    Spectrum,
    SymMatrix,
    build_test_sigma,
    jacobi_eigendecomposition,
    random_orthogonal_basis,
    sample_unit_sphere,
    spectral_norm,
    spectrum_eigenvalues,
)
from .powerit import (
    pi_alignment_bound,
    pi_error_bound,
    power_iterate,
)

__version__ = "0.1.0"
