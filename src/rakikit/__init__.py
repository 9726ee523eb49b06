"""rakikit: scan-specific parallel MRI reconstruction on synthetic data.

Centered-FFT tensor plumbing, CAIPI/elliptical/ky-t undersampling, GRAPPA,
ESPIRiT sensitivity estimation, per-coil RAKI and coil-combined
single-model CNN reconstruction, T2/T2* mapping, and a timing harness.
"""

__version__ = "0.1.0"

from .errors import (
    BundleError,
    ByteOrderError,
    ConfigError,
    GeometryError,
    NumericalError,
    PayloadLengthError,
    RakikitError,
    UnknownDtypeError,
)
from .tensors import (
    CTensor,
    crop_center,
    fftc,
    fftc_nd,
    ifftc,
    ifftc_nd,
    load_bundle,
    nrmse,
    psnr,
    save_bundle,
)
from .sampling import (
    SamplingMask,
    apply_mask,
    centered_acs_box,
    extract_acs,
    load_mask,
    make_elliptical_mask,
    make_kyt_mask,
    make_uniform_mask,
    save_mask,
)
from .phantom import (
    Ellipsoid,
    PhantomSpec,
    default_spec,
    make_compact_coils,
    make_phantom,
    make_smooth_coils,
)
from .grappa import (GrappaKernel, grappa_apply, grappa_calibrate, grappa_kernel,
                     grappa_recon)
from .espirit import (
    SensitivityMaps,
    coil_combine,
    espirit_maps,
    kspace_combine_convolution,
    make_combo_target,
)
from .nn_engine import (
    ConvLayer,
    ModelWeights,
    TrainConfig,
    backward,
    forward,
    init_model,
    loss,
    train,
)
from .recon_models import (
    OffsetTargetSet,
    ReconProblem,
    ReconResult,
    build_targets,
    echo_shifted_masks,
    infer,
    linear_init,
    train_eraki,
    train_raki,
    zerofill_recon,
)
from .quantmap import FitResult, fit_decay
from .bench import BenchReport, report_table, report_to_json, run_bench
