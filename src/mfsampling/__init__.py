"""Multi-frequency sampling reconstruction of acoustic source supports."""

from .geometry import (
    Ball,
    Cube,
    GeometryError,
    LShape,
    Peanut,
    QuadratureRule,
    RoundedCylinder,
    SourceSupport,
    Union,
    annulus_radii,
    contains,
    quadrature,
)
from .forward import (
    DatasetFormatError,
    FrequencyGrid,
    MeasurementSet,
    MultiFreqDataset,
    add_noise,
    fundamental_solution,
    generate_dataset,
    mirror,
    phase,
    radiated_field,
    read_dataset,
    write_dataset,
)
from .operators import (
    FreqFunction,
    SupportFunction,
    analysis,
    apply_multiplier,
    apply_operator,
    factorization_residual,
    far_quadratic_form,
    freq_inner,
    freq_norm,
    near_quadratic_form,
    quadratic_form,
    support_inner,
    support_norm,
    synthesis,
)
from .imaging import (
    CrossSection,
    IndicatorField,
    SamplingGrid,
    ThresholdMask,
    compute_indicator,
    cross_section,
    far_test_function,
    near_test_function,
    normalize,
    probe,
    psf_closed_form,
    psf_discrete,
    threshold_mask,
)
from .verify import (
    VerificationReport,
    check_coercivity,
    check_factorization,
    check_psf,
    check_symmetries,
    symmetry_violation,
)
from .scenario import (
    ConfigError,
    PRESETS,
    Scenario,
    load_scenario,
    parse_config,
    parse_config_text,
    polar_sensor,
    scenario_hash,
    write_config,
    write_config_text,
)

__version__ = "0.1.0"
