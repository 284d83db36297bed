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
    quadrature,
)
from .forward import (
    DatasetFormatError,
    FrequencyGrid,
    MeasurementSet,
    MultiFreqDataset,
    add_noise,
    band_error_bound,
    generate_dataset,
    mirror,
    phase,
    phase_range,
    radiated_field,
    read_dataset,
    write_dataset,
)
from .imaging import (
    CrossSection,
    IndicatorField,
    SamplingGrid,
    ThresholdMask,
    apply_operator,
    compute_indicator,
    cross_section,
    far_quadratic_form,
    far_test_function,
    near_quadratic_form,
    near_test_function,
    normalize,
    probe,
    quadratic_form,
    threshold_mask,
)
from .verify import (
    Factorization,
    VerificationReport,
    check_coercivity,
    check_factorization,
    check_psf,
    check_symmetries,
    psf_closed_form,
    psf_discrete,
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
