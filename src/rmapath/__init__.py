"""Rural macrocell (RMa) millimeter-wave path loss modeling toolkit.

Deterministic TR 38.900 RMa and close-in (CI) reference distance path loss
models, Monte Carlo recalibration of the RMa models into CI form, CI model
fitting for measured campaign data, and link budget / coverage utilities.
"""

from .models import (
    CI_ANCHOR_DB,
    CI_FREQ_RANGE_GHZ,
    CI_REFERENCE_DISTANCE_M,
    RMA_FREQ_RANGE_GHZ,
    RMA_LOS_D2D_RANGE_M,
    RMA_NLOS_D2D_RANGE_M,
    RURAL_73GHZ_LOS_PLE,
    RURAL_73GHZ_LOS_SIGMA_DB,
    RURAL_73GHZ_NLOS_PLE,
    RURAL_73GHZ_NLOS_SIGMA_DB,
    SPEED_OF_LIGHT_M_S,
    TR38900_CI_LOS_PLE,
    TR38900_CI_LOS_SIGMA_DB,
    TR38900_CI_NLOS_PLE,
    TR38900_CI_NLOS_SIGMA_DB,
    ApplicabilityError,
    Environment,
    Finding,
    ModelRangeWarning,
    NoCoverageError,
    RmaParams,
    breakpoint_distance,
    ci_pathloss,
    distance_3d,
    fspl,
    los_second_slope,
    max_range,
    rma_los,
    rma_nlos,
    validate_applicability,
)
from .simulate import (
    DATASET_CSV_HEADER,
    DEFAULT_FREQUENCIES_GHZ,
    DEFAULT_SAMPLES_PER_FREQUENCY,
    SIGMA_LOS_POST_BP_DB,
    SIGMA_LOS_PRE_BP_DB,
    SIGMA_NLOS_DB,
    SimulatedDataset,
    SimulationConfig,
    generate_3gpp_dataset,
    read_dataset_csv,
)
from .fitting import (
    CiFitResult,
    DegenerateFitError,
    fit_ci,
    fit_ci_arrays,
    fit_report_dict,
    reproduce_3gpp_ci,
)
from .campaign import (
    CAMPAIGN_CSV_HEADER,
    DEFAULT_BUDGET,
    BelowSensitivityWarning,
    CampaignFormatError,
    ConversionSummary,
    LinkBudget,
    bundled_campaign_path,
    parse_campaign_csv,
    pathloss_from_power,
    read_campaign_csv,
)

__version__ = "0.1.0"
