"""Desk-scale federated multimodal sentiment simulator.

Clients fuse visual/audio/text representations weighted by Monte-Carlo
dropout uncertainty; the server aggregates shared parameters weighted by
client reliability (inverse mean uncertainty). Includes synthetic data
generation with controllable heterogeneity, missing-modality and
noisy-client protocols, baselines, and a sweep CLI.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, FederationSpec, config_from_dict, parse_config
from .datagen import (
    ClientData,
    ClientDataset,
    Sample,
    generate_federation,
    inject_missing,
    load_jsonl,
    mark_noisy_clients,
    save_jsonl,
)
from .fedsim import (
    DATA_SIZE,
    FEDPROX,
    RELIABILITY_WEIGHTED,
    STRATEGIES,
    UNIFORM,
    ClientUpdate,
    RoundReport,
    aggregate,
    evaluate_mae,
    fedprox_penalty,
    local_update,
    normalize_reliabilities,
    perturb_update,
    run_round,
    run_simulation,
)
from .fusion import (
    MODALITIES,
    FusionWeights,
    ModalityMask,
    fuse,
    fusion_weights,
    uniform_fusion_weights,
)
from .model import ModelParams, init_model_params
from .nn import AdamState, DenseLayer, Mlp, adam_step, backward, forward, init_mlp, mse_loss
from .rng import Rng
from .uncertainty import (
    UncertaintyEstimate,
    entropy_uncertainty,
    mc_predict,
    modality_uncertainties,
    variance_uncertainty,
)
