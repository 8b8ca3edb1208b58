"""Rank-order temporal coding for sensorimotor object inference.

The pipeline: a sensor contact becomes a rank-order spike packet
(:mod:`tempocode.encoding`), the gap between packets implies sensor
displacement (:mod:`tempocode.latency`), STDP writes traversal direction
into a weight matrix (:mod:`tempocode.stdp`), and per-class evidence with a
learnable memory coefficient accumulates across contacts
(:mod:`tempocode.evidence`, :mod:`tempocode.inference`). The synthetic
world, the order-blind dense baseline, and the validation experiments live
in :mod:`tempocode.world`, :mod:`tempocode.baseline`, and
:mod:`tempocode.experiments`.
"""

from .baseline import dense_classify, dense_train
from .config import DEFAULT_SEED, Config, ConfigError, load_config
from .encoding import EncoderParams, code_capacity_bits, encode, encode_traversal
from .evidence import EvidenceState
from .experiments import (
    DiscriminationReport,
    LambdaReport,
    NoiseSweepReport,
    classify_temporal,
    run_discrimination,
    run_lambda_convergence,
    run_noise_sweep,
    wilson_interval,
)
from .inference import (
    LoopState,
    ObjectModel,
    StepDiagnostics,
    alignment_score,
    exploration_step,
)
from .latency import decode_displacement
from .rng import NoiseStream, derive_seed
from .stdp import train_on_traversal
from .types import (
    Displacement,
    LatencyParams,
    SpikePacket,
    StdpParams,
    Traversal,
    WeightMatrix,
    as_features,
)
from .world import (
    SyntheticObject,
    WorldParams,
    builtin_objects,
    complexity_triple,
    discrimination_pair,
    generate_traversal,
    load_objects,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ConfigError",
    "DEFAULT_SEED",
    "DiscriminationReport",
    "Displacement",
    "EncoderParams",
    "EvidenceState",
    "LambdaReport",
    "LatencyParams",
    "LoopState",
    "NoiseStream",
    "NoiseSweepReport",
    "ObjectModel",
    "SpikePacket",
    "StdpParams",
    "StepDiagnostics",
    "SyntheticObject",
    "Traversal",
    "WeightMatrix",
    "WorldParams",
    "alignment_score",
    "as_features",
    "builtin_objects",
    "classify_temporal",
    "code_capacity_bits",
    "complexity_triple",
    "decode_displacement",
    "dense_classify",
    "dense_train",
    "derive_seed",
    "discrimination_pair",
    "encode",
    "encode_traversal",
    "exploration_step",
    "generate_traversal",
    "load_config",
    "load_objects",
    "run_discrimination",
    "run_lambda_convergence",
    "run_noise_sweep",
    "train_on_traversal",
    "wilson_interval",
]
