"""Limited-aperture direct sampling methods for 2-D inverse acoustic scattering.

Synthesizes far-field data for penetrable scatterers with a Lippmann-Schwinger
volume solver and reconstructs them with direct sampling indices: the classical
Green-function probe, finite-space constructed probes (FFSM, FSSM), and an
unsupervised deep probing network.
"""

from .errors import NumericalError, ValidationError
from .scene import (
    ApertureSet,
    Arc,
    Box,
    Disk,
    FarFieldData,
    Rectangle,
    Ring,
    SamplingGrid,
    Scene,
    add_noise,
    full_circle,
    load_scene,
    save_scene,
)
from .forward import synthesize_far_field
from .dsm import IndexField, ProbingSet, average_and_normalize, index_classical
from .finite_space import reconstruct_finite_space, source_lattice
from .dpn import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "ApertureSet",
    "Arc",
    "Box",
    "Disk",
    "FarFieldData",
    "IndexField",
    "NumericalError",
    "ProbingSet",
    "Rectangle",
    "Ring",
    "SamplingGrid",
    "Scene",
    "TrainConfig",
    "ValidationError",
    "add_noise",
    "average_and_normalize",
    "full_circle",
    "index_classical",
    "load_scene",
    "reconstruct_finite_space",
    "save_scene",
    "source_lattice",
    "synthesize_far_field",
    "train",
]
