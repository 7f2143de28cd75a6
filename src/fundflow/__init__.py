"""Fund-flow reachability analysis and entropy-weighted confidence fusion
for detecting adversarial smart contracts from bytecode descriptions."""

from .description import chunk_flat_text, load_description
from .forest import build_forest
from .graph import transform
from .pipeline import RunConfig, run_detect

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "build_forest",
    "chunk_flat_text",
    "load_description",
    "run_detect",
    "transform",
]
