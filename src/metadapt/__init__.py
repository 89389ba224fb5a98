"""Meta-learned bottleneck adapters for multilingual multi-domain translation, desk scale."""

__version__ = "0.1.0"

from .corpus import SyntheticWorldSpec, Vocab, generate_world, load_registry  # noqa: F401
from .model import AdapterConfig, ModelConfig, build_model                    # noqa: F401
from .tasks import DlpDataset, DlpId                                          # noqa: F401
from .training import STRATEGIES, MetaConfig                                  # noqa: F401
