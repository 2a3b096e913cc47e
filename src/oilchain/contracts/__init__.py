"""Contract state machines executed by the runtime."""

from .base import ContractBase
from .checkprogress import CheckProgress
from .distribution import OilDistribution

CONTRACT_KINDS = {
    CheckProgress.KIND: CheckProgress,
    OilDistribution.KIND: OilDistribution,
}

__all__ = ["CONTRACT_KINDS", "CheckProgress", "ContractBase", "OilDistribution"]
