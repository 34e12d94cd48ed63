"""Acquisition-cost model for tiered database storage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.exceptions import ConfigurationError
from repro.tiering.configurations import (
    CSD_PRICE_POINTS,
    TieringConfiguration,
    csd_configuration,
    device_prices,
    standard_configurations,
)
from repro.tiering.devices import DeviceClass, DeviceSpec

#: The paper's reference database size (100 TB expressed in GB).
PAPER_DATABASE_GB = 100 * 1024


@dataclass
class TieringCostModel:
    """Computes acquisition cost of a database under a tiering strategy."""

    database_gb: float = PAPER_DATABASE_GB
    csd_cost_per_gb: float = 0.1

    def __post_init__(self) -> None:
        if self.database_gb <= 0:
            raise ConfigurationError("database size must be positive")
        if self.csd_cost_per_gb < 0:
            raise ConfigurationError("CSD cost must be non-negative")

    def _prices(self) -> Dict[DeviceClass, DeviceSpec]:
        return device_prices(self.csd_cost_per_gb)

    # ------------------------------------------------------------------ #
    # Core computations
    # ------------------------------------------------------------------ #
    def configuration_cost(self, configuration: TieringConfiguration) -> float:
        """Total acquisition cost (in dollars) of one tiering configuration."""
        prices = self._prices()
        total = 0.0
        for device_class, fraction in configuration.fractions.items():
            total += prices[device_class].cost_for(self.database_gb * fraction)
        return total

    def standard_costs(self) -> Dict[str, float]:
        """Costs of the Table 1 / Figure 2 strategies (name → dollars)."""
        return {
            name: self.configuration_cost(configuration)
            for name, configuration in standard_configurations().items()
        }

    def csd_savings(self, base: str) -> Dict[str, float]:
        """Figure 3 comparison for one base strategy ('3-tier' or '4-tier').

        Returns the traditional cost, the CSD-based cost at this model's CSD
        price, and the ratio between the two.
        """
        traditional = self.configuration_cost(standard_configurations()[base])
        with_csd = self.configuration_cost(csd_configuration(base))
        if with_csd <= 0:
            raise ConfigurationError("CSD configuration cost must be positive")
        return {
            "traditional_cost": traditional,
            "csd_cost": with_csd,
            "savings_factor": traditional / with_csd,
        }

    # ------------------------------------------------------------------ #
    # Figure-level helpers
    # ------------------------------------------------------------------ #
    def figure2_rows(self) -> Dict[str, float]:
        """Figure 2: cost (in thousands of dollars) per storage strategy."""
        return {name: cost / 1000.0 for name, cost in self.standard_costs().items()}

    @classmethod
    def figure3_rows(
        cls, database_gb: float = PAPER_DATABASE_GB
    ) -> Dict[str, Dict[float, Dict[str, float]]]:
        """Figure 3: savings of the CSD tier at each price point.

        Returns ``{base: {csd_price: {traditional_cost, csd_cost, savings_factor}}}``
        with costs in thousands of dollars.
        """
        result: Dict[str, Dict[float, Dict[str, float]]] = {}
        for base in ("3-tier", "4-tier"):
            per_price: Dict[float, Dict[str, float]] = {}
            for price in CSD_PRICE_POINTS:
                model = cls(database_gb=database_gb, csd_cost_per_gb=price)
                savings = model.csd_savings(base)
                per_price[price] = {
                    "traditional_cost": savings["traditional_cost"] / 1000.0,
                    "csd_cost": savings["csd_cost"] / 1000.0,
                    "savings_factor": savings["savings_factor"],
                }
            result[base] = per_price
        return result
