"""Tiering configurations: how data is spread across device classes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.exceptions import ConfigurationError
from repro.tiering.devices import DeviceClass, DeviceSpec, STANDARD_DEVICES, csd_spec


@dataclass(frozen=True)
class TieringConfiguration:
    """A named storage strategy: fraction of the database per device class.

    Fractions must sum to 1.  The fractions of the 2/3/4-tier strategies are
    those reported by the analyst study the paper cites (Table 1).
    """

    name: str
    fractions: Mapping[DeviceClass, float]

    def __post_init__(self) -> None:
        total = sum(self.fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(
                f"tiering configuration {self.name!r}: fractions sum to {total}, expected 1.0"
            )
        for device_class, fraction in self.fractions.items():
            if fraction < 0:
                raise ConfigurationError(
                    f"tiering configuration {self.name!r}: negative fraction for {device_class}"
                )

    def fraction(self, device_class: DeviceClass) -> float:
        """Fraction of the database stored on ``device_class`` (0 if absent)."""
        return self.fractions.get(device_class, 0.0)


#: CSD $/GB price points examined in Figure 3.
CSD_PRICE_POINTS = (1.0, 0.2, 0.1)


def standard_configurations() -> Dict[str, TieringConfiguration]:
    """The strategies of Table 1 / Figure 2 (single-device plus 2/3/4-tier)."""
    return {
        "all-ssd": TieringConfiguration("all-ssd", {DeviceClass.SSD: 1.0}),
        "all-scsi": TieringConfiguration("all-scsi", {DeviceClass.SCSI_15K: 1.0}),
        "all-sata": TieringConfiguration("all-sata", {DeviceClass.SATA_7K: 1.0}),
        "all-tape": TieringConfiguration("all-tape", {DeviceClass.TAPE: 1.0}),
        "2-tier": TieringConfiguration(
            "2-tier", {DeviceClass.SCSI_15K: 0.35, DeviceClass.SATA_7K: 0.65}
        ),
        "3-tier": TieringConfiguration(
            "3-tier",
            {DeviceClass.SCSI_15K: 0.15, DeviceClass.SATA_7K: 0.325, DeviceClass.TAPE: 0.525},
        ),
        "4-tier": TieringConfiguration(
            "4-tier",
            {
                DeviceClass.SSD: 0.02,
                DeviceClass.SCSI_15K: 0.13,
                DeviceClass.SATA_7K: 0.325,
                DeviceClass.TAPE: 0.525,
            },
        ),
    }


def csd_configuration(base: str) -> TieringConfiguration:
    """The CSD-based cold-storage-tier variant of a 3-tier or 4-tier strategy.

    The cold storage tier absorbs both the capacity (SATA) and archival
    (tape) tiers, so their combined fraction moves to the CSD while the
    performance tier(s) keep their original share (Section 3.1).
    """
    standards = standard_configurations()
    if base not in ("3-tier", "4-tier"):
        raise ConfigurationError("CSD configurations are defined for '3-tier' and '4-tier'")
    original = standards[base]
    cold_fraction = original.fraction(DeviceClass.SATA_7K) + original.fraction(DeviceClass.TAPE)
    fractions: Dict[DeviceClass, float] = {
        cls: fraction
        for cls, fraction in original.fractions.items()
        if cls not in (DeviceClass.SATA_7K, DeviceClass.TAPE)
    }
    fractions[DeviceClass.CSD] = cold_fraction
    return TieringConfiguration(f"csd-{base}", fractions)


def device_prices(csd_cost_per_gb: float = 0.1) -> Dict[DeviceClass, DeviceSpec]:
    """Device specs with the CSD priced at ``csd_cost_per_gb``."""
    prices = dict(STANDARD_DEVICES)
    prices[DeviceClass.CSD] = csd_spec(csd_cost_per_gb)
    return prices
