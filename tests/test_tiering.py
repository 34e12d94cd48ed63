"""Tests for the storage-tiering cost model (Table 1, Figures 2 and 3)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.tiering import (
    DeviceClass,
    TieringConfiguration,
    TieringCostModel,
    csd_configuration,
    standard_configurations,
)
from repro.tiering.devices import STANDARD_DEVICES, csd_spec


class TestDevices:
    def test_published_prices(self):
        assert STANDARD_DEVICES[DeviceClass.SSD].cost_per_gb == 75.0
        assert STANDARD_DEVICES[DeviceClass.SCSI_15K].cost_per_gb == 13.5
        assert STANDARD_DEVICES[DeviceClass.SATA_7K].cost_per_gb == 4.5
        assert STANDARD_DEVICES[DeviceClass.TAPE].cost_per_gb == 0.2

    def test_cost_for_capacity(self):
        assert STANDARD_DEVICES[DeviceClass.TAPE].cost_for(1000) == pytest.approx(200.0)
        with pytest.raises(ConfigurationError):
            STANDARD_DEVICES[DeviceClass.TAPE].cost_for(-1)

    def test_csd_spec_at_price_point(self):
        assert csd_spec(0.2).cost_per_gb == 0.2
        with pytest.raises(ConfigurationError):
            csd_spec(-1.0)


class TestConfigurations:
    def test_fractions_sum_to_one(self):
        for configuration in standard_configurations().values():
            assert sum(configuration.fractions.values()) == pytest.approx(1.0)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ConfigurationError):
            TieringConfiguration("broken", {DeviceClass.SSD: 0.5})

    def test_csd_configuration_absorbs_capacity_and_archival(self):
        cold = csd_configuration("3-tier")
        assert cold.fraction(DeviceClass.CSD) == pytest.approx(0.325 + 0.525)
        assert cold.fraction(DeviceClass.SATA_7K) == 0.0
        assert cold.fraction(DeviceClass.TAPE) == 0.0
        assert cold.fraction(DeviceClass.SCSI_15K) == pytest.approx(0.15)
        with pytest.raises(ConfigurationError):
            csd_configuration("2-tier")


class TestCostModel:
    def test_figure2_matches_paper_exactly(self):
        """The paper's Figure 2 values in thousands of dollars."""
        rows = TieringCostModel().figure2_rows()
        assert rows["all-ssd"] == pytest.approx(7680.0)
        assert rows["all-scsi"] == pytest.approx(1382.40)
        assert rows["all-sata"] == pytest.approx(460.80)
        assert rows["all-tape"] == pytest.approx(20.48)
        assert rows["2-tier"] == pytest.approx(783.36)
        assert rows["3-tier"] == pytest.approx(367.872)
        assert rows["4-tier"] == pytest.approx(493.824)

    def test_figure3_savings_factors_match_paper(self):
        """Figure 3 / Section 3.1: 1.70x/1.44x at $0.1, 1.63x/1.40x at $0.2,
        1.24x/1.17x at $1 per GB."""
        rows = TieringCostModel.figure3_rows()
        assert rows["3-tier"][0.1]["savings_factor"] == pytest.approx(1.70, abs=0.01)
        assert rows["4-tier"][0.1]["savings_factor"] == pytest.approx(1.44, abs=0.01)
        assert rows["3-tier"][0.2]["savings_factor"] == pytest.approx(1.63, abs=0.01)
        assert rows["4-tier"][0.2]["savings_factor"] == pytest.approx(1.40, abs=0.01)
        assert rows["3-tier"][1.0]["savings_factor"] == pytest.approx(1.24, abs=0.01)
        assert rows["4-tier"][1.0]["savings_factor"] == pytest.approx(1.17, abs=0.01)

    def test_all_tape_is_20x_cheaper_than_all_sata(self):
        rows = TieringCostModel().figure2_rows()
        assert rows["all-sata"] / rows["all-tape"] == pytest.approx(22.5, rel=0.15)

    def test_cost_scales_with_database_size(self):
        small = TieringCostModel(database_gb=1024).standard_costs()["3-tier"]
        large = TieringCostModel(database_gb=10 * 1024).standard_costs()["3-tier"]
        assert large == pytest.approx(10 * small)

    def test_single_class_configuration_costs_its_price_per_gb(self):
        model = TieringCostModel()
        cost = model.configuration_cost(standard_configurations()["all-sata"])
        assert cost == pytest.approx(4.5 * model.database_gb)

    def test_invalid_model_parameters(self):
        with pytest.raises(ConfigurationError):
            TieringCostModel(database_gb=0)
        with pytest.raises(ConfigurationError):
            TieringCostModel(csd_cost_per_gb=-0.5)
