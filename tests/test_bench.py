"""Benchmark harness: rows, ratios, serialization."""

import json

import pytest

from rakikit import (ConfigError, GeometryError, run_bench, report_table,
                     report_to_json)
from rakikit.bench import BENCH_METHODS, PAPER_REFERENCE
from rakikit.config import DEFAULTS, merge

FAST = {  # an override of DEFAULTS, as a --config file holds
    "seed": 3,
    "phantom": {"texture": 0.5},
    "train": {"iterations": 3, "widths": [8, 8, 8, 8]},
}


@pytest.fixture(scope="module")
def fast_report():
    return run_bench(FAST)


class TestScenario:
    """The scene the bench runs is the one its config describes."""

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            run_bench({**FAST, "bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError):
            run_bench({**FAST, "phantom": {"bogus": 1}})

    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigError, match="seed is mandatory"):
            run_bench({"train": {"iterations": 1}})

    def test_scenario_needs_an_acs(self):
        with pytest.raises(GeometryError, match="no ACS box"):
            run_bench({**FAST, "mask": {"acs": None}})

    def test_merge_preserves_defaults(self):
        merged = merge(DEFAULTS, FAST)
        assert merged["mask"] == DEFAULTS["mask"]
        assert merged["train"]["iterations"] == 3
        assert merged["train"]["alpha"] == DEFAULTS["train"]["alpha"]


class TestReport:
    def test_all_methods_present(self, fast_report):
        assert set(fast_report.methods) == set(BENCH_METHODS)
        for row in fast_report.methods.values():
            assert "error" not in row, row
            assert row["nrmse"] >= 0
            assert row["learning_s"] >= 0 and row["inference_s"] >= 0

    def test_rows_use_the_recon_schema(self, fast_report):
        # the rows of `rakikit recon`'s report.json, plus the bench's NRMSE
        keys = {"model_count", "paper_equivalent_models", "learning_s",
                "inference_s", "nrmse"}
        extra = {"raki": {"loss_history"}, "eraki": {"loss_history"},
                 "grappa": {"calibration_windows", "calibration_residual"}}
        for name, row in fast_report.methods.items():
            assert set(row) == keys | extra.get(name, set())
        assert len(fast_report.methods["raki"]["loss_history"]) == 8
        assert len(fast_report.methods["eraki"]["loss_history"]) == 3

    def test_model_counts(self, fast_report):
        m = fast_report.methods
        assert m["eraki"]["model_count"] == 1
        assert m["raki"]["model_count"] == 8
        assert m["raki"]["paper_equivalent_models"] == 16
        assert m["grappa"]["model_count"] == 3  # R - 1 kernels for R = 2x2

    def test_learned_methods_beat_zerofill(self, fast_report):
        m = fast_report.methods
        assert m["grappa"]["nrmse"] < m["zerofill"]["nrmse"]

    def test_ratios(self, fast_report):
        r = fast_report.ratios
        assert r["paper_equivalent_model_counts"] == "16:1"
        assert r["paper_reference_learning"] == pytest.approx(
            PAPER_REFERENCE["raki_learning_s"] / PAPER_REFERENCE["eraki_learning_s"]
        )
        assert r["raki_over_eraki_learning"] > 1.0

    def test_environment_recorded(self, fast_report):
        env = fast_report.environment
        assert env["thread_count"] >= 1
        assert env["python"]

    def test_config_hash_stable(self, fast_report):
        again = run_bench({**FAST, "recon": {"acs_kx": 8}})
        # hash covers the merged config, so it must differ here
        assert again.config_hash != fast_report.config_hash

    def test_json_roundtrip(self, fast_report):
        doc = json.loads(report_to_json(fast_report))
        assert doc["config_hash"] == fast_report.config_hash
        assert set(doc["methods"]) == set(BENCH_METHODS)
        assert doc["paper_reference"]["raki_learning_s"] == 25600.0

    def test_table_contents(self, fast_report):
        table = report_table(fast_report)
        for name in BENCH_METHODS:
            assert name in table
        assert "espirit maps" in table
        assert "25600" in table and "30 s" in table
        assert "16:1" in table
