"""CLI pipeline: subcommands, config precedence, manifests, exit codes."""

import json

import numpy as np
import pytest

from rakikit import (
    CTensor,
    apply_mask,
    extract_acs,
    grappa_recon,
    load_bundle,
    save_bundle,
)
from rakikit.bench import thread_count
from rakikit.cli import main
from rakikit.config import DEFAULTS, merge
from rakikit.sampling import load_mask

CONFIG = {
    "seed": 11,
    "phantom": {"extents": [12, 24, 24], "n_coils": 4, "texture": 0.5},
    "mask": {"extents": [24, 24], "r1": 2, "r2": 2, "shift": 1,
             "acs": [16, 16]},
    "espirit": {"kernel_size": 5, "out_extents": [24, 24]},
    "train": {"iterations": 5, "widths": [8, 8, 8, 8],
              "kernel_sizes": [[3, 3, 3], [1, 1, 3], [1, 1, 1], [1, 1, 1],
                               [1, 1, 1]]},
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """phantom -> mask -> masked data -> maps, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    assert main(["phantom", "--config", str(cfg_path),
                 "--out", str(root / "ph")]) == 0
    assert main(["mask", "--config", str(cfg_path),
                 "--out", str(root / "mask")]) == 0

    ksp = load_bundle(root / "ph" / "kspace")
    mask = load_mask(root / "mask" / "mask")
    single = CTensor(ksp.data[:, 0], ("coil", "kx", "ky", "kz"))
    masked = apply_mask(single, mask)
    save_bundle(masked, root / "masked_kspace")
    save_bundle(extract_acs(masked, mask), root / "acs")

    assert main(["maps", "--config", str(cfg_path), "--acs", str(root / "acs"),
                 "--out", str(root / "maps")]) == 0
    return {"root": root, "cfg": cfg_path}


class TestExitCodes:
    def test_missing_seed_is_config_error(self, tmp_path):
        assert main(["phantom", "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "bogus": {}}))
        assert main(["phantom", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2

    def test_config_file_missing_is_config_error(self, tmp_path):
        assert main(["phantom", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_bundle_is_data_error(self, pipeline, tmp_path):
        assert main(["maps", "--seed", "1", "--acs", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_nonfinite_acs_is_numerical_error(self, pipeline, tmp_path, capsys):
        acs = load_bundle(pipeline["root"] / "acs")
        bad = acs.data.copy()
        bad[0, 3, 5, 5] = np.nan
        save_bundle(acs.with_data(bad), tmp_path / "acs")
        capsys.readouterr()
        assert main(["maps", "--config", str(pipeline["cfg"]),
                     "--acs", str(tmp_path / "acs"),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("doc", [
        {"seed": 1, "mask": {"r1": "x"}},  # number leaf given a string
        {"seed": 1, "mask": {"r1": 2.5}},  # integer leaf given a float
        {"seed": 1, "mask": {"r1": True}},  # a bool is never a number
        {"seed": 1, "phantom": {"noise_sigma": False}},
        {"seed": 1, "train": {"squared_l2": 1}},  # bool leaf given a number
        {"seed": "x"},
        {"seed": 1.0},
        {"seed": 1, "mask": None},  # section given as a non-object
        {"seed": 1, "train": [1, 2]},
        {"seed": 1, "recon": "grappa"},
    ], ids=["str-number", "float-int", "bool-int", "bool-float", "int-bool",
            "str-seed", "float-seed", "null-section", "list-section",
            "str-section"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["mask", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_int_accepted_for_float_leaf(self):
        merged = merge(DEFAULTS, {"seed": 1, "phantom": {"noise_sigma": 0}})
        assert merged["phantom"]["noise_sigma"] == 0

    @pytest.mark.parametrize("header", ["{not json", '{"dtype": "complex128"}'],
                             ids=["not-json", "missing-keys"])
    def test_malformed_bundle_header_is_data_error(self, pipeline, tmp_path,
                                                   capsys, header):
        save_bundle(load_bundle(pipeline["root"] / "acs"), tmp_path / "acs")
        (tmp_path / "acs.json").write_text(header)
        capsys.readouterr()
        assert main(["maps", "--config", str(pipeline["cfg"]),
                     "--acs", str(tmp_path / "acs"),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: bundle header")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_mask_without_mask_meta_is_data_error(self, pipeline, tmp_path,
                                                  capsys):
        r = pipeline["root"]
        capsys.readouterr()
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", "grappa", "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "masked_kspace"),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "mask descriptor" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["", "seed"])
    def test_bench_scenario_not_object_is_config_error(self, tmp_path, capsys,
                                                       seed):
        scenario = tmp_path / "s.json"
        scenario.write_text("[1, 2]")
        capsys.readouterr()
        assert main(["bench", "--scenario", str(scenario), *seed]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "JSON object" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_recon_without_maps_is_config_error(self, pipeline, tmp_path):
        r = pipeline["root"]
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", "eraki", "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "mask"),
                     "--out", str(tmp_path / "o")]) == 2


class TestPipeline:
    def test_phantom_outputs(self, pipeline):
        r = pipeline["root"]
        for name in ("kspace", "images", "sens_true", "t2_true",
                     "t2star_true"):
            assert (r / "ph" / f"{name}.json").exists()
            assert (r / "ph" / f"{name}.bin").exists()
        manifest = json.loads((r / "ph" / "manifest.json").read_text())
        assert manifest["seed"] == 11
        assert manifest["command"] == "phantom"
        assert manifest["threads"] == thread_count()
        assert manifest["effective_config"]["phantom"]["n_coils"] == 4
        # defaults echoed into the persisted effective config
        assert manifest["effective_config"]["train"]["alpha"] == 0.0

    def test_maps_meta_records_espirit_diagnostics(self, pipeline):
        from rakikit import espirit_maps
        from rakikit.tensors import bundle_meta

        r = pipeline["root"]
        meta = bundle_meta(r / "maps" / "maps")
        maps = espirit_maps(load_bundle(r / "acs"), kernel_size=5,
                            out_extents=(24, 24))
        assert meta["retained_frac"] == maps.retained_frac
        assert meta["eigh_fallbacks"] == maps.eigh_fallbacks
        assert 0 < meta["retained_frac"] < 1
        assert 0 < meta["eigh_fallbacks"] <= maps.eigval.size

    def test_seed_flag_overrides_file(self, pipeline, tmp_path):
        assert main(["mask", "--config", str(pipeline["cfg"]), "--seed", "99",
                     "--out", str(tmp_path / "m")]) == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    @pytest.mark.parametrize("method", ["zerofill", "grappa", "eraki"])
    def test_recon_methods(self, pipeline, tmp_path, method):
        r = pipeline["root"]
        out = tmp_path / method
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", method, "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                     "--out", str(out)]) == 0
        image = load_bundle(out / "image")
        assert image.shape == (12, 24, 24)
        report = json.loads((out / "report.json").read_text())
        assert report["method"] == method
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"data", "mask", "maps"}

    def test_grappa_recon_applies_lam_and_acs_kx(self, pipeline, tmp_path):
        r = pipeline["root"]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {**CONFIG, "recon": {"lam": 1e-3, "acs_kx": 10}}))
        assert main(["recon", "--config", str(cfg), "--method", "grappa",
                     "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "mask"), "--out", str(tmp_path / "o")]) == 0
        data = load_bundle(r / "masked_kspace")
        mask = load_mask(r / "mask" / "mask")
        expected = grappa_recon(data, mask, lam=1e-3, acs_kx=10)
        got = load_bundle(tmp_path / "o" / "kspace")
        np.testing.assert_array_equal(got.data, expected.data)
        assert not np.array_equal(got.data, grappa_recon(data, mask).data)

    def test_metrics(self, pipeline, tmp_path):
        r = pipeline["root"]
        recon = tmp_path / "recon"
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", "zerofill",
                     "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                     "--out", str(recon)]) == 0
        out = tmp_path / "metrics"
        assert main(["metrics", "--recon", str(recon / "image"),
                     "--ref", str(recon / "image"), "--out", str(out)]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["nrmse"] == 0.0
        assert doc["psnr_db"] == float("inf") or doc["psnr_db"] > 100

    def test_fit(self, pipeline, tmp_path):
        te = np.array([0.0, 20.0, 50.0])
        t_true = 40.0
        decay = np.exp(-te / t_true)
        data = np.ones((3, 4, 4, 2)) * decay[:, None, None, None]
        save_bundle(CTensor(data, ("echo", "kx", "ky", "kz")),
                    tmp_path / "echoes")
        out = tmp_path / "t2"
        assert main(["fit", "--seed", "1", "--echoes", str(tmp_path / "echoes"),
                     "--te", "0,20,50", "--out", str(out)]) == 0
        t2 = np.real(load_bundle(out / "t2_map").data)
        np.testing.assert_allclose(t2, t_true, rtol=1e-9)

    def test_fit_bad_te_is_config_error(self, pipeline, tmp_path):
        assert main(["fit", "--seed", "1", "--echoes", str(tmp_path / "x"),
                     "--te", "a,b", "--out", str(tmp_path / "o")]) == 2

    def test_bench_outputs(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(
            {"seed": 2, "train": {"iterations": 2, "widths": [8, 8, 8, 8]},
             "methods": ["zerofill", "eraki"]}
        ))
        out = tmp_path / "bench"
        assert main(["bench", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["methods"]) == {"zerofill", "eraki"}
        assert "espirit maps" in (out / "table.txt").read_text()

    def test_mask_rerun_identical(self, pipeline, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["mask", "--config", str(pipeline["cfg"]),
                         "--out", str(out)]) == 0
        assert (a / "mask.bin").read_bytes() == (b / "mask.bin").read_bytes()
        assert (a / "mask.json").read_text() == (b / "mask.json").read_text()
