"""CLI pipeline: subcommands, config precedence, manifests, exit codes."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rakikit import (
    CTensor,
    apply_mask,
    default_spec,
    extract_acs,
    grappa_kernel,
    grappa_recon,
    load_bundle,
    make_phantom,
    save_bundle,
)
from rakikit import recon_models
from rakikit.bench import BENCH_METHODS, thread_count
from rakikit.cli import main
from rakikit.config import DEFAULTS, merge
from rakikit.sampling import load_mask
from rakikit.tensors import AXIS_LABELS, bundle_meta

CONFIG = {
    "seed": 11,
    "phantom": {"extents": [12, 24, 24], "n_coils": 4, "texture": 0.5},
    "mask": {"extents": [24, 24], "r1": 2, "r2": 2, "shift": 1,
             "acs": [16, 16]},
    "espirit": {"kernel_size": 5},
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

    def test_unallocatable_phantom_is_numerical_error(self, tmp_path, capsys):
        # 10^15 complex voxels, 2^53.8 bytes: above the 2^48-byte address
        # space, so the first allocation fails before any page is touched
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(
            {"phantom": {"extents": [100000, 100000, 100000]}}))
        capsys.readouterr()
        assert main(["phantom", "--config", str(cfg), "--seed", "1",
                     "--out", str(tmp_path / "ph")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("memory error:")
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
        {"seed": 1, "train": {"widths": [0, 0, 0, 0]}},  # out of range
        {"seed": 1, "train": {"widths": [8, 8, 8, 2.5]}},
        {"seed": 1, "train": {"widths": 8}},
        {"seed": 1, "train": {"kernel_sizes": [[3, 3, 0], [1, 1, 3], [1, 1, 1],
                                               [1, 1, 1], [1, 1, 1]]}},
        {"seed": 1, "train": {"kernel_sizes": [3, 1, 1, 1, 1]}},
        {"seed": 1, "train": {"learning_rate": -1.0}},
        {"seed": 1, "train": {"learning_rate": 0}},
        {"seed": 1, "train": {"lr_decay": 0.0}},
        {"seed": 1, "train": {"lr_decay": 1.5}},
        {"seed": 1, "phantom": {"extents": [8, 8]}},  # list leaf: length
        {"seed": 1, "phantom": {"extents": "abc"}},
        {"seed": 1, "mask": {"extents": "ab"}},
        {"seed": 1, "mask": {"kind": "kyt", "extents": [32]}},
        {"seed": 1, "mask": {"acs": [16]}},
        {"seed": 1, "phantom": {"extents": [8, 8.5, 8]}},  # element type
        {"seed": 1, "mask": {"acs": [16, True]}},
        {"seed": 1, "espirit": {"kernel_size": 0}},
        {"seed": 1, "espirit": {"kernel_size": -3}},
        {"seed": 1, "recon": {"init": "linear"}},  # deleted leaves
        {"seed": 1, "recon": {"target_margin": 1}},
        {"seed": 1, "espirit": {"out_extents": None}},
        {"seed": 1, "bench": {}},
        {"seed": 1, "phantom": {"te_ms": "ab"}},  # list of numbers
        {"seed": 1, "phantom": {"te_ms": []}},
        {"seed": 1, "recon": {"acs_kx": "ab"}},  # null or an integer >= 1
        {"seed": 1, "recon": {"acs_kx": 2.5}},
        {"seed": 1, "recon": {"acs_kx": [4]}},
        {"seed": 1, "recon": {"acs_kx": True}},
        {"seed": 1, "recon": {"acs_kx": 0}},
        {"seed": 1, "recon": {"lam": -1}},  # a finite number >= 0
        {"seed": 1, "recon": {"lam": float("nan")}},
        {"seed": 1, "recon": {"lam": float("inf")}},
        {"seed": -1},
        {"seed": 1, "phantom": {"texture": float("inf")}},  # finite numbers
        {"seed": 1, "phantom": {"noise_sigma": float("nan")}},
        {"seed": 1, "phantom": {"te_ms": [0.0, float("inf")]}},
        {"seed": 1, "train": {"learning_rate": float("inf")}},
        {"seed": 1, "fit": {"threshold": float("inf")}},
        {"seed": 1, "mask": {"kind": "elliptical", "extents": [1, 8],
                             "r1": 1, "acs": None}},  # ellipse of extent 1
    ], ids=["str-number", "float-int", "bool-int", "bool-float", "int-bool",
            "str-seed", "float-seed", "null-section", "list-section",
            "str-section", "zero-widths", "float-width", "number-widths",
            "zero-kernel-extent", "flat-kernel-sizes", "negative-lr",
            "zero-lr", "zero-lr-decay", "lr-decay-above-1",
            "short-phantom-extents", "str-phantom-extents",
            "str-mask-extents", "short-kyt-extents", "short-acs",
            "float-extent", "bool-acs", "zero-kernel-size",
            "negative-kernel-size", "recon-init", "recon-target-margin",
            "espirit-out-extents", "bench-section",
            "str-te-ms", "empty-te-ms", "str-acs-kx", "float-acs-kx",
            "list-acs-kx", "bool-acs-kx", "zero-acs-kx", "negative-lam",
            "nan-lam", "inf-lam", "negative-seed", "inf-texture",
            "nan-noise-sigma", "inf-te-ms", "inf-lr", "inf-fit-threshold",
            "elliptical-extent-1"])
    def test_malformed_config_is_config_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["mask", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["phantom", "--seed", "-3", "--out", "{tmp}/o"],
        ["bench", "--seed", "-3"],
        ["phantom", "--config", "{tmp}/c.json", "--out", "{tmp}/o"],
    ], ids=["phantom-negative-seed", "bench-negative-seed",
            "negative-noise-sigma"])
    def test_out_of_range_is_config_error(self, tmp_path, capsys, argv):
        (tmp_path / "c.json").write_text(
            json.dumps({"seed": 1, "phantom": {"noise_sigma": -1}}))
        capsys.readouterr()
        assert main([a.format(tmp=tmp_path) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("leaf", ["texture", "noise_sigma"])
    def test_nonfinite_phantom_is_numerical_error(self, tmp_path, capsys, leaf):
        (tmp_path / "c.json").write_text(json.dumps(
            {"seed": 1, "phantom": {"extents": [4, 8, 8], "n_coils": 2,
                                    leaf: 1e308}}))
        capsys.readouterr()
        assert main(["phantom", "--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "not finite" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_int_accepted_for_float_leaf(self):
        merged = merge(DEFAULTS, {"seed": 1, "phantom": {"noise_sigma": 0}})
        assert merged["phantom"]["noise_sigma"] == 0

    def test_recon_leaves_accept_their_range(self):
        merged = merge(DEFAULTS, {"recon": {"acs_kx": None, "lam": 0}})
        assert merged["recon"] == {"acs_kx": None, "lam": 0}
        merged = merge(DEFAULTS, {"recon": {"acs_kx": 1, "lam": 2.5}})
        assert merged["recon"] == {"acs_kx": 1, "lam": 2.5}

    def test_nullable_list_leaves_accept_null(self):
        merged = merge(DEFAULTS, {"mask": {"acs": None}})
        assert merged["mask"]["acs"] is None

    @pytest.mark.parametrize("where", ["in-acs", "outside-acs"])
    @pytest.mark.parametrize("method", BENCH_METHODS)
    def test_nonfinite_kspace_is_numerical_error(self, pipeline, tmp_path,
                                                 capsys, method, where):
        r = pipeline["root"]
        data = load_bundle(r / "masked_kspace")
        mask = load_mask(r / "mask" / "mask")
        (b1, l1), (b2, l2) = mask.acs_box
        in_acs = np.zeros(mask.extents, dtype=bool)
        in_acs[b1 : b1 + l1, b2 : b2 + l2] = True
        region = in_acs if where == "in-acs" else mask.grid & ~in_acs
        idx = np.argwhere(region)
        i, j = idx[len(idx) // 2]
        bad = data.data.copy()
        bad[1, 3, i, j] = np.nan if where == "in-acs" else np.inf
        save_bundle(data.with_data(bad), tmp_path / "data")
        capsys.readouterr()
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", method, "--data", str(tmp_path / "data"),
                     "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "non-finite" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("method", BENCH_METHODS)
    def test_nonfinite_maps_are_numerical_error(self, pipeline, tmp_path,
                                                capsys, method):
        r = pipeline["root"]
        maps = self._copy_maps(pipeline, tmp_path)
        bad = load_bundle(maps / "maps")
        bad.data[1, 3, 5, 5] = np.nan
        save_bundle(bad, maps / "maps", meta=bundle_meta(maps / "maps"))
        capsys.readouterr()
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", method, "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "mask"), "--maps", str(maps),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err == ("numerical error: sensitivity maps hold non-finite "
                       "values\n")
        assert not (tmp_path / "o" / "image.json").exists()

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

    @staticmethod
    def _copy_maps(pipeline, tmp_path):
        maps = tmp_path / "maps"
        maps.mkdir()
        for name in ("maps", "eigval"):
            for suffix in (".json", ".bin"):
                src = (pipeline["root"] / "maps" / name).with_suffix(suffix)
                (maps / name).with_suffix(suffix).write_bytes(src.read_bytes())
        return maps

    @staticmethod
    def _recon_with_maps(pipeline, tmp_path, maps):
        r = pipeline["root"]
        return main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", "zerofill", "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "mask"), "--maps", str(maps),
                     "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("key", ["kernel_size", "sigma_threshold",
                                     "crop_threshold"])
    def test_maps_meta_missing_key_is_data_error(self, pipeline, tmp_path,
                                                 capsys, key):
        maps = self._copy_maps(pipeline, tmp_path)
        header = json.loads((maps / "maps.json").read_text())
        del header["meta"][key]
        (maps / "maps.json").write_text(json.dumps(header))
        capsys.readouterr()
        assert self._recon_with_maps(pipeline, tmp_path, maps) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and key in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", [2.5, "7", True, -1, None],
                             ids=["float", "str", "bool", "negative", "null"])
    def test_maps_meta_noninteger_fallbacks_is_data_error(
            self, pipeline, tmp_path, capsys, value):
        maps = self._copy_maps(pipeline, tmp_path)
        header = json.loads((maps / "maps.json").read_text())
        header["meta"]["eigh_fallbacks"] = value
        (maps / "maps.json").write_text(json.dumps(header))
        capsys.readouterr()
        assert self._recon_with_maps(pipeline, tmp_path, maps) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "eigh_fallbacks" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_eigval_extents_differing_from_maps_is_data_error(
            self, pipeline, tmp_path, capsys):
        maps = self._copy_maps(pipeline, tmp_path)
        save_bundle(CTensor(np.ones((3, 5, 5), dtype=np.complex128),
                            ("kx", "ky", "kz")), maps / "eigval")
        capsys.readouterr()
        assert self._recon_with_maps(pipeline, tmp_path, maps) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: eigval bundle")
        assert "(3, 5, 5)" in err and "(12, 24, 24)" in err
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

    def test_mask_descriptor_value_is_data_error(self, pipeline, tmp_path,
                                                 capsys):
        r = pipeline["root"]
        mask = tmp_path / "mask"
        header = json.loads((r / "mask" / "mask.json").read_text())
        header["meta"]["mask"]["r1"] = "x"
        save_bundle(load_bundle(r / "mask" / "mask"), mask)
        (tmp_path / "mask.json").write_text(json.dumps(header))
        capsys.readouterr()
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", "grappa", "--data", str(r / "masked_kspace"),
                     "--mask", str(mask), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: mask bundle") and "r1" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_mask_planes_off_the_descriptor_are_data_error(self, pipeline,
                                                          tmp_path, capsys):
        """A never-acquired plane set everywhere would zero every sample."""
        r = pipeline["root"]
        stack = load_bundle(r / "mask" / "mask")
        stack.data[1] = 1.0
        meta = json.loads((r / "mask" / "mask.json").read_text())["meta"]
        save_bundle(stack, tmp_path / "mask", meta=meta)
        capsys.readouterr()
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", "grappa", "--data", str(r / "masked_kspace"),
                     "--mask", str(tmp_path / "mask"),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: mask bundle")
        assert "never_acquired plane" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bundle, key, value", [
        ("masked_kspace", "shape", "abc"),
        ("masked_kspace", "shape", ["a", 12, 24, 24]),
        ("masked_kspace", "shape", 5),
        ("masked_kspace", "shape", None),
        ("masked_kspace", "shape", [4.5, 12, 24, 24]),
        ("masked_kspace", "shape", [True, 12, 24, 24]),
        ("masked_kspace", "shape", [-4, 12, 24, 24]),
        ("masked_kspace", "axes", 5),
        ("masked_kspace", "axes", None),
        ("masked_kspace", "axes", [["coil"], "kx", "ky", "kz"]),
        ("masked_kspace", "axes", ["coil", "kx", "ky"]),
        ("mask/mask", "meta", [1]),
        ("maps/maps", "meta", [1]),
    ], ids=["shape-str", "shape-str-item", "shape-int", "shape-null",
            "shape-float-item", "shape-bool-item", "shape-negative-item",
            "axes-int", "axes-null", "axes-list-item", "axes-short",
            "mask-meta-list", "maps-meta-list"])
    def test_malformed_header_field_is_data_error(self, pipeline, tmp_path,
                                                  capsys, bundle, key, value):
        r = pipeline["root"]
        for rel in BUNDLES.values():
            (tmp_path / rel).parent.mkdir(exist_ok=True)
            save_bundle(load_bundle(r / rel), tmp_path / rel)
            header = json.loads((r / rel).with_suffix(".json").read_text())
            if rel == bundle:
                header[key] = value
            (tmp_path / rel).with_suffix(".json").write_text(json.dumps(header))
        capsys.readouterr()
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", "zerofill",
                     "--data", str(tmp_path / "masked_kspace"),
                     "--mask", str(tmp_path / "mask"),
                     "--maps", str(tmp_path / "maps"),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: bundle header") and key in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("method", BENCH_METHODS)
    def test_even_kernel_after_layer_0_runs(self, pipeline, tmp_path, capsys,
                                            method):
        """Every method runs with an even kernel extent after layer 0: the
        linear branch reads at the lower centre of the later margins."""
        r = pipeline["root"]
        train = {**CONFIG["train"], "kernel_sizes": [
            [3, 3, 5], [1, 1, 2], [1, 1, 1], [1, 1, 1], [1, 1, 1]]}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**CONFIG, "train": train}))
        capsys.readouterr()
        code = main(["recon", "--config", str(cfg), "--method", method,
                     "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                     "--out", str(tmp_path / "o")])
        assert code == 0 and capsys.readouterr().err == ""

    @pytest.mark.parametrize("method", ["raki", "eraki"])
    def test_extents_off_the_lattice_steps_exit_before_training(
            self, pipeline, tmp_path, capsys, monkeypatch, method):
        """R1 = 5 does not divide the 24-line pattern: a data error before
        the warm start or any training step."""
        r = pipeline["root"]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**CONFIG,
                                   "mask": {**CONFIG["mask"], "r1": 5}}))
        assert main(["mask", "--config", str(cfg),
                     "--out", str(tmp_path / "mask")]) == 0
        ksp = load_bundle(r / "ph" / "kspace")
        single = CTensor(ksp.data[:, 0], ("coil", "kx", "ky", "kz"))
        save_bundle(apply_mask(single, load_mask(tmp_path / "mask" / "mask")),
                    tmp_path / "data")
        called = []
        for name in ("linear_init", "train"):
            monkeypatch.setattr(recon_models, name,
                                lambda *a, name=name, **k: called.append(name))
        capsys.readouterr()
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", method, "--data", str(tmp_path / "data"),
                     "--mask", str(tmp_path / "mask"), "--maps", str(r / "maps"),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "(5, 2)" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert called == []

    @staticmethod
    def _recon_is_data_error(pipeline, tmp_path, capsys, method, data):
        save_bundle(data, tmp_path / "data")
        r = pipeline["root"]
        capsys.readouterr()
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", method, "--data", str(tmp_path / "data"),
                     "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "mask has none" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("method", BENCH_METHODS)
    def test_unmasked_kspace_is_data_error(self, pipeline, tmp_path, capsys,
                                           method):
        ksp = load_bundle(pipeline["root"] / "ph" / "kspace")
        full = CTensor(ksp.data[:, 0], ("coil", "kx", "ky", "kz"))
        self._recon_is_data_error(pipeline, tmp_path, capsys, method, full)

    @pytest.mark.parametrize("method", ["zerofill", "eraki"])
    def test_echoes_on_one_mask_are_data_error(self, pipeline, tmp_path, capsys,
                                               method):
        """Echo e >= 1 is read through the echo-shifted mask, so k-space
        masked with echo 0's mask throughout holds samples off it."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {**CONFIG, "phantom": {**CONFIG["phantom"], "te_ms": [8, 40, 80]}}))
        assert main(["phantom", "--config", str(cfg),
                     "--out", str(tmp_path / "ph")]) == 0
        ksp = load_bundle(tmp_path / "ph" / "kspace")
        mask = load_mask(pipeline["root"] / "mask" / "mask")
        self._recon_is_data_error(pipeline, tmp_path, capsys, method,
                                  apply_mask(ksp, mask))
        # each echo on its own shifted mask is what recon reads
        shifted = ksp.data.copy()
        for e, m in enumerate(recon_models.echo_shifted_masks(mask, 3)):
            shifted[:, e] = apply_mask(CTensor(ksp.data[:, e], (
                "coil", "kx", "ky", "kz")), m).data
        save_bundle(ksp.with_data(shifted), tmp_path / "data")
        r = pipeline["root"]
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", method, "--data", str(tmp_path / "data"),
                     "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                     "--out", str(tmp_path / "o")]) == 0

    def test_bench_with_empty_scored_interior_is_data_error(self, tmp_path,
                                                            capsys):
        """Extent 4 leaves no [2:-2] interior to score: exit 3 before any
        method runs, and no NaN row written."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "seed": 0, "phantom": {"extents": [4, 24, 24]},
            "mask": {"extents": [24, 24], "acs": [12, 12]},
            "train": {"iterations": 2, "kernel_sizes": [[3, 3, 1], [1, 1, 1],
                                                        [1, 1, 1], [1, 1, 1],
                                                        [1, 1, 1]]}}))
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "interior" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_bench_with_several_echoes_is_config_error(self, tmp_path, capsys):
        """The bench scores one echo: three echo times exit 2 before any
        method runs, where they once benched echo 0 alone and exited 0."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {**CONFIG, "phantom": {**CONFIG["phantom"], "te_ms": [8, 40, 80]}}))
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "lists 3" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_bench_on_a_grid_only_the_learned_methods_refuse(self, tmp_path):
        """47 x 47 does not divide by the 2 x 2 steps the learned methods
        decimate by: their rows hold the error, zerofill and GRAPPA are
        scored, and the bench exits 0 (its untimed warm-up once exited 3)."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "seed": 1, "phantom": {"extents": [16, 47, 47]},
            "mask": {"extents": [47, 47]}, "train": {"iterations": 2}}))
        assert main(["bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        rows = json.loads((tmp_path / "o" / "report.json").read_text())["methods"]
        for method in ("zerofill", "grappa"):
            assert "error" not in rows[method] and rows[method]["nrmse"] < 1
        for method in ("raki", "eraki"):
            assert rows[method] == {"error": "GeometryError: pattern extents "
                                             "(47, 47) must divide by steps (2, 2)"}

    def test_maps_of_a_multi_echo_acs_is_data_error(self, pipeline, tmp_path,
                                                    capsys):
        """ESPIRiT reads one echo: a 3-echo ACS exits 3 with one line naming
        the echo axis, where its axis order once reached np.transpose and
        ended in a traceback, and later named only an axis permutation."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {**CONFIG, "phantom": {**CONFIG["phantom"], "te_ms": [0, 20, 40]}}))
        assert main(["phantom", "--config", str(cfg),
                     "--out", str(tmp_path / "ph")]) == 0
        ksp = load_bundle(tmp_path / "ph" / "kspace")
        mask = load_mask(pipeline["root"] / "mask" / "mask")
        save_bundle(extract_acs(ksp, mask), tmp_path / "acs")
        capsys.readouterr()
        assert main(["maps", "--config", str(cfg), "--acs", str(tmp_path / "acs"),
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "['echo']" in err
        assert "reduce echo first" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("seed", [[], ["--seed", "3"]], ids=["", "seed"])
    def test_bench_scenario_not_object_is_config_error(self, tmp_path, capsys,
                                                       seed):
        cfg = tmp_path / "c.json"
        cfg.write_text("[1, 2]")
        capsys.readouterr()
        assert main(["bench", "--config", str(cfg), *seed]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "JSON object" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_metrics_image_is_numerical_error(
            self, pipeline, tmp_path, capsys, value):
        """One non-finite voxel: exit 4, and no "nrmse": NaN written."""
        r = pipeline["root"]
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", "zerofill", "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                     "--out", str(tmp_path / "recon")]) == 0
        image = load_bundle(tmp_path / "recon" / "image")
        bad = image.data.copy()
        bad[3, 5, 5] = value
        save_bundle(image.with_data(bad), tmp_path / "bad")
        for recon, ref in (("bad", "recon/image"), ("recon/image", "bad")):
            capsys.readouterr()
            assert main(["metrics", "--recon", str(tmp_path / recon),
                         "--ref", str(tmp_path / ref),
                         "--out", str(tmp_path / "m")]) == 4
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("numerical error:")
            assert "non-finite" in captured.err
            assert captured.err.count("\n") == 1
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_echoes_fit_is_numerical_error(self, echoes, tmp_path,
                                                     capsys, value):
        images = load_bundle(echoes)
        bad = images.data.copy()
        bad[(1, *(n // 2 for n in bad.shape[1:]))] = value
        save_bundle(images.with_data(bad), tmp_path / "image")
        capsys.readouterr()
        assert main(["fit", "--seed", "1", "--echoes", str(tmp_path / "image"),
                     "--te", "8,40,80", "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and "non-finite" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("te", ["nan,40,80", "8,inf,80"], ids=["nan", "inf"])
    def test_nonfinite_echo_times_fit_is_config_error(self, echoes, tmp_path,
                                                      capsys, te):
        capsys.readouterr()
        assert main(["fit", "--seed", "1", "--echoes", str(echoes),
                     "--te", te, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: echo times must be finite")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_recon_without_maps_is_config_error(self, pipeline, tmp_path):
        r = pipeline["root"]
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", "eraki", "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "mask"),
                     "--out", str(tmp_path / "o")]) == 2


NUMBER = st.one_of(st.floats(1e-300, 1e300), st.floats(-1e300, -1e-300),
                   st.sampled_from([0, 0.5, 1]))
UNIT = st.one_of(st.floats(1e-300, 1.0), NUMBER)  # alpha, lr_decay
WIDTHS = st.one_of(st.lists(st.integers(1, 8), min_size=4, max_size=4),
                   st.lists(st.integers(-1, 8), max_size=5))
KERNELS = st.one_of(
    st.lists(st.lists(st.integers(1, 3), min_size=3, max_size=3),
             min_size=5, max_size=5),
    st.lists(st.lists(st.integers(0, 4), max_size=4), max_size=6))


@st.composite
def train_sections(draw):
    """Train leaves across float64's range, short or ragged layer lists,
    and in half the draws one leaf of the wrong type; at most 3 steps."""
    leaves = draw(st.fixed_dictionaries(
        {"iterations": st.integers(0, 3)},
        optional={"alpha": UNIT, "beta": NUMBER, "learning_rate": NUMBER,
                  "lr_decay": UNIT, "squared_l2": st.booleans(),
                  "widths": WIDTHS, "kernel_sizes": KERNELS}))
    wrong = draw(st.none() | st.tuples(
        st.sampled_from(sorted(DEFAULTS["train"])),
        st.sampled_from(["x", None, True, 2.5, [1], {"a": 1}])))
    if wrong is not None:
        leaves[wrong[0]] = wrong[1]
    return {**CONFIG["train"], **leaves}


class TestTrainSectionFuzz:
    @settings(max_examples=40, deadline=None)
    @given(train=train_sections(), method=st.sampled_from(["raki", "eraki"]))
    def test_recon_exits_cleanly(self, pipeline, train, method):
        """Any train section ends in exit 0, 2, 3 or 4 with at most one line."""
        r = pipeline["root"]
        cfg = r / "fuzz.json"
        cfg.write_text(json.dumps({**CONFIG, "train": train}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["recon", "--config", str(cfg), "--method", method,
                         "--data", str(r / "masked_kspace"),
                         "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                         "--out", str(r / "fuzz")])
        err = err.getvalue()
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        assert err.count("\n") == (code != 0)


WRONG = st.sampled_from(["x", None, True, 2.5, [1], {"a": 1}])
COUNT = st.integers(-1, 33)


def extent_lists(n):
    """Mostly n extents of at most 32; else any of -1 to 32, any length."""
    valid = st.lists(st.integers(1, 32), min_size=n, max_size=n)
    return st.one_of(valid, valid, st.lists(st.integers(-1, 32), max_size=n + 1))


@st.composite
def sections(draw, required, optional):
    """A config section: its leaves drawn, and in half the draws one leaf of
    the wrong type."""
    leaves = draw(st.fixed_dictionaries(required, optional=optional))
    wrong = draw(st.none() | st.tuples(
        st.sampled_from(sorted({**required, **optional})), WRONG))
    if wrong is not None:
        leaves[wrong[0]] = wrong[1]
    return leaves


PHANTOM = sections(
    # extents and coils always drawn: the defaults are larger than the bound
    {"extents": extent_lists(3), "n_coils": st.integers(-1, 4)},
    {"coil_model": st.sampled_from(["smooth", "compact", "x"]),
     "coil_support": st.integers(-1, 9),
     "te_ms": st.one_of(st.sampled_from([[0.0], [8.0, 40.0]]),
                        st.lists(NUMBER, max_size=2)),
     "echo_type": st.sampled_from(["spin", "gradient", "x"]),
     "noise_sigma": NUMBER, "texture": NUMBER})
MASK = sections(
    {"extents": extent_lists(2)},
    {"kind": st.sampled_from(["uniform", "elliptical", "kyt", "x"]),
     "r1": COUNT, "r2": COUNT, "shift": st.integers(-2, 33),
     "acs": st.none() | extent_lists(2)})
ESPIRIT = sections(
    {}, {"kernel_size": st.integers(-1, 12), "sigma_threshold": UNIT,
         "crop_threshold": UNIT})
RECON = sections({}, {"acs_kx": st.none() | COUNT, "lam": NUMBER})
FIT = sections({}, {"threshold": NUMBER})


@pytest.fixture(scope="module")
def echoes(tmp_path_factory):
    """A small 3-echo magnitude-image bundle for ``rakikit fit``."""
    root = tmp_path_factory.mktemp("echoes")
    ph = make_phantom(default_spec(extents=(4, 8, 8), n_coils=1,
                                   te_ms=(8.0, 40.0, 80.0), seed=3))
    save_bundle(ph["images"], root / "image")
    return root / "image"


class TestConfigSectionFuzz:
    """Every config section, through the cheapest command that reads it,
    ends in exit 0, 2, 3 or 4 with at most one stderr line."""

    @staticmethod
    def exits_cleanly(argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        assert err.count("\n") == (code != 0)

    @staticmethod
    def config(root, doc):
        cfg = root / "fuzz.json"
        cfg.write_text(json.dumps(doc))
        return str(cfg)

    @settings(max_examples=40, deadline=None)
    @given(section=PHANTOM)
    def test_phantom(self, pipeline, section):
        r = pipeline["root"]
        self.exits_cleanly(["phantom", "--config",
                            self.config(r, {"seed": 11, "phantom": section}),
                            "--out", str(r / "fuzz_phantom")])

    @settings(max_examples=40, deadline=None)
    @given(section=MASK)
    def test_mask(self, pipeline, section):
        r = pipeline["root"]
        self.exits_cleanly(["mask", "--config",
                            self.config(r, {"seed": 11, "mask": section}),
                            "--out", str(r / "fuzz_mask")])

    @settings(max_examples=40, deadline=None)
    @given(section=ESPIRIT)
    def test_espirit(self, pipeline, section):
        r = pipeline["root"]
        self.exits_cleanly(["maps", "--config",
                            self.config(r, {"seed": 11, "espirit": section}),
                            "--acs", str(r / "acs"),
                            "--out", str(r / "fuzz_maps")])

    @settings(max_examples=40, deadline=None)
    @given(section=RECON)
    def test_recon(self, pipeline, section):
        r = pipeline["root"]
        self.exits_cleanly(["recon", "--config",
                            self.config(r, {**CONFIG, "recon": section}),
                            "--method", "grappa",
                            "--data", str(r / "masked_kspace"),
                            "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                            "--out", str(r / "fuzz_recon")])

    @settings(max_examples=40, deadline=None)
    @given(section=FIT)
    def test_fit(self, pipeline, echoes, section):
        r = pipeline["root"]
        self.exits_cleanly(["fit", "--config",
                            self.config(r, {"seed": 11, "fit": section}),
                            "--echoes", str(echoes), "--te", "8,40,80",
                            "--out", str(r / "fuzz_fit")])


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**70) | st.floats(-1e300, 1e300)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
LABELS = st.sampled_from([*AXIS_LABELS, "x"])
BUNDLES = {"kspace": "masked_kspace", "mask": "mask/mask", "maps": "maps/maps",
           "eigval": "maps/eigval"}


@st.composite
def altered(draw, value):
    """``value`` with one leaf, at any depth, replaced by any JSON value, or
    one key or item dropped."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        out = value.copy()
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                   else range(len(value))))
        if draw(st.integers(0, 3)) == 0:
            del out[key]
        else:
            out[key] = draw(altered(value[key]))
        return out
    return draw(JSON_VALUE)


@st.composite
def header_faults(draw, header):
    """A bundle header with a fault: any leaf altered, the shape or the axes
    permuted, both permuted alike, an extent-1 axis inserted, or other labels."""
    shape, axes = header["shape"], header["axes"]
    kind = draw(st.sampled_from(["leaf", "shape", "axes", "both", "insert",
                                 "labels"]))
    if kind == "leaf":
        return draw(altered(header))
    if kind == "insert":
        i = draw(st.integers(0, len(shape)))
        return {**header, "shape": [*shape[:i], 1, *shape[i:]],
                "axes": [*axes[:i], draw(LABELS), *axes[i:]]}
    if kind == "labels":
        return {**header, "axes": draw(st.lists(LABELS, min_size=len(axes),
                                                max_size=len(axes)))}
    order = draw(st.permutations(range(len(shape))))
    out = dict(header)
    if kind in ("shape", "both"):
        out["shape"] = [shape[i] for i in order]
    if kind in ("axes", "both"):
        out["axes"] = [axes[i] for i in order]
    return out


class TestBundleHeaderFuzz:
    """A fault in the header of the k-space, mask, maps or eigenvalue bundle
    ends ``rakikit recon`` in exit 0, 2, 3 or 4 with at most one stderr
    line."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), bundle=st.sampled_from(sorted(BUNDLES)),
           method=st.sampled_from(BENCH_METHODS))
    def test_recon_exits_cleanly(self, pipeline, data, bundle, method):
        r = pipeline["root"]
        fuzz = r / "fuzz_bundles"
        for rel in BUNDLES.values():
            src = r / rel
            for suffix in (".json", ".bin"):
                dst = (fuzz / rel).with_suffix(suffix)
                dst.parent.mkdir(parents=True, exist_ok=True)
                dst.write_bytes(src.with_suffix(suffix).read_bytes())
        header = json.loads((r / BUNDLES[bundle]).with_suffix(".json").read_text())
        (fuzz / BUNDLES[bundle]).with_suffix(".json").write_text(
            json.dumps(data.draw(header_faults(header))))
        TestConfigSectionFuzz.exits_cleanly(
            ["recon", "--config", str(pipeline["cfg"]), "--method", method,
             "--data", str(fuzz / "masked_kspace"), "--mask", str(fuzz / "mask"),
             "--maps", str(fuzz / "maps"), "--out", str(r / "fuzz_recon")])


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
        assert set(manifest["blas_threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert manifest["effective_config"]["phantom"]["n_coils"] == 4
        # defaults echoed into the persisted effective config
        assert manifest["effective_config"]["train"]["alpha"] == 0.0

    def test_manifest_records_blas_thread_variables(self, tmp_path, monkeypatch):
        from rakikit.cli import write_manifest

        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        write_manifest(tmp_path, "phantom", {"seed": 1}, {})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "2",
                                            "OMP_NUM_THREADS": "3",
                                            "MKL_NUM_THREADS": None}

    def test_maps_meta_records_espirit_diagnostics(self, pipeline):
        from rakikit import espirit_maps

        r = pipeline["root"]
        meta = bundle_meta(r / "maps" / "maps")
        maps = espirit_maps(load_bundle(r / "acs"), kernel_size=5,
                            out_extents=(24, 24))
        assert meta["retained_frac"] == maps.retained_frac
        assert meta["eigh_fallbacks"] == maps.eigh_fallbacks
        assert 0 < meta["retained_frac"] < 1
        assert 0 <= meta["eigh_fallbacks"] <= maps.eigval.size
        hist = meta["eigval_hist"]
        assert hist == maps.eigval_hist
        assert len(hist) == 10 and all(type(n) is int for n in hist)
        assert sum(hist) == maps.eigval.size
        clipped = np.clip(maps.eigval, 0, 1)
        assert hist[-1] == np.count_nonzero(clipped >= 0.9)
        assert hist[0] == np.count_nonzero(clipped < 0.1)

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    @pytest.mark.parametrize("method", ["raki", "eraki"])
    def test_learned_recon_at_extreme_scale(self, pipeline, tmp_path, capsys,
                                            method, factor):
        """The ACS scaling never squares raw k-space: no overflow, no underflow."""
        r = pipeline["root"]
        data = load_bundle(r / "masked_kspace")
        save_bundle(data.with_data(data.data * factor), tmp_path / "data")
        capsys.readouterr()
        assert main(["recon", "--config", str(pipeline["cfg"]),
                     "--method", method, "--data", str(tmp_path / "data"),
                     "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                     "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""
        image = load_bundle(tmp_path / "o" / "image").data
        assert np.isfinite(image).all() and np.abs(image).max() > 0

    @pytest.mark.parametrize("exponent", [664, -664])
    def test_grappa_recon_at_extreme_scale(self, pipeline, tmp_path, capsys,
                                           exponent):
        """GRAPPA's normal equations neither overflow nor underflow: the
        k-space of data scaled by 2**±664 (about 1e±200) is the unscaled
        k-space times the same factor, bit for bit."""
        r = pipeline["root"]
        factor = 2.0 ** exponent
        data = load_bundle(r / "masked_kspace")
        save_bundle(data.with_data(data.data * factor), tmp_path / "data")
        capsys.readouterr()
        for name in ("data", "plain"):
            src = tmp_path / "data" if name == "data" else r / "masked_kspace"
            assert main(["recon", "--config", str(pipeline["cfg"]),
                         "--method", "grappa", "--data", str(src),
                         "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                         "--out", str(tmp_path / name)]) == 0
        assert capsys.readouterr().err == ""
        scaled = load_bundle(tmp_path / "data" / "kspace").data
        plain = load_bundle(tmp_path / "plain" / "kspace").data
        np.testing.assert_array_equal(scaled, plain * factor)

    def test_seed_flag_overrides_file(self, pipeline, tmp_path):
        assert main(["mask", "--config", str(pipeline["cfg"]), "--seed", "99",
                     "--out", str(tmp_path / "m")]) == 0
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        assert manifest["seed"] == 99

    @pytest.mark.parametrize("method", BENCH_METHODS)
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
        keys = {"method", "model_count", "paper_equivalent_models",
                "learning_s", "inference_s"}
        extra = {"raki": {"loss_history"}, "eraki": {"loss_history"},
                 "grappa": {"calibration_windows", "calibration_residual"}}
        assert set(report) == keys | extra.get(method, set())
        if method == "grappa":  # the kernel's diagnostics, as calibrated
            kernel = grappa_kernel(load_bundle(r / "masked_kspace"),
                                   load_mask(r / "mask" / "mask"))
            assert report["calibration_windows"] == kernel.windows
            assert report["calibration_residual"] == kernel.residual
            assert 0 < kernel.residual < 1
        assert report["paper_equivalent_models"] == {
            "zerofill": 0, "grappa": 3, "raki": 8, "eraki": 1}[method]
        # the training loss history: one list for eRAKI, one per coil for RAKI
        history = report.get("loss_history")
        if method == "eraki":
            assert len(history) == 5 and history[-1] < history[0]
        elif method == "raki":
            assert len(history) == report["model_count"] == 4
            assert all(len(h) == 5 and h[-1] < h[0] for h in history)
        else:
            assert history is None
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
        doc = json.loads((out / "metrics.json").read_text(),
                         parse_constant=self._reject_constant)
        assert doc["nrmse"] == 0.0
        assert doc["psnr_db"] is None

    @staticmethod
    def _reject_constant(name):
        raise ValueError(f"the JSON file holds {name}, which is not JSON")

    def test_every_json_written_is_strict(self, pipeline, echoes, tmp_path):
        """Manifests, reports, bundle headers and metrics.json hold no NaN
        or Infinity, through the whole pipeline: phantom, mask, maps,
        recon by every method, metrics, fit and bench."""
        r = pipeline["root"]
        for method in BENCH_METHODS:
            assert main(["recon", "--config", str(pipeline["cfg"]),
                         "--method", method, "--data", str(r / "masked_kspace"),
                         "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                         "--out", str(tmp_path / method)]) == 0
        image = str(tmp_path / "eraki" / "image")
        assert main(["metrics", "--recon", image, "--ref", image,
                     "--out", str(tmp_path / "metrics")]) == 0
        assert main(["fit", "--seed", "1", "--echoes", str(echoes),
                     "--te", "8,40,80", "--out", str(tmp_path / "fit")]) == 0
        assert main(["bench", "--config", str(pipeline["cfg"]),
                     "--out", str(tmp_path / "bench")]) == 0
        written = [p for d in (r / "ph", r / "mask", r / "maps", tmp_path)
                   for p in d.rglob("*.json")]
        for name in ("manifest", "report", "kspace", "image", "maps", "mask",
                     "metrics", "t2_map"):
            assert any(p.stem == name for p in written), name
        for path in written:
            json.loads(path.read_text(), parse_constant=self._reject_constant)

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
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"seed": 2, "train": {"iterations": 2, "widths": [8, 8, 8, 8]}}))
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["methods"]) == set(BENCH_METHODS)
        assert "espirit maps" in (out / "table.txt").read_text()

    def test_bench_rows_are_the_pipeline_reports(self, pipeline, tmp_path):
        """One config: ``rakikit bench`` reconstructs the scene the CLI
        pipeline builds, so each row is that method's recon report, bit for
        bit, in every key but the clock readings and the bench's NRMSE."""
        r = pipeline["root"]
        assert main(["bench", "--config", str(pipeline["cfg"]),
                     "--out", str(tmp_path / "bench")]) == 0
        rows = json.loads((tmp_path / "bench" / "report.json").read_text())
        clock = {"learning_s", "inference_s"}
        for method in BENCH_METHODS:
            out = tmp_path / method
            assert main(["recon", "--config", str(pipeline["cfg"]),
                         "--method", method, "--data", str(r / "masked_kspace"),
                         "--mask", str(r / "mask"), "--maps", str(r / "maps"),
                         "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            row = rows["methods"][method]
            assert {k: v for k, v in row.items() if k not in clock | {"nrmse"}} \
                == {k: v for k, v in report.items() if k not in clock | {"method"}}

    def test_maps_default_to_the_mask_extents(self, pipeline, tmp_path):
        """The default ``espirit`` section puts the maps on ``mask.extents``,
        not on the ACS grid, so recon takes them; the pipeline's maps."""
        r = pipeline["root"]
        doc = {k: v for k, v in CONFIG.items() if k != "espirit"}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["maps", "--config", str(cfg), "--acs", str(r / "acs"),
                     "--out", str(tmp_path / "maps")]) == 0
        maps = load_bundle(tmp_path / "maps" / "maps")
        assert maps.shape[2:] == tuple(CONFIG["mask"]["extents"])
        for name in ("maps.bin", "eigval.bin"):
            assert (tmp_path / "maps" / name).read_bytes() == \
                (r / "maps" / name).read_bytes()
        assert main(["recon", "--config", str(cfg), "--method", "eraki",
                     "--data", str(r / "masked_kspace"),
                     "--mask", str(r / "mask"), "--maps", str(tmp_path / "maps"),
                     "--out", str(tmp_path / "o")]) == 0

    def test_mask_rerun_identical(self, pipeline, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["mask", "--config", str(pipeline["cfg"]),
                         "--out", str(out)]) == 0
        assert (a / "mask.bin").read_bytes() == (b / "mask.bin").read_bytes()
        assert (a / "mask.json").read_text() == (b / "mask.json").read_text()
