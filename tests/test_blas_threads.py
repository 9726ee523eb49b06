"""Outputs across BLAS thread settings.

BLAS reductions (ESPIRiT's GEMMs and ``eigh``, the ridge solves, the
training GEMMs) sum in an order that depends on the thread count, and the
pool size is fixed when numpy is imported. So a fixed seed gives
bit-identical outputs only at a fixed thread setting; across settings the
images agree to ``REL_TOL``. Each setting runs in its own interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import rakikit
from rakikit.bench import BENCH_METHODS

# relative image difference allowed between 1 and 2 BLAS threads; on a
# 2-core Xeon the scene below differs by 2e-16 (zerofill), 4e-12 (GRAPPA),
# 4e-13 (RAKI) and 8e-13 (eRAKI)
REL_TOL = 1e-6

# every method on one small scene (4 coils, 16x32x32, 10 steps), images
# saved to the .npz named by argv[1]
SCRIPT = """
import sys
import numpy as np
from rakikit.bench import BENCH_METHODS, reconstruct
from rakikit.config import (DEFAULTS, checked, merge, phantom_spec,
                            sampling_mask, sensitivity_maps, train_config)
from rakikit.phantom import make_phantom
from rakikit.sampling import apply_mask, extract_acs
from rakikit.tensors import CTensor

cfg = checked(merge(DEFAULTS, {
    "seed": 5,
    "phantom": {"extents": [16, 32, 32], "n_coils": 4, "texture": 0.5},
    "mask": {"extents": [32, 32], "r1": 2, "r2": 2, "shift": 1,
             "acs": [16, 16]},
    "espirit": {"kernel_size": 5},
    "train": {"iterations": 10, "widths": [8, 8, 8, 8]},
}))
ph = make_phantom(phantom_spec(cfg))
ksp = CTensor(ph["kspace"].data[:, 0], ("coil", "kx", "ky", "kz"))
mask = sampling_mask(cfg)
masked = apply_mask(ksp, mask)
maps = sensitivity_maps(cfg, extract_acs(masked, mask))
images = {m: reconstruct(m, masked, mask, maps, train_config(cfg),
                         lam=cfg["recon"]["lam"],
                         acs_kx=cfg["recon"]["acs_kx"])[1].data
          for m in BENCH_METHODS}
np.savez(sys.argv[1], **images)
"""


def _images(threads: int, out: Path) -> dict:
    src = str(Path(rakikit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src,
           "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads)}
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(out)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    with np.load(out) as f:
        return dict(f)


def test_methods_agree_across_blas_thread_settings(tmp_path):
    one = _images(1, tmp_path / "one.npz")
    two = _images(2, tmp_path / "two.npz")
    assert set(one) == set(two) == set(BENCH_METHODS)
    for method, img in one.items():
        assert np.isfinite(img).all()
        rel = np.linalg.norm(two[method] - img) / np.linalg.norm(img)
        assert rel <= REL_TOL, f"{method}: relative difference {rel:.2e}"
