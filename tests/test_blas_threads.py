"""Outputs across BLAS thread settings, and the BLAS switch of ESPIRiT.

BLAS reductions (the ridge solves, the training GEMMs, GRAPPA's products)
sum in an order that depends on the thread count, and the pool size is
fixed when numpy is imported. So a fixed seed gives bit-identical outputs
only at a fixed thread setting; across settings the images agree to
``REL_TOL``. Each setting runs in its own interpreter.

ESPIRiT's maps are the exception: ``espirit_maps`` runs its readouts on
``thread_count()`` threads with numpy's OpenBLAS held at one thread, so
its maps are bit-identical across thread settings, and equal to its serial
path at one BLAS thread. The count it switches is process-global; it is
restored after a call, after a failed one and after concurrent ones.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import rakikit
from rakikit import espirit, tensors
from rakikit.bench import BENCH_METHODS
from rakikit.espirit import espirit_maps

from conftest import compact_scene

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


# the maps of an 8-coil scene (16x48x48, 24x24 ACS, k = 6: the primal row
# space, as on c04), pooled and then by the serial path, which a missing
# OpenBLAS thread call selects; saved to the .npz named by argv[1]
MAPS_SCRIPT = """
import sys
import numpy as np
from rakikit import tensors
from rakikit.config import (DEFAULTS, checked, merge, phantom_spec,
                            sampling_mask, sensitivity_maps)
from rakikit.phantom import make_phantom
from rakikit.sampling import apply_mask, extract_acs
from rakikit.tensors import CTensor

cfg = checked(merge(DEFAULTS, {
    "seed": 5,
    "phantom": {"extents": [16, 48, 48], "n_coils": 8, "texture": 1.0},
    "mask": {"extents": [48, 48], "r1": 2, "r2": 2, "shift": 1,
             "acs": [24, 24]},
    "espirit": {"kernel_size": 6},
}))
ph = make_phantom(phantom_spec(cfg))
ksp = CTensor(ph["kspace"].data[:, 0], ("coil", "kx", "ky", "kz"))
mask = sampling_mask(cfg)
acs = extract_acs(apply_mask(ksp, mask), mask)
pooled = sensitivity_maps(cfg, acs)
tensors._openblas = lambda: None
serial = sensitivity_maps(cfg, acs)
np.savez(sys.argv[1], pooled=pooled.maps.data, pooled_eigval=pooled.eigval,
         serial=serial.maps.data, serial_eigval=serial.eigval)
"""


def _images(threads: int, out: Path, script: str = SCRIPT) -> dict:
    src = str(Path(rakikit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src,
           "OPENBLAS_NUM_THREADS": str(threads),
           "OMP_NUM_THREADS": str(threads)}
    run = subprocess.run([sys.executable, "-c", script, str(out)],
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


@pytest.fixture(scope="module")
def maps_by_setting(tmp_path_factory):
    out = tmp_path_factory.mktemp("maps")
    return {threads: _images(threads, out / f"{threads}.npz", MAPS_SCRIPT)
            for threads in (1, 2)}


def test_maps_bit_identical_across_blas_thread_settings(maps_by_setting):
    one, two = maps_by_setting[1], maps_by_setting[2]
    assert np.abs(one["pooled"]).max() > 0
    assert np.array_equal(one["pooled"], two["pooled"])
    assert np.array_equal(one["pooled_eigval"], two["pooled_eigval"])


def test_pooled_maps_equal_the_serial_path_at_one_blas_thread(maps_by_setting):
    one = maps_by_setting[1]
    assert np.array_equal(one["pooled"], one["serial"])
    assert np.array_equal(one["pooled_eigval"], one["serial_eigval"])


@pytest.fixture(scope="module")
def acs():
    ksp, _ = compact_scene((6, 24, 24), 4, (4, 12, 12))
    return ksp.with_data(ksp.data[:, :, 4:20, 4:20])  # a 16x16 ACS


@pytest.fixture
def blas_at_three(monkeypatch):
    """OpenBLAS at three threads, a count that the switch's one cannot be
    taken for, and two threads for the readouts, on any number of cores;
    yields the getter."""
    calls = tensors._openblas()
    if calls is None:
        pytest.skip("numpy's OpenBLAS thread calls are not found")
    get, put = calls
    before = get()
    put(3)
    monkeypatch.setattr(tensors, "thread_count", lambda: 2)
    try:
        yield get
    finally:
        put(before)


def test_switch_restores_the_count(blas_at_three, acs, monkeypatch):
    get, inside = blas_at_three, []
    eigenpairs = espirit._leading_eigenpairs

    def record(*args):
        inside.append(get())
        return eigenpairs(*args)

    monkeypatch.setattr(espirit, "_leading_eigenpairs", record)
    espirit_maps(acs, kernel_size=5)
    assert inside and set(inside) == {1}
    assert get() == 3


def test_switch_restores_the_count_after_a_failure(blas_at_three, acs,
                                                   monkeypatch):
    def fail(*args):
        raise RuntimeError("a task failed")

    monkeypatch.setattr(espirit, "_leading_eigenpairs", fail)
    with pytest.raises(RuntimeError, match="a task failed"):
        espirit_maps(acs, kernel_size=5)
    assert blas_at_three() == 3


def test_switch_restores_the_count_after_concurrent_calls(blas_at_three, acs,
                                                          monkeypatch):
    """The first call enters, the second enters, the first returns and then
    the second: the second saw the count at one, so only a shared depth
    count restores three. In between, BLAS stays at one thread."""
    get = blas_at_three
    ref = espirit_maps(acs, kernel_size=5)
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    shared_map = espirit._shared_map

    def ordered(fn, items, threads):
        if threading.current_thread().name == "first":
            first_in.set()
            assert second_in.wait(60)
        else:
            second_in.set()
            assert first_out.wait(60)
        return shared_map(fn, items, threads)

    monkeypatch.setattr(espirit, "_shared_map", ordered)
    maps, errors, between = {}, [], []

    def call(name):
        try:
            if name == "second":
                assert first_in.wait(60)
            maps[name] = espirit_maps(acs, kernel_size=5)
            if name == "first":
                between.append(get())
        except BaseException as exc:
            errors.append(exc)
        finally:
            first_out.set()

    threads = [threading.Thread(target=call, args=(name,), name=name)
               for name in ("first", "second")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert between == [1]
    assert get() == 3
    for m in maps.values():
        assert np.array_equal(m.maps.data, ref.maps.data)
