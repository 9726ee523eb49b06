"""Axis order: a named tensor reconstructs the same in any axis order.

GRAPPA and the learned models read k-space through one working-order
view (``sampling.internal_view``). Each method is run on the canonical
order and on a permuted one; every output, transposed back, must equal
the canonical run's bit for bit.
"""

import numpy as np
import pytest

from rakikit import (
    ConfigError,
    CTensor,
    ReconProblem,
    TrainConfig,
    apply_mask,
    centered_acs_box,
    default_spec,
    echo_shifted_masks,
    espirit_maps,
    extract_acs,
    grappa_recon,
    infer,
    make_phantom,
    make_uniform_mask,
    train_eraki,
    train_raki,
    zerofill_recon,
)

CFG = TrainConfig(iterations=2, widths=(8, 8, 8, 8),
                  kernel_sizes=((3, 3, 3), (1, 1, 3), (1, 1, 1), (1, 1, 1),
                                (1, 1, 1)), seed=0)
SINGLE = ("kz", "coil", "ky", "kx")
JOINT = ("kz", "echo", "kx", "coil", "ky")


def same(got, want):
    """``got`` transposed to ``want``'s axes equals it bit for bit."""
    assert np.array_equal(got.transpose(want.axes).data, want.data)


def run(method, problem):
    """(k-space, image) of one method on ``problem``."""
    if method == "grappa":
        k = grappa_recon(problem.kspace_masked, problem.masks[0])
        return (k,)
    if method == "zerofill":
        res = zerofill_recon(problem)
    else:
        trainer = train_raki if method == "raki" else train_eraki
        res = infer(trainer(problem)[0], problem)
    return res.kspace, res.image


def permuted(problem, order):
    return ReconProblem(problem.kspace_masked.transpose(order), problem.masks,
                        problem.mode, problem.cfg, maps=problem.maps)


@pytest.fixture(scope="module")
def joint_problem():
    """3 echoes, 4 coils, 8x24x24, R = 2x2 echo-shifted CAIPI."""
    ph = make_phantom(default_spec(extents=(8, 24, 24), n_coils=4,
                                   te_ms=(0.0, 20.0, 40.0), texture=0.5,
                                   seed=0))
    axes = ("coil", "kx", "ky", "kz")
    mask = make_uniform_mask((24, 24), 2, 2, shift=1,
                             acs_box=centered_acs_box((24, 24), (12, 12)))
    masks = echo_shifted_masks(mask, 3)
    masked = np.stack([apply_mask(CTensor(ph["kspace"].data[:, e], axes),
                                  masks[e]).data for e in range(3)], axis=1)
    acs = extract_acs(CTensor(masked[:, 0], axes), mask)
    maps = espirit_maps(acs, kernel_size=5, out_extents=(24, 24))
    return ReconProblem(CTensor(masked, ("coil", "echo", *axes[1:])), masks,
                        "eraki", CFG, maps=maps)


@pytest.mark.parametrize("method", ["zerofill", "grappa", "raki", "eraki"])
def test_single_echo_any_order(small_scene, method):
    mode = "raki_percoil" if method == "raki" else "eraki"
    problem = ReconProblem(small_scene["masked"], (small_scene["mask"],), mode,
                           CFG, maps=small_scene["maps"])
    for got, want in zip(run(method, permuted(problem, SINGLE)),
                         run(method, problem)):
        same(got, want)


@pytest.mark.parametrize("method", ["zerofill", "eraki"])
def test_joint_any_order(joint_problem, method):
    for got, want in zip(run(method, permuted(joint_problem, JOINT)),
                         run(method, joint_problem)):
        same(got, want)


def test_percoil_takes_no_echo_axis(small_scene):
    """Per-coil RAKI works in [coil, kx, p1, p2]: an echo axis, even of
    extent 1, is a ConfigError up front, not an IndexError in ``infer``."""
    k = small_scene["masked"]
    one = CTensor(k.data[:, None], ("coil", "echo", *k.axes[1:]))
    with pytest.raises(ConfigError, match="echo axis"):
        ReconProblem(one, (small_scene["mask"],), "raki_percoil", CFG,
                     maps=small_scene["maps"])
