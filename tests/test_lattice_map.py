"""One lattice map: predictions and targets go through ``lattice_cells``.

The learned models once converted between the acquired frame and a
rectangular ("desheared") frame in two more ways: predictions by a
strided fill of the rectangular grid plus an inverse gather, targets by
a walk over every (echo, cell offset) pair of anchors. Both are kept
here as references, and ``_scatter_echo`` and ``build_targets`` are
compared with them bit for bit (``np.array_equal``) over uniform CAIPI,
elliptical, multi-echo and ky-t patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rakikit import (
    CTensor,
    GeometryError,
    ReconProblem,
    TrainConfig,
    apply_mask,
    build_targets,
    centered_acs_box,
    echo_shifted_masks,
    make_elliptical_mask,
    make_kyt_mask,
    make_uniform_mask,
)
from rakikit.espirit import SensitivityMaps
from rakikit.nn_engine import receptive_field
from rakikit.recon_models import (_acs_scale, _combo_targets_per_echo,
                                  _complex_to_channels, _decimated_input,
                                  _scatter_echo, _to_internal)
from rakikit.sampling import acquired_coords, cell_offsets, steps

CFG = TrainConfig(iterations=1, widths=(4,),
                  kernel_sizes=((3, 3, 3), (1, 1, 1)), seed=0)
N_COILS, NX = 3, 5


# ---------------------------------------------------------------------------
# the frame conversions the one map replaced


def shear_gather(data, mask, inverse=False):
    """[n1, n2, ...] gathered through the wrapped map: acquired -> rectangular
    frame, or back with ``inverse``."""
    n1, n2 = mask.extents
    b1, b2 = acquired_coords(mask, *np.ogrid[:n1, :n2], inverse=inverse)
    return data[b1 % n1, b2 % n2]


def scatter_reference(pred, mask):
    """Strided fill of the rectangular grid, then the inverse gather."""
    s1, s2 = steps(mask)
    n1, n2 = mask.extents
    out = np.zeros((n1, n2, pred.shape[-1]), dtype=np.complex128)
    for k, (a, b) in enumerate(cell_offsets(mask)):
        out[a::s1, b::s2, :] = pred[k]
    out = shear_gather(out, mask, inverse=True)
    out[mask.never_acquired] = 0.0
    return out


def target_sets_reference(problem, coils):
    """(inputs, targets, valid) per target set, from a per-(echo, offset)
    walk over the anchors mapped to the acquired frame."""
    mask0 = problem.masks[0]
    s1, s2 = steps(mask0)
    offsets = cell_offsets(mask0)
    ne = problem.n_echoes
    dec = _decimated_input(problem)
    nu, nv, nx = dec.shape[1:]
    mg = 1 if coils is None else 0
    scale = _acs_scale(problem)
    (b1, l1), (b2, l2) = mask0.acs_box
    uu, vv = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    n_off = len(offsets)
    val = np.zeros((ne, n_off, nu, nv), dtype=bool)
    sources = {}
    for e, mask in enumerate(problem.masks):
        for k, (a, b) in enumerate(offsets):
            i_a, j_a = acquired_coords(mask, uu * s1 + a, vv * s2 + b)
            i_a, j_a = i_a % mask.extents[0], j_a % mask.extents[1]
            ok = (
                (i_a >= b1 + mg) & (i_a < b1 + l1 - mg)
                & (j_a >= b2 + mg) & (j_a < b2 + l2 - mg)
                & ~mask.never_acquired[i_a, j_a]
            )
            val[e, k] = ok
            sources[e, k] = i_a[ok], j_a[ok]

    any_valid = val.any(axis=(0, 1))
    if not any_valid.any():
        raise GeometryError("no ACS-covered anchor positions for training")
    urange = np.flatnonzero(any_valid.any(axis=1)).tolist()
    vrange = np.flatnonzero(any_valid.any(axis=0)).tolist()
    rf = receptive_field(problem.cfg.kernel_sizes)
    c1, c2, cx = ((r - 1) // 2 for r in rf)
    u0 = max(0, urange[0] - c1)
    u1 = min(nu, urange[-1] + 1 + (rf[0] - 1 - c1))
    v0 = max(0, vrange[0] - c2)
    v1 = min(nv, vrange[-1] + 1 + (rf[1] - 1 - c2))
    ou = (u1 - u0) - rf[0] + 1
    ov = (v1 - v0) - rf[1] + 1
    ox = nx - rf[2] + 1
    if ou < 1 or ov < 1 or ox < 1:
        raise GeometryError("ACS anchor region smaller than the receptive field")
    au, av = u0 + c1, v0 + c2

    inputs = _complex_to_channels(dec[:, u0:u1, v0:v1, :] * scale)
    val_c = val[:, :, au : au + ou, av : av + ov]
    valid_k = np.broadcast_to(
        val_c.reshape(ne * n_off, ou, ov, 1), (ne * n_off, ou, ov, ox)
    )
    valid = np.empty((2 * ne * n_off, ou, ov, ox), dtype=bool)
    valid[0::2] = valid_k
    valid[1::2] = valid_k
    if not valid.any():
        raise GeometryError("receptive-field cropping removed every target")

    if coils is None:
        per_target = [_combo_targets_per_echo(problem)]
    else:
        arr = _to_internal(problem.kspace_masked, mask0)
        per_target = [[arr[c]] for c in coils]
    out = []
    for combos in per_target:
        tgt = np.zeros((ne, n_off, nu, nv, nx), dtype=np.complex128)
        for (e, k), (i_a, j_a) in sources.items():
            tgt[e, k][val[e, k]] = combos[min(e, len(combos) - 1)][i_a, j_a, :]
        tgt_c = tgt[:, :, au : au + ou, av : av + ov, cx : cx + ox] * scale
        out.append((inputs, _complex_to_channels(
            tgt_c.reshape(ne * n_off, ou, ov, ox)), valid))
    return out


# ---------------------------------------------------------------------------
# drawn patterns


@st.composite
def patterns(draw):
    """Masks of one drawn pattern: kind, R1, R2, shift, ellipse, echoes."""
    kind = draw(st.sampled_from(["lattice", "kyt"]))
    r1 = draw(st.integers(min_value=1, max_value=3))
    r2 = 1 if kind == "kyt" else draw(st.integers(min_value=1, max_value=3))
    n1 = r1 * draw(st.integers(min_value=5, max_value=8))
    n2 = r2 * draw(st.integers(min_value=5, max_value=8))
    box = centered_acs_box((n1, n2), (n1 - 2, n2 - 2))
    if kind == "kyt":
        base = make_kyt_mask(n1, n2, r1, shift=draw(st.integers(0, 3)),
                             acs_box=box)
    else:
        maker = (make_elliptical_mask if draw(st.booleans())
                 else make_uniform_mask)
        base = maker((n1, n2), r1, r2, shift=draw(st.integers(0, r2 - 1)),
                     acs_box=box)
    n_echo = draw(st.sampled_from([1, 3]))
    return echo_shifted_masks(base, n_echo)


def problem_of(masks, mode, seed):
    """Masked random k-space [coil, (echo,) kx, p1, p2] with random maps."""
    rng = np.random.default_rng(seed)
    mask0 = masks[0]
    axes = ("coil", "kx", *mask0.axes)
    ne = len(masks)
    k = (rng.standard_normal((N_COILS, ne, NX, *mask0.extents))
         + 1j * rng.standard_normal((N_COILS, ne, NX, *mask0.extents)))
    for e, mask in enumerate(masks):
        k[:, e] = apply_mask(CTensor(k[:, e], axes), mask).data
    x = (CTensor(k[:, 0], axes) if ne == 1
         else CTensor(k, ("coil", "echo", *axes[1:])))
    grid = mask0.extents if mask0.kind == "lattice" else (mask0.extents[0], 1)
    m = (rng.standard_normal((N_COILS, NX, *grid))
         + 1j * rng.standard_normal((N_COILS, NX, *grid)))
    maps = SensitivityMaps(CTensor(m, ("coil", "kx", "ky", "kz")),
                           np.ones((NX, *grid)), 6, 0.01, 0.9)
    return ReconProblem(x, masks, mode, CFG, maps=maps)


def outcome(make):
    """The (inputs, targets, valid) sets, or the GeometryError raised."""
    try:
        return make()
    except GeometryError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# bit for bit


class TestOneMap:
    @given(patterns(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=80, deadline=None)
    def test_scatter_matches_fill_and_gather(self, masks, seed):
        rng = np.random.default_rng(seed)
        s1, s2 = steps(masks[0])
        n1, n2 = masks[0].extents
        shape = (s1 * s2, n1 // s1, n2 // s2, NX)
        for mask in masks:
            pred = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got = _scatter_echo(pred, mask)
            assert got.dtype == np.complex128
            assert np.array_equal(got, scatter_reference(pred, mask))

    @given(patterns(), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=60, deadline=None)
    def test_targets_match_offset_walk(self, masks, seed):
        problem = problem_of(masks, "eraki", seed)
        sets = [(problem, None)]
        if len(masks) == 1:  # per-coil RAKI takes a single echo
            percoil = problem_of(masks, "raki_percoil", seed)
            sets += [(percoil, [c]) for c in range(N_COILS)]
        for p, coils in sets:
            coil = None if coils is None else coils[0]
            ours = outcome(lambda: build_targets(p, coil))
            ref = outcome(lambda: target_sets_reference(p, coils)[0])
            if ref is GeometryError:
                assert ours is GeometryError
                continue
            assert ours is not GeometryError
            for got, want in zip((ours.inputs, ours.targets, ours.valid), ref):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["uniform", "elliptical", "joint", "kyt"])
def test_named_patterns_train_on_targets(kind):
    """The four pattern kinds each reach a training set, so the drawn cases
    above are not all error paths."""
    box = centered_acs_box((12, 12), (8, 8))
    if kind == "kyt":
        masks = (make_kyt_mask(12, 12, 3, shift=1, acs_box=box),)
    elif kind == "elliptical":
        masks = (make_elliptical_mask((12, 12), 2, 2, shift=1, acs_box=box),)
    else:
        base = make_uniform_mask((12, 12), 2, 2, shift=1, acs_box=box)
        masks = echo_shifted_masks(base, 3 if kind == "joint" else 1)
    problem = problem_of(masks, "eraki", 0)
    ts = build_targets(problem)
    _, targets, valid = target_sets_reference(problem, None)[0]
    assert valid.any()
    assert np.array_equal(ts.targets, targets)
    assert np.array_equal(ts.valid, valid)
