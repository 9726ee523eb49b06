"""Complex tensor container, centered FFTs, metrics, bundle I/O, and the
process's thread counts (CPUs, and numpy's OpenBLAS, read and switched).

Every array that crosses a module boundary travels as a :class:`CTensor`:
a complex128 ndarray plus named axes. The centered FFT convention puts DC
at index ``floor(N/2)`` on every transformed axis, as ``ifftshift`` before
the transform and ``fftshift`` after it would. No shifted copy is made:
by the shift theorem the shifts are phase ramps, so the input times the
ramp is the output buffer, transformed in place, threaded over the
available cores, and multiplied by the ramp once more, times a constant
phase. With every transformed extent even the ramp is a real ±1
checkerboard. Besides the output only the ramp, over the transformed
axes, is held. Each line's arithmetic is the same whatever the thread
count or the other axes, so a volume transformed one coil at a time
equals the whole-array transform bit for bit. Center crops put the extra
sample on the low-index side when parities mismatch.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft

from .errors import (
    BundleError,
    ByteOrderError,
    GeometryError,
    PayloadLengthError,
    UnknownDtypeError,
)

AXIS_LABELS = ("coil", "echo", "kx", "ky", "kz", "t", "maps")

_BUNDLE_DTYPE = "complex128"


@dataclass(frozen=True)
class CTensor:
    """N-dimensional complex tensor with named axes.

    Parameters
    ----------
    data : ndarray
        Complex values; coerced to complex128, row-major.
    axes : tuple of str
        One label per dimension, unique, drawn from ``AXIS_LABELS``.
    """

    data: np.ndarray
    axes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.complex128))
        object.__setattr__(self, "data", arr)
        axes = tuple(self.axes)
        object.__setattr__(self, "axes", axes)
        if len(axes) != arr.ndim:
            raise GeometryError(
                f"axes {axes} do not match data with {arr.ndim} dimensions"
            )
        if len(set(axes)) != len(axes):
            raise GeometryError(f"duplicate axis labels in {axes}")
        for label in axes:
            if label not in AXIS_LABELS:
                raise GeometryError(f"unknown axis label {label!r}")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def axis(self, label: str) -> int:
        """Index of the named axis; raises GeometryError if absent."""
        try:
            return self.axes.index(label)
        except ValueError:
            raise GeometryError(
                f"axis '{label}' not present in tensor with axes {self.axes}"
            ) from None

    def extent(self, label: str) -> int:
        return self.data.shape[self.axis(label)]

    def has_axis(self, label: str) -> bool:
        return label in self.axes

    def transpose(self, order: tuple[str, ...]) -> "CTensor":
        if sorted(order) != sorted(self.axes):
            raise GeometryError(f"axis order {tuple(order)} is not a "
                                f"permutation of {self.axes}")
        idx = tuple(self.axis(a) for a in order)
        return CTensor(np.transpose(self.data, idx), order)

    def with_data(self, data: np.ndarray) -> "CTensor":
        return CTensor(data, self.axes)


def _resolve_axes(x: CTensor, axes) -> tuple[int, ...]:
    if isinstance(axes, str):
        axes = (axes,)
    return tuple(x.axis(a) for a in axes)


def thread_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_thread_env() -> dict:
    """The BLAS thread-count variables of the environment, None when unset."""
    return {k: os.environ.get(k) for k in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@functools.cache
def _openblas():
    """The thread-count getter and setter of the OpenBLAS that numpy's wheel
    bundles in ``numpy.libs``, or None when there is none."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def blas_library_threads() -> int | None:
    """The thread count numpy's OpenBLAS uses now, None when it is not found."""
    calls = _openblas()
    return None if calls is None else int(calls[0]())


class _OneBlasThread:
    """OpenBLAS at one thread while any holder is inside. The count is
    process-global, so nested and concurrent holders share one depth count
    under a lock: the first entry saves the count, the last exit restores
    it."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 1

    @contextmanager
    def held(self, calls):
        get, put = calls
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                put(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    put(self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


@contextmanager
def task_threads():
    """Yield how many threads may run BLAS-bound tasks at once.

    That is ``thread_count()``, with numpy's OpenBLAS at one thread until
    the block exits, so that the threads do not oversubscribe the cores and
    no product's summation order depends on the BLAS thread count. Where
    ``thread_count()`` is 1 or OpenBLAS's thread calls are not found, it is
    1 and BLAS is left as it is.
    """
    threads, calls = thread_count(), _openblas()
    if threads == 1 or calls is None:
        yield 1
        return
    with _ONE_BLAS_THREAD.held(calls):
        yield threads


def _ramp(shape: tuple[int, ...], axes: tuple[int, ...], sign: int):
    """Phase ramp of the centred transform over ``axes``, and its constant.

    Along an axis of n samples with s = n // 2, the centred DFT of x is
    exp(-sign·2πi s²/n)·r(f) times the plain DFT of r(k)·x(k), where
    r(k) = exp(sign·2πi s k/n) and sign is +1 forward, -1 inverse. The
    ramp is the product of the axes' r, broadcast over the others; the
    constant is the product of their exp(-sign·2πi s²/n). For an even n
    both are exactly ±1, so with every extent even the ramp is real.
    """
    ramp, const = np.ones([1] * len(shape)), 1.0
    for a in sorted(d % len(shape) for d in axes):
        n, s = shape[a], shape[a] // 2
        k = np.arange(n).reshape([n if i == a else 1 for i in range(len(shape))])
        if n % 2 == 0:
            ramp = ramp * (1.0 - 2.0 * (k % 2))
            const *= -1.0 if s % 2 else 1.0
        else:
            ramp = ramp * np.exp(sign * 2j * np.pi * (s * k % n) / n)
            const *= np.exp(-sign * 2j * np.pi * (s * s % n) / n)
    return ramp, const


def _centred(data: np.ndarray, axes: tuple[int, ...], forward: bool) -> np.ndarray:
    """The orthonormal transform with DC at the centre, by the shift theorem.

    The input times the ramp is the one fresh buffer; the transform
    overwrites it, and the ramp times the constant is applied in place.
    Besides the output only the ramp, over the transformed axes, is held.
    """
    transform, sign = (scipy.fft.fftn, 1) if forward else (scipy.fft.ifftn, -1)
    ramp, const = _ramp(data.shape, axes, sign)
    out = transform(np.multiply(data, ramp), axes=axes, norm="ortho",
                    overwrite_x=True, workers=thread_count())
    ramp *= const
    out *= ramp
    return out


def fftc(x: CTensor, axes) -> CTensor:
    """Centered orthonormal forward DFT along the named axes."""
    return x.with_data(_centred(x.data, _resolve_axes(x, axes), True))


def ifftc(x: CTensor, axes) -> CTensor:
    """Centered orthonormal inverse DFT along the named axes."""
    return x.with_data(_centred(x.data, _resolve_axes(x, axes), False))


def fftc_nd(data: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Centered orthonormal DFT on a raw ndarray."""
    return _centred(data, axes, True)


def ifftc_nd(data: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    return _centred(data, axes, False)


def center_slices(full: int, target: int) -> slice:
    """Slice selecting the centered ``target`` samples out of ``full``.

    For mismatched parity the extra retained sample sits on the low-index
    side; the DC index ``full//2`` always maps to ``target//2``.
    """
    start = full // 2 - target // 2
    return slice(start, start + target)


def crop_center(x: CTensor, extents: dict[str, int]) -> CTensor:
    """Crop the named axes to the given extents around the center."""
    sl = [slice(None)] * x.data.ndim
    for label, n in extents.items():
        cur = x.extent(label)
        if n > cur:
            raise GeometryError(
                f"cannot crop axis '{label}' from {cur} to larger extent {n}"
            )
        if n < 1:
            raise GeometryError(f"crop extent for '{label}' must be positive, got {n}")
        sl[x.axis(label)] = center_slices(cur, n)
    return x.with_data(x.data[tuple(sl)].copy())


def _magnitudes(x: CTensor | np.ndarray, ref: CTensor | np.ndarray):
    xd = x.data if isinstance(x, CTensor) else np.asarray(x)
    rd = ref.data if isinstance(ref, CTensor) else np.asarray(ref)
    if xd.shape != rd.shape:
        raise GeometryError(f"shape mismatch {xd.shape} vs {rd.shape}")
    return np.abs(xd), np.abs(rd)


def nrmse(x: CTensor | np.ndarray, ref: CTensor | np.ndarray) -> float:
    """Normalized RMS error of magnitudes, ||x - ref|| / ||ref||."""
    xm, rm = _magnitudes(x, ref)
    denom = np.linalg.norm(rm)
    if denom == 0:
        raise GeometryError("reference has zero norm")
    return float(np.linalg.norm(xm - rm) / denom)


def psnr(x: CTensor | np.ndarray, ref: CTensor | np.ndarray) -> float:
    """Peak SNR in dB, peak taken as max |ref|."""
    xm, rm = _magnitudes(x, ref)
    peak = rm.max()
    if peak == 0:
        raise GeometryError("reference has zero norm")
    mse = np.mean((xm - rm) ** 2)
    if mse == 0:
        return float("inf")
    return float(20.0 * np.log10(peak) - 10.0 * np.log10(mse))


def save_bundle(x: CTensor, path: str | Path, meta: dict | None = None) -> None:
    """Write ``<path>.json`` + ``<path>.bin`` (interleaved re/im f64 LE)."""
    path = Path(path)
    header = {
        "dtype": _BUNDLE_DTYPE,
        "shape": list(x.shape),
        "axes": list(x.axes),
        "byte_order": "little",
        "meta": meta or {},
    }
    path.with_suffix(".json").write_text(json.dumps(header, indent=2, sort_keys=True))
    path.with_suffix(".bin").write_bytes(x.data.astype("<c16").tobytes())


_HEADER_KEYS = ("dtype", "byte_order", "shape", "axes")


def _read_header(path: Path) -> dict:
    """The parsed ``<path>.json`` header; BundleError if malformed."""
    path = path.with_suffix(".json")
    try:
        header = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BundleError(f"bundle header {path} is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise BundleError(f"bundle header {path} is not a JSON object")
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise BundleError(f"bundle header {path} lacks {', '.join(missing)}")
    shape, axes = header["shape"], header["axes"]
    if not (isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)):
        raise BundleError(f"bundle header {path} shape {shape!r} is not a "
                          "list of integers >= 0")
    if not (isinstance(axes, list) and len(axes) == len(shape)
            and all(isinstance(a, str) for a in axes)):
        raise BundleError(f"bundle header {path} axes {axes!r} are not "
                          f"{len(shape)} strings, one per extent")
    if not isinstance(header.get("meta", {}), dict):
        raise BundleError(f"bundle header {path} meta is not a JSON object")
    return header


def load_bundle(path: str | Path) -> CTensor:
    """Read a tensor bundle; validates header, dtype, byte order, payload length."""
    path = Path(path)
    header = _read_header(path)
    if header["dtype"] != _BUNDLE_DTYPE:
        raise UnknownDtypeError(f"unsupported dtype {header['dtype']!r}")
    if header["byte_order"] != "little":
        raise ByteOrderError(f"unsupported byte order {header['byte_order']!r}")
    shape = tuple(header["shape"])
    payload = path.with_suffix(".bin").read_bytes()
    expected = 16 * math.prod(shape)
    if len(payload) != expected:
        raise PayloadLengthError(
            f"payload is {len(payload)} bytes, header shape {shape} needs {expected}"
        )
    data = np.frombuffer(payload, dtype="<c16").reshape(shape).astype(np.complex128)
    return CTensor(data, tuple(header["axes"]))


def bundle_meta(path: str | Path) -> dict:
    """The free-form meta map from a bundle header."""
    return _read_header(Path(path)).get("meta", {})
