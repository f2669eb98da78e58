"""Periodized uniform grids, the unitary discrete Fourier transform and
discrete L^2 geometry.

The box [-L, L]^d carries N uniform nodes per axis, x_j = (j - N/2) * h
with h = 2L/N, computed so that x_(N-j) == -x_j bit for bit whatever h
is: the node reflection j -> -j mod N is exactly x -> -x.  Its dual
lattice holds the frequencies xi_k = (pi/L) * k for k in
{-N/2, ..., N/2 - 1}, stored in FFT order so that symbol sampling
always happens at signed coordinates.  The transform pair is normalized
like the continuum transform with the (2*pi)^(-d/2) factor, so it is
unitary between the h^d-weighted position inner product and the
(pi/L)^d-weighted frequency inner product, and sampled exp(-x^2/2) maps
to sampled exp(-xi^2/2) up to grid truncation.

The transform is the FFT of the node values shifted by N/2 per axis
(``ifftshift`` moves the node x = 0 to index 0) times the scale
(h/sqrt(2 pi))^d.  Inside a Fourier multiplier op(m) = inverse * m *
transform the shift and the scales cancel, so operators apply plain
(real, when they can) FFTs; :func:`to_frequency_values` and
:func:`to_position_values` serve where frequency-side values are read
(forms, localization).

A :class:`StateVector` holds node values only: :func:`inner`,
:func:`norm`, :func:`save_states` and operator applies read its values as
samples on the nodes.  Frequency-side values stay plain arrays; their
inner product carries the (pi/L)^d weight in place of h^d.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.fft as sfft

__all__ = [
    "GridError",
    "Grid",
    "StateVector",
    "build_grid",
    "state",
    "random_state",
    "to_frequency_values",
    "to_position_values",
    "inner",
    "norm",
    "write_text_atomic",
    "save_states",
    "load_states",
    "save_state",
    "load_state",
    "DEFAULT_NODE_BUDGET",
]

DEFAULT_NODE_BUDGET = 2**22


class GridError(ValueError):
    """Invalid grid construction or mismatched grids."""


@dataclass(frozen=True)
class Grid:
    dimension: int
    n_per_axis: int
    half_length: float

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n_per_axis

    @property
    def freq_spacing(self) -> float:
        return np.pi / self.half_length

    @property
    def size(self) -> int:
        return self.n_per_axis**self.dimension

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_per_axis,) * self.dimension

    @property
    def max_frequency(self) -> float:
        return np.pi * self.n_per_axis / (2.0 * self.half_length)

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    @property
    def freq_cell_volume(self) -> float:
        return self.freq_spacing**self.dimension

    @cached_property
    def node_axis(self) -> np.ndarray:
        # -L + j*h is exactly odd only for a dyadic h; (j - N/2) is exact.
        return self.spacing * (np.arange(self.n_per_axis) - self.n_per_axis / 2)

    @cached_property
    def freq_axis(self) -> np.ndarray:
        """Signed frequencies (pi/L)*k in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_per_axis, d=self.spacing)

    @cached_property
    def position_points(self) -> np.ndarray:
        """All nodes, shape (N,)*d + (d,)."""
        mesh = np.meshgrid(*([self.node_axis] * self.dimension), indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def frequency_points(self) -> np.ndarray:
        mesh = np.meshgrid(*([self.freq_axis] * self.dimension), indexing="ij")
        return np.stack(mesh, axis=-1)

    @cached_property
    def position_radii(self) -> np.ndarray:
        return np.sqrt(np.sum(np.square(self.position_points), axis=-1))

    @cached_property
    def frequency_radii(self) -> np.ndarray:
        return np.sqrt(np.sum(np.square(self.frequency_points), axis=-1))

    def describe(self) -> str:
        return (
            f"d={self.dimension} N={self.n_per_axis} L={self.half_length:g} "
            f"h={self.spacing:g} xi_max={self.max_frequency:g}"
        )


def build_grid(d: int, N: int, L: float) -> Grid:
    """Construct a periodized grid; N must be even and at least 8, and
    N^d at most ``DEFAULT_NODE_BUDGET``."""
    if d < 1:
        raise GridError("dimension must be a positive integer")
    if N % 2 != 0:
        raise GridError(f"n_per_axis must be even, got {N}")
    if N < 8:
        raise GridError(f"n_per_axis must be at least 8, got {N}")
    if not 0 < L < np.inf:
        raise GridError(f"half_length must be positive and finite, got {L}")
    # N >= 8, so N**d exceeds the budget once d exceeds its bit length:
    # reject such d before taking a power that can be arbitrarily large.
    if d > DEFAULT_NODE_BUDGET.bit_length() or N**d > DEFAULT_NODE_BUDGET:
        raise GridError(
            f"grid with {N}^{d} nodes exceeds the node budget {DEFAULT_NODE_BUDGET}"
        )
    return Grid(dimension=d, n_per_axis=N, half_length=float(L))


@dataclass
class StateVector:
    """Grid function with discrete L^2 geometry: values on the nodes,
    never on the frequency lattice.  Values are complex128, or float64
    for eigenvectors of real operators; dumps store both as (re, im)
    pairs."""

    grid: Grid
    values: np.ndarray


def state(grid: Grid, values: np.ndarray) -> StateVector:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != grid.shape:
        raise GridError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
    return StateVector(grid, arr)


def random_state(grid: Grid, rng: np.random.Generator) -> StateVector:
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return StateVector(grid, vals)


def _check_same_grid(u: StateVector, v: StateVector) -> None:
    if u.grid != v.grid:
        raise GridError("state vectors live on different grids")


def inner(u: StateVector, v: StateVector) -> complex:
    """h^d-weighted inner product, conjugate-linear in the second slot."""
    _check_same_grid(u, v)
    return complex(u.grid.cell_volume * np.vdot(v.values, u.values))


def norm(u: StateVector) -> float:
    return float(np.sqrt(u.grid.cell_volume) * np.linalg.norm(u.values.ravel()))


def to_frequency_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Unitary transform of node values to the frequency lattice (FFT order)."""
    scale = (grid.spacing / np.sqrt(2.0 * np.pi)) ** grid.dimension
    return scale * sfft.fftn(sfft.ifftshift(values))


def to_position_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_frequency_values`."""
    scale = (np.sqrt(2.0 * np.pi) / grid.spacing) ** grid.dimension
    return scale * sfft.fftshift(sfft.ifftn(values))


# ---------------------------------------------------------------------------
# Files.  Every file specgap writes goes through write_text_atomic.  State
# dumps: magic "SGV1", then little-endian int64 d, int64 N, float64 L, then
# m >= 1 states one after another, each N^d little-endian complex128 values
# (re, im float64 pairs) in C order.  One state is the case m = 1.
# ---------------------------------------------------------------------------

_MAGIC = b"SGV1"
_HEADER = struct.Struct("<qqd")


def write_text_atomic(path, data: str | bytes) -> None:
    """Put ``data`` (text is written as UTF-8) at ``path`` through a temp
    file and ``os.replace``, so a reader finds the old file or the new one,
    never part of one.  A path that already holds exactly these bytes is
    left alone: on some file systems replacing a file costs tens of
    milliseconds, whatever its size, while reading it back costs almost
    nothing."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        if path.stat().st_size == len(data) and path.read_bytes() == data:
            return
    except OSError:
        pass  # no readable file there: write one
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_states(states, path) -> None:
    """Write one or more states of one grid as a single dump, in order."""
    states = list(states)
    if not states:
        raise GridError("a state dump holds at least one state")
    grid = states[0].grid
    for u in states[1:]:
        _check_same_grid(states[0], u)
    chunks = [_MAGIC + _HEADER.pack(grid.dimension, grid.n_per_axis, grid.half_length)]
    chunks += [u.values.astype("<c16").tobytes() for u in states]
    write_text_atomic(path, b"".join(chunks))


def save_state(u: StateVector, path) -> None:
    save_states([u], path)


def load_states(path) -> list[StateVector]:
    """The states of a dump written by :func:`save_states`, in order."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise GridError(f"not a state dump (bad magic {magic!r})")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise GridError("state dump header is truncated")
        d, n, L = _HEADER.unpack(header)
        payload = fh.read()
    count, rest = divmod(len(payload), 16)
    # A valid N is at least 8, so N^d > 2^d: no valid header with d outside
    # 1..count.bit_length() matches the payload.
    if rest or not 1 <= d <= count.bit_length():
        raise GridError("state dump payload does not match the header")
    grid = build_grid(d, n, L)
    m, extra = divmod(count, grid.size)
    if extra or not m:
        raise GridError(
            f"state dump payload of {count} values is not a whole number of "
            f"{grid.size}-value states"
        )
    # frombuffer views the read-only bytes; each copy is the caller's to write.
    values = np.frombuffer(payload, "<c16").reshape((m,) + grid.shape)
    return [StateVector(grid, v.copy()) for v in values]


def load_state(path) -> StateVector:
    """The state of a dump that holds exactly one."""
    states = load_states(path)
    if len(states) != 1:
        raise GridError(f"state dump holds {len(states)} states, not one")
    return states[0]
