"""Point cloud containers, PLY I/O, and synthetic degradations.

Clouds are held as float64 arrays: positions in arbitrary consistent length
units, colors on the 8-bit [0, 255] scale. PLY support covers the common
vertex layout (x/y/z coordinates plus red/green/blue channels) in ASCII or
binary little-endian form; big-endian payloads are rejected rather than
converted so corrupted headers cannot slip through silently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

import numpy as np

__all__ = [
    "PointCloud",
    "DegradationSpec",
    "PlyError",
    "load_ply",
    "save_ply",
    "degrade",
]

_PLY_DTYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

_COORD_PROPS = ("x", "y", "z")
_COLOR_PROPS = ("red", "green", "blue")

DEGRADATION_KINDS = ("geometry_gaussian", "color_noise", "downsample")


class PlyError(ValueError):
    """A PLY file does not match the supported vertex schema."""


@dataclass
class PointCloud:
    """Ordered point set with per-point color attributes."""

    positions: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float64)
        self.colors = np.ascontiguousarray(self.colors, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {self.positions.shape}")
        if self.colors.shape != self.positions.shape:
            raise ValueError(
                f"colors shape {self.colors.shape} does not match positions {self.positions.shape}"
            )

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    def validate(self) -> None:
        """Raise ValueError if the cloud cannot enter the metric pipeline."""
        if self.count < 1:
            raise ValueError("point cloud is empty")
        if not np.isfinite(self.positions).all():
            bad = int(np.flatnonzero(~np.isfinite(self.positions).all(axis=1))[0])
            raise ValueError(f"non-finite coordinate at point {bad}")
        # written so that a NaN, which propagates through min/max and fails
        # every comparison, also lands in the error branch
        if not (self.colors.min(initial=0.0) >= 0.0 and self.colors.max(initial=0.0) <= 255.0):
            in_range = (self.colors >= 0.0) & (self.colors <= 255.0)
            bad = int(np.flatnonzero(~in_range.all(axis=1))[0])
            if np.isnan(self.colors[bad]).any():
                raise ValueError(f"non-finite color at point {bad}")
            raise ValueError(f"color outside [0, 255] at point {bad}")


@dataclass(frozen=True)
class DegradationSpec:
    """Synthetic degradation request.

    ``level`` is the noise sigma for geometry_gaussian (length units) and
    color_noise (channel units), or the keep-fraction in (0, 1] for
    downsample. Results are a pure function of (cloud, spec): sampling uses
    the PCG64 generator seeded with ``rng_seed``.
    """

    kind: str
    level: float
    rng_seed: int = 0

    def __post_init__(self):
        if self.kind not in DEGRADATION_KINDS:
            raise ValueError(f"unknown degradation kind {self.kind!r}")
        if self.kind == "downsample":
            if not (0.0 < self.level <= 1.0):
                raise ValueError(f"downsample keep-fraction must be in (0, 1], got {self.level}")
        elif self.level < 0.0:
            raise ValueError(f"noise sigma must be nonnegative, got {self.level}")


def _parse_header(fh, path):
    """Read the PLY header, returning (format, elements) metadata."""
    magic = fh.readline()
    if magic.strip() != b"ply":
        raise PlyError(f"{path}: not a PLY file (missing 'ply' magic line)")
    fmt = None
    elements = []  # (name, count, [(prop_name, prop_type)])
    line_no = 1
    while True:
        raw = fh.readline()
        line_no += 1
        if not raw:
            raise PlyError(f"{path}: header ended before end_header (line {line_no})")
        tokens = raw.decode("ascii", errors="replace").split()
        if not tokens or tokens[0] == "comment" or tokens[0] == "obj_info":
            continue
        if tokens[0] == "format":
            if len(tokens) < 2:
                raise PlyError(f"{path}: malformed format line (line {line_no})")
            if tokens[1] == "ascii":
                fmt = "ascii"
            elif tokens[1] == "binary_little_endian":
                fmt = "binary_le"
            elif tokens[1] == "binary_big_endian":
                raise PlyError(f"{path}: big-endian PLY payloads are not supported")
            else:
                raise PlyError(f"{path}: unknown PLY format {tokens[1]!r} (line {line_no})")
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise PlyError(f"{path}: malformed element line (line {line_no})")
            try:
                if (count := int(tokens[2])) < 0:
                    raise ValueError
            except ValueError:
                raise PlyError(f"{path}: bad element count {tokens[2]!r} (line {line_no})") from None
            elements.append((tokens[1], count, []))
        elif tokens[0] == "property":
            if not elements:
                raise PlyError(f"{path}: property before any element (line {line_no})")
            listed = tokens[1:2] == ["list"]
            if (len(tokens) < 5) if listed else (len(tokens) != 3):
                raise PlyError(f"{path}: malformed property line (line {line_no})")
            elements[-1][2].append((tokens[-1], "list" if listed else tokens[1]))
        elif tokens[0] == "end_header":
            break
        else:
            raise PlyError(f"{path}: unexpected header keyword {tokens[0]!r} (line {line_no})")
    if fmt is None:
        raise PlyError(f"{path}: header declares no format")
    return fmt, elements


def _vertex_layout(path, props):
    """Validate vertex properties, returning (numpy dtype, coord names ok)."""
    names = [p[0] for p in props]
    twice = next((n for i, n in enumerate(names) if n in names[:i]), None)
    if twice is not None:
        raise PlyError(f"{path}: vertex property {twice!r} is declared more than once")
    for req in _COORD_PROPS:
        if req not in names:
            raise PlyError(f"{path}: missing coordinate property {req!r}")
    for req in _COLOR_PROPS:
        if req not in names:
            raise PlyError(f"{path}: missing color property {req!r}")
    fields = []
    for name, typ in props:
        if typ == "list":
            raise PlyError(f"{path}: list property {name!r} in vertex element is not supported")
        if typ not in _PLY_DTYPES:
            raise PlyError(f"{path}: unknown property type {typ!r} for {name!r}")
        if name in _COORD_PROPS and _PLY_DTYPES[typ] not in ("f4", "f8"):
            raise PlyError(f"{path}: coordinate {name!r} must be float or double, got {typ!r}")
        if name in _COLOR_PROPS and _PLY_DTYPES[typ] != "u1":
            raise PlyError(f"{path}: color {name!r} must be uchar, got {typ!r}")
        fields.append((name, "<" + _PLY_DTYPES[typ]))
    return np.dtype(fields)


def load_ply(path) -> PointCloud:
    """Load a vertex cloud from an ASCII or binary little-endian PLY file."""
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such PLY file: {path}")
    with open(path, "rb") as fh:
        fmt, elements = _parse_header(fh, path)
        vertex = next((e for e in elements if e[0] == "vertex"), None)
        if vertex is None:
            raise PlyError(f"{path}: no vertex element declared")
        # Elements preceding vertex must be skipped to reach its payload.
        for name, count, props in elements:
            if name == "vertex":
                break
            if any(p[1] == "list" for p in props):
                raise PlyError(f"{path}: cannot skip element {name!r} with list properties")
            if fmt == "ascii":
                if (got := sum(1 for _ in islice(fh, count))) < count:
                    raise PlyError(f"{path}: truncated payload, {got} of {count} "
                                   f"{name!r} rows present")
            else:
                fh.seek(_vertex_layout_size(path, props) * count, os.SEEK_CUR)
        _, count, props = vertex
        dtype = _vertex_layout(path, props)
        if fmt == "ascii":
            # Text carries full precision; the declared float width only
            # matters for binary layout.
            dtype = np.dtype([(n, "<f8" if d.kind == "f" else d)
                              for n, (d, _) in dtype.fields.items()])
            lines = list(islice(fh, count))
            if len(lines) < count:
                raise PlyError(f"{path}: truncated payload at vertex {len(lines)} of {count}")
            rows = _parse_ascii_rows(path, lines, props, dtype)
        else:
            left = max(0, os.fstat(fh.fileno()).st_size - fh.tell())
            if dtype.itemsize * count > left:
                got = left // dtype.itemsize
                raise PlyError(f"{path}: truncated payload, {got} of {count} vertices present")
            rows = np.frombuffer(fh.read(dtype.itemsize * count), dtype=dtype)
    positions = np.column_stack([rows[n].astype(np.float64) for n in _COORD_PROPS])
    colors = np.column_stack([rows[n].astype(np.float64) for n in _COLOR_PROPS])
    if not np.isfinite(positions).all():
        bad = int(np.flatnonzero(~np.isfinite(positions).all(axis=1))[0])
        raise PlyError(f"{path}: non-finite coordinate at vertex {bad}")
    return PointCloud(positions, colors)


def _vertex_layout_size(path, props):
    for name, typ in props:
        if typ not in _PLY_DTYPES:
            raise PlyError(f"{path}: unknown property type {typ!r} for {name!r}")
    return sum(np.dtype(_PLY_DTYPES[t]).itemsize for _, t in props)


def _parse_ascii_rows(path, lines, props, dtype):
    """Parse ASCII vertex lines, vectorized with a diagnostic fallback.

    An integer property (every color channel) must hold an integer in its
    type's range; casting anything else would wrap or truncate silently.
    """
    count = len(lines)
    width = len(props)
    try:
        flat = np.array([line.split()[:width] for line in lines], dtype=np.float64)
        if flat.shape != (count, width):
            raise ValueError
    except ValueError:
        # something is short or non-numeric: redo slowly to name the vertex
        flat = np.empty((count, width))
        for i, raw in enumerate(lines):
            if not raw.strip():
                raise PlyError(f"{path}: truncated payload at vertex {i} of {count}") from None
            tokens = raw.split()
            if len(tokens) < width:
                raise PlyError(
                    f"{path}: vertex {i} has {len(tokens)} values, expected {width}") from None
            for j, tok in enumerate(tokens[:width]):
                try:
                    flat[i, j] = float(tok)
                except ValueError:
                    text = tok.decode("ascii", errors="replace")
                    raise PlyError(f"{path}: bad numeric value {text!r} at vertex {i}") from None
    rows = np.empty(count, dtype=dtype)
    for j, (name, _) in enumerate(props):
        col = flat[:, j]
        if dtype[name].kind in "iu":
            info = np.iinfo(dtype[name])
            # NaN fails every comparison, so it lands here too
            ok = (col >= info.min) & (col <= info.max) & (col == np.floor(col))
            if not ok.all():
                i = int(np.flatnonzero(~ok)[0])
                raise PlyError(f"{path}: {name} at vertex {i} must be an integer in "
                               f"[{info.min}, {info.max}], got {col[i]:g}")
        rows[name] = col
    return rows


def save_ply(cloud: PointCloud, path, encoding: str = "binary_le") -> None:
    """Write a cloud so that load_ply recovers it.

    Binary files store coordinates as doubles, so the round trip is exact.
    ASCII prints 9 significant digits per coordinate. Colors are stored as
    uchar; fractional color values are rounded to the nearest integer.
    """
    if encoding not in ("ascii", "binary_le"):
        raise ValueError(f"unknown encoding {encoding!r}")
    path = os.fspath(path)
    colors = np.clip(np.rint(cloud.colors), 0, 255).astype(np.uint8)
    n = cloud.count
    header = [
        "ply",
        "format ascii 1.0" if encoding == "ascii" else "format binary_little_endian 1.0",
        f"element vertex {n}",
    ]
    coord_type = "float" if encoding == "ascii" else "double"
    header += [f"property {coord_type} {name}" for name in _COORD_PROPS]
    header += [f"property uchar {name}" for name in _COLOR_PROPS]
    header.append("end_header")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if encoding == "ascii":
            lines = []
            for i in range(n):
                x, y, z = cloud.positions[i]
                r, g, b = colors[i]
                lines.append(f"{x:.9g} {y:.9g} {z:.9g} {r} {g} {b}")
            fh.write(("\n".join(lines) + "\n").encode("ascii"))
        else:
            rows = np.empty(n, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                                      ("red", "u1"), ("green", "u1"), ("blue", "u1")])
            for j, name in enumerate(_COORD_PROPS):
                rows[name] = cloud.positions[:, j]
            for j, name in enumerate(_COLOR_PROPS):
                rows[name] = colors[:, j]
            fh.write(rows.tobytes())


def degrade(cloud: PointCloud, spec: DegradationSpec) -> PointCloud:
    """Apply a synthetic degradation, reproducibly for a given (cloud, spec)."""
    cloud.validate()
    rng = np.random.Generator(np.random.PCG64(spec.rng_seed))
    if spec.kind == "geometry_gaussian":
        offsets = rng.normal(0.0, spec.level, size=cloud.positions.shape)
        return PointCloud(cloud.positions + offsets, cloud.colors.copy())
    if spec.kind == "color_noise":
        noisy = cloud.colors + rng.normal(0.0, spec.level, size=cloud.colors.shape)
        return PointCloud(cloud.positions.copy(), np.clip(noisy, 0.0, 255.0))
    # downsample: keep ceil(level * N) points, preserving original order
    keep = int(np.ceil(spec.level * cloud.count))
    if keep < 1:
        raise ValueError("downsample would produce an empty cloud")
    idx = rng.choice(cloud.count, size=keep, replace=False)
    idx.sort()
    return PointCloud(cloud.positions[idx], cloud.colors[idx])
