"""Unit-cell geometry, heating profile, boundary conditions, and meshing.

The simulated domain is the 2-D cross-section of half a channel pitch:
an alumina insulation layer on top, the silicon device layer with a PCM
channel etched from its backside, and a silicon cap sealing the channel.
The left edge is the channel symmetry plane, the right edge the mid-wall
symmetry plane; both are adiabatic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

import numpy as np

from .materials import (Material, UnknownMaterialError, builtin_material,
                        check_field_types, from_record, read_json)

# Voxel labels
ALUMINA = 0
SILICON = 1
PCM = 2


def _snap(length: float, dx: float) -> float:
    """Round a length to the nearest positive multiple of dx."""
    return max(round(length / dx), 0) * dx


@dataclass(frozen=True)
class UnitCellSpec:
    """Half-pitch unit cell geometry. All lengths in meters."""

    H: float = 100e-6  # channel height
    W: float = 50e-6   # channel width (full width; half is simulated)
    t_alumina: float = 50e-6
    t_device: float = 200e-6
    t_cap: float = 50e-6
    pitch: float = 100e-6  # channel center-to-center spacing
    dx: float = 5e-6       # voxel edge length
    no_channel: bool = False  # solid-silicon baseline (H, W ignored)

    def __post_init__(self):
        check_field_types(self)
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        s = self._snapped_lengths()  # not snapped(), which builds a spec
        for key in ("t_alumina", "t_device", "t_cap", "pitch"):
            if s[key] <= 0:
                raise ValueError(f"{key} must be positive after snapping")
        if not self.no_channel:
            if s["H"] <= 0 or s["W"] <= 0:
                raise ValueError(
                    "channel must have positive H and W; use no_channel for "
                    "the solid-silicon baseline")
            if s["H"] > s["t_device"]:
                raise ValueError("channel height exceeds device layer")
            if s["W"] > s["pitch"]:
                raise ValueError("channel width exceeds pitch")

    def _snapped_lengths(self) -> dict[str, float]:
        return {key: _snap(getattr(self, key), self.dx)
                for key in ("H", "W", "t_alumina", "t_device", "t_cap",
                            "pitch")}

    def snapped(self) -> "UnitCellSpec":
        """Return a copy with every dimension snapped to a multiple of dx."""
        return dc_replace(self, **self._snapped_lengths())


@dataclass(frozen=True)
class PowerProfile:
    """Square-wave heat flux at the silicon-alumina interface."""

    q0: float = 100e3   # amplitude, W/m^2
    t_on: float = 0.5   # s
    period: float = 1.0  # s
    duration: float = 1000.0  # total simulated time, s

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.t_on <= self.period:
            raise ValueError("need 0 < t_on <= period")
        if self.q0 < 0:
            raise ValueError("q0 must be non-negative")
        if self.duration < self.period:
            raise ValueError("duration must cover at least one period")


@dataclass(frozen=True)
class BoundarySpec:
    """Equivalent convection on the top and bottom faces."""

    h: float = 500.0    # W/(m^2 K)
    T_amb: float = 300.0  # ambient, K

    def __post_init__(self):
        check_field_types(self)
        if self.h <= 0:
            raise ValueError("h must be positive")
        if self.T_amb <= 0:
            raise ValueError("T_amb must be positive")

    @property
    def T_amb_C(self) -> float:
        return self.T_amb - 273.15


@dataclass(frozen=True)
class Mesh:
    """Labeled voxel grid over the half unit cell.

    labels[iy, ix]: iy = 0 at the bottom (cap underside), ix = 0 at the
    channel symmetry plane. Values are ALUMINA / SILICON / PCM.
    """

    spec: UnitCellSpec  # snapped spec actually meshed
    labels: np.ndarray = field(repr=False)

    @property
    def dx(self) -> float:
        """Voxel edge length, m."""
        return self.spec.dx

    @property
    def nx(self) -> int:
        return self.labels.shape[1]

    @property
    def ny(self) -> int:
        return self.labels.shape[0]

    @property
    def source_row(self) -> int:
        """Row index of the heated silicon-alumina interface (device top)."""
        s = self.spec
        return round((s.t_cap + s.t_device) / self.dx) - 1


def build_mesh(spec: UnitCellSpec) -> Mesh:
    """Discretize the half unit cell into labeled voxels."""
    s = spec.snapped()
    dx = s.dx
    nx = round((s.pitch / 2) / dx)
    n_cap = round(s.t_cap / dx)
    n_dev = round(s.t_device / dx)
    n_al = round(s.t_alumina / dx)
    if nx < 1:
        raise ValueError("pitch/2 smaller than one voxel")
    ny = n_cap + n_dev + n_al

    labels = np.full((ny, nx), SILICON, dtype=np.int8)
    labels[n_cap + n_dev:, :] = ALUMINA
    if not s.no_channel:
        n_h = round(s.H / dx)
        n_w = round((s.W / 2) / dx)
        # Channel etched from the device backside, seated on the cap layer,
        # abutting the symmetry plane.
        if n_h > 0 and n_w > 0:
            labels[n_cap:n_cap + n_h, :n_w] = PCM
    return Mesh(spec=s, labels=labels)


@dataclass(frozen=True)
class Case:
    """One complete simulation case: geometry + heating + boundary + PCM.

    pcm fills the channel (unused by a no_channel cell).
    """

    cell: UnitCellSpec = UnitCellSpec()
    power: PowerProfile = PowerProfile()
    boundary: BoundarySpec = BoundarySpec()
    pcm: Material = builtin_material("Solder174")

    @classmethod
    def from_dict(cls, d: dict) -> "Case":
        """Inverse of dataclasses.asdict; "pcm" may also be a built-in
        material name.

        Raises ValueError, naming the section, on an unknown key, a pcm
        record that misses a key, or a value a section rejects.
        """
        unknown = set(d) - {"cell", "power", "boundary", "pcm"}
        if unknown:
            raise ValueError(f"unknown case keys {sorted(unknown)}; expected "
                             "cell, power, boundary, pcm")

        def section(key, kind):
            return from_record(kind, d.get(key, {}), f"case {key}")

        pcm = d.get("pcm", cls.pcm.name)
        return cls(
            cell=section("cell", UnitCellSpec),
            power=section("power", PowerProfile),
            boundary=section("boundary", BoundarySpec),
            pcm=(builtin_material(pcm) if isinstance(pcm, str)
                 else section("pcm", Material)),
        )

    @classmethod
    def from_json_file(cls, path) -> "Case":
        """from_dict of the JSON file at path; its errors name the file."""
        source = f"case file {path}"
        d = read_json(path, source)
        try:
            return cls.from_dict(d)
        except (ValueError, UnknownMaterialError) as e:
            raise type(e)(f"{source}: {e.args[0]}") from e
