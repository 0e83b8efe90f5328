"""Unit-cell geometry, heating profile, boundary constants, and meshing.

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
                        check_field_types, check_record_keys, from_record,
                        read_json)

# Voxel labels
ALUMINA = 0
SILICON = 1
PCM = 2


# The package around the channel is fixed: layer thicknesses and the
# channel center-to-center spacing, m.
T_ALUMINA = 50e-6
T_DEVICE = 200e-6
T_CAP = 50e-6
PITCH = 100e-6
# The heater's square wave: on for T_ON of every PERIOD, s.
T_ON = 0.5
PERIOD = 1.0
# Equivalent convection on the top and bottom faces, W/(m^2 K), to an
# ambient of 300 K, degC.
H_CONV = 500.0
T_AMB_C = 300.0 - 273.15


def _voxels(length: float, dx: float) -> int:
    """Whole voxels of edge dx nearest to a length (none if negative)."""
    return max(round(length / dx), 0)


def _half_voxels(length: float, dx: float) -> int:
    """Voxels across half of a length's whole voxels, an odd count's half
    rounded to even: the simulated half of the pitch and of the channel
    width."""
    return round(_voxels(length, dx) / 2)


@dataclass(frozen=True)
class UnitCellSpec:
    """Half-pitch unit cell: the channel and the voxel size, in meters."""

    H: float = 100e-6  # channel height
    W: float = 50e-6   # channel width (full width; half is simulated)
    dx: float = 5e-6       # voxel edge length
    no_channel: bool = False  # solid-silicon baseline (H, W ignored)

    def __post_init__(self):
        check_field_types(self)
        dx = self.dx
        if not dx > 0:
            raise ValueError("dx must be positive")
        counts = {"the alumina layer": _voxels(T_ALUMINA, dx),
                  "the device layer": _voxels(T_DEVICE, dx),
                  "the cap layer": _voxels(T_CAP, dx),
                  "half the channel pitch": _half_voxels(PITCH, dx)}
        for name, count in counts.items():
            if count < 1:
                raise ValueError(f"dx={dx!r} is too large: {name} snaps to "
                                 "no voxels")
        if not self.no_channel:
            n_h, n_w = _voxels(self.H, dx), _half_voxels(self.W, dx)
            if n_h < 1 or n_w < 1:
                raise ValueError(
                    f"at dx={dx!r} the height or half width of channel "
                    f"H={self.H!r}, W={self.W!r} snaps to no voxels; use "
                    "no_channel for the solid-silicon baseline")
            if n_h > counts["the device layer"]:
                raise ValueError("channel height exceeds device layer")
            if n_w > counts["half the channel pitch"]:
                raise ValueError("channel width exceeds pitch")

    def snapped(self) -> "UnitCellSpec":
        """Return a copy with H and W the channel the mesh holds: H in whole
        voxels, W twice the voxels of its simulated half."""
        dx = self.dx
        return dc_replace(self, H=_voxels(self.H, dx) * dx,
                          W=2 * _half_voxels(self.W, dx) * dx)


@dataclass(frozen=True)
class PowerProfile:
    """Square-wave heat flux at the silicon-alumina interface, on for T_ON
    of every PERIOD."""

    q0: float = 100e3   # amplitude, W/m^2
    duration: float = 1000.0  # total simulated time, s

    def __post_init__(self):
        check_field_types(self)
        if self.q0 < 0:
            raise ValueError("q0 must be non-negative")
        if self.duration < PERIOD:
            raise ValueError("duration must cover at least one period")
        cycles = self.duration / PERIOD
        if abs(cycles - round(cycles)) > 1e-9:
            raise ValueError("duration must be a whole number of periods, "
                             f"got {self.duration!r}")


@dataclass(frozen=True)
class Mesh:
    """Labeled voxel grid over the half unit cell, with voxel edge dx, m.

    labels[iy, ix]: iy = 0 at the bottom (cap underside), ix = 0 at the
    channel symmetry plane. Values are ALUMINA / SILICON / PCM.
    """

    dx: float
    labels: np.ndarray = field(repr=False)

    @property
    def nx(self) -> int:
        return self.labels.shape[1]

    @property
    def ny(self) -> int:
        return self.labels.shape[0]

    @property
    def source_row(self) -> int:
        """Row index of the heated silicon-alumina interface (device top)."""
        return _voxels(T_CAP, self.dx) + _voxels(T_DEVICE, self.dx) - 1


def build_mesh(spec: UnitCellSpec) -> Mesh:
    """Discretize the half unit cell into labeled voxels."""
    dx = spec.dx
    n_cap, n_dev = _voxels(T_CAP, dx), _voxels(T_DEVICE, dx)
    ny = n_cap + n_dev + _voxels(T_ALUMINA, dx)
    labels = np.full((ny, _half_voxels(PITCH, dx)), SILICON, dtype=np.int8)
    labels[n_cap + n_dev:, :] = ALUMINA
    if not spec.no_channel:
        # Channel etched from the device backside, seated on the cap layer,
        # abutting the symmetry plane.
        labels[n_cap:n_cap + _voxels(spec.H, dx),
               :_half_voxels(spec.W, dx)] = PCM
    return Mesh(dx=dx, labels=labels)


@dataclass(frozen=True)
class Case:
    """One complete simulation case: geometry + heating + PCM.

    pcm fills the channel (unused by a no_channel cell).
    """

    cell: UnitCellSpec = UnitCellSpec()
    power: PowerProfile = PowerProfile()
    pcm: Material = builtin_material("Solder174")

    @classmethod
    def from_dict(cls, d: dict) -> "Case":
        """Inverse of dataclasses.asdict; "pcm" may also be a built-in
        material name. ValueError, naming the section, on a key
        check_record_keys refuses or a value a section rejects."""
        check_record_keys(cls, d, "case")

        def section(key, kind):
            return from_record(kind, d.get(key, {}), f"case {key}")

        pcm = d.get("pcm", cls.pcm.name)
        return cls(
            cell=section("cell", UnitCellSpec),
            power=section("power", PowerProfile),
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
