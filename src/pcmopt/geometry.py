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
                        check_field_types, from_record, read_json)

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
_LAYERS = {"alumina layer": T_ALUMINA, "device layer": T_DEVICE,
           "cap layer": T_CAP, "channel pitch": PITCH}


def _snap(length: float, dx: float) -> float:
    """Round a length to the nearest positive multiple of dx."""
    return max(round(length / dx), 0) * dx


def _half_pitch_voxels(dx: float) -> int:
    """Voxels across the simulated half pitch (the mesh's nx)."""
    return round((_snap(PITCH, dx) / 2) / dx)


@dataclass(frozen=True)
class UnitCellSpec:
    """Half-pitch unit cell: the channel and the voxel size, in meters."""

    H: float = 100e-6  # channel height
    W: float = 50e-6   # channel width (full width; half is simulated)
    dx: float = 5e-6       # voxel edge length
    no_channel: bool = False  # solid-silicon baseline (H, W ignored)

    def __post_init__(self):
        check_field_types(self)
        if not self.dx > 0:
            raise ValueError("dx must be positive")
        for name, length in _LAYERS.items():
            if _snap(length, self.dx) <= 0:
                raise ValueError(f"dx={self.dx!r} is too large: the {name} "
                                 "snaps to no voxels")
        if _half_pitch_voxels(self.dx) < 1:
            raise ValueError(f"dx={self.dx!r} is too large: half the channel "
                             "pitch snaps to no voxels")
        if not self.no_channel:
            H, W = _snap(self.H, self.dx), _snap(self.W, self.dx)
            if H <= 0 or W <= 0:
                raise ValueError(
                    "channel must have positive H and W; use no_channel for "
                    "the solid-silicon baseline")
            if H > _snap(T_DEVICE, self.dx):
                raise ValueError("channel height exceeds device layer")
            if W > _snap(PITCH, self.dx):
                raise ValueError("channel width exceeds pitch")

    def snapped(self) -> "UnitCellSpec":
        """Return a copy with H and W snapped to multiples of dx."""
        return dc_replace(self, H=_snap(self.H, self.dx),
                          W=_snap(self.W, self.dx))


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
        dx = self.dx
        return round((_snap(T_CAP, dx) + _snap(T_DEVICE, dx)) / dx) - 1


def build_mesh(spec: UnitCellSpec) -> Mesh:
    """Discretize the half unit cell into labeled voxels."""
    s = spec.snapped()
    dx = s.dx
    nx = _half_pitch_voxels(dx)
    n_cap = round(_snap(T_CAP, dx) / dx)
    n_dev = round(_snap(T_DEVICE, dx) / dx)
    n_al = round(_snap(T_ALUMINA, dx) / dx)
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
    """One complete simulation case: geometry + heating + PCM.

    pcm fills the channel (unused by a no_channel cell).
    """

    cell: UnitCellSpec = UnitCellSpec()
    power: PowerProfile = PowerProfile()
    pcm: Material = builtin_material("Solder174")

    @classmethod
    def from_dict(cls, d: dict) -> "Case":
        """Inverse of dataclasses.asdict; "pcm" may also be a built-in
        material name.

        Raises ValueError, naming the section, on an unknown key, a pcm
        record that misses a key, or a value a section rejects.
        """
        unknown = set(d) - {"cell", "power", "pcm"}
        if unknown:
            raise ValueError(f"unknown case keys {sorted(unknown)}; expected "
                             "cell, power, pcm")

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
