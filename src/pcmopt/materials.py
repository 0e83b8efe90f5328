"""Two-phase material property records and the built-in material database."""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict


@dataclass(frozen=True)
class Material:
    """Thermophysical properties of a solid or a phase change material.

    Solid and liquid values are piecewise constant; a material that is not a
    PCM never melts and only its *_solid fields are used.
    """

    name: str
    is_pcm: bool
    T_m: float  # melt temperature, degC (ignored when is_pcm is False)
    rho_solid: float  # kg/m^3
    rho_liquid: float  # kg/m^3
    k_solid: float  # W/(m K)
    k_liquid: float  # W/(m K)
    cp_solid: float  # J/(kg K)
    cp_liquid: float  # J/(kg K)
    L_H: float  # latent heat of fusion, J/kg

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Material":
        return cls(**d)


# Commercial PCM database. Where the source gives a single value for a
# property, solid and liquid carry the identical value.
_BUILTINS: dict[str, Material] = {
    m.name: m
    for m in [
        Material("Cerrolow117", True, 47.0, 9160.0, 9160.0, 15.0, 15.0,
                 163.0, 197.0, 36800.0),
        Material("Cerrolow136", True, 58.0, 9060.0, 8220.0, 33.2, 10.6,
                 323.0, 721.0, 28900.0),
        Material("FieldsMetal", True, 58.24, 7880.0, 7880.0, 19.0, 19.0,
                 250.0, 250.0, 31020.0),
        Material("EBiInSn", True, 60.2, 8043.0, 8043.0, 19.2, 14.5,
                 270.0, 297.0, 27900.0),
        Material("PureTemp60", True, 61.0, 960.0, 870.0, 0.25, 0.15,
                 2040.0, 2380.0, 220000.0),
        Material("WoodsMetal", True, 70.0, 9670.0, 9670.0, 31.6, 22.4,
                 146.0, 184.0, 40000.0),
        Material("Solder174", True, 77.0, 8780.0, 8200.0, 35.8, 28.8,
                 401.0, 883.0, 47730.0),
        # Structural solids; standard bulk values, recorded in config output.
        Material("Silicon", False, 0.0, 2329.0, 2329.0, 130.0, 130.0,
                 700.0, 700.0, 0.0),
        # Alumina cp uses the room-temperature handbook value; the higher
        # elevated-temperature value delays the first 85 degC crossing past
        # the end of the first heating pulse.
        Material("Alumina", False, 0.0, 3950.0, 3950.0, 30.0, 30.0,
                 775.0, 775.0, 0.0),
    ]
}

#: Names of the seven commercial PCMs, ordered by increasing melt temperature.
PCM_NAMES = tuple(
    m.name for m in sorted(
        (m for m in _BUILTINS.values() if m.is_pcm), key=lambda m: m.T_m)
)


class UnknownMaterialError(KeyError):
    pass


def builtin_material(name: str) -> Material:
    """Look up a built-in material by name.

    Raises UnknownMaterialError listing the valid identifiers if the name is
    not in the database.
    """
    try:
        return _BUILTINS[name]
    except KeyError:
        valid = ", ".join(sorted(_BUILTINS))
        raise UnknownMaterialError(
            f"unknown material {name!r}; valid names: {valid}") from None


def validate(m: Material) -> list[str]:
    """Check record invariants; returns a list of violations (empty = valid)."""
    violations = []
    for field in ("rho_solid", "rho_liquid", "k_solid", "k_liquid",
                  "cp_solid", "cp_liquid"):
        if getattr(m, field) <= 0.0:
            violations.append(f"{field} must be strictly positive")
    if m.L_H < 0.0:
        violations.append("L_H must be non-negative")
    if m.is_pcm and m.L_H <= 0.0:
        violations.append("L_H must be strictly positive for a PCM")
    return violations


def validated(m: Material, source: str) -> Material:
    """m itself; ValueError naming the source and every violation if the
    record is invalid."""
    problems = validate(m)
    if problems:
        raise ValueError(f"invalid material {source}: " + "; ".join(problems))
    return m


def load_material_file(path) -> Material:
    """Read one material record from a JSON file."""
    with open(path) as f:
        return validated(Material.from_dict(json.load(f)), f"file {path}")
