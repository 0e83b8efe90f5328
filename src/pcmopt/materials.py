"""Two-phase material property records and the built-in material database."""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np


def check_field_types(record) -> None:
    """ValueError naming the first field of the dataclass record whose value
    does not fit its annotation: a number field holding anything but a real
    number (a str, a bool, a list or None), or NaN or an infinity, a bool
    field holding anything but a bool, or a dict field anything but a dict.
    numpy scalars pass, and so does None where the annotation allows it.
    Each record's __post_init__ calls this before it checks any value."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.type == "bool" and not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{f.name} must be a bool, got {value!r}")
        if value is None and f.type.endswith("None"):
            continue
        if f.type.startswith("dict") and not isinstance(value, dict):
            raise ValueError(f"{f.name} must be an object, got {value!r}")
        if f.type not in ("float", "int", "float | None"):
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{f.name} must be a number, got {value!r}")
        if not isinstance(value, numbers.Integral) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Material:
    """Thermophysical properties of a solid or a phase change material.

    Solid and liquid values are piecewise constant; a material that is not a
    PCM never melts and only its *_solid fields are used. An invalid record
    raises ValueError, naming every violation, when it is built.
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

    def __post_init__(self):
        check_field_types(self)
        problems = [f"{key} must be strictly positive"
                    for key in ("rho_solid", "rho_liquid", "k_solid",
                                "k_liquid", "cp_solid", "cp_liquid")
                    if getattr(self, key) <= 0.0]
        if self.L_H < 0.0:
            problems.append("L_H must be non-negative")
        if self.is_pcm and self.L_H <= 0.0:
            problems.append("L_H must be strictly positive for a PCM")
        if problems:
            raise ValueError("invalid material: " + "; ".join(problems))


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


def check_record_keys(kind, d, source: str) -> None:
    """ValueError naming source unless d is a dict whose keys are fields of
    the dataclass kind, every field without a default among them; it names
    the unknown and the missing keys and lists kind's fields."""
    names = [f.name for f in fields(kind)]
    expected = f"expected an object with keys {', '.join(names)}"
    if not isinstance(d, dict):
        raise ValueError(f"{source}: {expected}, got {type(d).__name__}")
    keys = {"unknown": sorted(set(d) - set(names)), "missing": [
        f.name for f in fields(kind) if f.name not in d
        and f.default is MISSING and f.default_factory is MISSING]}
    if any(keys.values()):
        wrong = "; ".join(f"{k} keys {v}" for k, v in keys.items() if v)
        raise ValueError(f"{source}: {wrong}; {expected}")


def from_record(kind, d, source: str):
    """kind(**d), the record d read back as the dataclass kind whose
    dataclasses.asdict wrote it; ValueError naming source on a key
    check_record_keys refuses or a value the constructor refuses (its
    TypeError or ValueError)."""
    check_record_keys(kind, d, source)
    try:
        return kind(**d)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{source}: {e}") from e


def read_json(path, source: str):
    """The JSON value in the file at path; ValueError naming source if the
    file is not JSON text (json's JSONDecodeError or UnicodeDecodeError)."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise ValueError(f"{source}: {e}") from e


def write_json(path, obj) -> None:
    """Write obj as JSON indented by 2, arrays as lists, no end newline,
    whole or not at all: to <name>.tmp beside path, then renamed over it."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=2, default=np.ndarray.tolist)
    os.replace(tmp, path)


def load_material_file(path) -> Material:
    """Read one material record from a JSON file."""
    source = f"file {path}"
    return from_record(Material, read_json(path, source), source)
