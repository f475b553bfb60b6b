"""CSV ingestion/export helpers and the reproducibility manifest.

All files are UTF-8, comma-separated, headered, with '.' decimal points.
Floats are written with repr (shortest round-trip), so identical runs emit
identical bytes.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .registry import RegistryFrame


class RegistryFormatError(ValueError):
    """Malformed registry CSV."""


REGISTRY_HEADER = ["age_diag", "year_diag", "sex", "time", "event"]


def load_registry(path) -> RegistryFrame:
    """Read a registry CSV (age_diag,year_diag,sex,time,event)."""
    path = Path(path)
    ages, years, codes, times, events = [], [], [], [], []
    vocab: dict[tuple, int] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(REGISTRY_HEADER).issubset(reader.fieldnames):
            raise RegistryFormatError(f"{path.name}: header must contain {REGISTRY_HEADER}")
        for rownum, row in enumerate(reader, start=2):
            try:
                age = int(row["age_diag"])
                year = int(row["year_diag"])
                time = float(row["time"])
                event = int(row["event"])
            except (TypeError, ValueError) as exc:
                raise RegistryFormatError(f"{path.name}:{rownum}: {exc}") from None
            if event not in (0, 1):
                raise RegistryFormatError(f"{path.name}:{rownum}: event must be 0 or 1")
            if not (math.isfinite(time) and time >= 0):
                raise RegistryFormatError(
                    f"{path.name}:{rownum}: follow-up time {row['time']!r} is not a finite non-negative number"
                )
            if age < 0:
                raise RegistryFormatError(f"{path.name}:{rownum}: negative age")
            demo = (row["sex"].strip(),)
            ages.append(age)
            years.append(year)
            codes.append(vocab.setdefault(demo, len(vocab)))
            times.append(time)
            events.append(bool(event))
    if not ages:
        raise RegistryFormatError(f"{path.name}: no data rows")
    return RegistryFrame(ages, years, codes, times, events, list(vocab))


def write_registry(path, frame: RegistryFrame) -> None:
    rows = [
        {
            "age_diag": int(a),
            "year_diag": int(y),
            "sex": frame.demo_vocab[c][0],
            "time": float(t),
            "event": int(e),
        }
        for a, y, c, t, e in zip(frame.age, frame.year, frame.demo_code, frame.time, frame.event)
    ]
    write_rows_csv(path, REGISTRY_HEADER, rows)


def _format_value(value):
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def write_rows_csv(path, header, rows) -> None:
    """Write dict rows with a fixed column order and deterministic floats."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(row[col]) for col in header])


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, payload: dict) -> None:
    """Reproducibility manifest: config echo, input hashes, counters.

    Deliberately carries no timestamps so reruns are byte-identical.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
