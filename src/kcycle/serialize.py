"""Deterministic text output: JSON and CSV with fixed float formatting.

Floats are rendered with 17 significant digits ('%.17g'), which
round-trips binary64 exactly and never depends on locale, so identical
inputs produce byte-identical artifacts. Dict keys keep insertion order.
Non-finite floats become the strings "inf", "-inf", "nan" (JSON has no
literal for them).
"""

from __future__ import annotations

import json
import math


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def csv_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps(obj) -> str:
    """Deterministic JSON text, indented by 2 (trailing newline included)."""
    pieces: list = []
    _emit(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _emit(obj, out, level):
    pad = "  " * level
    pad_in = pad + "  "
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            out.append(pad_in)
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(": ")
            _emit(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad_in)
            _emit(val, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def csv_lines(header, rows) -> str:
    """CSV text with '\n' terminators, '.' decimals, floats at .17g."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, bool):
                cells.append(str(cell).lower())
            elif isinstance(cell, int):
                cells.append(str(cell))
            elif isinstance(cell, float):
                cells.append(csv_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
