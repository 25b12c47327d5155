"""Module-description (JSON) and tower (CSV) file formats.

A module file is a JSON object

    {"ring": {"p": 3, "e": 1, "f": 1},
     "group": {"kind": "abelian", "r": 1},
     "gens": 2, "rels": 2,
     "matrix": [[[{"c": ["3"], "e": [0]}], []], ...]}

where matrix[i][j] is the list of terms of the (i, j) entry, each term being
the exact O-coefficient vector c (decimal strings) and the generator-exponent
tuple e.  Integers past sys.get_int_max_str_digits() digits (4300 by default)
are refused, on load and on save.  A tower file has the CSV header ``n,m,ord``.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from typing import Dict, Tuple

from .chainring import RingBase
from .compare import TowerSeries
from .errors import InvalidInput
from .groupring import ABELIAN, METACYCLIC, GroupRingPoly, GroupSpec, _norm_terms
from .lambda_mod import Presentation


def presentation_to_dict(P: Presentation) -> dict:
    try:
        return {
            "ring": {"p": P.base.p, "e": P.base.e, "f": P.base.f},
            "group": {"kind": P.spec.kind, "r": P.spec.r},
            "gens": P.gens,
            "rels": P.rels,
            "matrix": [
                [
                    [
                        {"c": [str(c) for c in coeffs], "e": list(exps)}
                        for coeffs, exps in entry.terms
                    ]
                    for entry in row
                ]
                for row in P.matrix
            ],
        }
    except ValueError:  # str() of an int past the conversion limit
        raise InvalidInput(f"a coefficient has more than {sys.get_int_max_str_digits()} digits") from None


def _quote(v) -> str:
    """v for an error message: its repr, or for a value whose text is longer
    than 20 characters (a field may be thousands long) the first 20 quoted
    and the length."""
    text = v if isinstance(v, str) else repr(v)
    return repr(v) if len(text) <= 20 else f"{text[:20]!r}... of {len(text)} characters"


def _as_int(v) -> int:
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        try:
            return int(v, 10)
        except ValueError:
            pass
    raise InvalidInput(f"expected an integer, got {_quote(v)}")


def _field(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise InvalidInput(f"module file: {where} must be an object, got {type(obj).__name__}")
    if key not in obj:
        raise InvalidInput(f"module file missing field: {where}.{key}")
    return obj[key]


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise InvalidInput(f"module file: {where} must be a list, got {type(v).__name__}")
    return v


def presentation_from_dict(d: dict) -> Presentation:
    ring = _field(d, "ring", "module")
    group = _field(d, "group", "module")
    gens = _as_int(_field(d, "gens", "module"))
    rels = _as_int(_field(d, "rels", "module"))
    matrix = _list(_field(d, "matrix", "module"), "matrix")
    base = RingBase(*(_as_int(_field(ring, k, "ring")) for k in ("p", "e", "f")))
    kind = _field(group, "kind", "group")
    if kind == ABELIAN:
        spec = GroupSpec.abelian(base.p, _as_int(_field(group, "r", "group")))
    elif kind == METACYCLIC:
        spec = GroupSpec.metacyclic(base.p)
        if "r" in group and _as_int(group["r"]) != 2:
            raise InvalidInput("metacyclic preset has r = 2")
    else:
        raise InvalidInput(f"unknown group kind {kind!r}")
    if len(matrix) != rels:
        raise InvalidInput(f"matrix has {len(matrix)} rows, expected rels = {rels}")
    rows = []
    for i, row in enumerate(matrix):
        row = _list(row, f"matrix[{i}]")
        if len(row) != gens:
            raise InvalidInput(f"matrix row {i} has {len(row)} entries, expected {gens}")
        out_row = []
        for j, entry in enumerate(row):
            terms = []
            for t in _list(entry, f"matrix[{i}][{j}]"):
                where = f"matrix[{i}][{j}] term"
                c = tuple(_as_int(x) for x in _list(_field(t, "c", where), where + " c"))
                e = tuple(_as_int(x) for x in _list(_field(t, "e", where), where + " e"))
                terms.append((c, e))
            out_row.append(_norm_terms(terms) if terms else GroupRingPoly(()))
        rows.append(tuple(out_row))
    return Presentation(spec, base, gens, rels, tuple(rows))


def save_presentation(P: Presentation, path: str) -> None:
    data = presentation_to_dict(P)  # before the file is opened, so a refusal writes nothing
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _read_text(path: str) -> str:
    """The file's text; bytes that are not UTF-8 are an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def load_presentation(path: str) -> Presentation:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise InvalidInput(f"{path}: JSON nested too deeply") from None
    except ValueError:  # an int past the conversion limit: not a JSONDecodeError
        raise InvalidInput(f"{path}: a JSON number has more than {sys.get_int_max_str_digits()} digits") from None
    return presentation_from_dict(data)


def load_tower_csv(path: str, p: int, r: int) -> TowerSeries:
    data: Dict[Tuple[int, int], int] = {}
    reader = csv.reader(io.StringIO(_read_text(path)))
    try:
        header = next(reader)
    except StopIteration:
        raise InvalidInput(f"{path}: empty tower file") from None
    if [h.strip() for h in header] != ["n", "m", "ord"]:
        raise InvalidInput(f"{path}: expected header 'n,m,ord', got {header!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise InvalidInput(f"{path}: line {lineno}: expected 3 fields")
        try:
            n, m, o = (_as_int(c.strip()) for c in row)
        except InvalidInput as exc:
            raise InvalidInput(f"{path}: line {lineno}: {exc}") from None
        if (n, m) in data:
            raise InvalidInput(f"{path}: line {lineno}: duplicate grid point ({n}, {m})")
        data[(n, m)] = o
    return TowerSeries(r=r, p=p, data=data)


def save_tower_csv(series: TowerSeries, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "ord"])
        for (n, m) in sorted(series.data):
            writer.writerow([n, m, series.data[(n, m)]])
