"""Compact references of CLI outputs, the comparison against them, and a
self-test that the comparison catches corrupted outputs.

One command's output is {"exit": code, "json": parsed stdout or None,
"csv": bytes of its --out CSV or None}. Its reference keeps the exit code,
the full JSON, and for a CSV its sha256, row count, header and a sample of
the data rows: all of them up to FULL_CSV_ROWS rows, else every
CSV_STRIDE-th one. An output matches its reference when the exit codes
are equal, JSON strings, integers (tau, indices, 0/1 patterns) and booleans
(passed) are equal, JSON floats agree to FLOAT_TOL, and the CSV is
byte-identical or has the same rows with the sampled ones agreeing to
FLOAT_TOL field by field.
"""

from __future__ import annotations

import hashlib

FLOAT_TOL = 1e-12
FULL_CSV_ROWS = 4096
CSV_STRIDE = 499  # prime, so samples cycle through grid positions and edges


def csv_reference(data: bytes) -> dict:
    lines = data.decode().splitlines()
    stride = 1 if len(lines) - 1 <= FULL_CSV_ROWS else CSV_STRIDE
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": len(lines) - 1,
        "header": lines[0],
        "stride": stride,
        "sample": lines[1::stride],
    }


def reference(output: dict) -> dict:
    csv = output["csv"]
    return {"exit": output["exit"], "json": output["json"],
            "csv": None if csv is None else csv_reference(csv)}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))


def _compare_json(ref, out, where: str, errors: list[str]) -> None:
    if type(ref) is not type(out):
        errors.append(f"{where}: type {type(out).__name__} != {type(ref).__name__}")
    elif isinstance(ref, dict):
        if sorted(ref) != sorted(out):
            errors.append(f"{where}: keys {sorted(out)} != {sorted(ref)}")
            return
        for key in ref:
            _compare_json(ref[key], out[key], f"{where}/{key}", errors)
    elif isinstance(ref, list):
        if len(ref) != len(out):
            errors.append(f"{where}: length {len(out)} != {len(ref)}")
            return
        for i, (r, o) in enumerate(zip(ref, out)):
            _compare_json(r, o, f"{where}/{i}", errors)
    elif isinstance(ref, float):
        if not _close(ref, out):
            errors.append(f"{where}: {out!r} != {ref!r}")
    elif ref != out:
        errors.append(f"{where}: {out!r} != {ref!r}")


def _compare_field(ref: str, out: str) -> bool:
    if ref == out:
        return True
    if ref.lstrip("-").isdigit():  # an edge index: must match exactly
        return False
    try:
        return _close(float(ref), float(out))
    except ValueError:
        return False


def _compare_csv(ref: dict, data: bytes, errors: list[str]) -> None:
    if hashlib.sha256(data).hexdigest() == ref["sha256"]:
        return
    lines = data.decode().splitlines()
    if len(lines) - 1 != ref["rows"] or lines[0] != ref["header"]:
        errors.append(f"csv: {len(lines) - 1} rows, header {lines[0]!r}; "
                      f"expected {ref['rows']} rows, header {ref['header']!r}")
        return
    stride = ref["stride"]
    for j, (r, o) in enumerate(zip(ref["sample"], lines[1::stride])):
        rf, of = r.split(","), o.split(",")
        if len(rf) != len(of) or not all(map(_compare_field, rf, of)):
            errors.append(f"csv row {1 + j * stride}: {o!r} != {r!r}")
            return


def compare(ref: dict, output: dict) -> list[str]:
    """Mismatches between one command's output and its reference."""
    errors: list[str] = []
    if output["exit"] != ref["exit"]:
        errors.append(f"exit code {output['exit']} != {ref['exit']}")
    _compare_json(ref["json"], output["json"], "json", errors)
    if (ref["csv"] is None) != (output["csv"] is None):
        errors.append("csv presence differs")
    elif ref["csv"] is not None:
        _compare_csv(ref["csv"], output["csv"], errors)
    return errors


def _first_float_path(doc, path=()):
    if isinstance(doc, float):
        return path
    items = sorted(doc.items()) if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        found = _first_float_path(value, path + (key,))
        if found is not None:
            return found
    return None


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def _corrupt_csv(data: bytes, stride: int) -> bytes:
    """Add 1e-9 to the value/delta column of a sampled row near the middle."""
    lines = data.decode().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    col = header.index("value") if "value" in header else header.index("delta")
    row = 1 + stride * ((len(lines) - 2) // stride // 2)
    text = lines[row].rstrip("\r\n")
    fields = text.split(",")
    fields[col] = repr(float(fields[col]) + 1e-9)
    lines[row] = ",".join(fields) + lines[row][len(text):]
    return "".join(lines).encode()


def self_test(refs: list[dict], outputs: list[dict]) -> list[str]:
    """Corruptions of outputs that match refs which compare() fails to flag.

    Each corruption is applied to one command's output, compared and undone:
    a CSV value moved by 1e-9, the first JSON float moved by 1e-9, tau
    increased by 1, one support-pattern bit flipped, and a failing exit code.
    """
    missed = []

    def expect_failure(label, ref, out):
        if not compare(ref, out):
            missed.append(label)

    for i, (ref, out) in enumerate(zip(refs, outputs)):
        if compare(ref, out):
            raise ValueError(f"self-test needs outputs that match; command {i} does not")
        expect_failure(f"command {i}: exit code 1", ref, dict(out, exit=1))
        if out["csv"] is not None:
            expect_failure(f"command {i}: csv value +1e-9", ref,
                           dict(out, csv=_corrupt_csv(out["csv"], ref["csv"]["stride"])))
        doc = out["json"]
        path = _first_float_path(doc)
        if path is not None:
            value = _get(doc, path)
            _set(doc, path, value + 1e-9)
            expect_failure(f"command {i}: json float {'/'.join(map(str, path))} +1e-9", ref, out)
            _set(doc, path, value)
        if isinstance(doc, dict) and "tau" in doc:
            doc["tau"] += 1
            expect_failure(f"command {i}: tau + 1", ref, out)
            doc["tau"] -= 1
        patterns = doc.get("distinct_patterns") or doc.get("support", {}).get("patterns")
        if patterns:
            row = next(iter(patterns.values()))[0]
            row[0] ^= 1
            expect_failure(f"command {i}: pattern bit flip", ref, out)
            row[0] ^= 1
    return missed
