#!/usr/bin/env python3
"""Validate an artifact-store directory (the .sfcart on-disk format).

This checker is the executable definition of the format that
src/core/artifact_store.cpp writes: CI runs it over the bench-smoke
store directory after a warm run, so a writer-side regression (bad
checksum, wrong header field, misnamed file) fails the build even
though the C++ reader would silently treat the file as a miss.

Per file named `<stage>-<hex16>.sfcart`:
  - the 48-byte header leads with magic "SFCARTv1"
  - format_version (u32 at offset 8) matches --format-version
  - stage (u32 at offset 12) agrees with the `<stage>` filename prefix
  - the `<hex16>` filename stem equals the derived file key
    sweep_key(stage, sweep_key(provenance, key)) recomputed from the
    header's raw key (u64 at offset 16) and provenance (u64 at 24)
  - payload_bytes (u64 at offset 32) == file size - 48 exactly
  - checksum (u64 at offset 40) == FNV-1a over the payload
  - only persistable stages appear (sample/topology never touch
    disk)
Across files:
  - with --single-provenance, every file must share one provenance
    (u64 at offset 24). A mixed-provenance directory is legal — the
    reader ignores foreign entries and budget eviction retires them —
    and expected when a CI cache carries artifacts from older commits,
    so by default a mix is only reported, not failed. Pass the flag
    when the directory is known to come from exactly one build (the
    fresh-store smoke in CI does).

Usage: scripts/check_artifact_store.py DIR [--min-files N]
                                       [--format-version V]
                                       [--single-provenance]
Exits nonzero with a message per violation.
"""

import argparse
import os
import struct
import sys

MAGIC = b"SFCARTv1"
HEADER_LEN = 48

# Mirrors SweepStage in src/core/sweep.hpp. Only the stages whose
# rebuild cost clears the serialize/deserialize bar are persisted;
# seeing any other name on disk is a writer bug.
STAGE_NAMES = [
    "sample", "canonical", "ordering", "instance",
    "nfi_histogram", "ffi_histogram", "topology", "fold",
]
PERSISTABLE = {"canonical", "ordering", "instance",
               "nfi_histogram", "ffi_histogram", "fold"}


def fnv1a(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def sweep_mix(x):
    """splitmix64 finalizer — mirrors sweep_mix in src/core/sweep.hpp."""
    mask = 0xFFFFFFFFFFFFFFFF
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def sweep_key(h, v):
    return sweep_mix(h ^ sweep_mix(v))


def check_file(path, expect_version, errors):
    """Validate one artifact; return its provenance or None on error."""
    name = os.path.basename(path)
    stem = name[: -len(".sfcart")]
    stage_name, sep, hex_key = stem.rpartition("-")
    if not sep or stage_name not in STAGE_NAMES or len(hex_key) != 16:
        errors.append(f"{name}: filename is not <stage>-<hex16>.sfcart")
        return None
    if stage_name not in PERSISTABLE:
        errors.append(f"{name}: stage '{stage_name}' must never be "
                      "persisted")
        return None
    try:
        file_key = int(hex_key, 16)
    except ValueError:
        errors.append(f"{name}: key '{hex_key}' is not hex")
        return None

    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < HEADER_LEN:
        errors.append(f"{name}: {len(blob)} bytes, shorter than the "
                      f"{HEADER_LEN}-byte header")
        return None
    magic = blob[:8]
    version, stage, key, provenance, payload_bytes, checksum = (
        struct.unpack_from("<IIQQQQ", blob, 8))
    payload = blob[HEADER_LEN:]

    if magic != MAGIC:
        errors.append(f"{name}: magic {magic!r} != {MAGIC!r}")
        return None
    if version != expect_version:
        errors.append(f"{name}: format_version {version} != "
                      f"{expect_version}")
    if stage >= len(STAGE_NAMES) or STAGE_NAMES[stage] != stage_name:
        recorded = (STAGE_NAMES[stage] if stage < len(STAGE_NAMES)
                    else f"#{stage}")
        errors.append(f"{name}: header stage {recorded} disagrees with "
                      f"the filename")
    derived = sweep_key(stage, sweep_key(provenance, key))
    if derived != file_key:
        errors.append(f"{name}: filename key {file_key:016x} != "
                      f"sweep_key(stage, sweep_key(provenance, key)) = "
                      f"{derived:016x}")
    if payload_bytes != len(payload):
        errors.append(f"{name}: header claims {payload_bytes} payload "
                      f"bytes, file carries {len(payload)}")
        return None
    actual = fnv1a(payload)
    if checksum != actual:
        errors.append(f"{name}: checksum {checksum:016x} != computed "
                      f"{actual:016x}")
        return None
    return provenance


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dir", help="artifact-store directory")
    parser.add_argument("--min-files", type=int, default=1,
                        help="fail unless at least N valid artifacts "
                             "(default 1)")
    parser.add_argument("--format-version", type=int, default=2,
                        help="expected on-disk format version")
    parser.add_argument("--single-provenance", action="store_true",
                        help="fail if artifacts from more than one build "
                             "coexist (default: report only)")
    opts = parser.parse_args()

    if not os.path.isdir(opts.dir):
        sys.exit(f"error: {opts.dir} is not a directory")

    errors = []
    provenances = {}
    valid = 0
    stage_counts = {}
    for name in sorted(os.listdir(opts.dir)):
        if not name.endswith(".sfcart"):
            if name.startswith("tmp-"):
                errors.append(f"{name}: leftover temp file — a writer "
                              "died between create and rename")
            continue
        prov = check_file(os.path.join(opts.dir, name),
                          opts.format_version, errors)
        if prov is not None:
            valid += 1
            provenances.setdefault(prov, []).append(name)
            stage = name.rpartition("-")[0]
            stage_counts[stage] = stage_counts.get(stage, 0) + 1

    if len(provenances) > 1:
        summary = ", ".join(f"{p:016x} ({len(files)} files)"
                            for p, files in sorted(provenances.items()))
        if opts.single_provenance:
            errors.append(f"mixed provenance across artifacts: {summary}")
        else:
            print(f"note: mixed provenance (stale builds pending "
                  f"eviction): {summary}")
    if valid < opts.min_files:
        errors.append(f"only {valid} valid artifacts, expected at least "
                      f"{opts.min_files}")

    for msg in errors:
        print(f"error: {msg}", file=sys.stderr)
    if errors:
        sys.exit(1)
    per_stage = ", ".join(f"{s}={n}" for s, n in sorted(
        stage_counts.items()))
    print(f"ok: {valid} artifacts valid in {opts.dir} ({per_stage})")


if __name__ == "__main__":
    main()
