"""Regenerate digests.json: the per-entity spectrogram digest (rows,
frames, mean, L2 norm) of every featurize family member at both sizes.

The digests are the reference the featurize workload checks against, so
regenerate them only when the front end's output is meant to change:

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from respdl import dsp, harness  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    bank = dsp.build_gammatone_bank()
    out = {}
    tmp = Path(tempfile.mkdtemp(dir=ROOT))
    try:
        for size in (workloads.FULL, workloads.TINY):
            table = out[size.label] = {}
            for rate in workloads.RATES:
                for index in range(size.family):
                    member = workloads.featurize_member(tmp / size.label, rate, index, size)
                    manifest, _ = workloads.featurize_expectations(member, rate)
                    feats = harness.build_features(
                        manifest, "Task1_4class", workloads.MIN_CYCLE_S, bank)
                    table[f"{rate}/{index}"] = [
                        [eid] + workloads.spectrogram_digest(f.spec)
                        for eid, f in sorted(feats.items())
                    ]
                    print(size.label, rate, index, flush=True)
    finally:
        shutil.rmtree(tmp)
    lines = []
    for label, table in out.items():
        members = ",\n".join(f"  {json.dumps(key)}: {json.dumps(rows)}" for key, rows in table.items())
        lines.append(f" {json.dumps(label)}: {{\n{members}\n }}")
    workloads.DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
