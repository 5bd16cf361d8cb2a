"""Regenerate the SHA-256 manifest of every preset's output files.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_preset_manifest.py

Each preset runs at seeds 0, 1 and 7 with both the CSV and the plot data
on, and the manifest pins the SHA-256 of every file written.  The files
hold the float reprs of numpy and libm results, so, like
vscbench/expected.json, the manifest is tied to the platform it was made
on: regenerate it only with a change that re-pins the outputs on purpose.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from vscsim.config import build_config
from vscsim.presets import get_preset, list_presets
from vscsim.runner import run

MANIFEST = Path(__file__).resolve().parent / "preset_manifest.json"
SEEDS = (0, 1, 7)


def preset_digests(out_dir: Path) -> dict[str, str]:
    """Run every preset at every seed into out_dir/seed<N>; returns the
    SHA-256 of each file written, keyed by its path under out_dir."""
    digests = {}
    for seed in SEEDS:
        for name in list_presets():
            doc = {**get_preset(name), "seed": seed, "emit": {"csv": True, "plot_data": True}}
            for path in run(build_config(doc), out_dir=str(out_dir / f"seed{seed}")):
                digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = preset_digests(Path(tmp))
    MANIFEST.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST} ({len(digests)} files)")
