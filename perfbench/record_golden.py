"""Record the ``movie`` workload's frame digests into golden_frames.json.

The frames are rendered from the baseline full-read ``contour_grid``
geometry (no server involved), composed and rendered exactly as the
``movie`` workload does.  A movie run checks every frame it renders
against these digests, so a renderer change that alters a single pixel
fails the run.  Run from the repository root (about half a minute of
rendering per dataset seed)::

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import DATASETS, SRC, make_dataset  # noqa: E402

sys.path.insert(0, str(SRC))

from workloads import (  # noqa: E402
    GOLDEN_FRAMES,
    MOVIE_ARRAYS,
    MOVIE_VALUE,
    frame_digest,
    movie_frame,
)


def main() -> int:
    from repro.filters.contour import contour_grid

    frames = {}
    for asteroid_seed in DATASETS:
        dataset = make_dataset(asteroid_seed)
        camera, digests = None, []
        for step in dataset.timesteps:
            grid = dataset.generate_arrays(step, list(MOVIE_ARRAYS))
            water, asteroid = (contour_grid(grid, a, [MOVIE_VALUE])
                               for a in MOVIE_ARRAYS)
            image, camera, _ = movie_frame(water, asteroid, camera)
            digests.append(frame_digest(image))
        frames[str(asteroid_seed)] = digests
        print(f"dataset seed {asteroid_seed}: {len(digests)} frames", flush=True)
    GOLDEN_FRAMES.write_text(json.dumps({"frames": frames}, indent=1) + "\n")
    print(f"wrote {GOLDEN_FRAMES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
