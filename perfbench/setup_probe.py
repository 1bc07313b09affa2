"""Print the seconds a fresh interpreter takes to import relviews.cli and to
load and validate every model and outline of one workload, together with
the reference-loop time measured in the same process (see speed.py).

    python3 perfbench/setup_probe.py proof-rgsep

run.py starts this several times per run and reports the median of the
scaled set-up times as setup_s.
"""

import json
import os
import sys
import time

from speed import reference_loop
from workloads import REPO_ROOT, WORKLOADS


def main(workload_name: str) -> None:
    workload = WORKLOADS[workload_name]
    paths = [(os.path.join(REPO_ROOT, model),
              outline and os.path.join(REPO_ROOT, outline))
             for model, outline in workload.models()]
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    before = reference_loop()
    start = time.perf_counter()
    import relviews.cli  # noqa: F401
    from relviews.model_io import load_model, load_outlines

    for model_path, outline_path in paths:
        model = load_model(model_path)
        if outline_path:
            load_outlines(outline_path, model)
    setup = time.perf_counter() - start
    print(json.dumps({"setup_s": setup,
                      "reference_s": [before, reference_loop()]}))


if __name__ == "__main__":
    main(sys.argv[1])
