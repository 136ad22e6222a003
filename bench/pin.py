#!/usr/bin/env python3
"""Rewrite digests.json: the output digest of every workload under every
relabelling, computed by the code in ``src/`` now.

    python3 bench/pin.py

Pin only from a commit whose outputs are known good; every later run
compares its outputs against these digests.
"""

import json
import sys

import run


def main() -> int:
    run._import_program()
    import workloads

    pins = {}
    for name, wl in workloads.WORKLOADS.items():
        pins[name] = {}
        for variant in range(workloads.VARIANTS):
            units = workloads.units(wl, workloads.build_inputs(wl, variant, run._workdir()))
            p = run.Pass(wl, units)
            if run._failures(wl, units, p, [p]):
                print(f"{name} relabelling {variant}: outputs fail their checks")
                return 1
            pins[name][str(variant)] = workloads.pass_digest(p.digests)
            print(name, variant, pins[name][str(variant)], flush=True)
    with open(run.HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
