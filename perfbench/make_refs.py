"""Record reference outputs for one workload seed from the current source tree.

    python3 perfbench/make_refs.py --workload solve-additive-hide --seed 1 --items 160

Run this at the commit that defines the references.  It adds the seed to
``perfbench/refs/<workload>.json`` and refuses to replace a seed that is
already there: references are never regenerated to absorb a mismatch.  An
output that fails its own checks is not recorded either.  It records items
0 to ``--items`` - 1; the warm-up item's input does not depend on the seed,
so it is not recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--items", type=int, required=True)
    args = parser.parse_args(argv)

    harness.cap_threads()
    harness.use_source(harness.DEFAULT_SRC)
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    refs = harness.load_refs(args.workload)
    if str(args.seed) in refs:
        print(f"seed {args.seed} already has references for {args.workload}", file=sys.stderr)
        return 1
    with harness.workdir() as wd:
        wl = cls(args.seed, 1, wd)
        items = [harness.run_item(wl, i) for i in range(args.items)]
        failures = harness.verify(wl, items, {})
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        refs[str(args.seed)] = {str(it.index): wl.reference(it.out) for it in items}
    harness.REFS_DIR.mkdir(exist_ok=True)
    path = harness.REFS_DIR / f"{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(items)} items of {args.workload} seed {args.seed} "
          f"({harness.environment(harness.DEFAULT_SRC)['commit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
