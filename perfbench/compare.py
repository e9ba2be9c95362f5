"""Compare two benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both records with the relative change.  Refuses
(exit 2) when the records come from different workloads, trace modes or
kernel backends, because such numbers are not comparable.
"""

import json
import sys

SAME = ("backend", "python", "numpy")


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} {base[key]!r} vs "
                  f"{new[key]!r}", file=sys.stderr)
            return 2
    for key in SAME:
        if base["env"][key] != new["env"][key]:
            print(f"refusing to compare: {key} {base['env'][key]!r} vs "
                  f"{new['env'][key]!r}", file=sys.stderr)
            return 2
    print(f"workload {base['workload']}, backend {base['env']['backend']}: "
          f"{base['env']['git_rev'] or base['env']['src_sha256']} -> "
          f"{new['env']['git_rev'] or new['env']['src_sha256']}")
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"  {name:36s} {a:14.6g} {b:14.6g} {m['unit']:6s} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
