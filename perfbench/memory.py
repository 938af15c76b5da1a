"""Peak memory of the program alone, in a process of its own.

    python3 perfbench/memory.py < jobs.json

Reads a JSON list of [text, mode, scalar] from standard input, imports
the program from `src/`, parses every text and solves each once, then
prints the process's peak resident set in MB. The process holds nothing
else of the benchmark: no instance generator or certificate. A solve
that raises is skipped, as the timed run counts it.

The peak is `VmHWM` of /proc/self/status (Linux), the high-water mark
of this program image alone. `ru_maxrss` would not do: it keeps the
peak of the process image that ran before exec, which for a child
started with vfork is the parent's.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    jobs = json.loads(sys.stdin.read())
    from treecenter import parse_tree
    from treecenter.solver import SolverConfig, solve

    for text, mode, scalar in jobs:
        tree, k = parse_tree(text, scalar)
        try:
            solve(tree, k, SolverConfig(mode=mode, scalar=scalar))
        except Exception:
            pass
    print(peak_kib() / 1024)
    return 0


def peak_kib() -> int:
    status = Path("/proc/self/status").read_text(encoding="ascii")
    line = next(line for line in status.splitlines() if line.startswith("VmHWM:"))
    return int(line.split()[1])


if __name__ == "__main__":
    sys.exit(main())
