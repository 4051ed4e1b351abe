"""Set-up probe, run by run.py in a fresh interpreter.

Usage: python3 perfbench/probe.py '<argv as a JSON list>'

Times ``import tripow.cli`` plus one warm-up call under the host-speed
sampler of hostspeed.py, the same way run.py times an in-process call.
Prints the set-up time, its host slowdown, the call's exit code and its
captured stdout as one JSON object.
"""

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hostspeed import HostSpeed

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(argv) -> dict:
    out = io.StringIO()
    t0 = time.perf_counter()
    import tripow.cli

    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = tripow.cli.main(argv)
    return {"dt": time.perf_counter() - t0, "code": code, "stdout": out.getvalue(),
            "module": tripow.cli.__file__}


def main() -> int:
    argv = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    with HostSpeed() as hs:
        rec = hs.run(setup, argv)
    hs.scale([rec])
    if not Path(rec["module"]).resolve().is_relative_to(SRC):
        print(f"tripow imported from outside {SRC}", file=sys.stderr)
        return 2
    json.dump({"setup_s": rec["dt"], "slowdown": rec["slowdown"], "code": rec["code"],
               "stdout": rec["stdout"]}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
